"""Objective, gradients, and the minibatch SGD training loop.

The objective over a batch of relaxed codes H (n x L) with similarity
matrix S and diagonal segment-weight matrix A is

    J = ||H A H^T - L*S||_F^2 - alpha * tr(H A H^T),

whose exact gradient in H is 4 (H A H^T - L*S) H A - 2 alpha H A. The
analytic gradient is verified against central finite differences; training
uses the relaxed codes throughout and never applies the sign function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import Architecture, HashModel, SegmentLayout, forward, init_model
from .errors import (
    EmptyDataset,
    NonFiniteGradient,
    NonFiniteInput,
    ShapeMismatch,
    UnknownLabel,
)
from .hierarchy import Taxonomy

# The step size is multiplied by ETA_DECAY every ETA_DECAY_EVERY iterations.
ETA_DECAY = 2.0 / 3.0
ETA_DECAY_EVERY = 20


@dataclass(frozen=True)
class TrainConfig:
    iters: int
    alpha: float = 1.0
    eta0: float = 0.01
    batch: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if self.batch < 2:
            raise ValueError("batch must be >= 2 (pairwise loss needs pairs)")
        if self.eta0 <= 0:
            raise ValueError("eta0 must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")

    def eta_at(self, t: int) -> float:
        """Step size at 0-based iteration t: eta0 * ETA_DECAY^floor(t / ETA_DECAY_EVERY)."""
        return self.eta0 * ETA_DECAY ** (t // ETA_DECAY_EVERY)


@dataclass(frozen=True)
class TrainRecord:
    iteration: int
    eta: float
    loss: float
    fit: float    # ||H A H^T - L*S||_F^2
    trace: float  # alpha * tr(H A H^T); loss = fit - trace


def _check_loss_inputs(Htilde, S, layout):
    H = np.asarray(Htilde, dtype=np.float64)
    S = np.asarray(S, dtype=np.float64)
    if H.ndim != 2 or H.shape[1] != layout.L:
        raise ShapeMismatch(f"relaxed codes must be n x {layout.L}, got {H.shape}")
    n = H.shape[0]
    if S.shape != (n, n):
        raise ShapeMismatch(f"similarities must be {n} x {n}, got {S.shape}")
    if not (np.isfinite(H).all() and np.isfinite(S).all()):
        raise NonFiniteInput("loss inputs contain NaN or infinity")
    return H, S


def loss_terms(Htilde, S, layout: SegmentLayout, alpha: float) -> tuple[float, float, float]:
    """(loss, fit, trace) where loss = fit - trace."""
    H, S = _check_loss_inputs(Htilde, S, layout)
    HA = H * layout.A
    P = HA @ H.T
    R = P - layout.L * S
    fit = float((R * R).sum())
    trace = float(alpha * np.trace(P))
    return fit - trace, fit, trace


def loss_gradient(Htilde, S, layout: SegmentLayout, alpha: float) -> np.ndarray:
    """dJ/dH, exact: 4 (H A H^T - L*S) H A - 2 alpha H A."""
    H, S = _check_loss_inputs(Htilde, S, layout)
    HA = H * layout.A
    R = HA @ H.T - layout.L * S
    return 4.0 * (R @ HA) - 2.0 * alpha * HA


def parameter_gradients(model: HashModel, X: np.ndarray, S: np.ndarray, alpha: float):
    """Backpropagate dJ/dH through the network.

    Returns (stats, gW, gv) with stats = (loss, fit, trace). Hidden-layer
    deltas are masked by the rectifier derivative (1 where the activation
    is positive); the identity output layer has an all-ones mask.
    """
    Htilde, activations = forward(model, X)
    J, fit, trace = loss_terms(Htilde, S, model.layout, alpha)
    delta = loss_gradient(Htilde, S, model.layout, alpha)

    gW = [None] * model.n_layers
    gv = [None] * model.n_layers
    for m in range(model.n_layers - 1, -1, -1):
        below = activations[m - 1] if m > 0 else X
        gW[m] = delta.T @ below
        gv[m] = delta.sum(axis=0)
        if m > 0:
            delta = (delta @ model.W[m]) * (activations[m - 1] > 0)
    return (J, fit, trace), gW, gv


def _batch_scale(layout: SegmentLayout, m: int) -> float:
    """Normalization of the batch objective: per pair and per unit of the
    maximum weighted inner product W = sum_k u_k L_k.

    The raw batch sum of the objective grows with m^2 pair terms of size
    O(L^2) and overflows within a few iterations at the default step size
    and batch 128; this scaling keeps SGD stable across batch sizes and
    code lengths while leaving single-pair hand values unchanged at the
    unit layout. backprop_step reports the raw objective with alpha scaled
    by m, times this scale: [fit/m^2 - alpha * trace/m] / W.
    """
    return 1.0 / (layout.max_distance * m * m)


def backprop_step(model: HashModel, X_batch: np.ndarray, labels_batch,
                  tax: Taxonomy, config: TrainConfig, eta: float):
    """One SGD update on a batch. Returns (updated model, (loss, fit, trace)).

    The batch similarity matrix is built from the labels; the loss and its
    gradient are the batch-normalized objective. The input model is not
    mutated.
    """
    X = np.asarray(X_batch, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ShapeMismatch("batch must be a 2-D array with at least 2 rows")
    m = X.shape[0]
    if len(labels_batch) != m:
        raise ShapeMismatch(f"{len(labels_batch)} labels for {m} rows")
    if not np.isfinite(X).all():
        raise NonFiniteInput("batch features contain NaN or infinity")
    S = tax.similarity_matrix(labels_batch)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # guard below reports overflow
            (J, fit, trace), gW, gv = parameter_gradients(model, X, S, config.alpha * m)
    except NonFiniteInput:
        # features were finite, so overflow came from the parameters diverging
        raise NonFiniteGradient(
            "forward pass overflowed; reduce eta or rescale the features"
        ) from None
    scale = _batch_scale(model.layout, m)
    stats = (J * scale, fit * scale, trace * scale)
    for g in gW + gv:
        if not np.isfinite(g).all():
            raise NonFiniteGradient(
                "gradient overflowed; reduce eta or rescale the features"
            )
    updated = HashModel(
        arch=model.arch,
        layout=model.layout,
        W=[w - eta * scale * g for w, g in zip(model.W, gW)],
        v=[b - eta * scale * g for b, g in zip(model.v, gv)],
    )
    return updated, stats


def train(features: np.ndarray, labels, tax: Taxonomy, arch: Architecture,
          layout: SegmentLayout, config: TrainConfig) -> tuple[HashModel, list[TrainRecord]]:
    """Algorithm: init the model, then T iterations of sample-batch + SGD step,
    with eta multiplied by ETA_DECAY every ETA_DECAY_EVERY iterations.
    Returns the model and one TrainRecord per iteration."""
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0] if features.ndim == 2 else 0
    if n < 2:
        raise EmptyDataset(f"need at least 2 training items, got {n}")
    if len(labels) != n:
        raise ShapeMismatch(f"{len(labels)} labels for {n} feature rows")
    labels = list(labels)
    for lab in labels:
        if lab not in tax.leaves:
            raise UnknownLabel(f"{lab!r} is not a leaf label of the taxonomy")

    seed_init, seed_sample = np.random.SeedSequence(config.seed).spawn(2)
    model = init_model(arch, layout, seed_init)
    rng = np.random.default_rng(seed_sample)
    batch_size = min(config.batch, n)

    log = []
    for t in range(config.iters):
        eta = config.eta_at(t)
        idx = rng.choice(n, size=batch_size, replace=False)
        batch_labels = [labels[i] for i in idx]
        model, (J, fit, trace) = backprop_step(
            model, features[idx], batch_labels, tax, config, eta
        )
        log.append(TrainRecord(iteration=t, eta=eta, loss=J, fit=fit, trace=trace))
    return model, log

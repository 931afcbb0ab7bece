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
    InvalidNumber,
    NonFiniteGradient,
    NonFiniteInput,
    ShapeMismatch,
)
from .hierarchy import Taxonomy

# The step size is multiplied by ETA_DECAY every ETA_DECAY_EVERY iterations.
ETA_DECAY = 2.0 / 3.0
ETA_DECAY_EVERY = 20


@dataclass(frozen=True)
class TrainConfig:
    """The training recipe: the network's hidden widths and the SGD settings."""

    iters: int = 200
    alpha: float = 1.0
    eta0: float = 0.01
    batch: int = 128
    seed: int = 0
    hidden: tuple[int, ...] = (512, 512)

    def __post_init__(self):
        if any(h < 1 for h in self.hidden):
            raise ShapeMismatch("all layer widths must be >= 1")
        if self.iters < 1:
            raise InvalidNumber("iters must be >= 1")
        if self.batch < 2:
            raise InvalidNumber("batch must be >= 2 (pairwise loss needs pairs)")
        if not self.eta0 > 0:  # also rejects NaN
            raise InvalidNumber("eta0 must be positive")
        if not self.alpha >= 0:
            raise InvalidNumber("alpha must be >= 0")
        if self.seed < 0:
            raise InvalidNumber(f"seed must be >= 0, got {self.seed}")

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


def loss_terms(Htilde, S, layout: SegmentLayout,
               alpha: float) -> tuple[tuple[float, float, float], np.ndarray]:
    """((loss, fit, trace), dJ/dH) with loss = fit - trace and the exact
    gradient dJ/dH = 4 (H A H^T - L*S) H A - 2 alpha H A."""
    H = np.asarray(Htilde, dtype=np.float64)
    S = np.asarray(S, dtype=np.float64)
    if H.ndim != 2 or H.shape[1] != layout.L:
        raise ShapeMismatch(f"relaxed codes must be n x {layout.L}, got {H.shape}")
    n = H.shape[0]
    if S.shape != (n, n):
        raise ShapeMismatch(f"similarities must be {n} x {n}, got {S.shape}")
    HA = H * layout.A
    P = HA @ H.T
    R = P - layout.L * S
    fit = float((R * R).sum())
    trace = float(alpha * np.trace(P))
    return (fit - trace, fit, trace), 4.0 * (R @ HA) - 2.0 * alpha * HA


def parameter_gradients(model: HashModel, X: np.ndarray, S: np.ndarray, alpha: float):
    """Backpropagate dJ/dH through the network.

    Returns (stats, gW, gv) with stats = (loss, fit, trace). Hidden-layer
    deltas are masked by the rectifier derivative (1 where the activation
    is positive); the identity output layer has an all-ones mask. The
    network and its gradients are in the model's dtype; the loss and dJ/dH
    are float64 (loss_terms), and dJ/dH is cast to the model's dtype.
    """
    X = np.asarray(X, dtype=model.W[0].dtype)
    Htilde, activations = forward(model, X)
    stats, delta = loss_terms(Htilde, S, model.layout, alpha)
    delta = delta.astype(X.dtype, copy=False)

    gW = [None] * model.n_layers
    gv = [None] * model.n_layers
    for m in range(model.n_layers - 1, -1, -1):
        below = activations[m - 1] if m > 0 else X
        gW[m] = delta.T @ below
        gv[m] = delta.sum(axis=0)
        if m > 0:
            delta = delta @ model.W[m]
            delta *= activations[m - 1] > 0
    return stats, gW, gv


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


def backprop_step(model: HashModel, X_batch: np.ndarray, S: np.ndarray,
                  config: TrainConfig, eta: float):
    """One SGD update on a batch. Returns (updated model, (loss, fit, trace)).

    S is the batch's m x m similarity matrix (Taxonomy.similarity_matrix);
    the loss and its gradient are the batch-normalized objective. The batch
    is taken in the model's dtype, and the updated model keeps that dtype;
    the stats are float64. The input model is not mutated.
    """
    X = np.asarray(X_batch, dtype=model.W[0].dtype)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ShapeMismatch("batch must be a 2-D array with at least 2 rows")
    m = X.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is reported below
        (J, fit, trace), gW, gv = parameter_gradients(model, X, S, config.alpha * m)
    if not (np.isfinite(J) and all(np.isfinite(g).all() for g in gW + gv)):
        # forward rejected non-finite features, so the parameters diverged
        raise NonFiniteGradient("training diverged; reduce eta or rescale the features")
    scale = _batch_scale(model.layout, m)
    stats = (J * scale, fit * scale, trace * scale)
    # each gradient becomes its new parameter in place: g*(-c) + w is
    # w - c*g to the bit, and the input model's arrays are only read
    for g, w in zip(gW + gv, model.W + model.v):
        g *= -(eta * scale)
        g += w
    return HashModel(layout=model.layout, W=gW, v=gv), stats


def train(features: np.ndarray, labels, tax: Taxonomy, layout: SegmentLayout,
          config: TrainConfig) -> tuple[HashModel, list[TrainRecord]]:
    """Algorithm: init the model, then T iterations of sample-batch + SGD step,
    with eta multiplied by ETA_DECAY every ETA_DECAY_EVERY iterations.
    Returns the model and one TrainRecord per iteration. The network takes
    the features' width, has config.hidden hidden widths and layout.L outputs.

    The network trains in float32: init_model's float64 draw is cast to
    float32, each batch is taken in float32, and the trained model is
    widened to float64 on return, the dtype SHDM stores and encode computes
    in. The loss and its gradient in the codes stay float64 (loss_terms)."""
    features = np.asarray(features)
    n = features.shape[0] if features.ndim == 2 else 0
    if len(labels) != n:
        raise ShapeMismatch(f"{len(labels)} labels for {n} feature rows")
    if n < 2:
        raise EmptyDataset(f"need at least 2 training items, got {n}")
    if not np.isfinite(features).all():
        raise NonFiniteInput("training features contain NaN or infinity")
    if (features.dtype != np.float32
            and np.abs(features).max(initial=0.0) > np.finfo(np.float32).max):
        raise NonFiniteInput("training features exceed the float32 range the network trains in")
    arch = Architecture(d=features.shape[1], hidden=config.hidden, L=layout.L)
    rows = tax.label_rows(labels)

    seed_init, seed_sample = np.random.SeedSequence(config.seed).spawn(2)
    model = init_model(arch, layout, seed_init).astype(np.float32)
    rng = np.random.default_rng(seed_sample)
    batch_size = min(config.batch, n)

    log = []
    for t in range(config.iters):
        eta = config.eta_at(t)
        idx = rng.choice(n, size=batch_size, replace=False)
        model, (J, fit, trace) = backprop_step(
            model, features[idx], tax.similarity_matrix(rows[idx]), config, eta
        )
        log.append(TrainRecord(iteration=t, eta=eta, loss=J, fit=fit, trace=trace))
    return model.astype(np.float64), log

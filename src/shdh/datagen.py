"""Seeded synthetic data: hierarchical Gaussian mixtures with a matching
three-layer taxonomy (root -> superclasses -> subclasses).

Each superclass draws a mean vector; each subclass perturbs its
superclass mean; items add isotropic noise on top of their subclass mean.
`scale` multiplies the final features; the defaults are calibrated so SGD
at the default step size escapes the near-zero initialization within the
default iteration budget yet stays stable (the objective is quartic in
the code scale, so over-large features diverge).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidNumber, NonFiniteInput


@dataclass(frozen=True)
class SyntheticConfig:
    n_super: int = 4
    n_sub: int = 4          # subclasses per superclass
    dim: int = 64
    n_train: int = 2000
    n_query: int = 200
    super_std: float = 3.0  # spread of superclass means
    sub_std: float = 1.5    # spread of subclass means around their superclass
    noise_std: float = 0.5
    scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_super < 1 or self.n_sub < 1 or self.dim < 1:
            raise InvalidNumber("n_super, n_sub, and dim must be >= 1")
        if self.n_train < 1 or self.n_query < 0:
            raise InvalidNumber("need n_train >= 1 and n_query >= 0")
        for name in ("super_std", "sub_std", "noise_std"):
            if not getattr(self, name) >= 0.0:
                raise InvalidNumber(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.seed < 0:
            raise InvalidNumber(f"seed must be >= 0, got {self.seed}")


@dataclass
class SyntheticData:
    taxonomy_edges: list[tuple[str, str]]
    train_features: np.ndarray   # float32, n_train x dim
    train_labels: list[str]
    query_features: np.ndarray   # float32, n_query x dim
    query_labels: list[str]


def _super_name(i: int) -> str:
    return f"s{i}"


def _leaf_name(i: int, j: int) -> str:
    return f"s{i}_c{j}"


def generate(config: SyntheticConfig) -> SyntheticData:
    """Balanced class assignment (shuffled), deterministic in the seed."""
    rng = np.random.default_rng(config.seed)

    edges = []
    leaves = []
    for i in range(config.n_super):
        edges.append(("root", _super_name(i)))
        for j in range(config.n_sub):
            edges.append((_super_name(i), _leaf_name(i, j)))
            leaves.append(_leaf_name(i, j))

    super_means = rng.normal(0.0, config.super_std, size=(config.n_super, config.dim))
    sub_means = super_means[:, None, :] + rng.normal(
        0.0, config.sub_std, size=(config.n_super, config.n_sub, config.dim)
    )
    leaf_means = sub_means.reshape(config.n_super * config.n_sub, config.dim)

    def sample_split(n: int):
        n_classes = len(leaves)
        classes = np.arange(n, dtype=np.int64) % n_classes
        rng.shuffle(classes)
        X = leaf_means[classes] + rng.normal(0.0, config.noise_std, size=(n, config.dim))
        # checked before scaling, whose overflow would warn
        peak = max(float(X.max(initial=0.0)), -float(X.min(initial=0.0)))
        if not peak * abs(config.scale) <= float(np.finfo(np.float32).max):
            raise NonFiniteInput(f"--scale {config.scale!r} carries features past the float32 range")
        X *= config.scale
        return X.astype(np.float32), [leaves[c] for c in classes]

    train_X, train_labels = sample_split(config.n_train)
    query_X, query_labels = sample_split(config.n_query)
    return SyntheticData(
        taxonomy_edges=edges,
        train_features=train_X,
        train_labels=train_labels,
        query_features=query_X,
        query_labels=query_labels,
    )

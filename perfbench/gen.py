"""Seeded hierarchical Gaussian data for taxonomies deeper than shdh.datagen's.

Extends the construction of `shdh.datagen` from two levels below the root
to any branching list: every node at layer k draws its mean as its
parent's mean plus N(0, stds[k-2]^2) per dimension (the root's mean is 0),
and every item adds N(0, noise_std^2) to its leaf's mean. Leaves are
assigned round-robin and shuffled, so classes stay balanced. Everything is
deterministic in `seed`.
"""

from __future__ import annotations

import numpy as np


def node_name(path) -> str:
    """Name of the node reached by child indices `path` below the root."""
    return "n" + "_".join(str(i) for i in path)


def generate(branching, stds, n_items: int, n_queries: int, dim: int,
             noise_std: float, seed: int):
    """Returns (edges, X, labels, QX, query_labels); X and QX are float32."""
    if len(stds) != len(branching):
        raise ValueError("need one mean spread per level below the root")
    rng = np.random.default_rng(seed)
    edges = []
    level = [((), "root", np.zeros(dim))]
    for fanout, std in zip(branching, stds):
        children = []
        for path, name, mean in level:
            for j in range(fanout):
                child_path = path + (j,)
                child = node_name(child_path)
                edges.append((name, child))
                children.append((child_path, child, mean + rng.normal(0.0, std, size=dim)))
        level = children
    leaves = [name for _, name, _ in level]
    leaf_means = np.stack([mean for _, _, mean in level])

    def sample(n: int):
        classes = np.arange(n, dtype=np.int64) % len(leaves)
        rng.shuffle(classes)
        X = leaf_means[classes] + rng.normal(0.0, noise_std, size=(n, dim))
        return X.astype(np.float32), [leaves[c] for c in classes]

    X, labels = sample(n_items)
    QX, query_labels = sample(n_queries)
    return edges, X, labels, QX, query_labels

"""Label taxonomies, layer weights, and hierarchical similarity.

A taxonomy is a rooted tree of height K (root at layer 1). Assignable
labels are the leaves, all of which must sit at depth exactly K. Two items
are similar at layer k when their labels share the same ancestor node at
that layer; layers are weighted by importance, decreasing with depth, and
the weighted per-layer agreements combine into a single similarity in
[-1, 1].
"""

from __future__ import annotations

import numpy as np

from .errors import (
    CycleDetected,
    HeightTooSmall,
    MultipleRoots,
    RaggedLeafDepth,
    SimilarityCapExceeded,
    UnknownLabel,
)

# similarity_matrix refuses more items than this; training only ever needs
# batch-restricted submatrices.
DEFAULT_MATRIX_CAP = 20_000


def key_weights(K: int) -> np.ndarray:
    """Read-only integer layer weights (length K, w[k-1] weighs layer k):
    w_k = K+1-k for k >= 2, w_1 = 0. The one statement of the layer
    weighting; `layer_weights`, the similarity table and the keys derive from it."""
    if K < 2:
        raise HeightTooSmall(f"taxonomy height must be >= 2, got {K}")
    w = K + 1 - np.arange(1, K + 1, dtype=np.int64)
    w[0] = 0
    w.setflags(write=False)
    return w


def layer_weights(K: int) -> np.ndarray:
    """Read-only weights u (length K, u[k-1] weighs layer k):
    u_k = 2(K+1-k)/(K(K-1)) for k >= 2, u_1 = 0, i.e. the key weights over
    K(K-1)/2 (one correctly rounded division, so bit-identical)."""
    u = key_weights(K) / (K * (K - 1) // 2)
    u.setflags(write=False)
    return u


def _similarity_by_depth(K: int) -> np.ndarray:
    """Similarity for a pair whose deepest common ancestor sits at depth d.

    Equals 2 * sum_{k=2..d} u_k - 1, evaluated as 1 - 2 * (key weights of
    the layers below d) / (their sum), so that the endpoints are exact: d=1
    gives -1.0 and d=K gives 1.0 bit for bit. Index 0 of the returned table
    is unused (d >= 1 always; the root is shared by every pair).
    """
    w = key_weights(K)
    table = np.append(np.nan, 1.0 - 2 * (w.sum() - np.cumsum(w)) / w.sum())
    table.setflags(write=False)
    return table


class Taxonomy:
    """Rooted label tree of fixed height with all leaves at the bottom layer.

    `parent` maps every node to its parent (None for the root). Raises
    UnknownLabel when a node names a parent that is not itself a node, and
    CycleDetected, MultipleRoots, HeightTooSmall or RaggedLeafDepth for a
    map that is not such a tree. Only the leaves' ancestor chains are kept.
    """

    def __init__(self, parent: dict[str, str | None]):
        roots = [n for n, p in parent.items() if p is None]
        if not roots:
            raise CycleDetected("every node has a parent; the edges contain a cycle")
        if len(roots) > 1:
            raise MultipleRoots(f"expected exactly one root, found {len(roots)}")
        self.root = roots[0]

        for node, par in parent.items():
            if par is not None and par not in parent:
                raise UnknownLabel(f"node {node!r} has parent {par!r}, which is not a node")

        # One upward walk from each leaf gives its ancestor chain. A walk longer
        # than the node count has met a cycle; a node on no chain cannot be
        # reached from the root.
        has_child = set(parent.values())
        leaf_list = sorted(n for n in parent if n not in has_child)
        walks = []
        for leaf in leaf_list:
            walk = [leaf]
            while (par := parent[walk[-1]]) is not None:
                if len(walk) == len(parent):
                    raise CycleDetected(f"the ancestors of {leaf!r} contain a cycle")
                walk.append(par)
            walks.append(walk[::-1])
        if len({n for walk in walks for n in walk}) != len(parent):
            raise CycleDetected("some nodes are not reachable from the root")

        self.K = max(len(walk) for walk in walks)
        if self.K < 2:
            raise HeightTooSmall("taxonomy has no layers below the root")
        for walk in walks:
            if len(walk) != self.K:
                raise RaggedLeafDepth(f"leaf {walk[-1]!r} at depth {len(walk)}, expected {self.K}")
        self.leaves = frozenset(leaf_list)

        # sim_by_depth[d]: similarity of two leaves whose deepest common
        # ancestor sits at depth d
        self.sim_by_depth = _similarity_by_depth(self.K)
        # Leaf ancestor chains, root first, as integer rows for vectorized similarity.
        node_ids = {n: i for i, n in enumerate(sorted(parent))}
        self._leaf_row = {leaf: i for i, leaf in enumerate(leaf_list)}
        chains = np.array([[node_ids[n] for n in walk] for walk in walks], dtype=np.int64)
        chains.setflags(write=False)
        self._leaf_chains = chains

    # --- similarity ------------------------------------------------------------

    def label_rows(self, labels) -> np.ndarray:
        """Leaf chain-row indices for a sequence of labels: the one place
        where a label string becomes a row. Raises UnknownLabel for the first
        label, in input order, that is not a leaf."""
        leaf_row = self._leaf_row
        try:
            return np.array([leaf_row[lab] for lab in labels], dtype=np.int64)
        except KeyError as exc:
            raise UnknownLabel(f"{exc.args[0]!r} is not a leaf label") from None

    def shared_depths(self, rows_a, rows_b) -> np.ndarray:
        """Deepest-common-ancestor depths of leaf rows (see label_rows).

        The one depth kernel: it broadcasts its arguments like a numpy binary
        operation, so a scalar against a vector, two vectors, or a column
        against a row (a pairwise grid) all work.
        """
        ca = self._leaf_chains[rows_a]
        cb = self._leaf_chains[rows_b]
        shape = np.broadcast_shapes(np.shape(rows_a), np.shape(rows_b))
        depths = np.zeros(shape, dtype=np.int64)
        alive = np.ones(shape, dtype=bool)
        for k in range(self.K):
            alive &= ca[..., k] == cb[..., k]
            depths += alive
        return depths

    def similarity_matrix(self, rows: np.ndarray) -> np.ndarray:
        """Dense pairwise hierarchical similarities for an integer array of
        leaf rows (see label_rows)."""
        n = len(rows)
        if n > DEFAULT_MATRIX_CAP:
            raise SimilarityCapExceeded(
                f"{n} items exceed the dense-matrix cap of {DEFAULT_MATRIX_CAP}; "
                "compute per-batch similarities instead"
            )
        return self.sim_by_depth[self.shared_depths(rows[:, None], rows[None, :])]


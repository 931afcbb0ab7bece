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
    DuplicateEdge,
    EmptyInput,
    FileFormatError,
    HeightTooSmall,
    MultipleRoots,
    RaggedLeafDepth,
    SimilarityCapExceeded,
    UnknownLabel,
)

# similarity_matrix refuses more items than this; training only ever needs
# batch-restricted submatrices.
DEFAULT_MATRIX_CAP = 20_000


def layer_weights(K: int) -> np.ndarray:
    """Read-only weights u (length K, u[k-1] weighs layer k):
    u_k = 2(K+1-k)/(K(K-1)) for k >= 2, u_1 = 0."""
    if K < 2:
        raise HeightTooSmall(f"taxonomy height must be >= 2, got {K}")
    u = np.zeros(K, dtype=np.float64)
    ks = np.arange(2, K + 1, dtype=np.float64)
    u[1:] = 2.0 * (K + 1 - ks) / (K * (K - 1))
    u.setflags(write=False)
    return u


def _similarity_by_depth(K: int) -> np.ndarray:
    """Similarity for a pair whose deepest common ancestor sits at depth d.

    Equals 2 * sum_{k=2..d} u_k - 1, evaluated in closed form so that the
    endpoints are exact: d=1 gives -1.0 and d=K gives 1.0 bit for bit.
    Index 0 of the returned table is unused (d >= 1 always; the root is
    shared by every pair).
    """
    table = np.empty(K + 1, dtype=np.float64)
    table[0] = np.nan
    for d in range(1, K + 1):
        table[d] = 1.0 - 2.0 * ((K - d) * (K - d + 1)) / (K * (K - 1))
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

        children: dict[str, list[str]] = {n: [] for n in parent}
        for node, par in parent.items():
            if par is None:
                continue
            if par not in children:
                raise UnknownLabel(f"node {node!r} has parent {par!r}, which is not a node")
            children[par].append(node)

        # BFS from the root; unreachable nodes imply a parent loop.
        depth = {self.root: 1}
        frontier = [self.root]
        while frontier:
            nxt = []
            for node in frontier:
                for child in children[node]:
                    depth[child] = depth[node] + 1
                    nxt.append(child)
            frontier = nxt
        if len(depth) != len(parent):
            raise CycleDetected("some nodes are not reachable from the root")

        self.K = max(depth.values())
        if self.K < 2:
            raise HeightTooSmall("taxonomy has no layers below the root")
        self.leaves = frozenset(n for n in parent if not children[n])
        for leaf in self.leaves:
            if depth[leaf] != self.K:
                raise RaggedLeafDepth(
                    f"leaf {leaf!r} at depth {depth[leaf]}, expected {self.K}"
                )

        # sim_by_depth[d]: similarity of two leaves whose deepest common
        # ancestor sits at depth d
        self.sim_by_depth = _similarity_by_depth(self.K)
        # Leaf ancestor chains as integer rows for vectorized similarity.
        node_ids = {n: i for i, n in enumerate(sorted(parent))}
        leaf_list = sorted(self.leaves)
        self._leaf_row = {leaf: i for i, leaf in enumerate(leaf_list)}
        chains = np.empty((len(leaf_list), self.K), dtype=np.int64)
        for i, leaf in enumerate(leaf_list):
            node = leaf
            for k in range(self.K, 0, -1):
                chains[i, k - 1] = node_ids[node]
                node = parent[node]
        chains.setflags(write=False)
        self._leaf_chains = chains

    # --- similarity ------------------------------------------------------------

    def label_rows(self, labels) -> np.ndarray:
        """Leaf chain-row indices for a sequence of labels: the one place
        where a label string becomes a row. Raises UnknownLabel for the first
        label, in input order, that is not a leaf."""
        try:
            return np.fromiter((self._leaf_row[lab] for lab in labels),
                               dtype=np.int64, count=len(labels))
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


def parse_taxonomy(text: str) -> Taxonomy:
    """Parse a tab-separated edge list ("parent<TAB>child" per line).

    Lines starting with '#' and blank lines are ignored. The root is the
    unique node that never appears as a child.
    """
    parent: dict[str, str | None] = {}
    seen_children: set[str] = set()
    n_edges = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise FileFormatError(
                f"line {lineno}: expected 'parent<TAB>child', got {raw!r}"
            )
        par, child = parts
        if child in seen_children:
            raise DuplicateEdge(f"line {lineno}: node {child!r} already has a parent")
        seen_children.add(child)
        parent[child] = par
        parent.setdefault(par, None)
        n_edges += 1
    if n_edges == 0:
        raise EmptyInput("taxonomy file contains no edges")
    return Taxonomy(parent)

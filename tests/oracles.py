"""Independent reference implementations used to check the library.

Everything here works from raw inputs (parent dictionaries, plain lists)
with straightforward scalar code, deliberately avoiding the library's
vectorized paths.
"""

import math

import numpy as np

from shdh.train import loss_terms


# --- hierarchy -----------------------------------------------------------------

def parent_from_edges(text: str) -> dict:
    """Parent dictionary of a 'parent<TAB>child' edge list; the root maps to None."""
    edges = [line.split("\t") for line in text.splitlines() if line.strip()]
    parent = {child: par for par, child in edges}
    for par, _ in edges:
        parent.setdefault(par, None)
    return parent


def chain_from_root(parent: dict, node: str) -> list[str]:
    """Ancestor path root..node found by walking parent pointers."""
    path = [node]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


def layer_similarity_brute(parent: dict, a: str, b: str, k: int) -> int:
    """Eq.-style layer indicator by walking both parent chains."""
    ca = chain_from_root(parent, a)
    cb = chain_from_root(parent, b)
    if k == 1:
        return 0
    return int(ca[k - 1] == cb[k - 1])


def hier_similarity_brute(parent: dict, K: int, a: str, b: str) -> float:
    """Walk both chains, collect per-layer matches, map the deepest shared
    layer to the similarity value with the exact closed form."""
    matches = [layer_similarity_brute(parent, a, b, k) for k in range(1, K + 1)]
    d = 1
    while d < K and matches[d]:
        d += 1
    return 1.0 - 2.0 * ((K - d) * (K - d + 1)) / (K * (K - 1))


def relevance_brute(parent: dict, K: int, a: str, b: str, mode: str) -> float:
    """Relevance by walking parent chains: the count of shared non-root
    layers, or the layer-weighted similarity."""
    if mode == "shared-layers":
        return float(sum(layer_similarity_brute(parent, a, b, k) for k in range(1, K + 1)))
    if mode == "hier-similarity":
        return hier_similarity_brute(parent, K, a, b)
    raise ValueError(f"unknown relevance mode {mode!r}")


def random_taxonomy(rng, K: int, max_leaves: int = 200):
    """Random fixed-height tree: every non-leaf level node gets >= 1 child.

    Returns (parent dict, list of leaves).
    """
    parent = {"n1_0": None}
    level = ["n1_0"]
    for k in range(2, K + 1):
        target = min(max_leaves, int(rng.integers(len(level), 2 * len(level) + 2)))
        target = max(target, len(level))  # at least one child per parent
        children = [f"n{k}_{i}" for i in range(target)]
        # first give every parent one child, then spread the rest randomly
        order = rng.permutation(len(level))
        for i, child in enumerate(children):
            if i < len(level):
                parent[child] = level[order[i]]
            else:
                parent[child] = level[rng.integers(len(level))]
        level = children
    return parent, level


# --- training ------------------------------------------------------------------

def finite_diff_gradient(Htilde, S, layout, alpha: float, eps: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of the objective (loss_terms' loss), entry
    by entry, to check the analytic gradients against."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    H = np.array(Htilde, dtype=np.float64)
    grad = np.empty_like(H)
    for i in range(H.shape[0]):
        for j in range(H.shape[1]):
            orig = H[i, j]
            H[i, j] = orig + eps
            jp = loss_terms(H, S, layout, alpha)[0]
            H[i, j] = orig - eps
            jm = loss_terms(H, S, layout, alpha)[0]
            H[i, j] = orig
            grad[i, j] = (jp - jm) / (2.0 * eps)
    return grad


# --- metrics ---------------------------------------------------------------------

def acg_brute(rels, n):
    return sum(rels[:n]) / n


def dcg_brute(rels, n):
    return sum((2.0 ** rels[i] - 1.0) / math.log2(i + 2) for i in range(n))


def ndcg_brute(rels, n):
    ideal = sorted(rels, reverse=True)
    denom = dcg_brute(ideal, n)
    if denom == 0.0:
        return 1.0
    return dcg_brute(rels, n) / denom


def weighted_recall_brute(rels, n):
    return sum(rels[:n]) / sum(rels)

"""Weighted-Hamming search over packed codes with exact integer keys.

The distance between two codes is D_w = sum_k u_k * ham_k, where ham_k
counts the differing bits in segment k. Scaled by K(K-1)/2 the layer
weights become the integers K+1-k (0 for a layer-1 segment), so every
distance has an exact integer key, key = sum_k (K+1-k) * ham_k, and
D_w = key / (K(K-1)/2). Ranking sorts keys, so equal distances tie exactly
and break by insertion order; reported distances are one division of the
key (`SegmentLayout.distances`), so equal keys print equal floats.

A query is a one-row CodeDatabase. The kernel views each packed row as
whole unsigned words, XORs it with the query, and sums popcount(word & mask)
* weight over precomputed terms. The masks are `codes.segment_masks` as
words, so they drop padding bits; zero-weight segments have no term.

Larger weighted inner product (the similarity reading of the same segment
counts) means more similar; ranking ascending by distance equals ranking
descending by that inner product.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

import numpy as np

from .codes import CodeDatabase, SegmentLayout, segment_masks
from .errors import EmptyDatabase, LayoutMismatch, ShapeMismatch


@dataclass(eq=False)
class SearchResult:
    """Hits ascending by weighted distance, ties by insertion order."""

    ids: list                   # database rows
    distances: np.ndarray       # weighted Hamming distance D_w
    inner_products: np.ndarray  # sum_k u_k * (L_k - 2 * ham_k)

    def __len__(self):
        return len(self.ids)

    def rows(self):
        return list(zip(self.ids, self.distances.tolist(), self.inner_products.tolist()))


@dataclass(frozen=True, eq=False)
class _Kernel:
    word: np.dtype   # widest unsigned word whose size divides the row
    terms: tuple     # (word column, segment bits of that word, integer weight)
    key_dtype: type  # uint16 unless the layout's largest key needs more


@functools.lru_cache(maxsize=16)
def _kernel(layout: SegmentLayout) -> _Kernel:
    size = next(s for s in (8, 4, 2, 1) if layout.total_bytes % s == 0)
    word = np.dtype(f"u{size}")
    key_dtype = np.uint16 if layout.max_key <= np.iinfo(np.uint16).max else np.uint32
    # one term per word a segment touches; zero-weight segments have none
    terms = tuple(sorted((col, mask, key_dtype(seg.key_weight))
                         for seg, row in zip(layout.segments, segment_masks(layout))
                         for col, mask in enumerate(row.view(word))
                         if mask and seg.key_weight))
    return _Kernel(word=word, terms=terms, key_dtype=key_dtype)


def distance_keys(db: CodeDatabase, q: CodeDatabase) -> np.ndarray:
    """Exact integer key sum_k (K+1-k) * ham_k of every database row to q."""
    _require_query(db.layout, q)
    kernel = _kernel(db.layout)
    # a view of the rows as words, not a copy, when the database is contiguous
    x = (np.ascontiguousarray(db.packed).view(kernel.word)
         ^ np.ascontiguousarray(q.packed).view(kernel.word))
    key = np.zeros(len(db), dtype=kernel.key_dtype)
    for col, mask, weight in kernel.terms:
        key += np.multiply(np.bitwise_count(x[:, col] & mask), weight, dtype=kernel.key_dtype)
    return key


def _topn_rows(key: np.ndarray, n: int) -> np.ndarray:
    """Rows of the n smallest keys, ordered by (key, row), in O(N + n log n)."""
    n = min(n, len(key))
    cut = np.partition(key, n - 1)[n - 1]
    below = np.flatnonzero(key < cut)
    rows = np.concatenate([below, np.flatnonzero(key == cut)[:n - len(below)]])
    return rows[np.argsort(key[rows], kind="stable")]


def radius_key_bound(layout: SegmentLayout, r: float) -> int:
    """Largest key whose reported D_w is <= r (-1 when none is): a binary
    search of the keys by the very floats they report, so it is exact."""
    return bisect.bisect_right(range(layout.max_key + 1), r, key=layout.distances) - 1


def _require_query(layout: SegmentLayout, q: CodeDatabase):
    """q is one code of `layout`: a one-row database built with it."""
    if q.layout != layout:
        raise LayoutMismatch("codes were built with different segment layouts")
    if len(q) != 1:
        raise ShapeMismatch(f"a query is one code, got {len(q)} rows")


def _require_nonempty(db: CodeDatabase):
    if len(db) == 0:
        raise EmptyDatabase("cannot search an empty code database")


def _take(db: CodeDatabase, key: np.ndarray, order: np.ndarray) -> SearchResult:
    k, layout = key[order].astype(np.int64), db.layout
    return SearchResult(
        ids=order.tolist(),
        distances=layout.distances(k),
        inner_products=layout.distances(layout.max_key - 2 * k),
    )


def search_topn(db: CodeDatabase, q: CodeDatabase, n: int) -> SearchResult:
    """The n nearest codes by D_w (all items if n > |db|)."""
    _require_nonempty(db)
    if n < 1:
        raise ValueError("n must be >= 1")
    key = distance_keys(db, q)
    return _take(db, key, _topn_rows(key, n))


def search_radius(db: CodeDatabase, q: CodeDatabase, r: float) -> SearchResult:
    """All codes with reported D_w <= r, ascending, ties by insertion order.

    The bound is an integer key, so a distance level is never split."""
    _require_nonempty(db)
    if not r >= 0:  # NaN too
        raise ValueError(f"radius must be >= 0, got {r}")
    key = distance_keys(db, q)
    within = np.flatnonzero(key <= radius_key_bound(db.layout, r))
    return _take(db, key, within[np.argsort(key[within], kind="stable")])

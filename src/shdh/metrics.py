"""Hierarchy-aware ranking metrics: ACG, DCG, NDCG, Weighted Recall.

Relevance of a retrieved item to the query comes in two modes:

* ``shared-layers`` (default): the number of non-root layers on which the
  two labels share an ancestor, an integer in [0, K-1]. Matches the
  magnitude scale of published hierarchical-retrieval results.
* ``hier-similarity``: the layer-weighted similarity in [-1, 1]. Signed,
  so Weighted Recall can exceed 1 under this mode; kept for fidelity.

Formulas (written to each eval's summary.json, so results describe themselves):
  ACG@n = (1/n) sum_{i<=n} s_i
  DCG@n = sum_{i<=n} (2^{s_i} - 1) / log2(i + 1)
  NDCG@n = DCG@n / DCG@n(descending-sorted), and 1 when the ideal is 0
  WR@n = sum_{i<=n} s_i / sum_{i<=N} s_i
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .codes import CodeDatabase
from .errors import EmptyInput, InvalidNumber, RankTooLarge, ShapeMismatch
from .hierarchy import Taxonomy
from .index import distance_keys

MODE_SHARED_LAYERS = "shared-layers"
MODE_HIER_SIMILARITY = "hier-similarity"
MODES = (MODE_SHARED_LAYERS, MODE_HIER_SIMILARITY)

METRIC_NAMES = ("acg", "dcg", "ndcg", "weighted_recall")

FORMULAS = {
    "acg": "ACG@n = mean of top-n relevances",
    "dcg": "DCG@n = sum_i (2^s_i - 1)/log2(i+1), i = 1..n",
    "ndcg": "NDCG@n = DCG@n / ideal DCG@n (1 when ideal is 0)",
    "weighted_recall": "WR@n = sum_{i<=n} s_i / sum_{i<=N} s_i",
}


def _relevance_by_depth(tax: Taxonomy, mode: str) -> np.ndarray:
    """K+1 relevances indexed by the depth of the deepest common ancestor
    (index 0 is unused: every pair shares the root)."""
    if mode == MODE_SHARED_LAYERS:
        return np.arange(tax.K + 1, dtype=np.float64) - 1.0
    if mode == MODE_HIER_SIMILARITY:
        return tax.sim_by_depth
    raise ValueError(f"unknown relevance mode {mode!r}, expected one of {MODES}")


def _cutoff_metrics(rels: np.ndarray, ideal: np.ndarray, ns) -> np.ndarray:
    """ACG, DCG, NDCG and WR (rows, in METRIC_NAMES order) of one query's
    ranked relevances at each cutoff in ns (columns); each cutoff must lie in
    [1, len(rels)]. `ideal` holds at least the first max(ns) relevances in
    descending order. DCG's gains over discounts (Järvelin & Kekäläinen,
    ACM TOIS 2002) are computed once, and each cutoff sums a prefix of
    them. WR is NaN when the total relevance is zero."""
    max_n = max(ns, default=0)
    discounts = np.log2(np.arange(2, max_n + 2, dtype=np.float64))
    gains = (np.exp2(rels[:max_n]) - 1.0) / discounts
    ideal_gains = (np.exp2(ideal[:max_n]) - 1.0) / discounts
    total = rels.sum()
    out = np.full((len(METRIC_NAMES), len(ns)), np.nan)
    for ni, n in enumerate(ns):
        dcg, ideal_dcg = gains[:n].sum(), ideal_gains[:n].sum()
        out[0, ni] = rels[:n].mean()
        out[1, ni] = dcg
        out[2, ni] = 1.0 if ideal_dcg == 0.0 else dcg / ideal_dcg
        if total != 0.0:
            out[3, ni] = rels[:n].sum() / total
    return out


@dataclass(frozen=True, eq=False)
class MetricReport:
    """Per-query metric values at each requested cutoff, and their means."""

    ns: list[int]
    mode: str
    # metric -> (n_queries x len(ns)) array; NaN marks excluded WR cells
    per_query: dict[str, np.ndarray]
    wr_excluded: int
    # mean WR@n for n = 1..N, and mean WR within each exact distance level
    wr_by_n: np.ndarray
    radii: np.ndarray
    wr_by_radius: np.ndarray

    @cached_property
    def means(self) -> dict[str, np.ndarray]:
        """metric -> mean over queries per cutoff; WR skips excluded queries (NaN if all are)."""
        means = {metric: vals.mean(axis=0) for metric, vals in self.per_query.items()}
        wr = self.per_query["weighted_recall"]
        means["weighted_recall"] = (np.nanmean(wr, axis=0) if np.isfinite(wr).any()
                                    else np.full(len(self.ns), np.nan))
        return means

    def mean(self, metric: str, n: int) -> float:
        return float(self.means[metric][self.ns.index(n)])

    def to_csv_rows(self):
        """(query id, n, metric, value) rows, means last with query id 'mean'.
        A query's id is its position. An undefined value (NaN), a query's
        or a mean, is ""."""
        lines = [(qi, metric, self.per_query[metric][qi])
                 for qi in range(len(self.per_query["acg"])) for metric in METRIC_NAMES]
        lines += [("mean", metric, self.means[metric]) for metric in METRIC_NAMES]
        return [(qid, n, metric, "" if np.isnan(val) else float(val))
                for qid, metric, values in lines for n, val in zip(self.ns, values)]

    def summary(self) -> dict:
        """Means by metric and cutoff; an undefined mean (NaN) is None."""
        return {
            "mode": self.mode,
            "ns": self.ns,
            "queries": len(self.per_query["acg"]),
            "weighted_recall_excluded_queries": self.wr_excluded,
            "formulas": FORMULAS,
            "means": {
                metric: {str(n): None if np.isnan(v) else float(v)
                         for n, v in zip(self.ns, self.means[metric])}
                for metric in METRIC_NAMES
            },
        }


def eval_queries(db: CodeDatabase, db_labels, qdb: CodeDatabase, query_labels,
                 tax: Taxonomy, mode: str = MODE_SHARED_LAYERS, *,
                 ns: list[int]) -> MetricReport:
    """Rank the database once per query; score all four metrics at each n
    and the mean Weighted Recall curves from that one ranking.

    The ranking is a stable sort of the exact distance keys, so it keeps the
    (D_w, insertion order) rule. Relevance is computed once per leaf label
    and gathered through the database's leaf rows; the ideal ranking, up to
    the largest cutoff, comes from those per-leaf values and the database's
    leaf counts. The curves are running sums, so memory is
    O(N + distance levels), not O(Q x N).

    Queries whose total relevance is zero are excluded from the Weighted
    Recall means (their WR cells are NaN) and from both curves; the
    exclusion count is reported. The queries are the rows of qdb, identified
    by position.
    """
    if len(db_labels) != len(db):
        raise ShapeMismatch(f"{len(db_labels)} labels for {len(db)} database codes")
    if len(query_labels) != len(qdb):
        raise ShapeMismatch(f"{len(query_labels)} labels for {len(qdb)} query codes")
    if len(qdb) == 0:
        raise EmptyInput("no queries to evaluate")
    rel_by_depth = _relevance_by_depth(tax, mode)
    ns = list(ns)
    for i, n in enumerate(ns):
        if not 1 <= n <= len(db):
            raise RankTooLarge(f"rank {n} outside [1, {len(db)}]")
        if n in ns[:i]:
            raise InvalidNumber(f"cutoff {n} is given twice")

    N, n_levels, max_n = len(db), db.layout.max_key + 1, max(ns, default=0)
    leaves = np.arange(len(tax.leaves))
    db_rows = tax.label_rows(db_labels)
    leaf_count = np.bincount(db_rows, minlength=len(leaves))

    values = np.empty((len(METRIC_NAMES), len(qdb), len(ns)))
    per_query = dict(zip(METRIC_NAMES, values))
    wr_excluded = kept = 0
    wr_n_sum = np.zeros(N)
    wr_level_sum = np.zeros(n_levels)
    seen_levels = np.zeros(n_levels, dtype=bool)
    for qi, q_row in enumerate(tax.label_rows(query_labels)):
        key = distance_keys(db, qdb.code(qi))
        leaf_rel = rel_by_depth[tax.shared_depths(q_row, leaves)]
        rels = leaf_rel[db_rows[np.argsort(key, kind="stable")]]
        by_rel = np.argsort(-leaf_rel, kind="stable")
        ideal = np.repeat(leaf_rel[by_rel], np.minimum(leaf_count[by_rel], max_n))
        values[:, qi] = _cutoff_metrics(rels, ideal, ns)
        total = float(rels.sum())
        if total == 0.0:
            wr_excluded += 1
            continue
        kept += 1
        recall = np.cumsum(rels) / total
        wr_n_sum += recall
        # the items within level l are the ranking's first ends[l]
        level_size = np.bincount(key, minlength=n_levels)
        seen_levels |= level_size > 0
        ends = np.cumsum(level_size)
        wr_level_sum += np.where(ends > 0, recall[ends - 1], 0.0)

    if kept:
        levels = np.flatnonzero(seen_levels)
        curves = (wr_n_sum / kept, db.layout.distances(levels), wr_level_sum[levels] / kept)
    else:
        curves = (np.full(N, np.nan), np.array([0.0]), np.array([np.nan]))
    return MetricReport(ns, mode, per_query, wr_excluded, *curves)

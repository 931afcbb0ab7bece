import numpy as np
import pytest

import shdh.metrics
from shdh.codes import CodeDatabase, quantize, segment_layout
from shdh.errors import RankTooLarge, UnknownLabel
from shdh.metrics import METRIC_NAMES, _cutoff_metrics, _relevance_by_depth, eval_queries

from shdh.hierarchy import Taxonomy

from conftest import FIG4_TEXT, random_codes
from oracles import (
    acg_brute,
    dcg_brute,
    ndcg_brute,
    parent_from_edges,
    random_taxonomy,
    relevance_brute,
    topn_brute,
    weighted_recall_brute,
)

FIG4_PARENT = parent_from_edges(FIG4_TEXT)

# Frozen from the scalar oracle: DCG@3 of [1, 0.5, 0] and NDCG@3 of the
# reversed ranking of [2, 1, 0] under gains 2^s - 1 and log2(i+1) discounts.
DCG_HAND = 1.2613396608340124
NDCG_REVERSED_HAND = 0.58688267143572


def metric_at(metric, rels, n):
    """One metric of the kernel at cutoff n, with the ideal ranking taken
    from the relevances themselves."""
    rels = np.asarray(rels, dtype=np.float64)
    out = _cutoff_metrics(rels, np.sort(rels)[::-1], [n])
    return out[METRIC_NAMES.index(metric), 0]


def pair_relevance(tax, a, b, mode):
    """Relevance of leaf b to leaf a: the mode's table at their shared depth."""
    rows = tax.label_rows([a, b])
    return _relevance_by_depth(tax, mode)[tax.shared_depths(rows[0], rows[1])]


class TestRelevance:
    def test_self_shared_layers(self, toy3):
        assert pair_relevance(toy3, "rose", "rose", "shared-layers") == 2.0

    def test_sibling_shared_layers(self, toy3):
        assert pair_relevance(toy3, "rose", "sun", "shared-layers") == 1.0

    def test_opposite_hier_similarity(self, toy3):
        assert pair_relevance(toy3, "rose", "tiger", "hier-similarity") == -1.0

    def test_unknown(self, toy3):
        with pytest.raises(UnknownLabel):
            pair_relevance(toy3, "rose", "daisy", "shared-layers")
        layout = segment_layout(8, 3)
        db = _db(layout, [quantize(np.full((1, 8), 1.0), layout)])
        with pytest.raises(ValueError):
            eval_queries(db, ["sun"], db, ["rose"], toy3, mode="shared-depth", ns=[1])

    def test_modes_rank_candidates_identically(self, fig4):
        # both modes are monotone in the depth of the deepest common ancestor
        candidates = ["rose", "sunflower", "oak", "tiger"]
        shared = [pair_relevance(fig4, "rose", c, "shared-layers") for c in candidates]
        hier = [pair_relevance(fig4, "rose", c, "hier-similarity") for c in candidates]
        assert np.argsort(shared).tolist() == np.argsort(hier).tolist()

    @pytest.mark.parametrize("mode", ["shared-layers", "hier-similarity"])
    def test_matches_parent_chain_oracle(self, mode):
        rng = np.random.default_rng(41)
        for K in range(2, 7):
            parent, leaves = random_taxonomy(rng, K, max_leaves=30)
            tax = Taxonomy(parent)
            for _ in range(40):
                a, b = (str(x) for x in rng.choice(leaves, size=2))
                assert pair_relevance(tax, a, b, mode) == relevance_brute(parent, K, a, b, mode)


class TestACG:
    def test_hand_mean(self):
        assert metric_at("acg", [2, 1, 0], 3) == 1.0

    def test_single(self):
        assert metric_at("acg", [2, 1, 0], 1) == 2.0

    def test_zeros(self):
        assert metric_at("acg", [0, 0, 0], 2) == 0.0


class TestDCG:
    def test_hand_value(self):
        assert metric_at("dcg", [1, 0.5, 0], 3) == pytest.approx(DCG_HAND, abs=1e-12)

    def test_first_position_undiscounted(self):
        assert metric_at("dcg", [1.0], 1) == 1.0

    def test_zeros(self):
        assert metric_at("dcg", [0, 0, 0], 3) == 0.0

    def test_adjacent_swap_increases_dcg(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            rels = rng.integers(0, 4, size=8).astype(float)
            i = int(rng.integers(0, 7))
            if rels[i] >= rels[i + 1]:
                continue
            swapped = rels.copy()
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            assert metric_at("dcg", swapped, 8) > metric_at("dcg", rels, 8)

    def test_cutoffs_are_independent(self):
        # each cutoff sums its own prefix, so asking for several at once
        # gives the same bits as asking for each alone
        rng = np.random.default_rng(9)
        rels = rng.uniform(-1, 3, size=40)
        ideal = np.sort(rels)[::-1]
        ns = [1, 7, 8, 9, 33, 40]
        together = _cutoff_metrics(rels, ideal, ns)
        for ni, n in enumerate(ns):
            np.testing.assert_array_equal(together[:, ni], _cutoff_metrics(rels, ideal, [n])[:, 0])


class TestNDCG:
    def test_ideal_is_one(self):
        assert metric_at("ndcg", [2, 1, 0], 3) == 1.0

    def test_reversed_hand_value(self):
        assert metric_at("ndcg", [0, 1, 2], 3) == pytest.approx(NDCG_REVERSED_HAND, abs=1e-12)

    def test_all_equal_relevances(self):
        assert metric_at("ndcg", [1, 1, 1], 2) == 1.0

    def test_zero_ideal_defined_as_one(self):
        assert metric_at("ndcg", [0, 0], 2) == 1.0

    def test_bounds_for_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rels = rng.uniform(0, 3, size=10)
            v = metric_at("ndcg", rels, int(rng.integers(1, 11)))
            assert 0.0 <= v <= 1.0 + 1e-12


class TestWeightedRecall:
    def test_full_list_is_one(self):
        assert metric_at("weighted_recall", [2, 1, 0.5], 3) == 1.0

    def test_hand_sums(self):
        assert metric_at("weighted_recall", [2, 1, 1, 0], 2) == pytest.approx(3 / 4, rel=1e-15)

    def test_signed_relevances_can_exceed_one(self):
        assert metric_at("weighted_recall", [1, 2 / 3, -1], 2) == pytest.approx(2.5, rel=1e-12)

    def test_zero_total(self):
        assert np.isnan(metric_at("weighted_recall", [0, 0, 0], 1))

    def test_nondecreasing_in_n(self):
        rng = np.random.default_rng(4)
        rels = rng.uniform(0, 2, size=20)
        values = [metric_at("weighted_recall", rels, n) for n in range(1, 21)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0
        assert all(metric_at("acg", rels, n) >= 0.0 for n in range(1, 21))


class TestOracleAgreement:
    def test_random_rankings_match_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            N = int(rng.integers(3, 30))
            if rng.random() < 0.5:
                rels = rng.integers(0, 4, size=N).astype(float)
            else:
                rels = rng.uniform(0, 3, size=N)
            if rels.sum() == 0:
                rels[0] = 1.0
            n = int(rng.integers(1, N + 1))
            rl = rels.tolist()
            acg, dcg, ndcg, wr = _cutoff_metrics(rels, np.sort(rels)[::-1], [n])[:, 0]
            assert acg == pytest.approx(acg_brute(rl, n), abs=1e-9)
            assert dcg == pytest.approx(dcg_brute(rl, n), abs=1e-9)
            assert ndcg == pytest.approx(ndcg_brute(rl, n), abs=1e-9)
            assert wr == pytest.approx(weighted_recall_brute(rl, n), abs=1e-9)


def _db(layout, codes):
    packed = np.vstack([c.packed for c in codes])
    return CodeDatabase(layout=layout, packed=packed)


class TestEvalQueries:
    def test_perfect_self_retrieval(self, toy3):
        layout = segment_layout(8, 3)
        self_code = quantize(np.full((1, 8), 1.0), layout)
        far_code = quantize(np.full((1, 8), -1.0), layout)
        db = _db(layout, [self_code, far_code])
        report = eval_queries(db, ["rose", "tiger"], _db(layout, [self_code]), ["rose"], toy3,
                              ns=[1, 2])
        assert report.mean("ndcg", 2) == 1.0
        assert report.mean("acg", 1) == 2.0

    def test_random_leq_ideal(self, toy3):
        rng = np.random.default_rng(6)
        layout = segment_layout(8, 3)
        labels = ["rose", "sun", "tiger", "oak"] * 5
        db = _db(layout, [quantize(rng.normal(size=(1, 8)), layout) for _ in labels])
        q = quantize(rng.normal(size=(1, 8)), layout)
        report = eval_queries(db, labels, _db(layout, [q]), ["rose"], toy3, ns=[10])
        assert report.per_query["ndcg"][0, 0] <= 1.0 + 1e-12

    def test_zero_relevance_excluded_from_wr(self, toy3):
        layout = segment_layout(8, 3)
        a = quantize(np.full((1, 8), 1.0), layout)
        db = _db(layout, [a, a])
        # query label shares nothing with db labels: zero total shared-layers
        report = eval_queries(db, ["tiger", "oak"], _db(layout, [a]), ["rose"], toy3, ns=[1])
        assert report.wr_excluded == 1
        assert np.isnan(report.per_query["weighted_recall"][0, 0])

    def test_rank_too_large(self, toy3):
        layout = segment_layout(8, 3)
        a = quantize(np.full((1, 8), 1.0), layout)
        db = _db(layout, [a, a])
        for ns in ([3], [0], [1, 3]):
            with pytest.raises(RankTooLarge):
                eval_queries(db, ["rose", "sun"], _db(layout, [a]), ["rose"], toy3, ns=ns)


def _fig4_case(seed, n_db=120, n_q=8):
    """Random codes over fig4's leaves; the database holds no 'tiger', so a
    'tiger' query has zero total shared-layers relevance."""
    rng = np.random.default_rng(seed)
    layout = segment_layout(12, 4, "paper-literal")  # 3-bit segments, padding, dead layer 1
    db = CodeDatabase(layout=layout, packed=random_codes(rng, layout, n_db))
    labels = [str(x) for x in rng.choice(["rose", "sunflower", "oak"], size=n_db)]
    qdb = CodeDatabase(layout=layout, packed=random_codes(rng, layout, n_q))
    qlabels = ["tiger"] + [str(x) for x in rng.choice(["rose", "sunflower", "oak", "tiger"],
                                                      size=n_q - 1)]
    return db, labels, qdb, qlabels


def _oracle_ranking(db, labels, q, q_label, mode):
    """(relevances, exact keys) along the brute-force oracle's full ranking,
    with relevance from fig4's parent chains."""
    ids, distances, _ = topn_brute(db.layout, db.packed, q.packed, len(db))
    rels = np.array([relevance_brute(FIG4_PARENT, 4, q_label, labels[i], mode)
                     for i in ids])
    keys = np.rint(distances * db.layout.key_scale).astype(np.int64)
    return rels, keys


class TestSinglePassEval:
    @pytest.mark.parametrize("mode", ["shared-layers", "hier-similarity"])
    def test_bit_identical_to_public_metrics(self, fig4, mode):
        db, labels, qdb, qlabels = _fig4_case(30)
        ns = [1, 5, 17, len(db)]
        report = eval_queries(db, labels, qdb, qlabels, fig4, mode=mode, ns=ns)
        expected = {m: np.full((len(qdb), len(ns)), np.nan) for m in report.per_query}
        for qi, ql in enumerate(qlabels):
            rels, _ = _oracle_ranking(db, labels, qdb.code(qi), ql, mode)
            kernel = _cutoff_metrics(rels, np.sort(rels)[::-1], ns)
            for metric, row in zip(METRIC_NAMES, kernel):
                expected[metric][qi] = row
        for metric, values in expected.items():
            np.testing.assert_array_equal(report.per_query[metric], values)
        if mode == "shared-layers":
            assert report.wr_excluded == qlabels.count("tiger") >= 1
            assert np.isnan(report.per_query["weighted_recall"][0]).all()
            assert (report.per_query["ndcg"][0] == 1.0).all()

    @pytest.mark.parametrize("mode", ["shared-layers", "hier-similarity"])
    def test_curves_from_oracle_rankings(self, fig4, mode):
        db, labels, qdb, qlabels = _fig4_case(31)
        report = eval_queries(db, labels, qdb, qlabels, fig4, mode=mode, ns=())
        wr_n, radii, wr_r = report.wr_by_n, report.radii, report.wr_by_radius
        kept = [_oracle_ranking(db, labels, qdb.code(qi), ql, mode)
                for qi, ql in enumerate(qlabels)]
        kept = [(rels, keys) for rels, keys in kept if rels.sum() != 0.0]
        levels = np.unique(np.concatenate([keys for _, keys in kept]))
        # the radius grid is exactly the distance levels observed
        np.testing.assert_array_equal(radii, levels / db.layout.key_scale)
        recall = [np.cumsum(rels) / rels.sum() for rels, _ in kept]
        np.testing.assert_allclose(wr_n, np.mean(recall, axis=0), rtol=1e-12, atol=1e-12)
        within = [[r[np.count_nonzero(keys <= lv) - 1] if (keys <= lv).any() else 0.0
                   for lv in levels] for r, (_, keys) in zip(recall, kept)]
        np.testing.assert_allclose(wr_r, np.mean(within, axis=0), rtol=1e-12, atol=1e-12)

    def test_one_kernel_call_per_query(self, fig4, monkeypatch):
        db, labels, qdb, qlabels = _fig4_case(32)
        calls = []
        kernel = shdh.metrics.distance_keys

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(shdh.metrics, "distance_keys", counted)
        report = eval_queries(db, labels, qdb, qlabels, fig4, ns=[1, 10])
        assert len(calls) == len(qdb)
        assert report.wr_by_n is not None and len(report.radii) == len(report.wr_by_radius)


class TestCurves:
    def test_wr_vs_n_monotone_and_ends_at_one(self, toy3):
        rng = np.random.default_rng(8)
        layout = segment_layout(16, 3)
        labels = ["rose", "sun", "tiger", "oak"] * 6
        db = _db(layout, [quantize(rng.normal(size=(1, 16)), layout) for _ in labels])
        qdb = _db(layout, [quantize(rng.normal(size=(1, 16)), layout) for _ in range(4)])
        qlabels = ["rose", "sun", "oak", "tiger"]
        report = eval_queries(db, labels, qdb, qlabels, toy3, ns=())
        wr_n, radii, wr_r = report.wr_by_n, report.radii, report.wr_by_radius
        assert len(wr_n) == len(db)
        assert np.all(np.diff(wr_n) >= -1e-12)
        assert wr_n[-1] == pytest.approx(1.0, rel=1e-12)
        assert np.all(np.diff(radii) > 0)
        assert np.all(np.diff(wr_r) >= -1e-12)
        assert wr_r[-1] == pytest.approx(1.0, rel=1e-12)

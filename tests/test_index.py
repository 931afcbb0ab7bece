from fractions import Fraction

import numpy as np
import pytest

from shdh.codes import CodeDatabase, quantize, segment_layout
from shdh.errors import EmptyDatabase, LayoutMismatch, ShapeMismatch
from shdh.hierarchy import layer_weights
from shdh.index import (
    distance_keys,
    radius_key_bound,
    search_radius,
    search_topn,
)

from conftest import random_codes
from oracles import exact_keys, signs, topn_brute


def code_from_signs(layout, values):
    return quantize(np.asarray(values, dtype=np.float64)[None, :], layout)


@pytest.fixture
def hand_layout():
    # L=4, two 2-bit segments, weights (2/3, 1/3)
    return segment_layout(4, 3)


class TestWeightedDistance:
    def test_identity(self, hand_layout):
        a = code_from_signs(hand_layout, [1, 1, -1, 1])
        assert hand_layout.distances(distance_keys(a, a)).tolist() == [0.0]

    def test_hand_case(self, hand_layout):
        # a = ++|++, b = +-|--: one differing bit at weight 2/3, two at 1/3
        a = code_from_signs(hand_layout, [1, 1, 1, 1])
        b = code_from_signs(hand_layout, [1, -1, -1, -1])
        (d,) = hand_layout.distances(distance_keys(b, a))
        assert d == pytest.approx(2 / 3 + 2 / 3, rel=1e-15)
        # the matching weighted inner product: 2/3*(2-2*1) + 1/3*(2-2*2)
        res = search_topn(b, a, 1)
        assert res.inner_products[0] == pytest.approx(-2 / 3, rel=1e-12)

    def test_complement_is_max(self, hand_layout):
        a = code_from_signs(hand_layout, [1, 1, 1, 1])
        b = code_from_signs(hand_layout, [-1, -1, -1, -1])
        (d,) = hand_layout.distances(distance_keys(b, a))
        assert d == pytest.approx(hand_layout.max_distance, rel=1e-15)

    def test_layout_mismatch(self, hand_layout):
        other = segment_layout(4, 2)
        a = code_from_signs(hand_layout, [1, 1, 1, 1])
        b = code_from_signs(other, [1, 1, 1, 1])
        with pytest.raises(LayoutMismatch):
            distance_keys(b, a)

    def test_zero_weight_segment_ignored(self):
        layout = segment_layout(6, 3, "paper-literal")  # widths (2,2,2), w (0, 2/3, 1/3)
        a = code_from_signs(layout, [1, 1, 1, 1, 1, 1])
        b = code_from_signs(layout, [-1, -1, 1, 1, 1, 1])  # differs only in segment 1
        assert distance_keys(b, a).tolist() == [0]

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(31)
        layout = segment_layout(24, 4)
        db = CodeDatabase(layout=layout, packed=random_codes(rng, layout, 30))
        # D[i, j]: D_w from code i to code j, every pair
        D = layout.distances(np.stack([distance_keys(db, db.code(i)) for i in range(30)]))
        np.testing.assert_array_equal(D, D.T)
        assert np.all((D >= 0.0) & (D <= layout.max_distance))
        # D[i, k] <= D[i, j] + D[j, k] for every triple (i, j, k)
        assert np.all(D[:, None, :] <= D[:, :, None] + D[None, :, :] + 1e-12)


def fraction_distance(layout, a, b):
    """D_w with u_k = 2(K+1-k)/(K(K-1)) as exact fractions, bit by bit."""
    K = layout.K
    total = Fraction(0)
    for seg in layout.segments:
        u = Fraction(0) if seg.layer == 1 else Fraction(2 * (K + 1 - seg.layer), K * (K - 1))
        lo = seg.bit_offset
        total += u * sum(int(x != y) for x, y in zip(a[lo:lo + seg.width], b[lo:lo + seg.width]))
    return total


class TestDistanceKeys:
    def test_two_bits_in_weighted_segment(self, hand_layout):
        q = code_from_signs(hand_layout, [1, 1, 1, 1])
        rows = [code_from_signs(hand_layout, s).packed
                for s in ([-1, -1, 1, 1], [1, 1, -1, -1], [-1, 1, 1, -1])]
        db = CodeDatabase(layout=hand_layout, packed=np.vstack(rows))
        # integer weights K+1-k = (2, 1); D_w = key / 3
        np.testing.assert_array_equal(distance_keys(db, q), [4, 2, 3])
        assert hand_layout.key_scale == 3

    def test_identical_codes_key_zero(self):
        rng = np.random.default_rng(12)
        layout = segment_layout(40, 5)
        packed = random_codes(rng, layout, 30)
        q = CodeDatabase(layout=layout, packed=packed[4:5])
        db = CodeDatabase(layout=layout, packed=np.stack([packed[4]] * 3 + [packed[5]]))
        keys = distance_keys(db, q)
        assert keys.dtype == np.uint16
        np.testing.assert_array_equal(keys[:3], 0)

    def test_padding_bits_masked(self, hand_layout):
        q = code_from_signs(hand_layout, [1, 1, 1, 1])
        # each segment holds 2 valid bits; bytes differing from the query
        # only in padding positions are rejected, and score nothing when
        # written into the array after the check
        (q0, q1), = q.packed
        packed = np.array([[q0 | 0b100, q1],
                           [q0 | 0b1111_1100, q1 | 0b1111_1100]], np.uint8)
        with pytest.raises(ShapeMismatch, match="code row 0 has nonzero padding bits"):
            CodeDatabase(layout=hand_layout, packed=packed)
        db = CodeDatabase(layout=hand_layout, packed=np.vstack([q.packed] * 2))
        db.packed[:] = packed
        np.testing.assert_array_equal(distance_keys(db, q), [0, 0])

    def test_reproduces_weighted_distance_exactly(self):
        rng = np.random.default_rng(17)
        layout = segment_layout(33, 4)  # widths (11, 11, 11): padding in each
        packed = random_codes(rng, layout, 50)
        db = CodeDatabase(layout=layout, packed=packed)
        q = db.code(0)
        keys = distance_keys(db, q)
        np.testing.assert_array_equal(keys, exact_keys(layout, packed, q.packed))
        distances = layout.distances(keys)
        for i in range(50):
            exact = fraction_distance(layout, signs(q), signs(db.code(i)))
            assert Fraction(int(keys[i]), layout.key_scale) == exact
            assert distances[i] == float(exact)  # both correctly rounded

    def test_complement_scores_every_bit(self):
        # a full word of differing bits, and keys past the uint16 range
        for L, K, scheme in [(64, 5, "effective"), (32, 3, "effective"),
                             (48, 4, "paper-literal"), (50_000, 3, "effective")]:
            layout = segment_layout(L, K, scheme)
            ones = code_from_signs(layout, np.ones(L))
            zeros = code_from_signs(layout, -np.ones(L))
            db = CodeDatabase(layout=layout, packed=np.vstack([zeros.packed, ones.packed]))
            keys = distance_keys(db, ones)
            expected = sum(s.width * (0 if s.layer == 1 else K + 1 - s.layer)
                           for s in layout.segments)
            assert keys.tolist() == [expected, 0] and layout.max_key == expected

    def test_paper_literal_12_bit_segments(self):
        rng = np.random.default_rng(19)
        layout = segment_layout(48, 4, "paper-literal")  # 4 x 12 bits, 4 padding bits each
        assert layout.widths == (12, 12, 12, 12) and layout.segments[0].layer == 1
        packed = random_codes(rng, layout, 400)
        q = CodeDatabase(layout=layout, packed=packed[0:1])
        expected = exact_keys(layout, packed, q.packed)
        dirty = packed.copy()
        dirty[:, 0:2] = rng.integers(0, 256, size=(400, 2))  # the zero-weight segment
        dirty[:, 1::2] |= 0b1111_0000                        # every padding nibble
        for rows in (packed, dirty):
            db = CodeDatabase(layout=layout, packed=packed.copy())
            db.packed[:] = rows  # padding bits pass the constructor's check only this way
            np.testing.assert_array_equal(distance_keys(db, q), expected)

    def test_topn_equals_lexsort_on_20k_codes(self):
        rng = np.random.default_rng(20)
        layout = segment_layout(64, 4)
        packed = random_codes(rng, layout, 20_000)
        db = CodeDatabase(layout=layout, packed=packed)
        for qi in range(3):
            q = CodeDatabase(layout=layout, packed=random_codes(rng, layout, 1))
            key = exact_keys(layout, packed, q.packed)
            order = np.lexsort((np.arange(len(key)), key))
            for n in (10, len(key)):
                res = search_topn(db, q, n)
                np.testing.assert_array_equal(res.ids, order[:n])
                np.testing.assert_array_equal(res.distances, key[order[:n]] / layout.key_scale)


class TestSearch:
    def _db(self, rng, layout, n):
        return CodeDatabase(layout=layout, packed=random_codes(rng, layout, n))

    def test_self_hit_first(self):
        rng = np.random.default_rng(3)
        layout = segment_layout(16, 3)
        db = self._db(rng, layout, 20)
        res = search_topn(db, db.code(7), 5)
        assert res.ids[0] == 7
        assert res.distances[0] == 0.0

    def test_tie_broken_by_insertion_order(self):
        layout = segment_layout(8, 2)
        base = code_from_signs(layout, [1] * 8)
        # two identical codes at equal distance from the query
        flip = code_from_signs(layout, [-1] + [1] * 7)
        packed = np.vstack([flip.packed, flip.packed, base.packed])
        db = CodeDatabase(layout=layout, packed=packed)
        res = search_topn(db, base, 3)
        assert res.ids == [2, 0, 1]

    def test_n_larger_than_db(self):
        rng = np.random.default_rng(4)
        layout = segment_layout(16, 3)
        db = self._db(rng, layout, 6)
        res = search_topn(db, db.code(0), 50)
        assert len(res) == 6
        ids, distances, inner = topn_brute(layout, db.packed, db.code(0).packed, 6)
        assert res.ids == ids
        np.testing.assert_array_equal(res.distances, distances)
        np.testing.assert_array_equal(res.inner_products, inner)

    def test_empty_database(self):
        layout = segment_layout(16, 3)
        db = CodeDatabase(layout=layout, packed=np.zeros((0, layout.total_bytes), np.uint8))
        with pytest.raises(EmptyDatabase):
            search_topn(db, code_from_signs(layout, [1] * 16), 1)

    def test_layout_mismatch(self):
        rng = np.random.default_rng(5)
        layout = segment_layout(16, 3)
        db = self._db(rng, layout, 4)
        q = code_from_signs(segment_layout(16, 4), [1] * 16)
        with pytest.raises(LayoutMismatch):
            search_topn(db, q, 1)

    @pytest.mark.parametrize("search", [distance_keys, search_topn])
    def test_query_of_two_rows(self, search):
        rng = np.random.default_rng(14)
        layout = segment_layout(16, 3)
        db = self._db(rng, layout, 2)
        args = (db, db) if search is distance_keys else (db, db, 2)
        with pytest.raises(ShapeMismatch, match="one code, got 2 rows"):
            search(*args)

    def test_inner_product_relation(self):
        rng = np.random.default_rng(6)
        layout = segment_layout(24, 3)
        db = self._db(rng, layout, 40)
        q = CodeDatabase(layout=layout, packed=random_codes(rng, layout, 1))
        res = search_topn(db, q, 40)
        # inner = sum_k u_k (L_k - 2 ham_k); check via per-segment recompute
        u = layer_weights(layout.K)
        for item_id, dist, inner in res.rows():
            check = 0.0
            qa, ca = signs(q), signs(db.code(item_id))
            for seg in layout.segments:
                sl = slice(seg.bit_offset, seg.bit_offset + seg.width)
                ham = int((qa[sl] != ca[sl]).sum())
                check += u[seg.layer - 1] * (seg.width - 2 * ham)
            assert inner == pytest.approx(check, abs=1e-9)

    def test_ranking_by_distance_equals_ranking_by_inner(self):
        rng = np.random.default_rng(7)
        layout = segment_layout(32, 4)
        db = self._db(rng, layout, 100)
        q = CodeDatabase(layout=layout, packed=random_codes(rng, layout, 1))
        res = search_topn(db, q, 100)
        assert np.all(np.diff(res.distances) >= 0)
        assert np.all(np.diff(res.inner_products) <= 0)


class TestSearchRadius:
    def test_radius_zero(self):
        layout = segment_layout(8, 2)
        a = code_from_signs(layout, [1] * 8)
        b = code_from_signs(layout, [-1] + [1] * 7)
        db = CodeDatabase(layout=layout, packed=np.vstack([a.packed, b.packed, a.packed]))
        res = search_radius(db, a, 0.0)
        assert res.ids == [0, 2]

    def test_radius_max_returns_everything(self):
        rng = np.random.default_rng(8)
        layout = segment_layout(16, 3)
        packed = random_codes(rng, layout, 25)
        db = CodeDatabase(layout=layout, packed=packed)
        q = CodeDatabase(layout=layout, packed=packed[3:4])
        res = search_radius(db, q, layout.max_distance)
        assert len(res) == 25

    def test_max_distance_is_the_distance_of_a_complement(self):
        # max_distance is the D_w of the max key, through the one key-to-D_w
        # conversion, so a radius search at it keeps a code's complement on
        # every layout. A float sum of the layer weights missed it on
        # segment_layout(5, 3), whose max_distance read 7/3 - 1 ulp.
        for K in range(2, 12):
            for scheme in ("effective", "paper-literal"):
                n_seg = K if scheme == "paper-literal" else K - 1
                for L in range(n_seg + 1, 129):
                    layout = segment_layout(L, K, scheme)
                    assert layout.max_distance == float(layout.distances(layout.max_key))
                    signs_ = np.where(np.arange(L) % 3 == 0, 1.0, -1.0)
                    db = quantize(np.stack([signs_, -signs_]), layout)
                    res = search_radius(db, db.code(0), layout.max_distance)
                    assert res.ids == [0, 1], (L, K, scheme)

    def test_hand_radius(self, hand_layout):
        a = code_from_signs(hand_layout, [1, 1, 1, 1])
        db = code_from_signs(hand_layout, [1, -1, -1, -1])  # one code, at distance 4/3
        assert search_radius(db, a, 4 / 3 + 1e-9).ids == [0]
        assert search_radius(db, a, 1.0).ids == []

    def test_consistent_with_topn(self):
        rng = np.random.default_rng(9)
        layout = segment_layout(24, 3)
        packed = random_codes(rng, layout, 60)
        db = CodeDatabase(layout=layout, packed=packed)
        q = CodeDatabase(layout=layout, packed=random_codes(rng, layout, 1))
        full = search_topn(db, q, 60)
        r = full.distances[19]
        m = int((full.distances <= r).sum())
        res = search_radius(db, q, float(r))
        assert res.ids == full.ids[:m]
        np.testing.assert_array_equal(res.distances, full.distances[:m])

    def test_negative_or_nan_radius_raises(self):
        layout = segment_layout(8, 2)
        a = code_from_signs(layout, [1] * 8)
        for r in (-0.5, float("nan")):
            with pytest.raises(ValueError, match="radius must be >= 0, got"):
                search_radius(a, a, r)

    def test_key_bound_is_largest_reported_level(self):
        # level / scale * scale rounds below the level for some K (e.g. 7/55*55)
        for K in range(2, 12):
            layout = segment_layout(40, K)
            for level in range(layout.max_key + 1):
                d = level / layout.key_scale
                assert radius_key_bound(layout, d) == level
                assert radius_key_bound(layout, float(np.nextafter(d, -1.0))) == level - 1
            assert radius_key_bound(layout, float("inf")) == layout.max_key

    def test_never_splits_a_level(self):
        rng = np.random.default_rng(21)
        layout = segment_layout(64, 4)
        packed = random_codes(rng, layout, 5000)
        db = CodeDatabase(layout=layout, packed=packed)
        q = CodeDatabase(layout=layout, packed=random_codes(rng, layout, 1))
        key = exact_keys(layout, packed, q.packed)
        u = layer_weights(layout.K)
        for level in np.unique(key)[:40]:
            d = level / layout.key_scale
            # radii at, just below and just above the level, and a float sum
            # of the layer weights that lands on the level
            radii = [d, np.nextafter(d, 0.0), np.nextafter(d, np.inf)]
            radii.append(sum(u[-1] for _ in range(int(level))))
            for r in radii:
                res = search_radius(db, q, float(r))
                got = np.asarray(res.ids, dtype=np.int64)
                top = key[got].max() if len(got) else -1
                np.testing.assert_array_equal(np.sort(got), np.flatnonzero(key <= top))
                assert np.all(res.distances <= r)
                if r >= d:
                    assert np.count_nonzero(key[got] == level) == np.count_nonzero(key == level)


class TestBruteForceOracle:
    """search_topn against the brute-force oracle of tests/oracles.py."""

    def test_identical_to_lut_path(self):
        rng = np.random.default_rng(10)
        for L, K in [(32, 3), (48, 3), (64, 4)]:
            layout = segment_layout(L, K)
            packed = random_codes(rng, layout, 200)
            db = CodeDatabase(layout=layout, packed=packed)
            for _ in range(20):
                q = CodeDatabase(layout=layout, packed=random_codes(rng, layout, 1))
                fast = search_topn(db, q, 200)
                ids, distances, inner = topn_brute(layout, packed, q.packed, 200)
                assert fast.ids == ids
                np.testing.assert_array_equal(fast.distances, distances)
                np.testing.assert_array_equal(fast.inner_products, inner)

    def test_matches_fraction_distances(self):
        rng = np.random.default_rng(13)
        layout = segment_layout(20, 4, "paper-literal")
        packed = random_codes(rng, layout, 40)
        db = CodeDatabase(layout=layout, packed=packed)
        q = CodeDatabase(layout=layout, packed=packed[7:8])
        exact = [fraction_distance(layout, signs(q), signs(db.code(i))) for i in range(40)]
        res = search_topn(db, q, 40)
        assert res.ids == topn_brute(layout, packed, q.packed, 40)[0]
        assert res.ids == sorted(range(40), key=lambda i: (exact[i], i))
        assert res.distances.tolist() == [float(exact[i]) for i in res.ids]

    def test_single_item_hand_distance(self, hand_layout):
        a = code_from_signs(hand_layout, [1, 1, 1, 1])
        db = code_from_signs(hand_layout, [1, -1, -1, -1])  # one code
        res = search_topn(db, a, 1)
        assert res.distances[0] == pytest.approx(4 / 3, rel=1e-15)

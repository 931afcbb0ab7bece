import numpy as np
import pytest

from shdh.codes import (
    Architecture,
    BinaryCode,
    CodeDatabase,
    HashModel,
    encode_batch,
    forward,
    init_model,
    pack_bits,
    quantize,
    segment_layout,
    unpack_bits,
)
from shdh.errors import CodeTooShort, HeightTooSmall, NonFiniteInput, ShapeMismatch
from shdh.hierarchy import layer_weights
from shdh.index import distance_keys

from conftest import make_layout


class TestSegmentLayout:
    def test_paper_literal_32_3(self):
        layout = segment_layout(32, 3, "paper-literal")
        assert layout.widths == (10, 10, 12)
        assert [s.weight for s in layout.segments] == [0.0, 2 / 3, 1 / 3]
        assert [s.layer for s in layout.segments] == [1, 2, 3]

    def test_effective_32_3(self):
        layout = segment_layout(32, 3)
        assert layout.widths == (16, 16)
        assert [s.weight for s in layout.segments] == [2 / 3, 1 / 3]
        assert [s.layer for s in layout.segments] == [2, 3]

    def test_paper_literal_64_4(self):
        layout = segment_layout(64, 4, "paper-literal")
        assert layout.widths == (16, 16, 16, 16)

    def test_widths_sum_and_weights_match_layer_weights(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            K = int(rng.integers(2, 8))
            scheme = rng.choice(["effective", "paper-literal"])
            n_seg = K if scheme == "paper-literal" else K - 1
            L = int(rng.integers(n_seg + 1, 129))
            layout = segment_layout(L, K, scheme)
            assert sum(layout.widths) == L
            u = layer_weights(K)
            for seg in layout.segments:
                assert seg.weight == u[seg.layer - 1]
            assert len(layout.A) == L

    def test_code_too_short(self):
        with pytest.raises(CodeTooShort):
            segment_layout(3, 4, "paper-literal")
        with pytest.raises(CodeTooShort):
            segment_layout(2, 3)

    def test_height_too_small(self):
        with pytest.raises(HeightTooSmall):
            segment_layout(8, 1)

    def test_byte_alignment(self):
        layout = segment_layout(31, 3)  # widths (15, 16)
        assert layout.segments[0].n_bytes == 2
        assert layout.segments[1].byte_offset == 2
        assert layout.total_bytes == 4
        # every byte scores its valid bits only: 8, 7 (one padding bit), 8, 8
        q = BinaryCode(layout=layout, packed=np.zeros(4, np.uint8))
        rows = np.diag(np.full(4, 0xFF, np.uint8))
        keys = distance_keys(CodeDatabase(layout=layout, packed=rows), q)
        np.testing.assert_array_equal(keys, [8 * 2, 7 * 2, 8 * 1, 8 * 1])


class TestInitModel:
    def test_deterministic(self):
        layout = segment_layout(16, 3)
        arch = Architecture(d=8, hidden=(12,), L=16)
        m1 = init_model(arch, layout, seed=9)
        m2 = init_model(arch, layout, seed=9)
        for a, b in zip(m1.W + m1.v, m2.W + m2.v):
            np.testing.assert_array_equal(a, b)

    def test_hashing_layer_range(self):
        layout = segment_layout(16, 3)
        arch = Architecture(d=8, hidden=(12, 10), L=16)
        m = init_model(arch, layout, seed=0)
        assert np.all(m.W[-1] >= 0) and np.all(m.W[-1] < 0.001)
        assert np.all(m.v[-1] >= 0) and np.all(m.v[-1] < 0.001)
        # hidden layers span negative and positive values
        assert m.W[0].min() < 0 < m.W[0].max()
        bound = 1.0 / np.sqrt(8)
        assert np.all(np.abs(m.W[0]) <= bound)

    def test_seed_sensitivity(self):
        layout = segment_layout(16, 3)
        arch = Architecture(d=8, hidden=(12,), L=16)
        m1 = init_model(arch, layout, seed=1)
        m2 = init_model(arch, layout, seed=2)
        assert any(not np.array_equal(a, b) for a, b in zip(m1.W, m2.W))

    def test_shape_mismatch(self):
        layout = segment_layout(16, 3)
        with pytest.raises(ShapeMismatch):
            init_model(Architecture(d=8, hidden=(12,), L=8), layout, seed=0)


class TestForward:
    def test_zero_model_gives_zeros(self):
        layout = make_layout([2], [2], K=2)
        arch = Architecture(d=3, hidden=(), L=2)
        model = HashModel(arch=arch, layout=layout,
                          W=[np.zeros((2, 3))], v=[np.zeros(2)])
        out, acts = forward(model, np.array([1.0, -2.0, 3.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0])
        assert len(acts) == 1

    def test_affine_evaluation(self):
        layout = make_layout([1], [2], K=2)
        arch = Architecture(d=1, hidden=(), L=1)
        model = HashModel(arch=arch, layout=layout,
                          W=[np.array([[2.0]])], v=[np.array([1.0])])
        out, _ = forward(model, np.array([3.0]))
        assert out[0] == 7.0

    def test_relu_clamps_hidden(self):
        layout = make_layout([1], [2], K=2)
        arch = Architecture(d=1, hidden=(1,), L=1)
        model = HashModel(
            arch=arch, layout=layout,
            W=[np.array([[-1.0]]), np.array([[1.0]])],
            v=[np.array([0.0]), np.array([0.0])],
        )
        out, acts = forward(model, np.array([5.0]))
        assert acts[0][0] == 0.0  # rectifier clamps -5 to 0
        assert out[0] == 0.0

    def test_batch_matches_single(self):
        # BLAS picks different kernels for matrix-matrix vs vector products,
        # so rows of a larger batch agree with single-row calls to rounding.
        layout = segment_layout(8, 3)
        arch = Architecture(d=4, hidden=(6,), L=8)
        model = init_model(arch, layout, seed=3)
        X = np.random.default_rng(4).normal(size=(5, 4))
        batch_out, _ = forward(model, X)
        for i in range(5):
            row_out, _ = forward(model, X[i])
            np.testing.assert_allclose(batch_out[i], row_out, rtol=1e-12, atol=0)

    def test_nonfinite_input(self):
        layout = segment_layout(8, 3)
        model = init_model(Architecture(d=4, hidden=(), L=8), layout, seed=0)
        with pytest.raises(NonFiniteInput):
            forward(model, np.array([1.0, np.nan, 0.0, 2.0]))

    def test_shape_mismatch(self):
        layout = segment_layout(8, 3)
        model = init_model(Architecture(d=4, hidden=(), L=8), layout, seed=0)
        with pytest.raises(ShapeMismatch):
            forward(model, np.zeros(5))

    def test_hidden_activations_nonnegative(self):
        layout = segment_layout(8, 3)
        arch = Architecture(d=4, hidden=(16, 8), L=8)
        model = init_model(arch, layout, seed=5)
        X = np.random.default_rng(6).normal(size=(20, 4))
        _, acts = forward(model, X)
        assert np.all(acts[0] >= 0) and np.all(acts[1] >= 0)


class TestQuantize:
    def test_hand_packed_byte(self):
        layout = make_layout([4], [2], K=2)
        code = quantize(np.array([0.2, -0.1, 0.0, 3.0]), layout)
        np.testing.assert_array_equal(code.unpack(), [1, -1, -1, 1])
        assert code.packed[0] == 0b0000_1001

    def test_all_positive(self):
        layout = segment_layout(16, 3)
        code = quantize(np.full(16, 0.5), layout)
        assert np.all(code.unpack() == 1)

    def test_zeros_quantize_negative(self):
        layout = segment_layout(16, 3)
        code = quantize(np.zeros(16), layout)
        assert np.all(code.unpack() == -1)
        assert np.all(code.packed == 0)

    def test_negation_flips_all_bits(self):
        rng = np.random.default_rng(8)
        layout = segment_layout(24, 4)
        for _ in range(20):
            x = rng.normal(size=24)
            x[x == 0.0] = 0.5  # no exact zeros
            a = quantize(x, layout).unpack()
            b = quantize(-x, layout).unpack()
            np.testing.assert_array_equal(a, -b)

    def test_nonfinite(self):
        layout = segment_layout(8, 3)
        with pytest.raises(NonFiniteInput):
            quantize(np.array([np.inf] + [0.0] * 7), layout)


class TestPackRoundTrip:
    @pytest.mark.parametrize("L", [8, 31, 32, 33, 48, 64, 128])
    def test_round_trip(self, L):
        rng = np.random.default_rng(L)
        for K in (2, 3, 4):
            for scheme in ("effective", "paper-literal"):
                n_seg = K if scheme == "paper-literal" else K - 1
                if L <= n_seg:
                    continue
                layout = segment_layout(L, K, scheme)
                bits = rng.integers(0, 2, size=(40, L), dtype=np.uint8)
                packed = pack_bits(layout, bits)
                assert packed.shape == (40, layout.total_bytes)
                np.testing.assert_array_equal(unpack_bits(layout, packed), bits)

    def test_padding_bits_zero(self):
        layout = segment_layout(31, 3)  # widths (15, 16): one padding bit
        bits = np.ones((4, 31), dtype=np.uint8)
        packed = pack_bits(layout, bits)
        assert np.all(packed[:, 1] == 0b0111_1111)


class TestEncodeBatch:
    def test_empty(self):
        layout = segment_layout(16, 3)
        model = init_model(Architecture(d=4, hidden=(), L=16), layout, seed=0)
        db = encode_batch(model, np.zeros((0, 4)))
        assert len(db) == 0

    def test_single_row_consistent_with_forward_quantize(self):
        layout = segment_layout(16, 3)
        model = init_model(Architecture(d=4, hidden=(8,), L=16), layout, seed=1)
        x = np.random.default_rng(2).normal(size=(1, 4))
        db = encode_batch(model, x)
        relaxed, _ = forward(model, x[0])
        np.testing.assert_array_equal(db.packed[0], quantize(relaxed, layout).packed)

    def test_permutation_equivariance(self):
        layout = segment_layout(16, 3)
        model = init_model(Architecture(d=4, hidden=(8,), L=16), layout, seed=1)
        X = np.random.default_rng(3).normal(size=(10, 4))
        perm = np.random.default_rng(4).permutation(10)
        db = encode_batch(model, X)
        db_p = encode_batch(model, X[perm])
        np.testing.assert_array_equal(db.packed[perm], db_p.packed)

    def test_deterministic(self):
        layout = segment_layout(16, 3)
        model = init_model(Architecture(d=4, hidden=(8,), L=16), layout, seed=1)
        X = np.random.default_rng(5).normal(size=(10, 4))
        np.testing.assert_array_equal(encode_batch(model, X).packed,
                                      encode_batch(model, X).packed)

import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import shdh
from shdh.codes import (
    ENCODE_BLOCK,
    Architecture,
    CodeDatabase,
    HashModel,
    Segment,
    SegmentLayout,
    _forward,
    encode_batch,
    forward,
    init_model,
    pack_bits,
    quantize,
    segment_layout,
    segment_masks,
)
from shdh.errors import (
    CodeTooLong,
    CodeTooShort,
    HeightTooLarge,
    HeightTooSmall,
    InvalidNumber,
    NonFiniteInput,
    ShapeMismatch,
)
from shdh.hierarchy import key_weights, layer_weights
from shdh.index import distance_keys
from shdh.io import read_codes, write_codes

from conftest import unit_layout
from oracles import bits_brute, forward_rows_brute, signs


class TestSegmentLayout:
    def test_paper_literal_32_3(self):
        layout = segment_layout(32, 3, "paper-literal")
        assert layout.widths == (10, 10, 12)
        assert [layer_weights(3)[s.layer - 1] for s in layout.segments] == [0.0, 2 / 3, 1 / 3]
        assert [s.layer for s in layout.segments] == [1, 2, 3]

    def test_effective_32_3(self):
        layout = segment_layout(32, 3)
        assert layout.widths == (16, 16)
        assert [layer_weights(3)[s.layer - 1] for s in layout.segments] == [2 / 3, 1 / 3]
        assert [s.layer for s in layout.segments] == [2, 3]

    def test_paper_literal_64_4(self):
        layout = segment_layout(64, 4, "paper-literal")
        assert layout.widths == (16, 16, 16, 16)

    def test_widths_sum_and_weights_match_layer_weights(self):
        # A is layer_weights gathered per bit: every bit of a segment
        # carries its layer's weight
        rng = np.random.default_rng(5)
        for _ in range(30):
            K = int(rng.integers(2, 8))
            u = layer_weights(K)
            for scheme in ("effective", "paper-literal"):
                n_seg = K if scheme == "paper-literal" else K - 1
                L = int(rng.integers(n_seg + 1, 129))
                layout = segment_layout(L, K, scheme)
                assert sum(layout.widths) == L
                assert layout.A.shape == (L,) and layout.A.dtype == np.float64
                for seg in layout.segments:
                    bits = layout.A[seg.bit_offset:seg.bit_offset + seg.width]
                    assert np.all(bits == u[seg.layer - 1])

    def test_weights_and_key_weights_agree(self):
        # each segment's layer weight is its integer key weight over the
        # key scale, bit for bit, for every height an SHDC header can record
        for K in range(2, 256):
            w, u = key_weights(K), layer_weights(K)
            for scheme in ("effective", "paper-literal"):
                layout = segment_layout(K + 1, K, scheme)
                for seg in layout.segments:
                    assert seg.key_weight == w[seg.layer - 1]
                    assert u[seg.layer - 1] == seg.key_weight / layout.key_scale

    def test_no_stored_float_weight(self):
        # the layer weighting lives in key_weights alone: a segment stores
        # only its integer key weight, and A is derived on each access. A
        # layout and a model hold what their file headers hold: the segments
        # derive from (L, K, scheme), the architecture from the shapes of W
        assert [f.name for f in dataclasses.fields(Segment)] == [
            "layer", "width", "key_weight", "bit_offset"]
        assert [f.name for f in dataclasses.fields(SegmentLayout)] == ["L", "K", "scheme"]
        assert [f.name for f in dataclasses.fields(HashModel)] == ["layout", "W", "v"]
        layout = segment_layout(32, 4, "paper-literal")
        for obj in (layout, *layout.segments):
            for f in dataclasses.fields(obj):
                assert not isinstance(getattr(obj, f.name), (float, np.floating, np.ndarray))

    def test_segments_follow_from_the_header(self):
        # a layout is (L, K, scheme): segments covering 16 of 32 bits were
        # once accepted, and write_codes then wrote a file read_codes rejected
        with pytest.raises(TypeError):
            SegmentLayout(L=32, K=3, scheme="effective", segments=segment_layout(16, 3).segments)
        assert SegmentLayout(32, 3) == segment_layout(32, 3, "effective")
        assert len({segment_layout(32, 3), SegmentLayout(L=32, K=3, scheme="effective")}) == 1

    def test_every_layout_round_trips_and_every_short_one_is_rejected(self, tmp_path):
        # the 2 440 layouts with L <= 128 and K = 2..11 under both schemes
        path = tmp_path / "c.shdc"
        count = 0
        for K in range(2, 12):
            for scheme in ("effective", "paper-literal"):
                n_seg = K if scheme == "paper-literal" else K - 1
                for L in range(n_seg + 1):
                    with pytest.raises(CodeTooShort):
                        SegmentLayout(L, K, scheme)
                for L in range(n_seg + 1, 129):
                    layout = SegmentLayout(L, K, scheme)
                    assert sum(layout.widths) == L and min(layout.widths) >= 1
                    signs_ = np.where(np.arange(L) % 3 == 0, 1.0, -1.0)
                    db = quantize(np.stack([signs_, -signs_]), layout)
                    write_codes(path, db)
                    got = read_codes(path)
                    assert got.layout == layout and got.packed.tobytes() == db.packed.tobytes()
                    count += 1
        assert count == 2440

    @pytest.mark.parametrize("L, K", [(32.0, 3), (32, 3.0), ("32", 3), (32, "3"), (None, 3)])
    def test_non_integer_L_or_K_rejected(self, L, K):
        with pytest.raises(InvalidNumber, match="must be an integer"):
            segment_layout(L, K)

    def test_numpy_integers_stored_as_int(self):
        layout = segment_layout(np.int64(32), np.uint8(3))
        assert layout == segment_layout(32, 3) and layout.widths == (16, 16)
        assert all(type(x) is int for x in (layout.L, layout.K, layout.total_bytes, *layout.widths))

    def test_code_too_short(self):
        with pytest.raises(CodeTooShort):
            segment_layout(3, 4, "paper-literal")
        with pytest.raises(CodeTooShort):
            segment_layout(2, 3)

    def test_code_too_long(self):
        # the layout block of SHDC and SHDM files stores L as a u16
        assert segment_layout(65535, 3).L == 65535
        with pytest.raises(CodeTooLong):
            segment_layout(65536, 3)

    def test_height_too_small(self):
        with pytest.raises(HeightTooSmall):
            segment_layout(8, 1)

    def test_height_too_large(self, tmp_path):
        # the layout block of SHDC and SHDM files stores K as a u8
        layout = segment_layout(300, 255)
        db = CodeDatabase(layout=layout, packed=np.full((2, layout.total_bytes), 0x01, np.uint8))
        write_codes(tmp_path / "k255.shdc", db)
        got = read_codes(tmp_path / "k255.shdc")
        assert got.layout == layout
        np.testing.assert_array_equal(got.packed, db.packed)
        with pytest.raises(HeightTooLarge):
            segment_layout(300, 256)

    def test_byte_alignment(self):
        layout = segment_layout(31, 3)  # widths (15, 16)
        assert layout.segments[0].n_bytes == 2
        assert layout.segments[1].bit_offset == 15 and layout.segments[1].n_bytes == 2
        assert layout.total_bytes == 4
        # every byte scores its valid bits only: 8, 7 (one padding bit), 8, 8
        q = CodeDatabase(layout=layout, packed=np.zeros((1, 4), np.uint8))
        rows = np.diag(np.full(4, 0xFF, np.uint8))
        with pytest.raises(ShapeMismatch, match="code row 1 has nonzero padding bits"):
            CodeDatabase(layout=layout, packed=rows)
        db = CodeDatabase(layout=layout, packed=np.zeros((4, 4), np.uint8))
        db.packed[:] = rows  # the padding bit, past the constructor's check
        np.testing.assert_array_equal(distance_keys(db, q), [8 * 2, 7 * 2, 8 * 1, 8 * 1])


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


class TestHashModel:
    def test_arch_is_the_shape_of_w(self):
        arch = Architecture(d=8, hidden=(12, 10), L=16)
        model = init_model(arch, segment_layout(16, 3), seed=0)
        assert model.arch == arch and model.arch is model.arch

    @pytest.mark.parametrize("W, v, match", [
        ([], [], "at least one"),
        ([np.zeros((16, 8)), np.zeros((16, 12))], [np.zeros(16)] * 2, "do not chain"),
        ([np.zeros((0, 8)), np.zeros((16, 0))], [np.zeros(0), np.zeros(16)], "widths must be"),
        ([np.zeros((12, 8)), np.zeros((16, 12))], [np.zeros(10), np.zeros(16)], "do not chain"),
        ([np.zeros((16, 8))], [np.zeros(16)] * 2, "one v per"),
        ([np.zeros((12, 8)), np.zeros((8, 12))], [np.zeros(12), np.zeros(8)], "!= layout width"),
    ], ids=["no-layers", "unchained", "zero-width", "short-v", "extra-v", "final-width"])
    def test_shape_mismatch(self, W, v, match):
        with pytest.raises(ShapeMismatch, match=match):
            HashModel(layout=segment_layout(16, 3), W=W, v=v)


class TestForward:
    def test_zero_model_gives_zeros(self):
        model = HashModel(layout=segment_layout(2, 2), W=[np.zeros((2, 3))], v=[np.zeros(2)])
        out, acts = forward(model, np.array([[1.0, -2.0, 3.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0]])
        assert len(acts) == 1

    def test_affine_evaluation(self):
        model = HashModel(layout=unit_layout(), W=[np.array([[2.0]])], v=[np.array([1.0])])
        out, _ = forward(model, np.array([[3.0]]))
        assert out[0, 0] == 7.0

    def test_relu_clamps_hidden(self):
        model = HashModel(
            layout=unit_layout(),
            W=[np.array([[-1.0]]), np.array([[1.0]])],
            v=[np.array([0.0]), np.array([0.0])],
        )
        out, acts = forward(model, np.array([[5.0]]))
        assert acts[0][0, 0] == 0.0  # rectifier clamps -5 to 0
        assert out[0, 0] == 0.0

    def test_batch_matches_single(self):
        # BLAS may pick different kernels for different batch heights, so
        # rows of a larger batch agree with one-row batches to rounding.
        layout = segment_layout(8, 3)
        arch = Architecture(d=4, hidden=(6,), L=8)
        model = init_model(arch, layout, seed=3)
        X = np.random.default_rng(4).normal(size=(5, 4))
        batch_out, _ = forward(model, X)
        for i in range(5):
            row_out, _ = forward(model, X[i:i + 1])
            np.testing.assert_allclose(batch_out[i], row_out[0], rtol=1e-12, atol=0)

    def test_nonfinite_input(self):
        layout = segment_layout(8, 3)
        model = init_model(Architecture(d=4, hidden=(), L=8), layout, seed=0)
        with pytest.raises(NonFiniteInput):
            forward(model, np.array([[1.0, np.nan, 0.0, 2.0]]))

    def test_shape_mismatch(self):
        layout = segment_layout(8, 3)
        model = init_model(Architecture(d=4, hidden=(), L=8), layout, seed=0)
        with pytest.raises(ShapeMismatch):
            forward(model, np.zeros((1, 5)))
        with pytest.raises(ShapeMismatch):  # batches only: a single vector is 1 x d
            forward(model, np.zeros(4))

    def test_hidden_activations_nonnegative(self):
        layout = segment_layout(8, 3)
        arch = Architecture(d=4, hidden=(16, 8), L=8)
        model = init_model(arch, layout, seed=5)
        X = np.random.default_rng(6).normal(size=(20, 4))
        _, acts = forward(model, X)
        assert np.all(acts[0] >= 0) and np.all(acts[1] >= 0)

    def test_float32_model_computes_in_float32(self):
        layout = segment_layout(8, 3)
        model = init_model(Architecture(d=4, hidden=(16, 8), L=8), layout, seed=5)
        X = np.random.default_rng(6).normal(size=(20, 4))
        out, acts = forward(model.astype(np.float32), X)
        assert out.dtype == np.float32
        assert all(a.dtype == np.float32 for a in acts)
        np.testing.assert_allclose(out, forward(model, X)[0], rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("n", [ENCODE_BLOCK, 17, 1])
    def test_buffered_matches_unbuffered(self, n):
        # encode_batch's buffers hold ENCODE_BLOCK rows; a short last block
        # fills only their first n rows
        layout = segment_layout(21, 3)
        model = init_model(Architecture(d=5, hidden=(9, 7), L=21), layout, seed=8)
        X = np.random.default_rng(n).normal(size=(n, 5)).astype(np.float32)
        out = [np.full((ENCODE_BLOCK, w.shape[0]), np.nan) for w in model.W]
        relaxed, acts = _forward(model, X, out)
        want_relaxed, want = forward(model, X)
        assert relaxed.tobytes() == want_relaxed.tobytes()
        assert len(acts) == len(want) == model.n_layers
        for got, expected, buf in zip(acts, want, out):
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
            assert np.shares_memory(got, buf)


class TestQuantize:
    def test_hand_packed_byte(self):
        layout = segment_layout(4, 2)
        code = quantize(np.array([[0.2, -0.1, 0.0, 3.0]]), layout)
        np.testing.assert_array_equal(signs(code), [1, -1, -1, 1])
        assert code.packed[0, 0] == 0b0000_1001

    def test_all_positive(self):
        layout = segment_layout(16, 3)
        code = quantize(np.full((1, 16), 0.5), layout)
        assert np.all(signs(code) == 1)

    def test_zeros_quantize_negative(self):
        layout = segment_layout(16, 3)
        code = quantize(np.zeros((1, 16)), layout)
        assert np.all(signs(code) == -1)
        assert np.all(code.packed == 0)

    def test_negation_flips_all_bits(self):
        rng = np.random.default_rng(8)
        layout = segment_layout(24, 4)
        for _ in range(20):
            x = rng.normal(size=(1, 24))
            x[x == 0.0] = 0.5  # no exact zeros
            a = signs(quantize(x, layout))
            b = signs(quantize(-x, layout))
            np.testing.assert_array_equal(a, -b)

    def test_batch_only(self):
        layout = segment_layout(8, 3)
        with pytest.raises(ShapeMismatch):
            quantize(np.ones(8), layout)
        with pytest.raises(ShapeMismatch):
            quantize(np.ones((2, 7)), layout)
        assert len(quantize(np.ones((0, 8)), layout)) == 0

    def test_nonfinite(self):
        layout = segment_layout(8, 3)
        with pytest.raises(NonFiniteInput):
            quantize(np.array([[np.inf] + [0.0] * 7]), layout)

    def test_float32_batch_is_not_copied(self):
        # signs are tested in the batch's own dtype: a float64 copy of a
        # float32 batch would take twice the batch's bytes, while the bit
        # matrices and packed codes take about a quarter of them
        layout = segment_layout(64, 3)
        x = np.random.default_rng(0).standard_normal((20_000, 64), dtype=np.float32)
        tracemalloc.start()
        try:
            db = quantize(x, layout)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert db.packed.tobytes() == quantize(x.astype(np.float64), layout).packed.tobytes()
        assert peak < 0.5 * x.nbytes, f"quantize peaked at {peak / x.nbytes:.2f} x the batch"


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
                np.testing.assert_array_equal(bits_brute(layout, packed), bits)

    def test_padding_bits_zero(self):
        layout = segment_layout(31, 3)  # widths (15, 16): one padding bit
        bits = np.ones((4, 31), dtype=np.uint8)
        packed = pack_bits(layout, bits)
        assert np.all(packed[:, 1] == 0b0111_1111)


class TestSegmentMasks:
    def test_paper_literal_12_bit_segments(self):
        # four 12-bit segments of 2 bytes each: 8 bits, then 4 bits and 4 padding bits
        layout = segment_layout(48, 4, "paper-literal")
        expected = np.zeros((4, 8), np.uint8)
        for s in range(4):
            expected[s, 2 * s:2 * s + 2] = [0xFF, 0x0F]
        np.testing.assert_array_equal(segment_masks(layout), expected)

    @pytest.mark.parametrize("L, K, scheme", [(21, 3, "effective"), (33, 4, "effective"),
                                              (64, 5, "effective"), (20, 4, "paper-literal")])
    def test_disjoint_and_cover_every_bit(self, L, K, scheme):
        layout = segment_layout(L, K, scheme)
        masks = segment_masks(layout)
        assert masks.shape == (len(layout.segments), layout.total_bytes)
        overlap = (masks[:, None] & masks[None, :]).any(axis=-1)
        np.testing.assert_array_equal(overlap, np.eye(len(masks), dtype=bool))
        everything = pack_bits(layout, np.ones((1, L), np.uint8))[0]
        np.testing.assert_array_equal(np.bitwise_or.reduce(masks), everything)


class TestCodeDatabase:
    def test_rejects_other_dtypes(self):
        layout = segment_layout(16, 3)
        for dtype in (np.int64, np.int8, np.uint16):
            with pytest.raises(ShapeMismatch):
                CodeDatabase(layout=layout, packed=np.zeros((3, 2), dtype))

    def test_padding_bits_rejected_naming_the_first_row(self):
        layout = segment_layout(12, 3)  # widths (6, 6): two padding bits in each byte
        packed = np.zeros((4, 2), np.uint8)
        packed[2, 1], packed[3, 0] = 0x40, 0x80
        with pytest.raises(ShapeMismatch, match="^code row 2 has nonzero padding bits$"):
            CodeDatabase(layout=layout, packed=packed)
        # without padding bytes every byte value is a valid code
        CodeDatabase(layout=segment_layout(32, 3), packed=np.full((3, 4), 255, np.uint8))

    def test_code_checks_its_row_again(self):
        db = CodeDatabase(layout=segment_layout(12, 3), packed=np.zeros((3, 2), np.uint8))
        db.packed[1, 0] = 0xC0  # written into the array after the check
        db.code(0)
        with pytest.raises(ShapeMismatch, match="code row 0 has nonzero padding bits"):
            db.code(1)

    def test_model_and_database_are_frozen(self):
        model = init_model(Architecture(d=4, hidden=(8,), L=16), segment_layout(16, 3), 0)
        for name, value in (("W", [np.zeros((16, 4))]), ("v", [np.zeros(16)]), ("layout", None)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(model, name, value)
        assert model.arch.hidden == (8,) and model.n_layers == 2
        db = CodeDatabase(layout=segment_layout(12, 3), packed=np.zeros((2, 2), np.uint8))
        with pytest.raises(dataclasses.FrozenInstanceError):
            db.packed = np.full((2, 2), 255, np.uint8)

    def test_code_is_a_one_row_view(self):
        layout = segment_layout(16, 3)
        db = CodeDatabase(layout=layout, packed=np.arange(10, dtype=np.uint8).reshape(5, 2))
        np.testing.assert_array_equal(db.code(3).packed, [[6, 7]])
        np.testing.assert_array_equal(db.code(-1).packed, [[8, 9]])
        assert db.code(0).layout == layout and np.shares_memory(db.code(0).packed, db.packed)
        with pytest.raises(IndexError):
            db.code(5)


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
        relaxed, _ = forward(model, x)
        np.testing.assert_array_equal(db.packed, quantize(relaxed, layout).packed)

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

    def test_float32_features_encode_as_their_float64_values(self):
        # each block is copied into a float64 input buffer; the copy is exact
        model = self.random_model(3)
        X = np.random.default_rng(8).normal(size=(ENCODE_BLOCK + 5, 5)).astype(np.float32)
        assert (encode_batch(model, X).packed.tobytes()
                == encode_batch(model, X.astype(np.float64)).packed.tobytes())

    @staticmethod
    def random_model(seed):
        """Normal weights, so that bits take both signs; L=21 splits into
        widths 10 and 11, so both segments carry padding bits."""
        layout = segment_layout(21, 3)
        arch = Architecture(d=5, hidden=(9,), L=21)
        rng = np.random.default_rng(seed)
        return HashModel(layout=layout,
                         W=[rng.normal(size=dims) for dims in arch.layer_dims],
                         v=[rng.normal(size=dims[0]) for dims in arch.layer_dims])

    @pytest.mark.parametrize("n", [0, 1, ENCODE_BLOCK - 1, ENCODE_BLOCK, ENCODE_BLOCK + 1,
                                   2 * ENCODE_BLOCK + 3])
    def test_block_boundaries(self, n):
        # Rows of a block may round differently from a whole-batch forward
        # (see test_batch_matches_single), so each bit is checked against the
        # sign of a row-by-row forward wherever that sign is clear of rounding.
        model = self.random_model(7)
        layout = model.layout
        X = np.random.default_rng(n).normal(size=(n, 5)).astype(np.float32)
        db = encode_batch(model, X)
        assert db.packed.shape == (n, layout.total_bytes)
        last_byte = np.cumsum([seg.n_bytes for seg in layout.segments]) - 1
        for seg, byte in zip(layout.segments, last_byte):
            assert not (db.packed[:, byte] >> seg.width % 8).any()
        relaxed = forward_rows_brute(model.W, model.v, X)
        clear = np.abs(relaxed) > 1e-9
        assert n == 0 or clear.mean() > 0.99
        bits = bits_brute(layout, db.packed)
        np.testing.assert_array_equal(bits[clear], (relaxed > 0)[clear])

    def test_nonfinite_in_last_block(self):
        model = self.random_model(7)
        X = np.ones((2 * ENCODE_BLOCK + 3, 5))
        X[-1, -1] = np.nan
        with pytest.raises(NonFiniteInput):
            encode_batch(model, X)


def test_encode_peak_is_one_block_of_activations():
    # numpy reports its allocations to tracemalloc. Everything encode_batch
    # allocates (activation buffers, the float64 input buffer, bits,
    # packed codes) stays below 1.25 x the activations of
    # one block: 1024 x (512 + 512 + 32) float64, 8.25 MiB.
    layout = segment_layout(32, 3)
    model = init_model(Architecture(d=64, hidden=(512, 512), L=32), layout, seed=0)
    n = 5 * ENCODE_BLOCK + 17
    X = np.random.default_rng(0).standard_normal((n, 64), dtype=np.float32)
    block_bytes = ENCODE_BLOCK * (512 + 512 + 32) * 8
    tracemalloc.start()
    try:
        db = encode_batch(model, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(db) == n
    assert peak < 1.25 * block_bytes, f"encode peaked at {peak / block_bytes:.2f} blocks"


# The child encodes 200 000 rows and prints its peak resident set (VmHWM)
# minus its resident set just before encode_batch, in KiB. A whole-batch
# forward would keep 200 000 x (256 + 32) float64 activations, 440 MiB.
MEMORY_CHILD = """
import numpy as np
from shdh.codes import Architecture, encode_batch, init_model, segment_layout

def status_kib(key):
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith(key + ":"))

model = init_model(Architecture(d=16, hidden=(256,), L=32), segment_layout(32, 3), seed=0)
X = np.random.default_rng(0).standard_normal((200_000, 16), dtype=np.float32)
before = status_kib("VmRSS")
db = encode_batch(model, X)
assert len(db) == 200_000
print(status_kib("VmHWM") - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status for VmHWM and VmRSS")
def test_encode_memory_bounded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(shdh.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", MEMORY_CHILD], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    growth_mib = int(proc.stdout) / 1024
    assert growth_mib < 64, f"encode grew the resident set by {growth_mib:.0f} MiB"

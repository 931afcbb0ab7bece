import os
import re
import stat
import struct
import tracemalloc

import numpy as np
import pytest

from shdh.codes import Architecture, CodeDatabase, init_model, segment_layout
from shdh.errors import FileFormatError, FileNotFound, ShapeMismatch, ShdhError
from shdh.io import (
    CSV_BLOCK,
    _plain_pairs,
    atomic_write,
    read_codes,
    read_features,
    read_labels,
    read_model,
    read_taxonomy,
    read_text,
    text_records,
    write_codes,
    write_csv,
    write_features,
    write_labels,
    write_json,
    write_model,
    write_rows,
    write_taxonomy,
    write_trainlog,
)
from shdh.train import TrainRecord

from conftest import (
    TOY3_TEXT,
    random_codes,
    write_dirty_codes,
    write_layout_header,
    write_model_bytes,
    write_oversized,
    write_unchained_model,
    write_zero_width_model,
)


class TestFeatures:
    def test_round_trip(self, tmp_path):
        X = np.random.default_rng(0).normal(size=(13, 7)).astype(np.float32)
        path = tmp_path / "f.shdf"
        write_features(path, X)
        np.testing.assert_array_equal(read_features(path), X)

    def test_empty(self, tmp_path):
        path = tmp_path / "f.shdf"
        write_features(path, np.zeros((0, 5), np.float32))
        got = read_features(path)
        assert got.shape == (0, 5)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFound):
            read_features(tmp_path / "nope.shdf")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.shdf"
        path.write_bytes(b"WRNG" + b"\x00" * 32)
        with pytest.raises(FileFormatError):
            read_features(path)

    def test_write_copies_no_payload(self, tmp_path):
        X = np.random.default_rng(0).normal(size=(20_000, 64)).astype(np.float32)
        tracemalloc.start()
        try:
            write_features(tmp_path / "f.shdf", X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes
        np.testing.assert_array_equal(read_features(tmp_path / "f.shdf"), X)

    def test_truncated(self, tmp_path):
        X = np.ones((4, 4), np.float32)
        path = tmp_path / "f.shdf"
        write_features(path, X)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(FileFormatError):
            read_features(path)


class TestCodes:
    @pytest.mark.parametrize("scheme", ["effective", "paper-literal"])
    def test_round_trip(self, tmp_path, scheme):
        rng = np.random.default_rng(1)
        layout = segment_layout(33, 3, scheme)
        db = CodeDatabase(layout=layout, packed=random_codes(rng, layout, 9))
        path = tmp_path / "c.shdc"
        write_codes(path, db)
        got = read_codes(path)
        assert got.layout == layout
        np.testing.assert_array_equal(got.packed, db.packed)

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(2)
        layout = segment_layout(16, 3)
        db = CodeDatabase(layout=layout, packed=random_codes(rng, layout, 5))
        p1, p2 = tmp_path / "a.shdc", tmp_path / "b.shdc"
        write_codes(p1, db)
        write_codes(p2, db)
        assert p1.read_bytes() == p2.read_bytes()

    def test_each_padding_bit_rejected(self, tmp_path):
        layout = segment_layout(21, 3)  # widths (10, 11): bytes 1 and 3 carry padding
        packed = np.zeros((3, 4), np.uint8)
        packed[:, [0, 2]] = 0xFF
        packed[:, 1], packed[:, 3] = 0b11, 0b111  # every bit of every segment set
        path = tmp_path / "c.shdc"
        db = CodeDatabase(layout=layout, packed=packed)
        write_codes(path, db)
        np.testing.assert_array_equal(read_codes(path).packed, packed)
        for col, first_pad in ((1, 2), (3, 3)):
            for bit in range(first_pad, 8):
                dirty = packed.copy()
                dirty[2, col] |= 1 << bit
                with pytest.raises(ShapeMismatch, match="^code row 2 has nonzero padding bits$"):
                    CodeDatabase(layout=layout, packed=dirty)
                write_dirty_codes(path, db, 2, col, 1 << bit)
                with pytest.raises(FileFormatError) as exc:
                    read_codes(path)
                assert str(exc.value) == f"{path}: code row 2 has nonzero padding bits"

    def test_padding_bits_never_reach_a_file(self, tmp_path):
        # widths (6, 6): every byte holds two padding bits
        path = tmp_path / "bad.shdc"
        with pytest.raises(ShapeMismatch, match="^code row 0 has nonzero padding bits$"):
            write_codes(path, CodeDatabase(layout=segment_layout(12, 3),
                                           packed=np.full((2, 2), 255, np.uint8)))
        assert list(tmp_path.iterdir()) == []


class TestModel:
    def test_round_trip(self, tmp_path):
        layout = segment_layout(16, 3)
        arch = Architecture(d=6, hidden=(10, 8), L=16)
        model = init_model(arch, layout, seed=3)
        path = tmp_path / "m.shdm"
        write_model(path, model)
        got = read_model(path)
        assert got.arch == arch
        assert got.layout == layout
        for a, b in zip(model.W + model.v, got.W + got.v):
            np.testing.assert_array_equal(a, b)

    def test_struct_writer_matches_write_model(self, tmp_path):
        # the bytes the reader tests write by hand are SHDM as write_model writes it
        model = init_model(Architecture(d=8, hidden=(16,), L=16), segment_layout(16, 3), seed=0)
        write_model(tmp_path / "m.shdm", model)
        hand = write_model_bytes(tmp_path / "h.shdm", model.W, model.v)
        assert hand.read_bytes() == (tmp_path / "m.shdm").read_bytes()

    def test_layers_that_do_not_chain(self, tmp_path):
        path = write_unchained_model(tmp_path / "m.shdm")
        with pytest.raises(FileFormatError, match="do not chain"):
            read_model(path)

    def test_zero_width_layer(self, tmp_path):
        path = write_zero_width_model(tmp_path / "m.shdm")
        with pytest.raises(FileFormatError, match=re.escape(f"{path}: all layer widths")):
            read_model(path)

    def test_no_hidden_layers(self, tmp_path):
        layout = segment_layout(8, 2)
        model = init_model(Architecture(d=3, hidden=(), L=8), layout, seed=0)
        path = tmp_path / "m.shdm"
        write_model(path, model)
        got = read_model(path)
        assert got.arch.hidden == ()


@pytest.mark.parametrize("fmt", ["features", "codes", "model"])
def test_trailing_bytes_rejected(tmp_path, fmt):
    layout = segment_layout(16, 3)
    write, read, value = {
        "features": (write_features, read_features, np.ones((3, 4), np.float32)),
        "codes": (write_codes, read_codes, CodeDatabase(
            layout=layout, packed=random_codes(np.random.default_rng(3), layout, 4))),
        "model": (write_model, read_model,
                  init_model(Architecture(d=4, hidden=(5,), L=16), layout, seed=0)),
    }[fmt]
    path = tmp_path / "artifact"
    write(path, value)
    read(path)
    with open(path, "ab") as f:
        f.write(b"\x00" * 4)
    with pytest.raises(FileFormatError, match="after the payload"):
        read(path)


@pytest.mark.parametrize("fmt, read", [("codes", read_codes), ("model", read_model)])
@pytest.mark.parametrize("L, K", [(16, 1), (2, 4)])
def test_impossible_layout_header_rejected(tmp_path, fmt, read, L, K):
    # height 1 has no layer weights; 2 bits cannot hold K=4's three segments
    path = write_layout_header(tmp_path / "artifact", fmt, L, K)
    with pytest.raises(FileFormatError, match=re.escape(f"{path}: layout header L={L}, K={K}")):
        read(path)


@pytest.mark.parametrize("fmt, read", [("features", read_features), ("codes", read_codes),
                                       ("model", read_model)])
def test_oversized_header_rejected(tmp_path, fmt, read):
    path = write_oversized(tmp_path / "artifact", fmt)
    with pytest.raises(FileFormatError, match="truncated"):
        read(path)


def test_unshapeable_feature_count_rejected(tmp_path):
    # 2^64 - 1 rows of zero values: no payload, but no array can have that many rows
    path = tmp_path / "f.shdf"
    path.write_bytes(b"SHDF" + struct.pack("<HQI", 1, 2**64 - 1, 0))
    with pytest.raises(FileFormatError, match="too long"):
        read_features(path)


class TestTextFiles:
    def test_taxonomy_round_trip(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text(TOY3_TEXT)
        tax = read_taxonomy(path)
        assert tax.K == 3

    def test_taxonomy_writer(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_taxonomy(path, [("root", "a"), ("root", "b"), ("a", "x"), ("b", "y")])
        assert read_taxonomy(path).leaves == {"x", "y"}

    def test_labels_round_trip(self, tmp_path):
        path = tmp_path / "l.tsv"
        write_labels(path, ["i0", "i1"], ["rose", "tiger"])
        ids, labels = read_labels(path)
        assert ids == ["i0", "i1"]
        assert labels == ["rose", "tiger"]

    def test_labels_malformed(self, tmp_path):
        path = tmp_path / "l.tsv"
        path.write_text("only-one-column\n")
        with pytest.raises(FileFormatError):
            read_labels(path)

    def test_crlf_reads_like_lf(self, tmp_path):
        labels = "# ids and leaves\ni0\trose\n\ni1\ttiger\n"
        for name, text in (("labels", labels), ("tax", TOY3_TEXT)):
            (tmp_path / f"{name}.lf").write_bytes(text.encode())
            (tmp_path / f"{name}.crlf").write_bytes(text.replace("\n", "\r\n").encode())
        assert read_labels(tmp_path / "labels.crlf") == read_labels(tmp_path / "labels.lf") \
            == (["i0", "i1"], ["rose", "tiger"])
        lf, crlf = read_taxonomy(tmp_path / "tax.lf"), read_taxonomy(tmp_path / "tax.crlf")
        assert (crlf.root, crlf.K, crlf.leaves) == (lf.root, lf.K, lf.leaves)
        np.testing.assert_array_equal(crlf._leaf_chains, lf._leaf_chains)

    def test_labels_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "l.tsv"
        path.write_bytes(b"\xef\xbb\xbfi0\trose\ni1\ttiger\n")
        assert read_labels(path) == (["i0", "i1"], ["rose", "tiger"])

    def test_taxonomy_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_bytes(b"\xef\xbb\xbf" + TOY3_TEXT.encode())
        assert read_taxonomy(path).root == "root"

    @pytest.mark.parametrize("reader", [read_labels, read_taxonomy])
    def test_not_utf8(self, tmp_path, reader):
        path = tmp_path / "t.tsv"
        path.write_bytes(b"root\ta\n\xe9\tb\n")
        with pytest.raises(FileFormatError, match=f"{re.escape(str(path))}: not UTF-8: "
                                                  "byte 0xe9 at offset 7"):
            reader(path)


def _line_loop(path):
    """The labels reader as one text_records loop over every line."""
    ids, labels = [], []
    for lineno, fields in text_records(read_text(path), "\t"):
        if len(fields) != 2:
            raise FileFormatError(f"{path} line {lineno}: expected 'id<TAB>label'")
        ids.append(fields[0])
        labels.append(fields[1])
    return ids, labels


def _outcome(read, path):
    try:
        return read(path)
    except ShdhError as exc:  # the message names the path and the line
        return type(exc), str(exc)


# Lines that the whole-text split would read otherwise than the line loop,
# or that the line loop rejects.
_HAZARD_LINES = [
    "# a comment\n", "#7\ts0_c1\n", "\n", "  \n", "\t\n", "7\ts0_c1\r\n",
    " 7\ts0_c1\n", "7\ts0_c1 \n", "\t7\ts0_c1\n", "7\ts0_c1\t\n", "7 8\ts0_c1\n",
    "7\ts0 c1\n", "7\ts0#c1\n",
    *(f"7\ts0{c}c1\n" for c in "\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028"),
    "7\ts0_c1\tx\n", "7\ts0_c1\tx\ty\n", "7\t\ts0_c1\n", "7\n", "7\n8\n", "7\t\n",
    "\ts0_c1\n",
]


def _label_texts(seed):
    """Clean label texts with each hazard at the start, inside and at the end,
    and whole-text hazards: CRLF, no final newline, a last line without its
    label, a byte-order mark."""
    rng = np.random.default_rng(seed)
    clean = [f"{i}\ts{rng.integers(4)}_c{rng.integers(4)}\n" for i in range(int(rng.integers(1, 8)))]
    for hazard in _HAZARD_LINES:
        for at in sorted({0, int(rng.integers(len(clean) + 1)), len(clean)}):
            yield "".join(clean[:at] + [hazard] + clean[at:])
    text = "".join(clean)
    yield from (text, text.replace("\n", "\r\n"), text[:-1], text + "7", "\ufeff" + text,
                "\ufeff" + text.replace("\n", "\r\n"))


class TestLabelPaths:
    @pytest.mark.parametrize("seed", range(4))
    def test_split_reads_like_the_line_loop(self, tmp_path, seed):
        path = tmp_path / "l.tsv"
        for text in _label_texts(seed):
            path.write_bytes(text.encode())
            assert _outcome(read_labels, path) == _outcome(_line_loop, path), repr(text)

    @pytest.mark.parametrize("rows", [0, 1, 10_000])
    def test_written_labels_take_the_split(self, tmp_path, rows):
        path = tmp_path / "l.tsv"
        for labels in ([f"s{i % 4}_c{i % 5}" for i in range(rows)],  # shdh gen
                       [f"n{i % 3}_{i % 4}_{i % 2}" for i in range(rows)]):  # perfbench
            write_labels(path, range(rows), labels)
            assert _plain_pairs(read_text(path))
            assert read_labels(path) == ([str(i) for i in range(rows)], labels)


class TestCsv:
    @pytest.mark.parametrize("n", [0, 1, CSV_BLOCK, CSV_BLOCK + 1, 3 * CSV_BLOCK + 7])
    def test_blocks_write_what_rows_joined_write(self, tmp_path, n):
        rng = np.random.default_rng(n)
        kinds = [lambda i: (i, float(rng.normal()), "acg", ""),
                 lambda i: ["mean", np.int64(i), "ndcg", repr(float(rng.random()))],
                 lambda i: (np.float64(rng.normal()), -i, "weighted_recall", "0.5")]
        rows = [kinds[i % 3](i) for i in range(n)]
        header = ["query_id", "n", "metric", "value"]
        path = tmp_path / "m.csv"
        write_csv(path, header, (row for row in rows))
        oracle = "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])
        assert path.read_bytes() == oracle.encode()

    def test_row_of_another_width_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            write_csv(tmp_path / "c.csv", ["n", "value"], [(1, 0.5), (2, 0.5, 7)])
        assert os.listdir(tmp_path) == []

    def test_curve_from_a_generator_is_never_listed(self, tmp_path):
        # a list of the 100 000 rows and their reprs first peaks at 18.1 MiB
        wr = np.random.default_rng(0).random(100_000)
        tracemalloc.start()
        try:
            write_csv(tmp_path / "wr.csv", ["n", "mean_weighted_recall"],
                      zip(range(1, len(wr) + 1), wr.tolist()))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20
        lines = (tmp_path / "wr.csv").read_text().splitlines()
        assert len(lines) == 1 + len(wr) and lines[-1] == f"{len(wr)},{float(wr[-1])!r}"


    def test_tab_separated_to_stdout(self, tmp_path, capsys):
        rows = [("q0", rank, rank * 7, 0.5 * rank, -1.25) for rank in range(1, CSV_BLOCK + 3)]
        header = ["query", "rank", "item_id", "distance", "inner_product"]
        write_rows(None, header, iter(rows), sep="\t")
        oracle = "".join("\t".join(map(str, row)) + "\n" for row in [header, *rows])
        assert capsys.readouterr().out == oracle
        write_rows(tmp_path / "r.tsv", header, iter(rows), sep="\t")
        assert (tmp_path / "r.tsv").read_text() == oracle

    def test_rows_that_raise_before_the_first_block_write_nothing(self, capsys):
        def rows():
            yield 1, 2.5
            raise RuntimeError("search failed")
        with pytest.raises(RuntimeError):
            write_rows(None, ["n", "value"], rows())
        assert capsys.readouterr().out == ""


class TestTrainLogCsv:
    def test_written_and_parseable(self, tmp_path):
        log = [TrainRecord(0, 0.01, -1.5, 2.0, 3.5),
               TrainRecord(1, 0.01, -2.0, 1.0, 3.0)]
        path = tmp_path / "log.csv"
        write_trainlog(path, log)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,eta,loss,fit,trace"
        assert lines[1].split(",")[0] == "0"
        assert float(lines[2].split(",")[2]) == -2.0


class TestAtomicWrite:
    def test_no_temp_left_behind_on_success(self, tmp_path):
        with atomic_write(tmp_path / "out.bin") as f:
            f.write(b"data")
        assert sorted(os.listdir(tmp_path)) == ["out.bin"]

    def test_failed_write_leaves_no_artifact(self, tmp_path):
        with pytest.raises(RuntimeError):
            with atomic_write(tmp_path / "out.bin") as f:
                f.write(b"partial")
                raise RuntimeError("interrupted")
        assert os.listdir(tmp_path) == []

    def test_overwrites_existing(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        with atomic_write(target) as f:
            f.write(b"new")
        assert target.read_bytes() == b"new"

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "out.bin"
        with atomic_write(target) as f:
            f.write(b"data")
        assert target.read_bytes() == b"data"

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)])
    def test_mode_follows_the_umask(self, tmp_path, umask, mode):
        # 0o666 less the umask, as open(path, "w") would create the file
        old = os.umask(umask)
        try:
            write_json(tmp_path / "s.json", {})
            db = CodeDatabase(layout=segment_layout(16, 3), packed=np.zeros((1, 2), np.uint8))
            write_codes(tmp_path / "db.shdc", db)
        finally:
            os.umask(old)
        for name in ("s.json", "db.shdc"):
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode

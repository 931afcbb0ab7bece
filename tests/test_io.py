import os
import re
import struct

import numpy as np
import pytest

from shdh.codes import Architecture, CodeDatabase, init_model, segment_layout
from shdh.errors import FileFormatError, FileNotFound
from shdh.io import (
    atomic_write,
    read_codes,
    read_features,
    read_labels,
    read_model,
    read_taxonomy,
    write_codes,
    write_features,
    write_labels,
    write_model,
    write_taxonomy,
    write_trainlog,
)
from shdh.train import TrainRecord

from conftest import (
    TOY3_TEXT,
    random_codes,
    write_layout_header,
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
        write_codes(path, CodeDatabase(layout=layout, packed=packed))
        np.testing.assert_array_equal(read_codes(path).packed, packed)
        for col, first_pad in ((1, 2), (3, 3)):
            for bit in range(first_pad, 8):
                dirty = packed.copy()
                dirty[2, col] |= 1 << bit
                write_codes(path, CodeDatabase(layout=layout, packed=dirty))
                with pytest.raises(FileFormatError, match="code row 2 has nonzero padding"):
                    read_codes(path)


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

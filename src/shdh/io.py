"""File formats and atomic writes.

Binary formats, all integers little-endian:

* Features "SHDF": magic, version u16, n u64, d u32, then n*d float32
  values row-major.
* Code database "SHDC": magic, version u16, L u16, K u8, scheme u8
  (0 = effective, 1 = paper-literal), segment widths (u16 each), n u64,
  then the packed codes (n * total_bytes).
* Model "SHDM": magic, version u16, layer count u32, per layer rows u32,
  cols u32, W row-major float64, then v float64 (rows values), then the
  layout block (L u16, K u8, scheme u8, widths u16 each).

Every writer goes through a temp file plus rename, so interrupted runs
never leave truncated artifacts. Readers reject bytes after the payload,
layout headers that describe no layout, model layers that do not chain, and,
in SHDC, nonzero padding bits: any bit outside `codes.segment_masks`.
"""

from __future__ import annotations

import csv
import io as _io
import math
import os
import struct
import sys
import tempfile
from contextlib import contextmanager

import numpy as np

from .codes import (
    Architecture,
    CodeDatabase,
    HashModel,
    SCHEME_EFFECTIVE,
    SCHEME_PAPER_LITERAL,
    SegmentLayout,
    segment_layout,
    segment_masks,
)
from .errors import CodeTooShort, FileFormatError, FileNotFound, HeightTooSmall, ShapeMismatch
from .hierarchy import Taxonomy, parse_taxonomy
from .train import TrainRecord

FORMAT_VERSION = 1

_SCHEME_BYTE = {SCHEME_EFFECTIVE: 0, SCHEME_PAPER_LITERAL: 1}
_BYTE_SCHEME = {v: k for k, v in _SCHEME_BYTE.items()}


@contextmanager
def atomic_write(path, mode="wb"):
    """Write to a sibling temp file, then rename over the target."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=os.path.basename(path) + ".tmp")
    try:
        with os.fdopen(fd, mode) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _open_binary(path):
    try:
        return open(path, "rb")
    except FileNotFoundError:
        raise FileNotFound(f"no such file: {path}") from None


def _read_exact(f, size: int, what: str) -> bytes:
    data = f.read(size)
    if len(data) != size:
        raise FileFormatError(f"truncated file while reading {what}")
    return data


def _read_struct(f, fmt: str, what: str):
    return struct.unpack(fmt, _read_exact(f, struct.calcsize(fmt), what))


def _check_end(f, path):
    """The payload must end the file."""
    if f.read(1):
        raise FileFormatError(f"{path}: unexpected bytes after the payload")


def _read_payload(f, path, shape, dtype: str, what: str) -> np.ndarray:
    """Read the next `shape` values of `dtype` straight into a new array.

    The size the header claims is checked against what the file holds before
    anything is allocated, so a corrupt header cannot ask for more memory
    than the file's own size.
    """
    size = math.prod(shape) * np.dtype(dtype).itemsize
    left = os.fstat(f.fileno()).st_size - f.tell()
    if size > left:
        raise FileFormatError(
            f"{path}: truncated file: the header claims {size} bytes of {what}, {left} remain")
    if max(shape) > sys.maxsize:  # numpy cannot shape an array this long, even an empty one
        raise FileFormatError(f"{path}: {what} of shape {shape} are too long")
    out = np.empty(shape, dtype=dtype)
    if f.readinto(out) != size:
        raise FileFormatError(f"{path}: truncated file while reading {what}")
    return out


def _check_magic(f, magic: bytes, path):
    got = _read_exact(f, 4, "magic")
    if got != magic:
        raise FileFormatError(f"{path}: expected magic {magic!r}, found {got!r}")
    (version,) = _read_struct(f, "<H", "version")
    if version != FORMAT_VERSION:
        raise FileFormatError(f"{path}: unsupported version {version}")


# --- features ("SHDF") -------------------------------------------------------

def write_features(path, X: np.ndarray):
    X = np.ascontiguousarray(X, dtype="<f4")
    if X.ndim != 2:
        raise ShapeMismatch(f"features must be 2-D, got shape {X.shape}")
    n, d = X.shape
    with atomic_write(path) as f:
        f.write(b"SHDF")
        f.write(struct.pack("<HQI", FORMAT_VERSION, n, d))
        f.write(X.tobytes())


def read_features(path) -> np.ndarray:
    with _open_binary(path) as f:
        _check_magic(f, b"SHDF", path)
        n, d = _read_struct(f, "<QI", "feature header")
        X = _read_payload(f, path, (n, d), "<f4", "feature rows")
        _check_end(f, path)
    return X


# --- layout block ------------------------------------------------------------

def _write_layout_block(f, layout: SegmentLayout):
    f.write(struct.pack("<HBB", layout.L, layout.K, _SCHEME_BYTE[layout.scheme]))
    for w in layout.widths:
        f.write(struct.pack("<H", w))


def _read_layout_block(f, path) -> SegmentLayout:
    L, K, scheme_byte = _read_struct(f, "<HBB", "layout header")
    if scheme_byte not in _BYTE_SCHEME:
        raise FileFormatError(f"{path}: unknown scheme byte {scheme_byte}")
    try:
        layout = segment_layout(L, K, _BYTE_SCHEME[scheme_byte])
    except (HeightTooSmall, CodeTooShort) as exc:
        raise FileFormatError(f"{path}: layout header L={L}, K={K}: {exc}") from None
    widths = tuple(_read_struct(f, "<H", "segment width")[0] for _ in layout.widths)
    if widths != layout.widths:
        raise FileFormatError(f"{path}: segment widths {widths} do not match {layout.widths}")
    return layout


# --- code database ("SHDC") --------------------------------------------------

def write_codes(path, db: CodeDatabase):
    with atomic_write(path) as f:
        f.write(b"SHDC")
        f.write(struct.pack("<H", FORMAT_VERSION))
        _write_layout_block(f, db.layout)
        f.write(struct.pack("<Q", len(db)))
        f.write(np.ascontiguousarray(db.packed, dtype=np.uint8).tobytes())


def read_codes(path) -> CodeDatabase:
    with _open_binary(path) as f:
        _check_magic(f, b"SHDC", path)
        layout = _read_layout_block(f, path)
        (n,) = _read_struct(f, "<Q", "code count")
        packed = _read_payload(f, path, (n, layout.total_bytes), "u1", "packed codes")
        _check_end(f, path)
    # padding is every bit outside the segment masks; only bytes that hold some are read
    pad = ~np.bitwise_or.reduce(segment_masks(layout))
    cols = np.flatnonzero(pad)
    bad = (packed[:, cols] & pad[cols]).any(axis=1)
    if bad.any():
        raise FileFormatError(f"{path}: code row {int(bad.argmax())} has nonzero padding bits")
    return CodeDatabase(layout=layout, packed=packed)


# --- model ("SHDM") ----------------------------------------------------------

def write_model(path, model: HashModel):
    with atomic_write(path) as f:
        f.write(b"SHDM")
        f.write(struct.pack("<HI", FORMAT_VERSION, model.n_layers))
        for W, v in zip(model.W, model.v):
            rows, cols = W.shape
            f.write(struct.pack("<II", rows, cols))
            f.write(np.ascontiguousarray(W, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(v, dtype="<f8").tobytes())
        _write_layout_block(f, model.layout)


def read_model(path) -> HashModel:
    with _open_binary(path) as f:
        _check_magic(f, b"SHDM", path)
        (n_layers,) = _read_struct(f, "<I", "layer count")
        W, v = [], []
        for _ in range(n_layers):
            rows, cols = _read_struct(f, "<II", "layer shape")
            W.append(_read_payload(f, path, (rows, cols), "<f8", "layer weights"))
            v.append(_read_payload(f, path, (rows,), "<f8", "layer bias"))
        layout = _read_layout_block(f, path)
        _check_end(f, path)
    if not W:
        raise FileFormatError(f"{path}: model has no layers")
    try:
        arch = Architecture(d=W[0].shape[1], hidden=tuple(w.shape[0] for w in W[:-1]),
                            L=W[-1].shape[0])
    except ShapeMismatch as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    if [w.shape for w in W] != arch.layer_dims:
        raise FileFormatError(f"{path}: layer shapes {[w.shape for w in W]} do not chain")
    if arch.L != layout.L:
        raise FileFormatError(f"{path}: hashing layer width {arch.L} != layout {layout.L}")
    return HashModel(arch=arch, layout=layout, W=W, v=v)


# --- text files ----------------------------------------------------------------

def read_text(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except FileNotFoundError:
        raise FileNotFound(f"no such file: {path}") from None


def read_taxonomy(path) -> Taxonomy:
    return parse_taxonomy(read_text(path))


def write_taxonomy(path, edges):
    """edges: iterable of (parent, child)."""
    with atomic_write(path, "w") as f:
        for parent, child in edges:
            f.write(f"{parent}\t{child}\n")


def read_labels(path) -> tuple[list[str], list[str]]:
    """Labels file: one "item-id<TAB>leaf-label" per line. Returns (ids, labels)."""
    ids, labels = [], []
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise FileFormatError(f"{path} line {lineno}: expected 'id<TAB>label'")
        ids.append(parts[0])
        labels.append(parts[1])
    return ids, labels


def write_labels(path, ids, labels):
    with atomic_write(path, "w") as f:
        for item_id, label in zip(ids, labels):
            f.write(f"{item_id}\t{label}\n")


# --- CSV artifacts --------------------------------------------------------------

def write_trainlog(path, log: list[TrainRecord]):
    write_csv(path, ["iteration", "eta", "loss", "fit", "trace"],
              ([rec.iteration, repr(rec.eta), repr(rec.loss), repr(rec.fit), repr(rec.trace)]
               for rec in log))


def write_csv(path, header, rows):
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    with atomic_write(path, "w") as f:
        f.write(buf.getvalue())

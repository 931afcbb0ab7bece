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
never leave truncated artifacts, and writes each array from its own buffer,
with no bytes copy. Readers reject bytes after the payload and bytes that
build no valid object: a layout header that describes no layout
(`SegmentLayout` checks it), model layers that do not chain (`HashModel`)
and, in SHDC, nonzero padding bits (`CodeDatabase`). The readers only map
those errors to BAD_FILE_FORMAT with the path.

Text inputs (labels, taxonomy, key=value config) share one rule, owned by
`read_text` and `text_records`: UTF-8 with an optional byte-order mark,
each line stripped, blank and '#' lines skipped, fields split on one
separator. A labels file made only of plain "id<TAB>label" lines is read
by one whole-text split instead, with the same result.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
import sys
from contextlib import contextmanager, nullcontext

import numpy as np

from .codes import (
    CodeDatabase,
    HashModel,
    SCHEME_EFFECTIVE,
    SCHEME_PAPER_LITERAL,
    SegmentLayout,
)
from .errors import (CodeTooShort, DuplicateEdge, EmptyInput, FileFormatError, FileNotFound,
                     HeightTooSmall, ShapeMismatch, ShdhError)
from .hierarchy import Taxonomy
from .train import TrainRecord

FORMAT_VERSION = 1

# write_rows formats and writes this many rows at a time
CSV_BLOCK = 4096

_SCHEME_BYTE = {SCHEME_EFFECTIVE: 0, SCHEME_PAPER_LITERAL: 1}
_BYTE_SCHEME = {v: k for k, v in _SCHEME_BYTE.items()}


@contextmanager
def atomic_write(path, mode="wb"):
    """Write to a sibling temp file (mode 0o666 less the umask), then rename over the target."""
    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp{os.urandom(8).hex()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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


def open_binary(path):
    """open(path, "rb"); a missing file is FileNotFound (FILE_NOT_FOUND)."""
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
        f.write(X)


def read_features(path) -> np.ndarray:
    with open_binary(path) as f:
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
        layout = SegmentLayout(L, K, _BYTE_SCHEME[scheme_byte])
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
        f.write(np.ascontiguousarray(db.packed, dtype=np.uint8))


def read_codes(path) -> CodeDatabase:
    with open_binary(path) as f:
        _check_magic(f, b"SHDC", path)
        layout = _read_layout_block(f, path)
        (n,) = _read_struct(f, "<Q", "code count")
        packed = _read_payload(f, path, (n, layout.total_bytes), "u1", "packed codes")
        _check_end(f, path)
    try:
        return CodeDatabase(layout=layout, packed=packed)
    except ShapeMismatch as exc:
        raise FileFormatError(f"{path}: {exc}") from None


# --- model ("SHDM") ----------------------------------------------------------

def write_model(path, model: HashModel):
    with atomic_write(path) as f:
        f.write(b"SHDM")
        f.write(struct.pack("<HI", FORMAT_VERSION, model.n_layers))
        for W, v in zip(model.W, model.v):
            rows, cols = W.shape
            f.write(struct.pack("<II", rows, cols))
            f.write(np.ascontiguousarray(W, dtype="<f8"))
            f.write(np.ascontiguousarray(v, dtype="<f8"))
        _write_layout_block(f, model.layout)


def read_model(path) -> HashModel:
    with open_binary(path) as f:
        _check_magic(f, b"SHDM", path)
        (n_layers,) = _read_struct(f, "<I", "layer count")
        W, v = [], []
        for _ in range(n_layers):
            rows, cols = _read_struct(f, "<II", "layer shape")
            W.append(_read_payload(f, path, (rows, cols), "<f8", "layer weights"))
            v.append(_read_payload(f, path, (rows,), "<f8", "layer bias"))
        layout = _read_layout_block(f, path)
        _check_end(f, path)
    try:
        return HashModel(layout=layout, W=W, v=v)
    except ShapeMismatch as exc:
        raise FileFormatError(f"{path}: {exc}") from None


# --- text files ----------------------------------------------------------------

def read_text(path) -> str:
    with open_binary(path) as f:
        try:
            return f.read().decode("utf-8-sig")  # a leading byte-order mark is dropped
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{path}: not UTF-8: byte {exc.object[exc.start]:#04x} "
                                  f"at offset {exc.start}") from None


def text_records(text: str, sep: str, maxsplit: int = -1):
    """(line number, fields) for each line of `text` that is not blank or a
    '#' comment once stripped; the fields are the stripped line split on sep."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line.split(sep, maxsplit)


def parse_taxonomy(text: str) -> Taxonomy:
    """Parse a tab-separated edge list ("parent<TAB>child" per line).

    The root is the unique node that never appears as a child.
    """
    parent: dict[str, str | None] = {}
    for lineno, fields in text_records(text, "\t"):
        if len(fields) != 2:
            raise FileFormatError(f"line {lineno}: expected 'parent<TAB>child', got {fields!r}")
        par, child = fields
        if parent.get(child) is not None:
            raise DuplicateEdge(f"line {lineno}: node {child!r} already has a parent")
        parent[child] = par
        parent.setdefault(par, None)
    if not parent:
        raise EmptyInput("taxonomy file contains no edges")
    return Taxonomy(parent)


def read_taxonomy(path) -> Taxonomy:
    """parse_taxonomy on a file; its errors keep their class and gain the path."""
    text = read_text(path)
    try:
        return parse_taxonomy(text)
    except ShdhError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def write_taxonomy(path, edges):
    """edges: iterable of (parent, child)."""
    with atomic_write(path, "w") as f:
        for parent, child in edges:
            f.write(f"{parent}\t{child}\n")


# Besides the tab and the newline, the ASCII characters that the line loop strips
# or splits lines on, or that str.split() splits on, and the comment mark.
_NOT_PLAIN = (" ", "#", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f")


def _plain_pairs(text: str) -> bool:
    """True when `text` is empty or only "id<TAB>label\n" lines with no empty
    field, so that text.split() gives the line loop's fields in order. The
    tests are exact: ASCII (whose only other whitespace is in _NOT_PLAIN),
    none of _NOT_PLAIN, a final newline, and tabs and newlines in turn,
    starting with a tab, none at the start or right after another."""
    if not text:
        return True
    if not (text.isascii() and text.endswith("\n")) or any(c in text for c in _NOT_PLAIN):
        return False
    buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    seps = np.flatnonzero((buf == 9) | (buf == 10))
    return bool(seps[0] > 0 and (buf[seps[0::2]] == 9).all()
                and (buf[seps[1::2]] == 10).all() and (np.diff(seps) > 1).all())


def read_labels(path) -> tuple[list[str], list[str]]:
    """Labels file: one "item-id<TAB>leaf-label" per line. Returns (ids, labels).
    A text that _plain_pairs accepts is read by one split, any other by the
    text_records loop, which gives the same result and names a bad line."""
    text = read_text(path)
    if _plain_pairs(text):
        fields = text.split()
        return fields[0::2], fields[1::2]
    ids, labels = [], []
    for lineno, fields in text_records(text, "\t"):
        try:  # unpacking checks the field count for less than len() per line
            item_id, label = fields
        except ValueError:
            raise FileFormatError(f"{path} line {lineno}: expected 'id<TAB>label'") from None
        ids.append(item_id)
        labels.append(label)
    return ids, labels


def write_labels(path, ids, labels):
    with atomic_write(path, "w") as f:
        for item_id, label in zip(ids, labels):
            f.write(f"{item_id}\t{label}\n")


# --- CSV and JSON artifacts ------------------------------------------------------

def write_trainlog(path, log: list[TrainRecord]):
    write_csv(path, ["iteration", "eta", "loss", "fit", "trace"],
              ([rec.iteration, rec.eta, rec.loss, rec.fit, rec.trace]
               for rec in log))


def write_rows(path, header, rows, sep=","):
    """Lines of sep-joined fields, unquoted (every field is a number, "" or a
    fixed name, written as str() gives it, so a float is its repr), to path,
    or to stdout when path is None. `rows` may be any iterable, a generator
    included; it is formatted and written CSV_BLOCK rows at a time, the header
    with the first block, so only one block of lines is held at once and rows
    that raise before it write nothing. A row of the wrong width raises TypeError."""
    line = sep.join(["%s"] * len(header)) + "\n"
    rows, head = iter(rows), sep.join(header) + "\n"
    with atomic_write(path, "w") if path else nullcontext(sys.stdout) as f:
        while block := [line % tuple(row) for row in itertools.islice(rows, CSV_BLOCK)]:
            f.write(head + "".join(block))
            head = ""
        f.write(head)


def write_csv(path, header, rows):
    """write_rows to a comma-separated file."""
    write_rows(path, header, rows)


def write_json(path, obj):
    """obj as strict JSON (no NaN or infinity), indented by 2, keys sorted, newline-ended."""
    with atomic_write(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")

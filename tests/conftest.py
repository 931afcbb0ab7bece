import struct
from types import SimpleNamespace

import numpy as np
import pytest

from shdh.io import parse_taxonomy

TOY3_TEXT = "root\tP\nroot\tA\nP\trose\nP\tsun\nA\ttiger\nA\toak\n"

# Height-4 tree shaped like a plant/animal figure: rose and sunflower share
# layers 2 and 3, tiger shares only the root with them.
FIG4_TEXT = (
    "root\tplant\nroot\tanimal\n"
    "plant\tflower\nplant\ttree\nanimal\tmammal\n"
    "flower\trose\nflower\tsunflower\ntree\toak\nmammal\ttiger\n"
)


@pytest.fixture
def toy3():
    return parse_taxonomy(TOY3_TEXT)


@pytest.fixture
def fig4():
    return parse_taxonomy(FIG4_TEXT)


def unit_layout():
    """Stand-in for one 1-bit segment of weight 1 (K=2, layer 2), which
    SegmentLayout rejects (L must exceed the segment count): the fields that
    the objective, its batch scale and HashModel read, for gradient and
    forward hand checks."""
    return SimpleNamespace(L=1, A=np.array([1.0]), max_distance=1.0)


def random_codes(rng, layout, n):
    """Random packed codes consistent with the layout's padding rules."""
    from shdh.codes import pack_bits

    bits = rng.integers(0, 2, size=(n, layout.L), dtype=np.uint8)
    return pack_bits(layout, bits)


def write_dirty_codes(path, db, row, col, bits):
    """db as an SHDC file, with `bits` then ORed into byte `col` of code
    `row`: CodeDatabase rejects nonzero padding bits, so a reader test that
    needs them edits a written file. The packed codes end the file."""
    from shdh.io import write_codes

    write_codes(path, db)
    data = bytearray(path.read_bytes())
    data[len(data) - db.packed.size + row * db.layout.total_bytes + col] |= bits
    path.write_bytes(bytes(data))
    return path


# Headers that claim far more payload than the 1 KiB that follows them.
OVERSIZED_HEADERS = {
    "features": b"SHDF" + struct.pack("<HQI", 1, 2**40, 64),       # 2^40 rows of 64 floats
    "codes": b"SHDC" + struct.pack("<HHBBHHQ", 1, 16, 3, 0, 8, 8, 2**50),  # 2^50 codes
    "model": b"SHDM" + struct.pack("<HIII", 1, 1, 2**31, 2**31),   # one 2^31 x 2^31 layer
}


def write_oversized(path, fmt):
    path.write_bytes(OVERSIZED_HEADERS[fmt] + bytes(1024))
    return path


def write_layout_header(path, fmt, L, K):
    """A valid "codes" or "model" artifact (16 bits, K=3) whose layout header
    is rewritten to claim L bits and height K."""
    from shdh.codes import Architecture, CodeDatabase, init_model, segment_layout
    from shdh.io import write_codes, write_model

    layout = segment_layout(16, 3)  # widths (8, 8): a 4-byte header, then 4 bytes of widths
    if fmt == "codes":
        write_codes(path, CodeDatabase(layout=layout, packed=np.zeros((2, 2), np.uint8)))
        at = 6  # after the magic and the version
    else:
        write_model(path, init_model(Architecture(d=4, hidden=(), L=16), layout, seed=0))
        at = path.stat().st_size - 8  # the layout block ends the file
    data = bytearray(path.read_bytes())
    data[at:at + 4] = struct.pack("<HBB", L, K, 0)
    path.write_bytes(bytes(data))
    return path


def write_model_bytes(path, W, v):
    """An SHDM file of these layers, with the layout block of
    segment_layout(16, 3), written with struct: HashModel rejects the layers
    the reader tests need."""
    data = b"SHDM" + struct.pack("<HI", 1, len(W))
    for w, b in zip(W, v):
        data += struct.pack("<II", *w.shape) + w.astype("<f8").tobytes() + b.astype("<f8").tobytes()
    path.write_bytes(data + struct.pack("<HBBHH", 16, 3, 0, 8, 8))
    return path


def write_unchained_model(path):
    """A model whose second layer takes 12 inputs while the first gives 16."""
    return write_model_bytes(path, [np.zeros((16, 8)), np.zeros((16, 12))], [np.zeros(16)] * 2)


def write_zero_width_model(path):
    """A model whose one hidden layer has no units: W are 0 x 8 and 16 x 0."""
    return write_model_bytes(path, [np.zeros((0, 8)), np.zeros((16, 0))],
                             [np.zeros(0), np.zeros(16)])

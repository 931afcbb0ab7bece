import struct

import numpy as np
import pytest

from shdh.codes import Segment, SegmentLayout
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


def make_layout(widths, layers, K, scheme="effective"):
    """Hand-built layout for cases segment_layout's preconditions exclude,
    e.g. single-bit codes in gradient hand checks."""
    from shdh.hierarchy import key_weights

    w = key_weights(K)
    segments = []
    bit_off = 0
    for width, layer in zip(widths, layers):
        segments.append(Segment(layer=layer, width=width, key_weight=int(w[layer - 1]),
                                bit_offset=bit_off))
        bit_off += width
    return SegmentLayout(L=sum(widths), K=K, scheme=scheme, segments=tuple(segments))


def random_codes(rng, layout, n):
    """Random packed codes consistent with the layout's padding rules."""
    from shdh.codes import pack_bits

    bits = rng.integers(0, 2, size=(n, layout.L), dtype=np.uint8)
    return pack_bits(layout, bits)


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


def write_unchained_model(path):
    """A model whose second layer takes 12 inputs while the first gives 16."""
    from shdh.codes import Architecture, HashModel, segment_layout
    from shdh.io import write_model

    W = [np.zeros((16, 8)), np.zeros((16, 12))]
    write_model(path, HashModel(arch=Architecture(d=8, hidden=(16,), L=16),
                                layout=segment_layout(16, 3), W=W, v=[np.zeros(16)] * 2))
    return path


def write_zero_width_model(path):
    """A model whose one hidden layer has no units: W are 0 x 8 and 16 x 0."""
    from shdh.codes import Architecture, HashModel, segment_layout
    from shdh.io import write_model

    W = [np.zeros((0, 8)), np.zeros((16, 0))]
    write_model(path, HashModel(arch=Architecture(d=8, hidden=(16,), L=16),
                                layout=segment_layout(16, 3), W=W,
                                v=[np.zeros(0), np.zeros(16)]))
    return path

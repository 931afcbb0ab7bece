import numpy as np
import pytest

from shdh.codes import Segment, SegmentLayout
from shdh.hierarchy import parse_taxonomy

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
    from shdh.hierarchy import layer_weights

    u = layer_weights(K)
    segments = []
    bit_off = byte_off = 0
    for width, layer in zip(widths, layers):
        seg = Segment(layer=layer, width=width, weight=float(u[layer - 1]),
                      bit_offset=bit_off, byte_offset=byte_off)
        segments.append(seg)
        bit_off += width
        byte_off += seg.n_bytes
    A = np.concatenate([np.full(s.width, s.weight) for s in segments])
    return SegmentLayout(L=sum(widths), K=K, scheme=scheme,
                         segments=tuple(segments), A=A)


def random_codes(rng, layout, n):
    """Random packed codes consistent with the layout's padding rules."""
    from shdh.codes import pack_bits

    bits = rng.integers(0, 2, size=(n, layout.L), dtype=np.uint8)
    return pack_bits(layout, bits)

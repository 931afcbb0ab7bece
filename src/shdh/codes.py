"""Segmented code layout, the feedforward hash model, and quantization.

The code of length L is split into contiguous segments, one per taxonomy
layer. Under the paper-literal scheme there are K segments (the first one,
tied to the root layer, carries weight zero); the default effective scheme
keeps only the K-1 segments for layers 2..K, since zero-weight bits are
unconstrained by the objective and waste capacity.

Packing: segment-major, each segment padded to whole bytes, LSB-first
within a byte; logical +1 maps to bit 1 and -1 to bit 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CodeTooShort, NonFiniteInput, ShapeMismatch
from .hierarchy import layer_weights

SCHEME_EFFECTIVE = "effective"
SCHEME_PAPER_LITERAL = "paper-literal"
SCHEMES = (SCHEME_EFFECTIVE, SCHEME_PAPER_LITERAL)


@dataclass(frozen=True)
class Segment:
    layer: int      # taxonomy layer this segment encodes
    width: int      # bits
    weight: float   # layer weight u_k
    bit_offset: int
    byte_offset: int

    @property
    def n_bytes(self) -> int:
        return (self.width + 7) // 8


@dataclass(frozen=True)
class SegmentLayout:
    L: int
    K: int
    scheme: str
    segments: tuple[Segment, ...]
    # Weight of each bit position (length L); derived, so excluded from equality.
    A: np.ndarray = field(repr=False, compare=False)

    @property
    def total_bytes(self) -> int:
        return sum(s.n_bytes for s in self.segments)

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(s.width for s in self.segments)

    @property
    def max_distance(self) -> float:
        return float(sum(s.weight * s.width for s in self.segments))

    @property
    def key_scale(self) -> int:
        """K(K-1)/2: exact integer distance keys are D_w * key_scale."""
        return self.K * (self.K - 1) // 2

    def key_weight(self, layer: int) -> int:
        """u_k * key_scale, the integer K+1-k; the root layer weighs 0."""
        return 0 if layer == 1 else self.K + 1 - layer

    @property
    def max_key(self) -> int:
        """Key of two codes that differ in every bit."""
        return sum(self.key_weight(s.layer) * s.width for s in self.segments)


def segment_layout(L: int, K: int, scheme: str = SCHEME_EFFECTIVE) -> SegmentLayout:
    """Split L bits into per-layer segments with their layer weights."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    u = layer_weights(K)  # validates K >= 2
    n_seg = K if scheme == SCHEME_PAPER_LITERAL else K - 1
    if L <= n_seg:
        raise CodeTooShort(f"{L} bits cannot hold {n_seg} non-empty segments (need L > {n_seg})")
    base = L // n_seg
    widths = [base] * (n_seg - 1) + [L - base * (n_seg - 1)]
    first_layer = 1 if scheme == SCHEME_PAPER_LITERAL else 2

    segments = []
    bit_off = byte_off = 0
    for i, width in enumerate(widths):
        layer = first_layer + i
        seg = Segment(
            layer=layer,
            width=width,
            weight=float(u[layer - 1]),
            bit_offset=bit_off,
            byte_offset=byte_off,
        )
        segments.append(seg)
        bit_off += width
        byte_off += seg.n_bytes

    A = np.concatenate([np.full(s.width, s.weight) for s in segments])
    A.setflags(write=False)
    return SegmentLayout(L=L, K=K, scheme=scheme, segments=tuple(segments), A=A)


@dataclass(frozen=True)
class Architecture:
    """Feedforward shape: ReLU hidden layers, identity output of width L."""

    d: int
    hidden: tuple[int, ...] = (512, 512)
    L: int = 32

    def __post_init__(self):
        if self.d < 1 or self.L < 1 or any(h < 1 for h in self.hidden):
            raise ShapeMismatch("all layer widths must be >= 1")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_out, fan_in) of every layer, input to output."""
        dims = [self.d, *self.hidden, self.L]
        return [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]


@dataclass(eq=False)
class HashModel:
    arch: Architecture
    layout: SegmentLayout
    W: list[np.ndarray]  # W[m]: (e_m x e_{m-1})
    v: list[np.ndarray]  # v[m]: (e_m,)

    @property
    def n_layers(self) -> int:
        return len(self.W)


def init_model(arch: Architecture, layout: SegmentLayout, seed) -> HashModel:
    """Fresh model: hashing layer uniform in [0, 0.001), hidden layers
    uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]. Deterministic in seed."""
    if arch.L != layout.L:
        raise ShapeMismatch(f"architecture output {arch.L} != layout width {layout.L}")
    rng = np.random.default_rng(seed)
    dims = arch.layer_dims
    W, v = [], []
    for i, (fan_out, fan_in) in enumerate(dims):
        last = i == len(dims) - 1
        if last:
            W.append(rng.uniform(0.0, 0.001, size=(fan_out, fan_in)))
            v.append(rng.uniform(0.0, 0.001, size=fan_out))
        else:
            bound = 1.0 / np.sqrt(fan_in)
            W.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            v.append(rng.uniform(-bound, bound, size=fan_out))
    return HashModel(arch=arch, layout=layout, W=W, v=v)


def forward(model: HashModel, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Relaxed codes for one vector or a batch.

    Returns (output, activations) where activations[m] is the output of
    layer m+1; the last entry is the identity-activated hashing layer.
    Shapes follow the input: 1-D in, 1-D out.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.ndim != 2 or X.shape[1] != model.arch.d:
        raise ShapeMismatch(f"expected feature dim {model.arch.d}, got shape {x.shape}")
    if not np.isfinite(X).all():
        raise NonFiniteInput("features contain NaN or infinity")

    activations = []
    phi = X
    last = model.n_layers - 1
    for m in range(model.n_layers):
        z = phi @ model.W[m].T + model.v[m]
        phi = z if m == last else np.maximum(z, 0.0)
        activations.append(phi)
    out = activations[-1]
    if single:
        return out[0], [a[0] for a in activations]
    return out, activations


@dataclass(frozen=True, eq=False)
class BinaryCode:
    """One packed code; padding bits within each segment's bytes are zero."""

    layout: SegmentLayout
    packed: np.ndarray  # uint8, length layout.total_bytes

    def unpack(self) -> np.ndarray:
        """Logical +/-1 vector of length L."""
        bits = unpack_bits(self.layout, self.packed[None, :])[0]
        return (bits.astype(np.int8) * 2 - 1)


def pack_bits(layout: SegmentLayout, bits: np.ndarray) -> np.ndarray:
    """Pack an (n x L) 0/1 matrix into (n x total_bytes), segment-major."""
    blocks = []
    for seg in layout.segments:
        block = bits[:, seg.bit_offset : seg.bit_offset + seg.width]
        blocks.append(np.packbits(block, axis=1, bitorder="little"))
    return np.hstack(blocks)


def unpack_bits(layout: SegmentLayout, packed: np.ndarray) -> np.ndarray:
    """Inverse of pack_bits: (n x total_bytes) -> (n x L) 0/1 matrix."""
    cols = []
    for seg in layout.segments:
        block = packed[:, seg.byte_offset : seg.byte_offset + seg.n_bytes]
        cols.append(np.unpackbits(block, axis=1, count=seg.width, bitorder="little"))
    return np.hstack(cols)


def quantize(relaxed: np.ndarray, layout: SegmentLayout) -> BinaryCode:
    """sgn with sgn(0) = -1: bit 1 where the value is strictly positive."""
    relaxed = np.asarray(relaxed, dtype=np.float64)
    if relaxed.shape != (layout.L,):
        raise ShapeMismatch(f"expected {layout.L} values, got shape {relaxed.shape}")
    if not np.isfinite(relaxed).all():
        raise NonFiniteInput("relaxed code contains NaN or infinity")
    bits = (relaxed > 0).astype(np.uint8)
    packed = pack_bits(layout, bits[None, :])[0]
    packed.setflags(write=False)
    return BinaryCode(layout=layout, packed=packed)


@dataclass(eq=False)
class CodeDatabase:
    """Packed binary codes for n items, in insertion order."""

    layout: SegmentLayout
    packed: np.ndarray          # uint8, n x total_bytes; an item's id is its row

    def __post_init__(self):
        if self.packed.ndim != 2 or self.packed.shape[1] != self.layout.total_bytes:
            raise ShapeMismatch(
                f"packed codes must be n x {self.layout.total_bytes}, got {self.packed.shape}"
            )

    def __len__(self) -> int:
        return self.packed.shape[0]

    def code(self, i: int) -> BinaryCode:
        return BinaryCode(layout=self.layout, packed=self.packed[i])


def encode_batch(model: HashModel, features: np.ndarray) -> CodeDatabase:
    """Forward + quantize every row, preserving input order."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ShapeMismatch(f"expected n x d features, got shape {features.shape}")
    if features.shape[0] == 0:
        packed = np.zeros((0, model.layout.total_bytes), dtype=np.uint8)
        return CodeDatabase(layout=model.layout, packed=packed)
    relaxed, _ = forward(model, features)
    bits = (relaxed > 0).astype(np.uint8)
    return CodeDatabase(layout=model.layout, packed=pack_bits(model.layout, bits))

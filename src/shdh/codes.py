"""Segmented code layout, the feedforward hash model, and quantization.

The code of length L is split into contiguous segments, one per taxonomy
layer. Under the paper-literal scheme there are K segments (the first one,
tied to the root layer, carries weight zero); the default effective scheme
keeps only the K-1 segments for layers 2..K, since zero-weight bits are
unconstrained by the objective and waste capacity.

Packing: segment-major, each segment padded to whole bytes, LSB-first
within a byte; logical +1 maps to bit 1 and -1 to bit 0; padding bits are
0, and `CodeDatabase` rejects codes with any other. Only this module knows
that format; a single code is a one-row `CodeDatabase`.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CodeTooLong,
    CodeTooShort,
    HeightTooLarge,
    InvalidNumber,
    ModelFeatureDimMismatch,
    NonFiniteInput,
    ShapeMismatch,
)
from .hierarchy import key_weights, layer_weights

SCHEME_EFFECTIVE = "effective"
SCHEME_PAPER_LITERAL = "paper-literal"
SCHEMES = (SCHEME_EFFECTIVE, SCHEME_PAPER_LITERAL)

# Rows per forward pass in encode_batch. Fixed, so that BLAS sees the same
# shapes, and a row gets the same code, on every run.
ENCODE_BLOCK = 1024


@dataclass(frozen=True)
class Segment:
    layer: int      # taxonomy layer this segment encodes
    width: int      # bits
    key_weight: int  # key_weights(K)[layer - 1], the integer weight of the distance keys
    bit_offset: int

    @property
    def n_bytes(self) -> int:
        return (self.width + 7) // 8


@dataclass(frozen=True)
class SegmentLayout:
    """One segment per taxonomy layer, with its integer key weight. (L, K,
    scheme), all that an SHDC/SHDM layout block records, fixes the rest."""

    L: int
    K: int
    scheme: str = SCHEME_EFFECTIVE

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        for name in ("L", "K"):  # numpy integers pass, and are stored as int
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise InvalidNumber(f"{name} must be an integer, "
                                    f"got {getattr(self, name)!r}") from None
        key_weights(self.K)  # validates K >= 2
        L, K, n_seg = self.L, self.K, len(self._layers)
        if L <= n_seg:
            raise CodeTooShort(f"{L} bits cannot hold {n_seg} non-empty segments (need L > {n_seg})")
        if L > 0xFFFF:  # the L field of the SHDC/SHDM layout block is a u16
            raise CodeTooLong(f"{L} bits exceed 65535, the most an SHDC/SHDM header can record")
        if K > 0xFF:  # and its K field a u8
            raise HeightTooLarge(f"height {K} exceeds 255, the most an SHDC/SHDM header can record")

    @property
    def _layers(self) -> range:
        return range(1 if self.scheme == SCHEME_PAPER_LITERAL else 2, self.K + 1)

    @cached_property
    def segments(self) -> tuple[Segment, ...]:
        """L // n_seg bits per segment and the remainder in the last one."""
        w, n_seg = key_weights(self.K), len(self._layers)
        base = self.L // n_seg
        widths = [base] * (n_seg - 1) + [self.L - base * (n_seg - 1)]
        offsets = itertools.accumulate(widths, initial=0)
        return tuple(Segment(layer=layer, width=width, key_weight=int(w[layer - 1]), bit_offset=off)
                     for layer, width, off in zip(self._layers, widths, offsets))

    @property
    def total_bytes(self) -> int:
        return sum(s.n_bytes for s in self.segments)

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(s.width for s in self.segments)

    @property
    def segment_weights(self) -> np.ndarray:
        """Weight u_k of each segment's layer, from layer_weights."""
        return layer_weights(self.K)[[s.layer - 1 for s in self.segments]]

    @property
    def A(self) -> np.ndarray:
        """Weight u_k of each bit position (length L): segment_weights over the widths."""
        return np.repeat(self.segment_weights, self.widths)

    @cached_property
    def _padding(self) -> np.ndarray | None:
        """The padding bits of a packed row, every bit outside segment_masks;
        None when each segment fills whole bytes."""
        pad = ~np.bitwise_or.reduce(segment_masks(self))
        return pad if pad.any() else None

    @property
    def max_distance(self) -> float:
        """D_w of two codes that differ in every bit."""
        return float(self.distances(self.max_key))

    @property
    def key_scale(self) -> int:
        """K(K-1)/2: exact integer distance keys are D_w * key_scale."""
        return self.K * (self.K - 1) // 2

    @property
    def max_key(self) -> int:
        """Key of two codes that differ in every bit."""
        return sum(s.key_weight * s.width for s in self.segments)

    def distances(self, keys) -> np.ndarray:
        """D_w of integer distance keys: key / key_scale, the one conversion,
        so equal keys give equal floats."""
        return np.asarray(keys, dtype=np.int64) / self.key_scale


# the name most callers use; the class is the one constructor
segment_layout = SegmentLayout


@dataclass(frozen=True)
class Architecture:
    """Feedforward shape: ReLU hidden layers, identity output of width L."""

    d: int
    hidden: tuple[int, ...]
    L: int

    def __post_init__(self):
        if self.d < 1 or self.L < 1 or any(h < 1 for h in self.hidden):
            raise ShapeMismatch("all layer widths must be >= 1")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_out, fan_in) of every layer, input to output."""
        dims = [self.d, *self.hidden, self.L]
        return [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]


@dataclass(frozen=True, eq=False)
class HashModel:
    """Layers whose shapes chain and state the Architecture; the last has layout.L rows."""

    layout: SegmentLayout
    W: list[np.ndarray]  # W[m]: (e_m x e_{m-1})
    v: list[np.ndarray]  # v[m]: (e_m,)

    def __post_init__(self):
        W, v = self.W, self.v
        if not W or len(v) != len(W) or any(w.ndim != 2 for w in W):
            raise ShapeMismatch(f"a model needs at least one layer and one v per 2-D W; "
                                f"got {len(W)} W and {len(v)} v")
        arch = self.arch  # checks that every width is >= 1
        if [(w.shape, b.shape) for w, b in zip(W, v)] != [(d, d[:1]) for d in arch.layer_dims]:
            raise ShapeMismatch(f"layer shapes {[w.shape for w in W]} with bias shapes "
                                f"{[b.shape for b in v]} do not chain")
        if arch.L != self.layout.L:
            raise ShapeMismatch(f"hashing layer width {arch.L} != layout width {self.layout.L}")

    @cached_property
    def arch(self) -> Architecture:
        """The shape that W states: input width, hidden widths, code length."""
        return Architecture(d=self.W[0].shape[1], hidden=tuple(w.shape[0] for w in self.W[:-1]),
                            L=self.W[-1].shape[0])

    @property
    def n_layers(self) -> int:
        return len(self.W)

    def astype(self, dtype) -> HashModel:
        """This model with every W and v copied to dtype."""
        return HashModel(layout=self.layout, W=[w.astype(dtype) for w in self.W],
                         v=[b.astype(dtype) for b in self.v])


def init_model(arch: Architecture, layout: SegmentLayout, seed) -> HashModel:
    """Fresh model: hashing layer uniform in [0, 0.001), hidden layers
    uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]. Deterministic in seed."""
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
    return HashModel(layout=layout, W=W, v=v)


def forward(model: HashModel, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Relaxed codes (n x L) for a batch of feature rows (n x d).

    Returns (output, activations) where activations[m] is the output of
    layer m+1; the last entry is the identity-activated hashing layer.
    The network computes in the dtype of the model's arrays: float64 for
    a model read from SHDM, float32 inside `train`.
    """
    return _forward(model, x)


def _forward(model: HashModel, x: np.ndarray,
             out: list[np.ndarray] | None = None) -> tuple[np.ndarray, list[np.ndarray]]:
    """`forward`, writing layer m+1's activations into the first n rows of
    out[m] when out is given (the model's dtype, one array per layer, at
    least n rows each); otherwise each layer gets one new array. x is
    converted to the model's dtype, which copies it unless it has that
    dtype already."""
    x = np.asarray(x, dtype=model.W[0].dtype)
    if x.ndim != 2 or x.shape[1] != model.arch.d:
        raise ShapeMismatch(f"expected n x {model.arch.d} features, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise NonFiniteInput("features contain NaN or infinity")

    n = x.shape[0]
    activations = []
    phi = x
    last = model.n_layers - 1
    for m in range(model.n_layers):
        phi = np.matmul(phi, model.W[m].T, out=None if out is None else out[m][:n])
        phi += model.v[m]
        if m != last:
            np.maximum(phi, 0.0, out=phi)
        activations.append(phi)
    return phi, activations


def pack_bits(layout: SegmentLayout, bits: np.ndarray) -> np.ndarray:
    """Pack an (n x L) 0/1 matrix into (n x total_bytes), segment-major."""
    blocks = []
    for seg in layout.segments:
        block = bits[:, seg.bit_offset : seg.bit_offset + seg.width]
        blocks.append(np.packbits(block, axis=1, bitorder="little"))
    return np.hstack(blocks)


@dataclass(frozen=True, eq=False)
class CodeDatabase:
    """Packed binary codes for n items, in insertion order, every padding bit 0."""

    layout: SegmentLayout
    packed: np.ndarray          # uint8, n x total_bytes; an item's id is its row

    def __post_init__(self):
        if (self.packed.dtype != np.uint8 or self.packed.ndim != 2
                or self.packed.shape[1] != self.layout.total_bytes):
            raise ShapeMismatch(f"packed codes must be uint8, n x {self.layout.total_bytes}; "
                                f"got {self.packed.dtype}, {self.packed.shape}")
        pad = self.layout._padding
        if pad is not None and (self.packed & pad).any():
            row = (self.packed & pad).any(axis=1).argmax()
            raise ShapeMismatch(f"code row {row} has nonzero padding bits")

    def __len__(self) -> int:
        return self.packed.shape[0]

    def code(self, i: int) -> CodeDatabase:
        """Row i as a one-row database (a view); its padding is checked again."""
        i = range(len(self))[i]  # negative rows count from the end, as in a list
        return CodeDatabase(layout=self.layout, packed=self.packed[i:i + 1])


def segment_masks(layout: SegmentLayout) -> np.ndarray:
    """Where each segment's bits sit in a packed row: row s is pack_bits of
    segment s's bit indicator, so padding bits are 0 in every row."""
    segment_of_bit = np.repeat(np.arange(len(layout.segments)), layout.widths)
    return pack_bits(layout, segment_of_bit == np.arange(len(layout.segments))[:, None])


def quantize(relaxed: np.ndarray, layout: SegmentLayout) -> CodeDatabase:
    """Pack an n x L batch with sgn(0) = -1: bit 1 where the value is
    strictly positive."""
    relaxed = np.asarray(relaxed)
    if relaxed.ndim != 2 or relaxed.shape[1] != layout.L:
        raise ShapeMismatch(f"expected n x {layout.L} values, got shape {relaxed.shape}")
    if not np.isfinite(relaxed).all():
        raise NonFiniteInput("relaxed code contains NaN or infinity")
    return CodeDatabase(layout=layout, packed=pack_bits(layout, relaxed > 0))


def encode_batch(model: HashModel, features: np.ndarray) -> CodeDatabase:
    """Forward + quantize every row, preserving input order.

    Rows go through the network in blocks of ENCODE_BLOCK, each copied
    into one input buffer of the model's dtype and packed straight into the
    output. Every block's input and activations go into the same buffers,
    allocated once, so memory grows with the features and the packed
    codes, not with n times the hidden widths.
    """
    features = np.asarray(features)
    if features.ndim != 2 or features.shape[1] != model.arch.d:
        # checked here as well as in forward, which never runs on zero rows
        raise ModelFeatureDimMismatch(
            f"expected n x {model.arch.d} features, got shape {features.shape}")
    n = features.shape[0]
    packed = np.empty((n, model.layout.total_bytes), dtype=np.uint8)
    block_rows, dtype = min(n, ENCODE_BLOCK), model.W[0].dtype
    x = np.empty((block_rows, model.arch.d), dtype=dtype)
    out = [np.empty((block_rows, w.shape[0]), dtype=dtype) for w in model.W]
    for start in range(0, n, ENCODE_BLOCK):
        rows = slice(start, start + ENCODE_BLOCK)
        block = x[:min(ENCODE_BLOCK, n - start)]
        np.copyto(block, features[rows])
        relaxed, _ = _forward(model, block, out)
        packed[rows] = quantize(relaxed, model.layout).packed
    return CodeDatabase(layout=model.layout, packed=packed)

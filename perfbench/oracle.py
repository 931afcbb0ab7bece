"""Reference computations for the benchmark's checks.

Nothing here imports shdh or shares its code paths:

* the file readers parse SHDF, SHDC, SHDM and the text inputs with `struct`;
* distances are exact integer keys, key = sum_k (K+1-k) * popcount(XOR of
  segment k), with weight 0 for a layer-1 segment, so D_w = key * 2/(K(K-1));
* relevance walks the taxonomy's parent chains;
* the metrics are recomputed from their formulas along three orders of the
  ranking: the tie rule (exact key, then insertion order), and every tied
  level sorted by relevance descending or ascending. Any order of the ties
  gives metric values between the last two, so a tie-unaware program must
  land inside those bounds, and a program that keeps the tie rule must
  match the first order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

SCHEMES = {0: "effective", 1: "paper-literal"}
METRICS = ("acg", "dcg", "ndcg", "weighted_recall")

# --- file readers ---------------------------------------------------------------


class _Reader:
    def __init__(self, path):
        with open(path, "rb") as f:
            self.data = f.read()
        self.pos = 0

    def take(self, fmt):
        values = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += struct.calcsize(fmt)
        return values

    def raw(self, size):
        if self.pos + size > len(self.data):
            raise ValueError("truncated file")
        chunk = self.data[self.pos:self.pos + size]
        self.pos += size
        return chunk

    def header(self, magic: bytes):
        if self.raw(4) != magic or self.take("<H") != (1,):
            raise ValueError(f"not a version-1 {magic.decode()} file")

    def end(self):
        if self.pos != len(self.data):
            raise ValueError(f"{len(self.data) - self.pos} trailing bytes")


@dataclass(frozen=True)
class Layout:
    """Segment layout with exact integer layer weights."""

    K: int
    scheme: str
    widths: tuple

    @property
    def L(self):
        return sum(self.widths)

    @property
    def layers(self):
        first = 1 if self.scheme == "paper-literal" else 2
        return tuple(range(first, first + len(self.widths)))

    @property
    def int_weights(self):
        return tuple(0 if k == 1 else self.K + 1 - k for k in self.layers)

    @property
    def scale(self):
        """D_w per unit of integer key: 2 / (K(K-1))."""
        return 2.0 / (self.K * (self.K - 1))

    @property
    def max_key(self):
        return sum(w * width for w, width in zip(self.int_weights, self.widths))

    @property
    def byte_ranges(self):
        out, start = [], 0
        for width in self.widths:
            n = (width + 7) // 8
            out.append((start, start + n))
            start += n
        return out

    @property
    def total_bytes(self):
        return self.byte_ranges[-1][1]


def _read_layout(r: _Reader) -> Layout:
    L, K, scheme = r.take("<HBB")
    n_seg = K if SCHEMES[scheme] == "paper-literal" else K - 1
    widths = r.take("<" + "H" * n_seg)
    layout = Layout(K=K, scheme=SCHEMES[scheme], widths=tuple(widths))
    if layout.L != L:
        raise ValueError(f"segment widths {widths} do not add up to L={L}")
    return layout


def read_codes(path):
    """SHDC file -> (Layout, packed uint8 n x bytes)."""
    r = _Reader(path)
    r.header(b"SHDC")
    layout = _read_layout(r)
    (n,) = r.take("<Q")
    packed = np.frombuffer(r.raw(n * layout.total_bytes), dtype=np.uint8)
    r.end()
    return layout, packed.reshape(n, layout.total_bytes)


def read_model(path):
    """SHDM file -> (list of W, list of v, Layout)."""
    r = _Reader(path)
    r.header(b"SHDM")
    (n_layers,) = r.take("<I")
    Ws, vs = [], []
    for _ in range(n_layers):
        rows, cols = r.take("<II")
        Ws.append(np.frombuffer(r.raw(rows * cols * 8), dtype="<f8").reshape(rows, cols))
        vs.append(np.frombuffer(r.raw(rows * 8), dtype="<f8"))
    layout = _read_layout(r)
    r.end()
    return Ws, vs, layout


def read_features(path):
    r = _Reader(path)
    r.header(b"SHDF")
    n, d = r.take("<QI")
    X = np.frombuffer(r.raw(n * d * 4), dtype="<f4").reshape(n, d)
    r.end()
    return X


def read_labels(path):
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n").split("\t")[1] for line in f if line.strip()]


def read_parents(path):
    """Edge list -> {node: parent}, with the root mapped to None."""
    parent = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip() and not line.startswith("#"):
                p, c = line.rstrip("\n").split("\t")
                parent[c] = p
                parent.setdefault(p, None)
    return parent


# --- codes and distances --------------------------------------------------------


def forward(Ws, vs, X):
    """Relaxed codes: ReLU hidden layers, identity output, in float64."""
    h = np.asarray(X, dtype=np.float64)
    for m, (W, v) in enumerate(zip(Ws, vs)):
        h = h @ W.T + v
        if m < len(Ws) - 1:
            h = np.maximum(h, 0.0)
    return h


def unpack(layout: Layout, packed):
    """n x L matrix of 0/1 bits, LSB-first within each segment's bytes."""
    cols = []
    for width, (lo, _) in zip(layout.widths, layout.byte_ranges):
        for j in range(width):
            cols.append((packed[:, lo + j // 8] >> (j % 8)) & 1)
    return np.stack(cols, axis=1).astype(np.uint8)


def pack(layout: Layout, bits):
    """Inverse of `unpack`, with zero padding bits."""
    out, start = [], 0
    for width in layout.widths:
        out.append(np.packbits(bits[:, start:start + width], axis=1, bitorder="little"))
        start += width
    return np.hstack(out)


def padding_clear(layout: Layout, packed) -> bool:
    """True when every bit past a segment's width is zero."""
    for width, (_, hi) in zip(layout.widths, layout.byte_ranges):
        if width % 8 and np.any(packed[:, hi - 1] >> (width % 8)):
            return False
    return True


def segment_words(layout: Layout, packed):
    """Each segment of every row as one integer, padding bits masked off:
    a list with one array per segment, of the narrowest unsigned type that
    holds the segment."""
    words = []
    for width, (lo, hi) in zip(layout.widths, layout.byte_ranges):
        dtype = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                     if np.iinfo(t).bits >= width)
        word = np.zeros(len(packed), dtype=dtype)
        for j in range(hi - lo):
            word |= packed[:, lo + j].astype(dtype) << dtype(8 * j)
        words.append(word & dtype((1 << width) - 1))
    return words


def keys(layout: Layout, q_words, db_words):
    """Q x N exact integer keys between query rows and database rows, both
    given as `segment_words`."""
    out = np.zeros((len(q_words[0]), len(db_words[0])), dtype=np.int32)
    for w, q, db in zip(layout.int_weights, q_words, db_words):
        if w:
            out += np.multiply(np.bitwise_count(q[:, None] ^ db[None, :]), w, dtype=np.int32)
    return out


def tie_rule_order(key_row):
    """Ranking by (exact key, insertion order)."""
    return np.argsort(key_row, kind="stable")


def tie_rule_top(key_row, n):
    """The first n items of `tie_rule_order`, in O(N)."""
    n = min(n, len(key_row))
    kth = np.partition(key_row, n - 1)[n - 1]
    cand = np.flatnonzero(key_row <= kth)
    return cand[np.argsort(key_row[cand], kind="stable")][:n]


# --- relevance ------------------------------------------------------------------


def chain(parent, node):
    path = [node]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


def relevance_table(parent, leaves, mode):
    """len(leaves)^2 table of relevances from the deepest shared ancestor.

    shared-layers: depth of that ancestor minus 1 (the root is shared by all);
    hier-similarity: 2 * sum_{k=2..d} u_k - 1 with u_k = 2(K+1-k)/(K(K-1)).
    """
    chains = [chain(parent, leaf) for leaf in leaves]
    K = len(chains[0])
    table = np.empty((len(leaves), len(leaves)))
    for i, a in enumerate(chains):
        for j, b in enumerate(chains):
            d = 0
            while d < K and a[d] == b[d]:
                d += 1
            if mode == "shared-layers":
                table[i, j] = d - 1
            else:
                table[i, j] = 2.0 * sum(2.0 * (K + 1 - k) / (K * (K - 1))
                                        for k in range(2, d + 1)) - 1.0
    return table


# --- metrics ----------------------------------------------------------------------


def metric_values(rels_ranked, ns, ideal_dcg_at):
    """{metric: [value at each n]} for relevances in ranking order.
    Weighted Recall is NaN when the total relevance is zero."""
    rels = np.asarray(rels_ranked, dtype=np.float64)
    gains = (np.exp2(rels) - 1.0) / np.log2(np.arange(2, len(rels) + 2))
    total = rels.sum()
    out = {m: [] for m in METRICS}
    for n in ns:
        top = rels[:n].sum()
        dcg = gains[:n].sum()
        ideal = ideal_dcg_at[n]
        out["acg"].append(top / n)
        out["dcg"].append(dcg)
        out["ndcg"].append(1.0 if ideal == 0.0 else dcg / ideal)
        out["weighted_recall"].append(np.nan if total == 0.0 else top / total)
    return out


def query_metrics(key_row, rels, ns):
    """Metric values for one query along the tie-rule order, and the lowest and
    highest value each metric can take over all orders of the tied levels.

    Returns (exact, lo, hi), each {metric: [value at each n]}.
    """
    rels = np.asarray(rels, dtype=np.float64)
    ideal_sorted = np.sort(rels)[::-1]
    ideal_gains = (np.exp2(ideal_sorted) - 1.0) / np.log2(np.arange(2, len(rels) + 2))
    ideal = {n: ideal_gains[:n].sum() for n in ns}
    exact = metric_values(rels[tie_rule_order(key_row)], ns, ideal)
    down = metric_values(rels[np.lexsort((-rels, key_row))], ns, ideal)
    up = metric_values(rels[np.lexsort((rels, key_row))], ns, ideal)
    lo = {m: np.fmin(down[m], up[m]).tolist() for m in METRICS}
    hi = {m: np.fmax(down[m], up[m]).tolist() for m in METRICS}
    return exact, lo, hi


def recall_curve_bounds(key_row, rels):
    """Per cutoff n = 1..N, the lowest and highest WR@n over tie orders,
    or None when the total relevance is zero."""
    total = rels.sum()
    if total == 0.0:
        return None
    a = np.cumsum(rels[np.lexsort((-rels, key_row))]) / total
    b = np.cumsum(rels[np.lexsort((rels, key_row))]) / total
    return np.fmin(a, b), np.fmax(a, b)


def recall_within_bounds(key_row, rels, key_levels, max_key):
    """Lowest and highest WR over the items within each radius level, when
    the items of the level itself may be cut anywhere: every item below the
    level counts, and any subset of the level's own items may join them."""
    total = rels.sum()
    pos = np.bincount(key_row, weights=np.maximum(rels, 0.0), minlength=max_key + 1)
    neg = np.bincount(key_row, weights=np.minimum(rels, 0.0), minlength=max_key + 1)
    below = np.concatenate([[0.0], np.cumsum(pos + neg)])[key_levels]
    a = (below + neg[key_levels]) / total
    b = (below + pos[key_levels]) / total
    return np.fmin(a, b), np.fmax(a, b)

"""Segmented hierarchy-weighted deep hashing: similarity-preserving binary
codes for hierarchically labeled data, a weighted-Hamming index with
exact integer-key search, and hierarchy-aware ranking metrics."""

__version__ = "0.1.0"

from .codes import (
    Architecture,
    CodeDatabase,
    HashModel,
    SCHEME_EFFECTIVE,
    SCHEME_PAPER_LITERAL,
    SegmentLayout,
    encode_batch,
    forward,
    init_model,
    quantize,
    segment_layout,
)
from .errors import ShdhError
from .hierarchy import Taxonomy, layer_weights, parse_taxonomy
from .index import (
    SearchResult,
    brute_force_topn,
    distance_keys,
    search_radius,
    search_topn,
    weighted_distance,
)
from .metrics import MetricReport, eval_queries
from .train import (
    TrainConfig,
    backprop_step,
    train,
)

__all__ = [
    "Architecture",
    "CodeDatabase",
    "HashModel",
    "MetricReport",
    "SCHEME_EFFECTIVE",
    "SCHEME_PAPER_LITERAL",
    "SearchResult",
    "SegmentLayout",
    "ShdhError",
    "Taxonomy",
    "TrainConfig",
    "backprop_step",
    "brute_force_topn",
    "distance_keys",
    "encode_batch",
    "eval_queries",
    "forward",
    "init_model",
    "layer_weights",
    "parse_taxonomy",
    "quantize",
    "search_radius",
    "search_topn",
    "segment_layout",
    "train",
    "weighted_distance",
]

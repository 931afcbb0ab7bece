"""Spans and counts for the traced run, and the per-layer metrics they give.

The traced run drives the same `shdh.cli.main` calls as the timed run, with
the layers' public functions wrapped from here: each wrapped call records a
span (name, start, end, parent) in memory, and some also count the items
they were given. Nothing inside the program is changed, and the trace
follows whatever path the CLI takes. `derive` turns the spans of the five
stages into the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from contextlib import contextmanager

MIB = 1 << 20

PER_LAYER = {
    "datagen.generate_s": "s",
    "io.write_mib_per_s": "MiB/s",
    "io.read_mib_per_s": "MiB/s",
    "io.read_labels_s": "s",
    "io.write_csv_s": "s",
    "hierarchy.similarity_matrix_ms": "ms",
    "hierarchy.label_rows_items_per_eval_query": "count",
    "hierarchy.label_rows_s": "s",
    "codes.forward_items_per_s": "items/s",
    "codes.pack_items_per_s": "items/s",
    "codes.forward_activation_mib": "MiB",
    "train.step_ms": "ms",
    "train.forward_ms": "ms",
    "train.loss_gradient_ms": "ms",
    "train.backward_ms": "ms",
    "train.gflops": "GFLOP/s",
    "index.topn_ms_p50": "ms",
    "index.topn_ms_p99": "ms",
    "index.scored_items_per_s": "items/s",
    "index.bytes_scanned_per_query": "bytes",
    "index.full_rank_ms_p50": "ms",
    "index.full_rankings_per_eval_query": "count",
    "metrics.eval_queries_ms_per_query": "ms",
    "metrics.curves_ms_per_query": "ms",
    "metrics.ranked_relevances_ms_per_query": "ms",
    "metrics.eval_rss_growth_mib": "MiB",
    "cli.query_output_s": "s",
    "cli.eval_output_s": "s",
    "trace.overhead_pct": "%",
}


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def peak_rss_mib() -> float:
    """Peak resident set of this process's own address space (VmHWM, Linux).
    ru_maxrss would also count the parent's resident set, which Linux
    carries into a child's ru_maxrss when it execs."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def _rss_mib() -> float:
    """Resident set size now (Linux)."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / MIB


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or None, bytes]
        self.counts = {}
        self.missing = []    # wrap targets the program no longer has
        self._stack = []

    @contextmanager
    def span(self, name, nbytes=0):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, nbytes])
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, owner, attr, name, items=None, read=False, written=False, rss=False):
        """Replace owner.attr by a spanned call. `items(*args)` counts items;
        `read`/`written` record the size of the file named by the first argument."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return

        def wrapper(*args, **kwargs):
            if items is not None:
                self.count(name + ".items", items(*args, **kwargs))
                self.count(name + ".calls", 1)
            if rss and name + ".rss_before_mib" not in self.counts:
                self.counts[name + ".rss_before_mib"] = _rss_mib()
            with self.span(name, _size(args[0]) if read else 0) as idx:
                out = fn(*args, **kwargs)
            if written:
                self.spans[idx][4] = _size(args[0])
            return out

        setattr(owner, attr, wrapper)

    def install(self):
        # import_module, because the package rebinds the name shdh.train to the function
        cli, codes, io, metrics, train = (importlib.import_module("shdh." + m) for m in
                                          ("cli", "codes", "io", "metrics", "train"))
        Taxonomy = importlib.import_module("shdh.hierarchy").Taxonomy
        MetricReport = metrics.MetricReport

        w = self.wrap
        w(cli, "generate", "datagen.generate")
        # the CLI holds its own references to the io functions; the set-up
        # steps in stage.py call them through shdh.io
        for mod in (cli, io):
            for fn in ("read_features", "read_codes", "read_model"):
                w(mod, fn, "io.read", read=True)
            w(mod, "read_labels", "io.read_labels")
            w(mod, "read_taxonomy", "io.read_taxonomy")
            for fn in ("write_features", "write_labels", "write_taxonomy", "write_model",
                       "write_codes"):
                w(mod, fn, "io.write", written=True)
            w(mod, "write_trainlog", "io.write_trainlog")
            w(mod, "write_csv", "io.write_csv")
        w(cli, "train", "train.train")
        w(train, "backprop_step", "train.step")
        w(train, "parameter_gradients", "train.gradients")
        w(train, "forward", "train.forward")
        w(train, "loss_terms", "train.loss")
        w(train, "loss_gradient", "train.loss")
        w(Taxonomy, "similarity_matrix", "hierarchy.similarity_matrix")
        w(Taxonomy, "label_rows", "hierarchy.label_rows", items=lambda self, labels: len(labels))
        w(cli, "encode_batch", "codes.encode_batch")
        w(codes, "forward", "codes.forward", items=lambda model, x: len(x))
        w(codes, "pack_bits", "codes.pack", items=lambda layout, bits: len(bits))
        w(cli, "search_topn", "index.topn")
        w(metrics, "search_topn", "index.full_rank", items=lambda db, q, n: 1)
        w(metrics, "ranked_relevances", "metrics.ranked_relevances")
        w(cli, "eval_queries", "metrics.eval_queries", rss=True)
        w(cli, "weighted_recall_curves", "metrics.curves")
        w(MetricReport, "to_csv_rows", "metrics.to_csv_rows")

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "missing": self.missing,
                "peak_rss_mib": peak_rss_mib()}


# --- per-layer metrics --------------------------------------------------------------


class _Stage:
    def __init__(self, trace):
        self.spans = trace["spans"]
        self.counts = trace["counts"]
        self.peak_rss_mib = trace["peak_rss_mib"]

    def durations(self, name):
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def total(self, name):
        return sum(self.durations(name))

    def nbytes(self, name):
        return sum(s[4] for s in self.spans if s[0] == name)

    def self_time(self, name):
        """Duration of the named spans minus what their direct children cover."""
        own = [i for i, s in enumerate(self.spans) if s[0] == name]
        children = sum(s[2] - s[1] for s in self.spans if s[3] in own)
        return self.total(name) - children


def _ratio(a, b):
    return a / b if b else 0.0


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _p99(xs):
    return statistics.quantiles(xs, n=100)[98] if len(xs) >= 2 else _median(xs)


def derive(traces: dict, w: dict, stage_walls: dict) -> dict:
    """Per-layer metrics from the traced stages.

    traces: stage name -> Tracer.dump() of that stage's process;
    w: the workload; stage_walls: the untraced run's median wall per stage, at
    the host speed of the traced passes.
    """
    st = {k: _Stage(v) for k, v in traces.items()}
    setup, tr, enc, qry, ev = (st[k] for k in ("setup", "train", "encode", "query", "eval"))
    all_stages = list(st.values())
    n, q_top, q_eval = w["n"], w["queries"], w["eval_queries"]
    steps = tr.durations("train.step")
    n_steps = len(steps)
    dims = [w["dim"], *w["hidden"], w["bits"]]
    gemm = sum(a * b for a, b in zip(dims, dims[1:]))
    m = w["batch"]
    # forward 2m*gemm; backward 2m*gemm for the weight gradients and 2m*gemm
    # for the deltas below every layer but the first; the loss and its
    # gradient take three m x m x L products
    flops_per_step = 6 * m * gemm - 2 * m * dims[0] * dims[1] + 6 * m * m * w["bits"]
    gradients = tr.total("train.gradients")
    read_s = sum(s.total("io.read") for s in all_stages)
    write_s = sum(s.total("io.write") for s in all_stages)
    traced_total = sum(st[stage].total("cli." + c) for c, stage in
                       (("gen", "setup"), ("split", "setup"), ("tree", "setup"),
                        ("train", "train"), ("encode", "encode"), ("query", "query"),
                        ("eval", "eval")))
    untraced_total = sum(stage_walls.values())
    code_bytes = sum((b + 7) // 8 for b in w["widths"])
    topn = qry.durations("index.topn")
    rss_before = ev.counts.get("metrics.eval_queries.rss_before_mib", ev.peak_rss_mib)
    return {
        "datagen.generate_s": setup.total("datagen.generate"),
        "io.write_mib_per_s": _ratio(sum(s.nbytes("io.write") for s in all_stages) / MIB,
                                     write_s),
        "io.read_mib_per_s": _ratio(sum(s.nbytes("io.read") for s in all_stages) / MIB, read_s),
        "io.read_labels_s": sum(s.total("io.read_labels") for s in all_stages),
        "io.write_csv_s": ev.total("io.write_csv"),
        "hierarchy.similarity_matrix_ms": 1e3 * _median(tr.durations("hierarchy.similarity_matrix")),
        "hierarchy.label_rows_items_per_eval_query":
            ev.counts.get("hierarchy.label_rows.items", 0) / q_eval,
        "hierarchy.label_rows_s": ev.total("hierarchy.label_rows"),
        "codes.forward_items_per_s": _ratio(enc.counts.get("codes.forward.items", 0),
                                            enc.total("codes.forward")),
        "codes.pack_items_per_s": _ratio(enc.counts.get("codes.pack.items", 0),
                                         enc.total("codes.pack")),
        "codes.forward_activation_mib": n * (sum(w["hidden"]) + w["bits"]) * 8 / MIB,
        "train.step_ms": 1e3 * _median(steps),
        "train.forward_ms": 1e3 * _ratio(tr.total("train.forward"), n_steps),
        "train.loss_gradient_ms": 1e3 * _ratio(tr.total("train.loss"), n_steps),
        "train.backward_ms": 1e3 * _ratio(tr.self_time("train.gradients"), n_steps),
        "train.gflops": _ratio(flops_per_step * n_steps / 1e9, gradients),
        "index.topn_ms_p50": 1e3 * _median(topn),
        "index.topn_ms_p99": 1e3 * _p99(topn),
        "index.scored_items_per_s": _ratio(q_top * n, sum(topn)),
        "index.bytes_scanned_per_query": n * code_bytes,
        "index.full_rank_ms_p50": 1e3 * _median(ev.durations("index.full_rank")),
        "index.full_rankings_per_eval_query":
            ev.counts.get("index.full_rank.calls", 0) / q_eval,
        "metrics.eval_queries_ms_per_query": 1e3 * ev.total("metrics.eval_queries") / q_eval,
        "metrics.curves_ms_per_query": 1e3 * ev.total("metrics.curves") / q_eval,
        "metrics.ranked_relevances_ms_per_query":
            1e3 * ev.total("metrics.ranked_relevances") / q_eval,
        "metrics.eval_rss_growth_mib": ev.peak_rss_mib - rss_before,
        "cli.query_output_s": qry.self_time("cli.query"),
        "cli.eval_output_s": ev.self_time("cli.eval"),
        "trace.overhead_pct": 100.0 * _ratio(traced_total - untraced_total, untraced_total),
    }

"""Runs one pipeline stage in a fresh process and reports its wall times.

    python3 perfbench/stage.py SPEC.json RESULT.json

SPEC holds "src" (the directory that holds the shdh package), "calls" (a
list of argument lists), "repeat" and "trace". Each argument list is a
`shdh` command line run through `shdh.cli.main`, or one of the set-up steps
below. The clock starts after every import; each repeat of the whole call
list is timed as one wall. RESULT receives the walls, the process's peak
RSS (`traced.peak_rss_mib`) and, with "trace" on, the spans and counts recorded by `traced.Tracer`.
"""

from __future__ import annotations

import json
import os
import sys
import time

import traced


def split_queries(out_dir: str, n_eval: int):
    """Write the first n_eval query rows and labels as the eval query set."""
    from shdh import io

    X = io.read_features(os.path.join(out_dir, "query.shdf"))
    _, labels = io.read_labels(os.path.join(out_dir, "query_labels.tsv"))
    io.write_features(os.path.join(out_dir, "evalq.shdf"), X[:n_eval])
    io.write_labels(os.path.join(out_dir, "evalq_labels.tsv"), range(n_eval), labels[:n_eval])


def tree_setup(out_dir: str, params: dict, tracer=None):
    """The benchmark's own generator for deeper taxonomies, written through shdh.io."""
    import gen
    from shdh import io

    if tracer is None:
        data = gen.generate(**params)
    else:
        with tracer.span("datagen.generate"):
            data = gen.generate(**params)
    edges, X, labels, QX, query_labels = data
    os.makedirs(out_dir, exist_ok=True)
    io.write_taxonomy(os.path.join(out_dir, "taxonomy.tsv"), edges)
    io.write_features(os.path.join(out_dir, "train.shdf"), X)
    io.write_labels(os.path.join(out_dir, "train_labels.tsv"), range(len(labels)), labels)
    io.write_features(os.path.join(out_dir, "query.shdf"), QX)
    io.write_labels(os.path.join(out_dir, "query_labels.tsv"),
                    range(len(query_labels)), query_labels)


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as f:
        spec = json.load(f)
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import numpy  # noqa: F401  (imported before the clock starts)
    import shdh
    from shdh import cli

    if not os.path.abspath(shdh.__file__).startswith(src + os.sep):
        print(f"shdh imported from {shdh.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if spec.get("trace"):
        tracer = traced.Tracer()
        tracer.install()
    sys.stdout = open(os.devnull, "w")

    def run(call):
        if call[0] == "setup-split":
            split_queries(call[1], int(call[2]))
        elif call[0] == "setup-tree":
            tree_setup(call[1], json.loads(call[2]), tracer)
        else:
            rc = cli.main(call)
            if rc != 0:
                raise SystemExit(f"shdh {call[0]} exited with {rc}")

    walls = []
    for _ in range(int(spec.get("repeat", 1))):
        t0 = time.perf_counter()
        for call in spec["calls"]:
            if tracer is None:
                run(call)
            else:
                with tracer.span("cli." + call[0].removeprefix("setup-")):
                    run(call)
        walls.append(time.perf_counter() - t0)
    result = {"walls": walls, "peak_rss_mib": traced.peak_rss_mib()}
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(result_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))

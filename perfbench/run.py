"""Seeded end-to-end benchmark of the shdh pipeline: set-up, train, encode,
query, eval.

    python3 perfbench/run.py --workload eval-k3 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --repeat 10 [--workload NAME ...] [--seed 1]

Run from the root of a source checkout; the program is imported from its
`src/` directory. Each stage runs in its own child process (stage.py) with
one thread for shdh and for BLAS, and is timed around `shdh.cli.main` after
imports. Stages and queries run one after another: one client, closed loop.
A round runs each stage several times, in a per-workload order that spreads
the passes of every stage over the whole round; a stage's wall is the mean
of its passes, and setup_s the median of every set-up repeat. After every
pass the parent times a fixed reference workload (hostref.py); every wall
of the round is divided by the round's host factor, the mean reference
time over NOMINAL_S. Rounds of the whole pipeline repeat until they have
taken --seconds (at least one round); figures are medians over rounds.
After the first round every output is checked against the oracle
(checks.py); later rounds must reproduce its files byte for byte.

With --trace 1 a traced round follows (traced.py) and the per-layer metrics
are printed instead of the end-to-end ones. The last line of standard output
is one JSON object: correct, attempted, failed, metrics.

--repeat K runs every named workload K times on seeds seed..seed+K-1, in
alternating order, each as its own process, and prints each end-to-end
metric's median, quartiles and sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# one BLAS thread here too, for the host reference; set before numpy loads
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import checks  # noqa: E402
import hostref  # noqa: E402
import oracle  # noqa: E402
import traced  # noqa: E402

START = time.monotonic()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(HERE, "_run")
OUT_DIR = os.path.join(HERE, "_out")

COMMON = dict(dim=64, hidden=(512, 512), iters=200, batch=128, ns=(10, 100, 1000), n_top=10)
WORKLOADS = {
    # shdh.datagen, 4x4 taxonomy; eval dominates
    "eval-k3": dict(COMMON, generator="datagen", branching=(4, 4), n=20_000, queries=2000,
                    eval_queries=100, bits=32, scheme="effective", mode="shared-layers"),
    # deeper generator, 144 leaves, large database; top-n scoring and encode dominate
    "search-k5": dict(COMMON, generator="tree", branching=(4, 4, 3, 3),
                      stds=(2.0, 2.0, 1.5, 1.5), n=100_000, queries=600, eval_queries=10,
                      bits=64, scheme="effective", mode="shared-layers"),
    # 12-bit segments with padding, a dead layer-1 segment, signed relevance
    "literal-k4": dict(COMMON, generator="tree", branching=(4, 4, 4), stds=(2.5, 2.0, 1.5),
                       n=50_000, queries=1000, eval_queries=25, bits=48,
                       scheme="paper-literal", mode="hier-similarity"),
}
STAGES = ("train", "encode", "query", "eval")
# The passes of a round, in order; each set-up pass repeats set-up
# SETUP_REPEATS[workload] times in one process. The first three passes make
# the inputs, the model and the codes the later ones read; every later pass
# rewrites identical files. Short stages run more often, so that every stage
# is timed for several seconds, and each stage's passes are spread over the
# round, so that every stage's figure averages over the same stretch of time.
PASSES = {
    "eval-k3": ("setup", "train", "encode", "eval", "query", "train", "encode", "eval",
                "setup", "train", "query", "encode", "eval"),
    "search-k5": ("setup", "train", "encode", "eval", "train", "query", "setup", "eval",
                  "train", "eval"),
    "literal-k4": ("setup", "train", "encode", "eval", "query", "train", "setup", "eval",
                   "encode", "train", "eval"),
}
SETUP_REPEATS = {"eval-k3": 8, "search-k5": 3, "literal-k4": 5}
PROBE_ITEMS, PROBE_QUERIES = 4096, 64
RUN_LIMIT_S = 170  # a run that has not finished by then stops without a result

END_TO_END = {
    "setup_s": "s", "train_iters_per_s": "iter/s", "encode_items_per_s": "items/s",
    "queries_per_s": "queries/s", "eval_queries_per_s": "queries/s", "pipeline_s": "s",
    "train_peak_rss_mib": "MiB", "encode_peak_rss_mib": "MiB", "query_peak_rss_mib": "MiB",
    "eval_peak_rss_mib": "MiB",
}


class StageFailed(Exception):
    pass


def workload(name: str) -> dict:
    w = dict(WORKLOADS[name], name=name)
    w["K"] = len(w["branching"]) + 1
    n_seg = w["K"] if w["scheme"] == "paper-literal" else w["K"] - 1
    base = w["bits"] // n_seg
    w["widths"] = [base] * (n_seg - 1) + [w["bits"] - base * (n_seg - 1)]
    return w


def stage_calls(w: dict, d: str, seed: int, probe_ids) -> dict:
    """Command lines of every stage, as `shdh` would be called from a shell."""
    p = lambda name: os.path.join(d, name)  # noqa: E731
    if w["generator"] == "datagen":
        make = ["gen", "--out-dir", d, "--supers", w["branching"][0], "--subs",
                w["branching"][1], "--dim", w["dim"], "--n-train", w["n"],
                "--n-query", w["queries"], "--seed", seed]
    else:
        params = dict(branching=w["branching"], stds=w["stds"], n_items=w["n"],
                      n_queries=w["queries"], dim=w["dim"], noise_std=0.5, seed=seed)
        make = ["setup-tree", d, json.dumps(params)]
    calls = {
        "setup": [make, ["setup-split", d, w["eval_queries"]]],
        "train": [["train", "--features", p("train.shdf"), "--labels", p("train_labels.tsv"),
                   "--taxonomy", p("taxonomy.tsv"), "--bits", w["bits"], "--scheme",
                   w["scheme"], "--hidden", ",".join(map(str, w["hidden"])), "--iters",
                   w["iters"], "--batch", w["batch"], "--seed", seed, "--out", p("model.shdm")]],
        "encode": [["encode", "--model", p("model.shdm"), "--features", p(f + ".shdf"),
                    "--out", p(c + ".shdc")]
                   for f, c in (("train", "db"), ("query", "query"), ("evalq", "evalq"))],
        "query": [["query", "--codes", p("db.shdc"), "--query-features", p("query.shdf"),
                   "--model", p("model.shdm"), "--n", w["n_top"], "--threads", 1,
                   "--out", p("query.tsv")]],
        "eval": [["eval", "--db-codes", p("db.shdc"), "--db-labels", p("train_labels.tsv"),
                  "--query-codes", p("evalq.shdc"), "--query-labels", p("evalq_labels.tsv"),
                  "--taxonomy", p("taxonomy.tsv"), "--mode", w["mode"], "--ns",
                  ",".join(map(str, w["ns"])), "--threads", 1, "--out-prefix", p("eval/run")]],
        "probe": [["query", "--codes", p("probe.shdc"), "--n", w["n_top"], "--threads", 1,
                   "--out", p("probe.tsv")] + [a for q in probe_ids for a in ("--query-id", q)]],
    }
    return {k: [[str(a) for a in call] for call in v] for k, v in calls.items()}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=SRC, SHDH_THREADS="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    return env


def run_stage(d: str, name: str, calls, repeat=1, trace=False) -> dict:
    timeout = RUN_LIMIT_S - (time.monotonic() - START)
    spec_path = os.path.join(d, f"{name}.spec.json")
    result_path = os.path.join(d, f"{name}.result.json")
    with open(spec_path, "w") as f:
        json.dump({"src": SRC, "calls": calls, "repeat": repeat, "trace": trace}, f)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "stage.py"), spec_path,
                               result_path], env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise StageFailed(f"{name}: the run took more than {RUN_LIMIT_S} s") from None
    if proc.returncode != 0:
        raise StageFailed(f"{name} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result_path) as f:
        return json.load(f)


def digest(d: str) -> str:
    """Hash of every output file of a round, to compare rounds."""
    h = hashlib.sha256()
    for root, _, files in sorted(os.walk(d)):
        for name in sorted(files):
            if not name.endswith((".json", ".tsv", ".csv", ".shdm", ".shdc", ".shdf")) \
                    or name.endswith((".spec.json", ".result.json", "manifest.json")):
                continue
            h.update(name.encode())
            with open(os.path.join(root, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def timed_round(w: dict, d: str, calls: dict, ref: hostref.Reference) -> dict:
    """The passes of PASSES[w] in order, then the tie probe. A stage's wall is
    the mean of its passes: other guests on the host slow every stage by up
    to 1.9 times for stretches of seconds to a minute, and the mean of passes
    spread over the round averages over those stretches. The reference timed
    after every pass gives the round's host factor; every wall is divided by
    it, which removes what the round as a whole ran slower or faster."""
    passes = {s: [] for s in ("setup", *STAGES)}
    ref_s = []
    for s in PASSES[w["name"]]:
        repeat = SETUP_REPEATS[w["name"]] if s == "setup" else 1
        passes[s].append(run_stage(d, s, calls[s], repeat=repeat))
        ref_s.append(ref.measure())
    run_stage(d, "probe", calls["probe"])
    raw = {"setup": statistics.median(t for p in passes["setup"] for t in p["walls"])}
    raw.update({s: statistics.mean(p["walls"][0] for p in passes[s]) for s in STAGES})
    host = statistics.mean(ref_s) / hostref.NOMINAL_S
    rss = {s: max(p["peak_rss_mib"] for p in passes[s]) for s in STAGES}
    return {"walls": {s: v / host for s, v in raw.items()}, "raw_walls": raw, "host": host,
            "rss": rss}


def end_to_end(w: dict, rnd: dict) -> dict:
    walls, rss = rnd["walls"], rnd["rss"]
    return {
        "setup_s": walls["setup"],
        "train_iters_per_s": w["iters"] / walls["train"],
        "encode_items_per_s": (w["n"] + w["queries"] + w["eval_queries"]) / walls["encode"],
        "queries_per_s": w["queries"] / walls["query"],
        "eval_queries_per_s": w["eval_queries"] / walls["eval"],
        "pipeline_s": sum(walls.values()),
        **{f"{s}_peak_rss_mib": rss[s] for s in STAGES},
    }


def run_checks(w: dict, d: str, seed: int, probe_ids) -> dict:
    """Every check of the first round. Returns the tie-rule departures."""
    sys.path.insert(0, SRC)
    from shdh.codes import Architecture, init_model, segment_layout

    inp = checks.Inputs(d, w)
    checks.check_encode(inp, seed)
    arch = Architecture(d=w["dim"], hidden=tuple(w["hidden"]), L=w["bits"])
    untrained = init_model(arch, segment_layout(w["bits"], w["K"], w["scheme"]), seed + 1007)
    trained_ndcg, untrained_ndcg = checks.check_train(inp, (untrained.W, untrained.v))
    print(f"train check: NDCG@100 {trained_ndcg:.3f} trained, {untrained_ndcg:.3f} untrained")
    if trained_ndcg - untrained_ndcg < checks.TRAIN_MARGIN:
        print(f"train check: margin below the {checks.TRAIN_MARGIN} of acceptance criterion 5 "
              f"(not counted: it happens on a few seeds in a hundred)")
    return {
        "query": checks.check_query(inp, "query.shdc", "query.tsv", w["n_top"]),
        "eval": checks.check_eval(inp),
        "probe": checks.check_query(inp, "probe.shdc", "probe.tsv", w["n_top"], probe_ids),
    }


def run_once(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "shdh", "cli.py")):
        print(f"no shdh sources under {SRC}", file=sys.stderr)
        return 2
    w = workload(args.workload)
    d = os.path.join(RUN_DIR, f"{w['name']}-s{args.seed}-{os.getpid()}")
    os.makedirs(d)
    try:
        return measure(w, d, args)
    except (StageFailed, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(d, ignore_errors=True)


def measure(w: dict, d: str, args) -> int:
    layout = oracle.Layout(K=w["K"], scheme=w["scheme"], widths=tuple(w["widths"]))
    probe_ids = checks.write_probe(layout, os.path.join(d, "probe.shdc"), PROBE_ITEMS,
                                   PROBE_QUERIES)
    calls = stage_calls(w, d, args.seed, probe_ids)
    rounds, measured, correct, failed_per_round, reference = [], 0.0, True, 0, None
    ref = hostref.Reference()
    while not rounds or measured < args.seconds:
        t0 = time.perf_counter()
        rounds.append(timed_round(w, d, calls, ref))
        measured += time.perf_counter() - t0
        if reference is None:
            try:
                dep = run_checks(w, d, args.seed, probe_ids)
                failed_per_round = dep["probe"]
                print(f"tie rule: {dep['probe']}/{PROBE_QUERIES} fixed probe queries broken "
                      f"(counted as failed); on seeded inputs {dep['query']}/{w['queries']} "
                      f"top-{w['n_top']} queries and {dep['eval']}/{w['eval_queries']} eval "
                      f"queries broken (not counted: they vary with the seed)")
            except (checks.CheckFailed, ValueError, KeyError) as exc:
                # ValueError and KeyError come from outputs the oracle cannot parse
                print(f"check failed: {exc!r}", file=sys.stderr)
                correct = False
            reference = digest(d)
        elif digest(d) != reference:
            print(f"round {len(rounds)} did not reproduce the outputs of round 1", file=sys.stderr)
            correct = False
    walls = {s: statistics.median(r["walls"][s] for r in rounds) for s in rounds[0]["walls"]}
    for r in rounds:
        print(f"host factor {r['host']:.3f}; stage walls (s) as timed: "
              + ", ".join(f"{s} {v:.3f}" for s, v in r["raw_walls"].items()))
    print(f"stage walls (s) over the host factor, median of {len(rounds)} round(s): "
          + ", ".join(f"{s} {v:.3f}" for s, v in walls.items()))
    if args.trace:
        traces, ref_s = {}, []
        for s in ("setup", *STAGES):
            traces[s] = run_stage(d, s, calls[s], trace=True)["trace"]
            ref_s.append(ref.measure())
        host = statistics.mean(ref_s) / hostref.NOMINAL_S
        missing = sorted({m for t in traces.values() for m in t["missing"]})
        if missing:
            print("trace: not found in the program, so not traced: " + ", ".join(missing),
                  file=sys.stderr)
        # the untraced walls at the host speed of the traced passes
        values = traced.derive(traces, w, {s: v * host for s, v in walls.items()})
        metrics = {m: {"value": v, "unit": traced.PER_LAYER[m]} for m, v in values.items()}
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"trace-{w['name']}-s{args.seed}.json"), "w") as f:
            json.dump({"workload": w["name"], "seed": args.seed, "untraced_walls": walls,
                       "stages": traces, "per_layer": values}, f)
    else:
        e2e = [end_to_end(w, r) for r in rounds]
        metrics = {m: {"value": statistics.median(r[m] for r in e2e), "unit": unit}
                   for m, unit in END_TO_END.items()}
    per_round = 2 + w["queries"] + w["eval_queries"] + PROBE_QUERIES
    print(json.dumps({"correct": correct, "attempted": per_round * len(rounds),
                      "failed": failed_per_round * len(rounds), "metrics": metrics}))
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def repeat_mode(args) -> int:
    names = args.workload or list(WORKLOADS)
    bounds = {}
    bench = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(bench):
        with open(bench) as f:
            bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    samples = {n: {m: [] for m in END_TO_END} for n in names}
    shares = {n: set() for n in names}
    for i in range(args.repeat):
        for name in names if i % 2 == 0 else names[::-1]:
            seed = args.seed + i
            t0 = time.monotonic()
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                                   "--seed", str(seed), "--seconds", str(args.seconds)],
                                  cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{name} seed {seed} exited with {proc.returncode}:\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: incorrect output\n{proc.stderr}", file=sys.stderr)
                return 1
            shares[name].add(f"{result['failed']}/{result['attempted']}")
            for m, v in result["metrics"].items():
                samples[name][m].append(v["value"])
            print(f"[{i + 1}/{args.repeat}] {name} seed {seed}: pipeline "
                  f"{result['metrics']['pipeline_s']['value']:.2f} s, whole run "
                  f"{time.monotonic() - t0:.1f} s", flush=True)
    report = {}
    for name in names:
        print(f"\n{name}: failed/attempted {sorted(shares[name])}")
        print(f"  {'metric':<22}{'q1':>12}{'median':>12}{'q3':>12}{'n':>4}{'spread':>8}"
              f"{'bound':>7}")
        report[name] = {}
        for m, values in samples[name].items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            report[name][m] = {"q1": q1, "median": med, "q3": q3, "n": len(values),
                               "spread": spread, "values": values}
            print(f"  {m:<22}{q1:>12.5g}{med:>12.5g}{q3:>12.5g}{len(values):>4}"
                  f"{spread:>8.3f}{bounds.get(m, float('nan')):>7.2f}")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"repeat-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w") as f:
        json.dump({"seconds": args.seconds, "seed": args.seed, "report": report}, f, indent=1)
    print(f"\nwritten to {os.path.relpath(path, ROOT)}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    args = ap.parse_args(argv)
    if args.repeat:
        return repeat_mode(args)
    if not args.workload or len(args.workload) != 1:
        ap.error("name exactly one --workload (or use --repeat)")
    args.workload = args.workload[0]
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())

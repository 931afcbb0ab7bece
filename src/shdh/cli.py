"""Command-line surface: train, encode, query, eval, inspect, gen.

Every command is deterministic given its flags (seeds included). Flags
override an optional key=value config file; the effective values are
echoed into a run-manifest JSON next to the primary output. Exit codes:
0 success, 2 input/file errors, 3 validation errors, 4 numeric failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .codes import (
    Architecture,
    SCHEMES,
    encode_batch,
    segment_layout,
)
from .datagen import SyntheticConfig, generate
from .errors import (
    EmptyDatabase,
    FileFormatError,
    FileNotFound,
    InvalidNumber,
    ModelFeatureDimMismatch,
    ShapeMismatch,
    ShdhError,
    UnknownQueryId,
    ValidationError,
)
from .index import brute_force_topn, search_topn
from .io import (
    atomic_write,
    read_codes,
    read_features,
    read_labels,
    read_model,
    read_taxonomy,
    write_codes,
    write_csv,
    write_features,
    write_labels,
    write_model,
    write_taxonomy,
    write_trainlog,
)
from .metrics import METRIC_NAMES, MODES, eval_queries
from .train import TrainConfig, train


def _number(value, flag: str, kind=int, minimum=None):
    """A numeric flag or setting; a malformed value is a validation error."""
    try:
        out = kind(str(value).strip())
    except ValueError:
        out = None
    if out is None or (kind is float and not math.isfinite(out)):
        what = "an integer" if kind is int else "a finite number"
        raise InvalidNumber(f"{flag} expects {what}, got {value!r}")
    if minimum is not None and out < minimum:
        raise InvalidNumber(f"{flag} must be >= {minimum}, got {value!r}")
    return out


def _int_list(text, flag: str) -> list[int]:
    return [_number(p, flag) for p in str(text).split(",") if p.strip()]


def _check_threads(args):
    """--threads (else SHDH_THREADS) is validated but not used: one numpy
    pass per query is as fast on one thread as on several."""
    if args.threads:
        _number(args.threads, "--threads", minimum=1)
    elif os.environ.get("SHDH_THREADS"):
        _number(os.environ["SHDH_THREADS"], "SHDH_THREADS")


def _write_manifest(primary_output, command: str, args: argparse.Namespace):
    effective = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func", "config") and not k.startswith("_")
    }
    manifest = {"command": command, "version": __version__, "effective_config": effective}
    with atomic_write(str(primary_output) + ".manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True, default=str)
        f.write("\n")


def _load_config_defaults(argv, subparsers):
    """Pre-scan for --config and install each key=value pair as a default on
    the subparsers that define that option. set_defaults replaces action
    defaults, so config values sit between built-in defaults and explicit
    flags in precedence. It also skips argparse's own checks, so they are
    made here: a key that no subcommand defines, a value outside an
    option's choices, and a store_true value other than true or false are
    BAD_FILE_FORMAT errors."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return
    from .io import read_text

    options: dict[str, list] = {}
    for sub in subparsers.values():
        for action in sub._actions:
            if action.option_strings and action.dest not in ("help", "config"):
                options.setdefault(action.dest, []).append((sub, action))
    for lineno, raw in enumerate(read_text(known.config).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{known.config} line {lineno}"
        if "=" not in line:
            raise FileFormatError(f"{where}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in options:
            raise FileFormatError(f"{where}: no command takes the key {key!r}")
        for sub, action in options[key]:
            switch = action.nargs == 0  # store_true
            if switch and value not in ("true", "false"):
                raise FileFormatError(f"{where}: {key} must be true or false, got {value!r}")
            if action.choices is not None and value not in action.choices:
                raise FileFormatError(
                    f"{where}: {key} must be one of {', '.join(action.choices)}, got {value!r}")
            sub.set_defaults(**{key: value == "true" if switch else value})


# --- subcommands -----------------------------------------------------------------


def cmd_train(args) -> int:
    features = read_features(args.features)
    _, labels = read_labels(args.labels)
    tax = read_taxonomy(args.taxonomy)
    if len(labels) != features.shape[0]:
        raise ShapeMismatch(
            f"{len(labels)} labels for {features.shape[0]} feature rows"
        )
    layout = segment_layout(_number(args.bits, "--bits"), tax.K, args.scheme)
    hidden = tuple(_int_list(args.hidden, "--hidden"))
    arch = Architecture(d=features.shape[1], hidden=hidden, L=layout.L)
    try:
        config = TrainConfig(
            iters=_number(args.iters, "--iters"),
            alpha=_number(args.alpha, "--alpha", float),
            eta0=_number(args.eta0, "--eta0", float),
            batch=_number(args.batch, "--batch"),
            seed=_number(args.seed, "--seed"),
        )
    except ValueError as exc:
        raise InvalidNumber(str(exc)) from None
    model, log = train(features, labels, tax, arch, layout, config)
    write_model(args.out, model)
    trainlog_path = args.trainlog or str(args.out) + ".trainlog.csv"
    write_trainlog(trainlog_path, log)
    _write_manifest(args.out, "train", args)
    print(f"trained {config.iters} iterations; model -> {args.out}; log -> {trainlog_path}")
    return 0


def cmd_encode(args) -> int:
    model = read_model(args.model)
    features = read_features(args.features)
    if features.shape[0] > 0 and features.shape[1] != model.arch.d:
        raise ModelFeatureDimMismatch(
            f"model expects {model.arch.d}-D features, file has {features.shape[1]}-D"
        )
    db = encode_batch(model, features)
    write_codes(args.out, db)
    _write_manifest(args.out, "encode", args)
    print(f"encoded {len(db)} items -> {args.out}")
    return 0


def cmd_query(args) -> int:
    db = read_codes(args.codes)
    if len(db) == 0:
        raise EmptyDatabase(f"{args.codes} holds no codes")

    queries = []
    if args.query_id is not None:
        for qid in (_number(q, "--query-id") for q in args.query_id):
            if not 0 <= qid < len(db):
                raise UnknownQueryId(f"query id {qid} outside [0, {len(db) - 1}]")
            queries.append((qid, db.code(qid)))
    elif args.query_features:
        if not args.model:
            raise ValidationError("--query-features requires --model")
        model = read_model(args.model)
        qx = read_features(args.query_features)
        if qx.shape[0] > 0 and qx.shape[1] != model.arch.d:
            raise ModelFeatureDimMismatch(
                f"model expects {model.arch.d}-D features, file has {qx.shape[1]}-D"
            )
        qdb = encode_batch(model, qx)
        queries = [(f"q{i}", qdb.code(i)) for i in range(len(qdb))]
    else:
        raise ValidationError("provide --query-id or --query-features")

    search = brute_force_topn if args.oracle else search_topn
    n = _number(args.n, "--n", minimum=1)
    _check_threads(args)
    results = [search(db, qcode, n) for _, qcode in queries]

    lines = ["query\trank\titem_id\tdistance\tinner_product"]
    for (qid, _), result in zip(queries, results):
        for rank, (item_id, dist, inner) in enumerate(result.rows(), start=1):
            lines.append(f"{qid}\t{rank}\t{item_id}\t{dist!r}\t{inner!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with atomic_write(args.out, "w") as f:
            f.write(text)
        _write_manifest(args.out, "query", args)
    else:
        sys.stdout.write(text)
    return 0


def cmd_eval(args) -> int:
    db = read_codes(args.db_codes)
    _, db_labels = read_labels(args.db_labels)
    qdb = read_codes(args.query_codes)
    _, query_labels = read_labels(args.query_labels)
    tax = read_taxonomy(args.taxonomy)
    if len(db_labels) != len(db):
        raise ShapeMismatch(f"{len(db_labels)} labels for {len(db)} database codes")
    if len(query_labels) != len(qdb):
        raise ShapeMismatch(f"{len(query_labels)} labels for {len(qdb)} query codes")

    ns = _int_list(args.ns, "--ns")
    _check_threads(args)
    queries = [qdb.code(i) for i in range(len(qdb))]
    report = eval_queries(db, db_labels, queries, query_labels, tax, mode=args.mode, ns=ns)

    prefix = str(args.out_prefix)
    write_csv(prefix + ".metrics.csv", ["query_id", "n", "metric", "value"],
              report.to_csv_rows())
    with atomic_write(prefix + ".summary.json", "w") as f:
        f.write(report.to_json())
        f.write("\n")

    write_csv(prefix + ".wr_vs_n.csv", ["n", "mean_weighted_recall"],
              [(n, repr(v)) for n, v in enumerate(report.wr_by_n.tolist(), start=1)])
    write_csv(prefix + ".wr_vs_radius.csv", ["radius", "mean_weighted_recall"],
              [(repr(r), repr(v)) for r, v in
               zip(report.radii.tolist(), report.wr_by_radius.tolist())])
    _write_manifest(prefix, "eval", args)

    for metric in sorted(METRIC_NAMES):
        for n in sorted(set(report.ns)):
            print(f"{metric}@{n} = {report.mean(metric, n):.6f}")
    if report.wr_excluded:
        print(f"weighted_recall excluded {report.wr_excluded} zero-relevance queries")
    return 0


def cmd_inspect(args) -> int:
    path = args.file
    try:
        with open(path, "rb") as f:
            magic = f.read(4)
    except FileNotFoundError:
        raise FileNotFound(f"no such file: {path}") from None
    if magic == b"SHDF":
        X = read_features(path)
        info = {"format": "SHDF", "items": int(X.shape[0]), "dim": int(X.shape[1])}
    elif magic == b"SHDC":
        db = read_codes(path)
        info = {
            "format": "SHDC",
            "items": len(db),
            "bits": db.layout.L,
            "height": db.layout.K,
            "scheme": db.layout.scheme,
            "segment_widths": list(db.layout.widths),
            "segment_weights": [s.weight for s in db.layout.segments],
        }
    elif magic == b"SHDM":
        model = read_model(path)
        info = {
            "format": "SHDM",
            "input_dim": model.arch.d,
            "hidden": list(model.arch.hidden),
            "bits": model.layout.L,
            "height": model.layout.K,
            "scheme": model.layout.scheme,
            "segment_widths": list(model.layout.widths),
        }
    else:
        raise FileFormatError(f"{path}: unrecognized magic {magic!r}")
    print(json.dumps(info, indent=2, sort_keys=True))
    return 0


def cmd_gen(args) -> int:
    try:
        config = SyntheticConfig(
            n_super=_number(args.supers, "--supers"),
            n_sub=_number(args.subs, "--subs"),
            dim=_number(args.dim, "--dim"),
            n_train=_number(args.n_train, "--n-train"),
            n_query=_number(args.n_query, "--n-query"),
            super_std=_number(args.super_std, "--super-std", float),
            sub_std=_number(args.sub_std, "--sub-std", float),
            noise_std=_number(args.noise_std, "--noise-std", float),
            scale=_number(args.scale, "--scale", float),
            seed=_number(args.seed, "--seed"),
        )
    except ValueError as exc:
        raise InvalidNumber(str(exc)) from None
    data = generate(config)
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    write_taxonomy(os.path.join(out, "taxonomy.tsv"), data.taxonomy_edges)
    write_features(os.path.join(out, "train.shdf"), data.train_features)
    write_labels(os.path.join(out, "train_labels.tsv"),
                 range(len(data.train_labels)), data.train_labels)
    write_features(os.path.join(out, "query.shdf"), data.query_features)
    write_labels(os.path.join(out, "query_labels.tsv"),
                 range(len(data.query_labels)), data.query_labels)
    _write_manifest(os.path.join(out, "gen"), "gen", args)
    print(f"wrote {config.n_train} train / {config.n_query} query items to {out}")
    return 0


# --- parser ------------------------------------------------------------------------


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="shdh",
        description="Segmented hierarchy-weighted binary hashing: train, index, "
                    "search, and evaluate.",
    )
    parser.add_argument("--version", action="version", version=f"shdh {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    registry = {}

    p = registry["train"] = sub.add_parser(
        "train", help="learn a hash model from features + labels + taxonomy")
    p.add_argument("--config", help="key=value file; flags take precedence")
    p.add_argument("--features", required=True, help="SHDF feature file")
    p.add_argument("--labels", required=True, help="item-id<TAB>leaf-label file")
    p.add_argument("--taxonomy", required=True, help="parent<TAB>child edge list")
    p.add_argument("--out", required=True, help="output model file (SHDM)")
    p.add_argument("--bits", default=32, help="code length L")
    p.add_argument("--scheme", default="effective", choices=SCHEMES)
    p.add_argument("--hidden", default="512,512", help="hidden widths, comma-separated")
    p.add_argument("--iters", default=200, help="SGD iterations T")
    p.add_argument("--batch", default=128, help="minibatch size")
    p.add_argument("--alpha", default=1.0, help="entropy-term weight")
    p.add_argument("--eta0", default=0.01, help="initial step size")
    p.add_argument("--seed", default=0)
    p.add_argument("--trainlog", help="training-log CSV (default <out>.trainlog.csv)")
    p.set_defaults(func=cmd_train)

    p = registry["encode"] = sub.add_parser("encode", help="quantize features into a code database")
    p.add_argument("--config")
    p.add_argument("--model", required=True, help="SHDM model file")
    p.add_argument("--features", required=True, help="SHDF feature file")
    p.add_argument("--out", required=True, help="output code database (SHDC)")
    p.set_defaults(func=cmd_encode)

    p = registry["query"] = sub.add_parser("query", help="rank database codes for one or more queries")
    p.add_argument("--config")
    p.add_argument("--codes", required=True, help="SHDC code database")
    p.add_argument("--query-id", action="append",
                   help="database row to use as the query (repeatable)")
    p.add_argument("--query-features", help="SHDF file of query feature rows")
    p.add_argument("--model", help="SHDM model, needed with --query-features")
    p.add_argument("--n", default=10, help="number of results per query")
    p.add_argument("--oracle", action="store_true",
                   help="use the brute-force scan instead of the integer-key kernel")
    p.add_argument("--threads", help="accepted and checked, not used")
    p.add_argument("--out", help="ranked TSV output (default stdout)")
    p.set_defaults(func=cmd_query)

    p = registry["eval"] = sub.add_parser("eval", help="hierarchy-aware ranking metrics and recall curves")
    p.add_argument("--config")
    p.add_argument("--db-codes", required=True)
    p.add_argument("--db-labels", required=True)
    p.add_argument("--query-codes", required=True)
    p.add_argument("--query-labels", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--mode", default="shared-layers", choices=MODES)
    p.add_argument("--ns", default="100", help="cutoffs, comma-separated")
    p.add_argument("--threads", help="accepted and checked, not used")
    p.add_argument("--out-prefix", required=True,
                   help="prefix for .metrics.csv/.summary.json/.wr_vs_*.csv")
    p.set_defaults(func=cmd_eval)

    p = registry["inspect"] = sub.add_parser("inspect", help="dump the header of an SHDF/SHDC/SHDM file")
    p.add_argument("file")
    p.set_defaults(func=cmd_inspect)

    p = registry["gen"] = sub.add_parser("gen", help="generate a synthetic hierarchical Gaussian dataset")
    p.add_argument("--config")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--supers", default=4, help="number of superclasses")
    p.add_argument("--subs", default=4, help="subclasses per superclass")
    p.add_argument("--dim", default=64)
    p.add_argument("--n-train", default=2000)
    p.add_argument("--n-query", default=200)
    p.add_argument("--super-std", default=3.0)
    p.add_argument("--sub-std", default=1.5)
    p.add_argument("--noise-std", default=0.5)
    p.add_argument("--scale", default=1.0)
    p.add_argument("--seed", default=0)
    p.set_defaults(func=cmd_gen)

    return parser, registry


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    try:
        _load_config_defaults(argv, subparsers)
        args = parser.parse_args(argv)
        return args.func(args)
    except ShdhError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"IO_ERROR: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

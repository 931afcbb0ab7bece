"""Command-line surface: train, encode, query, eval, inspect, gen.

Every command is deterministic given its flags (seeds included). Flags
override an optional key=value config file; the effective values are
echoed into a run-manifest JSON next to the primary output. Exit codes:
0 success, 2 input/file errors, 3 validation errors, 4 numeric failures.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

from . import __version__
from .codes import SCHEMES, SegmentLayout, encode_batch, segment_layout
from .datagen import SyntheticConfig, generate
from .errors import (
    BadQueryFlags,
    EmptyDatabase,
    FileFormatError,
    InvalidNumber,
    ShdhError,
    UnknownQueryId,
)
from .index import search_topn
from .io import (
    open_binary,
    read_codes,
    read_features,
    read_labels,
    read_model,
    read_taxonomy,
    read_text,
    text_records,
    write_codes,
    write_csv,
    write_features,
    write_json,
    write_labels,
    write_model,
    write_rows,
    write_taxonomy,
    write_trainlog,
)
from .metrics import METRIC_NAMES, MODE_SHARED_LAYERS, MODES, eval_queries
from .train import TrainConfig, train


def _number(flag: str, kind=int, minimum=None, many=False):
    """argparse `type` of a numeric flag (many: a comma-separated list, empty
    items skipped). argparse also runs it over string defaults, so config
    values get the same check. A malformed value is a validation error
    (exit 3), not a usage error."""
    def convert(text: str):
        try:
            out = kind(text.strip())
        except ValueError:
            out = None
        if out is None or (kind is float and not math.isfinite(out)):
            what = "an integer" if kind is int else "a finite number"
            raise InvalidNumber(f"{flag} expects {what}, got {text!r}")
        if minimum is not None and out < minimum:
            raise InvalidNumber(f"{flag} must be >= {minimum}, got {text!r}")
        return out
    if many:
        return lambda text: [convert(part) for part in text.split(",") if part.strip()]
    return convert


def _write_manifest(primary_output, args: argparse.Namespace):
    effective = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "config")}
    write_json(str(primary_output) + ".manifest.json",
               {"command": args.command, "version": __version__, "effective_config": effective})


def _load_config_defaults(argv, subparsers):
    """Pre-scan for --config and install each key=value pair as a default on
    the subparsers that define that option. set_defaults replaces action
    defaults, so config values sit between built-in defaults and explicit
    flags in precedence, and a defaulted option is no longer required.
    set_defaults skips argparse's own checks, so they are
    made here: a key that no subcommand defines, a repeatable (append)
    option and a value outside an option's choices are BAD_FILE_FORMAT
    errors."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return

    options: dict[str, list] = {}
    for sub in subparsers.values():
        for action in sub._actions:
            if action.option_strings and action.dest not in ("help", "config"):
                options.setdefault(action.dest, []).append((sub, action))
    for lineno, fields in text_records(read_text(known.config), "=", 1):
        where = f"{known.config} line {lineno}"
        if len(fields) != 2:
            raise FileFormatError(f"{where}: expected key=value")
        key, value = (part.strip() for part in fields)
        key = key.replace("-", "_")
        if key not in options:
            raise FileFormatError(f"{where}: no command takes the key {key!r}")
        for sub, action in options[key]:
            if isinstance(action, argparse._AppendAction):
                raise FileFormatError(f"{where}: {key} is repeatable; give it on the command line")
            if action.choices is not None and value not in action.choices:
                raise FileFormatError(
                    f"{where}: {key} must be one of {', '.join(action.choices)}, got {value!r}")
            sub.set_defaults(**{key: value})
            action.required = False


# --- subcommands -----------------------------------------------------------------


def cmd_train(args) -> int:
    features = read_features(args.features)
    _, labels = read_labels(args.labels)
    tax = read_taxonomy(args.taxonomy)
    layout = segment_layout(args.bits, tax.K, args.scheme)
    config = TrainConfig(iters=args.iters, alpha=args.alpha, eta0=args.eta0,
                         batch=args.batch, seed=args.seed, hidden=tuple(args.hidden))
    model, log = train(features, labels, tax, layout, config)
    write_model(args.out, model)
    trainlog_path = args.trainlog or str(args.out) + ".trainlog.csv"
    write_trainlog(trainlog_path, log)
    _write_manifest(args.out, args)
    print(f"trained {config.iters} iterations; model -> {args.out}; log -> {trainlog_path}")
    return 0


def cmd_encode(args) -> int:
    model = read_model(args.model)
    features = read_features(args.features)
    db = encode_batch(model, features)
    write_codes(args.out, db)
    _write_manifest(args.out, args)
    print(f"encoded {len(db)} items -> {args.out}")
    return 0


def cmd_query(args) -> int:
    db = read_codes(args.codes)
    if len(db) == 0:
        raise EmptyDatabase(f"{args.codes} holds no codes")

    if args.query_id is not None and args.query_features:
        raise BadQueryFlags("give --query-id or --query-features, not both")
    if args.query_id is not None:
        for qid in args.query_id:
            if not 0 <= qid < len(db):
                raise UnknownQueryId(f"query id {qid} outside [0, {len(db) - 1}]")
        queries = ((qid, db.code(qid)) for qid in args.query_id)
    elif args.query_features:
        if not args.model:
            raise BadQueryFlags("--query-features requires --model")
        qdb = encode_batch(read_model(args.model), read_features(args.query_features))
        queries = ((f"q{i}", qdb.code(i)) for i in range(len(qdb)))
    else:
        raise BadQueryFlags("provide --query-id or --query-features")

    def hits():  # one query's hits at a time, searched as the writer asks for rows
        for qid, qcode in queries:
            result = search_topn(db, qcode, args.n)
            yield zip(itertools.repeat(qid), itertools.count(1), result.ids,
                      result.distances.tolist(), result.inner_products.tolist())

    write_rows(args.out, ["query", "rank", "item_id", "distance", "inner_product"],
               itertools.chain.from_iterable(hits()), sep="\t")
    if args.out:
        _write_manifest(args.out, args)
    return 0


def cmd_eval(args) -> int:
    if not args.ns:
        raise InvalidNumber("--ns needs at least one cutoff")
    db = read_codes(args.db_codes)
    _, db_labels = read_labels(args.db_labels)
    qdb = read_codes(args.query_codes)
    _, query_labels = read_labels(args.query_labels)
    tax = read_taxonomy(args.taxonomy)

    report = eval_queries(db, db_labels, qdb, query_labels, tax, mode=args.mode, ns=args.ns)

    prefix = str(args.out_prefix)
    write_csv(prefix + ".metrics.csv", ["query_id", "n", "metric", "value"],
              report.to_csv_rows())
    write_json(prefix + ".summary.json", report.summary())

    # write_csv writes a float as its repr; the N curve rows are never listed
    write_csv(prefix + ".wr_vs_n.csv", ["n", "mean_weighted_recall"],
              zip(range(1, len(report.wr_by_n) + 1), report.wr_by_n.tolist()))
    write_csv(prefix + ".wr_vs_radius.csv", ["radius", "mean_weighted_recall"],
              zip(report.radii.tolist(), report.wr_by_radius.tolist()))
    _write_manifest(prefix, args)

    for metric in sorted(METRIC_NAMES):
        for n in sorted(report.ns):
            print(f"{metric}@{n} = {report.mean(metric, n):.6f}")
    if report.wr_excluded:
        print(f"weighted_recall excluded {report.wr_excluded} zero-relevance queries")
    return 0


def _layout_info(layout) -> dict:
    """The layout fields that SHDC and SHDM headers both record."""
    return {
        "bits": layout.L,
        "height": layout.K,
        "scheme": layout.scheme,
        "segment_widths": list(layout.widths),
        "segment_weights": layout.segment_weights.tolist(),
    }


def cmd_inspect(args) -> int:
    path = args.file
    with open_binary(path) as f:
        magic = f.read(4)
    if magic == b"SHDF":
        X = read_features(path)
        info = {"format": "SHDF", "items": int(X.shape[0]), "dim": int(X.shape[1])}
    elif magic == b"SHDC":
        db = read_codes(path)
        info = {"format": "SHDC", "items": len(db), **_layout_info(db.layout)}
    elif magic == b"SHDM":
        model = read_model(path)
        info = {"format": "SHDM", "input_dim": model.arch.d, "hidden": list(model.arch.hidden),
                **_layout_info(model.layout)}
    else:
        raise FileFormatError(f"{path}: unrecognized magic {magic!r}")
    print(json.dumps(info, indent=2, sort_keys=True))
    return 0


def cmd_gen(args) -> int:
    config = SyntheticConfig(
        n_super=args.supers, n_sub=args.subs, dim=args.dim, n_train=args.n_train,
        n_query=args.n_query, super_std=args.super_std, sub_std=args.sub_std,
        noise_std=args.noise_std, scale=args.scale, seed=args.seed)
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
    _write_manifest(os.path.join(out, "gen"), args)
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
    # Checked, not used: one numpy pass per query is as fast on one thread as
    # on several.
    threads = dict(type=_number("--threads", minimum=1), help="accepted and checked, not used")

    p = registry["train"] = sub.add_parser(
        "train", help="learn a hash model from features + labels + taxonomy")
    p.add_argument("--config", help="key=value file; flags take precedence")
    p.add_argument("--features", required=True, help="SHDF feature file")
    p.add_argument("--labels", required=True, help="item-id<TAB>leaf-label file")
    p.add_argument("--taxonomy", required=True, help="parent<TAB>child edge list")
    p.add_argument("--out", required=True, help="output model file (SHDM)")
    p.add_argument("--bits", type=_number("--bits"), default=32, help="code length L")
    p.add_argument("--scheme", default=SegmentLayout.scheme, choices=SCHEMES)
    p.add_argument("--hidden", type=_number("--hidden", many=True), default=TrainConfig.hidden,
                   help="hidden widths, comma-separated")
    p.add_argument("--iters", type=_number("--iters"), default=TrainConfig.iters,
                   help="SGD iterations T")
    p.add_argument("--batch", type=_number("--batch"), default=TrainConfig.batch,
                   help="minibatch size")
    p.add_argument("--alpha", type=_number("--alpha", float), default=TrainConfig.alpha,
                   help="entropy-term weight")
    p.add_argument("--eta0", type=_number("--eta0", float), default=TrainConfig.eta0,
                   help="initial step size")
    p.add_argument("--seed", type=_number("--seed"), default=TrainConfig.seed)
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
    p.add_argument("--query-id", action="append", type=_number("--query-id"),
                   help="database row to use as the query (repeatable)")
    p.add_argument("--query-features", help="SHDF file of query feature rows")
    p.add_argument("--model", help="SHDM model, needed with --query-features")
    p.add_argument("--n", type=_number("--n", minimum=1), default=10,
                   help="number of results per query")
    p.add_argument("--threads", **threads)
    p.add_argument("--out", help="ranked TSV output (default stdout)")
    p.set_defaults(func=cmd_query)

    p = registry["eval"] = sub.add_parser("eval", help="hierarchy-aware ranking metrics and recall curves")
    p.add_argument("--config")
    p.add_argument("--db-codes", required=True)
    p.add_argument("--db-labels", required=True)
    p.add_argument("--query-codes", required=True)
    p.add_argument("--query-labels", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--mode", default=MODE_SHARED_LAYERS, choices=MODES)
    p.add_argument("--ns", type=_number("--ns", many=True), default="100",
                   help="cutoffs, comma-separated")
    p.add_argument("--threads", **threads)
    p.add_argument("--out-prefix", required=True,
                   help="prefix for .metrics.csv/.summary.json/.wr_vs_*.csv")
    p.set_defaults(func=cmd_eval)

    p = registry["inspect"] = sub.add_parser("inspect", help="dump the header of an SHDF/SHDC/SHDM file")
    p.add_argument("file")
    p.set_defaults(func=cmd_inspect)

    p = registry["gen"] = sub.add_parser("gen", help="generate a synthetic hierarchical Gaussian dataset")
    p.add_argument("--config")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--supers", type=_number("--supers"), default=SyntheticConfig.n_super,
                   help="number of superclasses")
    p.add_argument("--subs", type=_number("--subs"), default=SyntheticConfig.n_sub,
                   help="subclasses per superclass")
    p.add_argument("--dim", type=_number("--dim"), default=SyntheticConfig.dim)
    p.add_argument("--n-train", type=_number("--n-train"), default=SyntheticConfig.n_train)
    p.add_argument("--n-query", type=_number("--n-query"), default=SyntheticConfig.n_query)
    p.add_argument("--super-std", type=_number("--super-std", float),
                   default=SyntheticConfig.super_std)
    p.add_argument("--sub-std", type=_number("--sub-std", float), default=SyntheticConfig.sub_std)
    p.add_argument("--noise-std", type=_number("--noise-std", float),
                   default=SyntheticConfig.noise_std)
    p.add_argument("--scale", type=_number("--scale", float), default=SyntheticConfig.scale)
    p.add_argument("--seed", type=_number("--seed"), default=SyntheticConfig.seed)
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

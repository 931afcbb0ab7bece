import dataclasses
import importlib.util
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from shdh.cli import build_parser, main
from shdh.codes import CodeDatabase, SegmentLayout, segment_layout
from shdh.datagen import SyntheticConfig
from shdh.io import (
    read_codes,
    read_features,
    read_labels,
    read_model,
    write_codes,
    write_features,
    write_labels,
    write_model,
)

from shdh.train import TrainConfig

from conftest import (
    random_codes,
    write_dirty_codes,
    write_layout_header,
    write_oversized,
    write_unchained_model,
    write_zero_width_model,
)

K4_TAXONOMY = (
    "root\ta\nroot\tb\n"
    "a\ta1\nb\tb1\n"
    "a1\tx\na1\ty\nb1\tz\nb1\tw\n"
)


def strict_json(text):
    """json.loads that rejects the NaN and Infinity tokens."""
    def reject(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=reject)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Small generated dataset shared by the pipeline tests."""
    out = tmp_path_factory.mktemp("data")
    rc = main(["gen", "--out-dir", str(out), "--supers", "2", "--subs", "2",
               "--dim", "8", "--n-train", "80", "--n-query", "12", "--seed", "5"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    model = out / "model.shdm"
    rc = main([
        "train",
        "--features", str(dataset / "train.shdf"),
        "--labels", str(dataset / "train_labels.tsv"),
        "--taxonomy", str(dataset / "taxonomy.tsv"),
        "--bits", "16", "--hidden", "16,16", "--iters", "30",
        "--batch", "32", "--seed", "5",
        "--out", str(model),
    ])
    assert rc == 0
    codes = out / "db.shdc"
    rc = main(["encode", "--model", str(model),
               "--features", str(dataset / "train.shdf"), "--out", str(codes)])
    assert rc == 0
    qcodes = out / "q.shdc"
    rc = main(["encode", "--model", str(model),
               "--features", str(dataset / "query.shdf"), "--out", str(qcodes)])
    assert rc == 0
    return out


class TestGen:
    def test_outputs_exist_and_parse(self, dataset):
        X = read_features(dataset / "train.shdf")
        assert X.shape == (80, 8)
        q = read_features(dataset / "query.shdf")
        assert q.shape == (12, 8)
        assert (dataset / "taxonomy.tsv").exists()
        manifest = json.loads((dataset / "gen.manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["effective_config"]["seed"] == 5

    def test_config_supplies_required_out_dir(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(f"out-dir={tmp_path / 'g'}\nn-train=20\nn-query=4\ndim=3\n")
        assert main(["gen", "--config", str(cfg)]) == 0
        assert read_features(tmp_path / "g" / "train.shdf").shape == (20, 3)

    @pytest.mark.parametrize("scale", ["1e39", "-1e39", "1e308"])
    def test_scale_past_float32_exit_4(self, tmp_path, capsys, scale):
        # rejected before any file is written, as train would reject the file
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["gen", "--out-dir", str(tmp_path / "g"), "--n-train", "50",
                       f"--scale={scale}"])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("NON_FINITE_INPUT: ") and "--scale" in err
        assert not (tmp_path / "g").exists()


class TestTrain:
    def test_artifacts(self, trained):
        model = read_model(trained / "model.shdm")
        assert model.layout.L == 16
        log_lines = (trained / "model.shdm.trainlog.csv").read_text().splitlines()
        assert log_lines[0] == "iteration,eta,loss,fit,trace"
        assert len(log_lines) == 31
        manifest = json.loads((trained / "model.shdm.manifest.json").read_text())
        assert manifest["command"] == "train"

    def test_missing_file_exit_2(self, dataset, tmp_path, capsys):
        rc = main([
            "train",
            "--features", str(tmp_path / "missing.shdf"),
            "--labels", str(dataset / "train_labels.tsv"),
            "--taxonomy", str(dataset / "taxonomy.tsv"),
            "--out", str(tmp_path / "m.shdm"),
        ])
        assert rc == 2
        assert "FILE_NOT_FOUND" in capsys.readouterr().err

    def test_code_too_short_exit_3(self, tmp_path, capsys):
        (tmp_path / "t.tsv").write_text(K4_TAXONOMY)
        feats = tmp_path / "f.shdf"
        write_features(feats, np.zeros((8, 4), np.float32))
        write_labels(tmp_path / "l.tsv", range(8), ["x", "y", "z", "w"] * 2)
        rc = main([
            "train",
            "--features", str(feats),
            "--labels", str(tmp_path / "l.tsv"),
            "--taxonomy", str(tmp_path / "t.tsv"),
            "--bits", "3", "--scheme", "paper-literal",
            "--out", str(tmp_path / "m.shdm"),
        ])
        assert rc == 3
        assert "CODE_TOO_SHORT" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [80, 1])
    def test_one_label_too_many_exit_3(self, dataset, tmp_path, capsys, rows):
        # train's own check; with one feature row it comes before the minimum size
        features = tmp_path / "x.shdf"
        write_features(features, read_features(dataset / "train.shdf")[:rows])
        write_labels(tmp_path / "y.tsv", range(rows + 1), ["x"] * (rows + 1))
        (tmp_path / "tax.tsv").write_text("root\ta\nroot\tb\na\tx\nb\tz\n")
        rc = main(["train", "--features", str(features), "--labels", str(tmp_path / "y.tsv"),
                   "--taxonomy", str(tmp_path / "tax.tsv"), "--bits", "16", "--hidden", "8",
                   "--iters", "2", "--batch", "16", "--out", str(tmp_path / "m.shdm")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("SHAPE_MISMATCH: ")
        assert not (tmp_path / "m.shdm").exists()

    def test_reproducible_byte_identical(self, dataset, tmp_path):
        args = lambda out: [
            "train",
            "--features", str(dataset / "train.shdf"),
            "--labels", str(dataset / "train_labels.tsv"),
            "--taxonomy", str(dataset / "taxonomy.tsv"),
            "--bits", "16", "--hidden", "8", "--iters", "10",
            "--batch", "16", "--seed", "9",
            "--out", str(out),
        ]
        assert main(args(tmp_path / "m1.shdm")) == 0
        assert main(args(tmp_path / "m2.shdm")) == 0
        assert (tmp_path / "m1.shdm").read_bytes() == (tmp_path / "m2.shdm").read_bytes()

    def test_config_file_precedence(self, dataset, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bits=16\nhidden=8\niters=4\nbatch=16\nseed=3\n")
        out = tmp_path / "m.shdm"
        rc = main([
            "train", "--config", str(cfg),
            "--features", str(dataset / "train.shdf"),
            "--labels", str(dataset / "train_labels.tsv"),
            "--taxonomy", str(dataset / "taxonomy.tsv"),
            "--iters", "6",  # flag beats config
            "--out", str(out),
        ])
        assert rc == 0
        manifest = json.loads((tmp_path / "m.shdm.manifest.json").read_text())
        assert manifest["effective_config"]["iters"] == 6
        assert manifest["effective_config"]["bits"] == 16
        assert manifest["effective_config"]["hidden"] == [8]
        log_lines = (tmp_path / "m.shdm.trainlog.csv").read_text().splitlines()
        assert len(log_lines) == 7

    def test_config_supplies_required_options(self, dataset, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"features={dataset / 'train.shdf'}\nlabels={dataset / 'train_labels.tsv'}\n"
                       f"taxonomy={dataset / 'taxonomy.tsv'}\nout={tmp_path / 'm.shdm'}\n"
                       "bits=16\nhidden=8\niters=3\nbatch=16\n")
        assert main(["train", "--config", str(cfg)]) == 0
        assert read_model(tmp_path / "m.shdm").layout.L == 16

    def test_code_too_long_exit_3(self, dataset, tmp_path, capsys):
        # the SHDM layout block stores L as a u16
        rc = main(["train", "--features", str(dataset / "train.shdf"),
                   "--labels", str(dataset / "train_labels.tsv"),
                   "--taxonomy", str(dataset / "taxonomy.tsv"),
                   "--bits", "70000", "--hidden", "4", "--iters", "1", "--batch", "16",
                   "--out", str(tmp_path / "m.shdm")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("CODE_TOO_LONG: ")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("key", ["iter", "colour", "oracle"])
    def test_config_key_no_command_takes_exit_2(self, dataset, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"bits=16\n{key}=5\n")
        out = tmp_path / "m.shdm"
        rc = main([
            "train", "--config", str(cfg),
            "--features", str(dataset / "train.shdf"),
            "--labels", str(dataset / "train_labels.tsv"),
            "--taxonomy", str(dataset / "taxonomy.tsv"),
            "--out", str(out),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "BAD_FILE_FORMAT" in err and "line 2" in err and repr(key) in err
        assert not out.exists()


class TestEncode:
    def test_config_keys_of_other_commands_not_applied(self, dataset, trained, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads=abc\nseed=4\n")
        out = tmp_path / "db.shdc"
        rc = main(["encode", "--config", str(cfg), "--model", str(trained / "model.shdm"),
                   "--features", str(dataset / "train.shdf"), "--out", str(out)])
        assert rc == 0
        effective = json.loads((tmp_path / "db.shdc.manifest.json").read_text())["effective_config"]
        assert "threads" not in effective and "seed" not in effective

    def test_reencode_identical(self, dataset, trained, tmp_path):
        out = tmp_path / "again.shdc"
        rc = main(["encode", "--model", str(trained / "model.shdm"),
                   "--features", str(dataset / "train.shdf"), "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == (trained / "db.shdc").read_bytes()

    def test_empty_features(self, trained, tmp_path):
        empty = tmp_path / "empty.shdf"
        write_features(empty, np.zeros((0, 8), np.float32))
        out = tmp_path / "empty.shdc"
        rc = main(["encode", "--model", str(trained / "model.shdm"),
                   "--features", str(empty), "--out", str(out)])
        assert rc == 0
        assert len(read_codes(out)) == 0

    def test_dim_mismatch_exit_3(self, trained, tmp_path, capsys):
        bad = tmp_path / "bad.shdf"
        write_features(bad, np.zeros((3, 5), np.float32))
        rc = main(["encode", "--model", str(trained / "model.shdm"),
                   "--features", str(bad), "--out", str(tmp_path / "o.shdc")])
        assert rc == 3
        assert "MODEL_FEATURE_DIM_MISMATCH" in capsys.readouterr().err


    def test_nan_weight_exit_4(self, dataset, trained, tmp_path, capsys):
        model = read_model(trained / "model.shdm")
        model.W[0][0, 0] = np.nan
        write_model(tmp_path / "nan.shdm", model)
        rc = main(["encode", "--model", str(tmp_path / "nan.shdm"),
                   "--features", str(dataset / "train.shdf"), "--out", str(tmp_path / "o.shdc")])
        assert rc == 4
        assert capsys.readouterr().err.startswith("NON_FINITE_INPUT: ")
        assert not any(tmp_path.glob("o.*"))

    def test_layers_that_do_not_chain_exit_2(self, dataset, tmp_path, capsys):
        model = write_unchained_model(tmp_path / "m.shdm")
        for argv in (["encode", "--model", str(model), "--features", str(dataset / "train.shdf"),
                      "--out", str(tmp_path / "o.shdc")],
                     ["inspect", str(model)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("BAD_FILE_FORMAT: ") and "do not chain" in err

    def test_zero_width_layer_exit_2(self, dataset, tmp_path, capsys):
        model = write_zero_width_model(tmp_path / "m.shdm")
        for argv in (["encode", "--model", str(model), "--features", str(dataset / "train.shdf"),
                      "--out", str(tmp_path / "o.shdc")],
                     ["inspect", str(model)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"BAD_FILE_FORMAT: {model}: all layer widths must be >= 1")
        assert not any(tmp_path.glob("o.*"))


@pytest.mark.parametrize("command, rows", [("encode", 0), ("query", 3), ("query", 0)])
def test_feature_width_mismatch_exit_3(trained, tmp_path, capsys, command, rows):
    # the one width check in encode_batch, for any number of rows
    bad = tmp_path / "bad.shdf"
    write_features(bad, np.zeros((rows, 5), np.float32))
    model = ["--model", str(trained / "model.shdm")]
    if command == "encode":
        argv = ["encode", *model, "--features", str(bad), "--out", str(tmp_path / "o.shdc")]
    else:
        argv = ["query", "--codes", str(trained / "db.shdc"), *model,
                "--query-features", str(bad), "--out", str(tmp_path / "o.tsv")]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("MODEL_FEATURE_DIM_MISMATCH: ")
    assert not any(tmp_path.glob("o.*"))


class TestQuery:
    def test_self_query_rank_one(self, trained, capsys):
        rc = main(["query", "--codes", str(trained / "db.shdc"),
                   "--query-id", "4", "--n", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "query\trank\titem_id\tdistance\tinner_product"
        first = lines[1].split("\t")
        assert first[:4] == ["4", "1", "4", "0.0"]

    def test_n_larger_than_db(self, trained, capsys):
        rc = main(["query", "--codes", str(trained / "db.shdc"),
                   "--query-id", "0", "--n", "100000"])
        assert rc == 0
        assert len(capsys.readouterr().out.splitlines()) == 81

    @pytest.mark.parametrize("flags", [[], ["--query-id", "5"]])
    def test_config_repeatable_option_exit_2(self, trained, tmp_path, capsys, flags):
        # a config value would be one string, not a list of ids
        cfg = tmp_path / "q.cfg"
        cfg.write_text("n=5\nquery-id=17\n")
        rc = main(["query", "--config", str(cfg), "--codes", str(trained / "db.shdc"), *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("BAD_FILE_FORMAT: ") and "line 2" in err and "query_id" in err

    def test_query_by_features(self, dataset, trained, tmp_path):
        out = tmp_path / "ranked.tsv"
        rc = main(["query", "--codes", str(trained / "db.shdc"),
                   "--model", str(trained / "model.shdm"),
                   "--query-features", str(dataset / "query.shdf"),
                   "--n", "5", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 12 * 5

    def test_query_id_and_query_features_exit_3(self, dataset, trained, capsys):
        rc = main(["query", "--codes", str(trained / "db.shdc"), "--query-id", "3",
                   "--model", str(trained / "model.shdm"),
                   "--query-features", str(dataset / "query.shdf")])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "not both" in captured.err

    @pytest.mark.parametrize("flags", [
        ["--query-id", "3", "--model", "model", "--query-features", "query"],
        [],
        ["--query-features", "query"],
    ], ids=["both", "neither", "features without model"])
    def test_query_flag_conflicts_exit_3(self, dataset, trained, capsys, flags):
        paths = {"model": str(trained / "model.shdm"), "query": str(dataset / "query.shdf")}
        rc = main(["query", "--codes", str(trained / "db.shdc"),
                   *(paths.get(flag, flag) for flag in flags)])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("BAD_QUERY_FLAGS: ")

    def test_unknown_query_id_exit_2(self, trained, capsys):
        rc = main(["query", "--codes", str(trained / "db.shdc"),
                   "--query-id", "5000", "--n", "1"])
        assert rc == 2
        assert "UNKNOWN_QUERY_ID" in capsys.readouterr().err

    def test_empty_database_exit_2(self, trained, tmp_path, capsys):
        empty_feats = tmp_path / "none.shdf"
        write_features(empty_feats, np.zeros((0, 8), np.float32))
        empty_db = tmp_path / "empty.shdc"
        assert main(["encode", "--model", str(trained / "model.shdm"),
                     "--features", str(empty_feats), "--out", str(empty_db)]) == 0
        rc = main(["query", "--codes", str(empty_db), "--query-id", "0", "--n", "1"])
        assert rc == 2
        assert "EMPTY_DATABASE" in capsys.readouterr().err

    def test_threads_match_serial(self, dataset, trained, tmp_path):
        common = ["query", "--codes", str(trained / "db.shdc"),
                  "--model", str(trained / "model.shdm"),
                  "--query-features", str(dataset / "query.shdf"), "--n", "7"]
        out1, out2 = tmp_path / "serial.tsv", tmp_path / "pooled.tsv"
        assert main(common + ["--threads", "1", "--out", str(out1)]) == 0
        assert main(common + ["--threads", "4", "--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()


class TestEval:
    def test_outputs(self, dataset, trained, tmp_path, capsys):
        prefix = tmp_path / "eval"
        rc = main([
            "eval",
            "--db-codes", str(trained / "db.shdc"),
            "--db-labels", str(dataset / "train_labels.tsv"),
            "--query-codes", str(trained / "q.shdc"),
            "--query-labels", str(dataset / "query_labels.tsv"),
            "--taxonomy", str(dataset / "taxonomy.tsv"),
            "--ns", "1,10", "--threads", "2",
            "--out-prefix", str(prefix),
        ])
        assert rc == 0
        summary = strict_json((tmp_path / "eval.summary.json").read_text())
        assert summary["queries"] == 12
        assert set(summary["means"]) == {"acg", "dcg", "ndcg", "weighted_recall"}
        metrics_lines = (tmp_path / "eval.metrics.csv").read_text().splitlines()
        assert metrics_lines[0] == "query_id,n,metric,value"
        # per-query rows + mean rows
        assert len(metrics_lines) == 1 + (12 + 1) * 4 * 2

        curve = (tmp_path / "eval.wr_vs_n.csv").read_text().splitlines()
        assert curve[0] == "n,mean_weighted_recall"
        ns = [int(r.split(",")[0]) for r in curve[1:]]
        assert ns == sorted(ns) and ns[0] == 1 and ns[-1] == 80
        radius = (tmp_path / "eval.wr_vs_radius.csv").read_text().splitlines()
        assert radius[0] == "radius,mean_weighted_recall"
        assert len(radius) > 1

    def _eval(self, trained, tmp_path, db_labels, query_codes, query_labels, extra=()):
        write_labels(tmp_path / "db.tsv", range(len(db_labels)), db_labels)
        write_labels(tmp_path / "q.tsv", range(len(query_labels)), query_labels)
        (tmp_path / "tax.tsv").write_text("root\ta\nroot\tb\na\tx\nb\tz\n")
        return main([
            "eval", *extra,
            "--db-codes", str(trained / "db.shdc"),
            "--db-labels", str(tmp_path / "db.tsv"),
            "--query-codes", str(query_codes),
            "--query-labels", str(tmp_path / "q.tsv"),
            "--taxonomy", str(tmp_path / "tax.tsv"),
            "--ns", "1,10", "--out-prefix", str(tmp_path / "eval"),
        ])

    def test_empty_query_set_exit_2(self, trained, tmp_path, capsys):
        write_features(tmp_path / "none.shdf", np.zeros((0, 8), np.float32))
        empty = tmp_path / "none.shdc"
        assert main(["encode", "--model", str(trained / "model.shdm"),
                     "--features", str(tmp_path / "none.shdf"), "--out", str(empty)]) == 0
        rc = self._eval(trained, tmp_path, ["x"] * 80, empty, [])
        assert rc == 2
        assert "EMPTY_INPUT" in capsys.readouterr().err
        assert not (tmp_path / "eval.summary.json").exists()

    @pytest.mark.parametrize("n_db, n_query", [(81, 12), (80, 11)])
    def test_label_count_mismatch_exit_3(self, trained, tmp_path, capsys, n_db, n_query):
        rc = self._eval(trained, tmp_path, ["x"] * n_db, trained / "q.shdc", ["z"] * n_query)
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("SHAPE_MISMATCH: ")
        assert ("database" if n_db != 80 else "query") in err
        assert not (tmp_path / "eval.summary.json").exists()

    def test_undefined_mean_written_as_null(self, trained, tmp_path, capsys):
        # every database item shares only the root with every query, so each
        # query has zero total relevance and is excluded from Weighted Recall
        rc = self._eval(trained, tmp_path, ["x"] * 80, trained / "q.shdc", ["z"] * 12)
        assert rc == 0
        summary = strict_json((tmp_path / "eval.summary.json").read_text())
        assert summary["weighted_recall_excluded_queries"] == 12
        assert summary["means"]["weighted_recall"] == {"1": None, "10": None}
        assert summary["means"]["acg"] == {"1": 0.0, "10": 0.0}
        assert "weighted_recall@10 = nan" in capsys.readouterr().out
        # an undefined mean is spelled as an undefined query cell: ""
        lines = (tmp_path / "eval.metrics.csv").read_text().splitlines()
        wr = [line for line in lines if ",weighted_recall," in line]
        assert len(wr) == 13 * 2 and all(line.endswith(",") for line in wr)
        assert "mean,10,weighted_recall," in lines and "nan" not in "".join(lines)

    def test_config_value_outside_choices_exit_2(self, trained, tmp_path, capsys):
        (tmp_path / "e.cfg").write_text("mode=shared\n")
        rc = self._eval(trained, tmp_path, ["x"] * 80, trained / "q.shdc", ["z"] * 12,
                        extra=("--config", str(tmp_path / "e.cfg")))
        assert rc == 2
        err = capsys.readouterr().err
        assert "BAD_FILE_FORMAT" in err and "hier-similarity" in err

    @pytest.mark.parametrize("ns", ["0", "81", "1,81"])
    def test_cutoff_outside_database_exit_3(self, dataset, trained, tmp_path, capsys, ns):
        rc = main([
            "eval",
            "--db-codes", str(trained / "db.shdc"),
            "--db-labels", str(dataset / "train_labels.tsv"),
            "--query-codes", str(trained / "q.shdc"),
            "--query-labels", str(dataset / "query_labels.tsv"),
            "--taxonomy", str(dataset / "taxonomy.tsv"),
            "--ns", ns, "--out-prefix", str(tmp_path / "e"),
        ])
        assert rc == 3
        assert capsys.readouterr().err.startswith("RANK_TOO_LARGE: ")
        assert not any(tmp_path.glob("e.*"))

    def test_rerun_identical_reports(self, dataset, trained, tmp_path):
        def run(prefix):
            rc = main([
                "eval",
                "--db-codes", str(trained / "db.shdc"),
                "--db-labels", str(dataset / "train_labels.tsv"),
                "--query-codes", str(trained / "q.shdc"),
                "--query-labels", str(dataset / "query_labels.tsv"),
                "--taxonomy", str(dataset / "taxonomy.tsv"),
                "--ns", "5", "--out-prefix", str(prefix),
            ])
            assert rc == 0
        run(tmp_path / "e1")
        run(tmp_path / "e2")
        for suffix in [".metrics.csv", ".summary.json", ".wr_vs_n.csv", ".wr_vs_radius.csv"]:
            assert ((tmp_path / ("e1" + suffix)).read_bytes()
                    == (tmp_path / ("e2" + suffix)).read_bytes())


class TestTextInputs:
    """Labels, taxonomy and --config files share one text rule (see shdh.io)."""

    @pytest.mark.parametrize("command, which", [
        ("train", "labels"), ("train", "taxonomy"), ("train", "config"),
        ("eval", "db-labels"), ("eval", "query-labels"), ("eval", "taxonomy"),
        ("eval", "config"),
    ])
    def test_not_utf8_exit_2(self, dataset, trained, tmp_path, capsys, command, which):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"# fine\n0\t\xffx\n")
        if command == "train":
            files = {"features": dataset / "train.shdf", "labels": dataset / "train_labels.tsv",
                     "taxonomy": dataset / "taxonomy.tsv", "out": tmp_path / "out.shdm"}
            extra = ["--bits", "16", "--hidden", "8", "--iters", "2", "--batch", "16"]
        else:
            files = {"db-codes": trained / "db.shdc", "db-labels": dataset / "train_labels.tsv",
                     "query-codes": trained / "q.shdc",
                     "query-labels": dataset / "query_labels.tsv",
                     "taxonomy": dataset / "taxonomy.tsv", "out-prefix": tmp_path / "out"}
            extra = []
        files[which] = bad
        argv = [command, *extra] + [arg for key, path in files.items()
                                    for arg in (f"--{key}", str(path))]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("BAD_FILE_FORMAT: ")
        assert f"{bad}: not UTF-8: byte 0xff at offset 9" in err
        assert not any(tmp_path.glob("out*"))

    @pytest.mark.parametrize("text, code, where", [
        ("root\ta\nroot\tb\tc\n", "BAD_FILE_FORMAT", "line 2: expected 'parent<TAB>child'"),
        ("root\ta\nroot\tb\na\tx\nb\tx\n", "DUPLICATE_EDGE", "line 4: node 'x'"),
    ])
    def test_taxonomy_error_names_the_file(self, dataset, tmp_path, capsys, text, code, where):
        tax = tmp_path / "t.tsv"
        tax.write_text(text)
        assert main(["train", "--features", str(dataset / "train.shdf"),
                     "--labels", str(dataset / "train_labels.tsv"), "--taxonomy", str(tax),
                     "--out", str(tmp_path / "m.shdm")]) == 2
        assert capsys.readouterr().err.startswith(f"{code}: {tax}: {where}")

    def test_config_byte_order_mark_dropped(self, tmp_path):
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfn-train=20\n" + f"out-dir={tmp_path / 'data'}\n".encode()
                        + b"n-query=4\ndim=3\n")
        assert main(["gen", "--config", str(cfg)]) == 0
        assert read_features(tmp_path / "data" / "train.shdf").shape == (20, 3)

    def test_crlf_config_reads_like_lf(self, tmp_path):
        for name, end in (("lf", "\n"), ("crlf", "\r\n")):
            lines = ["# a gen run", f"out-dir={tmp_path / name}", "n-train = 20", "",
                     "n-query=4", "dim=3", "seed=4"]
            (tmp_path / f"{name}.cfg").write_bytes(end.join(lines).encode() + end.encode())
            assert main(["gen", "--config", str(tmp_path / f"{name}.cfg")]) == 0
        for artifact in ("taxonomy.tsv", "train.shdf", "train_labels.tsv", "query.shdf"):
            assert (tmp_path / "crlf" / artifact).read_bytes() == \
                (tmp_path / "lf" / artifact).read_bytes()


class TestInspect:
    def test_each_format(self, dataset, trained, capsys):
        infos = {}
        for path, fmt in [(dataset / "train.shdf", "SHDF"),
                          (trained / "db.shdc", "SHDC"),
                          (trained / "model.shdm", "SHDM")]:
            rc = main(["inspect", str(path)])
            assert rc == 0
            infos[fmt] = json.loads(capsys.readouterr().out)
            assert infos[fmt]["format"] == fmt
        # the codes and the model that made them report the same layout
        fields = ("bits", "height", "scheme", "segment_widths", "segment_weights")
        assert [infos["SHDM"].get(f) for f in fields] == [infos["SHDC"][f] for f in fields]

    def test_unrecognized(self, tmp_path, capsys):
        p = tmp_path / "x.bin"
        p.write_bytes(b"JUNKDATA")
        rc = main(["inspect", str(p)])
        assert rc == 2
        assert "BAD_FILE_FORMAT" in capsys.readouterr().err


def test_nonzero_padding_bits_exit_2(tmp_path, capsys):
    layout = segment_layout(48, 4, "paper-literal")  # four 12-bit segments, 2 bytes each
    packed = random_codes(np.random.default_rng(0), layout, 6)
    path = write_dirty_codes(tmp_path / "dirty.shdc", CodeDatabase(layout=layout, packed=packed),
                             3, 3, 0x40)  # a padding bit of the second segment
    for argv in (["inspect", str(path)], ["query", "--codes", str(path), "--query-id", "0"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("BAD_FILE_FORMAT: ") and "row 3" in err


@pytest.mark.parametrize("fmt", ["codes", "model"])
@pytest.mark.parametrize("L, K", [(16, 1), (2, 4)])
def test_impossible_layout_header_exit_2(tmp_path, capsys, fmt, L, K):
    path = write_layout_header(tmp_path / "artifact", fmt, L, K)
    assert main(["inspect", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"BAD_FILE_FORMAT: {path}: layout header L={L}, K={K}")


@pytest.mark.parametrize("fmt", ["features", "codes", "model"])
def test_oversized_header_exit_2(tmp_path, capsys, fmt):
    assert main(["inspect", str(write_oversized(tmp_path / "artifact", fmt))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("BAD_FILE_FORMAT: ") and "truncated" in err


def test_unknown_flag_fails_fast(trained):
    # --oracle is gone: the brute-force scan is the tests' oracle only
    for flag in (["--bogus-flag", "1"], ["--oracle"]):
        with pytest.raises(SystemExit) as exc:
            main(["query", "--codes", str(trained / "db.shdc"), *flag])
        assert exc.value.code == 2


class TestNumericFlags:
    """Malformed numbers are validation errors: exit 3 and one CODE line."""

    def _expect_invalid(self, capsys, argv, flag):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("INVALID_NUMBER: ") and flag in err

    @pytest.mark.parametrize("flag,value", [
        ("--bits", "abc"), ("--hidden", "16,x"), ("--iters", "2.5"), ("--batch", ""),
        ("--alpha", "one"), ("--eta0", "nan"), ("--seed", "s"), ("--iters", "0"),
        ("--seed", "-1"),
    ])
    def test_train(self, dataset, tmp_path, capsys, flag, value):
        argv = ["train", "--features", str(dataset / "train.shdf"),
                "--labels", str(dataset / "train_labels.tsv"),
                "--taxonomy", str(dataset / "taxonomy.tsv"),
                "--bits", "16", "--hidden", "8", "--iters", "2", "--batch", "16",
                "--out", str(tmp_path / "m.shdm"), flag, value]
        # range errors name the TrainConfig field: --iters 0 is iters
        self._expect_invalid(capsys, argv, flag[2:] if value in ("0", "-1") else flag)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag,value", [
        ("--supers", "x"), ("--subs", "1.5"), ("--dim", "d"), ("--n-train", "many"),
        ("--n-query", "-"), ("--super-std", "abc"), ("--sub-std", "inf"),
        ("--noise-std", "?"), ("--scale", ""), ("--seed", "0x1"), ("--supers", "0"),
        ("--super-std", "-1"), ("--sub-std", "-1"), ("--noise-std", "-0.5"),
        ("--seed", "-1"),
    ])
    def test_gen(self, tmp_path, capsys, flag, value):
        argv = ["gen", "--out-dir", str(tmp_path / "g"), flag, value]
        # range errors name the config field: --supers 0 is n_super, --sub-std -1 is sub_std
        field = "n_super" if flag == "--supers" else flag[2:].replace("-", "_")
        self._expect_invalid(capsys, argv, field if value in ("0", "-1", "-0.5") else flag)
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--n", "x"), ("--n", "0"), ("--threads", "x"), ("--threads", "0"),
        ("--query-id", "first"),
    ])
    def test_query(self, trained, capsys, flag, value):
        argv = ["query", "--codes", str(trained / "db.shdc"), "--query-id", "0", flag, value]
        self._expect_invalid(capsys, argv, flag)

    def test_query_threads_env(self, trained, tmp_path, monkeypatch):
        # SHDH_THREADS is not read: a value --threads would reject is ignored
        monkeypatch.setenv("SHDH_THREADS", "x")
        out = tmp_path / "ranked.tsv"
        assert main(["query", "--codes", str(trained / "db.shdc"), "--query-id", "0",
                     "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "ranked.tsv.manifest.json").read_text())
        assert manifest["effective_config"]["threads"] is None

    def test_config_value_converted_unless_flag_given(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bits=abc\nhidden=8\niters=2\nbatch=16\n")
        argv = ["train", "--config", str(cfg), "--features", str(dataset / "train.shdf"),
                "--labels", str(dataset / "train_labels.tsv"),
                "--taxonomy", str(dataset / "taxonomy.tsv"), "--out", str(tmp_path / "m.shdm")]
        self._expect_invalid(capsys, argv, "--bits")
        assert main(argv + ["--bits", "16"]) == 0

    def test_every_numeric_option_declares_a_type(self):
        # a numeric option parsed in a command body would skip the flag checks
        _, registry = build_parser()
        for command, sub in registry.items():
            for action in sub._actions:
                default = action.default
                numeric = (isinstance(default, (int, float, tuple))
                           and not isinstance(default, bool)
                           or isinstance(default, str)
                           and all(part.strip().isdigit() for part in default.split(",")))
                if numeric:
                    assert action.type is not None, f"{command} {action.option_strings}"

    def test_eval_ns(self, dataset, trained, tmp_path, capsys):
        argv = ["eval", "--db-codes", str(trained / "db.shdc"),
                "--db-labels", str(dataset / "train_labels.tsv"),
                "--query-codes", str(trained / "q.shdc"),
                "--query-labels", str(dataset / "query_labels.tsv"),
                "--taxonomy", str(dataset / "taxonomy.tsv"),
                "--ns", "10,abc", "--out-prefix", str(tmp_path / "e")]
        self._expect_invalid(capsys, argv, "--ns")

    @pytest.mark.parametrize("ns", [",", ""])
    def test_eval_ns_empty(self, tmp_path, capsys, ns):
        # caught before any file is read: none of these files exist
        argv = ["eval", "--db-codes", str(tmp_path / "db.shdc"),
                "--db-labels", str(tmp_path / "db.tsv"),
                "--query-codes", str(tmp_path / "q.shdc"),
                "--query-labels", str(tmp_path / "q.tsv"),
                "--taxonomy", str(tmp_path / "t.tsv"),
                "--ns", ns, "--out-prefix", str(tmp_path / "e")]
        self._expect_invalid(capsys, argv, "--ns")
        assert not any(tmp_path.iterdir())

    def test_empty_hidden_is_a_linear_model(self, dataset, tmp_path):
        assert main(["train", "--features", str(dataset / "train.shdf"),
                     "--labels", str(dataset / "train_labels.tsv"),
                     "--taxonomy", str(dataset / "taxonomy.tsv"), "--bits", "16",
                     "--hidden", "", "--iters", "2", "--batch", "16",
                     "--out", str(tmp_path / "m.shdm")]) == 0
        assert read_model(tmp_path / "m.shdm").arch.hidden == ()


def test_defaults_are_the_library_defaults(tmp_path):
    # gen and train with no optional flag record SyntheticConfig() and
    # TrainConfig() field for field (train on 32 rows, to stay quick)
    assert main(["gen", "--out-dir", str(tmp_path / "g")]) == 0
    gen = json.loads((tmp_path / "g" / "gen.manifest.json").read_text())["effective_config"]
    flag = {"n_super": "supers", "n_sub": "subs"}
    assert SyntheticConfig(**{f.name: gen[flag.get(f.name, f.name)]
                              for f in dataclasses.fields(SyntheticConfig)}) == SyntheticConfig()

    write_features(tmp_path / "x.shdf", read_features(tmp_path / "g" / "train.shdf")[:32])
    ids, labels = read_labels(tmp_path / "g" / "train_labels.tsv")
    write_labels(tmp_path / "labels.tsv", ids[:32], labels[:32])
    assert main(["train", "--features", str(tmp_path / "x.shdf"),
                 "--labels", str(tmp_path / "labels.tsv"),
                 "--taxonomy", str(tmp_path / "g" / "taxonomy.tsv"),
                 "--out", str(tmp_path / "m.shdm")]) == 0
    train = json.loads((tmp_path / "m.shdm.manifest.json").read_text())["effective_config"]
    effective = {f.name: train[f.name] for f in dataclasses.fields(TrainConfig)}
    assert TrainConfig(**effective | {"hidden": tuple(train["hidden"])}) == TrainConfig()
    assert train["scheme"] == SegmentLayout.scheme
    assert read_model(tmp_path / "m.shdm").arch.hidden == TrainConfig.hidden


def test_benchmark_command_lines_parse(tmp_path, monkeypatch):
    # every shdh call of every benchmark workload parses, so a flag the
    # benchmark still passes cannot be dropped or renamed unnoticed
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.setattr(os, "environ", os.environ.copy())  # run.py sets BLAS variables
    monkeypatch.setattr(sys, "path", [str(perfbench), *sys.path])
    spec = importlib.util.spec_from_file_location("perfbench_run", perfbench / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    parser, _ = build_parser()
    parsed = set()
    for name in run.WORKLOADS:
        calls = run.stage_calls(run.workload(name), str(tmp_path), 7, [0, 1])
        for call in (call for stage in calls.values() for call in stage):
            if not call[0].startswith("setup-"):
                parser.parse_args(call)
                parsed.add(call[0])
    assert parsed >= {"train", "encode", "query", "eval"}

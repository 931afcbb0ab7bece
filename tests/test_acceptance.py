"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime. Tolerances are pinned here, not configurable."""

import time

import numpy as np

from shdh.cli import main as cli_main
from shdh.codes import (
    Architecture,
    CodeDatabase,
    encode_batch,
    init_model,
    pack_bits,
    quantize,
    segment_layout,
    unpack_bits,
)
from shdh.datagen import SyntheticConfig, generate
from shdh.hierarchy import Taxonomy, layer_weights
from shdh.index import brute_force_topn, search_radius, search_topn
from shdh.metrics import METRIC_NAMES, _cutoff_metrics, eval_queries
from shdh.train import TrainConfig, loss_terms, train
from shdh.codes import forward

from oracles import (
    acg_brute,
    dcg_brute,
    finite_diff_gradient,
    hier_similarity_brute,
    ndcg_brute,
    random_taxonomy,
    signs,
    weighted_recall_brute,
)


def report(criterion, ok, t0, limit, detail=""):
    elapsed = time.time() - t0
    line = f"[{'PASS' if ok and elapsed < limit else 'FAIL'}] {criterion} " \
           f"({elapsed:.2f}s / limit {limit:.0f}s) {detail}"
    print(line)
    assert ok, line
    assert elapsed < limit, line


def test_criterion_1_layer_weights():
    t0 = time.time()
    ok = True
    for K in range(2, 11):
        u = layer_weights(K)
        ok &= abs(u[1:].sum() - 1.0) < 1e-12
        ok &= bool(np.all(np.diff(u[1:]) < 0)) or K == 2
        ok &= u[0] == 0.0
    report("criterion 1: layer-weight suite (K=2..10)", ok, t0, 1.0)


def test_criterion_2_similarity_suite():
    t0 = time.time()
    rng = np.random.default_rng(1002)
    ok = True
    for _ in range(50):
        K = int(rng.integers(2, 7))
        parent, leaves = random_taxonomy(rng, K, max_leaves=200)
        tax = Taxonomy(parent)
        labels = list(rng.choice(leaves, size=30))
        S = tax.similarity_matrix(tax.label_rows(labels))
        ok &= bool(np.array_equal(S, S.T))
        ok &= bool(np.all(np.diag(S) == 1.0))
        ok &= bool(np.all(S >= -1.0) and np.all(S <= 1.0))
        for i, a in enumerate(labels):
            for j, b in enumerate(labels):
                ok &= S[i, j] == hier_similarity_brute(parent, K, a, b)
        if not ok:
            break
    report("criterion 2: similarity matrix vs parent-chain brute force (50 taxonomies)",
           ok, t0, 10.0)


def _grad_error(a, b):
    scale = max(1.0, np.abs(a).max(), np.abs(b).max())
    return np.abs(a - b).max() / scale


def test_criterion_3_gradients():
    t0 = time.time()
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(20):
        K = int(rng.integers(2, 5))
        scheme = rng.choice(["effective", "paper-literal"])
        n_seg = K if scheme == "paper-literal" else K - 1
        L = int(rng.integers(n_seg + 1, 13))
        n = int(rng.integers(1, 9))
        layout = segment_layout(L, K, scheme)
        H = rng.normal(size=(n, L))
        M = rng.uniform(-1, 1, size=(n, n))
        S = (M + M.T) / 2
        np.fill_diagonal(S, 1.0)
        alpha = float(rng.uniform(0, 2))
        g = loss_terms(H, S, layout, alpha)[1]
        fd = finite_diff_gradient(H, S, layout, alpha, eps=1e-4)
        worst = max(worst, _grad_error(g, fd))

    # end-to-end parameter gradients through a 2-hidden-layer network
    layout = segment_layout(6, 3)
    arch = Architecture(d=4, hidden=(5, 4), L=6)
    from shdh.train import parameter_gradients
    for trial in range(5):
        model = init_model(arch, layout, seed=trial)
        model.W[-1] = rng.normal(scale=0.3, size=model.W[-1].shape)
        model.v[-1] = rng.normal(scale=0.3, size=model.v[-1].shape)
        X = rng.normal(size=(5, 4))
        M = rng.uniform(-1, 1, size=(5, 5))
        S = (M + M.T) / 2
        np.fill_diagonal(S, 1.0)
        _, gW, gv = parameter_gradients(model, X, S, 1.0)
        eps = 1e-4
        for m in range(model.n_layers):
            for arr, grad in ((model.W[m], gW[m]), (model.v[m], gv[m])):
                flat = arr.reshape(-1)
                fd = np.empty(flat.size)
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + eps
                    jp = loss_terms(forward(model, X)[0], S, layout, 1.0)[0][0]
                    flat[idx] = orig - eps
                    jm = loss_terms(forward(model, X)[0], S, layout, 1.0)[0][0]
                    flat[idx] = orig
                    fd[idx] = (jp - jm) / (2 * eps)
                worst = max(worst, _grad_error(grad.reshape(-1), fd))

    report("criterion 3: analytic vs finite-difference gradients", worst < 1e-5,
           t0, 30.0, f"worst rel err {worst:.2e}")


def test_criterion_4_index_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(1004)
    ok = True
    for L in (32, 48, 64):
        for K in (3, 4):
            layout = segment_layout(L, K)
            bits = rng.integers(0, 2, size=(1000, L), dtype=np.uint8)
            db = CodeDatabase(layout=layout, packed=pack_bits(layout, bits))
            qbits = rng.integers(0, 2, size=(100, L), dtype=np.uint8)
            qdb = CodeDatabase(layout=layout, packed=pack_bits(layout, qbits))
            for qi in range(100):
                q = qdb.code(qi)
                fast = search_topn(db, q, 1000)
                slow = brute_force_topn(db, q, 1000)
                ok &= fast.ids == slow.ids
                ok &= bool(np.array_equal(fast.distances, slow.distances))
                if qi < 5:  # radius consistency at the top-100 cutoff
                    r = float(fast.distances[99])
                    m = int((fast.distances <= r).sum())
                    rad = search_radius(db, q, r)
                    ok &= rad.ids == fast.ids[:m]
                    ok &= bool(np.array_equal(rad.distances, fast.distances[:m]))
            if not ok:
                break
    report("criterion 4: integer-key search identical to brute-force oracle "
           "(L in {32,48,64}, K in {3,4})", ok, t0, 30.0)


def test_criterion_5_training_sanity():
    t0 = time.time()
    data = generate(SyntheticConfig(seed=7))  # 4x4 classes, 64-D, 2000/200
    tax = data.taxonomy()
    layout = segment_layout(32, tax.K)
    arch = Architecture(d=64, hidden=(512, 512), L=32)
    config = TrainConfig(iters=200, batch=128, alpha=1.0, eta0=0.01, seed=7)

    model, log = train(data.train_features, data.train_labels, tax, arch, layout, config)
    loss_decreased = log[-1].loss < log[0].loss

    db = encode_batch(model, data.train_features)
    qdb = encode_batch(model, data.query_features)
    trained_report = eval_queries(db, data.train_labels, qdb, data.query_labels,
                                  tax, mode="shared-layers", ns=[100])

    untrained = init_model(arch, layout, seed=1007)
    udb = encode_batch(untrained, data.train_features)
    uqdb = encode_batch(untrained, data.query_features)
    untrained_report = eval_queries(udb, data.train_labels, uqdb, data.query_labels,
                                    tax, mode="shared-layers", ns=[100])

    margin = trained_report.mean("ndcg", 100) - untrained_report.mean("ndcg", 100)
    ok = loss_decreased and margin >= 0.15
    report("criterion 5: training sanity at desk scale", ok, t0, 300.0,
           f"loss {log[0].loss:.2f}->{log[-1].loss:.2f}, "
           f"ndcg@100 {trained_report.mean('ndcg', 100):.3f} vs "
           f"{untrained_report.mean('ndcg', 100):.3f} (margin {margin:+.3f})")


def test_criterion_6_metrics_oracle():
    t0 = time.time()
    rng = np.random.default_rng(1006)
    ok = True
    for _ in range(100):
        N = int(rng.integers(3, 40))
        if rng.random() < 0.5:
            rels = rng.integers(0, 4, size=N).astype(float)
        else:
            rels = rng.uniform(0, 3, size=N)
        if rels.sum() == 0:
            rels[0] = 1.0
        n = int(rng.integers(1, N + 1))
        rl = rels.tolist()
        acg, dcg, ndcg, wr = _cutoff_metrics(rels, np.sort(rels)[::-1], [n])[:, 0]
        ok &= abs(acg - acg_brute(rl, n)) < 1e-9
        ok &= abs(dcg - dcg_brute(rl, n)) < 1e-9
        ok &= abs(ndcg - ndcg_brute(rl, n)) < 1e-9
        ok &= abs(wr - weighted_recall_brute(rl, n)) < 1e-9

    def at(metric, rels, n):
        rels = np.asarray(rels, dtype=np.float64)
        return _cutoff_metrics(rels, np.sort(rels)[::-1], [n])[METRIC_NAMES.index(metric), 0]

    # frozen hand examples
    ok &= at("acg", [2, 1, 0], 3) == 1.0
    ok &= at("acg", [2, 1, 0], 1) == 2.0
    ok &= abs(at("dcg", [1, 0.5, 0], 3) - 1.2613396608340124) < 1e-12
    ok &= at("dcg", [1.0], 1) == 1.0
    ok &= at("ndcg", [2, 1, 0], 3) == 1.0
    ok &= abs(at("ndcg", [0, 1, 2], 3) - 0.58688267143572) < 1e-12
    ok &= at("weighted_recall", [2, 1, 0.5], 3) == 1.0
    ok &= abs(at("weighted_recall", [2, 1, 1, 0], 2) - 0.75) < 1e-15
    ok &= abs(at("weighted_recall", [1, 2 / 3, -1], 2) - 2.5) < 1e-12
    report("criterion 6: metrics vs independent reimplementation (100 rankings)",
           ok, t0, 5.0)


def test_criterion_7_quantization_packing():
    t0 = time.time()
    rng = np.random.default_rng(1007)
    ok = True
    for L in (8, 31, 32, 33, 48, 64, 128):
        layout = segment_layout(L, 3)
        zeros = quantize(np.zeros((1, L)), layout)
        ok &= bool(np.all(signs(zeros) == -1))  # sgn(0) = -1
        bits = rng.integers(0, 2, size=(64, L), dtype=np.uint8)
        packed = pack_bits(layout, bits)
        ok &= bool(np.array_equal(unpack_bits(layout, packed), bits))
        x = rng.normal(size=L)
        code = quantize(x[None, :], layout)
        ok &= bool(np.array_equal(signs(code) == 1, x > 0))
    report("criterion 7: sgn(0) = -1 and pack/unpack round-trip "
           "(L in {8,31,32,33,48,64,128})", ok, t0, 1.0)


def test_criterion_8_reproducibility(tmp_path):
    t0 = time.time()

    def pipeline(root):
        root.mkdir()
        data = root / "data"
        assert cli_main(["gen", "--out-dir", str(data), "--supers", "2", "--subs", "2",
                         "--dim", "16", "--n-train", "300", "--n-query", "20",
                         "--seed", "3"]) == 0
        model = root / "model.shdm"
        assert cli_main(["train",
                         "--features", str(data / "train.shdf"),
                         "--labels", str(data / "train_labels.tsv"),
                         "--taxonomy", str(data / "taxonomy.tsv"),
                         "--bits", "16", "--hidden", "32,32", "--iters", "25",
                         "--batch", "32", "--seed", "3",
                         "--out", str(model)]) == 0
        for src, dst in (("train", "db"), ("query", "q")):
            assert cli_main(["encode", "--model", str(model),
                             "--features", str(data / f"{src}.shdf"),
                             "--out", str(root / f"{dst}.shdc")]) == 0
        assert cli_main(["eval",
                         "--db-codes", str(root / "db.shdc"),
                         "--db-labels", str(data / "train_labels.tsv"),
                         "--query-codes", str(root / "q.shdc"),
                         "--query-labels", str(data / "query_labels.tsv"),
                         "--taxonomy", str(data / "taxonomy.tsv"),
                         "--ns", "1,5,10", "--threads", "2",
                         "--out-prefix", str(root / "eval")]) == 0

    pipeline(tmp_path / "run1")
    pipeline(tmp_path / "run2")
    ok = True
    for name in ("model.shdm", "model.shdm.trainlog.csv", "db.shdc", "q.shdc",
                 "eval.metrics.csv", "eval.summary.json",
                 "eval.wr_vs_n.csv", "eval.wr_vs_radius.csv"):
        ok &= ((tmp_path / "run1" / name).read_bytes()
               == (tmp_path / "run2" / name).read_bytes())
    report("criterion 8: train -> encode -> eval byte-identical across reruns",
           ok, t0, 120.0)

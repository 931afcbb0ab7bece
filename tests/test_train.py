import warnings

import numpy as np
import pytest

from shdh.codes import Architecture, HashModel, forward, init_model, segment_layout
from shdh.datagen import SyntheticConfig, generate
from shdh.errors import (
    EmptyDataset,
    InvalidNumber,
    NonFiniteGradient,
    NonFiniteInput,
    ShapeMismatch,
    UnknownLabel,
)
from shdh.io import parse_taxonomy
from shdh.train import (
    TrainConfig,
    _batch_scale,
    backprop_step,
    loss_terms,
    parameter_gradients,
    train,
)

from conftest import unit_layout
from oracles import finite_diff_gradient


def grad_error(analytic, numeric):
    """Scale-normalized worst-entry disagreement."""
    scale = max(1.0, np.abs(analytic).max(), np.abs(numeric).max())
    return np.abs(analytic - numeric).max() / scale


def random_instance(rng):
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
    return H, S, layout, alpha


class TestLoss:
    def test_hand_value_at_one(self):
        layout = unit_layout()
        assert loss_terms(np.array([[1.0]]), np.array([[1.0]]), layout, alpha=1.0)[0][0] == -1.0

    def test_hand_value_at_zero(self):
        layout = unit_layout()
        assert loss_terms(np.array([[0.0]]), np.array([[1.0]]), layout, alpha=1.0)[0][0] == 1.0

    def test_exact_solution_zero_fit(self):
        # codes at +/-sqrt(2) per bit solve H A H^T = L * S for this instance
        layout = segment_layout(4, 3)  # widths (2, 2), weights (2/3, 1/3)
        h = np.sqrt(2.0)
        H = np.array([[h, h, h, h], [h, h, -h, -h]])
        S = np.array([[1.0, 1 / 3], [1 / 3, 1.0]])
        (J, fit, trace), _ = loss_terms(H, S, layout, alpha=0.0)
        assert fit == pytest.approx(0.0, abs=1e-24)
        assert J == pytest.approx(0.0, abs=1e-24)

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(0)
        H, S, layout, alpha = random_instance(rng)
        perm = rng.permutation(H.shape[0])
        a = loss_terms(H, S, layout, alpha)[0][0]
        b = loss_terms(H[perm], S[np.ix_(perm, perm)], layout, alpha)[0][0]
        assert a == pytest.approx(b, rel=1e-12)

    def test_shape_mismatch(self):
        layout = unit_layout()
        with pytest.raises(ShapeMismatch):
            loss_terms(np.zeros((2, 2)), np.eye(2), layout, 1.0)
        with pytest.raises(ShapeMismatch):
            loss_terms(np.zeros((2, 1)), np.eye(3), layout, 1.0)


class TestLossGradient:
    def test_hand_value(self):
        # J(h) = (h^2 - 1)^2 - h^2, dJ/dh = 4(h^2-1)h - 2h; at h=1 -> -2
        layout = unit_layout()
        g = loss_terms(np.array([[1.0]]), np.array([[1.0]]), layout, alpha=1.0)[1]
        assert g[0, 0] == -2.0

    def test_zero_codes_stationary_for_fit(self):
        layout = segment_layout(6, 3)
        H = np.zeros((4, 6))
        S = np.eye(4)
        g = loss_terms(H, S, layout, alpha=0.0)[1]
        np.testing.assert_array_equal(g, np.zeros_like(H))

    def test_matches_finite_differences_hand_case(self):
        layout = unit_layout()
        H = np.array([[1.0]])
        S = np.array([[1.0]])
        fd = finite_diff_gradient(H, S, layout, alpha=1.0, eps=1e-4)
        assert fd[0, 0] == pytest.approx(-2.0, abs=1e-7)

    def test_matches_finite_differences_random(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            H, S, layout, alpha = random_instance(rng)
            g = loss_terms(H, S, layout, alpha)[1]
            fd = finite_diff_gradient(H, S, layout, alpha, eps=1e-4)
            assert grad_error(g, fd) < 1e-5


class TestFiniteDiff:
    def test_second_order_accuracy(self):
        layout = unit_layout()
        H = np.array([[0.7]])
        S = np.array([[1.0]])
        exact = loss_terms(H, S, layout, 1.0)[1][0, 0]
        err1 = abs(finite_diff_gradient(H, S, layout, 1.0, eps=2e-3)[0, 0] - exact)
        err2 = abs(finite_diff_gradient(H, S, layout, 1.0, eps=1e-3)[0, 0] - exact)
        assert err2 < err1 / 3.0  # halving eps shrinks error ~4x

    def test_quadratic_entry(self):
        # with alpha=0 and S=0, J = (h^2)^2; derivative 4h^3
        layout = unit_layout()
        H = np.array([[1.5]])
        S = np.array([[0.0]])
        fd = finite_diff_gradient(H, S, layout, 0.0, eps=1e-5)
        assert fd[0, 0] == pytest.approx(4 * 1.5**3, rel=1e-6)

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(np.ones((1, 1)), np.eye(1), unit_layout(), 1.0, eps=0.0)


class TestParameterGradients:
    def test_end_to_end_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        layout = segment_layout(6, 3)
        arch = Architecture(d=4, hidden=(5, 4), L=6)
        for trial in range(5):
            model = init_model(arch, layout, seed=trial)
            # move off the tiny-positive init so ReLU kinks are not at zero
            model.W[-1] = rng.normal(scale=0.3, size=model.W[-1].shape)
            model.v[-1] = rng.normal(scale=0.3, size=model.v[-1].shape)
            X = rng.normal(size=(5, 4))
            M = rng.uniform(-1, 1, size=(5, 5))
            S = (M + M.T) / 2
            np.fill_diagonal(S, 1.0)
            alpha = 1.0

            _, gW, gv = parameter_gradients(model, X, S, alpha)

            eps = 1e-4
            for m in range(model.n_layers):
                for arr, grad in ((model.W[m], gW[m]), (model.v[m], gv[m])):
                    fd = np.empty_like(arr)
                    flat = arr.reshape(-1)
                    fd_flat = fd.reshape(-1)
                    for idx in range(flat.size):
                        orig = flat[idx]
                        flat[idx] = orig + eps
                        jp = loss_terms(forward(model, X)[0], S, layout, alpha)[0][0]
                        flat[idx] = orig - eps
                        jm = loss_terms(forward(model, X)[0], S, layout, alpha)[0][0]
                        flat[idx] = orig
                        fd_flat[idx] = (jp - jm) / (2 * eps)
                    assert grad_error(grad, fd) < 1e-5


class TestBackpropStep:
    def test_hand_single_linear_layer(self, toy3):
        # one linear layer: H = X W^T + v; dJ/dW = G^T X, dJ/dv = sum G
        layout = segment_layout(2, 2)  # one 2-bit segment, weight 1
        W = np.array([[0.3, -0.2], [0.1, 0.4]])
        v = np.array([0.05, -0.1])
        model = HashModel(layout=layout, W=[W.copy()], v=[v.copy()])
        X = np.array([[1.0, 2.0], [-1.0, 0.5]])
        S = toy3.similarity_matrix(toy3.label_rows(["rose", "tiger"]))
        config = TrainConfig(iters=1, batch=2, alpha=1.0, seed=0)
        eta = 0.01

        updated, (J, fit, trace) = backprop_step(model, X, S, config, eta)

        m = 2
        H = X @ W.T + v
        G = loss_terms(H, S, layout, alpha=1.0 * m)[1] / (layout.max_distance * m * m)
        np.testing.assert_allclose(updated.W[0], W - eta * (G.T @ X), rtol=1e-14)
        np.testing.assert_allclose(updated.v[0], v - eta * G.sum(axis=0), rtol=1e-14)
        assert J == pytest.approx(fit - trace, rel=1e-12)

    def test_eta_zero_leaves_model_unchanged(self, toy3):
        layout = segment_layout(4, 2)
        arch = Architecture(d=3, hidden=(4,), L=4)
        model = init_model(arch, layout, seed=0)
        X = np.random.default_rng(1).normal(size=(4, 3))
        S = toy3.similarity_matrix(toy3.label_rows(["rose", "sun", "tiger", "oak"]))
        config = TrainConfig(iters=1, batch=4, seed=0)
        updated, _ = backprop_step(model, X, S, config, eta=0.0)
        for a, b in zip(model.W + model.v, updated.W + updated.v):
            np.testing.assert_array_equal(a, b)

    def test_input_model_not_mutated(self, toy3):
        layout = segment_layout(4, 2)
        model = init_model(Architecture(d=3, hidden=(4,), L=4), layout, seed=0)
        before = [a.copy() for a in model.W + model.v]
        X = np.random.default_rng(2).normal(size=(4, 3))
        S = toy3.similarity_matrix(toy3.label_rows(["rose", "sun", "tiger", "oak"]))
        updated, _ = backprop_step(model, X, S, TrainConfig(iters=1, batch=4, seed=0), eta=0.5)
        for a, b in zip(before, model.W + model.v):
            assert a.tobytes() == b.tobytes()
        assert any(not np.array_equal(a, b) for a, b in zip(before, updated.W + updated.v))

    def test_update_is_w_minus_scaled_gradient_bit_for_bit(self, toy3):
        # widths (4, 5) and m = 6 make the batch scale 1 / (13/3 * 36), not
        # a power of two, so regrouping the products changes some bits
        layout = segment_layout(9, 3)
        model = init_model(Architecture(d=3, hidden=(16, 12), L=9), layout, seed=4)
        X = np.random.default_rng(5).normal(size=(6, 3))
        S = toy3.similarity_matrix(
            toy3.label_rows(["rose", "sun", "tiger", "oak", "rose", "tiger"]))
        config = TrainConfig(iters=1, batch=6, alpha=0.7, seed=0)
        eta, m = 0.3, 6
        twin = HashModel(layout=layout,
                         W=[w.copy() for w in model.W], v=[b.copy() for b in model.v])
        _, gW, gv = parameter_gradients(twin, X, S, config.alpha * m)
        scale = _batch_scale(layout, m)

        updated, _ = backprop_step(model, X, S, config, eta)

        for new, w, g in zip(updated.W + updated.v, twin.W + twin.v, gW + gv):
            assert new.tobytes() == (w - (eta * scale) * g).tobytes()

    def test_matched_pair_leaves_only_trace_gradient(self, toy3):
        # when H A H^T = L*S exactly, the fit residual vanishes and only the
        # trace term drives the code gradient
        layout = segment_layout(4, 3)
        h = np.sqrt(2.0)
        H = np.array([[h, h, h, h], [h, h, -h, -h]])
        S = np.array([[1.0, 1 / 3], [1 / 3, 1.0]])
        g = loss_terms(H, S, layout, alpha=1.0)[1]
        np.testing.assert_allclose(g, -2.0 * H * layout.A, atol=1e-12)

    def test_batch_too_small(self, toy3):
        layout = segment_layout(4, 2)
        model = init_model(Architecture(d=2, hidden=(), L=4), layout, seed=0)
        config = TrainConfig(iters=1, batch=2, seed=0)
        with pytest.raises(ShapeMismatch):
            backprop_step(model, np.ones((1, 2)), np.ones((1, 1)), config, 0.01)

    def test_nonfinite_batch_is_an_input_error(self, toy3):
        # a NaN feature is bad input, not a diverged model
        layout = segment_layout(4, 2)
        model = init_model(Architecture(d=2, hidden=(3,), L=4), layout, seed=0)
        config = TrainConfig(iters=1, batch=2, seed=0)
        X = np.array([[1.0, np.nan], [0.5, 2.0]])
        with pytest.raises(NonFiniteInput):
            backprop_step(model, X, np.ones((2, 2)), config, 0.01)

    def test_nonfinite_gradient_signaled(self, toy3):
        layout = segment_layout(4, 2)
        model = HashModel(layout=layout, W=[np.full((4, 2), 1e200)], v=[np.zeros(4)])
        config = TrainConfig(iters=1, batch=2, seed=0)
        with pytest.raises(NonFiniteGradient):
            backprop_step(model, np.ones((2, 2)), np.ones((2, 2)), config, 0.01)


class TestTrain:
    def _data(self, n=40, d=6, seed=3):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        labels = (["rose", "sun", "tiger", "oak"] * ((n + 3) // 4))[:n]
        return X, labels

    def test_t1_equals_init_plus_one_step(self, toy3):
        X, labels = self._data()
        layout = segment_layout(8, 3)
        config = TrainConfig(iters=1, batch=8, seed=11, hidden=(5,))

        model, log = train(X, labels, toy3, layout, config)

        # train steps a float32 copy of init_model's draw and widens the result
        seed_init, seed_sample = np.random.SeedSequence(11).spawn(2)
        arch = Architecture(d=6, hidden=(5,), L=8)
        expected = init_model(arch, layout, seed_init).astype(np.float32)
        rng = np.random.default_rng(seed_sample)
        idx = rng.choice(len(X), size=8, replace=False)
        S = toy3.similarity_matrix(toy3.label_rows([labels[i] for i in idx]))
        expected, stats = backprop_step(expected, X[idx], S, config, config.eta_at(0))
        expected = expected.astype(np.float64)
        for a, b in zip(model.W + model.v, expected.W + expected.v):
            np.testing.assert_array_equal(a, b)
        assert len(log) == 1 and log[0].loss == stats[0]

    def test_deterministic_given_seed(self, toy3):
        X, labels = self._data()
        layout = segment_layout(8, 3)
        config = TrainConfig(iters=12, batch=8, seed=5, hidden=(5,))
        m1, log1 = train(X, labels, toy3, layout, config)
        m2, log2 = train(X, labels, toy3, layout, config)
        assert [r.loss for r in log1] == [r.loss for r in log2]
        for a, b in zip(m1.W + m1.v, m2.W + m2.v):
            np.testing.assert_array_equal(a, b)

    def test_eta_schedule(self, toy3):
        X, labels = self._data()
        layout = segment_layout(8, 3)
        config = TrainConfig(iters=65, batch=8, eta0=0.01, seed=2, hidden=())
        _, log = train(X, labels, toy3, layout, config)
        for rec in log:
            assert rec.eta == 0.01 * (2.0 / 3.0) ** (rec.iteration // 20)
        assert [r.iteration for r in log] == list(range(65))

    def test_unknown_label(self, toy3):
        X, _ = self._data()
        layout = segment_layout(8, 3)
        with pytest.raises(UnknownLabel):
            train(X, ["daisy"] * len(X), toy3, layout,
                  TrainConfig(iters=1, batch=8, seed=0, hidden=()))

    def test_nan_feature_row_rejected_for_every_seed(self, toy3):
        # the whole feature matrix is checked, not only the rows a seed samples
        X, labels = self._data(n=2000)
        X[1234, 0] = np.nan
        layout = segment_layout(8, 3)
        for seed in range(8):
            with pytest.raises(NonFiniteInput):
                train(X, labels, toy3, layout,
                      TrainConfig(iters=20, batch=64, seed=seed, hidden=(5,)))

    def test_empty_dataset(self, toy3):
        layout = segment_layout(8, 3)
        with pytest.raises(EmptyDataset):
            train(np.zeros((0, 6)), [], toy3, layout,
                  TrainConfig(iters=1, batch=8, seed=0, hidden=()))

    @pytest.mark.parametrize("d, hidden, L", [(6, (5,), 8), (3, (), 12), (6, (7, 4), 9)])
    def test_widths_come_from_the_inputs(self, toy3, d, hidden, L):
        X, labels = self._data(d=d)
        model, _ = train(X, labels, toy3, segment_layout(L, 3),
                         TrainConfig(iters=1, batch=8, hidden=hidden))
        assert model.arch == Architecture(d=d, hidden=hidden, L=L)

    def test_zero_column_features_rejected(self, toy3):
        _, labels = self._data()
        with pytest.raises(ShapeMismatch, match="all layer widths must be >= 1"):
            train(np.zeros((40, 0)), labels, toy3, segment_layout(8, 3),
                  TrainConfig(iters=1, batch=8))

    def test_loss_decreases_on_separable_synthetic(self):
        # 2 superclasses x 2 subclasses, as in the module example
        data = generate(SyntheticConfig(n_super=2, n_sub=2, dim=16,
                                        n_train=400, n_query=0, seed=9))
        tax = parse_taxonomy("".join(f"{p}\t{c}\n" for p, c in data.taxonomy_edges))
        layout = segment_layout(16, tax.K)
        config = TrainConfig(iters=200, batch=128, seed=9, hidden=(64, 64))
        _, log = train(data.train_features, data.train_labels, tax, layout, config)
        losses = [r.loss for r in log]
        assert np.mean(losses[-10:]) < losses[0]

    def test_config_hidden_checked_first(self):
        assert TrainConfig().iters == 200 and TrainConfig().hidden == (512, 512)
        for hidden in ((0,), (8, -1)):
            with pytest.raises(ShapeMismatch, match="all layer widths must be >= 1"):
                TrainConfig(iters=0, hidden=hidden)

    def test_config_validation(self):
        with pytest.raises(InvalidNumber):
            TrainConfig(iters=0)
        with pytest.raises(InvalidNumber):
            TrainConfig(iters=1, batch=1)
        with pytest.raises(InvalidNumber):
            TrainConfig(iters=1, eta0=0.0)
        with pytest.raises(InvalidNumber):
            TrainConfig(iters=1, seed=-1)
        with pytest.raises(InvalidNumber):
            TrainConfig(iters=1, eta0=float("nan"))
        with pytest.raises(InvalidNumber):
            TrainConfig(iters=1, alpha=float("nan"))


class TestBatchObjective:
    def test_normalization_formula(self, toy3):
        # backprop_step reports the raw objective with alpha scaled by the
        # batch size m, divided by W m^2 (W = layout.max_distance)
        rng = np.random.default_rng(19)
        layout = segment_layout(8, 3)
        model = init_model(Architecture(d=4, hidden=(5,), L=8), layout, seed=3)
        X = rng.normal(size=(6, 4))
        S = toy3.similarity_matrix(
            toy3.label_rows(["rose", "sun", "tiger", "oak", "rose", "tiger"]))
        config = TrainConfig(iters=1, batch=6, alpha=1.5, seed=0)
        _, (J, fit, trace) = backprop_step(model, X, S, config, eta=0.01)
        (raw_J, raw_fit, raw_trace), _ = loss_terms(forward(model, X)[0], S, layout,
                                                     alpha=1.5 * 6)
        scale = 1.0 / (layout.max_distance * 6 * 6)
        assert J == raw_J * scale
        assert fit == raw_fit * scale
        assert trace == raw_trace * scale


class TestFloat32Training:
    """train runs the network in float32; loss_terms stays float64."""

    def test_gradients_match_float64(self):
        # the worst entry of each gradient, relative to the largest float64
        # entry, differs by at most 1e-5 (float32 rounding gives about 4e-7)
        rng = np.random.default_rng(3)
        layout = segment_layout(12, 3)
        arch = Architecture(d=8, hidden=(16, 12), L=12)
        for seed in range(5):
            model = init_model(arch, layout, seed=seed)
            model.W[-1] = rng.normal(scale=0.3, size=model.W[-1].shape)
            model.v[-1] = rng.normal(scale=0.3, size=model.v[-1].shape)
            X = rng.normal(size=(16, 8))
            M = rng.uniform(-1, 1, size=(16, 16))
            S = (M + M.T) / 2
            np.fill_diagonal(S, 1.0)
            stats64, gW64, gv64 = parameter_gradients(model, X, S, 1.0)
            stats32, gW32, gv32 = parameter_gradients(model.astype(np.float32), X, S, 1.0)
            assert stats32[0] == pytest.approx(stats64[0], rel=1e-6)
            for g32, g64 in zip(gW32 + gv32, gW64 + gv64):
                assert g32.dtype == np.float32
                assert np.abs(g32 - g64).max() / np.abs(g64).max() < 1e-5

    def test_step_keeps_float32_and_stats_float64(self, toy3):
        layout = segment_layout(4, 2)
        model = init_model(Architecture(d=3, hidden=(4,), L=4), layout, seed=0)
        X = np.random.default_rng(1).normal(size=(4, 3))
        S = toy3.similarity_matrix(toy3.label_rows(["rose", "sun", "tiger", "oak"]))
        updated, stats = backprop_step(model.astype(np.float32), X, S,
                                       TrainConfig(iters=1, batch=4, seed=0), eta=0.01)
        assert all(a.dtype == np.float32 for a in updated.W + updated.v)
        assert all(type(x) is float for x in stats)

    def test_train_returns_float64(self, toy3):
        X = np.random.default_rng(3).normal(size=(40, 6)).astype(np.float32)
        labels = ["rose", "sun", "tiger", "oak"] * 10
        model, _ = train(X, labels, toy3, segment_layout(8, 3),
                         TrainConfig(iters=3, batch=8, seed=1, hidden=(5,)))
        assert all(a.dtype == np.float64 for a in model.W + model.v)

    @pytest.mark.parametrize("weight", [1e10, 3e38])
    def test_huge_weights_raise_without_warning(self, weight):
        # 1e10 overflows only in the float32 cast of dJ/dH, 3e38 already in
        # the forward pass; pyproject.toml makes a RuntimeWarning an error
        layout = segment_layout(4, 2)
        arch = Architecture(d=2, hidden=(3,), L=4)
        model = HashModel(layout=layout,
                          W=[np.full(dims, weight, np.float32) for dims in arch.layer_dims],
                          v=[np.zeros(dims[0], np.float32) for dims in arch.layer_dims])
        config = TrainConfig(iters=1, batch=2, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteGradient):
                backprop_step(model, np.ones((2, 2)), np.ones((2, 2)), config, 0.01)

    def test_features_past_float32_rejected(self, toy3):
        X = np.random.default_rng(3).normal(size=(40, 6))
        X[7, 2] = 1e39
        labels = ["rose", "sun", "tiger", "oak"] * 10
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInput):
                train(X, labels, toy3, segment_layout(8, 3),
                      TrainConfig(iters=1, batch=8, seed=0, hidden=()))

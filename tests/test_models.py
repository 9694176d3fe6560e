"""Dummies, linear regression, the MLP, Adam, and the checkpoint format."""

import numpy as np
import pytest

from fedcharge.models import (
    DummyGaussianModel,
    DummyMeanModel,
    LinearRegressor,
    MlpRegressor,
    MlpSpec,
    adam_step,
    arch_hash,
    checkpoint_bytes,
    get_params,
    init_adam,
    load_checkpoint,
    save_checkpoint,
    set_params,
    softplus,
)

MICRO_SPEC = MlpSpec(
    numeric_input_dim=3,
    embedding_cardinality=2,
    embedding_dim=2,
    hidden=(4, 3, 2),
    dropout_rate=0.0,
)


def fd_gradient(model, X, st, y, eps=1e-6):
    """Central finite differences of batch-mean MSE over all parameters."""
    base = model.values.copy()
    grad = np.zeros_like(base)
    for i in range(base.size):
        model.values = base.copy()
        model.values[i] += eps
        up = np.mean((model.predict(X, st) - y) ** 2)
        model.values = base.copy()
        model.values[i] -= eps
        down = np.mean((model.predict(X, st) - y) ** 2)
        grad[i] = (up - down) / (2 * eps)
    model.values = base
    return grad


def rel_error(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)


class TestDummies:
    def test_mean_predictor(self):
        model = DummyMeanModel().fit([8.0, 10.0])
        np.testing.assert_array_equal(model.predict(np.zeros((4, 2))), [9, 9, 9, 9])

    def test_mean_train_mae_is_mad(self):
        rng = np.random.default_rng(0)
        y = rng.uniform(0, 20, size=50)
        model = DummyMeanModel().fit(y)
        preds = model.predict(np.zeros((50, 1)))
        mad = np.mean(np.abs(y - y.mean()))
        assert np.mean(np.abs(preds - y)) == pytest.approx(mad, abs=1e-12)

    def test_mean_prediction_ignores_inputs(self):
        model = DummyMeanModel().fit([4.0, 6.0])
        a = model.predict(np.zeros((3, 7)))
        b = model.predict(np.full((3, 7), 123.0))
        np.testing.assert_array_equal(a, b)

    def test_gaussian_zero_sigma(self):
        model = DummyGaussianModel(seed=1).fit([5.0, 5.0, 5.0])
        np.testing.assert_array_equal(model.predict(np.zeros((6, 1))), np.full(6, 5.0))

    def test_gaussian_clt_bound(self):
        rng = np.random.default_rng(1)
        y = rng.normal(9, 3, size=400)
        model = DummyGaussianModel(seed=2).fit(y)
        draws = model.predict(np.zeros((100_000, 1)))
        mu, sigma = y.mean(), y.std()
        assert abs(draws.mean() - mu) < 3 * sigma / np.sqrt(100_000)

    def test_gaussian_seeded_sequence(self):
        y = [1.0, 2.0, 9.0]
        a = DummyGaussianModel(seed=7).fit(y).predict(np.zeros((10, 1)))
        b = DummyGaussianModel(seed=7).fit(y).predict(np.zeros((10, 1)))
        np.testing.assert_array_equal(a, b)

    def test_gaussian_not_clamped_at_zero(self):
        model = DummyGaussianModel(seed=3).fit([0.5, 1.0, 1.5])
        draws = model.predict(np.zeros((5000, 1)))
        assert np.any(draws < 0.0)

    def test_fit_empty_raises(self):
        with pytest.raises(ValueError):
            DummyMeanModel().fit([])


class TestLinear:
    def test_zero_weights_constant_prediction(self):
        model = LinearRegressor(3, seed=0)
        model.values = np.array([0.0, 0.0, 0.0, 2.5])
        np.testing.assert_array_equal(model.predict(np.ones((4, 3))), np.full(4, 2.5))

    def test_bias_gradient_single_sample(self):
        # d/db (y - b)^2 at w=0, b=0 is -2y.
        model = LinearRegressor(2, seed=0)
        model.values = np.zeros(3)
        _, grad = model.loss_and_grad(np.array([[1.0, 2.0]]), None, np.array([3.0]))
        assert grad[-1] == pytest.approx(-6.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            model = LinearRegressor(4, seed=trial)
            X = rng.normal(size=(6, 4))
            y = rng.normal(size=6)
            _, analytic = model.loss_and_grad(X, None, y)
            assert rel_error(analytic, fd_gradient(model, X, None, y)) < 1e-6

    def test_dimension_mismatch(self):
        model = LinearRegressor(3, seed=0)
        with pytest.raises(ValueError):
            model.predict(np.ones((2, 5)))


class TestMlp:
    def test_output_nonnegative_fuzz(self):
        rng = np.random.default_rng(3)
        model = MlpRegressor(MICRO_SPEC, seed=0)
        X = rng.normal(scale=20, size=(500, 3))
        st = rng.integers(0, 3, size=500)
        assert np.all(model.predict(X, st) >= 0.0)

    def test_eval_forward_bitwise_deterministic(self):
        rng = np.random.default_rng(4)
        model = MlpRegressor(MICRO_SPEC, seed=1)
        X = rng.normal(size=(8, 3))
        st = rng.integers(0, 3, size=8)
        np.testing.assert_array_equal(model.predict(X, st), model.predict(X, st))

    def test_zero_dropout_train_equals_eval(self):
        rng = np.random.default_rng(5)
        model = MlpRegressor(MICRO_SPEC, seed=2)
        X = rng.normal(size=(8, 3))
        st = rng.integers(0, 3, size=8)
        train_preds, _ = model.forward_train(X, st, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(train_preds, model.predict(X, st))

    def test_dropout_scales_and_masks(self):
        spec = MlpSpec(numeric_input_dim=3, embedding_cardinality=2,
                       embedding_dim=2, hidden=(16,), dropout_rate=0.5)
        model = MlpRegressor(spec, seed=3)
        rng = np.random.default_rng(6)
        X = rng.normal(size=(4, 3))
        st = rng.integers(0, 3, size=4)
        _, cache = model.forward_train(X, st, rng=np.random.default_rng(1))
        mask = cache["masks"][0]
        assert set(np.unique(mask)).issubset({0.0, 2.0})  # inverted dropout 1/(1-p)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            model = MlpRegressor(MICRO_SPEC, seed=trial)
            X = rng.normal(size=(5, 3))
            st = rng.integers(0, 3, size=5)
            y = np.abs(rng.normal(size=5)) * 3
            _, analytic = model.loss_and_grad(X, st, y, rng=None)
            assert rel_error(analytic, fd_gradient(model, X, st, y)) < 1e-6

    def test_zero_residual_zero_gradient(self):
        rng = np.random.default_rng(8)
        model = MlpRegressor(MICRO_SPEC, seed=4)
        X = rng.normal(size=(6, 3))
        st = rng.integers(0, 3, size=6)
        y = model.predict(X, st)
        _, grad = model.loss_and_grad(X, st, y, rng=None)
        np.testing.assert_allclose(grad, 0.0, atol=1e-15)

    def test_unused_embedding_rows_zero_gradient(self):
        rng = np.random.default_rng(9)
        model = MlpRegressor(MICRO_SPEC, seed=5)
        X = rng.normal(size=(6, 3))
        st = np.zeros(6, dtype=int)
        y = rng.uniform(1, 5, size=6)
        _, grad = model.loss_and_grad(X, st, y, rng=None)
        sl, shape = model.layout.slices["embed"]
        embed_grad = grad[sl].reshape(shape)
        assert np.any(embed_grad[0] != 0.0)
        np.testing.assert_array_equal(embed_grad[1:], 0.0)

    def test_unknown_station_uses_reserved_row(self):
        model = MlpRegressor(MICRO_SPEC, seed=6)
        X = np.zeros((1, 3))
        assert model.predict(X, np.array([model.unknown_index])).size == 1
        with pytest.raises(ValueError):
            model.predict(X, np.array([model.unknown_index + 1]))

    def test_seeded_init_reproducible(self):
        a = MlpRegressor(MICRO_SPEC, seed=11)
        b = MlpRegressor(MICRO_SPEC, seed=11)
        np.testing.assert_array_equal(a.values, b.values)
        c = MlpRegressor(MICRO_SPEC, seed=12)
        assert np.any(c.values != a.values)

    def test_sgd_descent_on_fixed_batch(self):
        rng = np.random.default_rng(10)
        model = MlpRegressor(MICRO_SPEC, seed=7)
        X = rng.normal(size=(16, 3))
        st = rng.integers(0, 3, size=16)
        y = np.abs(rng.normal(size=16)) * 5
        loss0, grad = model.loss_and_grad(X, st, y, rng=None)
        model.values = model.values - 1e-3 * grad
        loss1, _ = model.loss_and_grad(X, st, y, rng=None)
        assert loss1 < loss0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MlpSpec(numeric_input_dim=0, embedding_cardinality=2)
        with pytest.raises(ValueError):
            MlpSpec(numeric_input_dim=3, embedding_cardinality=2, dropout_rate=1.0)


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        values = np.array([1.0, -2.0])
        state = init_adam(2, lr=1e-3)
        out = adam_step(values, np.zeros(2), state)
        np.testing.assert_array_equal(out, values)

    def test_first_step_is_lr_times_sign(self):
        # Bias correction gives m_hat = g, v_hat = g^2, so the first update is
        # -lr * g / (|g| + eps) which is about -lr * sign(g).
        values = np.zeros(3)
        grads = np.array([0.5, -2.0, 10.0])
        state = init_adam(3, lr=1e-3)
        out = adam_step(values, grads, state)
        np.testing.assert_allclose(out, -1e-3 * np.sign(grads), rtol=1e-6)

    def test_scalar_quadratic_convergence(self):
        # Oracle: minimize f(w) = (w - 3)^2 from w = 0. Adam's per-step
        # displacement is bounded by lr, so lr must be sized to the distance;
        # 1e-2 settles well inside 5000 steps (1e-3 verifiably cannot).
        w = np.array([0.0])
        state = init_adam(1, lr=1e-2)
        for _ in range(5000):
            grad = 2 * (w - 3.0)
            w = adam_step(w, grad, state)
        assert abs(w[0] - 3.0) < 0.01

    def test_layout_mismatch(self):
        with pytest.raises(ValueError):
            adam_step(np.zeros(3), np.zeros(2), init_adam(3, lr=1e-3))


class TestParamsAndCheckpoints:
    def test_get_set_roundtrip_bitwise(self):
        model = MlpRegressor(MICRO_SPEC, seed=8)
        before = model.values.copy()
        snapshot = get_params(model)
        model.values = model.values + 1.0
        set_params(model, snapshot)
        np.testing.assert_array_equal(model.values, before)

    def test_snapshot_is_immutable(self):
        model = LinearRegressor(2, seed=0)
        snapshot = get_params(model)
        with pytest.raises(ValueError):
            snapshot.values[0] = 99.0

    def test_averaging_identical_params_is_identity(self):
        model = MlpRegressor(MICRO_SPEC, seed=9)
        p = get_params(model)
        mean = (p.values + p.values) / 2
        np.testing.assert_array_equal(mean, p.values)

    def test_set_params_layout_mismatch(self):
        a = LinearRegressor(2, seed=0)
        b = LinearRegressor(3, seed=0)
        with pytest.raises(ValueError):
            set_params(a, get_params(b))

    def test_serialized_length(self):
        model = LinearRegressor(5, seed=1)
        blob = checkpoint_bytes(get_params(model), model.spec_dict())
        header = 8 + 4 + 32 + 8
        assert len(blob) == header + 8 * model.layout.total

    def test_checkpoint_roundtrip_lossless(self, tmp_path):
        model = MlpRegressor(MICRO_SPEC, seed=10)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, get_params(model), model.spec_dict())
        loaded = load_checkpoint(path, model.spec_dict(), model.layout)
        np.testing.assert_array_equal(loaded.values, model.values)

    def test_checkpoint_arch_mismatch(self, tmp_path):
        model = LinearRegressor(4, seed=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, get_params(model), model.spec_dict())
        other = LinearRegressor(5, seed=2)
        with pytest.raises(ValueError):
            load_checkpoint(path, other.spec_dict(), other.layout)

    def test_arch_hash_stable(self):
        assert arch_hash({"kind": "lr", "input_dim": 3}) == arch_hash(
            {"input_dim": 3, "kind": "lr"}
        )

    def test_arch_hash_pinned(self):
        # Checkpoints written by earlier versions must keep loading.
        mlp = MlpRegressor(MlpSpec(numeric_input_dim=36, embedding_cardinality=20))
        assert arch_hash(mlp.spec_dict()).hex() == (
            "aca304a21bd00da933b88bbca49030d303f400743531bf935174bae226e6ca39"
        )
        assert arch_hash(LinearRegressor(36).spec_dict()).hex() == (
            "64b75a1eb1eb6c35be17096f7e48a433599852895027e7d3fd912f473fa8f92e"
        )

    def test_checkpoint_shorter_than_header(self, tmp_path):
        model = LinearRegressor(4, seed=2)
        path = tmp_path / "model.ckpt"
        path.write_bytes(checkpoint_bytes(get_params(model), model.spec_dict())[:51])
        with pytest.raises(ValueError, match="model.ckpt: 51 bytes, shorter than"):
            load_checkpoint(path, model.spec_dict(), model.layout)

    def test_checkpoint_body_not_whole_floats(self, tmp_path):
        model = LinearRegressor(4, seed=2)
        path = tmp_path / "model.ckpt"
        path.write_bytes(checkpoint_bytes(get_params(model), model.spec_dict())[:-3])
        with pytest.raises(ValueError, match="model.ckpt: checkpoint body is not a whole"):
            load_checkpoint(path, model.spec_dict(), model.layout)


class TestSoftplus:
    def test_range_and_stability(self):
        z = np.array([-1000.0, -10.0, 0.0, 10.0, 1000.0])
        out = softplus(z)
        assert np.all(out >= 0.0) and np.all(np.isfinite(out))
        assert out[2] == pytest.approx(np.log(2), abs=1e-12)
        assert out[4] == pytest.approx(1000.0, abs=1e-9)

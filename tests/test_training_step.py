"""The MLP training step against its allocating reference, buffer aliasing,
and the training outputs it must keep byte for byte.

* Loss, gradient, and several Adam steps (values and both moments) equal
  models_reference.py bit for bit, for any batch size, dropout and spec.
* `values` of the MLP and of linear regression is a bound buffer: gradients,
  snapshots and set_params sources never share memory with it, and a
  wrong-shape assignment raises.
* `train` outputs of one small depot keep the digests they had when each
  step still allocated its views, gradient and Adam arrays.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import models_reference as ref
from fedcharge.cli import dispatch
from fedcharge.federation import train_one_epoch
from fedcharge.models import (
    LinearRegressor,
    MlpRegressor,
    MlpSpec,
    ModelParameters,
    adam_step,
    get_params,
    init_adam,
    set_params,
)

MICRO_SPEC = MlpSpec(numeric_input_dim=3, embedding_cardinality=2, embedding_dim=2,
                     hidden=(4, 3, 2), dropout_rate=0.0)
DEFAULT_SPEC = MlpSpec(numeric_input_dim=36, embedding_cardinality=20)


def bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


def make(kind: str, seed: int):
    if kind == "mlp":
        return MlpRegressor(MICRO_SPEC, seed=seed)
    return LinearRegressor(MICRO_SPEC.numeric_input_dim, seed=seed)


def batch(spec: MlpSpec, n: int, seed: int):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, spec.numeric_input_dim))
    stations = rng.integers(0, spec.embedding_cardinality + 1, size=n)
    y = np.abs(rng.normal(size=n)) * 5
    return X, stations, y


@settings(max_examples=30, deadline=None)
@given(
    base=st.sampled_from([MICRO_SPEC, DEFAULT_SPEC]),
    dropout=st.sampled_from([0.0, 0.2, 0.5]),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**16),
    lr=st.sampled_from([1e-3, 3e-2]),
)
def test_step_matches_reference_bitwise(base, dropout, n, seed, lr):
    spec = MlpSpec(base.numeric_input_dim, base.embedding_cardinality, base.embedding_dim,
                   base.hidden, dropout)
    model, oracle = MlpRegressor(spec, seed=seed), MlpRegressor(spec, seed=seed)
    adam, oracle_adam = init_adam(model.layout.total, lr), ref.init_adam(model.layout.total, lr)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for step in range(3):
        X, stations, y = batch(spec, n, seed + step)
        loss, grad = model.loss_and_grad(X, stations, y, rng)
        want_loss, want_grad = ref.loss_and_grad(oracle, X, stations, y, oracle_rng)
        assert bits(loss) == bits(want_loss)
        assert bits(grad) == bits(want_grad)
        assert adam_step(model.values, grad, adam) is model.values
        oracle.values = ref.adam_step(oracle.values.copy(), want_grad, oracle_adam)
        assert bits(model.values) == bits(oracle.values)
        assert bits(adam.m) == bits(oracle_adam.m)
        assert bits(adam.v) == bits(oracle_adam.v)


def test_dropout_mask_draws_the_reference_stream():
    spec = MlpSpec(3, 2, 2, (16, 8), 0.5)
    model = MlpRegressor(spec, seed=3)
    X, stations, _ = batch(spec, 9, 1)
    _, cache = model.forward_train(X, stations, np.random.default_rng(1))
    _, want = ref.forward(model, X, stations, True, np.random.default_rng(1))
    for got, expected in zip(cache["masks"], want["masks"]):
        assert bits(got) == bits(expected)


@pytest.mark.parametrize("z", [0.0, 745.0, -745.0, 1e308, -1e308, np.nan])
@pytest.mark.parametrize("n", [1, 2])
def test_output_layer_matches_reference_bitwise(z, n):
    """The output layer's one exp against the reference's softplus and
    sigmoid, where exp(-|z|) is 1, subnormal or 0, and at NaN. The last
    layer's weights are zero, so its bias is the output pre-activation. (That
    cannot be -0.0: a product sums from +0.0, and +0.0 + -0.0 is +0.0.)"""
    model = MlpRegressor(MICRO_SPEC, seed=7)
    w, b = model.layout.views(model.values)[f"w{model.n_layers - 1}"], model.values[-1:]
    w[...], b[...] = 0.0, z
    X, stations, y = batch(MICRO_SPEC, n, 8)
    with np.errstate(all="ignore"):  # the loss overflows at 1e308
        _, cache = model.forward_train(X, stations, None)
        preds = model.predict(X, stations)
        want_preds = ref.forward(model, X, stations, False, None)[0]
        loss, grad = model.loss_and_grad(X, stations, y, None)
        want_loss, want_grad = ref.loss_and_grad(model, X, stations, y, None)
    assert bits(cache["pre"][-1][:, 0]) == bits(np.full(n, z))
    assert bits(preds) == bits(want_preds)
    assert bits(loss) == bits(want_loss)
    assert bits(grad) == bits(want_grad)


def test_layout_tables_are_computed_once():
    layout = MlpRegressor(MICRO_SPEC).layout
    assert layout.slices is layout.slices
    assert layout.sizes is layout.sizes


class TestBufferAliasing:
    def test_gradients_are_independent_arrays(self):
        model = MlpRegressor(MICRO_SPEC, seed=1)
        X, stations, y = batch(MICRO_SPEC, 6, 2)
        _, first = model.loss_and_grad(X, stations, y, None)
        kept = first.copy()
        _, second = model.loss_and_grad(X[:3], stations[:3], y[:3] + 1.0, None)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, model.values)
        assert bits(first) == bits(kept)
        assert bits(second) != bits(kept)

    @pytest.mark.parametrize("kind", ["mlp", "lr"])
    def test_snapshot_unchanged_by_later_steps(self, kind):
        model = make(kind, seed=2)
        snapshot = get_params(model)
        kept = snapshot.values.copy()
        X, stations, y = batch(MICRO_SPEC, 12, 3)
        adam = init_adam(model.layout.total, 1e-2)
        for e in range(3):
            train_one_epoch(model, X, stations, y, 4, adam, np.random.default_rng(e))
        assert bits(snapshot.values) == bits(kept)
        assert bits(model.values) != bits(kept)

    @pytest.mark.parametrize("kind", ["mlp", "lr"])
    def test_set_params_source_unchanged_by_training(self, kind):
        model = make(kind, seed=4)
        source = np.linspace(-0.5, 0.5, model.layout.total)
        params = ModelParameters(layout=model.layout, values=source)
        set_params(model, params)
        X, stations, y = batch(MICRO_SPEC, 12, 5)
        train_one_epoch(model, X, stations, y, 4, init_adam(model.layout.total, 1e-2),
                        np.random.default_rng(0))
        assert bits(params.values) == bits(source)
        assert bits(source) == bits(np.linspace(-0.5, 0.5, model.layout.total))
        assert bits(model.values) != bits(source)

    @pytest.mark.parametrize("kind", ["mlp", "lr"])
    def test_assignment_copies_into_the_bound_buffer(self, kind):
        model = make(kind, seed=5)
        buffer = model.values
        new = np.zeros(model.layout.total)
        model.values = new
        assert model.values is buffer and not np.shares_memory(buffer, new)
        # The prediction reads the buffer: all-zero parameters predict a constant.
        X, stations, _ = batch(MICRO_SPEC, 4, 6)
        want = np.log(2.0) if kind == "mlp" else 0.0  # softplus(0), or w.x + b = 0
        np.testing.assert_array_equal(model.predict(X, stations), np.full(4, want))

    @pytest.mark.parametrize("kind", ["mlp", "lr"])
    @pytest.mark.parametrize("shape", ["short", "row", "column", "scalar"])
    def test_wrong_shape_assignment_raises(self, kind, shape):
        model = make(kind, seed=6)
        n = model.layout.total
        before = model.values.copy()
        wrong = {"short": (n - 1,), "row": (1, n), "column": (n, 1), "scalar": ()}[shape]
        with pytest.raises(ValueError, match="parameter vector of shape"):
            model.values = np.zeros(wrong)
        assert bits(model.values) == bits(before)


# sha256 of the `train` outputs on `synth --seed 5 --stations 5
# --sessions-per-station 12:16`, written while every step still allocated.
PINNED = {
    ("federated", "mlp"): {
        "rounds.csv": "cf9a0c168087ca44bb38eaf7e6773feb3950999c3aab04d293ca48595a9e9061",
        "model.ckpt": "8d16181032046241840bffceb4064bb5a52f5f0c0de2f06f3a271a915979e132",
        "predictions.csv": "e8aa0a32cafab5c0c5da40393d8321ce7f564eba035c44c71d1233e814d496ee",
        "summary.json": "704a537fe7149effc5c72223dcf7ab8911a836fdf57998cb9dc4d6b1c4ec1aa9",
    },
    ("federated", "lr"): {
        "rounds.csv": "426e90f8dfbc1c17308a78213f1bfacb2d0ac3512161a5d12b0244d16235bbc3",
        "model.ckpt": "557781216f9106202b315f2a062f2b2d895d2c164e23e25e893d33f5b7da896a",
        "predictions.csv": "236f0cc86cdbc937ef29ef614d5e71b6edb91ab00e332383c1ff7cb5009ee348",
        "summary.json": "80e33899b324e1f398b510df42849ccd98c46fdf612a3d6b3136cc5bf5257913",
    },
    ("centralized", "mlp"): {
        "rounds.csv": "8c51c1fcbc7fcff3322f2be3eb7cea5edfe48bda74257e2eabed34d34ea4eee7",
        "model.ckpt": "902246fd4c4b6c726efc68780daaf233322cfcb809b0f0deb36bbbea1026069f",
        "predictions.csv": "160501d80401094ae9806aaa5bf18f375c2840646427f8c9339099b26fde0a85",
        "summary.json": "ca7da394aef972f8f72b5e5ff24ebe2db9e16dabb5825f39df20d2f974752667",
    },
    ("centralized", "lr"): {
        "rounds.csv": "94a65757daaa25152ed76e403f710737066f53148bba7020dff92407b5c28f53",
        "model.ckpt": "973bd1cffeec52b0a34fb7aed1999193a61f6d590b82bda948ec7f077967a69b",
        "predictions.csv": "e1c5e2a0bcee9ed4f1b6bd28d3e879040dee1707dc3ae826898cc1b8f504a0f2",
        "summary.json": "c348ff267934932b4b0650cb82cf28567c0e1c56ad2065447edc8abbea73a580",
    },
}
RUN_FLAGS = {
    "federated": ["--rounds", "4", "--local-epochs", "2", "--fraction", "0.6"],
    "centralized": ["--epochs", "4"],
}


@pytest.fixture(scope="module")
def pinned_features(tmp_path_factory):
    out = tmp_path_factory.mktemp("pinned")
    assert dispatch(["synth", "--seed", "5", "--stations", "5",
                     "--sessions-per-station", "12:16", "--out", str(out / "depot")]) == 0
    assert dispatch(["featurize", "--in", str(out / "depot"), "--out", str(out / "feats")]) == 0
    return out / "feats" / "features.csv"


@pytest.mark.parametrize("mode, model", sorted(PINNED))
def test_train_outputs_match_pinned_digests(pinned_features, tmp_path, mode, model):
    assert dispatch(["train", "--features", str(pinned_features), "--mode", mode,
                     "--model", model, *RUN_FLAGS[mode], "--batch-size", "16",
                     "--seed", "3", "--out", str(tmp_path)]) == 0
    for name, digest in PINNED[(mode, model)].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

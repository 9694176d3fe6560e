"""The benchmark's traced run still reaches every training layer it wraps.

bench/layers.py wraps functions at the names their callers look up. A
refactor that stops calling through one of those names would silently time
that layer as zero; here it fails instead.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import layers  # noqa: E402
from spans import Tracer, patched  # noqa: E402

from fedcharge import pool  # noqa: E402
from fedcharge.cli import dispatch  # noqa: E402

TRAINING_SPANS = ("models.forward", "models.loss_and_grad", "models.adam", "models.predict",
                  "federation.local_train")


@pytest.fixture(scope="module")
def features(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    assert dispatch(["synth", "--seed", "5", "--stations", "5",
                     "--sessions-per-station", "12:16", "--out", str(out / "depot")]) == 0
    assert dispatch(["featurize", "--in", str(out / "depot"), "--out", str(out / "feats")]) == 0
    return str(out / "feats" / "features.csv")


@pytest.fixture(scope="module")
def traced(features, tmp_path_factory):
    out = tmp_path_factory.mktemp("traced-runs")
    tracer = Tracer()
    with patched(tracer, layers.TARGETS):
        assert dispatch(["train", "--features", features, "--mode", "federated",
                         "--model", "mlp", "--rounds", "2", "--out", str(out / "fed")]) == 0
        assert dispatch(["train", "--features", features, "--mode", "centralized",
                         "--model", "mlp", "--epochs", "1", "--out", str(out / "central")]) == 0
    return tracer


@pytest.mark.parametrize("name", TRAINING_SPANS)
def test_each_training_layer_records_spans(traced, name):
    assert any(span.name == name for span in traced.spans)


def test_layer_metrics_are_nonzero(traced):
    metrics = layers.pass_metrics(traced)
    for metric in ("models.forward_s", "models.backward_s", "models.adam_s",
                   "models.predict_s", "federation.local_train_s"):
        assert metrics[metric] > 0, metric
    # Every gradient the model computes is applied by one Adam step.
    adam_steps = sum(span.name == "models.adam" for span in traced.spans)
    assert metrics["models.grad_calls"] == adam_steps > 0


def test_traced_run_with_several_clients_a_round_stays_whole(features, tmp_path):
    """Untraced, 3 clients a round train in forked workers. A traced run
    wraps local_train, so it trains them in this process, and every client
    update and gradient step is counted."""
    tracer = Tracer()
    with patched(tracer, layers.TARGETS):
        assert dispatch(["train", "--features", features, "--mode", "federated",
                         "--model", "mlp", "--rounds", "2", "--fraction", "0.6",
                         "--out", str(tmp_path)]) == 0
    metrics = layers.pass_metrics(tracer)
    rounds, m = 2, 3
    assert metrics["federation.client_updates"] == rounds * m
    adam_steps = sum(span.name == "models.adam" for span in tracer.spans)
    assert metrics["models.grad_calls"] == adam_steps > 0


def test_traced_centralized_run_stays_in_this_process(features, tmp_path, monkeypatch):
    """Untraced, the epochs train in a forked worker. A traced run wraps
    adam_step and local_train, so they train in this process, where every
    forward, backward and Adam step is recorded."""
    dispatched, original = [], pool.ClientPool.dispatch

    def spy(self, *args):
        dispatched.append(args[0])
        return original(self, *args)

    monkeypatch.setattr(pool.ClientPool, "dispatch", spy)
    tracer = Tracer()
    with patched(tracer, layers.TARGETS):
        assert dispatch(["train", "--features", features, "--mode", "centralized",
                         "--model", "mlp", "--epochs", "3", "--batch-size", "16",
                         "--out", str(tmp_path)]) == 0
    assert dispatched == []
    metrics = layers.pass_metrics(tracer)
    for metric in ("models.forward_s", "models.backward_s", "models.adam_s"):
        assert metrics[metric] > 0, metric
    adam_steps = sum(span.name == "models.adam" for span in tracer.spans)
    assert metrics["models.grad_calls"] == adam_steps > 3

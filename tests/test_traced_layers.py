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

from fedcharge.cli import dispatch  # noqa: E402

TRAINING_SPANS = ("models.forward", "models.loss_and_grad", "models.adam", "models.predict",
                  "federation.local_train")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    assert dispatch(["synth", "--seed", "5", "--stations", "5",
                     "--sessions-per-station", "12:16", "--out", str(out / "depot")]) == 0
    assert dispatch(["featurize", "--in", str(out / "depot"), "--out", str(out / "feats")]) == 0
    features = str(out / "feats" / "features.csv")
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

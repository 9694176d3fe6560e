"""Per-layer metrics of a traced pass: which functions the traced run wraps,
and how each metric is derived from the spans of one pass.

Each wrapped name is the one its caller looks up, so a layer is timed exactly
where the layer above calls into it. A CLI command's own span is "cli.<metric>"
(see run.py); cli.self_s is what those spans spend outside every wrapped call.
"""

from __future__ import annotations

import statistics

from spans import Tracer


def _written(tracer, args, result):
    tracer.notes["written"].append(args[0])


def _parsed(tracer, args, result):
    tracer.notes["parsed"].append(args[0])
    tracer.counts["parse_issues"] += len(result.issues)


def _retained(tracer, args, result):
    tracer.counts["retain_in"] += len(args[0])
    tracer.counts["retain_out"] += len(result.sessions)


def _analyzed(tracer, args, result):
    tracer.counts["permutations"] += result.n_permutations


def _grad(tracer, args, result):
    tracer.counts["grad_calls"] += 1
    tracer.counts["grad_rows"] += len(args[1])          # args[0] is the model


def _update(tracer, args, result):
    tracer.counts["client_updates"] += 1
    # One float64 parameter vector down to the client and one back up.
    tracer.counts["bytes_exchanged"] += 2 * 8 * result.values.size


# (where the caller looks the name up, span name, count callback)
TARGETS = [
    ("fedcharge.ingest:generate_synthetic", "ingest.generate_synthetic", None),
    ("fedcharge.ingest:write_sessions", "ingest.write", _written),
    ("fedcharge.ingest:write_timeseries", "ingest.write", _written),
    ("fedcharge.ingest:parse_sessions", "ingest.parse_sessions", _parsed),
    ("fedcharge.ingest:parse_timeseries", "ingest.parse_timeseries", _parsed),
    ("fedcharge.cli:retain_sessions", "sessions.retain", _retained),
    ("fedcharge.cli:build_feature_table", "features.build_table", None),
    ("fedcharge.cli:write_features", "features.write", None),
    ("fedcharge.cli:read_features", "features.read", None),
    ("fedcharge.heterogeneity:analyze_partition", "heterogeneity.analyze_partition", _analyzed),
    ("fedcharge.heterogeneity:permutation_null", "heterogeneity.permutation_null", None),
    ("fedcharge.evaluation:run_experiment", "evaluation.run_experiment", None),
    ("fedcharge.evaluation:prepare_splits", "evaluation.prepare_splits", None),
    ("fedcharge.evaluation:run_federated", "federation.run_federated", None),
    ("fedcharge.evaluation:run_centralized", "federation.run_centralized", None),
    ("fedcharge.federation:sample_clients", "federation.sample_clients", None),
    ("fedcharge.federation:local_train", "federation.local_train", _update),
    ("fedcharge.federation:aggregate", "federation.aggregate", None),
    ("fedcharge.federation:adam_step", "models.adam", None),
    ("fedcharge.models:MlpRegressor.forward_train", "models.forward", None),
    ("fedcharge.models:MlpRegressor.loss_and_grad", "models.loss_and_grad", _grad),
    ("fedcharge.models:MlpRegressor.predict", "models.predict", None),
    ("fedcharge.models:save_checkpoint", "models.checkpoint", None),
]

# Untraced command times, reported alongside the layers in a traced run.
COMMANDS = ("synth", "featurize", "analyze", "train_fed", "train_central")
COMMAND_UNITS = {f"{c}_s": "s" for c in COMMANDS}

# Every per-layer metric a traced run prints, with its unit.
LAYER_UNITS = {
    **COMMAND_UNITS,
    "ingest.generate_synthetic_s": "s",
    "ingest.write_s": "s",
    "ingest.rows_written": "count",
    "ingest.parse_sessions_s": "s",
    "ingest.parse_timeseries_s": "s",
    "ingest.rows_parsed": "count",
    "ingest.parse_issues": "count",
    "sessions.retain_s": "s",
    "sessions.retained_ratio": "ratio",
    "features.build_table_s": "s",
    "features.write_s": "s",
    "features.read_s": "s",
    "heterogeneity.permutation_null_s": "s",
    "heterogeneity.permutations": "count",
    "heterogeneity.per_client_js_s": "s",
    "evaluation.prepare_splits_s": "s",
    "evaluation.run_experiment_s": "s",
    "models.forward_s": "s",
    "models.backward_s": "s",
    "models.adam_s": "s",
    "models.predict_s": "s",
    "models.checkpoint_s": "s",
    "models.grad_calls": "count",
    "models.rows_per_grad_call": "rows",
    "federation.local_train_s": "s",
    "federation.aggregate_s": "s",
    "federation.server_s": "s",
    "federation.round_p50_ms": "ms",
    "federation.round_p95_ms": "ms",
    "federation.client_updates": "count",
    "federation.bytes_exchanged": "bytes_computed",
    "cli.self_s": "s",
    "process.cpu_util": "ratio",
    "trace.overhead_pct": "%",
}

# metric -> (span name, "total" or "self"), summed over the pass.
_TIMED = {
    "ingest.generate_synthetic_s": ("ingest.generate_synthetic", "total"),
    "ingest.write_s": ("ingest.write", "total"),
    "ingest.parse_sessions_s": ("ingest.parse_sessions", "total"),
    "ingest.parse_timeseries_s": ("ingest.parse_timeseries", "total"),
    "sessions.retain_s": ("sessions.retain", "total"),
    "features.build_table_s": ("features.build_table", "total"),
    "features.write_s": ("features.write", "total"),
    "features.read_s": ("features.read", "total"),
    "heterogeneity.permutation_null_s": ("heterogeneity.permutation_null", "total"),
    "heterogeneity.per_client_js_s": ("heterogeneity.analyze_partition", "self"),
    "evaluation.prepare_splits_s": ("evaluation.prepare_splits", "total"),
    "evaluation.run_experiment_s": ("evaluation.run_experiment", "self"),
    "models.forward_s": ("models.forward", "total"),
    "models.backward_s": ("models.loss_and_grad", "self"),
    "models.adam_s": ("models.adam", "total"),
    "models.predict_s": ("models.predict", "total"),
    "models.checkpoint_s": ("models.checkpoint", "total"),
    "federation.local_train_s": ("federation.local_train", "total"),
    "federation.aggregate_s": ("federation.aggregate", "total"),
}


def csv_data_rows(path) -> int:
    """Lines after the header of a CSV file."""
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def round_times(tracer: Tracer) -> list[float]:
    """A round runs from one sample_clients call to the next (the last one to
    the end of run_federated), independent of the program's own round clock.
    """
    return tracer.rounds("federation.run_federated", "federation.sample_clients")


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Span-derived metrics of one traced pass (everything but the round
    percentiles, process and overhead figures, which pool several passes).
    """
    own = tracer.self_times()
    total: dict[str, float] = {}
    self_: dict[str, float] = {}
    for span, t in zip(tracer.spans, own):
        total[span.name] = total.get(span.name, 0.0) + span.duration
        self_[span.name] = self_.get(span.name, 0.0) + t
    out = {
        metric: (total if kind == "total" else self_).get(name, 0.0)
        for metric, (name, kind) in _TIMED.items()
    }
    counts = tracer.counts
    out.update({
        "ingest.rows_written": sum(csv_data_rows(p) for p in tracer.notes["written"]),
        "ingest.rows_parsed": sum(csv_data_rows(p) for p in tracer.notes["parsed"]),
        "ingest.parse_issues": counts["parse_issues"],
        "sessions.retained_ratio": (counts["retain_out"] / counts["retain_in"]
                                    if counts["retain_in"] else 0.0),
        "heterogeneity.permutations": counts["permutations"],
        "models.grad_calls": counts["grad_calls"],
        "models.rows_per_grad_call": (counts["grad_rows"] / counts["grad_calls"]
                                      if counts["grad_calls"] else 0.0),
        "federation.server_s": sum(round_times(tracer)) - total.get("federation.local_train", 0.0),
        "federation.client_updates": counts["client_updates"],
        "federation.bytes_exchanged": counts["bytes_exchanged"],
        "cli.self_s": sum(t for name, t in self_.items() if name.startswith("cli.")),
    })
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}

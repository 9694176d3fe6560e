"""Tests of the benchmark's own logic.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import checks  # noqa: E402
import layers  # noqa: E402
import run as bench  # noqa: E402
import stats  # noqa: E402
from spans import Tracer, patched  # noqa: E402
from workloads import ROOT, WORKLOADS, Workload, _write_table, use_checkout_src  # noqa: E402

use_checkout_src()
import fedcharge.cli as cli  # noqa: E402
from fedcharge.ingest import SyntheticDepotSpec  # noqa: E402


# ---------------------------------------------------------------------------
# The percentile rule


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_percentile_interpolates_linearly():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 95) == pytest.approx(4.8)
    assert stats.percentile([7.0], 95) == 7.0


# ---------------------------------------------------------------------------
# Spans


def _clock(*ticks):
    return iter(ticks).__next__


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3].
    tracer = Tracer(clock=_clock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0))
    with tracer.span("a"):
        with tracer.span("b"):
            with tracer.span("c"):
                pass
        with tracer.span("d"):
            pass
    assert [s.name for s in tracer.spans] == ["a", "b", "c", "d"]
    assert tracer.self_times() == [3.0, 2.0, 1.0, 4.0]
    metrics = layers.pass_metrics(tracer)
    assert metrics["cli.self_s"] == 0.0


def test_rounds_run_from_marker_to_marker_then_to_loop_end():
    tracer = Tracer(clock=_clock(0.0, 1.0, 1.5, 4.0, 4.5, 6.0, 6.5, 10.0))
    with tracer.span("federation.run_federated"):
        for _ in range(3):
            with tracer.span("federation.sample_clients"):
                pass
    assert layers.round_times(tracer) == [3.0, 2.0, 4.0]


def test_patched_wraps_the_callers_name_and_restores_it():
    original = cli.build_feature_table
    tracer = Tracer()
    with patched(tracer, [("fedcharge.cli:build_feature_table", "features.build_table", None)]):
        assert cli.build_feature_table is not original
        cli.build_feature_table([], {}, None)
    assert cli.build_feature_table is original
    assert [s.name for s in tracer.spans] == ["features.build_table"]


# ---------------------------------------------------------------------------
# Output checks


def _tiny_workload(tmp_path: Path) -> tuple[Workload, Path]:
    inputs = tmp_path / "inputs"
    _write_table(inputs / "features.csv", SyntheticDepotSpec(
        n_stations=3, sessions_per_station=(6, 8), seed=1,
    ))
    workload = Workload(
        name="tiny",
        why="test",
        build=lambda inputs, offset: None,
        commands=lambda inputs, out, offset: [
            ("analyze", ["analyze", "--features", str(inputs / "features.csv"),
                         "--permutations", "20", "--out", str(out / "het")]),
        ],
        outputs=("het/heterogeneity.json",),
    )
    return workload, inputs


def test_corrupted_output_counts_as_failed_pass(tmp_path, monkeypatch):
    workload, inputs = _tiny_workload(tmp_path)
    run = bench.Run(workload, 1, inputs, tmp_path / "pass", cli)
    assert not run.one_pass().problems

    real_dispatch = cli.dispatch

    def corrupting_dispatch(argv):
        code = real_dispatch(argv)
        out = Path(argv[argv.index("--out") + 1]) / "heterogeneity.json"
        out.write_text(out.read_text().replace("IID", "non-IID", 1))
        return code

    monkeypatch.setattr(cli, "dispatch", corrupting_dispatch)
    result = run.one_pass()
    assert result.problems == ["het/heterogeneity.json: differs from the first pass"]
    assert (run.attempted, run.failed) == (2, 1)


def test_pinned_field_exit_code_and_crash_are_checked(tmp_path, monkeypatch):
    workload, inputs = _tiny_workload(tmp_path)
    run = bench.Run(workload, 1, inputs, tmp_path / "pass", cli)
    run.pins = {"outputs": {"het/heterogeneity.json": {"classification": "neither"}}}
    (problem,) = run.one_pass().problems
    assert problem.startswith("het/heterogeneity.json: classification is")

    run.workload = replace(workload, commands=lambda inputs, out, offset: [
        ("analyze", ["analyze", "--features", str(inputs / "missing.csv"),
                     "--out", str(out / "het")]),
    ])
    problems = run.one_pass().problems
    assert problems[0] == "analyze: exit 2"

    def crashing_dispatch(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "dispatch", crashing_dispatch)
    assert run.one_pass().problems[0] == "analyze: exit RuntimeError: boom"
    assert (run.attempted, run.failed) == (3, 3)


def test_pins_apply_at_offset_zero_only():
    assert checks.load_pins("depot-etl", 0)["outputs"]
    assert checks.load_pins("depot-etl", 3) == {}


# ---------------------------------------------------------------------------
# The manifest matches what the runs print


def test_manifest_names_every_metric_and_workload():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == layers.LAYER_UNITS
    assert {w["name"]: w["why"] for w in manifest["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}

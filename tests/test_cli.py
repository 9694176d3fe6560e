"""End-to-end CLI behavior: composition, exit codes, reproducibility."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import fedcharge
from fedcharge.cli import SCHEMA, STAGES, _kind, build_parser, dispatch
from fedcharge.features import read_features
from fedcharge.models import MODEL_KINDS


def run_module(argv):
    """`python -m fedcharge argv` in a fresh interpreter that imports this checkout."""
    src = str(Path(fedcharge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "fedcharge", *argv],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def depot_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("depot")
    code = dispatch([
        "synth", "--seed", "7", "--stations", "6",
        "--sessions-per-station", "10:14", "--out", str(out),
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def features_dir(depot_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("features")
    code = dispatch(["featurize", "--in", str(depot_dir), "--out", str(out)])
    assert code == 0
    return out


class TestHappyPath:
    def test_synth_outputs(self, depot_dir):
        assert (depot_dir / "sessions.csv").exists()
        assert (depot_dir / "timeseries.csv").exists()
        assert (depot_dir / "config.json").exists()

    def test_ingest_composes(self, depot_dir, tmp_path):
        out = tmp_path / "clean"
        assert dispatch(["ingest", "--in", str(depot_dir), "--out", str(out)]) == 0
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["n_retained"] > 0

    def test_featurize_outputs(self, features_dir):
        header = (features_dir / "features.csv").read_text().splitlines()[0]
        assert header.startswith("session_id,station_id,target,")

    def test_analyze_outputs(self, features_dir, tmp_path):
        out = tmp_path / "het"
        code = dispatch([
            "analyze", "--features", str(features_dir / "features.csv"),
            "--permutations", "30", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "heterogeneity.json").read_text())
        assert payload["classification"] in ("IID", "non-IID")
        assert payload["n_permutations"] == 30
        assert len(payload["ranked_clients"]) == payload["n_clients"]

    def test_train_federated_mlp(self, features_dir, tmp_path):
        out = tmp_path / "run"
        code = dispatch([
            "train", "--features", str(features_dir / "features.csv"),
            "--mode", "federated", "--model", "mlp",
            "--rounds", "3", "--local-epochs", "1", "--seed", "0",
            "--out", str(out),
        ])
        assert code == 0
        rounds = (out / "rounds.csv").read_text().splitlines()
        assert rounds[0] == "round,val_mae,val_rmse,test_mae,test_rmse,clients"
        assert len(rounds) == 4
        assert (out / "model.ckpt").exists()
        assert (out / "predictions.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mode"] == "federated"

    def test_evaluate_and_report(self, features_dir, tmp_path):
        eval_out = tmp_path / "eval"
        code = dispatch([
            "evaluate", "--features", str(features_dir / "features.csv"),
            "--mode", "centralized", "--model", "dummy-mean",
            "--seeds", "0,1", "--out", str(eval_out),
        ])
        assert code == 0
        report_out = tmp_path / "report"
        code = dispatch([
            "report", "--reports", str(eval_out / "run_report.json"),
            "--out", str(report_out),
        ])
        assert code == 0
        assert (report_out / "results.csv").exists()
        assert (report_out / "results.json").exists()


PIPELINE = """
import sys
from fedcharge.cli import dispatch
for argv in (
    "synth --seed 5 --stations 5 --sessions-per-station 12:16 --out depot",
    "featurize --in depot --out feats",
    "analyze --features feats/features.csv --out het",
    "train --features feats/features.csv --mode federated --model mlp --rounds 2 --out fed",
    "train --features feats/features.csv --mode centralized --model mlp --epochs 2 --out cen",
    "evaluate --features feats/features.csv --mode centralized --model mlp --seeds 0,1 --out ev",
    "report --reports ev/run_report.json --out res",
):
    assert dispatch(argv.split()) == 0, argv
print("numpy.ma" in sys.modules)
"""


def test_the_pipeline_never_imports_numpy_ma(tmp_path):
    """Not even for the imputer's medians: np.nanmedian imports numpy.ma, by
    np.ma.median under 600 rows and by np.median's NaN check from there on.
    The import costs a fresh process about 13 ms and 1.3 MB."""
    src = str(Path(fedcharge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", PIPELINE], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


class TestExitCodes:
    def test_invalid_fraction_names_field(self, features_dir, tmp_path, capsys):
        code = dispatch([
            "train", "--features", str(features_dir / "features.csv"),
            "--mode", "federated", "--model", "lr",
            "--fraction", "1.5", "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert "client_fraction" in capsys.readouterr().err

    @pytest.mark.parametrize("bins", ["0", "-3"])
    def test_nonpositive_bins_names_field(self, features_dir, tmp_path, capsys, bins):
        code = dispatch([
            "analyze", "--features", str(features_dir / "features.csv"),
            "--bins", bins, "--out", str(tmp_path / "het"),
        ])
        assert code == 1
        assert f"bins must be a positive integer, got {bins}" in capsys.readouterr().err

    def test_more_bins_than_rows_names_field(self, features_dir, tmp_path, capsys):
        # 1e8 bins once asked for a 59.6 GiB count matrix and died with a traceback.
        features = features_dir / "features.csv"
        rows = len(features.read_text().splitlines()) - 1
        assert rows > 50
        for bins in (rows + 1, 100_000_000):
            code = dispatch(["analyze", "--features", str(features), "--bins", str(bins),
                             "--out", str(tmp_path / "het")])
            assert code == 1
            assert capsys.readouterr().err == (
                f"error: heterogeneity.bins: {bins} is above both the {rows} rows of "
                f"{features} and the default 50\n")
        assert not (tmp_path / "het" / "heterogeneity.json").exists()

    def test_the_default_bins_stay_valid_on_a_small_table(self, features_dir, tmp_path,
                                                          capsys):
        # 20 rows, fewer than the default 50 bins: analyzed as before.
        path = tmp_path / "features.csv"
        lines = (features_dir / "features.csv").read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:21]))
        assert dispatch(["analyze", "--features", str(path), "--out", str(tmp_path / "a")]) == 0
        assert dispatch(["analyze", "--features", str(path), "--bins", "51",
                         "--out", str(tmp_path / "b")]) == 1
        assert "heterogeneity.bins: 51 is above both" in capsys.readouterr().err

    @pytest.mark.parametrize("permutations", ["1", "0", "-2"])
    def test_too_few_permutations_names_field(self, features_dir, tmp_path, capsys,
                                              permutations):
        code = dispatch(["analyze", "--features", str(features_dir / "features.csv"),
                         "--permutations", permutations, "--out", str(tmp_path / "het")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: heterogeneity.permutations: need at least 2 permutations, "
            f"got {permutations}\n")

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("model", MODEL_KINDS)
    @pytest.mark.parametrize("rate", ["1.0", "-0.5", "7"])
    def test_a_dropout_outside_0_1_names_the_key(self, tmp_path, capsys, command, model,
                                                 rate):
        """Refused for every model kind before the features file is read: lr
        and the dummies once wrote the rate into config.json and exited 0."""
        code = dispatch([command, "--features", str(tmp_path / "missing.csv"),
                         "--mode", "centralized", "--model", model, "--dropout", rate,
                         "--out", str(tmp_path / "run")])
        assert (code, capsys.readouterr().err) == (
            1, f"error: train.dropout: {float(rate)!r} is outside [0, 1)\n")
        assert not (tmp_path / "run").exists()

    def test_a_dropout_from_the_config_file_is_checked(self, features_dir, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train": {"dropout": 1}}))
        code = dispatch(["train", "--config", str(config), "--features",
                         str(features_dir / "features.csv"), "--mode", "centralized",
                         "--model", "lr", "--out", str(tmp_path / "run")])
        assert (code, capsys.readouterr().err) == (
            1, "error: train.dropout: 1.0 is outside [0, 1)\n")

    def test_analyze_on_one_station_names_the_file(self, features_dir, tmp_path, capsys):
        """The null over one client is identically 0, so its verdict would be IID
        whatever the data."""
        lines = (features_dir / "features.csv").read_text().splitlines(keepends=True)
        station = lines[1].split(",")[1]
        path = tmp_path / "features.csv"
        path.write_text("".join([lines[0], *(l for l in lines[1:] if l.split(",")[1] == station)]))
        code = dispatch(["analyze", "--features", str(path), "--out", str(tmp_path / "het")])
        assert (code, capsys.readouterr().err) == (
            1, f"error: {path}: rows from 1 station; the heterogeneity analysis "
               "compares at least 2\n")
        assert not (tmp_path / "het").exists()

    @pytest.mark.parametrize("command", ["featurize", "ingest"])
    @pytest.mark.parametrize("minutes", ["1e308", "1.5e12"])
    def test_window_longer_than_a_timedelta_names_field(self, depot_dir, tmp_path, capsys,
                                                         command, minutes):
        code = dispatch([command, "--in", str(depot_dir), "--early-window-minutes", minutes,
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: early_window_minutes={float(minutes)!r} is longer than a timedelta "
            "holds (999999999 days, 23:59:59.999999)\n")

    @pytest.mark.parametrize("case", ["voltage", "current"])
    def test_a_feature_that_overflows_is_refused(self, depot_dir, tmp_path, case):
        """featurize writes no features.csv that analyze and train would
        reject: an energy or a std past the float range exits 1 naming the
        session and the column, with no numpy warning (a fresh interpreter
        shows them as the CLI's user would see them)."""
        argv = ["featurize", "--in", str(depot_dir), "--nominal-voltage-v", "1e308"]
        expected = "error: session 'ST000-0000': early_energy_kwh is not finite\n"
        if case == "current":  # a current whose square overflows the std
            depot = tmp_path / "depot"
            depot.mkdir()
            (depot / "sessions.csv").write_text(
                "session_id,site_id,station_id,connection_time,disconnect_time,"
                "delivered_energy_kwh,requested_energy_kwh,available_minutes,requested_departure\n"
                "ok,x,ST1,2019-01-07T08:30:00Z,,9.0,,,\ns1,x,ST1,2019-01-07T08:30:00Z,,9.0,,,\n")
            rows = [f"{sid},2019-01-07T08:3{k}:00Z,{current},32.0\n" for sid, currents in
                    (("ok", [16.0] * 5), ("s1", [1e200, 3e200, 1e200, 2e200, 1e200]))
                    for k, current in enumerate(currents)]
            (depot / "timeseries.csv").write_text(
                "session_id,timestamp,current_a,pilot_a\n" + "".join(rows))
            argv = ["featurize", "--in", str(depot)]
            expected = "error: session 's1': current_std is not finite\n"
        proc = run_module([*argv, "--out", str(tmp_path / "feats")])
        assert (proc.returncode, proc.stderr) == (1, expected)
        assert not (tmp_path / "feats" / "features.csv").exists()

    def test_help_exits_zero(self):
        assert dispatch(["--help"]) == 0
        assert dispatch(["train", "--help"]) == 0

    def test_python_dash_m_runs_the_cli(self):
        proc = run_module(["--help"])
        assert proc.returncode == 0, proc.stderr
        assert "featurize" in proc.stdout

    def test_unknown_subcommand(self):
        assert dispatch(["frobnicate"]) == 1

    def test_missing_input_file_is_io_error(self, tmp_path):
        code = dispatch([
            "featurize", "--sessions", str(tmp_path / "nope.csv"),
            "--timeseries", str(tmp_path / "nope2.csv"), "--out", str(tmp_path / "y"),
        ])
        assert code == 2

    def test_empty_input_dir_names_every_file_looked_for(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert dispatch(["featurize", "--in", str(empty), "--out", str(tmp_path / "y")]) == 2
        assert capsys.readouterr().err == (
            f"i/o error: no sessions.csv, sessions.jsonl, sessions.ndjson or sessions.json "
            f"under {empty}\n")

    def test_strict_mode_aborts_on_junk(self, tmp_path):
        sessions = tmp_path / "sessions.csv"
        sessions.write_text(
            "session_id,site_id,station_id,connection_time,disconnect_time,"
            "delivered_energy_kwh,requested_energy_kwh,available_minutes,requested_departure\n"
            "s1,x,ST1,garbage,,1.0,,,\n"
        )
        series = tmp_path / "timeseries.csv"
        series.write_text("session_id,timestamp,current_a,pilot_a\n")
        code = dispatch([
            "featurize", "--sessions", str(sessions), "--timeseries", str(series),
            "--strict", "--out", str(tmp_path / "z"),
        ])
        assert code == 1


class TestNothingRetained:
    """A time-series file that leaves no session fails the command, after the
    report of why is written."""

    @pytest.mark.parametrize("command", ["featurize", "ingest"])
    @pytest.mark.parametrize("contents", ["", "session_id,timestamp,current_a,pilot_a\r\n"],
                             ids=["empty", "header only"])
    def test_exits_1_naming_the_file_and_the_drops(self, depot_dir, tmp_path, capsys,
                                                     command, contents):
        series = tmp_path / "timeseries.csv"
        series.write_text(contents, newline="")
        out = tmp_path / "out"
        code = dispatch([command, "--sessions", str(depot_dir / "sessions.csv"),
                         "--timeseries", str(series), "--out", str(out)])
        assert code == 1
        report = json.loads((out / f"{command}_report.json").read_text())
        n = report["n_session_rows"]
        assert n > 0 and report["n_retained"] == 0 and report["dropped"] == {"missing_series": n}
        assert capsys.readouterr().err == (
            f"error: no session retained from {series} (0 sessions with readings): dropped "
            f"{{'missing_series': {n}}}; see {out / f'{command}_report.json'}\n")
        assert sorted(p.name for p in out.iterdir()) == [f"{command}_report.json"]


def _edit_features(features_dir, tmp_path, line: int, edit) -> str:
    """A copy of features.csv with one physical line (1-based) changed."""
    lines = (features_dir / "features.csv").read_text().splitlines()
    cells = lines[line - 1].split(",")
    lines[line - 1] = ",".join(edit(cells))
    path = tmp_path / "features.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestBadFeatures:
    def _set(self, column, value):
        def edit(cells):
            cells[column] = value
            return cells
        return edit

    def test_inf_feature_cell_names_line(self, features_dir, tmp_path, capsys):
        path = _edit_features(features_dir, tmp_path, 3, self._set(5, "inf"))
        code = dispatch([
            "train", "--features", path, "--mode", "centralized", "--model", "lr",
            "--out", str(tmp_path / "run"),
        ])
        assert code == 1
        assert f"{path}:3: current_min is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["train", "--mode", "centralized", "--model", "lr"], ["analyze"],
    ], ids=["train", "analyze"])
    def test_nan_target_names_line(self, features_dir, tmp_path, capsys, command):
        path = _edit_features(features_dir, tmp_path, 4, self._set(2, "nan"))
        code = dispatch([*command, "--features", path, "--out", str(tmp_path / "run")])
        assert code == 1
        assert f"{path}:4: target is not finite" in capsys.readouterr().err

    def test_unparsable_cell_names_line(self, features_dir, tmp_path, capsys):
        path = _edit_features(features_dir, tmp_path, 3, self._set(7, "abc"))
        code = dispatch(["analyze", "--features", path, "--out", str(tmp_path / "het")])
        assert code == 1
        assert f"{path}:3: could not convert string to float: 'abc'" in capsys.readouterr().err

    def test_short_row_names_line(self, features_dir, tmp_path, capsys):
        path = _edit_features(features_dir, tmp_path, 2, lambda cells: cells[:-1])
        code = dispatch(["analyze", "--features", path, "--out", str(tmp_path / "het")])
        assert code == 1
        assert f"{path}:2: expected 39 cells, got 38" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["train", "--mode", "centralized", "--model", "lr"], ["analyze"],
    ], ids=["train", "analyze"])
    def test_huge_field_names_line(self, features_dir, tmp_path, capsys, command):
        limit = csv.field_size_limit()
        path = _edit_features(features_dir, tmp_path, 3, self._set(0, "s" * (limit + 1)))
        code = dispatch([*command, "--features", path, "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}:3: field larger than field limit ({limit})\n")

    @pytest.mark.parametrize("command", [
        ["train", "--mode", "centralized", "--model", "lr"], ["analyze"],
    ], ids=["train", "analyze"])
    def test_bytes_not_utf8_name_line(self, features_dir, tmp_path, capsys, command):
        lines = (features_dir / "features.csv").read_bytes().splitlines(keepends=True)
        lines[2] = lines[2][:5] + b"\xff" + lines[2][5:]
        path = tmp_path / "features.csv"
        path.write_bytes(b"".join(lines))
        code = dispatch([*command, "--features", str(path), "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}:3: not valid UTF-8: b'\\xff' (invalid start byte)\n")

    @pytest.mark.parametrize("cell", ["", "nan"])
    def test_empty_cell_stays_missing(self, features_dir, tmp_path, cell):
        path = _edit_features(features_dir, tmp_path, 2, self._set(5, cell))
        table = read_features(path)
        assert np.isnan(table.X[0, 2]) and np.isfinite(table.X[1, 2])


def _rerun_matches(first, second, names) -> None:
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


class TestReproducibility:
    def test_config_echo_and_byte_identical_rerun(self, depot_dir, features_dir, tmp_path):
        features = str(features_dir / "features.csv")
        runs = {
            "train": (["--features", features, "--mode", "federated", "--model", "lr",
                       "--rounds", "4", "--local-epochs", "2", "--seed", "3"],
                      ["rounds.csv", "model.ckpt", "predictions.csv", "summary.json"]),
            "synth": (["--seed", "5", "--stations", "3", "--sessions-per-station", "4:6",
                       "--format", "jsonl", "--mean-kwh", "8"],
                      ["sessions.jsonl", "timeseries.jsonl"]),
            "featurize": (["--in", str(depot_dir), "--min-early-current-samples", "4",
                           "--strict"],
                          ["features.csv", "featurize_report.json"]),
            "analyze": (["--features", features, "--permutations", "7", "--bins", "9",
                         "--seed", "2"],
                        ["heterogeneity.json"]),
            "evaluate": (["--features", features, "--mode", "centralized", "--model", "mlp",
                          "--epochs", "2", "--dropout", "0.1", "--seeds", "1,4"],
                         ["run_report.json"]),
        }
        for command, (args, outputs) in runs.items():
            first, second = tmp_path / command / "first", tmp_path / command / "second"
            assert dispatch([command, *args, "--out", str(first)]) == 0
            echoed = first / "config.json"
            assert json.loads(echoed.read_text())["stage"] == command
            assert dispatch([command, "--config", str(echoed), "--out", str(second)]) == 0
            _rerun_matches(first, second, outputs)
            assert echoed.read_bytes() == (second / "config.json").read_bytes()

    def test_echo_holds_every_key_the_stage_reads(self, features_dir, tmp_path):
        out = tmp_path / "run"
        assert dispatch([
            "train", "--features", str(features_dir / "features.csv"),
            "--mode", "centralized", "--model", "lr", "--epochs", "2", "--lr", "0.01",
            "--out", str(out),
        ]) == 0
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["fed"] == {
            "rounds": 400, "local_epochs": 3, "fraction": 0.2, "batch_size": 128,
            "lr": 0.01, "seed": 0,
        }
        assert echoed["central"] == {"epochs": 2, "batch_size": 128, "lr": 0.01, "seed": 0}
        assert echoed["train"] == {"mode": "centralized", "model": "lr", "dropout": 0.2}

    def test_synth_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert dispatch([
                "synth", "--seed", "5", "--stations", "3",
                "--sessions-per-station", "4:6", "--out", str(out),
            ]) == 0
        assert (a / "sessions.csv").read_bytes() == (b / "sessions.csv").read_bytes()
        assert (a / "timeseries.csv").read_bytes() == (b / "timeseries.csv").read_bytes()

    def test_config_file_with_flag_override(self, depot_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dataset": {"min_early_current_samples": 5},
            "paths": {"in": str(depot_dir)},
        }))
        out = tmp_path / "f"
        assert dispatch(["featurize", "--config", str(cfg), "--out", str(out)]) == 0
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["dataset"]["min_early_current_samples"] == 5

    def test_flag_beats_config_and_mode_section_gives_the_seed(self, features_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "central": {"epochs": 7, "seed": 2}, "fed": {"seed": 5},
            "train": {"mode": "centralized", "model": "lr"},
        }))
        out = tmp_path / "run"
        assert dispatch([
            "train", "--config", str(cfg), "--features", str(features_dir / "features.csv"),
            "--epochs", "3", "--out", str(out),
        ]) == 0
        assert len((out / "rounds.csv").read_text().splitlines()) == 1 + 3
        assert json.loads((out / "summary.json").read_text())["seed"] == 2


class TestParentEchoes:
    """config.json files in the exact form earlier versions wrote still load."""

    def test_partial_synth_echo(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(
            '{\n  "stage": "synth",\n  "synth": {\n    "format": "jsonl",\n'
            '    "mean_kwh": 8.0,\n    "seed": 12,\n    "sessions_per_station": "4",\n'
            '    "stations": 3\n  }\n}\n'
        )
        echo, flags = tmp_path / "echo", tmp_path / "flags"
        assert dispatch(["synth", "--config", str(cfg), "--out", str(echo)]) == 0
        assert dispatch([
            "synth", "--format", "jsonl", "--mean-kwh", "8", "--seed", "12",
            "--sessions-per-station", "4:4", "--stations", "3", "--out", str(flags),
        ]) == 0
        _rerun_matches(echo, flags, ["sessions.jsonl", "timeseries.jsonl", "config.json"])

    def test_train_echo_with_fed_and_central(self, features_dir, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "central": {"batch_size": 64, "epochs": 40, "lr": 0.001, "seed": 3},
            "fed": {"batch_size": 64, "fraction": 0.5, "local_epochs": 2, "lr": 0.001,
                    "rounds": 3, "seed": 3},
            "paths": {"features": str(features_dir / "features.csv")},
            "stage": "train",
            "train": {"dropout": 0.1, "mode": "federated", "model": "mlp"},
        }, indent=2, sort_keys=True) + "\n")
        echo, flags = tmp_path / "echo", tmp_path / "flags"
        assert dispatch(["train", "--config", str(cfg), "--out", str(echo)]) == 0
        assert dispatch([
            "train", "--features", str(features_dir / "features.csv"), "--mode", "federated",
            "--model", "mlp", "--batch-size", "64", "--fraction", "0.5", "--local-epochs", "2",
            "--rounds", "3", "--seed", "3", "--dropout", "0.1", "--out", str(flags),
        ]) == 0
        _rerun_matches(echo, flags, [
            "rounds.csv", "model.ckpt", "predictions.csv", "summary.json", "config.json",
        ])


# Each subcommand's option strings, as the CLI has always had them.
OPTIONS = {
    "synth": {"--stations", "--sessions-per-station", "--mean-kwh", "--std-kwh",
              "--shift-kwh", "--noise-kwh", "--seed", "--session-minutes", "--period-s",
              "--presence", "--format"},
    "ingest": {"--in", "--sessions", "--timeseries", "--strict", "--early-window-minutes",
               "--min-early-current-samples", "--nominal-voltage-v"},
    "analyze": {"--features", "--bins", "--permutations", "--seed"},
    "train": {"--features", "--mode", "--model", "--rounds", "--epochs", "--local-epochs",
              "--fraction", "--batch-size", "--lr", "--seed", "--dropout"},
    "report": {"--reports"},
}
OPTIONS["featurize"] = OPTIONS["ingest"]
OPTIONS["evaluate"] = OPTIONS["train"] | {"--seeds"}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_option_strings_pinned(command):
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    actions = subparsers.choices[command]._actions
    assert {s for a in actions for s in a.option_strings} == (
        OPTIONS[command] | {"-h", "--help", "--config", "--out"}
    )


# The subcommand that reads each section; the config file is checked before it runs.
READER = {"paths": "analyze", "synth": "synth", "dataset": "featurize",
          "heterogeneity": "analyze", "fed": "train", "central": "train", "train": "evaluate"}
WRONG_TYPE = {int: True, float: "1.5", bool: 1, str: 7, tuple: 5}
KEYS = [(section, name) for section, (_, keys) in SCHEMA.items() for name in keys]


class TestConfigFileChecks:
    def _run(self, tmp_path, capsys, cfg, command) -> str:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = dispatch([command, "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1, err
        assert "Traceback" not in err
        return err

    def test_every_section_has_a_reader(self):
        assert set(READER) == set(SCHEMA)
        for section, command in READER.items():
            assert section in STAGES[command][1]

    def test_every_dataclass_field_has_a_key(self):
        # A field no key sets only ever takes its default: a knob with one value.
        # The centralized optimizer reset exists for the FedAvg equivalence twin.
        exempt = {("central", "optimizer_reset_interval")}
        for section, (cls, keys) in SCHEMA.items():
            if cls is None:
                continue
            reachable = {key.field for key in keys.values()}
            unreachable = {f.name for f in fields(cls)} - reachable
            assert unreachable == {f for s, f in exempt if s == section}, section

    @pytest.mark.parametrize("section, name", KEYS, ids=[f"{s}.{k}" for s, k in KEYS])
    def test_unknown_key_named(self, tmp_path, capsys, section, name):
        typo = name + "x"
        assert typo not in SCHEMA[section][1]
        err = self._run(tmp_path, capsys, {section: {typo: 1}}, READER[section])
        assert f"{section}.{typo}: unknown config key" in err

    @pytest.mark.parametrize("section, name", KEYS, ids=[f"{s}.{k}" for s, k in KEYS])
    def test_wrong_type_named(self, tmp_path, capsys, section, name):
        for value in (WRONG_TYPE[_kind(SCHEMA[section][1][name])], [1]):
            err = self._run(tmp_path, capsys, {section: {name: value}}, READER[section])
            assert f"{section}.{name}: expected" in err

    @pytest.mark.parametrize("section, name", [
        (s, k) for s, k in KEYS if SCHEMA[s][1][k].choices
    ])
    def test_bad_choice_named(self, tmp_path, capsys, section, name):
        err = self._run(tmp_path, capsys, {section: {name: "xml"}}, READER[section])
        assert f"{section}.{name}: expected one of" in err

    @pytest.mark.parametrize("cfg, named", [
        ({"fed": {"round": 1}}, "fed.round"),
        ({"fed": {"rounds": [1]}}, "fed.rounds"),
        ({"fed": "x"}, "fed: expected a JSON object"),
        ({"synth": {"format": "xml"}}, "synth.format"),
        ({"fed": {"lr": float("inf")}}, "fed.lr"),
        ({"synth": {"session_minutes": "90:abc"}}, "synth.session_minutes"),
        ({"bogus": {}}, "bogus: unknown config section"),
    ], ids=["typo", "list", "section-not-object", "choice", "inf", "range", "section"])
    def test_bad_config_exits_1(self, features_dir, tmp_path, capsys, cfg, named):
        cfg = {"paths": {"features": str(features_dir / "features.csv")},
               "train": {"mode": "federated", "model": "lr"}, **cfg}
        assert named in self._run(tmp_path, capsys, cfg, "train")

    @pytest.mark.parametrize("content, problem", [
        (b'{"train": {"seed": 1},}', "Expecting property name enclosed in double quotes: "
                                     "line 1 column 23 (char 22)"),
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b"[1]", "config file must contain a JSON object"),
    ], ids=["trailing-comma", "not-utf8", "not-object"])
    def test_unreadable_config_names_the_file(self, tmp_path, capsys, content, problem):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code = dispatch(["train", "--config", str(path), "--out", str(tmp_path / "out")])
        assert (code, capsys.readouterr().err) == (1, f"error: {path}: {problem}\n")
        assert not (tmp_path / "out").exists()

    def test_empty_seed_list_named(self, features_dir, tmp_path, capsys):
        code = dispatch([
            "evaluate", "--features", str(features_dir / "features.csv"), "--mode",
            "centralized", "--model", "dummy-mean", "--seeds", ",", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "train.seeds: expected comma-separated integers, got ','" in (
            capsys.readouterr().err
        )


# Every key that seeds a stream, and the subcommand that reads it.
SEED_KEYS = [("synth", "seed", "synth"), ("heterogeneity", "seed", "analyze"),
             ("fed", "seed", "train"), ("central", "seed", "train"),
             ("train", "seeds", "evaluate")]


class TestSeeds:
    """rng_from tells 2^64 seeds apart, so a seed outside [0, 2^64) would
    give the run of another seed: every such seed exits 1 naming its key."""

    @pytest.mark.parametrize("value", [-1, 2**64])
    @pytest.mark.parametrize("section, name, command", SEED_KEYS,
                             ids=[f"{s}.{k}" for s, k, _ in SEED_KEYS])
    def test_a_seed_outside_the_streams_is_named(self, tmp_path, capsys, section, name,
                                                 command, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({section: {name: f"0,{value}" if name == "seeds" else value}}))
        code = dispatch([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert (code, capsys.readouterr().err) == (
            1, f"error: {section}.{name}: seed {value} is outside [0, 2**64)\n")
        assert not (tmp_path / "out").exists()

    def test_only_one_seed_of_a_stream_is_accepted(self, features_dir, tmp_path, capsys):
        """-1 and 2^64 - 1 once gave the same run."""
        features = str(features_dir / "features.csv")
        for seed, code in [("18446744073709551615", 0), ("-1", 1)]:
            assert dispatch(["train", "--features", features, "--mode", "centralized",
                             "--model", "dummy-gauss", "--seed", seed,
                             "--out", str(tmp_path / seed)]) == code
        assert "error: fed.seed: seed -1 is outside" in capsys.readouterr().err
        assert dispatch(["evaluate", "--features", features, "--mode", "centralized",
                         "--model", "dummy-gauss", "--seeds", "0,18446744073709551615",
                         "--out", str(tmp_path / "evaluate")]) == 0

    def test_a_repeated_seed_is_named(self, features_dir, tmp_path, capsys):
        code = dispatch(["evaluate", "--features", str(features_dir / "features.csv"),
                         "--mode", "centralized", "--model", "dummy-mean", "--seeds", "0,0,1",
                         "--out", str(tmp_path)])
        assert (code, capsys.readouterr().err) == (1, "error: train.seeds: seed 0 is repeated\n")


class TestTooFewSessions:
    @pytest.mark.parametrize("command", [
        ["train"], ["evaluate", "--seeds", "0,1"],
    ], ids=["train", "evaluate"])
    @pytest.mark.parametrize("n, empty", [
        (0, None), (1, None), (2, None), (3, "validation"), (4, "test"), (5, "test"),
    ])
    def test_empty_split_named(self, features_dir, tmp_path, capsys, command, n, empty):
        """Too few rows for any split (no empty split named), or for one."""
        lines = (features_dir / "features.csv").read_text().splitlines()
        path = tmp_path / "features.csv"
        path.write_text("\n".join(lines[: 1 + n]) + "\n")
        code = dispatch([
            *command, "--features", str(path), "--mode", "federated", "--model", "lr",
            "--rounds", "2", "--out", str(tmp_path / "run"),
        ])
        problem = (f"{n} sessions leave the {empty} split empty" if empty
                   else "dataset must contain at least 3 sessions")
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {problem}")
        assert not (tmp_path / "run").exists()

    def test_analyze_without_rows_names_the_file(self, features_dir, tmp_path, capsys):
        path = tmp_path / "features.csv"
        path.write_text((features_dir / "features.csv").read_text().splitlines()[0] + "\n")
        code = dispatch(["analyze", "--features", str(path), "--out", str(tmp_path / "het")])
        assert (code, capsys.readouterr().err) == (
            1, f"error: {path}: features file contains no rows\n")
        assert not (tmp_path / "het").exists()


class TestReportInputs:
    @pytest.fixture(scope="class")
    def run_report(self, features_dir, tmp_path_factory) -> dict:
        """The run_report.json of a one-seed evaluate."""
        run = tmp_path_factory.mktemp("eval")
        assert dispatch([
            "evaluate", "--features", str(features_dir / "features.csv"), "--mode",
            "centralized", "--model", "dummy-mean", "--seeds", "0", "--out", str(run),
        ]) == 0
        return json.loads((run / "run_report.json").read_text())

    @pytest.mark.parametrize("field, value, problem", [
        ("model", 5, "model: expected one of dummy-mean, dummy-gauss, lr, mlp, got 5"),
        ("mode", "local", "mode: expected one of centralized, federated, got 'local'"),
        ("seed", "zero", "per_seed[1].seed: expected an integer in [0, 2**64), got 'zero'"),
        ("seed", True, "per_seed[1].seed: expected an integer in [0, 2**64), got True"),
        ("seed", -1, "per_seed[1].seed: expected an integer in [0, 2**64), got -1"),
        ("seed", 2**64, "per_seed[1].seed: expected an integer in [0, 2**64), "
                        "got 18446744073709551616"),
        ("test_mae", True, "per_seed[1].test_mae: expected a finite number, got True"),
        ("test_mae", math.nan, "per_seed[1].test_mae: expected a finite number, got nan"),
        ("test_rmse", -math.inf, "per_seed[1].test_rmse: expected a finite number, got -inf"),
        ("test_rmse", "0.5", "per_seed[1].test_rmse: expected a finite number, got '0.5'"),
        ("best_round", "x", "per_seed[1].best_round: expected an integer >= 0 or null, got 'x'"),
        ("best_round", 2.0, "per_seed[1].best_round: expected an integer >= 0 or null, got 2.0"),
        ("convergence_round", -2,
         "per_seed[1].convergence_round: expected an integer >= 0 or null, got -2"),
        ("convergence_round", False,
         "per_seed[1].convergence_round: expected an integer >= 0 or null, got False"),
    ], ids=["model", "mode", "seed-text", "seed-bool", "seed-negative", "seed-2**64",
            "mae-bool", "mae-nan", "rmse-inf", "rmse-text", "best-text", "best-float",
            "convergence-negative", "convergence-bool"])
    def test_a_bad_field_is_named(self, run_report, tmp_path, capsys, field, value, problem):
        """A field that evaluate could not have written: the model, the mode, or
        one of the second seed entry's fields."""
        payload = json.loads(json.dumps(run_report))
        payload["per_seed"].append({**payload["per_seed"][0], "seed": 1})
        if field in ("model", "mode"):
            payload[field] = value
        else:
            payload["per_seed"][1][field] = value
        path = tmp_path / "run_report.json"
        path.write_text(json.dumps(payload))
        code = dispatch(["report", "--reports", str(path), "--out", str(tmp_path / "r")])
        assert (code, capsys.readouterr().err) == (
            1, f"error: {path}: not a run report: {problem}\n")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("payload, problem", [
        ({"stage": "train"}, "missing key 'per_seed'"),
        ({"model": "lr", "mode": "federated", "per_seed": []}, "per_seed is empty"),
    ], ids=["config", "no-seeds"])
    def test_not_a_run_report(self, tmp_path, capsys, payload, problem):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        code = dispatch(["report", "--reports", str(path), "--out", str(tmp_path / "r")])
        assert code == 1
        assert f"{path}: not a run report: {problem}" in capsys.readouterr().err

    @pytest.mark.parametrize("content, problem", [
        (b"xx\n", "Expecting value: line 1 column 1 (char 0)"),
        (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ], ids=["not-json", "not-utf8"])
    def test_not_json_names_the_file(self, tmp_path, capsys, content, problem):
        path = tmp_path / "run_report.json"
        path.write_bytes(content)
        code = dispatch(["report", "--reports", str(path), "--out", str(tmp_path / "r")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: not a run report: {problem}\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("edit, key", [
        (lambda entry: entry.pop("test_rmse"), "test_rmse"),
        (lambda entry: entry.update(extra=1), "extra"),
    ], ids=["missing", "extra"])
    def test_seed_entry_keys(self, run_report, tmp_path, capsys, edit, key):
        payload = json.loads(json.dumps(run_report))
        edit(payload["per_seed"][0])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        code = dispatch(["report", "--reports", str(bad), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{bad}: not a run report" in err and key in err


class TestHugeJsonNumber:
    def test_lenient_featurize_reports_the_line(self, depot_dir, tmp_path, capsys):
        series = tmp_path / "timeseries.jsonl"
        series.write_text(
            '{"session_id": "x", "timestamp": "2019-01-07T08:30:00Z", '
            '"current_a": 1' + "0" * 400 + "}\n"
        )
        args = ["featurize", "--sessions", str(depot_dir / "sessions.csv"),
                "--timeseries", str(series)]
        # No session is retained, so the lenient run fails after its report.
        assert dispatch([*args, "--out", str(tmp_path / "lenient")]) == 1
        assert "error: no session retained from" in capsys.readouterr().err
        report = json.loads((tmp_path / "lenient" / "featurize_report.json").read_text())
        assert report["first_issues"] == [[1, "current_a is not finite"]]
        capsys.readouterr()
        assert dispatch([*args, "--strict", "--out", str(tmp_path / "strict")]) == 1
        assert "timeseries.jsonl:1: current_a is not finite" in capsys.readouterr().err

    def test_integer_over_digit_limit_reports_the_line(self, depot_dir, tmp_path, capsys):
        series = tmp_path / "timeseries.jsonl"
        series.write_text(
            '{"session_id": "x", "timestamp": "2019-01-07T08:30:00Z", '
            '"current_a": ' + "1" * 5001 + "}\n"
        )
        args = ["featurize", "--sessions", str(depot_dir / "sessions.csv"),
                "--timeseries", str(series)]
        assert dispatch([*args, "--out", str(tmp_path / "lenient")]) == 1  # nothing retained
        report = json.loads((tmp_path / "lenient" / "featurize_report.json").read_text())
        [[line, message]] = report["first_issues"]
        assert line == 1 and "Exceeds the limit (4300 digits)" in message
        capsys.readouterr()
        assert dispatch([*args, "--strict", "--out", str(tmp_path / "strict")]) == 1
        assert "timeseries.jsonl:1: Exceeds the limit" in capsys.readouterr().err


class TestDivergence:
    @pytest.mark.parametrize("command", [
        ["train"], ["evaluate", "--seeds", "0,1"],
    ], ids=["train", "evaluate"])
    @pytest.mark.parametrize("mode, where", [
        ("centralized", "epoch 1"), ("federated", "round 1"),
    ])
    def test_diverging_run_exits_1(self, features_dir, tmp_path, capsys, command, mode, where):
        with np.errstate(all="ignore"):
            code = dispatch([
                *command, "--features", str(features_dir / "features.csv"), "--mode", mode,
                "--model", "mlp", "--epochs", "5", "--rounds", "5", "--lr", "1e200",
                "--out", str(tmp_path / "x"),
            ])
        assert code == 1
        seed = "seed 0 failed: " if command[0] == "evaluate" else ""
        assert re.fullmatch(f"error: {seed}{mode} training diverged in {where} at lr "
                            r"1e\+200: the (batch loss|validation MAE) is (nan|inf)\n",
                            capsys.readouterr().err)
        assert not (tmp_path / "x" / "rounds.csv").exists()

    @pytest.mark.parametrize("mode, where", [
        ("centralized", "epoch 1"), ("federated", "round 1"),
    ])
    def test_only_the_error_line_on_stderr(self, features_dir, tmp_path, mode, where):
        # A fresh interpreter shows numpy's float warnings as the CLI's user
        # would see them; a diverging run must print the one-line error only.
        proc = run_module([
            "train", "--features", str(features_dir / "features.csv"), "--mode", mode,
            "--model", "mlp", "--epochs", "3", "--rounds", "3", "--lr", "1e200",
            "--out", str(tmp_path / "x"),
        ])
        assert proc.returncode == 1
        assert re.fullmatch(f"error: {mode} training diverged in {where} at lr "
                            r"1e\+200: the (batch loss|validation MAE) is (nan|inf)\n",
                            proc.stderr), proc.stderr


class TestInvalidUtf8:
    @pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("name", ["sessions", "timeseries"])
    def test_bad_byte_names_file_and_line(self, tmp_path, capsys, name, fmt, strict):
        depot = tmp_path / "depot"
        assert dispatch(["synth", "--seed", "3", "--stations", "2", "--sessions-per-station",
                         "3:3", "--format", fmt, "--out", str(depot)]) == 0
        path = depot / f"{name}.{fmt}"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[4] = lines[4][:5] + b"\xff" + lines[4][5:]
        path.write_bytes(b"".join(lines))
        capsys.readouterr()
        code = dispatch(["featurize", "--in", str(depot), "--out", str(tmp_path / "feats"),
                         *(["--strict"] if strict else [])])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}:5: not valid UTF-8: b'\\xff' (invalid start byte)\n"
        )


class TestStampOutsideYears:
    """A stamp whose offset carries its UTC instant outside years 1-9999 is a
    bad row like any other: an issue at its line, or path:line when strict."""

    @pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
    @pytest.mark.parametrize("name, column, stamp", [
        ("sessions", 3, "0001-01-01T00:00:00+01:00"),
        ("timeseries", 1, "9999-12-31T23:59:59-01:00"),
    ], ids=["sessions", "timeseries"])
    def test_names_the_line(self, tmp_path, capsys, name, column, stamp, strict):
        depot = tmp_path / "depot"
        assert dispatch(["synth", "--seed", "3", "--stations", "2", "--sessions-per-station",
                         "3:3", "--out", str(depot)]) == 0
        path = depot / f"{name}.csv"
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[4].split(",")
        cells[column] = stamp
        lines[4] = ",".join(cells)
        path.write_text("".join(lines))
        capsys.readouterr()
        out = tmp_path / "clean"
        code = dispatch(["ingest", "--in", str(depot), "--out", str(out),
                         *(["--strict"] if strict else [])])
        problem = f"timestamp '{stamp}' falls outside years 1-9999 in UTC"
        if strict:
            assert (code, capsys.readouterr().err) == (1, f"error: {path}:5: {problem}\n")
        else:
            assert code == 0
            report = json.loads((out / "ingest_report.json").read_text())
            assert report["first_issues"] == [[5, problem]]
            assert report["n_session_issues" if name == "sessions" else "n_series_issues"] == 1


class TestFieldSizeLimit:
    @pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
    @pytest.mark.parametrize("where", ["header", "plain", "quoted"])
    @pytest.mark.parametrize("name", ["sessions", "timeseries"])
    def test_huge_field_names_file_and_line(self, tmp_path, capsys, name, where, strict):
        depot = tmp_path / "depot"
        assert dispatch(["synth", "--seed", "3", "--stations", "2", "--sessions-per-station",
                         "3:3", "--out", str(depot)]) == 0
        path = depot / f"{name}.csv"
        lines = path.read_bytes().splitlines(keepends=True)
        row = 0 if where == "header" else 4
        cells = lines[row].split(b",")
        big = b"1" * (csv.field_size_limit() + 1)
        cells[2] = b'"' + big + b'"' if where == "quoted" else big
        lines[row] = b",".join(cells)
        path.write_bytes(b"".join(lines))
        capsys.readouterr()
        code = dispatch(["featurize", "--in", str(depot), "--out", str(tmp_path / "feats"),
                         *(["--strict"] if strict else [])])
        assert code == 1
        limit = csv.field_size_limit()
        assert capsys.readouterr().err == (
            f"error: {path}:{row + 1}: field larger than field limit ({limit})\n"
        )

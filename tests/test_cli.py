"""End-to-end CLI behavior: composition, exit codes, reproducibility."""

import csv
import json
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

    def test_empty_seed_list_named(self, features_dir, tmp_path, capsys):
        code = dispatch([
            "evaluate", "--features", str(features_dir / "features.csv"), "--mode",
            "centralized", "--model", "dummy-mean", "--seeds", ",", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "train.seeds: expected comma-separated integers, got ','" in (
            capsys.readouterr().err
        )


class TestTooFewSessions:
    @pytest.mark.parametrize("command", [
        ["train"], ["evaluate", "--seeds", "0,1"],
    ], ids=["train", "evaluate"])
    @pytest.mark.parametrize("n, empty", [(3, "validation"), (4, "test"), (5, "test")])
    def test_empty_split_named(self, features_dir, tmp_path, capsys, command, n, empty):
        lines = (features_dir / "features.csv").read_text().splitlines()
        path = tmp_path / "features.csv"
        path.write_text("\n".join(lines[: 1 + n]) + "\n")
        code = dispatch([
            *command, "--features", str(path), "--mode", "federated", "--model", "lr",
            "--rounds", "2", "--out", str(tmp_path / "run"),
        ])
        assert code == 1
        assert f"{n} sessions leave the {empty} split empty" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestReportInputs:
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

    @pytest.mark.parametrize("edit, key", [
        (lambda entry: entry.pop("test_rmse"), "test_rmse"),
        (lambda entry: entry.update(extra=1), "extra"),
    ], ids=["missing", "extra"])
    def test_seed_entry_keys(self, features_dir, tmp_path, capsys, edit, key):
        run = tmp_path / "eval"
        assert dispatch([
            "evaluate", "--features", str(features_dir / "features.csv"), "--mode",
            "centralized", "--model", "dummy-mean", "--seeds", "0", "--out", str(run),
        ]) == 0
        payload = json.loads((run / "run_report.json").read_text())
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
        assert dispatch([*args, "--out", str(tmp_path / "lenient")]) == 0
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
        assert dispatch([*args, "--out", str(tmp_path / "lenient")]) == 0
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

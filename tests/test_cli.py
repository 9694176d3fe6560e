"""End-to-end CLI behavior: composition, exit codes, reproducibility."""

import json

import pytest

from fedcharge.cli import dispatch


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


class TestReproducibility:
    def test_config_echo_and_byte_identical_rerun(self, features_dir, tmp_path):
        first = tmp_path / "first"
        args = [
            "train", "--features", str(features_dir / "features.csv"),
            "--mode", "federated", "--model", "lr",
            "--rounds", "4", "--local-epochs", "2", "--seed", "3",
        ]
        assert dispatch(args + ["--out", str(first)]) == 0
        echoed = first / "config.json"
        assert echoed.exists()

        second = tmp_path / "second"
        assert dispatch([
            "train", "--config", str(echoed), "--out", str(second),
        ]) == 0
        for name in ("rounds.csv", "model.ckpt", "predictions.csv", "summary.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

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

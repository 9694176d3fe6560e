"""Splits, metrics, multi-seed aggregation, and report emission."""

import csv
import json

import numpy as np
import pytest

from fedcharge.evaluation import (
    RunReport,
    SeedResult,
    emit_report,
    multi_seed_run,
    run_experiment,
    split,
    write_predictions,
)
from fedcharge.federation import FedConfig
from fedcharge.metrics import mae, rmse


class TestSplit:
    def test_exact_division(self):
        s = split(100, seed=0)
        assert (s.train_idx.size, s.val_idx.size, s.test_idx.size) == (70, 15, 15)

    def test_rounding_rule_half_up_remainder_test(self):
        # 0.7*10 -> 7 train, 0.15*10 rounds up to 2 val, remainder 1 test.
        s = split(10, seed=0)
        assert (s.train_idx.size, s.val_idx.size, s.test_idx.size) == (7, 2, 1)

    def test_realized_sizes_within_one_sample_of_targets(self):
        for n in range(3, 400):
            s = split(n, seed=1)
            assert abs(s.train_idx.size - 0.70 * n) <= 1.0
            assert abs(s.val_idx.size - 0.15 * n) <= 1.0
            assert abs(s.test_idx.size - 0.15 * n) <= 1.0

    def test_deterministic(self):
        a, b = split(50, seed=3), split(50, seed=3)
        np.testing.assert_array_equal(a.train_idx, b.train_idx)
        np.testing.assert_array_equal(a.test_idx, b.test_idx)

    def test_partitions_everything_once(self):
        s = split(87, seed=5)
        combined = np.sort(np.concatenate([s.train_idx, s.val_idx, s.test_idx]))
        np.testing.assert_array_equal(combined, np.arange(87))

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            split(2, seed=0)

    def test_assignment_independent_of_data(self):
        # The split sees only the row count, never targets or features.
        a, b = split(40, seed=9), split(40, seed=9)
        np.testing.assert_array_equal(a.val_idx, b.val_idx)


class TestStationVocab:
    def test_unseen_station_maps_to_reserved_index(self):
        from fedcharge.evaluation import StationVocab

        vocab = StationVocab(index={"ST000": 0, "ST001": 1})
        encoded = vocab.encode(["ST001", "ST999", "ST000"])
        np.testing.assert_array_equal(encoded, [1, 2, 0])
        assert vocab.cardinality == 2


class TestMetrics:
    def test_two_sample_hand_computation(self):
        assert mae([1, 2], [1, 4]) == pytest.approx(1.0, abs=1e-15)
        assert rmse([1, 2], [1, 4]) == pytest.approx(np.sqrt(2), abs=1e-15)

    def test_perfect_predictions(self):
        assert mae([3, 4], [3, 4]) == 0.0
        assert rmse([3, 4], [3, 4]) == 0.0

    def test_constant_error_equality(self):
        preds = np.array([1.0, 2.0, 3.0])
        assert mae(preds + 2.5, preds) == pytest.approx(2.5, abs=1e-15)
        assert rmse(preds + 2.5, preds) == pytest.approx(2.5, abs=1e-15)

    def test_rmse_at_least_mae_fuzz(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            p, t = rng.normal(size=n), rng.normal(size=n)
            assert rmse(p, t) >= mae(p, t) - 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            mae([1], [1, 2])
        with pytest.raises(ValueError):
            rmse([], [])


class TestRunExperiment:
    def test_repeatable_per_seed(self, small_table):
        a, _ = run_experiment(small_table, "dummy-mean", "centralized", seed=1)
        b, _ = run_experiment(small_table, "dummy-mean", "centralized", seed=1)
        assert a == b

    def test_dummies_bypass_the_trainer(self, small_table):
        _, artifacts = run_experiment(small_table, "dummy-mean", "centralized", seed=0)
        assert artifacts.result is None  # closed-form fit, no epoch loop

    def test_dummy_gauss_seeded(self, small_table):
        a, _ = run_experiment(small_table, "dummy-gauss", "centralized", seed=2)
        b, _ = run_experiment(small_table, "dummy-gauss", "centralized", seed=2)
        assert a.test_mae == b.test_mae

    def test_federated_lr_runs(self, small_table):
        result, artifacts = run_experiment(
            small_table, "lr", "federated", seed=0,
            fed_cfg=FedConfig(rounds=3, local_epochs=1),
        )
        assert result.best_round is not None
        assert len(artifacts.result.logs) == 3
        assert np.all(np.isfinite(artifacts.predictions))

    def test_unknown_mode_rejected(self, small_table):
        with pytest.raises(ValueError):
            run_experiment(small_table, "lr", "sideways", seed=0)


class TestMultiSeed:
    def test_aggregates_match_hand_average(self, small_table):
        report = multi_seed_run(small_table, "dummy-mean", "centralized", seeds=[0, 1, 2])
        maes = [r.test_mae for r in report.per_seed]
        assert report.mae_mean == pytest.approx(np.mean(maes), abs=1e-12)
        assert report.mae_std == pytest.approx(np.std(maes), abs=1e-12)
        assert report.n_seeds == 3

    def test_empty_seed_list_rejected(self, small_table):
        with pytest.raises(ValueError, match="need at least one seed"):
            multi_seed_run(small_table, "dummy-mean", "centralized", seeds=[])

    def test_duplicate_seeds_rejected(self, small_table):
        with pytest.raises(ValueError):
            multi_seed_run(small_table, "dummy-mean", "centralized", seeds=[1, 1])

    def test_failure_names_seed(self, small_table):
        with pytest.raises(RuntimeError, match="seed 4"):
            multi_seed_run(small_table, "nonexistent", "centralized", seeds=[4])

    def test_table_4_shape(self, small_table):
        # One row per model x mode with MAE and RMSE aggregates.
        reports = [
            multi_seed_run(small_table, kind, "centralized", seeds=[0, 1])
            for kind in ("dummy-mean", "dummy-gauss")
        ]
        for rep in reports:
            assert rep.mae_mean > 0 and rep.rmse_mean >= rep.mae_mean


class TestEmitReport:
    def _reports(self, small_table):
        return [multi_seed_run(small_table, "dummy-mean", "centralized", seeds=[0, 1, 2])]

    def test_csv_row_count_and_header(self, tmp_path, small_table):
        csv_path, _ = emit_report(self._reports(small_table), tmp_path)
        rows = csv_path.read_text().splitlines()
        assert rows[0] == "model,mode,mae_mean,mae_std,rmse_mean,rmse_std,n_seeds,convergence_round_median"
        assert len(rows) == 2

    def test_reemission_byte_identical(self, tmp_path, small_table):
        reports = self._reports(small_table)
        emit_report(reports, tmp_path / "a")
        emit_report(reports, tmp_path / "b")
        assert (tmp_path / "a/results.csv").read_bytes() == (tmp_path / "b/results.csv").read_bytes()
        assert (tmp_path / "a/results.json").read_bytes() == (tmp_path / "b/results.json").read_bytes()

    def test_csv_means_match_json_per_seed(self, tmp_path, small_table):
        csv_path, json_path = emit_report(self._reports(small_table), tmp_path)
        with open(csv_path) as fh:
            row = list(csv.DictReader(fh))[0]
        payload = json.loads(json_path.read_text())[0]
        per_seed_mean = np.mean([e["test_mae"] for e in payload["per_seed"]])
        assert float(row["mae_mean"]) == pytest.approx(per_seed_mean, abs=1e-12)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], tmp_path)


class TestRunReportInvariants:
    def test_aggregates_recomputable(self):
        per_seed = [
            SeedResult(seed=i, test_mae=float(i + 1), test_rmse=float(i + 2),
                       best_round=1, convergence_round=None)
            for i in range(4)
        ]
        report = RunReport(model="lr", mode="centralized", per_seed=per_seed)
        maes = np.array([r.test_mae for r in per_seed])
        assert abs(report.mae_mean - maes.mean()) < 1e-12
        assert abs(report.mae_std - maes.std()) < 1e-12
        assert report.convergence_round_median is None


class TestPredictions:
    def test_metrics_match_brute_force_from_csv(self, tmp_path, small_table):
        result, artifacts = run_experiment(small_table, "dummy-gauss", "centralized", seed=0)
        path = tmp_path / "predictions.csv"
        write_predictions(
            path,
            artifacts.prepared.test_session_ids,
            artifacts.prepared.data.y_test,
            artifacts.predictions,
        )
        y_true, y_pred = [], []
        with open(path) as fh:
            for row in csv.DictReader(fh):
                y_true.append(float(row["y_true"]))
                y_pred.append(float(row["y_pred"]))
        # Independent brute-force recomputation in plain Python.
        n = len(y_true)
        brute_mae = sum(abs(a - b) for a, b in zip(y_pred, y_true)) / n
        brute_rmse = (sum((a - b) ** 2 for a, b in zip(y_pred, y_true)) / n) ** 0.5
        assert result.test_mae == pytest.approx(brute_mae, abs=1e-12)
        assert result.test_rmse == pytest.approx(brute_rmse, abs=1e-12)

"""Feature construction, standardization, and the no-leakage guarantee."""

import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import T0, make_series, make_session
from fedcharge.features import (
    FEATURE_COLUMNS,
    UNSCALED_INDICES,
    build_feature_table,
    build_feature_vector,
    calendar_features,
    departure_offset,
    early_energy,
    early_window_features,
    fit_imputer,
    fit_scaler,
    least_squares_slope,
    read_features,
    summary_stats,
    utilization_stats,
    write_features,
)
from fedcharge.sessions import early_window_bounds


class TestSummaryStats:
    def test_constant_signal(self):
        assert summary_stats([32, 32, 32]) == (32, 32, 32, 0, 32, 32)

    def test_two_values_population_std(self):
        # Population std of {1, 3}: sqrt(((1-2)^2 + (3-2)^2) / 2) = 1.
        assert summary_stats([1, 3]) == (2, 3, 1, 1, 1, 3)

    def test_empty_is_missing(self):
        assert summary_stats([]) is None


    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300))
    def test_matches_numpy_reductions_bitwise(self, values):
        arr = np.array(values)
        expected = (arr.mean(), arr.max(), arr.min(), arr.std(), arr[0], arr[-1])
        assert summary_stats(arr) == tuple(float(v) for v in expected)


class TestSlope:
    def test_exact_linear_recovery(self):
        t = [0, 60, 120]
        v = [0.05 * x + 7 for x in t]
        assert least_squares_slope(t, v) == pytest.approx(0.05, abs=1e-12)

    def test_constant_signal_zero_slope(self):
        assert least_squares_slope([0, 60, 120], [5, 5, 5]) == 0.0

    def test_two_point_slope(self):
        assert least_squares_slope([0, 100], [10, 20]) == pytest.approx(0.1, abs=1e-12)

    def test_degenerate_inputs_missing(self):
        assert least_squares_slope([0], [1]) is None
        assert least_squares_slope([60, 60], [1, 2]) is None

    @settings(max_examples=200, deadline=None)
    @given(
        times=st.lists(st.integers(0, 3600), min_size=2, max_size=200, unique=True),
        data=st.data(),
    )
    def test_matches_numpy_mean_formula_bitwise(self, times, data):
        t = np.array(sorted(times), dtype=float)
        v = np.array(data.draw(st.lists(st.floats(0, 80), min_size=len(t), max_size=len(t))))
        tc = t - t.mean()
        assert least_squares_slope(t, v) == float(tc @ (v - v.mean()) / float(tc @ tc))

    def test_invariant_to_value_offset(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            t = np.sort(rng.choice(600, size=6, replace=False)).astype(float)
            v = rng.normal(size=6)
            s1 = least_squares_slope(t, v)
            s2 = least_squares_slope(t, v + 17.3)
            assert s1 == pytest.approx(s2, abs=1e-9)


class TestUtilization:
    def test_hand_ratio_arithmetic(self):
        s = make_series(offsets_s=(0, 60), current=(16.0, 32.0), pilot=(32.0, 32.0))
        assert utilization_stats(s.current, s.pilot) == (0.75, 1.0)

    def test_zero_pilot_missing(self):
        s = make_series(offsets_s=(0, 60), current=16.0, pilot=0.0)
        assert utilization_stats(s.current, s.pilot) == (None, None)

    @settings(max_examples=100, deadline=None)
    @given(pairs=st.lists(st.tuples(st.floats(0, 80), st.floats(0.5, 80)), min_size=1,
                          max_size=200))
    def test_mean_matches_numpy_bitwise(self, pairs):
        current, pilot = (np.array(column) for column in zip(*pairs))
        ratios = current / pilot
        assert utilization_stats(current, pilot) == (float(np.mean(ratios)), float(ratios.max()))

    def test_identity_ratio(self):
        s = make_series(offsets_s=(0, 60, 120), current=24.0, pilot=24.0)
        assert utilization_stats(s.current, s.pilot) == (1.0, 1.0)


class TestEarlyEnergy:
    def test_constant_current(self):
        # 208 V * 32 A / 1000 = 6.656 kW over 600 s = 1/6 h.
        t = np.arange(0, 601, 60)
        e = early_energy(t, np.full(t.size, 32.0), 208.0)
        assert e == pytest.approx(6.656 / 6, abs=1e-12)

    def test_linear_ramp_half_of_constant(self):
        t = np.arange(0, 601, 60)
        e = early_energy(t, 32.0 * t / 600.0, 208.0)
        assert e == pytest.approx(6.656 / 12, abs=1e-12)

    def test_single_sample_zero(self):
        assert early_energy([0.0], [32.0], 208.0) == 0.0


class TestCalendar:
    def test_quarter_period_identities(self):
        six = calendar_features(datetime(2019, 1, 7, 6, 0, 0, tzinfo=timezone.utc))
        assert six["hour_sin"] == pytest.approx(1.0, abs=1e-12)
        assert six["hour_cos"] == pytest.approx(0.0, abs=1e-12)
        zero = calendar_features(datetime(2019, 1, 7, 0, 0, 0, tzinfo=timezone.utc))
        assert zero["hour_sin"] == pytest.approx(0.0, abs=1e-12)
        assert zero["hour_cos"] == pytest.approx(1.0, abs=1e-12)

    def test_weekend_flag(self):
        saturday = calendar_features(datetime(2019, 1, 5, 12, 0, 0, tzinfo=timezone.utc))
        monday = calendar_features(datetime(2019, 1, 7, 12, 0, 0, tzinfo=timezone.utc))
        assert saturday["is_weekend"] and saturday["weekday"] == 5
        assert not monday["is_weekend"] and monday["weekday"] == 0

    def test_calendar_raw_fields(self):
        cal = calendar_features(datetime(2019, 3, 2, 23, 0, 0, tzinfo=timezone.utc))
        assert (cal["month"], cal["day_of_year"]) == (3, 61)


class TestDepartureOffset:
    def test_four_hours_is_240_minutes(self):
        s = make_session(requested_departure=T0 + timedelta(hours=4))
        assert departure_offset(s) == 240.0

    def test_absent_is_missing(self):
        assert departure_offset(make_session()) is None

    def test_negative_is_missing_and_warned(self, dataset_cfg):
        s = make_session(requested_departure=T0 - timedelta(minutes=30))
        assert departure_offset(s) is None
        table = build_feature_table([s], {"s1": make_series()}, dataset_cfg)
        assert table.warnings["negative_departure_offset"] == 1


class TestMergeAccounting:
    def test_preconnection_samples_counted(self, dataset_cfg):
        series = make_series(offsets_s=(-120, -60, 0, 60, 120, 180, 240))
        table = build_feature_table([make_session()], {"s1": series}, dataset_cfg)
        assert table.warnings["samples_before_connection"] == 2


class TestEarlyWindowExtraction:
    def test_boundary_rows(self, dataset_cfg):
        session = make_session()
        series = make_series(offsets_s=(0, 300, 601))
        window = series[slice(*early_window_bounds(session, series, dataset_cfg))]
        assert len(window) == 2

    def test_exact_boundary_included(self, dataset_cfg):
        session = make_session()
        series = make_series(offsets_s=(0, 600))
        assert len(series[slice(*early_window_bounds(session, series, dataset_cfg))]) == 2


class TestEarlyWindowFeatures:
    def test_invariants_on_random_windows(self, dataset_cfg):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(5, 15))
            offsets = tuple(sorted(rng.choice(660, size=n, replace=False).tolist()))
            current = tuple(rng.uniform(0, 40, size=n).tolist())
            pilot = tuple(rng.uniform(1, 40, size=n).tolist())
            session = make_session()
            series = make_series(offsets_s=offsets, current=current, pilot=pilot)
            ew = early_window_features(session, series, dataset_cfg)
            assert ew["current_min"] <= ew["current_mean"] <= ew["current_max"]
            assert ew["pilot_min"] <= ew["pilot_mean"] <= ew["pilot_max"]
            assert ew["util_mean"] <= ew["util_max"]
            assert ew["early_energy_kwh"] >= 0
            assert 0 <= ew["observed_window_minutes"] <= 10
            # Sanity bound: max ratio cannot exceed max current over min pilot.
            in_window = [i for i, o in enumerate(offsets) if o <= 600]
            cmax = max(current[i] for i in in_window)
            pmin = min(pilot[i] for i in in_window)
            assert ew["util_max"] <= cmax / pmin + 1e-12

    def test_missing_pilot_block(self, dataset_cfg):
        session = make_session()
        series = make_series(pilot=None)
        ew = early_window_features(session, series, dataset_cfg)
        assert math.isnan(ew["pilot_mean"]) and math.isnan(ew["pilot_slope"])
        assert math.isnan(ew["util_mean"]) and math.isnan(ew["util_max"])
        assert ew["n_pilot"] == 0 and ew["n_current"] == 5


class TestFeatureVector:
    def test_fully_populated_no_flags(self, dataset_cfg):
        session = make_session(
            requested_energy_kwh=10.0,
            available_minutes=240.0,
            requested_departure=T0 + timedelta(hours=4),
        )
        vec = build_feature_vector(session, make_series(), dataset_cfg)
        names = dict(zip(FEATURE_COLUMNS, vec.numeric))
        assert names["requested_energy_missing"] == 0.0
        assert names["available_minutes_missing"] == 0.0
        assert names["departure_offset_missing"] == 0.0
        assert not np.isnan(vec.numeric[UNSCALED_INDICES[0]])

    def test_missing_user_inputs_flagged(self, dataset_cfg):
        vec = build_feature_vector(make_session(), make_series(), dataset_cfg)
        names = dict(zip(FEATURE_COLUMNS, vec.numeric))
        assert names["requested_energy_missing"] == 1.0
        assert names["available_minutes_missing"] == 1.0
        assert names["departure_offset_missing"] == 1.0
        assert math.isnan(names["requested_energy_kwh"])

    def test_dimension_constant_across_sessions(self, dataset_cfg):
        a = build_feature_vector(make_session(), make_series(), dataset_cfg)
        b = build_feature_vector(
            make_session(session_id="s2", requested_energy_kwh=5.0),
            make_series(pilot=None),
            dataset_cfg,
        )
        assert a.numeric.size == b.numeric.size == len(FEATURE_COLUMNS)

    def test_no_leakage_from_beyond_window(self, dataset_cfg):
        rng = np.random.default_rng(77)
        session = make_session()
        offsets = (0, 60, 120, 180, 240, 700, 1200)
        base_current = [20.0] * 7
        base = build_feature_vector(
            session, make_series(offsets_s=offsets, current=tuple(base_current)), dataset_cfg
        )
        for _ in range(20):
            mutated = list(base_current)
            for i in (5, 6):  # samples after t_conn + W
                mutated[i] = float(rng.uniform(0, 80))
            vec = build_feature_vector(
                session, make_series(offsets_s=offsets, current=tuple(mutated)), dataset_cfg
            )
            np.testing.assert_array_equal(vec.numeric, base.numeric)


class TestScaler:
    def test_two_point_feature(self):
        X = np.array([[0.0], [2.0]])
        scaler = fit_scaler(X, exempt=())
        np.testing.assert_allclose(scaler.apply(X).ravel(), [-1.0, 1.0])

    def test_constant_feature_scales_to_zero(self):
        X = np.full((4, 1), 3.5)
        scaler = fit_scaler(X, exempt=())
        assert np.all(scaler.apply(X) == 0.0)

    def test_exempt_columns_unchanged(self, dataset_cfg, small_table):
        imputer = fit_imputer(small_table.X)
        X = imputer.apply(small_table.X)
        scaler = fit_scaler(X)
        out = scaler.apply(X)
        np.testing.assert_array_equal(
            out[:, list(UNSCALED_INDICES)], X[:, list(UNSCALED_INDICES)]
        )

    def test_train_mean_zero_std_one(self, small_table):
        X = fit_imputer(small_table.X).apply(small_table.X)
        scaler = fit_scaler(X)
        out = scaler.apply(X)
        scaled = [i for i in range(X.shape[1]) if i not in UNSCALED_INDICES]
        for i in scaled:
            if X[:, i].std() > 1e-8:
                assert abs(out[:, i].mean()) < 1e-9
                assert abs(out[:, i].std() - 1.0) < 1e-9

    def test_fit_ignores_rows_outside_train(self, small_table):
        X = fit_imputer(small_table.X).apply(small_table.X)
        train = X[:100]
        scaler_a = fit_scaler(train)
        perturbed = X.copy()
        perturbed[150:] += 99.0
        scaler_b = fit_scaler(perturbed[:100])
        np.testing.assert_array_equal(scaler_a.mean, scaler_b.mean)
        np.testing.assert_array_equal(scaler_a.std, scaler_b.std)

    def test_fit_on_empty_raises(self):
        with pytest.raises(ValueError):
            fit_scaler(np.empty((0, 3)))
        with pytest.raises(ValueError):
            fit_imputer(np.empty((0, 3)))


class TestImputer:
    def test_median_fill(self):
        X = np.array([[1.0, np.nan], [3.0, 4.0], [5.0, 8.0]])
        imputer = fit_imputer(X)
        out = imputer.apply(X)
        assert out[0, 1] == 6.0  # median of {4, 8}
        assert not np.isnan(out).any()

    def test_all_missing_column_falls_back_to_zero(self):
        X = np.array([[1.0, np.nan], [2.0, np.nan]])
        out = fit_imputer(X).apply(X)
        assert np.all(out[:, 1] == 0.0)


class TestFeaturesCsv:
    def test_roundtrip(self, tmp_path, small_table):
        path = tmp_path / "features.csv"
        write_features(path, small_table)
        back = read_features(path)
        np.testing.assert_array_equal(back.X, small_table.X)
        np.testing.assert_array_equal(back.y, small_table.y)
        assert back.session_ids == small_table.session_ids
        assert back.station_ids == small_table.station_ids

    def test_header_is_documented_order(self, tmp_path, small_table):
        path = tmp_path / "features.csv"
        write_features(path, small_table)
        header = path.read_text().splitlines()[0].split(",")
        assert header == ["session_id", "station_id", "target", *FEATURE_COLUMNS]

"""Feature construction, standardization, and the no-leakage guarantee.

Each per-session definition in features_reference.py is tested on its own
and through build_feature_table on a one-session table; TestTableOracle
requires the grouped table to equal the per-session reference bit for bit,
and TestBatchedForms names the numpy row forms that equality rests on.
"""

import csv
import hashlib
import io
import math
import re
import tempfile
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import features_reference
from conftest import T0, make_series, make_session, utc
from features_reference import (
    build_feature_vector,
    calendar_features,
    early_energy,
    early_window_features,
    least_squares_slope,
    summary_stats,
    utilization_stats,
)
from fedcharge import csvio, features
from fedcharge.csvio import csv_text
from fedcharge.features import (
    FEATURE_COLUMNS,
    FeatureTable,
    UNSCALED_INDICES,
    _first_max,
    _row_dot,
    build_feature_table,
    departure_offset,
    fit_imputer,
    fit_scaler,
    read_features,
    write_features,
)
from fedcharge.sessions import (
    DatasetConfig,
    SessionSeries,
    early_window_bounds,
    retain_sessions,
)

_STATS = ("mean", "max", "min", "std", "first", "last")


def table_row(session=None, cfg=DatasetConfig(), **series) -> dict[str, float]:
    """build_feature_table's row for one session (make_session() by default)
    whose readings are make_series(**series), by feature name."""
    session = session or make_session()
    readings = {session.session_id: make_series(start=session.connection_time, **series)}
    table = build_feature_table([session], readings, cfg)
    return dict(zip(FEATURE_COLUMNS, table.X[0].tolist()))


def current_stats(row: dict[str, float]) -> tuple[float, ...]:
    return tuple(row[f"current_{stat}"] for stat in _STATS)


class TestSummaryStats:
    def test_constant_signal(self):
        assert summary_stats([32, 32, 32]) == (32, 32, 32, 0, 32, 32)
        row = table_row(offsets_s=(0, 60, 120), current=(32, 32, 32))
        assert current_stats(row) == (32, 32, 32, 0, 32, 32)

    def test_two_values_population_std(self):
        # Population std of {1, 3}: sqrt(((1-2)^2 + (3-2)^2) / 2) = 1.
        assert summary_stats([1, 3]) == (2, 3, 1, 1, 1, 3)
        assert current_stats(table_row(offsets_s=(0, 60), current=(1, 3))) == (2, 3, 1, 1, 1, 3)

    def test_empty_is_missing(self):
        assert summary_stats([]) is None
        assert all(math.isnan(v) for v in current_stats(table_row(current=None)))

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300))
    def test_matches_numpy_reductions_bitwise(self, values):
        arr = np.array(values)
        expected = (arr.mean(), arr.max(), arr.min(), arr.std(), arr[0], arr[-1])
        assert summary_stats(arr) == tuple(float(v) for v in expected)
        row = table_row(offsets_s=range(len(values)), current=values)
        assert current_stats(row) == tuple(float(v) for v in expected)


class TestSlope:
    def test_exact_linear_recovery(self):
        t = [0, 60, 120]
        v = [0.05 * x + 7 for x in t]
        assert least_squares_slope(t, v) == pytest.approx(0.05, abs=1e-12)
        assert table_row(offsets_s=t, current=v)["current_slope"] == pytest.approx(0.05, abs=1e-12)

    def test_constant_signal_zero_slope(self):
        assert least_squares_slope([0, 60, 120], [5, 5, 5]) == 0.0
        assert table_row(offsets_s=(0, 60, 120), current=5.0)["current_slope"] == 0.0

    def test_two_point_slope(self):
        assert least_squares_slope([0, 100], [10, 20]) == pytest.approx(0.1, abs=1e-12)
        row = table_row(offsets_s=(0, 100), current=(10, 20))
        assert row["current_slope"] == pytest.approx(0.1, abs=1e-12)

    def test_degenerate_inputs_missing(self):
        assert least_squares_slope([0], [1]) is None
        assert least_squares_slope([60, 60], [1, 2]) is None
        # A series has strictly increasing times, so only one reading can be
        # degenerate there.
        assert math.isnan(table_row(offsets_s=(60,), current=1.0)["current_slope"])

    @settings(max_examples=200, deadline=None)
    @given(
        times=st.lists(st.integers(0, 3600), min_size=2, max_size=200, unique=True),
        data=st.data(),
    )
    def test_matches_numpy_mean_formula_bitwise(self, times, data):
        t = np.array(sorted(times), dtype=float)
        v = np.array(data.draw(st.lists(st.floats(0, 80), min_size=len(t), max_size=len(t))))
        tc = t - t.mean()
        expected = float(tc @ (v - v.mean()) / float(tc @ tc))
        assert least_squares_slope(t, v) == expected
        row = table_row(cfg=DatasetConfig(early_window_minutes=60), offsets_s=sorted(times),
                        current=tuple(v))
        assert row["current_slope"] == expected

    def test_invariant_to_value_offset(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            t = np.sort(rng.choice(600, size=6, replace=False)).astype(float)
            v = rng.normal(size=6)
            s1 = least_squares_slope(t, v)
            s2 = least_squares_slope(t, v + 17.3)
            assert s1 == pytest.approx(s2, abs=1e-9)
            r1 = table_row(offsets_s=t, current=tuple(v))["current_slope"]
            r2 = table_row(offsets_s=t, current=tuple(v + 17.3))["current_slope"]
            assert r1 == pytest.approx(r2, abs=1e-9) and r1 == pytest.approx(s1, abs=1e-9)


def util(row: dict[str, float]) -> tuple[float, float]:
    return row["util_mean"], row["util_max"]


class TestUtilization:
    def test_hand_ratio_arithmetic(self):
        s = make_series(offsets_s=(0, 60), current=(16.0, 32.0), pilot=(32.0, 32.0))
        assert utilization_stats(s.current, s.pilot) == (0.75, 1.0)
        row = table_row(offsets_s=(0, 60), current=(16.0, 32.0), pilot=(32.0, 32.0))
        assert util(row) == (0.75, 1.0)

    def test_zero_pilot_missing(self):
        s = make_series(offsets_s=(0, 60), current=16.0, pilot=0.0)
        assert utilization_stats(s.current, s.pilot) == (None, None)
        assert all(map(math.isnan, util(table_row(offsets_s=(0, 60), current=16.0, pilot=0.0))))

    @settings(max_examples=100, deadline=None)
    @given(pairs=st.lists(st.tuples(st.floats(0, 80), st.floats(0.5, 80)), min_size=1,
                          max_size=200))
    def test_mean_matches_numpy_bitwise(self, pairs):
        current, pilot = (np.array(column) for column in zip(*pairs))
        ratios = current / pilot
        expected = (float(np.mean(ratios)), float(ratios.max()))
        assert utilization_stats(current, pilot) == expected
        row = table_row(offsets_s=range(len(pairs)), current=tuple(current), pilot=tuple(pilot))
        assert util(row) == expected

    def test_identity_ratio(self):
        s = make_series(offsets_s=(0, 60, 120), current=24.0, pilot=24.0)
        assert utilization_stats(s.current, s.pilot) == (1.0, 1.0)
        assert util(table_row(offsets_s=(0, 60, 120), current=24.0, pilot=24.0)) == (1.0, 1.0)


class TestEarlyEnergy:
    def test_constant_current(self):
        # 208 V * 32 A / 1000 = 6.656 kW over 600 s = 1/6 h.
        t = np.arange(0, 601, 60)
        e = early_energy(t, np.full(t.size, 32.0), 208.0)
        assert e == pytest.approx(6.656 / 6, abs=1e-12)
        row = table_row(offsets_s=t, current=32.0)
        assert row["early_energy_kwh"] == pytest.approx(6.656 / 6, abs=1e-12)

    def test_linear_ramp_half_of_constant(self):
        t = np.arange(0, 601, 60)
        e = early_energy(t, 32.0 * t / 600.0, 208.0)
        assert e == pytest.approx(6.656 / 12, abs=1e-12)
        row = table_row(offsets_s=t, current=tuple(32.0 * t / 600.0))
        assert row["early_energy_kwh"] == pytest.approx(6.656 / 12, abs=1e-12)

    def test_single_sample_zero(self):
        assert early_energy([0.0], [32.0], 208.0) == 0.0
        assert table_row(offsets_s=(0,), current=32.0)["early_energy_kwh"] == 0.0


def calendar_row(when: int) -> dict[str, float]:
    return table_row(make_session(connection_time=when))


class TestCalendar:
    def test_quarter_period_identities(self):
        for features in (calendar_features, calendar_row):
            six = features(utc(2019, 1, 7, 6))
            assert six["hour_sin"] == pytest.approx(1.0, abs=1e-12)
            assert six["hour_cos"] == pytest.approx(0.0, abs=1e-12)
            zero = features(utc(2019, 1, 7, 0))
            assert zero["hour_sin"] == pytest.approx(0.0, abs=1e-12)
            assert zero["hour_cos"] == pytest.approx(1.0, abs=1e-12)

    def test_weekend_flag(self):
        saturday = calendar_features(utc(2019, 1, 5, 12))
        monday = calendar_features(utc(2019, 1, 7, 12))
        assert saturday["is_weekend"] and saturday["weekday"] == 5
        assert not monday["is_weekend"] and monday["weekday"] == 0
        assert calendar_row(utc(2019, 1, 5, 12))["is_weekend"]
        assert not calendar_row(utc(2019, 1, 7, 12))["is_weekend"]

    def test_calendar_raw_fields(self):
        when = utc(2019, 3, 2, 23)
        cal = calendar_features(when)
        assert (cal["month"], cal["day_of_year"]) == (3, 61)
        # The table keeps only the encodings: month 3 of 12 and day 61 of 366.
        row = calendar_row(when)
        assert row["month_sin"] == math.sin(2.0 * math.pi * 2 / 12)
        assert row["day_of_year_cos"] == math.cos(2.0 * math.pi * 60 / 366)

    def test_every_calendar_value_matches_reference(self):
        # One session per hour of a leap year: every hour, weekday, month and
        # day of year the lookup tables hold.
        cfg = DatasetConfig()
        start = utc(2020, 1, 1)
        sessions = [make_session(session_id=f"s{h}", connection_time=start + 3600 * h)
                    for h in range(0, 366 * 24, 5)]
        series = {s.session_id: make_series(start=s.connection_time) for s in sessions}
        names = [n for n in FEATURE_COLUMNS if n.endswith(("_sin", "_cos")) or n == "is_weekend"]
        table = build_feature_table(sessions, series, cfg)
        for session, row in zip(sessions, table.X):
            cal = calendar_features(session.connection_time)
            assert [cal[n] for n in names] == [row[FEATURE_COLUMNS.index(n)] for n in names]


class TestDepartureOffset:
    def test_four_hours_is_240_minutes(self):
        s = make_session(requested_departure=T0 + 4 * 3600)
        assert departure_offset(s) == 240.0

    def test_absent_is_missing(self):
        assert departure_offset(make_session()) is None

    def test_negative_is_missing_and_warned(self, dataset_cfg):
        s = make_session(requested_departure=T0 - 30 * 60)
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
        assert table_row(offsets_s=(0, 300, 601))["n_merged"] == 2

    def test_exact_boundary_included(self, dataset_cfg):
        session = make_session()
        series = make_series(offsets_s=(0, 600))
        assert len(series[slice(*early_window_bounds(session, series, dataset_cfg))]) == 2
        assert table_row(offsets_s=(0, 600))["n_merged"] == 2


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
            for ew in (
                early_window_features(session, series, dataset_cfg),
                table_row(session, offsets_s=offsets, current=current, pilot=pilot),
            ):
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
        for ew in (early_window_features(session, series, dataset_cfg), table_row(pilot=None)):
            assert math.isnan(ew["pilot_mean"]) and math.isnan(ew["pilot_slope"])
            assert math.isnan(ew["util_mean"]) and math.isnan(ew["util_max"])
            assert ew["n_pilot"] == 0 and ew["n_current"] == 5


def numerics(session, series, cfg) -> tuple[np.ndarray, np.ndarray]:
    """The reference vector's numbers and the table row's, for one session."""
    table = build_feature_table([session], {session.session_id: series}, cfg)
    return build_feature_vector(session, series, cfg).numeric, table.X[0]


class TestFeatureVector:
    def test_fully_populated_no_flags(self, dataset_cfg):
        session = make_session(
            requested_energy_kwh=10.0,
            available_minutes=240.0,
            requested_departure=T0 + 4 * 3600,
        )
        for numeric in numerics(session, make_series(), dataset_cfg):
            names = dict(zip(FEATURE_COLUMNS, numeric))
            assert names["requested_energy_missing"] == 0.0
            assert names["available_minutes_missing"] == 0.0
            assert names["departure_offset_missing"] == 0.0
            assert not np.isnan(numeric[UNSCALED_INDICES[0]])

    def test_missing_user_inputs_flagged(self, dataset_cfg):
        for numeric in numerics(make_session(), make_series(), dataset_cfg):
            names = dict(zip(FEATURE_COLUMNS, numeric))
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
        table = build_feature_table(
            [make_session(), make_session(session_id="s2", requested_energy_kwh=5.0)],
            {"s1": make_series(), "s2": make_series(pilot=None)},
            dataset_cfg,
        )
        assert table.X.shape == (2, len(FEATURE_COLUMNS))

    def test_no_leakage_from_beyond_window(self, dataset_cfg):
        rng = np.random.default_rng(77)
        session = make_session()
        offsets = (0, 60, 120, 180, 240, 700, 1200)
        base_current = [20.0] * 7
        base = numerics(
            session, make_series(offsets_s=offsets, current=tuple(base_current)), dataset_cfg
        )
        for _ in range(20):
            mutated = list(base_current)
            for i in (5, 6):  # samples after t_conn + W
                mutated[i] = float(rng.uniform(0, 80))
            vecs = numerics(
                session, make_series(offsets_s=offsets, current=tuple(mutated)), dataset_cfg
            )
            for vec, base_vec in zip(vecs, base):
                np.testing.assert_array_equal(vec, base_vec)


def assert_identical(got, want):
    """Same X, y and warnings bit for bit (key order included), same ids."""
    assert got.X.shape == want.X.shape and got.X.dtype == want.X.dtype
    assert got.X.tobytes() == want.X.tobytes()
    assert got.y.tobytes() == want.y.tobytes()
    assert list(got.warnings.items()) == list(want.warnings.items())
    assert (got.session_ids, got.station_ids) == (want.session_ids, want.station_ids)


def readings(start: int, offsets, rng, current="mixed", pilot="mixed"):
    """A series at whole seconds start + offset. A column is "mixed" (values,
    NaN, 0.0 and -0.0, repeats), "full" (no NaN), "nan" (absent throughout)
    or "nonpositive" (no value above 0). A reading with neither signal gets
    a current, or a pilot when current is "nan"."""
    n = len(offsets)

    def column(kind):
        values = np.round(rng.uniform(-5.0, 80.0, n), int(rng.integers(0, 4)))
        if kind == "nan":
            return np.full(n, np.nan)
        if kind == "nonpositive":
            values = -np.abs(values)
        special = rng.choice(4, size=n, p=(0.6, 0.1, 0.15, 0.15))
        values[special == 2], values[special == 3] = -0.0, 0.0
        if kind == "mixed":
            values[special == 1] = np.nan
        return values

    cur, pil = column(current), column(pilot)
    neither = np.isnan(cur) & np.isnan(pil)
    (pil if current == "nan" else cur)[neither] = 32.0
    t = start + np.array(list(offsets), dtype=np.int64)
    return SessionSeries(t, cur, pil)


@st.composite
def depots(draw):
    """(sessions, series, cfg): up to 8 sessions whose windows are sparse,
    dense (up to 901 readings, past numpy's 128-value pairwise block), empty,
    or hold readings only before connection or only after the window."""
    cfg = DatasetConfig(
        early_window_minutes=draw(st.sampled_from([10.0, 7.5, 1.0, 0.01, 15.0])),
        nominal_voltage_v=draw(st.sampled_from([208.0, 230.0, 1.5])),
    )
    sessions, series = [], {}
    for k in range(draw(st.integers(0, 8))):
        conn = T0 + 86_400 * draw(st.integers(0, 800)) + draw(st.integers(0, 86_399))
        layout = draw(st.sampled_from(["sparse", "dense", "empty", "before", "after"]))
        if layout == "sparse":
            offsets = sorted(draw(st.lists(st.integers(-120, 1000), unique=True, max_size=40)))
        elif layout == "dense":
            lo, step = draw(st.integers(-30, 3)), draw(st.integers(1, 4))
            offsets = range(lo, draw(st.integers(lo, 1000)), step)
        else:
            offsets = {"empty": [], "before": [-90, -30, -1], "after": [901, 960]}[layout]
        kinds = ["mixed", "full", "nan", "nonpositive"]
        current, pilot = draw(st.sampled_from(kinds)), draw(st.sampled_from(kinds))
        if current == pilot == "nan":
            pilot = "full"
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        departure = draw(st.sampled_from([None, -45.5, 0.0, 240.0]))
        sessions.append(make_session(
            session_id=f"s{k}", station_id=f"ST{k % 3}", connection_time=conn,
            delivered=draw(st.floats(0, 80)),
            requested_energy_kwh=draw(st.one_of(st.none(), st.floats(0, 100))),
            available_minutes=draw(st.one_of(st.none(), st.integers(0, 600), st.floats(0, 600))),
            requested_departure=None if departure is None else conn + int(60 * departure),
        ))
        series[f"s{k}"] = readings(conn, offsets, rng, current, pilot)
    return sessions, series, cfg


class TestTableOracle:
    """build_feature_table equals the per-session reference bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(depot=depots())
    def test_matches_reference_bitwise(self, depot):
        sessions, series, cfg = depot
        assert_identical(build_feature_table(sessions, series, cfg),
                         features_reference.build_feature_table(sessions, series, cfg))
        # The windows retention found are the ones featurizing would find.
        retained = retain_sessions(sessions, series, cfg)
        assert_identical(build_feature_table(retained.sessions, series, cfg, retained.windows),
                         features_reference.build_feature_table(retained.sessions, series, cfg))

    @pytest.mark.parametrize("case", [
        "all_nan_current", "all_nan_pilot", "empty_window", "one_reading", "no_positive_pilot",
        "before_connection", "long_window", "departure_before_connection", "negative_zero",
    ])
    def test_named_case_matches_reference(self, case, dataset_cfg):
        rng = np.random.default_rng(5)
        offsets, current, pilot, kwargs = range(0, 600, 60), "mixed", "mixed", {}
        if case in ("all_nan_current", "all_nan_pilot"):
            current, pilot = ("nan", "full") if case == "all_nan_current" else ("full", "nan")
        elif case == "empty_window":
            offsets = [-60, 700]
        elif case == "one_reading":
            offsets = [30]
        elif case == "no_positive_pilot":
            pilot = "nonpositive"
        elif case == "before_connection":
            offsets = range(-300, 300, 45)
        elif case == "long_window":
            offsets = range(0, 601, 2)  # 301 readings
        elif case == "departure_before_connection":
            kwargs = {"requested_departure": T0 - 60}
        sessions = [make_session(**kwargs), make_session(session_id="s2")]
        series = {"s1": readings(T0, offsets, rng, current, pilot),
                  "s2": make_series(offsets_s=range(0, 300, 30))}
        if case == "negative_zero":
            series["s1"] = make_series(offsets_s=(0, 60, 120), current=(-0.0, -0.0, 0.0),
                                       pilot=(-0.0, 16.0, 16.0))
        got = build_feature_table(sessions, series, dataset_cfg)
        assert_identical(got, features_reference.build_feature_table(sessions, series, dataset_cfg))
        if case == "negative_zero":  # ratios [-0.0, 0.0]: max() keeps the first
            row = dict(zip(FEATURE_COLUMNS, got.X[0]))
            assert math.copysign(1.0, row["current_first"]) == -1.0
            assert math.copysign(1.0, row["util_max"]) == -1.0

    def test_empty_session_list(self, dataset_cfg):
        table = build_feature_table([], {}, dataset_cfg)
        assert table.X.shape == (0, len(FEATURE_COLUMNS)) and len(table) == 0
        assert_identical(table, features_reference.build_feature_table([], {}, dataset_cfg))

    def test_walkthrough_depot_matches_reference(self, small_depot, dataset_cfg):
        sessions, series, table = small_depot
        kept = [s for s in sessions if s.session_id in set(table.session_ids)]
        assert_identical(table, features_reference.build_feature_table(kept, series, dataset_cfg))


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def row_matrix(rng, rows: int, n: int) -> np.ndarray:
    """Values across 9 orders of magnitude, with signed zeros and repeats."""
    out = rng.normal(size=(rows, n)) * 10.0 ** rng.integers(-3, 6, size=(rows, 1))
    out[rng.random((rows, n)) < 0.1] = -0.0
    out[rng.random((rows, n)) < 0.1] = 0.0
    out[rng.random((rows, n)) < 0.1] = 1.5
    return out


class TestBatchedForms:
    """Each row form build_feature_table uses is bit-equal to the per-row form
    the reference uses, at every length up to 300. A numpy whose loops round
    differently fails here by name."""

    LENGTHS = range(1, 301)

    def test_row_reductions_match_each_row(self):
        rng = np.random.default_rng(0)
        for n in self.LENGTHS:
            A = row_matrix(rng, 6, n)
            for got, per_row in (
                (np.add.reduce(A, axis=1), np.add.reduce),
                (A.max(axis=1), np.ndarray.max),
                (A.min(axis=1), np.ndarray.min),
            ):
                assert bits(got) == bits([per_row(row) for row in A]), (per_row, n)

    def test_stacked_matmul_matches_1d_dot(self):
        rng = np.random.default_rng(1)
        for n in self.LENGTHS:
            A, B = row_matrix(rng, 6, n), row_matrix(rng, 6, n)
            assert bits(_row_dot(A, B)) == bits([a @ b for a, b in zip(A, B)]), n
            assert bits(_row_dot(A, A)) == bits([a @ a for a in A]), n

    def test_first_max_matches_python_max(self):
        rng = np.random.default_rng(2)
        for n in self.LENGTHS:
            R = rng.choice([-0.0, 0.0, 0.5, -1.0, 2.0, np.nan], size=(12, n))
            R[0] = -0.0
            R[1, 0] = np.nan
            assert bits(_first_max(R)) == bits([max(row.tolist()) for row in R]), n


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

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(1, 1300),  # np.nanmedian changes method at 600 rows
        cols=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        pool=st.lists(st.sampled_from([np.nan, -0.0, 0.0, 1.0, -2.5, np.inf, -np.inf]),
                      max_size=4),
        missing=st.floats(0.0, 1.0),
    )
    def test_medians_are_nanmedians_bitwise(self, rows, cols, seed, pool, missing):
        """Ties, signed zeros, NaN and infinities, and all-missing columns."""
        rng = np.random.default_rng(seed)
        X = np.round(rng.normal(size=(rows, cols)) * 3) / 2
        if pool:
            X = np.where(rng.random(X.shape) < 0.5, rng.choice(pool, size=X.shape), X)
        X[rng.random(X.shape) < missing] = np.nan
        with np.errstate(invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns
            want = np.nanmedian(X, axis=0)
        want = np.where(np.isnan(want), 0.0, want)
        assert fit_imputer(X).medians.tobytes() == want.tobytes()


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


# Ids csv.writer quotes (a comma, a quote, a line break) and ids it leaves.
csv_ids = st.one_of(
    st.sampled_from(["s1", "ST000-0001", "a,b", 'q"t', "two\nlines", "cr\r", "", " ", "é",
                     "x:y.z", "tab\t", "\u2028"]),
    st.text(max_size=6),
)
# NaN (missing), -0.0, subnormals and the extremes of the float range.
feature_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e-7, 0.1]),
)


@st.composite
def feature_tables(draw):
    n = draw(st.integers(0, 6))
    d = len(FEATURE_COLUMNS)
    values = draw(st.lists(feature_values, min_size=n * (d + 1), max_size=n * (d + 1)))
    if n and draw(st.booleans()):  # runs of one value down a column
        values = [values[0]] * len(values)
    matrix = np.array(values, dtype=float).reshape(n, d + 1)
    return FeatureTable(
        X=matrix[:, 1:], y=matrix[:, 0],
        session_ids=draw(st.lists(csv_ids, min_size=n, max_size=n)),
        station_ids=draw(st.lists(csv_ids, min_size=n, max_size=n)), warnings=Counter(),
    )


# Bit patterns: both zeros, NaNs of either sign with different payloads (one
# signalling), subnormals, both infinities and the ends of the normal range.
SPECIAL_BITS = [0x0, 0x8000000000000000, 0x7FF8000000000000, 0xFFF8000000000000,
                0x7FF8000000000001, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF, 0x1,
                0x800FFFFFFFFFFFFF, 0x7FF0000000000000, 0xFFF0000000000000,
                0x0010000000000000, 0x7FEFFFFFFFFFFFFF]


def bit_table(n: int, bits, session_ids=None) -> FeatureTable:
    """A table of n rows whose target and features hold the float64 bits given
    row by row."""
    matrix = np.array(bits, np.uint64).view(np.float64).reshape(n, len(FEATURE_COLUMNS) + 1)
    ids = session_ids or [f"s{i}" for i in range(n)]
    return FeatureTable(X=matrix[:, 1:], y=matrix[:, 0],
                        session_ids=ids, station_ids=ids, warnings=Counter())


@st.composite
def shared_bit_tables(draw):
    """Tables drawn from a pool of a few bit patterns, so that each pattern
    recurs across rows and columns, target included."""
    n = draw(st.integers(0, 5))
    pool = draw(st.lists(st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(0, 2**64 - 1)),
                         min_size=1, max_size=6))
    cells = n * (len(FEATURE_COLUMNS) + 1)
    picks = draw(st.lists(st.sampled_from(pool), min_size=cells, max_size=cells))
    return bit_table(n, picks, draw(st.lists(csv_ids, min_size=n, max_size=n)))


def assert_same_bytes(table: FeatureTable, reference) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp) / "ours.csv", Path(tmp) / "reference.csv"
        write_features(ours, table)
        reference(theirs, table)
        assert ours.read_bytes() == theirs.read_bytes()


class TestReprTableOracle:
    """write_features' one repr table per file against the column-at-a-time
    writer it replaced (features_reference.write_features_by_column)."""

    @settings(max_examples=200, deadline=None)
    @given(table=shared_bit_tables())
    def test_bytes_match_the_column_writer(self, table):
        assert_same_bytes(table, features_reference.write_features_by_column)

    def test_every_special_pattern_in_every_column(self):
        n = len(SPECIAL_BITS)
        width = len(FEATURE_COLUMNS) + 1
        table = bit_table(n, [SPECIAL_BITS[(i + j) % n] for i in range(n) for j in range(width)])
        for reference in (features_reference.write_features_by_column,
                          features_reference.write_features):
            assert_same_bytes(table, reference)

    def test_zero_rows(self):
        for reference in (features_reference.write_features_by_column,
                          features_reference.write_features):
            assert_same_bytes(bit_table(0, []), reference)


class TestWriterOracle:
    @settings(max_examples=100, deadline=None)
    @given(table=feature_tables())
    def test_bytes_match_the_csv_writer(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            ours, reference = Path(tmp) / "ours.csv", Path(tmp) / "reference.csv"
            write_features(ours, table)
            features_reference.write_features(reference, table)
            assert ours.read_bytes() == reference.read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(csv_ids, st.text()))
    def test_a_text_is_what_the_csv_writer_writes(self, text):
        buf = io.StringIO()
        csv.writer(buf).writerow([text, ""])
        assert csv_text(text) == buf.getvalue()[: -len(",\r\n")]


# Faults a features.csv file can hold, each made on one row of cells.
FAULTS = ("short row", "long row", "word", "fullwidth digit", "empty target", "nan target",
          "infinite feature", "nan feature", "empty feature", "blank line", "bad header")


@st.composite
def features_files(draw):
    """The text of a written table (feature_tables() or shared_bit_tables()),
    ids quoted and some with line breaks, with up to three faults and \r\n
    or \n line ends."""
    table = draw(st.one_of(feature_tables(), shared_bit_tables()))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "features.csv"
        write_features(path, table)
        rows = list(csv.reader(io.StringIO(path.read_bytes().decode(), newline="")))
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(FAULTS))
        k = 0 if fault == "bad header" else draw(st.integers(1, max(len(rows) - 1, 1)))
        if fault == "blank line":
            rows.insert(k, [])
            continue
        if k >= len(rows) or not rows[k]:
            continue
        row, j = rows[k], draw(st.integers(3, len(rows[k]) - 1))
        if fault in ("short row", "bad header"):
            row.pop(draw(st.integers(0, len(row) - 1)))
        elif fault == "long row":
            row.append(draw(st.sampled_from(["", "1.0"])))
        elif fault == "word":
            row[draw(st.integers(2, len(row) - 1))] = draw(st.sampled_from(["abc", "1..2", " "]))
        else:
            j = 2 if fault.endswith("target") else j
            row[j] = {"fullwidth digit": "\uff11.5", "infinite feature": "-inf"}.get(
                fault, "nan" if fault.startswith("nan") else "")
    buf = io.StringIO()
    csv.writer(buf, lineterminator=draw(st.sampled_from(["\r\n", "\n"]))).writerows(rows)
    return buf.getvalue()


def read_outcome(read, path):
    """The table read, or the message of the ValueError raised."""
    try:
        return read(path)
    except ValueError as exc:
        return str(exc)


class TestReaderOracle:
    """read_features through csvio against the csv.reader loop it replaced
    (features_reference.read_features): the same table bit for bit, or the
    same path:line message."""

    @settings(max_examples=300, deadline=None)
    @given(text=features_files(), chunk_rows=st.sampled_from([1, 2, 3, csvio.CHUNK_ROWS]))
    def test_matches_the_csv_reader(self, text, chunk_rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "features.csv"
            path.write_text(text, encoding="utf-8", newline="")
            with mock.patch.object(csvio, "CHUNK_ROWS", chunk_rows):
                ours = read_outcome(read_features, path)
            expected = read_outcome(features_reference.read_features, path)
        if isinstance(expected, str):
            assert ours == expected
        else:
            assert_identical(ours, expected)

    @pytest.mark.parametrize("fault", FAULTS)
    def test_each_fault_in_a_plain_file(self, tmp_path, small_table, fault):
        """One fault on line 4 of a file the byte tokenizer reads (or line 1,
        the header), with the message the reference gives."""
        path = tmp_path / "features.csv"
        write_features(path, small_table)
        lines = path.read_bytes().decode().split("\r\n")
        k = 0 if fault == "bad header" else 3
        cells = lines[k].split(",")
        if fault in ("short row", "bad header"):
            cells.pop()
        elif fault == "long row":
            cells.append("1.0")
        elif fault == "word":
            cells[7] = "abc"
        elif fault == "blank line":
            cells = ["\r\n" + cells[0], *cells[1:]]
        else:
            cells[2 if fault.endswith("target") else 5] = {
                "fullwidth digit": "\uff11.5", "infinite feature": "-inf"}.get(
                fault, "nan" if fault.startswith("nan") else "")
        lines[k] = ",".join(cells)
        path.write_text("\r\n".join(lines), encoding="utf-8", newline="")
        ours, expected = read_outcome(read_features, path), read_outcome(
            features_reference.read_features, path)
        if isinstance(expected, str):
            assert ours == expected
        else:
            assert_identical(ours, expected)


# features.csv.cache: magic, version, the CSV's sha256 and the row count, then
# the target and features as little-endian float64 rows and the ids.
MAGIC, VERSION, HASH = slice(0, 8), slice(8, 12), slice(12, 44)
BODY = 52
# Ids csvio writes unquoted: word characters of any script and _.:-
plain_ids = st.one_of(
    st.sampled_from(["s1", "ST000-0001", "x:y.z", "a_b-c.d:e", "é", "站点7", "Ωμέγα", ""]),
    st.from_regex(r"[\w.:-]{0,8}", fullmatch=True),
)
# NaN of any payload (read back as the NaN of an empty cell), -0.0,
# subnormals and +-1e308.
cacheable_values = st.one_of(
    st.floats(allow_infinity=False),
    st.sampled_from([math.nan, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308]),
    st.integers(0, 2**64 - 1).map(lambda b: np.array(b, np.uint64).view(np.float64).item())
    .filter(lambda v: not math.isinf(v)),
)


@st.composite
def cacheable_tables(draw):
    """Tables read_features reads back from their CSV without an error."""
    n = draw(st.integers(0, 4))
    d = len(FEATURE_COLUMNS)
    X = draw(st.lists(cacheable_values, min_size=n * d, max_size=n * d))
    y = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n))
    return FeatureTable(
        X=np.array(X, dtype=float).reshape(n, d), y=np.array(y, dtype=float),
        session_ids=draw(st.lists(plain_ids, min_size=n, max_size=n)),
        station_ids=draw(st.lists(plain_ids, min_size=n, max_size=n)), warnings=Counter(),
    )


def assert_same_table(got: FeatureTable, want: FeatureTable) -> None:
    """The same bits in X and y, the same ids, and arrays laid out alike."""
    assert got.X.shape == want.X.shape and got.y.shape == want.y.shape
    assert np.array_equal(got.X.view(np.int64), want.X.view(np.int64))
    assert np.array_equal(got.y.view(np.int64), want.y.view(np.int64))
    assert (got.session_ids, got.station_ids) == (want.session_ids, want.station_ids)
    for array in (got.X, got.y):
        assert array.dtype == np.float64 and array.flags.c_contiguous and array.flags.writeable


def parsed(path: Path):
    """read_features' outcome with the cache beside path deleted."""
    Path(f"{path}.cache").unlink(missing_ok=True)
    return read_outcome(read_features, path)


def same_outcome(got, want) -> None:
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_table(got, want)


def cached_file(tmp_path: Path, table: FeatureTable, name="features.csv") -> Path:
    """table written to tmp_path / name, with its cache."""
    path = tmp_path / name
    write_features(path, table)
    assert Path(f"{path}.cache").exists()
    return path


class TestCache:
    """features.csv.cache against the CSV it sits beside: read_features with
    the cache gives what it gives with the cache deleted, table or error."""

    @settings(max_examples=200, deadline=None)
    @given(table=cacheable_tables())
    def test_the_cache_holds_the_csv_table(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            path = cached_file(Path(tmp), table)
            cached = read_features(path)
            assert features._read_cache(path) is not None
            assert_same_table(cached, parsed(path))

    @settings(max_examples=200, deadline=None)
    @given(table=st.one_of(feature_tables(), shared_bit_tables(), cacheable_tables()))
    def test_a_cache_is_written_only_for_a_table_read_back_as_written(self, table):
        """Ids quoted or not, NaN targets, infinite features: the cache is
        there exactly when the CSV path reads the table back without an error."""
        ids = [*table.session_ids, *table.station_ids]
        readable = (all(re.fullmatch(r"[\w.:-]*", i) for i in ids)
                    and np.isfinite(table.y).all() and not np.isinf(table.X).any())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "features.csv"
            write_features(path, table)
            assert Path(f"{path}.cache").exists() == readable
            outcome = read_outcome(read_features, path)
            same_outcome(outcome, parsed(path))
        assert isinstance(outcome, FeatureTable) or not readable

    @pytest.mark.parametrize("rows", [0, 1])
    def test_zero_and_one_rows(self, tmp_path, small_table, rows):
        table = FeatureTable(X=small_table.X[:rows], y=small_table.y[:rows],
                             session_ids=small_table.session_ids[:rows],
                             station_ids=small_table.station_ids[:rows], warnings=Counter())
        path = cached_file(tmp_path, table)
        assert_same_table(read_features(path), parsed(path))

    def test_the_bytes_are_those_of_the_layout(self, tmp_path, small_table):
        path = cached_file(tmp_path, small_table)
        blob = Path(f"{path}.cache").read_bytes()
        n, d = len(small_table), len(FEATURE_COLUMNS)
        assert blob[HASH] == hashlib.sha256(path.read_bytes()).digest()
        assert int.from_bytes(blob[44:BODY], "little") == n
        values = np.frombuffer(blob, "<f8", n * (d + 1), BODY).reshape(n, d + 1)
        assert values.tobytes() == np.column_stack([small_table.y, small_table.X]).tobytes()
        ids = [*small_table.session_ids, *small_table.station_ids]
        assert blob[BODY + values.nbytes:] == "".join(f"{i}\n" for i in ids).encode()

    @staticmethod
    def _forge(path: Path, edit) -> None:
        """Edit the cache's bytes, then bind it to path's bytes again."""
        cache = Path(f"{path}.cache")
        blob = bytearray(cache.read_bytes())
        edit(blob)
        blob[HASH] = hashlib.sha256(path.read_bytes()).digest()
        cache.write_bytes(bytes(blob))

    @staticmethod
    def _plant(value: float, column: int):
        def edit(blob):
            blob[BODY + 8 * column : BODY + 8 * column + 8] = np.float64(value).tobytes()
        return edit

    @pytest.mark.parametrize("case", [
        "csv edited by one byte", "cache truncated", "wrong magic", "wrong version",
        "cache of another table", "nan target planted", "inf feature planted",
        "header not today's", "ids not plain planted", "rows raised",
    ])
    def test_a_cache_that_does_not_hold_the_table_is_ignored(self, tmp_path, small_table,
                                                              case):
        path = cached_file(tmp_path, small_table)
        cache = Path(f"{path}.cache")
        blob = cache.read_bytes()
        if case == "csv edited by one byte":
            text = path.read_bytes()
            at = text.index(b"\r\n") + 2 + text[text.index(b"\r\n") + 2 :].index(b",") - 1
            path.write_bytes(text[:at] + b"Z" + text[at + 1 :])  # the first session id's last byte
        elif case == "cache truncated":
            cache.write_bytes(blob[:-1])
        elif case == "wrong magic":
            cache.write_bytes(b"x" + blob[1:])
        elif case == "wrong version":
            cache.write_bytes(blob[MAGIC] + (2).to_bytes(4, "little") + blob[12:])
        elif case == "cache of another table":
            other = cached_file(tmp_path, FeatureTable(
                X=small_table.X[1:], y=small_table.y[1:], session_ids=small_table.session_ids[1:],
                station_ids=small_table.station_ids[1:], warnings=Counter()), "other.csv")
            cache.write_bytes(Path(f"{other}.cache").read_bytes())
        elif case == "nan target planted":
            self._forge(path, self._plant(math.nan, 0))
        elif case == "inf feature planted":
            self._forge(path, self._plant(-math.inf, 5))
        elif case == "header not today's":
            path.write_bytes(path.read_bytes().replace(b",target,", b",energy,", 1))
            self._forge(path, lambda blob: None)
        elif case == "ids not plain planted":
            self._forge(path, lambda blob: blob.__setitem__(-2, ord(",")))
        else:  # a row count one higher, the body one row longer
            width = 8 * (len(FEATURE_COLUMNS) + 1)
            self._forge(path, lambda blob: blob.__setitem__(
                slice(44, BODY), (len(small_table) + 1).to_bytes(8, "little")))
            cache.write_bytes(cache.read_bytes() + bytes(width))
        assert features._read_cache(path) is None
        outcome = read_outcome(read_features, path)
        same_outcome(outcome, parsed(path))
        if case == "header not today's":
            assert outcome == f"unexpected features.csv header in {path}"
        elif case == "csv edited by one byte":
            assert outcome.session_ids[0].endswith("Z")

    @pytest.mark.parametrize("case", [
        "comma", "quote", "space", "cr", "nul", "over the field limit", "nan target",
        "inf feature",
    ])
    def test_no_cache_for_a_table_the_csv_would_not_give_back(self, tmp_path, small_table,
                                                              case):
        """Each table is written over one with a cache, which goes."""
        path = cached_file(tmp_path, small_table)
        X, y, ids = small_table.X.copy(), small_table.y.copy(), list(small_table.session_ids)
        bad_id = {"comma": "a,b", "quote": 'q"t', "space": "a b", "cr": "cr\r", "nul": "n\0l",
                  "over the field limit": "s" * (csv.field_size_limit() + 1)}.get(case)
        if bad_id is not None:
            ids[1] = bad_id
        elif case == "nan target":
            y[1] = math.nan
        else:
            X[1, 4] = math.inf
        write_features(path, FeatureTable(X=X, y=y, session_ids=ids,
                                          station_ids=small_table.station_ids,
                                          warnings=Counter()))
        assert not Path(f"{path}.cache").exists()
        outcome = read_outcome(read_features, path)
        if case in ("nan target", "inf feature", "over the field limit"):
            assert outcome.startswith(f"{path}:3: ")
        else:
            assert outcome.session_ids == ids

    def test_a_lower_field_limit_when_reading_ignores_the_cache(self, tmp_path, small_table):
        ids = ["s" * 40, *small_table.session_ids[1:]]
        path = cached_file(tmp_path, FeatureTable(
            X=small_table.X, y=small_table.y, session_ids=ids,
            station_ids=small_table.station_ids, warnings=Counter()))
        limit = csv.field_size_limit(39)
        try:
            outcome = read_outcome(read_features, path)
        finally:
            csv.field_size_limit(limit)
        assert outcome == f"{path}:2: field larger than field limit (39)"

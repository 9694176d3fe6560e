"""Reference features: the per-session definitions that the grouped
fedcharge.features.build_feature_table replaced, kept as its bitwise oracle.

Each session's early window is sliced, and every statistic is computed on
that session's own arrays: sums by np.add.reduce, dot products by 1-D ``@``,
the utilization maximum by Python ``max`` (the first of equal values, so
-0.0 before 0.0 stays -0.0) and the calendar encodings by math.sin/math.cos.
None marks a missing value until the feature vector turns it into NaN.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from fedcharge.features import (
    _CALENDAR,
    _SIGNAL_FEATURES,
    FEATURE_COLUMNS,
    FeatureTable,
    departure_offset,
)
from fedcharge.sessions import (
    EPOCH,
    DatasetConfig,
    SessionRecord,
    SessionSeries,
    early_window_bounds,
)


def _mean(arr: np.ndarray) -> float:
    """arr.mean() of a 1-D float array: the same sum and division."""
    return float(np.add.reduce(arr) / len(arr))


def summary_stats(values) -> tuple[float, float, float, float, float, float] | None:
    """(mean, max, min, population std, first, last); None for an empty list."""
    if len(values) == 0:
        return None
    arr = np.asarray(values, dtype=float)
    mean = _mean(arr)
    # arr.std(): the mean of the squared deviations, then the square root.
    std = math.sqrt(_mean(np.square(arr - mean)))
    return mean, float(arr.max()), float(arr.min()), std, float(arr[0]), float(arr[-1])


def least_squares_slope(times_s, values) -> float | None:
    """OLS slope cov(t, v) / var(t); None if under two distinct timestamps."""
    if len(times_s) < 2 or len(times_s) != len(values):
        return None
    t = np.asarray(times_s, dtype=float)
    v = np.asarray(values, dtype=float)
    tc = t - _mean(t)
    denom = float(tc @ tc)
    if denom == 0.0:
        return None
    return float(tc @ (v - _mean(v)) / denom)


def utilization_stats(
    current: np.ndarray, pilot: np.ndarray
) -> tuple[float | None, float | None]:
    """(mean, max) of current/pilot at readings with both signals and pilot > 0."""
    both = ~np.isnan(current) & (pilot > 0)
    if not both.any():
        return None, None
    ratios = current[both] / pilot[both]
    return _mean(ratios), max(ratios.tolist())


def early_energy(times_s, currents_a, voltage_v: float) -> float:
    """Trapezoidal integral of V*I/1000 kW over hours; under two samples -> 0."""
    if len(times_s) < 2:
        return 0.0
    t = np.asarray(times_s, dtype=float)
    power_kw = voltage_v * np.asarray(currents_a, dtype=float) / 1000.0
    return float(np.sum((power_kw[:-1] + power_kw[1:]) / 2.0 * np.diff(t)) / 3600.0)


def calendar_features(connection_time: datetime) -> dict[str, float]:
    """Raw calendar fields (weekday: Monday = 0; month and day of year count
    from 1), their sin/cos encodings and the weekend flag."""
    tt = connection_time.timetuple()
    out = {"hour": tt.tm_hour, "weekday": tt.tm_wday}
    out.update(month=tt.tm_mon, day_of_year=tt.tm_yday)
    for name, (period, start) in _CALENDAR.items():
        angle = 2.0 * math.pi * (out[name] - start) / period
        out[f"{name}_sin"], out[f"{name}_cos"] = math.sin(angle), math.cos(angle)
    out["is_weekend"] = float(out["weekday"] >= 5)
    return out


def user_features(session: SessionRecord) -> dict[str, float]:
    """Optional user inputs (NaN = missing) and their 0/1 missingness flags."""
    offset = departure_offset(session)
    out = {}
    for name, value, flag in (
        ("requested_energy_kwh", session.requested_energy_kwh, "requested_energy_missing"),
        ("available_minutes", session.available_minutes, "available_minutes_missing"),
        ("departure_offset_minutes", offset, "departure_offset_missing"),
    ):
        out[name] = math.nan if value is None else float(value)
        out[flag] = float(value is None)
    return out


def early_window_features(
    session: SessionRecord, series: SessionSeries, cfg: DatasetConfig
) -> dict[str, float]:
    """Summary, trend, interaction, energy and coverage features of the
    readings in [t_conn, t_conn + W]; NaN = missing."""
    lo, hi = early_window_bounds(session, series, cfg)
    t = series.t[lo:hi]
    # Seconds since connection, as timedelta.total_seconds() gives them.
    start_us = (session.connection_time - EPOCH) // timedelta(microseconds=1)
    seconds = (t * 1_000_000 - start_us) / 1e6
    out = {}
    for name, values in (("current", series.current[lo:hi]), ("pilot", series.pilot[lo:hi])):
        present = ~np.isnan(values)
        times, values = seconds[present], values[present]
        stats = summary_stats(values) or (None,) * 6
        stats += (least_squares_slope(times, values),)
        out.update(zip((f"{name}_{stat}" for stat in _SIGNAL_FEATURES), stats))
        out[f"n_{name}"] = len(values)
        if name == "current":
            out["early_energy_kwh"] = early_energy(times, values, cfg.nominal_voltage_v)
    out["util_mean"], out["util_max"] = utilization_stats(
        series.current[lo:hi], series.pilot[lo:hi]
    )
    out["n_merged"] = hi - lo
    out["observed_window_minutes"] = int(t[-1] - t[0]) / 60.0 if hi - lo >= 2 else 0.0
    return {k: math.nan if v is None else float(v) for k, v in out.items()}


@dataclass(frozen=True)
class FeatureVector:
    """One session's numeric features (NaN = missing), grouping ids, target."""

    session_id: str
    station_id: str
    numeric: np.ndarray
    target: float


def build_feature_vector(
    session: SessionRecord, series: SessionSeries, cfg: DatasetConfig
) -> FeatureVector:
    """One retained session's features in FEATURE_COLUMNS order."""
    values = {
        **early_window_features(session, series, cfg),
        **calendar_features(session.connection_time),
        **user_features(session),
    }
    return FeatureVector(
        session_id=session.session_id,
        station_id=session.station_id,
        numeric=np.array([values[name] for name in FEATURE_COLUMNS]),
        target=float(session.delivered_energy_kwh),
    )


def build_feature_table(
    sessions: list[SessionRecord],
    series: dict[str, SessionSeries],
    cfg: DatasetConfig,
) -> FeatureTable:
    """Featurize retained sessions in order, one vector at a time; tallies
    data-quality warnings."""
    rows, targets, session_ids, station_ids = [], [], [], []
    warnings: Counter = Counter()
    for session in sessions:
        readings = series[session.session_id]
        n_pre = early_window_bounds(session, readings, cfg)[0]
        if n_pre:
            warnings["samples_before_connection"] += n_pre
        vec = build_feature_vector(session, readings, cfg)
        if session.requested_departure is not None and departure_offset(session) is None:
            warnings["negative_departure_offset"] += 1
        rows.append(vec.numeric)
        targets.append(vec.target)
        session_ids.append(vec.session_id)
        station_ids.append(vec.station_id)
    X = np.vstack(rows) if rows else np.empty((0, len(FEATURE_COLUMNS)))
    return FeatureTable(
        feature_names=FEATURE_COLUMNS,
        X=X,
        y=np.asarray(targets, dtype=float),
        session_ids=session_ids,
        station_ids=station_ids,
        warnings=warnings,
    )

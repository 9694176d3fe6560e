"""Per-session feature construction from plug-in context and the early window.

The numeric feature vector has a fixed, documented order (FEATURE_COLUMNS).
Missing values are carried as NaN until imputation; cyclical encodings and
binary flags are exempt from standardization.
"""

from __future__ import annotations

import csv
import math
import warnings as _warnings
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from .sessions import (
    EPOCH,
    DatasetConfig,
    SessionRecord,
    SessionSeries,
    early_window_bounds,
)

_SIGNAL_FEATURES = ("mean", "max", "min", "std", "first", "last", "slope")
# Calendar field -> (period, value the cycle starts at).
_CALENDAR = {"hour": (24, 0), "weekday": (7, 0), "month": (12, 1), "day_of_year": (366, 1)}

# The feature order, each name with whether standardization applies to it.
# Cyclical encodings and binary flags pass through standardization untouched.
FEATURE_SPEC: tuple[tuple[str, bool], ...] = (
    *((f"current_{stat}", True) for stat in _SIGNAL_FEATURES),
    *((f"pilot_{stat}", True) for stat in _SIGNAL_FEATURES),
    ("util_mean", True),
    ("util_max", True),
    ("early_energy_kwh", True),
    ("n_current", True),
    ("n_pilot", True),
    ("n_merged", True),
    ("observed_window_minutes", True),
    *((f"{field}_{fn}", False) for field in _CALENDAR for fn in ("sin", "cos")),
    ("is_weekend", False),
    ("requested_energy_kwh", True),
    ("available_minutes", True),
    ("departure_offset_minutes", True),
    ("requested_energy_missing", False),
    ("available_minutes_missing", False),
    ("departure_offset_missing", False),
)
FEATURE_COLUMNS = tuple(name for name, _ in FEATURE_SPEC)
UNSCALED_INDICES = tuple(i for i, (_, scaled) in enumerate(FEATURE_SPEC) if not scaled)

STD_FLOOR = 1e-8


def _mean(arr: np.ndarray) -> float:
    """arr.mean() of a 1-D float array: the same sum and division, without
    the generic reduction machinery, which dominates on short windows."""
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


def departure_offset(session: SessionRecord) -> float | None:
    """(requested_departure - connection_time) in minutes; negative -> missing."""
    if session.requested_departure is None:
        return None
    offset = (session.requested_departure - session.connection_time).total_seconds() / 60.0
    if offset < 0:
        return None
    return offset


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


@dataclass
class FeatureTable:
    """Feature matrix for a dataset: one row per retained session."""

    feature_names: tuple[str, ...]
    X: np.ndarray                 # (n, d) float64, NaN = missing
    y: np.ndarray                 # (n,)
    session_ids: list[str]
    station_ids: list[str]
    warnings: Counter

    def __len__(self) -> int:
        return len(self.session_ids)


def build_feature_table(
    sessions: list[SessionRecord],
    series: dict[str, SessionSeries],
    cfg: DatasetConfig,
) -> FeatureTable:
    """Featurize retained sessions in order; tallies data-quality warnings."""
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


@dataclass(frozen=True)
class Imputer:
    """Train-split medians used to fill NaN entries."""

    medians: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        out = X.copy()
        nan_rows, nan_cols = np.nonzero(np.isnan(out))
        out[nan_rows, nan_cols] = self.medians[nan_cols]
        return out


def fit_imputer(X_train: np.ndarray) -> Imputer:
    if X_train.shape[0] == 0:
        raise ValueError("cannot fit imputer on an empty training split")
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns
        medians = np.nanmedian(X_train, axis=0)
    medians = np.where(np.isnan(medians), 0.0, medians)
    return Imputer(medians=medians)


@dataclass(frozen=True)
class Scaler:
    """Train-split standardization; exempt columns pass through unchanged."""

    mean: np.ndarray
    std: np.ndarray
    exempt: tuple[int, ...]

    def apply(self, X: np.ndarray) -> np.ndarray:
        out = (X - self.mean) / self.std
        if self.exempt:
            idx = list(self.exempt)
            out[..., idx] = X[..., idx]
        return out


def fit_scaler(
    X_train: np.ndarray, exempt: tuple[int, ...] = UNSCALED_INDICES
) -> Scaler:
    """Per-feature mean/std from the training split only; std floored at 1e-8."""
    if X_train.shape[0] == 0:
        raise ValueError("cannot fit scaler on an empty training split")
    mean = X_train.mean(axis=0)
    std = np.maximum(X_train.std(axis=0), STD_FLOOR)
    return Scaler(mean=mean, std=std, exempt=tuple(exempt))


def write_features(path, table: FeatureTable) -> None:
    """features.csv: session_id, station_id, target, then FEATURE_COLUMNS.

    Raw (unimputed, unscaled) values; empty cell = missing. Downstream stages
    fit imputation and scaling on their own training split.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["session_id", "station_id", "target", *table.feature_names])
        for i in range(len(table)):
            cells = [table.session_ids[i], table.station_ids[i], repr(float(table.y[i]))]
            for v in table.X[i]:
                cells.append("" if math.isnan(v) else repr(float(v)))
            writer.writerow(cells)


def read_features(path) -> FeatureTable:
    """Read features.csv back. An empty (or NaN) feature cell is a missing
    value. A row of the wrong width, a cell that is not a number, a target
    that is missing or not finite, or an infinite feature raises ValueError
    naming path:line.
    """
    header = ["session_id", "station_id", "target", *FEATURE_COLUMNS]
    session_ids, station_ids, targets, rows, lines = [], [], [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise ValueError(f"unexpected features.csv header in {path}")
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} cells, got {len(row)}")
                targets.append(float(row[2]))
                rows.append([math.nan if cell == "" else float(cell) for cell in row[3:]])
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
            session_ids.append(row[0])
            station_ids.append(row[1])
            lines.append(reader.line_num)
    X = np.array(rows, dtype=float).reshape(len(rows), len(FEATURE_COLUMNS))
    y = np.array(targets, dtype=float)
    bad = np.argwhere(np.column_stack([~np.isfinite(y), np.isinf(X)]))
    if len(bad):
        i, j = bad[0].tolist()
        raise ValueError(f"{path}:{lines[i]}: {header[2 + j]} is not finite")
    return FeatureTable(
        feature_names=FEATURE_COLUMNS,
        X=X,
        y=y,
        session_ids=session_ids,
        station_ids=station_ids,
        warnings=Counter(),
    )

"""Session features from plug-in context and the early window.

The numeric feature vector has a fixed, documented order (FEATURE_COLUMNS).
Missing values are carried as NaN until imputation; cyclical encodings and
binary flags are exempt from standardization. The early-window statistics of
a table are computed for many sessions at once, grouped by their number of
readings; tests/features_reference.py keeps the per-session definitions they
match bit for bit.
"""

from __future__ import annotations

import csv
import math
import warnings as _warnings
from collections import Counter
from dataclasses import dataclass
from datetime import timedelta

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

_COLUMN = {name: i for i, name in enumerate(FEATURE_COLUMNS)}
_MICROSECOND = timedelta(microseconds=1)
# Optional user inputs, each with its 0/1 missingness flag.
_USER = (
    ("requested_energy_kwh", "requested_energy_missing"),
    ("available_minutes", "available_minutes_missing"),
    ("departure_offset_minutes", "departure_offset_missing"),
)


def departure_offset(session: SessionRecord) -> float | None:
    """(requested_departure - connection_time) in minutes; negative -> missing."""
    if session.requested_departure is None:
        return None
    offset = (session.requested_departure - session.connection_time).total_seconds() / 60.0
    if offset < 0:
        return None
    return offset


def _cycle(period: int, start: int) -> np.ndarray:
    """Row v: math.sin and math.cos of the angle 2*pi*(v - start)/period, for
    each value v < period + start a calendar field can take."""
    angles = [2.0 * math.pi * (v - start) / period for v in range(period + start)]
    return np.array([(math.sin(angle), math.cos(angle)) for angle in angles])


def _row_groups(counts: np.ndarray):
    """(k, rows, index) for each count k > 0: the sessions holding k values,
    and the (rows, k) positions of their values when every session's values
    follow the previous session's. values[index] is C-contiguous, so a row
    reduction on it (np.add.reduce, max, min) is bit-equal to the same
    reduction on each session's own 1-D array.
    """
    starts = np.cumsum(counts) - counts
    # Each count k > 0 that occurs (np.unique would import numpy.ma, ~1 MB).
    for k in (np.flatnonzero(np.bincount(counts)[1:]) + 1).tolist():
        rows = np.flatnonzero(counts == k)
        yield k, rows, starts[rows, None] + np.arange(k)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for each row. A stacked matmul runs the 1-D dot product
    once per row; einsum and (a * b).sum(1) round differently."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _first_max(r: np.ndarray) -> np.ndarray:
    """Python max() of each row: the first of equal maxima (so -0.0 before
    0.0 stays -0.0), NaN for a row that starts with NaN, later NaN skipped."""
    top = np.fmax.reduce(r, axis=1)
    first = r[np.arange(len(r)), np.argmax(r == top[:, None], axis=1)]
    return np.where(np.isnan(r[:, 0]), r[:, 0], first)


def _signal_columns(X, name, values, seconds, counts, cfg: DatasetConfig) -> None:
    """One signal's columns from its present values and their seconds since
    connection, counts[i] of them for session i: count, mean, max, min,
    population std, first, last, the OLS slope cov(t, v) / var(t) (missing
    under two distinct times) and, for current, the trapezoidal integral of
    V*I/1000 kW over hours (0 under two values)."""
    col = _COLUMN[f"{name}_mean"]  # then max, min, std, first, last, slope
    X[:, _COLUMN[f"n_{name}"]] = counts
    for k, rows, index in _row_groups(counts):
        v = values[index]
        mean = np.add.reduce(v, axis=1) / k
        dev = v - mean[:, None]
        std = np.sqrt(np.add.reduce(np.square(dev), axis=1) / k)
        stats = (mean, v.max(axis=1), v.min(axis=1), std, v[:, 0], v[:, -1])
        X[rows, col : col + 6] = np.column_stack(stats)
        if k < 2:
            continue
        t = seconds[index]
        tc = t - (np.add.reduce(t, axis=1) / k)[:, None]
        denom = _row_dot(tc, tc)
        fit = denom != 0.0
        X[rows[fit], col + 6] = _row_dot(tc[fit], dev[fit]) / denom[fit]
        if name == "current":
            power_kw = cfg.nominal_voltage_v * v / 1000.0
            steps = (power_kw[:, :-1] + power_kw[:, 1:]) / 2.0 * np.diff(t, axis=1)
            X[rows, _COLUMN["early_energy_kwh"]] = np.add.reduce(steps, axis=1) / 3600.0


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
    """Featurize retained sessions in order; tallies data-quality warnings.

    Each row holds the statistics of the readings in [t_conn, t_conn + W]
    (NaN = missing), the calendar encodings of t_conn (UTC fields; weekday:
    Monday = 0) and the user fields. Only the window bounds, the calendar
    fields and the user fields are found one session at a time. The
    statistics are row reductions over all sessions with the same number of
    values, bit-equal to the per-session definitions.
    """
    n = len(sessions)
    warnings: Counter = Counter()
    t, current, pilot = [np.empty(0, np.int64)], [np.empty(0)], [np.empty(0)]
    merged, starts_us, fields, user, targets = [], [], [], [], []
    for session in sessions:
        readings = series[session.session_id]
        lo, hi = early_window_bounds(session, readings, cfg)
        if lo:
            warnings["samples_before_connection"] += lo
        offset = departure_offset(session)
        if session.requested_departure is not None and offset is None:
            warnings["negative_departure_offset"] += 1
        t.append(readings.t[lo:hi])
        current.append(readings.current[lo:hi])
        pilot.append(readings.pilot[lo:hi])
        merged.append(hi - lo)
        starts_us.append((session.connection_time - EPOCH) // _MICROSECOND)
        tt = session.connection_time.timetuple()
        fields.append((tt.tm_hour, tt.tm_wday, tt.tm_mon, tt.tm_yday))
        user.append((session.requested_energy_kwh, session.available_minutes, offset))
        targets.append(float(session.delivered_energy_kwh))

    X = np.full((n, len(FEATURE_COLUMNS)), math.nan)
    t, current, pilot = np.concatenate(t), np.concatenate(current), np.concatenate(pilot)
    merged = np.array(merged, dtype=np.int64)
    owner = np.repeat(np.arange(n), merged)
    # Seconds since connection, as timedelta.total_seconds() gives them.
    seconds = (t * 1_000_000 - np.repeat(np.array(starts_us, np.int64), merged)) / 1e6
    X[:, _COLUMN["early_energy_kwh"]] = 0.0
    for name, values in (("current", current), ("pilot", pilot)):
        present = ~np.isnan(values)
        counts = np.bincount(owner[present], minlength=n)
        _signal_columns(X, name, values[present], seconds[present], counts, cfg)
    # Utilization: current / pilot at readings with both signals and pilot > 0.
    both = ~np.isnan(current) & (pilot > 0)
    ratios = current[both] / pilot[both]
    for k, rows, index in _row_groups(np.bincount(owner[both], minlength=n)):
        X[rows, _COLUMN["util_mean"]] = np.add.reduce(ratios[index], axis=1) / k
        X[rows, _COLUMN["util_max"]] = _first_max(ratios[index])
    X[:, _COLUMN["n_merged"]] = merged
    last, wide = np.cumsum(merged) - 1, merged >= 2
    X[:, _COLUMN["observed_window_minutes"]] = 0.0
    X[wide, _COLUMN["observed_window_minutes"]] = (
        t[last[wide]] - t[last[wide] - merged[wide] + 1]
    ) / 60.0

    fields = np.array(fields, dtype=np.intp).reshape(n, len(_CALENDAR))
    for j, (name, cycle) in enumerate(_CALENDAR.items()):
        X[:, [_COLUMN[f"{name}_sin"], _COLUMN[f"{name}_cos"]]] = _cycle(*cycle)[fields[:, j]]
    X[:, _COLUMN["is_weekend"]] = fields[:, 1] >= 5
    for j, (name, flag) in enumerate(_USER):
        values = [row[j] for row in user]
        X[:, _COLUMN[name]] = [math.nan if v is None else float(v) for v in values]
        X[:, _COLUMN[flag]] = [v is None for v in values]
    return FeatureTable(
        feature_names=FEATURE_COLUMNS,
        X=X,
        y=np.array(targets, dtype=float),
        session_ids=[s.session_id for s in sessions],
        station_ids=[s.station_id for s in sessions],
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

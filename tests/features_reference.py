"""Reference features: the per-session definitions that the grouped
fedcharge.features.build_feature_table replaced, kept as its bitwise oracle,
two writers that write_features replaced: the row-at-a-time csv.writer and
the column-at-a-time writer with one repr cache per column, and the reader
that read_features replaced: csv.reader, one row at a time.

Each session's early window is sliced, and every statistic is computed on
that session's own arrays: sums by np.add.reduce, dot products by 1-D ``@``,
the utilization maximum by Python ``max`` (the first of equal values, so
-0.0 before 0.0 stays -0.0) and the calendar encodings by math.sin/math.cos.
None marks a missing value until the feature vector turns it into NaN.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from fedcharge.features import (
    _CALENDAR,
    _SIGNAL_FEATURES,
    FEATURE_COLUMNS,
    FeatureTable,
    departure_offset,
)
from fedcharge.csvio import csv_text
from fedcharge.sessions import (
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


EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def calendar_features(connection_time: int) -> dict[str, float]:
    """Raw calendar fields of a time in UTC epoch seconds (weekday: Monday =
    0; month and day of year count from 1), their sin/cos encodings and the
    weekend flag. The fields are the UTC datetime's."""
    tt = (EPOCH + timedelta(seconds=connection_time)).timetuple()
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
    start = EPOCH + timedelta(seconds=session.connection_time)
    seconds = np.array([(EPOCH + timedelta(seconds=int(ti)) - start).total_seconds()
                        for ti in t.tolist()], dtype=float)
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
        X=X,
        y=np.asarray(targets, dtype=float),
        session_ids=session_ids,
        station_ids=station_ids,
        warnings=warnings,
    )


def write_features(path, table: FeatureTable) -> None:
    """features.csv through csv.writer, one row at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["session_id", "station_id", "target", *FEATURE_COLUMNS])
        for i in range(len(table)):
            cells = [table.session_ids[i], table.station_ids[i], repr(float(table.y[i]))]
            for v in table.X[i]:
                cells.append("" if math.isnan(v) else repr(float(v)))
            writer.writerow(cells)


def write_features_by_column(path, table: FeatureTable) -> None:
    """features.csv a column at a time, each float column through _float_texts."""
    columns = [list(map(csv_text, ids)) for ids in (table.session_ids, table.station_ids)]
    columns.append(_float_texts(table.y, "nan"))
    columns += (_float_texts(values, "") for values in table.X.T)  # NaN is missing
    rows = [",".join(("session_id", "station_id", "target", *FEATURE_COLUMNS))]
    rows += map(",".join, zip(*columns))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(rows) + "\r\n")


def _float_texts(values: np.ndarray, nan: str) -> list[str]:
    """repr of each float64 value, `nan` for NaN; repr runs once per distinct
    bit pattern, so -0.0 and 0.0 stay apart."""
    bits = np.asarray(values, np.float64).view(np.int64).tolist()
    distinct = list(dict.fromkeys(bits))
    text = {b: nan if v != v else repr(v)
            for b, v in zip(distinct, np.array(distinct, np.int64).view(np.float64).tolist())}
    return [text[b] for b in bits]


def read_features(path) -> FeatureTable:
    """features.csv through csv.reader, one row at a time. An empty (or NaN)
    feature cell is a missing value. A row of the wrong width, a cell that is
    not a number, a target that is missing or not finite, or an infinite
    feature raises ValueError naming path:line.
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
        X=X,
        y=y,
        session_ids=session_ids,
        station_ids=station_ids,
        warnings=Counter(),
    )

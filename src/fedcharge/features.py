"""Session features from plug-in context and the early window.

The numeric feature vector has a fixed, documented order (FEATURE_COLUMNS).
Missing values are carried as NaN until imputation; cyclical encodings and
binary flags are exempt from standardization. The early-window statistics of
a table are computed for many sessions at once, grouped by their number of
readings; tests/features_reference.py keeps the per-session definitions they
match bit for bit.

features.csv is the table's source of truth. write_features also writes
features.csv.cache beside it, a binary copy of the table bound to the CSV's
bytes by their sha256, but only for a table the CSV gives back bit for bit
and without an error; read_features takes the table from a cache whose hash
and cheap checks hold, and otherwise parses the CSV. Deleting the cache is
always safe.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import csvio
from .ingest import float_column
from .sessions import (
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
CSV_COLUMNS = ["session_id", "station_id", "target", *FEATURE_COLUMNS]  # features.csv's header
UNSCALED_INDICES = tuple(i for i, (_, scaled) in enumerate(FEATURE_SPEC) if not scaled)

STD_FLOOR = 1e-8

_COLUMN = {name: i for i, name in enumerate(FEATURE_COLUMNS)}
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
    offset = (session.requested_departure - session.connection_time) / 60.0
    if offset < 0:
        return None
    return offset


def _cycle(period: int, start: int) -> np.ndarray:
    """Row v: math.sin and math.cos of the angle 2*pi*(v - start)/period, for
    each value v < period + start a calendar field can take."""
    angles = [2.0 * math.pi * (v - start) / period for v in range(period + start)]
    return np.array([(math.sin(angle), math.cos(angle)) for angle in angles])


def row_groups(counts: np.ndarray):
    """(k, rows, index) for each count k > 0: the rows holding k values, and
    the (rows, k) positions of their values when every row's values follow
    the previous row's. values[index] is C-contiguous, so a row reduction on
    it (np.add.reduce, max, min) is bit-equal to the same reduction on each
    row's own 1-D array.
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
    for k, rows, index in row_groups(counts):
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
    """Feature matrix for a dataset: one row per retained session, one
    column per FEATURE_COLUMNS name."""

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
    windows: list[tuple[int, int]] | None = None,
) -> FeatureTable:
    """Featurize retained sessions in order; tallies data-quality warnings.

    Each row holds the statistics of the readings in [t_conn, t_conn + W]
    (NaN = missing), the calendar encodings of t_conn (UTC fields; weekday:
    Monday = 0) and the user fields. Only the window bounds (taken from
    windows when given, as RetentionResult.windows), the calendar fields and
    the user fields are found one session at a time. The statistics are row
    reductions over all sessions with the same number of values, bit-equal
    to the per-session definitions. A target that is not finite or a feature
    that overflows to infinity raises ValueError naming the session and the
    column, as read_features would refuse the row.
    """
    n = len(sessions)
    warnings: Counter = Counter()
    t, current, pilot = [np.empty(0, np.int64)], [np.empty(0)], [np.empty(0)]
    merged, starts_us, fields, user, targets = [], [], [], [], []
    for session, window in zip(sessions, windows or [None] * n, strict=True):
        readings = series[session.session_id]
        lo, hi = window or early_window_bounds(session, readings, cfg)
        if lo:
            warnings["samples_before_connection"] += lo
        offset = departure_offset(session)
        if session.requested_departure is not None and offset is None:
            warnings["negative_departure_offset"] += 1
        t.append(readings.t[lo:hi])
        current.append(readings.current[lo:hi])
        pilot.append(readings.pilot[lo:hi])
        merged.append(hi - lo)
        starts_us.append(session.connection_time * 1_000_000)
        tt = time.gmtime(session.connection_time)
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
        with np.errstate(over="ignore"):  # an overflow gives inf, refused below
            _signal_columns(X, name, values[present], seconds[present], counts, cfg)
    # Utilization: current / pilot at readings with both signals and pilot > 0.
    both = ~np.isnan(current) & (pilot > 0)
    ratios = current[both] / pilot[both]
    for k, rows, index in row_groups(np.bincount(owner[both], minlength=n)):
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
    y = np.array(targets, dtype=float)
    bad = np.column_stack([~np.isfinite(y), np.isinf(X)])
    if bad.any():  # read_features would reject the row
        i, j = np.argwhere(bad)[0].tolist()
        raise ValueError(f"session {sessions[i].session_id!r}: "
                         f"{('target', *FEATURE_COLUMNS)[j]} is not finite")
    return FeatureTable(
        X=X,
        y=y,
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
    # np.nanmedian(X_train, axis=0) bit for bit: the mean of each column's
    # middle one or two present values. (np.median imports numpy.ma, ~13 ms.)
    with np.errstate(invalid="ignore"):  # -inf and inf in the middle
        medians = [np.mean(v[(v.size - 1) // 2 : v.size // 2 + 1]) if v.size else math.nan
                   for v in (np.sort(column[~np.isnan(column)]) for column in X_train.T)]
    return Imputer(medians=np.where(np.isnan(medians), 0.0, medians))


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
    """features.csv: CSV_COLUMNS, the two ids and the target, then FEATURE_COLUMNS.

    Raw (unimputed, unscaled) values; empty cell = missing. Downstream stages
    fit imputation and scaling on their own training split. The bytes are
    csv.writer's (see csvio.write). Beside it goes features.csv.cache
    (_write_cache).
    """
    # A NaN feature is missing, an empty cell; a NaN target is not, so it goes
    # as Python floats, which are written nan.
    csvio.write(path, CSV_COLUMNS,
                [table.session_ids, table.station_ids, table.y.tolist(), *table.X.T])
    _write_cache(path, table)


# features.csv.cache: a csvio.CACHE_HEADER (this magic and version, the CSV's
# sha256, rows), then each row's target and FEATURE_COLUMNS as little-endian
# float64, then the session ids and the station ids as UTF-8, each ended by "\n".
_CACHE_MAGIC, _CACHE_VERSION = b"fcfeats\n", 1
_HEADER_LINE = (",".join(CSV_COLUMNS) + "\r\n").encode()  # as csvio.write writes it


def _write_cache(path, table: FeatureTable) -> None:
    """Write path's cache when read_features would read table back from path
    bit for bit and without an error: every id a text that csvio writes
    unquoted within the field limit, every target finite and no feature
    infinite. A NaN feature is written as the NaN an empty cell reads as.
    For any other table, remove a stale cache."""
    cache, X, y, n = csvio.cache_path(path), table.X, table.y, len(table.y)
    ids = [*table.session_ids, *table.station_ids]
    if not (X.dtype == y.dtype == np.float64 and X.shape == (n, len(FEATURE_COLUMNS))
            and len(table.session_ids) == len(table.station_ids) == n
            and csvio.writes_plain(ids) and np.isfinite(y).all() and not np.isinf(X).any()):
        cache.unlink(missing_ok=True)
        return
    values = np.column_stack([y, np.where(np.isnan(X), math.nan, X)]).astype("<f8")
    digest = csvio.file_digest(path, _HEADER_LINE)
    with open(cache, "wb") as fh:
        fh.write(csvio.CACHE_HEADER.pack(_CACHE_MAGIC, _CACHE_VERSION, digest, n))
        fh.write(values.tobytes())
        fh.write("".join(f"{i}\n" for i in ids).encode())


def _read_cache(path) -> FeatureTable | None:
    """The table in path's cache, or None (csvio.read_cache)."""
    return csvio.read_cache(path, _CACHE_MAGIC, _CACHE_VERSION, _HEADER_LINE, _cached_table)


def _cached_table(fh, n: int, size: int) -> FeatureTable | None:
    """The table in a cache's body, or None unless it passes read_features'
    checks that need no parse: finite targets, no infinite feature, 2 * rows
    ids that csvio writes unquoted within the field limit. The hash binds
    the cache to the CSV, so the values are taken as the writer wrote them."""
    width = len(CSV_COLUMNS) - 2
    if 8 * n * width > size:
        return None
    blob = fh.read()
    *ids, end = blob[8 * n * width :].decode().split("\n")
    values = np.frombuffer(blob, "<f8", n * width).reshape(n, width)
    # CSV_COLUMNS' longest name is longer than any float's repr, so the field
    # limit holds for every cell of path when it holds for these texts.
    if (len(ids) != 2 * n or end or not csvio.writes_plain([*ids, *CSV_COLUMNS])
            or not np.isfinite(values[:, 0]).all() or np.isinf(values).any()):
        return None
    return FeatureTable(X=values[:, 1:].astype(np.float64), y=values[:, 0].astype(np.float64),
                        session_ids=ids[:n], station_ids=ids[n:], warnings=Counter())


def read_features(path) -> FeatureTable:
    """Read features.csv back. An empty (or NaN) feature cell is a missing
    value. A row of the wrong width, a cell that is not a number, a target
    that is missing or not finite, or an infinite feature raises ValueError
    naming path:line, as bytes that are not UTF-8 and a field over the csv
    module's limit do (csvio.ParseError). A cache that write_features left
    and that still holds path's table (_read_cache) is read instead of
    parsing path; any other cache is ignored.
    """
    cached = _read_cache(path)
    if cached is not None:
        return cached
    rows = csvio.Reader(path).rows(CSV_COLUMNS)
    if next(rows) != CSV_COLUMNS:
        raise ValueError(f"unexpected features.csv header in {path}")
    ids, lines, values = ([], []), [], [np.empty((0, len(CSV_COLUMNS) - 2))]
    for block_lines, cells, widths in rows:
        columns, bad = zip(*(float_column(c, "") for c in cells[2:]))
        values.append(np.column_stack(columns))
        suspect = (np.isnan(columns[0]) | np.any(bad, axis=0)
                   | (np.array(widths) != len(CSV_COLUMNS)))
        for i in np.flatnonzero(suspect).tolist():  # the first faulty row, named row by row
            row = [v.decode() if isinstance(v, bytes) else v for v in (c[i] for c in cells)]
            try:
                if widths[i] != len(CSV_COLUMNS):
                    raise ValueError(f"expected {len(CSV_COLUMNS)} cells, got {widths[i]}")
                for cell in [row[2], *filter(None, row[3:])]:  # an empty feature is missing
                    float(cell)
            except ValueError as exc:
                raise ValueError(f"{path}:{block_lines[i]}: {exc}") from None
        ids[0].extend(csvio.texts(cells[0]))
        ids[1].extend(csvio.texts(cells[1]))
        lines += block_lines
    values = np.concatenate(values)
    bad = np.isinf(values)
    bad[:, 0] |= np.isnan(values[:, 0])
    if bad.any():
        i, j = np.argwhere(bad)[0].tolist()
        raise ValueError(f"{path}:{lines[i]}: {CSV_COLUMNS[2 + j]} is not finite")
    return FeatureTable(X=values[:, 1:].copy(),
                        y=values[:, 0].copy(), session_ids=ids[0], station_ids=ids[1],
                        warnings=Counter())

"""Domain types for charging sessions and the session-retention rules.

All types are immutable after construction; the operations here are pure
functions, safe to call from multiple threads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

import numpy as np


def parse_utc(text: str) -> datetime:
    """Parse an ISO-8601 timestamp, normalize to UTC, truncate to seconds."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc).replace(microsecond=0)


def format_utc(dt: datetime) -> str:
    """Render a UTC timestamp as YYYY-MM-DDTHH:MM:SSZ (the year zero-padded,
    which strftime does not do on every platform)."""
    dt = dt.astimezone(timezone.utc)
    return f"{dt.year:04d}{dt:-%m-%dT%H:%M:%S}Z"


@dataclass(frozen=True, slots=True)
class SessionRecord:
    """One charging session: metadata, optional user inputs, target energy."""

    session_id: str
    site_id: str
    station_id: str
    connection_time: datetime
    disconnect_time: datetime | None = None
    delivered_energy_kwh: float | None = None
    requested_energy_kwh: float | None = None
    available_minutes: float | None = None
    requested_departure: datetime | None = None

    def __post_init__(self):
        if not self.session_id:
            raise ValueError("session_id must be nonempty")
        if self.delivered_energy_kwh is not None and self.delivered_energy_kwh < 0:
            raise ValueError(f"delivered_energy_kwh < 0 for {self.session_id}")
        if self.requested_energy_kwh is not None and self.requested_energy_kwh < 0:
            raise ValueError(f"requested_energy_kwh < 0 for {self.session_id}")
        if self.available_minutes is not None and self.available_minutes < 0:
            raise ValueError(f"available_minutes < 0 for {self.session_id}")
        if (
            self.disconnect_time is not None
            and self.disconnect_time < self.connection_time
        ):
            raise ValueError(f"disconnect before connection for {self.session_id}")


@dataclass(frozen=True, slots=True)
class DatasetConfig:
    """Early-window length, retention floor, and the nominal voltage constant."""

    early_window_minutes: float = 10.0
    min_early_current_samples: int = 5
    nominal_voltage_v: float = 208.0

    def __post_init__(self):
        if self.early_window_minutes <= 0:
            raise ValueError("early_window_minutes must be positive")
        if self.min_early_current_samples <= 0:
            raise ValueError("min_early_current_samples must be positive")
        if self.nominal_voltage_v <= 0:
            raise ValueError("nominal_voltage_v must be positive")


@dataclass(frozen=True, eq=False)
class SessionSeries:
    """One session's readings as columns, sorted by strictly increasing time.

    t holds int64 UTC epoch seconds; current and pilot hold float64 amperes,
    NaN where a reading is absent. Every reading carries current, pilot or
    both. Equality compares values and NaN positions.
    """

    t: np.ndarray
    current: np.ndarray
    pilot: np.ndarray

    def __post_init__(self):
        for name, dtype in (("t", np.int64), ("current", np.float64), ("pilot", np.float64)):
            column = np.asarray(getattr(self, name), dtype=dtype).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if not (self.t.ndim == 1 and self.t.shape == self.current.shape == self.pilot.shape):
            raise ValueError("t, current and pilot must be 1-D and of equal length")
        if not (self.t[1:] > self.t[:-1]).all():
            raise ValueError("timestamps must be strictly increasing")
        absent = np.isnan(self.current) & np.isnan(self.pilot)
        if absent.any():
            t = int(self.t[np.argmax(absent)])
            raise ValueError(f"reading at t={t} carries neither current nor pilot")

    @classmethod
    def _unchecked(cls, t, current, pilot) -> SessionSeries:
        """A series of read-only int64/float64 columns known to pass the checks."""
        series = object.__new__(cls)
        for name, column in (("t", t), ("current", current), ("pilot", pilot)):
            object.__setattr__(series, name, column)
        return series

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, key: slice) -> SessionSeries:
        return SessionSeries(self.t[key], self.current[key], self.pilot[key])

    def __eq__(self, other) -> bool:
        if not isinstance(other, SessionSeries):
            return NotImplemented
        return (
            np.array_equal(self.t, other.t)
            and np.array_equal(self.current, other.current, equal_nan=True)
            and np.array_equal(self.pilot, other.pilot, equal_nan=True)
        )


EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def epoch_seconds(dt: datetime) -> int:
    """Whole seconds since 1970-01-01T00:00:00Z, rounded down."""
    return (dt - EPOCH) // timedelta(seconds=1)


def early_window_bounds(
    session: SessionRecord, series: SessionSeries, cfg: DatasetConfig
) -> tuple[int, int]:
    """Index range [lo, hi) of the readings in the closed interval
    [t_conn, t_conn + W]; lo is the number of readings before connection.

    Bounds are exact in integer microseconds, the resolution of the
    timedelta that W becomes.
    """
    start_us = (session.connection_time - EPOCH) // _MICROSECOND
    end_us = start_us + timedelta(minutes=cfg.early_window_minutes) // _MICROSECOND
    lo = int(series.t.searchsorted(-(-start_us // 1_000_000), "left"))
    hi = int(series.t.searchsorted(end_us // 1_000_000, "right"))
    return lo, max(lo, hi)


# Drop-reason keys used in the retention tally.
DROP_MISSING_SERIES = "missing_series"
DROP_MISSING_TARGET = "missing_target"
DROP_FEW_EARLY_CURRENT = "insufficient_early_current"


@dataclass(frozen=True)
class RetentionResult:
    """Retained sessions (input order kept), their early_window_bounds and the drop tally."""

    sessions: list[SessionRecord]
    dropped: Counter = field(default_factory=Counter)
    windows: list[tuple[int, int]] = field(default_factory=list)


def retain_sessions(
    sessions: list[SessionRecord],
    series: dict[str, SessionSeries],
    cfg: DatasetConfig,
) -> RetentionResult:
    """Keep sessions that exist in both sources, have a target, and carry at
    least cfg.min_early_current_samples current readings in the early window.
    """
    kept: list[SessionRecord] = []
    dropped: Counter = Counter()
    windows: list[tuple[int, int]] = []
    for session in sessions:
        readings = series.get(session.session_id)
        if not readings:
            dropped[DROP_MISSING_SERIES] += 1
            continue
        if session.delivered_energy_kwh is None:
            dropped[DROP_MISSING_TARGET] += 1
            continue
        lo, hi = early_window_bounds(session, readings, cfg)
        if np.count_nonzero(~np.isnan(readings.current[lo:hi])) < cfg.min_early_current_samples:
            dropped[DROP_FEW_EARLY_CURRENT] += 1
            continue
        kept.append(session)
        windows.append((lo, hi))
    return RetentionResult(sessions=kept, dropped=dropped, windows=windows)

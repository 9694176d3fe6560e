"""Domain types for charging sessions, retention rules and synthetic depots.

All types are immutable after construction; the operations here are pure
functions, safe to call from multiple threads.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

import numpy as np

from .seeding import STREAM_SYNTH, rng_from


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_SECOND = timedelta(seconds=1)


def parse_utc(text: str) -> int:
    """UTC epoch seconds of an ISO-8601 timestamp, its fraction of a second
    dropped; a timestamp without an offset is UTC. Files hold canonical
    stamps, which ingest converts a column at a time; this is the rule for
    any other form. A stamp whose UTC instant falls outside years 1-9999
    raises ValueError, as an unparsable one does."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    try:
        return (dt.astimezone(timezone.utc) - _EPOCH) // _SECOND
    except OverflowError:
        raise ValueError(f"timestamp {text!r} falls outside years 1-9999 in UTC") from None


TIME_FIELDS = ("connection_time", "disconnect_time", "requested_departure")  # SessionRecord's


@dataclass(frozen=True, slots=True)
class SessionRecord:
    """One charging session: metadata, optional user inputs, target energy.

    Times are int UTC epoch seconds, as SessionSeries.t holds them; a time
    of another type (a datetime, say) raises TypeError naming its field.
    """

    session_id: str
    site_id: str
    station_id: str
    connection_time: int
    disconnect_time: int | None = None
    delivered_energy_kwh: float | None = None
    requested_energy_kwh: float | None = None
    available_minutes: float | None = None
    requested_departure: int | None = None

    def __post_init__(self):
        if not self.session_id:
            raise ValueError("session_id must be nonempty")
        for name in TIME_FIELDS:
            value = getattr(self, name)
            if type(value) is not int and (value is not None or name == "connection_time"):
                raise TypeError(f"{name} of {self.session_id} must be int epoch seconds, "
                                f"not {type(value).__name__}")
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
        try:  # early_window_bounds takes the window as a timedelta
            timedelta(minutes=self.early_window_minutes)
        except OverflowError:
            raise ValueError(f"early_window_minutes={self.early_window_minutes!r} is longer "
                             f"than a timedelta holds ({timedelta.max})") from None
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
        """A series of read-only int64/float64 columns known to pass the checks,
        sliced from depot-wide columns by parse_timeseries and generate_synthetic."""
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


_SYNTH_EPOCH = 1_546_300_800  # 2019-01-01T00:00:00Z: synthetic sessions start in its year


def early_window_bounds(
    session: SessionRecord, series: SessionSeries, cfg: DatasetConfig
) -> tuple[int, int]:
    """Index range [lo, hi) of the readings in the closed interval
    [t_conn, t_conn + W]; lo is the number of readings before connection.

    The end is exact in integer microseconds, the resolution of the
    timedelta that W becomes: a reading is in when its seconds past t_conn
    are at most W's whole seconds.
    """
    start = session.connection_time
    end = start + timedelta(minutes=cfg.early_window_minutes) // _SECOND
    lo = int(series.t.searchsorted(start, "left"))
    hi = int(series.t.searchsorted(end, "right"))
    return lo, max(lo, hi)


# Drop-reason keys used in the retention tally.
DROP_MISSING_SERIES = "missing_series"
DROP_MISSING_TARGET = "missing_target"
DROP_FEW_EARLY_CURRENT = "insufficient_early_current"
DROP_REPEATED_ID = "repeated_session_id"


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
    A session id gives one session: the first in order; each later one is
    dropped as repeated.
    """
    kept: list[SessionRecord] = []
    dropped: Counter = Counter()
    windows: list[tuple[int, int]] = []
    seen: set[str] = set()
    for session in sessions:
        if session.session_id in seen:
            dropped[DROP_REPEATED_ID] += 1
            continue
        seen.add(session.session_id)
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


@dataclass(frozen=True)
class SyntheticDepotSpec:
    """Knobs for a deterministic synthetic depot.

    Each session runs at a constant current level chosen so the session's
    exact trapezoidal energy, at DatasetConfig's default nominal voltage,
    matches a draw from its station's energy distribution; the target is that
    integral plus Gaussian noise. Early current is therefore genuinely
    predictive of the target. Stations with index < n_stations // 2 get their
    energy mean raised by heterogeneity_shift_kwh.

    The draw order is part of the reproducibility contract: each station's
    session count, then per session the connection second, the duration in
    minutes, the energy target, the noise (if noise_std_kwh is nonzero), and
    for requested energy, available minutes and departure in turn a uniform
    that decides its presence and, for a present energy or departure, its factor.
    """

    n_stations: int = 20
    sessions_per_station: tuple[int, int] = (20, 30)
    station_energy_mean_kwh: float = 9.0
    station_energy_std_kwh: float = 3.0
    heterogeneity_shift_kwh: float = 0.0
    noise_std_kwh: float = 0.5
    seed: int = 0
    session_minutes: tuple[int, int] = (90, 150)
    sample_period_s: int = 60
    user_field_presence: float = 0.75

    def __post_init__(self):
        if self.n_stations <= 0:
            raise ValueError("n_stations must be positive")
        lo, hi = self.sessions_per_station
        if lo <= 0 or hi < lo:
            raise ValueError("sessions_per_station must be a positive range")
        for name, least in (("station_energy_mean_kwh", "positive"),
                            ("station_energy_std_kwh", "nonnegative"),
                            ("heterogeneity_shift_kwh", "nonnegative"),
                            ("noise_std_kwh", "nonnegative")):
            value = getattr(self, name)
            if not (math.isfinite(value) and (value > 0 or value == 0 and least != "positive")):
                raise ValueError(f"{name} must be finite and {least}")
        dlo, dhi = self.session_minutes
        if dlo <= 0 or dhi < dlo:
            raise ValueError("session_minutes must be a positive range")
        if self.sample_period_s <= 0:
            raise ValueError("sample_period_s must be positive")
        if not 0.0 <= self.user_field_presence <= 1.0:
            raise ValueError("user_field_presence must be in [0, 1]")


def generate_synthetic(
    spec: SyntheticDepotSpec,
) -> tuple[list[SessionRecord], dict[str, SessionSeries]]:
    """Produce (sessions, per-session readings) fully determined by spec.seed.

    One loop makes the draws; the rest runs on depot-wide arrays with the
    float operations of tests/synth_reference.py, in its order. Each series
    is a slice of three read-only depot-wide columns. A ValueError names
    the spec field whose size took a written energy past the float range.
    """
    rng = rng_from(spec.seed, STREAM_SYNTH)
    integers, normal, random, uniform = rng.integers, rng.normal, rng.random, rng.uniform
    (lo, hi), (dlo, dhi) = spec.sessions_per_station, spec.session_minutes
    std, noise_std, p = spec.station_energy_std_kwh, spec.noise_std_kwh, spec.user_field_presence
    sids, stations, draws = [], [], []
    for st in range(spec.n_stations):
        station_id = f"ST{st:03d}"
        shift = spec.heterogeneity_shift_kwh if st < spec.n_stations // 2 else 0.0
        mean_k = spec.station_energy_mean_kwh + shift
        for k in range(int(integers(lo, hi + 1))):
            sids.append(f"{station_id}-{k:04d}")
            stations.append(station_id)
            draws.append((integers(0, 365 * 86400), integers(dlo, dhi + 1), normal(mean_k, std),
                          normal(0.0, noise_std) if noise_std else 0.0,
                          uniform(0.8, 1.25) if random() < p else math.nan,
                          random() < p,
                          uniform(1.0, 1.4) if random() < p else math.nan))

    second, minutes, energy, noise, requested, available, leave = np.array(draws).reshape(-1, 7).T
    second, minutes = second.astype(np.int64), minutes.astype(np.int64)
    voltage = DatasetConfig().nominal_voltage_v
    n_steps = minutes * 60 // spec.sample_period_s
    with np.errstate(over="ignore"):  # an overflow gives inf, as it does with Python floats
        energy = np.maximum(0.25, energy)
        current = np.minimum(np.maximum(energy * 1000.0 / (voltage * minutes / 60.0), 0.5), 80.0)
        pilot = np.maximum(8.0, np.ceil(current / 4.0) * 4.0)
        delivered = np.maximum(0.0, voltage * current / 1000.0
                               * (n_steps * spec.sample_period_s / 3600.0) + noise)
        requested *= energy
    scale = max(("station_energy_mean_kwh", "station_energy_std_kwh", "heterogeneity_shift_kwh"),
                key=lambda name: getattr(spec, name))  # the energy draws' largest term
    for column, values, name in (("delivered_energy_kwh", delivered, "noise_std_kwh"),
                                 ("requested_energy_kwh", requested, scale)):
        if np.isinf(values).any():
            i = int(np.argmax(np.isinf(values)))
            raise ValueError(f"{name}={getattr(spec, name)!r} gives session {sids[i]} a {column} "
                             f"of {values[i]}: the energies must stay finite")
    leave = np.trunc(minutes * leave)  # whole minutes; NaN where absent

    counts = n_steps + 1
    ends = np.cumsum(counts)
    start = _SYNTH_EPOCH + second - (ends - counts) * spec.sample_period_s
    t = np.arange(ends[-1]) * spec.sample_period_s + np.repeat(start, counts)
    current, pilot = np.repeat(current, counts), np.repeat(pilot, counts)
    for column in (t, current, pilot):
        column.flags.writeable = False
    index = {sid: SessionSeries._unchecked(t[a:b], current[a:b], pilot[a:b])
             for sid, a, b in zip(sids, (ends - counts).tolist(), ends.tolist())}

    sessions = []
    for sid, station_id, at, m, kwh, ask, avail, departs in zip(
            sids, stations, second.tolist(), minutes.tolist(), delivered.tolist(),
            requested.tolist(), available.tolist(), leave.tolist()):
        conn = _SYNTH_EPOCH + at
        sessions.append(SessionRecord(
            sid, "SYN", station_id, conn, conn + 60 * m, kwh,
            None if ask != ask else ask, float(m) if avail else None,
            None if departs != departs else conn + 60 * int(departs)))
    return sessions, index

"""Reference synthetic depot: the per-session generator that the columnar
fedcharge.sessions.generate_synthetic replaced, kept as its oracle.

Each session makes its draws in the documented order and computes its
current, pilot and energies with Python floats (max, min, math.ceil), then
builds its own SessionSeries through the checked constructor. Its times
are datetimes, turned into epoch seconds where a record or series takes them.
"""

from __future__ import annotations

import math
from datetime import datetime, timedelta, timezone

import numpy as np

from fedcharge.seeding import STREAM_SYNTH, rng_from
from fedcharge.sessions import (
    DatasetConfig,
    SessionRecord,
    SessionSeries,
    SyntheticDepotSpec,
)

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
SYNTH_START = datetime(2019, 1, 1, tzinfo=timezone.utc)  # sessions start in its year


def epoch_seconds(dt: datetime | None) -> int | None:
    """Whole seconds since 1970-01-01T00:00:00Z; None stays None."""
    return None if dt is None else (dt - EPOCH) // timedelta(seconds=1)


def generate_synthetic(
    spec: SyntheticDepotSpec,
) -> tuple[list[SessionRecord], dict[str, SessionSeries]]:
    """Produce (sessions, per-session readings) fully determined by spec.seed."""
    rng = rng_from(spec.seed, STREAM_SYNTH)
    voltage = DatasetConfig().nominal_voltage_v
    n_shifted = spec.n_stations // 2
    sessions: list[SessionRecord] = []
    index: dict[str, SessionSeries] = {}

    for st in range(spec.n_stations):
        station_id = f"ST{st:03d}"
        mean_k = spec.station_energy_mean_kwh + (
            spec.heterogeneity_shift_kwh if st < n_shifted else 0.0
        )
        lo, hi = spec.sessions_per_station
        n_sessions = int(rng.integers(lo, hi + 1))
        for k in range(n_sessions):
            session_id = f"{station_id}-{k:04d}"
            conn = SYNTH_START + timedelta(seconds=int(rng.integers(0, 365 * 86400)))
            dlo, dhi = spec.session_minutes
            duration_min = int(rng.integers(dlo, dhi + 1))
            duration_s = duration_min * 60

            energy_target = max(0.25, float(rng.normal(mean_k, spec.station_energy_std_kwh)))
            current = energy_target * 1000.0 / (voltage * duration_min / 60.0)
            current = min(max(current, 0.5), 80.0)
            pilot = max(8.0, math.ceil(current / 4.0) * 4.0)

            n_steps = duration_s // spec.sample_period_s
            readings = SessionSeries(
                t=epoch_seconds(conn) + spec.sample_period_s * np.arange(n_steps + 1),
                current=np.full(n_steps + 1, current),
                pilot=np.full(n_steps + 1, pilot),
            )
            span_h = (n_steps * spec.sample_period_s) / 3600.0
            exact_kwh = voltage * current / 1000.0 * span_h
            noise = float(rng.normal(0.0, spec.noise_std_kwh)) if spec.noise_std_kwh else 0.0
            delivered = max(0.0, exact_kwh + noise)

            p = spec.user_field_presence
            requested = (
                energy_target * float(rng.uniform(0.8, 1.25))
                if rng.random() < p
                else None
            )
            available = float(duration_min) if rng.random() < p else None
            departure = (
                conn + timedelta(minutes=int(duration_min * rng.uniform(1.0, 1.4)))
                if rng.random() < p
                else None
            )

            sessions.append(
                SessionRecord(
                    session_id=session_id,
                    site_id="SYN",
                    station_id=station_id,
                    connection_time=epoch_seconds(conn),
                    disconnect_time=epoch_seconds(conn + timedelta(seconds=duration_s)),
                    delivered_energy_kwh=delivered,
                    requested_energy_kwh=requested,
                    available_minutes=available,
                    requested_departure=epoch_seconds(departure),
                )
            )
            index[session_id] = readings
    return sessions, index

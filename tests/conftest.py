"""Shared builders and fixtures for the test suite."""

from __future__ import annotations

import glob
import os
import signal
from contextlib import suppress
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from fedcharge import csvio
from fedcharge.features import build_feature_table
from fedcharge.ingest import SyntheticDepotSpec, generate_synthetic
from fedcharge.sessions import (
    DatasetConfig,
    SessionRecord,
    SessionSeries,
    retain_sessions,
)

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def utc(*fields: int) -> int:
    """UTC epoch seconds of datetime(*fields) in UTC, as SessionRecord holds
    times: utc(2019, 1, 7, 8, 30) is 2019-01-07T08:30:00Z."""
    return (datetime(*fields, tzinfo=timezone.utc) - _EPOCH) // timedelta(seconds=1)


T0 = utc(2019, 1, 7, 8, 30)


def make_session(
    session_id="s1",
    station_id="ST001",
    connection_time=T0,
    delivered=9.0,
    **kwargs,
) -> SessionRecord:
    return SessionRecord(
        session_id=session_id,
        site_id="caltech",
        station_id=station_id,
        connection_time=connection_time,
        delivered_energy_kwh=delivered,
        **kwargs,
    )


def make_series(
    start=T0,
    offsets_s=(0, 60, 120, 180, 240),
    current=32.0,
    pilot=32.0,
) -> SessionSeries:
    """One reading per offset; current/pilot may be scalars, sequences, or
    None, and None (whole column or one entry) is an absent reading."""
    n = len(offsets_s)

    def column(values):
        if values is None:
            return np.full(n, np.nan)
        if isinstance(values, (int, float)):
            return np.full(n, float(values))
        return np.array([np.nan if v is None else float(v) for v in values])

    t = start + np.array([int(off) for off in offsets_s], dtype=np.int64)
    return SessionSeries(t, column(current), column(pilot))


def uncached(path):
    """path, with the cache that write_timeseries left beside it removed, so
    that parse_timeseries parses it."""
    csvio.cache_path(path).unlink(missing_ok=True)
    return path


def children() -> list[int]:
    """The pids of this process's children, as the kernel lists them: those
    that have exited but are not yet reaped are listed too."""
    pids = []
    for path in glob.glob("/proc/self/task/*/children"):
        with suppress(OSError):  # a thread that has exited since
            with open(path, encoding="ascii") as fh:
                pids += map(int, fh.read().split())
    return pids


@pytest.fixture(autouse=True)
def no_stray_processes():
    """Fails a test that leaves a child process running or unreaped, and
    kills and reaps it."""
    yield
    stray = children()
    for pid in stray:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert not stray, f"processes left behind: {stray}"


@pytest.fixture(scope="session")
def dataset_cfg():
    return DatasetConfig()


@pytest.fixture(scope="session")
def small_depot(dataset_cfg):
    """10 stations, ~250 sessions; shared by training-path tests."""
    spec = SyntheticDepotSpec(n_stations=10, sessions_per_station=(20, 30), seed=3)
    sessions, series = generate_synthetic(spec)
    retained = retain_sessions(sessions, series, dataset_cfg)
    table = build_feature_table(retained.sessions, series, dataset_cfg)
    return sessions, series, table


@pytest.fixture(scope="session")
def small_table(small_depot):
    return small_depot[2]

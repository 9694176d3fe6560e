"""The columnar time-series path against its oracles.

* The parsers are fuzzed against the per-row reference parsers in
  ingest_reference.py: same index (values, NaN positions and session order)
  or records, same issues, same counters, lenient and strict, across batch
  boundaries.
* Writing then parsing any index gives it back.
* Retention is idempotent, and the early window matches a brute-force scan
  with datetimes for any window length.
* Synth and featurize outputs of one small depot keep the digests they had
  before the columnar rewrite.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ingest_reference
from conftest import make_series
from fedcharge import ingest
from fedcharge.cli import dispatch
from fedcharge.ingest import ParseError, parse_sessions, parse_timeseries, write_timeseries
from fedcharge.sessions import (
    EPOCH,
    DatasetConfig,
    SessionRecord,
    SessionSeries,
    early_window_bounds,
    format_utc,
    retain_sessions,
)

BASE = datetime(2019, 1, 7, 8, 30, tzinfo=timezone.utc)
SESSION_IDS = ["s1", "s2", "ST000-0001", "a,b", 'q"t', "two\nlines", " ", "é"]

# A small pool of instants, so that duplicates and out-of-order rows are common.
near = st.integers(0, 6).map(lambda k: BASE + timedelta(seconds=60 * k))
anywhen = st.datetimes(
    min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59),
    timezones=st.just(timezone.utc),
)
stamp_cells = st.one_of(
    near.map(format_utc),
    anywhen.map(format_utc),
    near.map(lambda d: d.astimezone(timezone(timedelta(hours=2))).isoformat()),
    near.map(lambda d: (d + timedelta(microseconds=500_000)).isoformat()),
    near.map(lambda d: d.replace(tzinfo=None).isoformat()),
    near.map(lambda d: format_utc(d).lower()),
    near.map(lambda d: format_utc(d).replace("T", " ")),
    st.sampled_from([
        "", "not-a-time", "2019-02-30T00:00:00Z", "2019-13-01T00:00:00Z",
        "0000-01-01T00:00:00Z", "2019-01-07T24:00:00Z", "2019-01-07T08:30:60Z",
        " 2019-01-07T08:30:00Z", "2019-01-07T08:30:00Z ", "２０19-01-07T08:30:00Z",
    ]),
)
value_cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-40, 40).map(str),
    st.sampled_from(["", "", "nan", "inf", "-inf", "-0.0", "abc", " 7 ", "1e400", "1_0"]),
)


TIMESERIES_CELLS = {
    "session_id": st.sampled_from(SESSION_IDS + [""]),
    "timestamp": stamp_cells,
    "current_a": value_cells,
    "pilot_a": value_cells,
}
SESSION_CELLS = {
    "session_id": st.sampled_from(SESSION_IDS + [""]),
    "site_id": st.sampled_from(["caltech", ""]),
    "station_id": st.sampled_from(["ST1", "a,b", ""]),
    "connection_time": stamp_cells,
    "disconnect_time": stamp_cells,
    "delivered_energy_kwh": value_cells,
    "requested_energy_kwh": value_cells,
    "available_minutes": value_cells,
    "requested_departure": stamp_cells,
}


@st.composite
def csv_files(draw, cells):
    """A CSV file: short, long and blank rows, quoted line breaks."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(list(cells))
    for _ in range(draw(st.integers(0, 14))):
        buf.write(draw(st.sampled_from(["", "", "", "\r\n", "\n"])))
        row = [draw(strategy) for strategy in cells.values()]
        width = len(row) + draw(st.sampled_from([0, 0, 0, -1, -2, 1]))
        writer.writerow((row + ["extra"])[:width])
    return buf.getvalue()


json_values = st.one_of(
    st.none(), value_cells, st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-5, 5), st.booleans(), st.just([1]),
)


@st.composite
def jsonl_files(draw, cells):
    """A JSON-lines file: missing keys, nulls, numbers, malformed lines."""
    lines = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "bad", "list"]))
        if kind != "row":
            lines.append({"blank": "  ", "bad": "{bad", "list": "[1, 2]"}[kind])
            continue
        obj = {
            key: draw(st.one_of(strategy, json_values))
            for key, strategy in cells.items()
            if draw(st.booleans())
        }
        lines.append(json.dumps(obj))
    return "\n".join(lines) + "\n"


def outcome(parse, path, strict):
    try:
        return parse(path, strict=strict)
    except ParseError as exc:
        return str(exc)


def assert_same_as_reference(name: str, text: str, chunk_rows: int):
    """Both parsers, lenient and strict, on one file."""
    parse, reference = {
        "timeseries": (parse_timeseries, ingest_reference.parse_timeseries),
        "sessions": (parse_sessions, ingest_reference.parse_sessions),
    }[name.split(".")[0]]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text, encoding="utf-8", newline="")
        with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
            lenient = parse(path)  # lenient mode never raises
            strict = outcome(parse, path, strict=True)
        expected = reference(path)
        assert lenient == expected
        if name.startswith("timeseries"):
            assert list(lenient.index) == list(expected.index)
        assert strict == outcome(reference, path, strict=True)


chunk_sizes = st.sampled_from([1, 2, 3, 32_768])


class TestParserOracle:
    @settings(max_examples=250, deadline=None)
    @given(text=csv_files(TIMESERIES_CELLS), chunk_rows=chunk_sizes)
    def test_csv_rows_match_reference(self, text, chunk_rows):
        assert_same_as_reference("timeseries.csv", text, chunk_rows)

    @settings(max_examples=250, deadline=None)
    @given(text=jsonl_files(TIMESERIES_CELLS), chunk_rows=chunk_sizes)
    def test_jsonl_rows_match_reference(self, text, chunk_rows):
        assert_same_as_reference("timeseries.jsonl", text, chunk_rows)

    @settings(max_examples=100, deadline=None)
    @given(
        file=st.one_of(
            csv_files(SESSION_CELLS).map(lambda text: ("sessions.csv", text)),
            jsonl_files(SESSION_CELLS).map(lambda text: ("sessions.jsonl", text)),
        ),
        chunk_rows=chunk_sizes,
    )
    def test_session_rows_match_reference(self, file, chunk_rows):
        assert_same_as_reference(*file, chunk_rows)

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_synthetic_depot_matches_reference(self, tmp_path, suffix):
        sessions, series = ingest.generate_synthetic(
            ingest.SyntheticDepotSpec(n_stations=3, sessions_per_station=(3, 4), seed=2)
        )
        path = tmp_path / f"timeseries{suffix}"
        write_timeseries(path, series)
        parsed = parse_timeseries(path)
        assert parsed == ingest_reference.parse_timeseries(path)
        assert list(parsed.index) == [s.session_id for s in sessions]


# Epoch seconds of 0001-01-01T00:00:00Z and 9999-12-31T23:59:59Z.
FIRST_SECOND, LAST_SECOND = -62_135_596_800, 253_402_300_799
amperes = st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e6))


@st.composite
def session_series(draw):
    n = draw(st.integers(1, 6))
    t = sorted(draw(st.sets(st.integers(FIRST_SECOND, LAST_SECOND), min_size=n, max_size=n)))
    pairs = draw(st.lists(
        st.tuples(amperes, amperes).filter(lambda p: p != (None, None)), min_size=n, max_size=n
    ))
    return SessionSeries(
        t, [math.nan if c is None else c for c, _ in pairs],
        [math.nan if p is None else p for _, p in pairs],
    )


session_ids = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), min_size=1
)


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(
        index=st.dictionaries(session_ids, session_series(), max_size=5),
        suffix=st.sampled_from([".csv", ".jsonl"]),
    )
    def test_write_then_parse_gives_the_index_back(self, index, suffix):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"timeseries{suffix}"
            write_timeseries(path, index)
            parsed = parse_timeseries(path, strict=True)
        assert parsed.index == index and list(parsed.index) == list(index)
        assert (parsed.n_negative_clamped, parsed.n_duplicates_merged) == (0, 0)


@st.composite
def depots(draw):
    sessions, series = [], {}
    for k in range(draw(st.integers(0, 8))):
        sid = f"s{k}"
        conn = BASE + timedelta(microseconds=draw(st.integers(0, 120_000_000)))
        delivered = draw(st.one_of(st.none(), st.floats(0.0, 50.0)))
        sessions.append(SessionRecord(sid, "x", "ST1", conn, delivered_energy_kwh=delivered))
        offsets = sorted(draw(st.sets(st.integers(-120, 1500), max_size=12)))
        if offsets and draw(st.booleans()):
            current = draw(st.lists(st.sampled_from([None, 16.0]), min_size=len(offsets),
                                    max_size=len(offsets)))
            series[sid] = make_series(offsets_s=offsets, current=current, pilot=32.0)
    return sessions, series


class TestRetention:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        depot=depots(),
        minutes=st.floats(0.01, 30.0),
        floor=st.integers(1, 6),
    )
    def test_retention_is_idempotent(self, depot, minutes, floor):
        sessions, series = depot
        cfg = DatasetConfig(early_window_minutes=minutes, min_early_current_samples=floor)
        first = retain_sessions(sessions, series, cfg)
        again = retain_sessions(first.sessions, series, cfg)
        assert again.sessions == first.sessions
        assert not again.dropped

    @settings(max_examples=200, deadline=None)
    @given(
        offsets=st.sets(st.integers(-900, 2400), max_size=30),
        shift_us=st.integers(0, 2_000_000),
        minutes=st.floats(1e-7, 40.0),
    )
    def test_early_window_matches_a_datetime_scan(self, offsets, shift_us, minutes):
        conn = BASE + timedelta(microseconds=shift_us)
        series = make_series(offsets_s=sorted(offsets), current=16.0)
        session = SessionRecord("s1", "x", "ST1", conn, delivered_energy_kwh=1.0)
        end = conn + timedelta(minutes=minutes)
        inside = [
            i for i, t in enumerate(series.t.tolist())
            if conn <= EPOCH + timedelta(seconds=t) <= end
        ]
        lo, hi = early_window_bounds(session, series, DatasetConfig(early_window_minutes=minutes))
        assert list(range(lo, hi)) == inside
        assert lo == sum(EPOCH + timedelta(seconds=t) < conn for t in series.t.tolist())


# sha256 of the synth and featurize outputs for `synth --seed 11 --stations 4
# --sessions-per-station 6:9`, as written by the per-sample implementation.
PINNED = {
    "csv": {
        "depot/sessions.csv": "9fc23330c72de7b0064467ac28f126c140990cb1497677fd820bc6a270c73afa",
        "depot/timeseries.csv": "e56840f3a60b615eb119b8afcb2ca645e325291f4280d963291042f44b7d5b9c",
        "feats/features.csv": "7e6e82f5b2c8763ab5c0197043dacd314e56798ca830207d1f6e4acde56dfc05",
    },
    "jsonl": {
        "depot/sessions.jsonl": "5f75e70d607a60a7296c418a2baf8a7e7d260ba8573023b14ce0a70ada3fca89",
        "depot/timeseries.jsonl": "d8b15d1d7d5fcf1663f46aa1c7e6729f2b5ad61ccb186bede9b4e27acb0c5c81",
        "feats/features.csv": "7e6e82f5b2c8763ab5c0197043dacd314e56798ca830207d1f6e4acde56dfc05",
    },
}


@pytest.mark.parametrize("fmt", sorted(PINNED))
def test_outputs_match_pinned_digests(tmp_path, fmt):
    depot, feats = tmp_path / "depot", tmp_path / "feats"
    assert dispatch([
        "synth", "--seed", "11", "--stations", "4", "--sessions-per-station", "6:9",
        "--format", fmt, "--out", str(depot),
    ]) == 0
    assert dispatch(["featurize", "--in", str(depot), "--out", str(feats)]) == 0
    for name, digest in PINNED[fmt].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

"""Parsing, writing, and the deterministic synthetic generator."""

import math
import warnings
from dataclasses import fields
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ingest_reference
import synth_reference
from conftest import T0, make_series, make_session, uncached
from fedcharge.cli import dispatch
from fedcharge.ingest import (
    ParseError,
    SyntheticDepotSpec,
    generate_synthetic,
    parse_sessions,
    parse_timeseries,
    write_sessions,
    write_timeseries,
)
from fedcharge.sessions import SessionRecord, SessionSeries
from ingest_reference import EPOCH, format_utc

SESSIONS_CSV = """session_id,site_id,station_id,connection_time,disconnect_time,delivered_energy_kwh,requested_energy_kwh,available_minutes,requested_departure
s1,caltech,ST001,2019-01-07T08:30:00Z,2019-01-07T12:30:00Z,9.25,,,
s2,caltech,ST002,2019-01-07T09:00:00Z,,4.5,10.0,240.0,2019-01-07T13:00:00Z
"""

TIMESERIES_CSV = """session_id,timestamp,current_a,pilot_a
s1,2019-01-07T08:30:00Z,32.0,32.0
s1,2019-01-07T08:31:00Z,31.0,32.0
"""


class TestParseSessions:
    def test_direct_field_mapping(self, tmp_path):
        path = tmp_path / "sessions.csv"
        path.write_text(SESSIONS_CSV)
        result = parse_sessions(path)
        assert len(result.records) == 2 and not result.issues
        s1 = result.records[0]
        assert s1.delivered_energy_kwh == 9.25
        assert s1.requested_energy_kwh is None
        assert s1.available_minutes is None
        assert s1.connection_time == T0
        s2 = result.records[1]
        assert s2.requested_energy_kwh == 10.0
        assert s2.disconnect_time is None

    def test_row_count_matches_file(self, tmp_path):
        n = 37
        lines = ["session_id,site_id,station_id,connection_time,disconnect_time,"
                 "delivered_energy_kwh,requested_energy_kwh,available_minutes,requested_departure"]
        for i in range(n):
            lines.append(f"s{i},x,ST1,2019-01-07T08:30:00Z,,1.0,,,")
        path = tmp_path / "sessions.csv"
        path.write_text("\n".join(lines) + "\n")
        result = parse_sessions(path)
        assert len(result.records) == n == len(path.read_text().splitlines()) - 1

    def test_lenient_skips_and_counts(self, tmp_path):
        path = tmp_path / "sessions.csv"
        path.write_text(SESSIONS_CSV + "s3,caltech,ST003,not-a-time,,1.0,,,\n")
        result = parse_sessions(path)
        assert len(result.records) == 2
        assert len(result.issues) == 1
        assert result.issues[0][0] == 4  # 1-based line number incl. header

    def test_strict_aborts_with_line_number(self, tmp_path):
        path = tmp_path / "sessions.csv"
        path.write_text(SESSIONS_CSV + "s3,caltech,ST003,not-a-time,,1.0,,,\n")
        with pytest.raises(ParseError, match=":4:"):
            parse_sessions(path, strict=True)

    def test_blank_lines_keep_physical_line_numbers(self, tmp_path):
        header, s1, s2 = SESSIONS_CSV.strip().split("\n")
        path = tmp_path / "blank.csv"
        path.write_text("\n".join([header, "", s1, "", s2, "s3,x,ST3,garbage,,1.0,,,"]) + "\n")
        result = parse_sessions(path)
        assert len(result.records) == 2
        assert result.issues[0][0] == 6

    def test_jsonl_carries_same_fields(self, tmp_path):
        path = tmp_path / "sessions.jsonl"
        path.write_text(
            '{"session_id": "s1", "site_id": "x", "station_id": "ST1",'
            ' "connection_time": "2019-01-07T08:30:00Z", "delivered_energy_kwh": 9.25}\n'
        )
        result = parse_sessions(path)
        assert result.records[0].delivered_energy_kwh == 9.25
        assert result.records[0].requested_energy_kwh is None


class TestParseTimeseries:
    def test_grouping_and_sorting(self, tmp_path):
        path = tmp_path / "timeseries.csv"
        path.write_text(TIMESERIES_CSV)
        result = parse_timeseries(path)
        assert set(result.index) == {"s1"}
        assert result.index["s1"].current.tolist() == [32.0, 31.0]

    def test_out_of_order_rows_sort_identically(self, tmp_path):
        in_order = tmp_path / "a.csv"
        in_order.write_text(TIMESERIES_CSV)
        shuffled = tmp_path / "b.csv"
        header, r1, r2 = TIMESERIES_CSV.strip().split("\n")
        shuffled.write_text("\n".join([header, r2, r1]) + "\n")
        assert parse_timeseries(in_order).index == parse_timeseries(shuffled).index

    def test_duplicate_timestamps_last_write_wins(self, tmp_path):
        path = tmp_path / "timeseries.csv"
        path.write_text(
            "session_id,timestamp,current_a,pilot_a\n"
            "s1,2019-01-07T08:30:00Z,10.0,32.0\n"
            "s1,2019-01-07T08:30:00Z,12.0,32.0\n"
        )
        result = parse_timeseries(path)
        assert len(result.index["s1"]) == 1
        assert result.index["s1"].current[0] == 12.0
        assert result.n_duplicates_merged == 1

    def test_negative_readings_clamped(self, tmp_path):
        path = tmp_path / "timeseries.csv"
        path.write_text(
            "session_id,timestamp,current_a,pilot_a\n"
            "s1,2019-01-07T08:30:00Z,-3.0,32.0\n"
        )
        result = parse_timeseries(path)
        assert result.index["s1"].current[0] == 0.0
        assert result.n_negative_clamped == 1

    # A bad row on physical line 5, after two blank lines.
    BLANK_LINES_CSV = (
        "session_id,timestamp,current_a,pilot_a\n"
        "\n"
        "\n"
        "s1,2019-01-07T08:30:00Z,32.0,32.0\n"
        "s1,2019-01-07T08:31:00Z,abc,32.0\n"
    )

    def test_lenient_issue_names_the_physical_line(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(self.BLANK_LINES_CSV)
        result = parse_timeseries(path)
        assert result.issues == [(5, "could not convert string to float: 'abc'")]
        assert len(result.index["s1"]) == 1

    def test_strict_error_names_the_physical_line(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(self.BLANK_LINES_CSV)
        with pytest.raises(ParseError, match="blank.csv:5: could not convert") as info:
            parse_timeseries(path, strict=True)
        assert info.value.line_number == 5

    def test_quoted_line_break_counts_its_lines(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text(
            "session_id,timestamp,current_a,pilot_a\n"
            '"two\nlines",2019-01-07T08:30:00Z,32.0,32.0\n'
            "s1,2019-01-07T08:30:00Z,inf,32.0\n"
        )
        result = parse_timeseries(path)
        assert result.issues == [(4, "current_a is not finite")]
        assert list(result.index) == ["two\nlines"]

    def test_neither_signal_is_reported(self, tmp_path):
        path = tmp_path / "timeseries.csv"
        path.write_text(TIMESERIES_CSV + "s1,2019-01-07T08:32:00Z,,\n")
        result = parse_timeseries(path)
        assert result.issues == [(4, "sample for s1 carries neither current nor pilot")]

    def test_absent_signal_is_nan(self, tmp_path):
        path = tmp_path / "timeseries.csv"
        path.write_text(TIMESERIES_CSV + "s1,2019-01-07T08:32:00Z,,30.0\n")
        series = parse_timeseries(path).index["s1"]
        assert np.isnan(series.current).tolist() == [False, False, True]
        assert series.pilot.tolist() == [32.0, 32.0, 30.0]

    def test_strictly_increasing_per_session(self, tmp_path):
        rng = np.random.default_rng(2)
        lines = ["session_id,timestamp,current_a,pilot_a"]
        for sid in ("a", "b"):
            for off in rng.choice(3600, size=50, replace=False):
                ts = format_utc(EPOCH + timedelta(seconds=T0 + int(off)))
                lines.append(f"{sid},{ts},16.0,32.0")
        path = tmp_path / "timeseries.csv"
        path.write_text("\n".join(lines) + "\n")
        for series in parse_timeseries(path).index.values():
            stamps = series.t.tolist()
            assert all(a < b for a, b in zip(stamps, stamps[1:]))


class TestHeader:
    """A CSV header without a column that every valid row needs stops the
    parse on line 1 in either mode, naming the column and showing the header
    as read; one that only reorders the columns parses as before."""

    SESSIONS = {
        "a byte-order mark": ("\ufeff", "", "no session_id column"),
        "no connection_time": ("", "connection_time", "no connection_time column"),
    }
    SERIES = {
        "no timestamp": (("timestamp",), "no timestamp column"),
        "no current_a or pilot_a": (("current_a", "pilot_a"),
                                    "no current_a or pilot_a column"),
        "no session_id or timestamp": (("session_id", "timestamp"),
                                       "no session_id column, no timestamp column"),
    }

    @staticmethod
    def raises(parse, path, message: str) -> None:
        header = path.read_text(encoding="utf-8").splitlines()[0].split(",")
        for strict in (False, True):
            with pytest.raises(ParseError) as info:
                parse(path, strict=strict)
            assert str(info.value) == f"{path}:1: the header has {message}: it reads {header!r}"

    @pytest.mark.parametrize("case", sorted(SESSIONS))
    def test_sessions(self, tmp_path, case):
        prefix, renamed, message = self.SESSIONS[case]
        text = prefix + SESSIONS_CSV
        if renamed:
            text = text.replace(renamed, "time", 1)
        path = tmp_path / "sessions.csv"
        path.write_text(text, encoding="utf-8")
        self.raises(parse_sessions, path, message)

    @pytest.mark.parametrize("case", sorted(SERIES))
    def test_timeseries(self, tmp_path, case):
        renamed, message = self.SERIES[case]
        text = TIMESERIES_CSV
        for name in renamed:
            text = text.replace(name, f"{name[:4]}x", 1)
        path = tmp_path / "timeseries.csv"
        path.write_text(text)
        self.raises(parse_timeseries, path, message)

    def test_one_reading_column_is_enough(self, tmp_path):
        path = tmp_path / "timeseries.csv"
        path.write_text(TIMESERIES_CSV.replace("pilot_a", "pilot", 1))
        assert len(parse_timeseries(path, strict=True).index["s1"]) == 2

    def test_an_empty_file_has_no_header_to_check(self, tmp_path):
        path = tmp_path / "sessions.csv"
        path.write_text("")
        assert parse_sessions(path, strict=True).records == []

    def test_a_blank_first_line_is_a_header_of_no_column(self, tmp_path):
        path = tmp_path / "timeseries.csv"
        path.write_text("\n" + TIMESERIES_CSV)
        with pytest.raises(ParseError, match=r":1: the header has no session_id column, no "
                                             r"timestamp column, no current_a or pilot_a "
                                             r"column: it reads \[\]$"):
            parse_timeseries(path)

    def test_a_quote_that_runs_the_header_on(self, tmp_path):
        """A quote opening the header runs it on to the end of the file: one
        field, no column."""
        path = tmp_path / "timeseries.csv"
        path.write_text('"' + TIMESERIES_CSV[1:])
        with pytest.raises(ParseError, match=":1: the header has no session_id column, no "
                                             "timestamp column, no current_a or pilot_a column"):
            parse_timeseries(path)

    @pytest.mark.parametrize("name, text, parse", [
        ("sessions.csv", SESSIONS_CSV, parse_sessions),
        ("timeseries.csv", TIMESERIES_CSV, parse_timeseries),
    ])
    def test_reordered_columns_parse_as_before(self, tmp_path, name, text, parse):
        path = tmp_path / name
        path.write_text(text)
        expected = parse(path, strict=True)
        rows = [line.split(",") for line in text.splitlines()]
        path.write_text("".join(",".join(row[::-1]) + "\n" for row in rows))
        assert parse(path, strict=True) == expected

    def test_featurize_names_the_sessions_file(self, tmp_path, capsys):
        """A spreadsheet's byte-order mark on sessions.csv and a renamed
        timestamp column: featurize stops at the first file it parses."""
        depot, bom = tmp_path / "depot", tmp_path / "bom"
        assert dispatch(["synth", "--seed", "7", "--stations", "4",
                         "--sessions-per-station", "10:12", "--out", str(depot)]) == 0
        bom.mkdir()
        sessions = (depot / "sessions.csv").read_bytes()
        (bom / "sessions.csv").write_bytes("\ufeff".encode() + sessions)
        series = (depot / "timeseries.csv").read_bytes()
        (bom / "timeseries.csv").write_bytes(series.replace(b"timestamp", b"time", 1))
        capsys.readouterr()
        assert dispatch(["featurize", "--in", str(bom), "--out", str(tmp_path / "out")]) == 1
        header = ("\ufeff" + sessions.decode()).split("\r\n")[0].split(",")
        assert capsys.readouterr().err == (
            f"error: {bom / 'sessions.csv'}:1: the header has no session_id column: "
            f"it reads {header!r}\n")


# A JSON integer too large for a float: float() raises OverflowError on it.
HUGE = "1" + "0" * 400
HUGE_NUMBER_ROWS = [
    (parse_timeseries, 2, "current_a",
     '{"session_id": "s1", "timestamp": "2019-01-07T08:30:00Z", "current_a": 32.0}\n'
     f'{{"session_id": "s1", "timestamp": "2019-01-07T08:31:00Z", "current_a": {HUGE}}}\n'),
    (parse_sessions, 1, "delivered_energy_kwh",
     '{"session_id": "s1", "station_id": "ST1", "connection_time": "2019-01-07T08:30:00Z", '
     f'"delivered_energy_kwh": {HUGE}}}\n'),
]


@pytest.mark.parametrize("parse, line, field, text", HUGE_NUMBER_ROWS,
                         ids=["timeseries", "sessions"])
class TestJsonNumberBeyondFloat:
    def test_lenient_reports_not_finite(self, tmp_path, parse, line, field, text):
        path = tmp_path / "rows.jsonl"
        path.write_text(text)
        assert parse(path).issues == [(line, f"{field} is not finite")]

    def test_strict_raises_parse_error(self, tmp_path, parse, line, field, text):
        path = tmp_path / "rows.jsonl"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"rows.jsonl:{line}: {field} is not finite"):
            parse(path, strict=True)


# A JSON integer over 4,300 digits: json.loads itself raises a plain ValueError.
LONG = "1" * 5001
LONG_NUMBER_ROWS = [
    (parse_timeseries, ingest_reference.parse_timeseries,
     f'{{"session_id": "s1", "timestamp": "2019-01-07T08:30:00Z", "current_a": {LONG}}}\n'
     '{"session_id": "s1", "timestamp": "2019-01-07T08:31:00Z", "current_a": 32.0}\n'),
    (parse_sessions, ingest_reference.parse_sessions,
     '{"session_id": "s1", "station_id": "ST1", "connection_time": "2019-01-07T08:30:00Z", '
     f'"delivered_energy_kwh": {LONG}}}\n'
     '{"session_id": "s2", "station_id": "ST1", "connection_time": "2019-01-07T09:30:00Z", '
     '"delivered_energy_kwh": 4.0}\n'),
]


@pytest.mark.parametrize("parse, reference, text", LONG_NUMBER_ROWS,
                         ids=["timeseries", "sessions"])
class TestJsonIntegerOverDigitLimit:
    def test_lenient_reports_the_line_and_goes_on(self, tmp_path, parse, reference, text):
        path = tmp_path / "rows.jsonl"
        path.write_text(text)
        result = parse(path)
        [(line, message)] = result.issues
        assert line == 1 and "Exceeds the limit (4300 digits)" in message
        assert (result.index if parse is parse_timeseries else result.records)  # row 2 kept
        assert result == reference(path)

    def test_strict_raises_parse_error(self, tmp_path, parse, reference, text):
        path = tmp_path / "rows.jsonl"
        path.write_text(text)
        for fn in (parse, reference):
            with pytest.raises(ParseError, match="rows.jsonl:1: Exceeds the limit"):
                fn(path, strict=True)


class TestRoundTrip:
    @pytest.mark.parametrize("ext", ["csv", "jsonl"])
    def test_generate_write_parse_identity(self, tmp_path, ext):
        spec = SyntheticDepotSpec(n_stations=3, sessions_per_station=(3, 5), seed=9)
        sessions, series = generate_synthetic(spec)
        write_sessions(tmp_path / f"sessions.{ext}", sessions)
        write_timeseries(tmp_path / f"timeseries.{ext}", series)
        parsed = parse_sessions(tmp_path / f"sessions.{ext}")
        assert parsed.records == sessions
        path = tmp_path / f"timeseries.{ext}"
        assert parse_timeseries(path).index == series  # from the cache of a CSV file
        assert parse_timeseries(uncached(path)).index == series

    def test_handwritten_records_roundtrip(self, tmp_path):
        sessions = [
            make_session(session_id="a", requested_energy_kwh=7.5),
            make_session(session_id="b", delivered=0.0,
                         requested_departure=T0 + 3 * 3600),
        ]
        series = {
            "a": make_series(pilot=None),
            "b": make_series(current=None),
        }
        write_sessions(tmp_path / "s.csv", sessions)
        write_timeseries(tmp_path / "t.csv", series)
        assert parse_sessions(tmp_path / "s.csv").records == sessions
        assert parse_timeseries(tmp_path / "t.csv").index == series
        assert parse_timeseries(uncached(tmp_path / "t.csv")).index == series


class TestGenerateSynthetic:
    def test_determinism_byte_identical(self, tmp_path):
        spec = SyntheticDepotSpec(n_stations=4, sessions_per_station=(5, 8), seed=21)
        for run in ("x", "y"):
            sessions, series = generate_synthetic(spec)
            write_sessions(tmp_path / f"{run}_sessions.csv", sessions)
            write_timeseries(tmp_path / f"{run}_timeseries.csv", series)
        assert (tmp_path / "x_sessions.csv").read_bytes() == (tmp_path / "y_sessions.csv").read_bytes()
        assert (tmp_path / "x_timeseries.csv").read_bytes() == (tmp_path / "y_timeseries.csv").read_bytes()

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            SyntheticDepotSpec(n_stations=0)
        with pytest.raises(ValueError):
            SyntheticDepotSpec(sessions_per_station=(5, 2))
        with pytest.raises(ValueError):
            SyntheticDepotSpec(noise_std_kwh=-1)

    @pytest.mark.parametrize("name", ["station_energy_mean_kwh", "station_energy_std_kwh",
                                      "heterogeneity_shift_kwh", "noise_std_kwh"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_rejected_by_name(self, name, value):
        # Accepted before: an infinite mean, for one, wrote requested_energy_kwh
        # inf, which parse_sessions rejects.
        with pytest.raises(ValueError, match=f"^{name} must be finite and "):
            SyntheticDepotSpec(**{name: value})

    def test_nan_spread_and_noise_rejected(self):
        # Accepted before, these gave every session delivered_energy_kwh 0.0.
        with pytest.raises(ValueError, match="station_energy_std_kwh"):
            SyntheticDepotSpec(station_energy_std_kwh=float("nan"), noise_std_kwh=float("nan"))

    def test_zero_shift_single_distribution(self):
        spec = SyntheticDepotSpec(
            n_stations=12, sessions_per_station=(40, 40),
            heterogeneity_shift_kwh=0.0, noise_std_kwh=0.0, seed=4,
        )
        sessions, _ = generate_synthetic(spec)
        half = {s.station_id for s in sessions if int(s.station_id[2:]) < 6}
        lo = [s.delivered_energy_kwh for s in sessions if s.station_id in half]
        hi = [s.delivered_energy_kwh for s in sessions if s.station_id not in half]
        assert abs(np.mean(lo) - np.mean(hi)) < 1.0  # same distribution

    def test_shift_raises_subset_mean_by_shift(self):
        # Oracle: empirical means of shifted vs unshifted stations.
        spec = SyntheticDepotSpec(
            n_stations=12, sessions_per_station=(80, 80),
            heterogeneity_shift_kwh=5.0, noise_std_kwh=0.0, seed=4,
        )
        sessions, _ = generate_synthetic(spec)
        shifted = {f"ST{i:03d}" for i in range(6)}
        lo = [s.delivered_energy_kwh for s in sessions if s.station_id not in shifted]
        hi = [s.delivered_energy_kwh for s in sessions if s.station_id in shifted]
        assert abs((np.mean(hi) - np.mean(lo)) - 5.0) < 0.5

    def test_target_equals_series_integral_when_noiseless(self):
        spec = SyntheticDepotSpec(
            n_stations=2, sessions_per_station=(5, 5), noise_std_kwh=0.0, seed=13
        )
        sessions, series = generate_synthetic(spec)
        for s in sessions:
            readings = series[s.session_id]
            t = (readings.t - s.connection_time).astype(float)  # seconds since connection
            p = 208.0 * readings.current / 1000.0
            brute = float(np.sum((p[:-1] + p[1:]) / 2 * np.diff(t)) / 3600.0)
            assert s.delivered_energy_kwh == pytest.approx(brute, abs=1e-9)


@st.composite
def synth_specs(draw):
    """Specs over the generator's corners: odd and even station counts, one
    session per station, shifted halves, no noise, user fields never or
    always present, clamped currents and energies, and sample periods that do
    not divide a minute or outlast the session."""
    lo = draw(st.integers(1, 6))
    dlo = draw(st.integers(1, 200))
    return SyntheticDepotSpec(
        n_stations=draw(st.integers(1, 7)),
        sessions_per_station=draw(st.one_of(st.just((1, 1)),
                                            st.tuples(st.just(lo), st.integers(lo, lo + 4)))),
        station_energy_mean_kwh=draw(st.floats(0.01, 300.0)),
        station_energy_std_kwh=draw(st.one_of(st.just(0.0), st.floats(0.0, 50.0))),
        heterogeneity_shift_kwh=draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0))),
        noise_std_kwh=draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0))),
        seed=draw(st.integers(0, 2**63 - 1)),
        session_minutes=(dlo, draw(st.integers(dlo, dlo + 120))),
        sample_period_s=draw(st.one_of(st.sampled_from([60, 7, 45, 61, 90, 3600, 10**6]),
                                       st.integers(1, 20_000))),
        user_field_presence=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
    )


def typed_fields(record: SessionRecord) -> list[tuple[type, str]]:
    """Each field's type and repr, so that -0.0, an int for a float and a
    timezone all show."""
    return [(type(v), repr(v)) for v in (getattr(record, f.name) for f in fields(record))]


class TestSynthOracle:
    """generate_synthetic against the per-session generator it replaced
    (tests/synth_reference.py)."""

    @settings(max_examples=150, deadline=None)
    @given(spec=synth_specs())
    def test_matches_the_per_session_generator(self, spec):
        sessions, index = generate_synthetic(spec)
        want_sessions, want_index = synth_reference.generate_synthetic(spec)
        assert [typed_fields(s) for s in sessions] == [typed_fields(s) for s in want_sessions]
        assert list(index) == list(want_index)
        for sid, series in index.items():
            want = want_index[sid]
            for name in ("t", "current", "pilot"):
                got = getattr(series, name)
                assert got.dtype == getattr(want, name).dtype
                assert got.tobytes() == getattr(want, name).tobytes()
                assert not got.flags.writeable
            assert SessionSeries(series.t, series.current, series.pilot) == series
            with pytest.raises(ValueError, match="read-only"):
                series.current[:1] = 0.0

    def test_walkthrough_depot_matches(self):
        spec = SyntheticDepotSpec(seed=7)
        sessions, index = generate_synthetic(spec)
        want_sessions, want_index = synth_reference.generate_synthetic(spec)
        assert [typed_fields(s) for s in sessions] == [typed_fields(s) for s in want_sessions]
        assert index == want_index

    @pytest.mark.parametrize("noise, name, column", [
        (1e308, "noise_std_kwh", "delivered_energy_kwh"),
        (0.5, "station_energy_std_kwh", "requested_energy_kwh"),
    ], ids=["noise", "spread"])
    def test_overflow_names_the_spec_field(self, noise, name, column):
        # A huge spread overflows some energies to inf, as Python floats do in
        # the per-session generator; that depot would not parse back.
        spec = SyntheticDepotSpec(n_stations=3, station_energy_std_kwh=1e308,
                                  noise_std_kwh=noise, seed=1)
        want_sessions, _ = synth_reference.generate_synthetic(spec)
        first = next(s for s in want_sessions if getattr(s, column) == math.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                generate_synthetic(spec)
        assert str(info.value) == f"{name}=1e+308 gives session {first.session_id} a {column} " \
                                  f"of inf: the energies must stay finite"

    def test_synth_of_an_overflowing_spec_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "depot"
        assert dispatch(["synth", "--seed", "1", "--stations", "2", "--sessions-per-station",
                         "3:3", "--std-kwh", "1e308", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: station_energy_std_kwh=1e+308 ")
        assert not out.exists()

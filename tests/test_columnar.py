"""The columnar time-series path against its oracles.

* The parsers are fuzzed against the per-row reference parsers in
  ingest_reference.py: same index (values, NaN positions and session order)
  or records, same issues, same counters, lenient and strict, across batch
  boundaries. One CSV strategy puts blank or short rows into nearly every
  file, so csv.reader reads them; the other writes mostly plain rows, which
  the byte tokenizer reads, with an occasional line that is not plain.
* Session ids are looked up once per run of equal ids; interleaved ids,
  rescued rows, invalid first rows and empty ids inside a run still give the
  reference's index and order.
* The writer is fuzzed against the per-session reference writer: the same
  bytes, in both formats, across block boundaries. Its timestamps equal
  numpy's datetime_as_string over the whole range of years 1-9999, and it
  refuses values its parser would reject. Writing then parsing any index
  gives it back.
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

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ingest_reference
from conftest import make_series
from fedcharge import ingest
from fedcharge.cli import dispatch
from fedcharge.ingest import (
    TIMESERIES_COLUMNS,
    ParseError,
    parse_sessions,
    parse_timeseries,
    write_timeseries,
)
from fedcharge.sessions import (
    EPOCH,
    DatasetConfig,
    SessionRecord,
    SessionSeries,
    early_window_bounds,
    epoch_seconds,
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


# Cells that need no CSV quoting, with non-ASCII session ids and fullwidth
# digits (which float() reads from text but not from bytes).
PLAIN_IDS = ["s1", "s2", "ST000-0001", " ", "é", "站-7"]
plain_values = st.one_of(value_cells, st.sampled_from(["１２", "３.５", "-０.５", "16.0"]))
PLAIN_CELLS = {
    "timeseries": {
        "session_id": st.sampled_from(PLAIN_IDS + [""]),
        "timestamp": stamp_cells,
        "current_a": plain_values,
        "pilot_a": plain_values,
    },
    "sessions": {
        **{name: cells for name, cells in SESSION_CELLS.items() if name.endswith(("_time", "_kwh",
           "_minutes", "_departure"))},
        "session_id": st.sampled_from(PLAIN_IDS + [""]),
        "site_id": st.sampled_from(["caltech", ""]),
        "station_id": st.sampled_from(["ST1", "ST2", ""]),
    },
}
# Lines that are not plain, each written in place of a plain row.
ODD_LINES = ["quote", "quoted break", "bare cr", "nul", "blank", "short", "long"]


@st.composite
def plain_csv_files(draw, cells):
    """A CSV file of mostly plain rows: the columns in any order, LF or CRLF
    line ends, runs of repeated rows, and now and then a line that is not
    plain: a quoted cell or a quoted line break, a bare CR, a NUL, a blank
    line, a short or a long row. The final newline may be missing.
    """
    names = draw(st.permutations(list(cells)))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=eol)
    writer.writerow(names)
    row = None
    for _ in range(draw(st.integers(0, 24))):
        if row is None or not draw(st.integers(0, 3)):
            row = [draw(cells[name]) for name in names]
        elif draw(st.booleans()):  # a run: the same cells at another time, maybe
            row = [draw(cells[name]) if name == "timestamp" else v for name, v in zip(names, row)]
        line = ",".join(row) + draw(st.sampled_from([eol] * 5 + ["\n", "\r\n"]))
        odd = draw(st.sampled_from(ODD_LINES + [None] * 20))
        if odd == "quote":
            writer.writerow([*row[:-1], draw(st.sampled_from(['q"t', "a,b"]))])
            line = ""
        elif odd == "quoted break":
            writer.writerow([*row[:-1], "two\nlines"])
            line = ""
        elif odd == "bare cr":
            line = ",".join(row) + "\r"
        elif odd == "nul":
            line = line.replace(",", "\0,", 1)
        elif odd == "blank":
            line = eol
        elif odd in ("short", "long"):
            line = ",".join(row[:-1] if odd == "short" else [*row, "extra"]) + eol
        buf.write(line)
    text = buf.getvalue()
    return text.rstrip("\r\n") + eol if draw(st.booleans()) else text.rstrip("\r\n")


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

    @settings(max_examples=250, deadline=None)
    @given(text=plain_csv_files(PLAIN_CELLS["timeseries"]), chunk_rows=chunk_sizes)
    def test_plain_csv_rows_match_reference(self, text, chunk_rows):
        assert_same_as_reference("timeseries.csv", text, chunk_rows)

    @settings(max_examples=100, deadline=None)
    @given(text=plain_csv_files(PLAIN_CELLS["sessions"]), chunk_rows=chunk_sizes)
    def test_plain_csv_session_rows_match_reference(self, text, chunk_rows):
        assert_same_as_reference("sessions.csv", text, chunk_rows)

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_synthetic_depot_matches_reference(self, tmp_path, suffix):
        sessions, series = ingest.generate_synthetic(
            ingest.SyntheticDepotSpec(n_stations=3, sessions_per_station=(3, 4), seed=2)
        )
        path = tmp_path / f"timeseries{suffix}"
        write_timeseries(path, series)
        expected = ingest_reference.parse_timeseries(path)
        for chunk_rows in (1_000, 32_768):  # 1,356 rows: two blocks, then one
            with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
                parsed = parse_timeseries(path)
            assert parsed == expected
            assert list(parsed.index) == [s.session_id for s in sessions]


HEADER = ",".join(TIMESERIES_COLUMNS) + "\r\n"


def reading_line(k: int, sid: str = "s1", current: str = "16.0") -> str:
    return f"{sid},{format_utc(BASE + timedelta(minutes=k))},{current},32.0\r\n"


class TestTokenizer:
    def test_byte_arrays_until_csv_reader_is_needed(self, tmp_path):
        # Lines 2-3 are plain; line 4 is blank, so csv.reader reads lines 4-5;
        # line 7 holds a quote, so csv.reader reads from line 6 to the end.
        rows = [reading_line(k) for k in range(10)]
        rows[2] = "\r\n"
        rows[5] = reading_line(5, current='"16.0"')
        path = tmp_path / "timeseries.csv"
        path.write_text(HEADER + "".join(rows), encoding="utf-8", newline="")
        with mock.patch.object(ingest, "_CHUNK_ROWS", 2):
            chunks = [
                (list(lines), type(cells[0]).__name__)
                for lines, cells, _, _ in ingest._read_chunks(path, TIMESERIES_COLUMNS)
            ]
        assert chunks == [
            ([2, 3], "ndarray"), ([5], "list"),
            ([6, 7], "list"), ([8, 9], "list"), ([10, 11], "list"),
        ]

    def test_bare_cr_lines_are_cut_into_blocks(self, tmp_path):
        # A bare CR ends a line, so a file with no \n still comes in blocks
        # of _CHUNK_ROWS lines, each one read by csv.reader on its own.
        rows = [reading_line(k).replace("\r\n", "\r") for k in range(5)]
        path = tmp_path / "timeseries.csv"
        path.write_text(HEADER.replace("\r\n", "\r") + "".join(rows), encoding="utf-8", newline="")
        blocks = []

        def reader_chunks(file, chunk_blocks, picks, columns):
            chunk_blocks = list(chunk_blocks)
            blocks.extend(raw for _, raw, _, _ in chunk_blocks)
            return reader(file, chunk_blocks, picks, columns)

        reader = ingest._reader_chunks
        with (
            mock.patch.object(ingest, "_CHUNK_ROWS", 2),
            mock.patch.object(ingest, "_reader_chunks", reader_chunks),
        ):
            lines = [list(lines) for lines, *_ in ingest._read_chunks(path, TIMESERIES_COLUMNS)]
        assert lines == [[2, 3], [4, 5], [6]]
        assert blocks == [("".join(rows[k : k + 2])).encode() for k in (0, 2, 4)]

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 32_768])
    def test_one_column_file_skips_blank_lines(self, chunk_rows):
        # With one field per line, a blank line has the header's field count.
        assert_same_as_reference("sessions.csv", "session_id\r\ns1\r\n\r\ns2\n\ns3", chunk_rows)

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 32_768])
    @pytest.mark.parametrize("before", [
        "", reading_line(0, sid='"s1"'), reading_line(0)[:-1], "\r\n",
    ], ids=["plain", "quote", "bare-cr", "blank"])
    def test_invalid_utf8_names_its_line(self, tmp_path, chunk_rows, before):
        # Each prefix adds one line as the csv module counts them.
        rows = [reading_line(k) for k in range(1, 5)]
        rows[3] = rows[3].replace("16.0", "1\udcff6.0")
        path = tmp_path / "timeseries.csv"
        path.write_bytes((HEADER + before + "".join(rows)).encode("utf-8", "surrogateescape"))
        line = 1 + (before != "") + 4
        with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
            with pytest.raises(ParseError) as info:
                parse_timeseries(path)
        assert str(info.value) == f"{path}:{line}: not valid UTF-8: b'\\xff' (invalid start byte)"


def run_lines(rows) -> str:
    """A time-series CSV of (session id, minute, current) rows; a str row is
    a line as it stands."""
    return HEADER + "".join(row if isinstance(row, str) else reading_line(row[1], *row[::2])
                            for row in rows)


def as_jsonl(text: str) -> str:
    """The rows of a CSV with no quoted fields as JSON lines, "" as absent."""
    lines = text.splitlines()[1:]
    return "".join(json.dumps({k: v for k, v in zip(TIMESERIES_COLUMNS, line.split(",")) if v})
                   + "\n" for line in lines)


# Each file's session runs, with the index and order the reference gives.
SESSION_RUNS = {
    # A, B, A: the third run extends session A, across block boundaries.
    "a-b-a": run_lines([("A", k, "16.0") for k in range(3)] + [("B", k, "8.0") for k in range(3)]
                       + [("A", k, "16.0") for k in range(3, 6)]),
    "alternating": run_lines([(sid, k, "16.0") for k in range(4) for sid in ("A", "B")]),
    # The second row is another timestamp form, which the per-row rules read.
    "rescued": run_lines([("A", 0, "16.0"), "A,2019-01-07T08:31:00+00:00,16.0,32.0\r\n",
                          ("A", 2, "16.0"), ("B", 0, "8.0")]),
    # B's first row is invalid, so B ranks after A, from its second row.
    "invalid first": run_lines([("B", 0, "abc"), ("A", 0, "16.0"), ("B", 1, "8.0"),
                                ("A", 1, "16.0")]),
    "empty id": run_lines([("A", 0, "16.0"), ("", 1, "16.0"), ("A", 2, "16.0"),
                           ("B", 0, "8.0"), ("", 1, "8.0")]),
}


class TestSessionRuns:
    @pytest.mark.parametrize("chunk_rows", [1, 2, 32_768])
    @pytest.mark.parametrize("name", sorted(SESSION_RUNS))
    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_codes_per_run_match_reference(self, name, suffix, chunk_rows):
        text = SESSION_RUNS[name]
        if suffix == ".jsonl":
            text = as_jsonl(text)
        assert_same_as_reference(f"timeseries{suffix}", text, chunk_rows)

    def test_index_order_is_first_valid_row(self, tmp_path):
        path = tmp_path / "timeseries.csv"
        path.write_text(SESSION_RUNS["invalid first"], newline="")
        parsed = parse_timeseries(path)
        assert list(parsed.index) == ["A", "B"]
        assert [len(s) for s in parsed.index.values()] == [2, 1]


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


# Ids that need CSV quoting, non-ASCII ids, NUL bytes (the last at the end,
# which a byte array drops) and an id long enough to shorten the blocks.
WRITER_IDS = [
    "s1", "ST000-0001", "a,b", 'q"t', "two\nlines", "cr\rid", "é", "站-7", " ", "a\0", "\0",
    "x" * 300,
]
# NaN, signed zeros, the smallest subnormal and reprs with an exponent.
writer_values = st.one_of(
    st.sampled_from([math.nan, -0.0, 0.0, 5e-324, 1e16, -1e16, 1e-7, 16.0, 31.5]),
    st.floats(allow_infinity=False),
)


@st.composite
def writable_series(draw):
    """A series of 0-8 readings in years 1-9999; now and then an all-NaN
    column, and runs of repeated values."""
    n = draw(st.integers(0, 8))
    t = sorted(draw(st.sets(
        st.one_of(st.integers(FIRST_SECOND, LAST_SECOND), st.integers(-86_400, 86_400)),
        min_size=n, max_size=n,
    )))

    def column():
        if draw(st.integers(0, 4)) == 0:
            return [math.nan] * n
        pool = draw(st.lists(writer_values, min_size=1, max_size=3))
        return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))

    current, pilot = column(), column()
    pilot = [0.0 if c != c and p != p else p for c, p in zip(current, pilot)]
    return SessionSeries(t, current, pilot)


def written(write, suffix: str, index, chunk_rows: int = ingest._CHUNK_ROWS) -> bytes:
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
        path = Path(tmp) / f"timeseries{suffix}"
        write(path, index)
        return path.read_bytes()


class TestWriterOracle:
    @settings(max_examples=100, deadline=None)
    @given(
        index=st.dictionaries(
            st.one_of(st.sampled_from(WRITER_IDS), session_ids), writable_series(), max_size=5
        ),
        suffix=st.sampled_from([".csv", ".jsonl"]),
        chunk_rows=chunk_sizes,
    )
    def test_bytes_match_reference(self, index, suffix, chunk_rows):
        expected = written(ingest_reference.write_timeseries, suffix, index)
        assert written(write_timeseries, suffix, index, chunk_rows) == expected

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 32_768])
    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_named_cases_match_reference(self, suffix, chunk_rows):
        values = [0.0, -0.0, -0.0, 0.0, math.nan, 5e-324, 1e16, 1e16, -1e16]
        series = SessionSeries(range(0, 540, 60), values, [32.0] * len(values))
        all_nan = SessionSeries([0, 60], [math.nan] * 2, [16.0, 16.0])
        empty = SessionSeries([], [], [])
        for index in (
            {sid: series for sid in WRITER_IDS},
            {"a": all_nan, "b": empty, "a\0": series, "c": empty},
            {"s1": empty},
            {},
        ):
            assert written(write_timeseries, suffix, index, chunk_rows) == written(
                ingest_reference.write_timeseries, suffix, index
            )
        assert written(write_timeseries, ".csv", {}) == b"session_id,timestamp,current_a,pilot_a\r\n"

    def test_timestamps_match_datetime_as_string(self):
        edges = [
            datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59),
            datetime(1600, 2, 29), datetime(1600, 2, 29, 23, 59, 59), datetime(1600, 3, 1),
            datetime(1900, 2, 28, 23, 59, 59), datetime(1900, 3, 1),
            datetime(2000, 2, 29), datetime(2000, 2, 29, 23, 59, 59),
            datetime(1969, 12, 31, 23, 59, 59), datetime(1969, 12, 31), datetime(1970, 1, 1),
            datetime(1, 2, 28, 23, 59, 59), datetime(1, 3, 1), datetime(400, 2, 29),
        ]
        t = np.concatenate([
            [epoch_seconds(d.replace(tzinfo=timezone.utc)) for d in edges],
            np.arange(-100_000, 100_000, 997),  # seconds on each side of 1970
            np.random.default_rng(0).integers(FIRST_SECOND, LAST_SECOND + 1, 10**6),
        ])
        assert t.min() == FIRST_SECOND and t.max() == LAST_SECOND
        expected = np.datetime_as_string(t.astype("datetime64[s]"), timezone="UTC").astype("S20")
        assert np.array_equal(ingest._stamp_cells(t).view("S20").ravel(), expected)

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    @pytest.mark.parametrize("t, current, pilot", [
        (LAST_SECOND + 1, 16.0, 32.0),
        (FIRST_SECOND - 1, 16.0, math.nan),
        (0, math.inf, 32.0),
        (0, math.nan, -math.inf),
    ])
    def test_unparsable_values_are_refused(self, tmp_path, suffix, t, current, pilot):
        # Written, each would parse to 0 sessions and one issue per row.
        index = {"ok": make_series(current=16.0), "bad,id": SessionSeries([t], [current], [pilot])}
        path = tmp_path / f"timeseries{suffix}"
        with pytest.raises(ValueError) as info:
            write_timeseries(path, index)
        assert str(info.value) == (
            f"cannot write session 'bad,id': t={t}, current_a={current!r}, pilot_a={pilot!r}"
            " (not in years 1-9999, or not finite)"
        )
        assert not path.exists()


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

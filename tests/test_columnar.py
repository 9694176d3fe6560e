"""The columnar time-series path against its oracles.

* The parsers are fuzzed against the per-row reference parsers in
  ingest_reference.py: same index (values, NaN positions and session order)
  or records, same issues, same counters, lenient and strict, across batch
  boundaries. One CSV strategy puts blank or short rows into nearly every
  file, so csv.reader reads them; the other writes mostly plain rows, which
  the byte tokenizer reads, with an occasional line that is not plain.
  Named files put issues, quotes, a bare CR, duplicates and new sessions in
  blocks far apart, and the first of a fault and a byte that is not UTF-8
  is the one a block-by-block read meets first.
* Session ids are looked up once per run of equal ids; interleaved ids,
  rescued rows, invalid first rows and empty ids inside a run still give the
  reference's index and order.
* Rows that arrive in (session, time) order skip the sort; shuffled rows,
  split sessions, duplicates across a block boundary and a late last row are
  sorted and merged, and all give the reference's result. Parsed series
  equal the checked constructor's.
* Under tracemalloc, a parse peaks under a small multiple of its result plus
  one block, and the writer's peak does not grow with the depot.
* The writer is fuzzed against the per-session reference writer: the same
  bytes, in both formats, across block boundaries. The sessions writer is
  fuzzed against the per-value one, and a clean sessions file is parsed
  without the per-row rules. Its timestamps equal
  numpy's datetime_as_string over the whole range of years 1-9999, and it
  refuses values its parser would reject. Writing then parsing any index
  gives it back. A synth whose time series is over 5 MB writes it in its
  own process, leaving no child, no open file and no temporary file, and a
  featurize parses a time series without its cache in its own process.
* Retention is idempotent, and the early window matches a brute-force scan
  with datetimes for any window length. Session times are whole epoch
  seconds, as the sessions writer and the window take them.
* Synth and featurize outputs of one small depot keep the digests they had
  before the columnar rewrite, and the two caches their first ones.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from datetime import datetime, timedelta, timezone
from itertools import islice
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ingest_reference
from conftest import make_series, uncached, utc
from fedcharge import csvio, ingest
from fedcharge.cli import dispatch
from fedcharge.ingest import (
    TIMESERIES_COLUMNS,
    ParseError,
    SyntheticDepotSpec,
    generate_synthetic,
    parse_sessions,
    parse_timeseries,
    write_timeseries,
)
from fedcharge.sessions import (
    DatasetConfig,
    SessionRecord,
    SessionSeries,
    early_window_bounds,
    parse_utc,
    retain_sessions,
)
from ingest_reference import EPOCH, FIRST_SECOND, LAST_SECOND, epoch_seconds, format_utc

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
        with mock.patch.object(csvio, "CHUNK_ROWS", chunk_rows):
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
        uncached(path)
        expected = ingest_reference.parse_timeseries(path)
        for chunk_rows in (1_000, 32_768):  # 1,356 rows: two blocks, then one
            with mock.patch.object(csvio, "CHUNK_ROWS", chunk_rows):
                parsed = parse_timeseries(path)
            assert parsed == expected
            assert list(parsed.index) == [s.session_id for s in sessions]


HEADER = ",".join(TIMESERIES_COLUMNS) + "\r\n"


def reading_line(k: int, sid: str = "s1", current: str = "16.0") -> str:
    return f"{sid},{format_utc(BASE + timedelta(minutes=k))},{current},32.0\r\n"


def parse_utc_or_none(stamp: str) -> int | None:
    try:
        return parse_utc(stamp)
    except ValueError:
        return None


class TestCanonicalSeconds:
    """Every field in the form's digits, in range or one past it: the
    arithmetic gives parse_utc's seconds, and the stamps it leaves to
    parse_utc are the ones parse_utc rejects."""

    EDGES = ["1900-02-29T00:00:00Z", "2100-02-29T00:00:00Z", "2000-02-29T23:59:59Z",
             "1600-02-29T00:00:00Z", "2019-02-29T00:00:00Z", "2020-02-29T00:00:00Z",
             "2019-04-31T00:00:00Z", "2019-12-31T23:59:59Z", "0001-01-01T00:00:00Z",
             "9999-12-31T23:59:59Z", "0000-12-31T00:00:00Z", "2019-00-10T00:00:00Z",
             "2019-01-00T00:00:00Z", "2019-01-07T24:00:00Z", "1969-12-31T23:59:59Z"]

    @staticmethod
    def assert_matches_parse_utc(stamps: list[str]):
        seconds, odd = ingest._canonical_seconds(np.array(stamps, dtype="S20"))
        for stamp, t, left in zip(stamps, seconds.tolist(), odd.tolist()):
            assert (None if left else t) == parse_utc_or_none(stamp), stamp

    def test_edges(self):
        self.assert_matches_parse_utc(self.EDGES)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32),
                              st.integers(0, 24), st.integers(0, 59), st.integers(0, 59)),
                    min_size=1, max_size=50))
    def test_fields_in_range_or_one_past(self, fields):
        self.assert_matches_parse_utc(["%04d-%02d-%02dT%02d:%02d:%02dZ" % f for f in fields])


class TestTokenizer:
    def test_byte_arrays_until_csv_reader_is_needed(self, tmp_path):
        # Lines 2-3 are plain; line 4 is blank, so csv.reader reads lines 4-5;
        # line 7 holds a quote, so csv.reader reads from line 6 to the end.
        rows = [reading_line(k) for k in range(10)]
        rows[2] = "\r\n"
        rows[5] = reading_line(5, current='"16.0"')
        path = tmp_path / "timeseries.csv"
        path.write_text(HEADER + "".join(rows), encoding="utf-8", newline="")
        with mock.patch.object(csvio, "CHUNK_ROWS", 2):
            chunks = [
                (list(lines), type(cells[0]).__name__)
                for lines, cells, _, _ in ingest._read_chunks(path, TIMESERIES_COLUMNS, [])
            ]
        assert chunks == [
            ([2, 3], "ndarray"), ([5], "list"),
            ([6, 7], "list"), ([8, 9], "list"), ([10, 11], "list"),
        ]

    def test_bare_cr_lines_are_cut_into_blocks(self, tmp_path):
        # A bare CR ends a line, so a file with no \n still comes in blocks
        # of CHUNK_ROWS lines, each one read by csv.reader on its own.
        rows = [reading_line(k).replace("\r\n", "\r") for k in range(5)]
        path = tmp_path / "timeseries.csv"
        path.write_text(HEADER.replace("\r\n", "\r") + "".join(rows), encoding="utf-8", newline="")
        blocks = []

        def reader_chunks(file, chunk_blocks, picks, columns):
            chunk_blocks = list(chunk_blocks)
            blocks.extend(raw for _, raw, _ in chunk_blocks)
            return reader(file, chunk_blocks, picks, columns)

        reader = csvio._reader_chunks
        with (
            mock.patch.object(csvio, "CHUNK_ROWS", 2),
            mock.patch.object(csvio, "_reader_chunks", reader_chunks),
        ):
            lines = [list(lines) for lines, *_ in ingest._read_chunks(path, TIMESERIES_COLUMNS, [])]
        assert lines == [[2, 3], [4, 5], [6]]
        assert blocks == [("".join(rows[k : k + 2])).encode() for k in (0, 2, 4)]

    def test_fullwidth_digit_in_one_plain_block(self, tmp_path):
        # float(str) reads fullwidth digits and float(bytes) does not: the
        # block holding one is decoded, the ASCII block beside it is not.
        rows = [reading_line(k) for k in range(4)]
        rows[1] = reading_line(1, current="\uff11\uff16.5")
        path = tmp_path / "timeseries.csv"
        path.write_text(HEADER + "".join(rows), encoding="utf-8", newline="")
        with mock.patch.object(csvio, "CHUNK_ROWS", 2):
            chunks = list(ingest._read_chunks(path, TIMESERIES_COLUMNS, []))
            parsed = parse_timeseries(path)
        assert [type(cells[2]).__name__ for _, cells, _, _ in chunks] == ["ndarray", "ndarray"]
        assert parsed.index["s1"].current.tolist() == [16.0, 16.5, 16.0, 16.0]
        assert_same_as_reference("timeseries.csv", HEADER + "".join(rows), 2)

    def test_float_column_of_bytes_matches_text(self):
        cells = [b"1.5", b"", b" -2e3 ", b"inf", b"nan", b"1_0", b"x", "\uff11".encode()]
        for column in (np.array(cells[:-1]), np.array(cells)):  # ASCII, then not
            values, bad = ingest.float_column(column, "")
            expected = ingest.float_column(csvio.texts(column), "")
            assert values.tobytes() == expected[0].tobytes()
            assert bad.tolist() == expected[1].tolist()
        assert values[-1] == 1.0 and bad.tolist() == [False] * 3 + [True, True, False, True, False]

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 32_768])
    def test_one_column_file_skips_blank_lines(self, tmp_path, chunk_rows):
        # With one field per line, a blank line has the header's field count.
        path = tmp_path / "sessions.csv"
        path.write_bytes(b"session_id\r\ns1\r\n\r\ns2\n\ns3")
        with mock.patch.object(csvio, "CHUNK_ROWS", chunk_rows):
            rows = csvio.Reader(path).rows(["session_id"])
            assert next(rows) == ["session_id"]
            ours = [(line, sid) for lines, (cells,), _ in rows
                    for line, sid in zip(lines, csvio.texts(cells))]
        assert ours == [(line, row["session_id"]) for line, row in ingest_reference.iter_rows(path)]
        assert ours == [(2, "s1"), (4, "s2"), (6, "s3")]

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
        with mock.patch.object(csvio, "CHUNK_ROWS", chunk_rows):
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


def ordered_rows(n: int) -> list:
    """n rows of sessions A-D in turn, each session's minutes increasing; row
    i reads current i, so a merge shows which duplicate won."""
    return [("ABCD"[4 * i // n], i, f"{i}.0") for i in range(n)]


def order_case(name: str, chunk_rows: int) -> str:
    """A file of more rows than one block holds, for the in-order check."""
    rows = ordered_rows(max(24, chunk_rows + 8))
    if name == "shuffled":
        rows = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
    elif name == "split session":  # A's last rows come after B's
        rows = rows[: len(rows) // 8] + rows[len(rows) // 4 : len(rows) // 2] + rows[len(rows) // 8 :]
        rows = list(dict.fromkeys(rows))
    elif name == "duplicate across blocks":  # the last row of block 1 and the first of block 2
        rows[chunk_rows] = rows[chunk_rows - 1][:2] + ("-1.0",)
    elif name == "last row back in time":
        rows.append((rows[-1][0], rows[-1][1] - 1.5, "-2.0"))
    return run_lines(rows)


class TestInOrderCheck:
    """Rows that arrive in (session, time) order skip the sort; any other
    file is sorted and merged, and both give the reference's result."""

    @pytest.mark.parametrize("chunk_rows", [1, 2, 8192])
    @pytest.mark.parametrize("name", ["in order", "shuffled", "split session",
                                      "duplicate across blocks", "last row back in time"])
    def test_matches_reference(self, name, chunk_rows):
        with mock.patch.object(ingest.np, "lexsort", wraps=np.lexsort) as lexsort:
            assert_same_as_reference("timeseries.csv", order_case(name, chunk_rows), chunk_rows)
        assert lexsort.called == (name != "in order")

    @pytest.mark.parametrize("name", ["in order", "shuffled"])
    def test_jsonl_matches_reference(self, name):
        assert_same_as_reference("timeseries.jsonl", as_jsonl(order_case(name, 2)), 2)


N_NAMED = 40


def named_case(name: str) -> str:
    """N_NAMED readings of sessions A, B and C in order, with a row or two
    changed near the start, near the end or both, so that what the case
    names falls in blocks far apart at 1 or 2 lines a block and in one block
    at 8,192."""
    n = N_NAMED
    rows: list = [("ABC"[3 * i // n], i, f"{i}.0") for i in range(n)]
    if name == "issues near both ends":  # strict mode stops at the first
        rows[3] = ("A", 3, "abc")
        rows[n - 4] = "C,not-a-time,1.0,32.0\r\n"
    elif name == "stamps outside years 1-9999 near both ends":  # in UTC, once offset
        rows[3] = "A,0001-01-01T00:00:00+01:00,3.0,32.0\r\n"
        rows[n - 4] = "C,9999-12-31T23:59:59-01:00,36.0,32.0\r\n"
    elif name == "quote near the start":  # csv.reader reads from its block on
        rows[3] = ("A", 3, '"3.0"')
    elif name == "quote near the end":
        rows[n - 4] = ("C", n - 4, '"36.0"')
    elif name == "bare cr near the start":  # a line end that no \n counts
        rows[3] = reading_line(3, "A", "3.0").replace("\r\n", "\r")
    elif name == "duplicates far apart":  # the later row wins
        rows += [("A", 2, "-2.0"), ("B", 14, "-14.0")]
    elif name == "a row far out of order":
        rows.insert(n - 2, ("A", -5, "-5.0"))
    elif name == "new sessions near both ends":
        rows[n - 3], rows[2] = ("Y", 0, "1.0"), ("Z", 0, "1.0")
        rows.insert(n - 1, ("Z", 1, "2.0"))
    elif name == "no valid row in the first two thirds":  # B ranks first
        rows = [(sid, i, "abc" if i < 2 * n // 3 else current) for sid, i, current in rows]
        rows.append(("D", 0, "1.0"))
    elif name == "a session that comes back":  # A, B, then A again
        rows = [("ABA"[3 * i // n], i, current) for _, i, current in rows]
    return run_lines(rows)


NAMED_CASES = ["in order", "issues near both ends", "quote near the start",
               "quote near the end", "bare cr near the start", "duplicates far apart",
               "a row far out of order", "new sessions near both ends",
               "no valid row in the first two thirds", "a session that comes back",
               "stamps outside years 1-9999 near both ends"]


class TestNamedCases:
    """Named files against the reference, lenient and strict, at 1, 2 and
    8,192 lines a block; and the first of two faults, in one block or two,
    when the reference cannot read the file."""

    @pytest.mark.parametrize("chunk_rows", [1, 2, 8192])
    @pytest.mark.parametrize("name", NAMED_CASES)
    def test_matches_reference(self, name, chunk_rows):
        assert_same_as_reference("timeseries.csv", named_case(name), chunk_rows)

    def test_cases_place_their_rows_as_named(self, tmp_path):
        path = tmp_path / "timeseries.csv"

        def parsed(name: str):
            path.write_text(named_case(name), newline="")
            return parse_timeseries(path)

        assert [line for line, _ in parsed("issues near both ends").issues] == [5, N_NAMED - 2]
        lenient = parsed("no valid row in the first two thirds")
        assert [line for line, _ in lenient.issues] == list(range(2, 2 + 2 * N_NAMED // 3))
        assert list(lenient.index) == ["B", "C", "D"]
        assert list(parsed("a session that comes back").index) == ["A", "B"]

    @pytest.mark.parametrize("where", ["end of a block", "start of the next block"])
    def test_a_quote_at_a_block_edge(self, where):
        """At 2 lines a block, line 22 starts a block: a quote ends line 21
        or starts line 22, and csv.reader reads from its block on."""
        lines = named_case("in order").splitlines(True)
        edge = len("".join(lines[:21]))
        at = {"end of a block": edge - 3, "start of the next block": edge}[where]
        text = "".join(lines)
        assert_same_as_reference("timeseries.csv", text[:at] + '"' + text[at + 1 :], 2)

    @pytest.mark.parametrize("chunk_rows", [1, 2, 8192])
    @pytest.mark.parametrize("bad, line", [([5], 5), ([N_NAMED - 2], N_NAMED - 2),
                                           ([5, N_NAMED - 2], 5)],
                             ids=["line 5", "line 38", "lines 5 and 38"])
    def test_bytes_not_utf8_name_the_first_line(self, tmp_path, bad, line, chunk_rows):
        lines = named_case("in order").encode().splitlines(True)
        for k in bad:
            lines[k - 1] = lines[k - 1].replace(b"32.0", b"3\xff2.0")
        path = tmp_path / "timeseries.csv"
        path.write_bytes(b"".join(lines))
        with mock.patch.object(csvio, "CHUNK_ROWS", chunk_rows):
            for strict in (False, True):
                with pytest.raises(ParseError) as info:
                    parse_timeseries(path, strict=strict)
                assert str(info.value) == \
                    f"{path}:{line}: not valid UTF-8: b'\\xff' (invalid start byte)"

    @pytest.mark.parametrize("chunk_rows, first", [(2, "fault"), (4, "byte"), (8192, "byte")])
    def test_a_fault_and_a_bad_byte(self, tmp_path, chunk_rows, first):
        """`abc` on line 23 and a byte that is not UTF-8 on line 24. A block's
        bytes are checked before its rows are converted, so where one block
        holds both lines (lines 22-25 at 4 a block) the byte stops a strict
        parse first; at 2 lines a block the fault's block comes first."""
        lines = named_case("in order").encode().splitlines(True)
        lines[22] = lines[22].replace(b"32.0", b"abc")
        lines[23] = lines[23].replace(b"32.0", b"3\xff2.0")
        path = tmp_path / "timeseries.csv"
        path.write_bytes(b"".join(lines))
        byte = f"{path}:24: not valid UTF-8: b'\\xff' (invalid start byte)"
        fault = f"{path}:23: could not convert string to float: 'abc'"
        with mock.patch.object(csvio, "CHUNK_ROWS", chunk_rows):
            for strict in (False, True):
                with pytest.raises(ParseError) as info:
                    parse_timeseries(path, strict=strict)
                assert str(info.value) == (fault if strict and first == "fault" else byte)


class TestCheckedSeries:
    @settings(max_examples=60, deadline=None)
    @given(text=csv_files(TIMESERIES_CELLS), chunk_rows=chunk_sizes)
    def test_parsed_series_pass_the_checked_constructor(self, text, chunk_rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "timeseries.csv"
            path.write_text(text, encoding="utf-8", newline="")
            with mock.patch.object(csvio, "CHUNK_ROWS", chunk_rows):
                parsed = parse_timeseries(path)
        for s in parsed.index.values():
            checked = SessionSeries(s.t, s.current, s.pilot)
            assert s == checked
            for name in ("t", "current", "pilot"):
                column = getattr(s, name)
                assert column.dtype == getattr(checked, name).dtype and column.ndim == 1
                assert not column.flags.writeable


def traced(fn, *args):
    """(result, peak bytes, bytes still held) of fn(*args) under tracemalloc.
    One untraced call comes first, so lazy imports and caches do not count."""
    fn(*args)
    tracemalloc.start()
    try:
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, held


def synthetic_index(n_stations: int) -> dict[str, SessionSeries]:
    """About 12,000 readings per station, 100 sessions each."""
    spec = SyntheticDepotSpec(n_stations=n_stations, sessions_per_station=(100, 100), seed=3)
    return generate_synthetic(spec)[1]


class TestMemoryBound:
    # A parse holds its rows' pieces and builds one column at a time: in
    # order, it peaks near 1.5 times its arrays. A shuffled file adds the
    # sort's order and one sorted column. Both stay under twice the result.
    @pytest.mark.parametrize("chunk_rows", [1024, csvio.CHUNK_ROWS])
    @pytest.mark.parametrize("shuffled, factor", [(False, 1.25), (True, 1.75)])
    def test_parse_peaks_under_its_result_plus_one_block(self, tmp_path, chunk_rows,
                                                          shuffled, factor):
        depot, block = tmp_path / "timeseries.csv", tmp_path / "block.csv"
        write_timeseries(depot, synthetic_index(4))
        uncached(depot)
        if shuffled:
            header, *rows = depot.read_text().splitlines(True)
            order = np.random.default_rng(0).permutation(len(rows))
            depot.write_text(header + "".join(rows[i] for i in order))
        with open(depot, newline="") as fh:
            block.write_text("".join(islice(fh, 1 + chunk_rows)), newline="")
        with mock.patch.object(csvio, "CHUNK_ROWS", chunk_rows):
            _, one_block, _ = traced(parse_timeseries, block)
            parsed, peak, held = traced(parse_timeseries, depot)
        assert sum(map(len, parsed.index.values())) > 4 * chunk_rows
        assert peak <= factor * held + one_block

    def test_write_peak_does_not_grow_with_the_depot(self, tmp_path):
        path = tmp_path / "timeseries.csv"
        small, large = (traced(write_timeseries, path, synthetic_index(n))[1] for n in (2, 4))
        # The large depot has 200 more sessions and about 24,000 more rows;
        # only a few words of bookkeeping per session may add to the peak.
        assert large - small <= 256 * 200


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
        """Read from the cache and parsed alike."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"timeseries{suffix}"
            write_timeseries(path, index)
            results = [parse_timeseries(path, strict=True),
                       parse_timeseries(uncached(path), strict=True)]
        for parsed in results:
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


def written(write, suffix: str, index, chunk_rows: int = csvio.CHUNK_ROWS) -> bytes:
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(csvio, "CHUNK_ROWS", chunk_rows):
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

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_an_empty_session_id_is_refused(self, tmp_path, suffix):
        # Written, each of its rows would parse to the issue "session_id is required".
        path = tmp_path / f"timeseries{suffix}"
        with pytest.raises(ValueError) as info:
            write_timeseries(path, {"ok": make_series(), "": make_series()})
        assert str(info.value) == "cannot write session '': session_id is required"
        assert not path.exists()


# `python -m fedcharge ARGS` at CHUNK_ROWS lines a block, then a report on
# stderr: whether a child process is left, how many file descriptors are still
# open in the output directory, and which modules that a forked or spooled
# write or parse would need the run loaded (site may load tempfile before the
# run starts).
LEFT_BEHIND = r"""
import os, runpy, sys
out, code = os.path.realpath(sys.argv[-1]), 0
before = set(sys.modules)
from fedcharge import csvio
csvio.CHUNK_ROWS = int(sys.argv[1])
sys.argv = ["fedcharge", *sys.argv[2:]]
try:
    runpy.run_module("fedcharge", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
try:
    os.waitpid(-1, os.WNOHANG)
    left = "a child is left"
except ChildProcessError:
    left = "no child is left"
def target(fd):  # the fd that listed the directory is gone by now
    try:
        return os.readlink(f"/proc/self/fd/{fd}")
    except FileNotFoundError:
        return ""
open_there = [fd for fd in os.listdir("/proc/self/fd") if target(fd).startswith(out + os.sep)]
loaded = sorted({"multiprocessing", "fedcharge.pool", "tempfile"} & set(sys.modules) - before)
print(f"{left}, {len(open_there)} open in the output, loaded {loaded}", file=sys.stderr)
sys.exit(code)
"""


def left_behind(chunk_rows: int, *argv: str) -> subprocess.CompletedProcess:
    """LEFT_BEHIND run on argv, whose last item is the output directory."""
    src = str(Path(ingest.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", LEFT_BEHIND, str(chunk_rows), *argv], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open files by /proc")
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_synth_leaves_no_child_or_temporary_file_behind(tmp_path, fmt):
    """A time-series file of over 5 MB is written in the synth process, a
    block at a time: no worker, no temporary file."""
    out = tmp_path / "depot"
    proc = left_behind(csvio.CHUNK_ROWS, "synth", "--seed", "3", "--stations", "10",
                       "--sessions-per-station", "80:100", "--format", fmt, "--out", str(out))
    assert (proc.returncode, proc.stderr) == (
        0, "no child is left, 0 open in the output, loaded []\n")
    assert sorted(os.listdir(out)) == ["config.json", f"sessions.{fmt}", f"timeseries.{fmt}",
                                       *[f"timeseries.{fmt}.cache"] * (fmt == "csv")]
    assert (out / f"timeseries.{fmt}").stat().st_size > 6_000_000


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open files by /proc")
@pytest.mark.parametrize("strict", [False, True])
def test_featurize_leaves_no_child_behind(tmp_path, strict):
    """A time-series file without its cache is parsed in the featurize
    process, a block of 64 lines at a time, lenient or strict: no worker,
    and neither multiprocessing nor the pool loaded."""
    depot = tmp_path / "depot"
    assert dispatch(["synth", "--seed", "3", "--stations", "2", "--sessions-per-station", "3:3",
                     "--out", str(depot)]) == 0
    series = uncached(depot / "timeseries.csv")
    assert series.read_bytes().count(b"\n") > 4 * 64
    if strict:  # a bad row on the last line
        series.write_bytes(series.read_bytes() + b"x,not-a-time,1.0,32.0\r\n")
    proc = left_behind(64, "featurize", "--in", str(depot), *["--strict"] * strict,
                       "--out", str(tmp_path / "features"))
    assert proc.returncode == strict
    assert proc.stderr.endswith("no child is left, 0 open in the output, loaded []\n")
    if strict:
        assert "not-a-time" in proc.stderr


# Session ids that need quoting; times in any year, the first and last
# seconds included; energies None, NaN (written nan), inf, -0.0 and ints
# (written as ints).
SESSION_WRITER_IDS = ["s1", "a,b", 'q"t', "two\nlines", "é", " ", "", "x" * 300]
anytime = st.one_of(st.integers(FIRST_SECOND, LAST_SECOND),
                    st.sampled_from([FIRST_SECOND, 0, -1, LAST_SECOND]))
energies = st.one_of(st.none(), st.floats(min_value=0.0), st.sampled_from(
    [math.nan, -0.0, math.inf, 5e-324, 16.0, 7, np.float64(2.5)]))


@st.composite
def session_records(draw):
    conn = draw(anytime)
    later = st.integers(conn, min(conn + 9 * 86_400, LAST_SECOND))
    return SessionRecord(
        draw(st.sampled_from(SESSION_WRITER_IDS[:-2] + SESSION_WRITER_IDS[-1:])),
        draw(st.sampled_from(SESSION_WRITER_IDS)), draw(st.sampled_from(SESSION_WRITER_IDS)),
        conn, draw(st.one_of(st.none(), later)), draw(energies), draw(energies), draw(energies),
        draw(st.one_of(st.none(), later, anytime)),
    )


def written_sessions(write, suffix: str, records) -> bytes | str:
    """The bytes written, or the exception raised."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"sessions{suffix}"
        try:
            write(path, records)
        except (OverflowError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return path.read_bytes()


class TestSessionColumns:
    @settings(max_examples=200, deadline=None)
    @given(records=st.lists(session_records(), max_size=8),
           suffix=st.sampled_from([".csv", ".jsonl"]))
    def test_writer_bytes_match_reference(self, records, suffix):
        assert written_sessions(ingest.write_sessions, suffix, records) == \
            written_sessions(ingest_reference.write_sessions, suffix, records)

    def test_named_records_match_reference(self):
        t0 = utc(2019, 1, 7, 16, 30)
        records = [
            SessionRecord("s1", "SYN", "ST1", t0),
            SessionRecord('q"t', "a,b", "two\nlines", t0, t0, math.nan, None, -0.0,
                          utc(2019, 1, 7, 9)),
            SessionRecord("s3", "SYN", "ST1", FIRST_SECOND, None, 3.5, 1e16, 5e-324, LAST_SECOND),
        ]
        written = written_sessions(ingest.write_sessions, ".csv", records)
        assert written == written_sessions(ingest_reference.write_sessions, ".csv", records)
        assert written.split(b"\r\n")[2:4] == [
            b'"q""t","a,b","two\nlines",2019-01-07T16:30:00Z,2019-01-07T16:30:00Z,nan,,-0.0,'
            b"2019-01-07T09:00:00Z",
            b"s3,SYN,ST1,0001-01-01T00:00:00Z,,3.5,1e+16,5e-324,9999-12-31T23:59:59Z"]

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    @pytest.mark.parametrize("field, t", [
        ("connection_time", LAST_SECOND + 1), ("disconnect_time", LAST_SECOND + 1),
        ("requested_departure", FIRST_SECOND - 1), ("requested_departure", 10**30)])
    def test_a_time_outside_the_years_is_refused(self, tmp_path, suffix, field, t):
        """Written, such a time would parse to an issue, not to the session."""
        times = {"connection_time": 0, field: t}
        records = [SessionRecord("ok", "SYN", "ST1", 0),
                   SessionRecord("bad,id", "SYN", "ST1", **times)]
        path = tmp_path / f"sessions{suffix}"
        with pytest.raises(ValueError) as info:
            ingest.write_sessions(path, records)
        assert str(info.value) == \
            f"cannot write session 'bad,id': {field}={t} is not in years 1-9999"
        assert not path.exists()
        assert written_sessions(ingest_reference.write_sessions, suffix, records) == \
            f"ValueError: {info.value}"

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_a_clean_file_never_reaches_the_row_rules(self, tmp_path, suffix):
        """Every row of a synthetic depot is converted by the columns."""
        sessions, _ = generate_synthetic(SyntheticDepotSpec(n_stations=3, seed=5))
        path = tmp_path / f"sessions{suffix}"
        ingest.write_sessions(path, sessions)
        with mock.patch.object(ingest, "_row", side_effect=AssertionError("per-row rules")):
            parsed = parse_sessions(path, strict=True)
        assert parsed == ingest_reference.parse_sessions(path)
        assert parsed.records == sessions and not parsed.issues


@st.composite
def depots(draw):
    sessions, series = [], {}
    for k in range(draw(st.integers(0, 8))):
        sid = f"s{k}"
        conn = epoch_seconds(BASE) + draw(st.integers(0, 120))
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
        shift_s=st.integers(0, 2),
        minutes=st.floats(1e-7, 40.0),
    )
    def test_early_window_matches_a_datetime_scan(self, offsets, shift_s, minutes):
        conn = BASE + timedelta(seconds=shift_s)
        series = make_series(offsets_s=sorted(offsets), current=16.0)
        session = SessionRecord("s1", "x", "ST1", epoch_seconds(conn), delivered_energy_kwh=1.0)
        end = conn + timedelta(minutes=minutes)
        inside = [
            i for i, t in enumerate(series.t.tolist())
            if conn <= EPOCH + timedelta(seconds=t) <= end
        ]
        lo, hi = early_window_bounds(session, series, DatasetConfig(early_window_minutes=minutes))
        assert list(range(lo, hi)) == inside
        assert lo == sum(EPOCH + timedelta(seconds=t) < conn for t in series.t.tolist())


# sha256 of the synth and featurize outputs for `synth --seed 11 --stations 4
# --sessions-per-station 6:9`, as written by the per-sample implementation
# (features.csv.cache and timeseries.csv.cache, which came later, as first
# written).
PINNED = {
    "csv": {
        "depot/sessions.csv": "9fc23330c72de7b0064467ac28f126c140990cb1497677fd820bc6a270c73afa",
        "depot/timeseries.csv": "e56840f3a60b615eb119b8afcb2ca645e325291f4280d963291042f44b7d5b9c",
        "feats/features.csv": "7e6e82f5b2c8763ab5c0197043dacd314e56798ca830207d1f6e4acde56dfc05",
        "feats/features.csv.cache": "c25c091a899213b0439acd85b713ba64c2c34e8bbe7ecf7e93adf56b349ef20e",
        "depot/timeseries.csv.cache":
            "56d5596afe91f13b9067cadfbae564e03a9bee6604ed66f3d29b689bd54f030c",
    },
    "jsonl": {
        "depot/sessions.jsonl": "5f75e70d607a60a7296c418a2baf8a7e7d260ba8573023b14ce0a70ada3fca89",
        "depot/timeseries.jsonl": "d8b15d1d7d5fcf1663f46aa1c7e6729f2b5ad61ccb186bede9b4e27acb0c5c81",
        "feats/features.csv": "7e6e82f5b2c8763ab5c0197043dacd314e56798ca830207d1f6e4acde56dfc05",
        "feats/features.csv.cache": "c25c091a899213b0439acd85b713ba64c2c34e8bbe7ecf7e93adf56b349ef20e",
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

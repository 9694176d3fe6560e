r"""File ingestion.

Two interchangeable on-disk formats carry the same field names: CSV with a
header row, and JSON lines with one object per line. An empty CSV cell or a
JSON null means the field is absent.

sessions files:   session_id,site_id,station_id,connection_time,
                  disconnect_time,delivered_energy_kwh,requested_energy_kwh,
                  available_minutes,requested_departure
timeseries files: session_id,timestamp,current_a,pilot_a

Timestamps are ISO-8601 UTC (YYYY-MM-DDTHH:MM:SSZ). Parsing is lenient by
default: malformed rows are skipped and reported with their line number;
strict mode aborts on the first bad row. Bytes that are not UTF-8, and a CSV
field over csv.field_size_limit(), abort in either mode, naming their line.
Files are read and CSV files written through csvio.

Converting. The same column converters take byte arrays and the lists that
csv.reader and JSON give, for sessions and readings alike. Every time
becomes int UTC epoch seconds, the type of SessionRecord's times and of
SessionSeries.t, and both writers format it back by _stamp_cells. Canonical
timestamps are checked on their bytes, fields in range, and their seconds
computed by arithmetic on the digits. float() runs on each numeric cell, on
its bytes when the column is ASCII and on its decoded text otherwise. A
reading's session id is decoded and looked up once per run of equal
adjacent ids, which is how a time-series file lays out its sessions. A row
the columns cannot vouch for goes through the per-row rules (_session,
_reading, _get_float, parse_utc), in row order, which also give its
line-numbered issue.

Two cores. A CSV time-series file of at least _SPLIT_BYTES is cut at the
first start of a serial read's block after _FRONT_SHARE of its bytes,
unless a quote comes before that: only such a quote can open a field that
runs on past the cut, so the file is read for one before anything is
forked, and a file with one is parsed serially. One routine,
_convert_range, converts the whole file in a serial parse and each half in
a split one: the back in a worker started by pool.start_job, the front
here. The back's line numbers are shifted by the front's lines and its
session codes mapped onto the front's, so the result, issues and first
error are a serial parse's. Each half reads the blocks a serial parse
reads, so a byte that is not UTF-8 stops a parse before the rows of its
block are converted, split or not. JSON lines stay serial. The time-series
writer splits too, in either format: rows whose estimated bytes come to at
least _SPLIT_WRITE_BYTES are cut at their middle row, a worker formats the
back half into an unnamed temporary file beside the output, and this
process appends it after the front. Every check of the writer's input runs
before the fork. A file whose worker pool.start_job cannot fork is parsed
or written serially, with the same result.

Memory. A time-series parse holds one block and each column's pieces; they
are joined a column at a time, so its peak stays under twice its result plus
one block. A worker's pieces reach the parent as arrays of their own, with
no second copy. When every row's (session, time) key is above the row
before's, as synth and ingest write files, the rows are grouped and distinct
already, and the sort and merge are skipped. The writer holds one block of
rows, and so does its worker: the back half crosses no pipe and is copied
from file to file in the kernel (os.copy_file_range), or through a 1 MB
buffer where that fails.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import ExitStack, nullcontext, suppress
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import csvio
from .csvio import ParseError, csv_text
from .sessions import (  # cli, bench/ and tests take the synthetic depot from here
    TIME_FIELDS,
    SessionRecord,
    SessionSeries,
    SyntheticDepotSpec,
    generate_synthetic,
    parse_utc,
)

SESSION_COLUMNS = [f.name for f in fields(SessionRecord)]
TIMESERIES_COLUMNS = ["session_id", "timestamp", "current_a", "pilot_a"]
SUFFIXES = (".csv", ".jsonl", ".ndjson", ".json")  # CSV, then the JSON-lines ones

# A CSV time-series file at least _SPLIT_BYTES long is parsed in two halves,
# and one whose rows write_timeseries estimates at _SPLIT_WRITE_BYTES or more
# is written in two, when this process can fork. Starting the worker (the
# fork, its pipes and reaping it) costs about 4 ms in a fresh process, which
# the second core wins back from about 2.1 MB of depot-style CSV on in a
# parse and from about 5 MB in a write: below, serial is as fast or faster
# (timed in fresh featurize and synth processes).
_SPLIT_BYTES = 2_100_000
_SPLIT_WRITE_BYTES = 5_000_000

_FRONT_SHARE = 0.47  # this process's share of a split file: it also forks and merges
_SCAN = 1 << 17  # bytes _split_at reads at a time: numpy's passes over them stay in cache

# Epoch seconds of 0001-01-01T00:00:00Z and 9999-12-31T23:59:59Z.
_FIRST_SECOND, _LAST_SECOND = -62_135_596_800, 253_402_300_799


@dataclass
class SessionParseResult:
    records: list[SessionRecord]
    issues: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class TimeSeriesParseResult:
    index: dict[str, SessionSeries]
    issues: list[tuple[int, str]] = field(default_factory=list)
    n_negative_clamped: int = 0
    n_duplicates_merged: int = 0


def _is_csv(path: Path) -> bool:
    """True for a CSV path, False for JSON lines; other suffixes are rejected."""
    suffix = path.suffix.lower()
    if suffix not in SUFFIXES:
        raise ValueError(f"unsupported file format: {path}")
    return suffix == ".csv"


def _read_chunks(path: Path, columns: list[str], reader: csvio.Reader | None = None):
    """Yield (lines, cells, absent, errors) per block of nonblank rows, in file
    order, of the range that reader reads (all of it when None).

    lines[i] is the physical line that row i ends on; cells[c][i] is the value
    of columns[c] in row i, equal to `absent` when the field is absent: "" for
    CSV (an empty cell or a missing field; cells as csvio.Reader.rows gives
    them), None for JSON lines (null or a missing key). errors maps a row to
    the exception its line raised (malformed JSON); such a row has every
    field absent.
    """
    reader = reader or csvio.Reader(path)
    if _is_csv(path):
        rows = reader.rows(columns)
        next(rows)  # the header
        for lines, cells, _ in rows:  # a field a short row lacks reads as absent
            yield lines, cells, "", {}
        return
    for first, raw, _ in reader.blocks():
        numbered = [
            (n, _json_object(obj)) for n, line in
            enumerate(io.StringIO(raw.decode(), newline=None), start=first)
            if (obj := line.strip())
        ]
        if not numbered:
            continue
        lines, objs = zip(*numbered)
        errors = {i: obj for i, obj in enumerate(objs) if isinstance(obj, Exception)}
        if errors:
            objs = [{} if i in errors else obj for i, obj in enumerate(objs)]
        yield lines, [[obj.get(c) for obj in objs] for c in columns], None, errors


def _row(columns: list[str], cells, i: int, absent) -> dict:
    """Row i as {column: value} of its present fields, byte cells decoded."""
    values = (col[i] for col in cells)
    values = [v.decode() if isinstance(v, bytes) else v for v in values]
    return {c: v for c, v in zip(columns, values) if v != absent}


def _json_object(text: str):
    """The JSON object on a line, or the exception that says why there is none."""
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer over 4,300 digits
        return exc
    return obj if isinstance(obj, dict) else ValueError("row is not a JSON object")


def _get_float(row: dict, key: str) -> float | None:
    value = row.get(key)
    if value is None:
        return None
    try:
        out = float(value)
    except OverflowError:  # a JSON integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ValueError(f"{key} is not finite")
    return out


def _get_time(row: dict, key: str) -> int | None:
    value = row.get(key)
    if value is None:
        return None
    return parse_utc(str(value))


def parse_sessions(path, strict: bool = False) -> SessionParseResult:
    """Parse session metadata; one SessionRecord per well-formed row.

    Rows are converted a block at a time, a column at a time; only the rows
    that the columns cannot vouch for go through the per-row rules (_session),
    in row order, which also give their issues.
    """
    path = Path(path)
    records: list[SessionRecord] = []
    issues: list[tuple[int, str]] = []
    for lines, cells, absent, errors in _read_chunks(path, SESSION_COLUMNS):
        values, suspect = _session_columns(cells, absent)
        suspect[list(errors)] = True
        for i, (lineno, row, odd) in enumerate(zip(lines, zip(*values), suspect.tolist())):
            try:
                if not odd:
                    records.append(SessionRecord(*row))
                elif i in errors:
                    raise errors[i]
                else:
                    records.append(_session(_row(SESSION_COLUMNS, cells, i, absent)))
            except (ValueError, TypeError) as exc:
                if strict:
                    raise ParseError(path, lineno, str(exc)) from exc
                issues.append((lineno, str(exc)))
    return SessionParseResult(records=records, issues=issues)


def _session_columns(cells, absent) -> tuple[list[list], np.ndarray]:
    """Each session column's values as SessionRecord takes them, and a mask of
    the rows whose values the per-row rules must give instead: a time that is
    not canonical, a number that is not finite, or an id that is not text."""
    values, suspect = [], np.zeros(len(cells[0]), bool)
    for name, column in zip(SESSION_COLUMNS, cells):
        if name.endswith("_id"):
            values.append(csvio.texts(column))
            if absent is None:  # JSON: a null or another type is str()'d by the rules
                suspect |= np.array([type(v) is not str for v in values[-1]], bool)
        elif name in TIME_FIELDS:
            t, odd = _canonical_seconds(column)
            none = ~_present(column, absent)
            suspect |= odd if name == "connection_time" else odd & ~none  # else absent is None
            values.append([None if n else v for v, n in zip(t.tolist(), none.tolist())])
        else:
            numbers, odd = float_column(column, absent)
            suspect |= odd
            values.append([None if v != v else v for v in numbers.tolist()])
    return values, suspect


def _present(cells, absent) -> np.ndarray:
    """A mask of the cells that are not absent."""
    if isinstance(cells, np.ndarray):
        return cells != b""
    return np.array([v != absent for v in cells], bool)


def _session(row: dict) -> SessionRecord:
    """The per-row rules of a session row: the ValueError or TypeError raised
    names the row's first problem and is the issue reported for it."""
    conn = _get_time(row, "connection_time")
    if conn is None:
        raise ValueError("connection_time is required")
    return SessionRecord(
        session_id=str(row.get("session_id", "")),
        site_id=str(row.get("site_id", "")),
        station_id=str(row.get("station_id", "")),
        connection_time=conn,
        disconnect_time=_get_time(row, "disconnect_time"),
        delivered_energy_kwh=_get_float(row, "delivered_energy_kwh"),
        requested_energy_kwh=_get_float(row, "requested_energy_kwh"),
        available_minutes=_get_float(row, "available_minutes"),
        requested_departure=_get_time(row, "requested_departure"),
    )


def _reading(row: dict) -> tuple[str, int, float, float]:
    """(session id, epoch seconds, current, pilot) of one row, NaN = absent.

    These are the per-row rules: the ValueError or TypeError raised names the
    row's first problem and is the issue reported for it.
    """
    sid = str(row.get("session_id", ""))
    if not sid:
        raise ValueError("session_id is required")
    ts = _get_time(row, "timestamp")
    if ts is None:
        raise ValueError("timestamp is required")
    current = _get_float(row, "current_a")
    pilot = _get_float(row, "pilot_a")
    if current is None and pilot is None:
        raise ValueError(f"sample for {sid} carries neither current nor pilot")
    current, pilot = (math.nan if v is None else v for v in (current, pilot))
    return sid, ts, current, pilot


# YYYY-MM-DDTHH:MM:SSZ, the form synth writes: a byte minus _STAMP is at most
# _SLACK, the largest digit a field's range allows there, and 0 off the digits.
_STAMP = np.frombuffer(b"0000-00-00T00:00:00Z", np.uint8)
_SLACK = np.frombuffer(b"9999-19-39T29:59:59Z", np.uint8) - _STAMP
_MONTH_DAYS = np.array([31, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])  # [m]: month m's


def _canonical_seconds(stamps) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds of every cell that is a valid time in the canonical form
    (0 for the others), and a mask of the other cells, which parse_utc must
    judge one by one. The form and the fields' ranges are checked on the
    cells' bytes (years 1-9999, leap days included); dates become days by
    Hinnant's days_from_civil, the inverse of _stamp_cells' civil_from_days.
    """
    if not isinstance(stamps, np.ndarray):  # text or JSON cells
        stamps = np.array(
            [s if type(s) is str and len(s) == 20 and s.isascii() else "" for s in stamps],
            dtype="S20",
        )
    n, width = len(stamps), stamps.dtype.itemsize
    if width < 20:
        return np.zeros(n, np.int64), np.ones(n, bool)
    cells = stamps.view(np.uint8).reshape(n, width)
    digits = cells[:, :20] - _STAMP
    bad = (digits > _SLACK).view(np.uint32)  # four bytes of a row at a time
    ok = (bad[:, 0] | bad[:, 1] | bad[:, 2] | bad[:, 3] | bad[:, 4]) == 0
    if width > 20:
        ok &= cells[:, 20] == 0  # no longer than the form
    d = np.ascontiguousarray(digits.T)  # d[j]: every row's digit j

    def number(at: int, count: int) -> np.ndarray:  # of digits at..at+count-1
        value = d[at].astype(np.int32)
        for j in range(at + 1, at + count):
            value = 10 * value + d[j]
        return value

    year, month, day, hour = number(0, 4), number(5, 2), number(8, 2), number(11, 2)
    century = year // 100
    leap = ((year & 3) == 0) & ((year != 100 * century) | ((century & 3) == 0))
    ok &= (year > 0) & (month >= 1) & (month <= 12) & (day >= 1) & (hour < 24)
    ok &= day <= _MONTH_DAYS[np.where(ok, month, 1)] + (leap & (month == 2))
    y = year - (month <= 2)  # days_from_civil: years from March 1, in 400-year eras
    era = y // 400
    yoe = y - 400 * era
    doy = (153 * (month + np.where(month > 2, -3, 9)) + 2) // 5 + day - 1
    days = 146_097 * era + 365 * yoe + yoe // 4 - yoe // 100 + doy - 719_468
    t = 86_400 * days.astype(np.int64) + 3_600 * hour + 60 * number(14, 2) + number(17, 2)
    return np.where(ok, t, 0), ~ok


def float_column(cells, absent) -> tuple[np.ndarray, np.ndarray]:
    """float() of every cell, NaN where absent, and a mask of the present cells
    that are not finite numbers, which the per-row rules must judge. A byte
    array of ASCII cells goes to float() as bytes, its empty cells as b"nan"
    (math.nan's bits); any other byte array is decoded first, as float(bytes)
    rejects the fullwidth digits that float(str) reads.
    """
    present = _present(cells, absent)
    if isinstance(cells, np.ndarray) and (cells.view(np.uint8) < 0x80).all():
        cells = np.where(present, cells, b"nan").tolist()
    else:
        cells = [v if p else math.nan for v, p in zip(csvio.texts(cells), present.tolist())]
    try:
        out = np.array(list(map(float, cells)), dtype=float)
    except (ValueError, TypeError, OverflowError):
        out = np.full(len(cells), math.nan)
        for i, v in enumerate(cells):
            with suppress(ValueError, TypeError, OverflowError):
                out[i] = float(v)
    return out, present & ~np.isfinite(out)


def parse_timeseries(path, strict: bool = False) -> TimeSeriesParseResult:
    """Parse time-series measurements into one SessionSeries per session.

    Sessions keep the order of their first valid row. Duplicate (session,
    timestamp) pairs merge last-write-wins in file order; negative readings
    are clamped to 0. Both are counted in the result.

    _convert_range converts the file, and rows are sorted only if out of
    order. A CSV file that _split_at cuts is converted in two ranges when
    this process can fork: a worker converts the back while this process
    converts the front, and the merge shifts the back's line numbers and
    maps its session codes onto the front's, so the result is the one a
    serial parse gives.
    """
    path = Path(path)
    split, job = _split_at(path), None
    if split is not None:
        from . import pool  # a serial parse never loads it
        job = pool.start_job(_convert_range, (path, split, None, strict),
                             f"{path}: the worker parsing its back half")
    with job or nullcontext():
        lines, issues, parts, code_of = _convert_range((path, 0, split if job else None, strict))
        if job:  # the worker numbers its lines from 1 and codes its ids from 0
            try:
                _, back_issues, back, back_ids = job.result()
            except ParseError as exc:
                raise ParseError(path, lines + exc.line_number, exc.reason) from None
            issues += [(lines + line, text) for line, text in back_issues]
            ranks = np.array([code_of.setdefault(sid, len(code_of)) for sid in back_ids], np.int32)
            for codes in back[0]:
                np.take(ranks, codes, out=codes)
            parts = [mine + theirs for mine, theirs in zip(parts, back)]
            del back, back_ids  # so that the join frees them

    # One column at a time, its source popped and freed before the next.
    columns = [np.concatenate(parts.pop(0)) for _ in range(4)]
    n_rows = len(columns[0])
    n_clamped = 0
    for values in columns[2:]:
        negative = values < 0  # NaN and -0.0 stay as they are
        n_clamped += int(np.count_nonzero(negative))
        values[negative] = 0.0
    if not _rising(*columns[:2]).all():  # else sorting and merging change nothing
        # Stable, so each run of equal (session, timestamp) keys keeps file
        # order and its last row wins.
        order = np.lexsort(columns[1::-1])
        columns = [columns.pop(0)[order] for _ in range(4)]
        last = np.append(_rising(*columns[:2]), True)
        columns = [columns.pop(0)[last] for _ in range(4)]
    codes, t, current, pilot = columns
    for column in columns[1:]:
        column.flags.writeable = False
    bounds = np.searchsorted(codes, np.arange(len(code_of) + 1)).tolist()
    index = {
        sid: SessionSeries._unchecked(t[lo:hi], current[lo:hi], pilot[lo:hi])
        for sid, lo, hi in zip(code_of, bounds, bounds[1:])
    }
    return TimeSeriesParseResult(
        index=index,
        issues=issues,
        n_negative_clamped=n_clamped,
        n_duplicates_merged=n_rows - len(t),
    )


def _convert_range(job):
    """(line count, issues, per column (session code, t, current, pilot) its
    pieces, {session id: code}) of a time-series file's lines from byte
    start to end (None: the end of the file), read by the file's header and
    numbered from 1 at start; codes rank the ids by their first valid row.
    A serial parse converts the whole file with it, a split parse each half.
    """
    path, start, end, strict = job
    reader, issues, code_of = csvio.Reader(path, start, end), [], {}
    parts = [[np.empty(0, dtype)] for dtype in (np.int32, np.int64, float, float)]
    for chunk in _read_chunks(path, TIMESERIES_COLUMNS, reader):
        heads, lengths, columns = _convert(path, chunk, strict, issues)
        codes = np.array([code_of.setdefault(sid, len(code_of)) for sid in heads], np.int32)
        for part, column in zip(parts, (np.repeat(codes, lengths), *columns)):
            part.append(column)
    return reader.line - 1, issues, parts, code_of


def _convert(path: Path, chunk, strict: bool, issues: list):
    """(run-head session ids, run lengths, (t, current, pilot)) of a chunk's
    valid rows. The other rows' issues are appended to issues; in strict
    mode the first raises a ParseError."""
    lines, cells, absent, errors = chunk
    sids, stamps, currents, pilots = cells
    t, suspect = _canonical_seconds(stamps)
    current, bad_current = float_column(currents, absent)
    pilot, bad_pilot = float_column(pilots, absent)
    suspect |= bad_current | bad_pilot | (np.isnan(current) & np.isnan(pilot))
    if isinstance(sids, np.ndarray):
        suspect |= sids == b""
    else:  # a rescued row's id is str() of its cell, as _reading gives it
        suspect |= np.array([type(s) is not str or not s for s in sids], dtype=bool)
        sids = np.array([str(s) for s in sids], dtype=object)
    keep = ~suspect
    for i in np.flatnonzero(suspect).tolist():
        try:
            if i in errors:
                raise errors[i]
            _, t[i], current[i], pilot[i] = _reading(_row(TIMESERIES_COLUMNS, cells, i, absent))
            keep[i] = True
        except (ValueError, TypeError) as exc:
            if strict:
                raise ParseError(path, lines[i], str(exc)) from exc
            issues.append((lines[i], str(exc)))
    rows = np.flatnonzero(keep)
    kept = sids[rows]  # one lookup per run of equal ids, as files hold them
    head = np.ones(len(kept), dtype=bool)
    head[1:] = kept[1:] != kept[:-1]
    starts = np.flatnonzero(head)
    lengths = np.diff(starts, append=len(kept))
    return csvio.texts(kept[starts]), lengths, (t[rows], current[rows], pilot[rows])


def _split_at(path: Path) -> int | None:
    """Where a split parse of path cuts it: the first start of a serial read's
    block (line 2 + k * csvio.CHUNK_ROWS) after _FRONT_SHARE of its bytes,
    so that each half reads the blocks a serial parse reads. None when the
    file is not CSV, is under _SPLIT_BYTES or has no such block, or when a
    quote comes before it: only such a quote can open a field that runs on
    past the cut. Lines are found by csvio.line_ends, the reader's rule, in
    _SCAN bytes at a time.
    """
    if not _is_csv(path):
        return None
    size = path.stat().st_size
    if size < _SPLIT_BYTES:
        return None
    share, rows = int(size * _FRONT_SHARE), csvio.CHUNK_ROWS
    buf, held = bytearray(_SCAN), 0  # buf[:held]: a \r that ended the last read
    at, seen, target = 0, 0, None  # buf's offset, line ends before it, the line end to cut after
    with open(path, "rb", buffering=0) as fh:
        while n := held + fh.readinto(memoryview(buf)[held:]):
            stop = n - (buf[n - 1] == ord("\r") and at + n < size)  # it may begin a \r\n
            ends = csvio.line_ends(buf, 0, stop)[0]
            if target is None and at + stop <= share:
                found = int(np.count_nonzero(ends))
            else:
                ends = np.flatnonzero(ends)
                found = len(ends)
                if target is None:  # the last line end of the block that the share is in
                    before = seen + int(np.searchsorted(ends, share - at))
                    target = 1 + rows * -(-before // rows)
                if target - seen <= found:
                    cut = at + int(ends[target - seen - 1]) + 1
                    return None if buf.find(b'"', 0, cut - at) >= 0 or cut == size else cut
            if buf.find(b'"', 0, stop) >= 0:
                return None
            buf[: n - stop] = buf[stop:n]
            at, seen, held = at + stop, seen + found, n - stop
    return None


def _rising(codes: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Whether each row's (session code, t) key is above the row before's."""
    return (codes[1:] > codes[:-1]) | (codes[1:] == codes[:-1]) & (t[1:] > t[:-1])


def write_sessions(path, sessions: list[SessionRecord]) -> None:
    """One row per session, times as _stamp_cells writes them. A CSV file is
    written a column at a time (_session_cells); JSON lines leave absent
    fields out. A time outside years 1-9999, which the parser would reject,
    raises ValueError naming its session before any write."""
    path = Path(path)
    columns = [list(map(attrgetter(c), sessions)) for c in SESSION_COLUMNS]
    for j in map(SESSION_COLUMNS.index, TIME_FIELDS):
        t = [v for v in columns[j] if v is not None]
        if t and not _FIRST_SECOND <= min(t) <= max(t) <= _LAST_SECOND:
            i = next(i for i, v in enumerate(columns[j])
                     if v is not None and not _FIRST_SECOND <= v <= _LAST_SECOND)
            raise ValueError(f"cannot write session {sessions[i].session_id!r}: "
                             f"{SESSION_COLUMNS[j]}={columns[j][i]} is not in years 1-9999")
        texts = iter(_stamp_cells(np.array(t, np.int64)).view("S20").ravel().astype("U20").tolist())
        columns[j] = [None if v is None else next(texts) for v in columns[j]]
    if _is_csv(path):
        csvio.write(path, SESSION_COLUMNS, list(map(_session_cells, columns)))
        return
    with open(path, "w", encoding="utf-8") as fh:
        for row in zip(*columns):
            obj = {c: v for c, v in zip(SESSION_COLUMNS, row) if v is not None}
            fh.write(json.dumps(obj) + "\n")


def _session_cells(values: list) -> list | np.ndarray:
    """A session column as csvio.write takes it, for the bytes that writing
    each value gives: floats and None as a float array when no value is NaN
    (which is written nan, not empty), any other column as it is, None as ""."""
    kinds = set(map(type, values)) - {type(None)}
    if kinds == {float}:
        floats = np.array(values, float)  # None becomes NaN
        if np.count_nonzero(np.isnan(floats)) == values.count(None):
            return floats
    return ["" if v is None else v for v in values]


def write_timeseries(path, index: dict[str, SessionSeries]) -> None:
    """One row per reading, sessions in index order, built as bytes by _rows
    a block at a time. An empty session id, a time outside years 1-9999 or an
    infinite reading, which the parser would reject, raises ValueError naming
    its session before any write.

    Each row's bytes depend on that row alone, so rows whose estimated bytes
    come to at least _SPLIT_WRITE_BYTES are written in two halves when this
    process can fork and make a file beside path: a worker formats the back
    half of the rows into an unnamed temporary file there while this process
    writes the header and the front half, and then appends the worker's
    bytes (_append).
    """
    path = Path(path)
    if "" in index:
        raise ValueError("cannot write session '': session_id is required")
    sids, series = list(index), list(index.values())
    # Separators join the texts beside them; a float's label goes with it.
    if _is_csv(path):  # only a session id can need quoting
        header, ids = ",".join(TIMESERIES_COLUMNS) + "\r\n", [csv_text(s) + "," for s in sids]
        floats = ((",", "", ""), (",", "", "\r\n"))
    else:  # json.dumps of the reading's object
        header, ids = "", [f'{{"session_id": {json.dumps(s)}, "timestamp": "' for s in sids]
        floats = (('"', ', "current_a": ', ""), ("", ', "pilot_a": ', "}\n"))
    ids = [sid.encode() for sid in ids]
    # Fewer rows per block when a long session id widens every row.
    step = max(1, min(csvio.CHUNK_ROWS, csvio.CHUNK_ROWS * 128 // max(map(len, ids), default=1)))
    # A session's times increase, so its first and last bound them all.
    lo, hi = _FIRST_SECOND, _LAST_SECOND
    for sid, s in index.items():
        if len(s) and (s.t[0] < lo or s.t[-1] > hi or np.isinf(s.current).any()
                       or np.isinf(s.pilot).any()):
            i = int(np.argmax((s.t < lo) | (s.t > hi) | np.isinf(s.current) | np.isinf(s.pilot)))
            raise ValueError(f"cannot write session {sid!r}: t={s.t[i]}, current_a="
                             f"{s.current[i]}, pilot_a={s.pilot[i]} (not in years 1-9999, or "
                             f"not finite)")
    lengths = np.array(list(map(len, series)), np.int64)
    n = int(lengths.sum())
    # The id, the stamp, the separators and labels, and 10 bytes a reading.
    fixed = 20 + 20 + len("".join(map("".join, floats)))
    size = int(lengths @ np.array(list(map(len, ids)), np.int64)) + fixed * n

    def write(out, start: int, stop: int) -> None:
        """Rows start..stop-1 into the binary file out, flushed."""
        for session, t, current, pilot in _blocks_of(series, step, start, stop):
            parts = [_run_cells(session, session, ids.__getitem__), (_stamp_cells(t), [20])]
            for x, (before, label, after) in zip((current, pilot), floats):
                parts.append(_run_cells(x.view(np.int64), x, lambda v: (
                    before + ("" if v != v else label + repr(v)) + after).encode()))
            out.write(_rows(parts))
        out.flush()

    with ExitStack() as stack:
        halves, cut = None, n // 2
        if size >= _SPLIT_WRITE_BYTES:
            import tempfile  # a serial write loads neither
            from . import pool

            with suppress(OSError):  # no file can be made beside path: write serially
                back = stack.enter_context(tempfile.TemporaryFile(dir=path.parent))
                halves = stack.enter_context(pool.start_job(
                    lambda rows: write(back, *rows), (cut, n),
                    f"{path}: the worker writing its back half") or nullcontext())
        fh = stack.enter_context(open(path, "wb"))
        fh.write(header.encode())
        write(fh, 0, cut if halves else n)
        if halves:
            halves.result()
            _append(fh, back)


def _append(out, back) -> None:
    """Copy the flushed bytes of file back to the end of file out: in the
    kernel by os.copy_file_range, through a buffer from where that fails."""
    size, at = os.fstat(back.fileno()).st_size, 0
    with suppress(OSError, AttributeError):  # AttributeError: no os.copy_file_range
        while at < size and (copied := os.copy_file_range(back.fileno(), out.fileno(),
                                                          size - at, at)):
            at += copied
    back.seek(at)
    while block := back.read(1 << 20):
        out.write(block)


def _blocks_of(series: list[SessionSeries], step: int, start: int, stop: int):
    """(session codes, t, current, pilot) of readings start..stop-1 of all
    sessions in order, `step` rows at a time; each block is gathered from the
    sessions it spans, so memory stays one block's."""
    lengths = np.array([len(s) for s in series], dtype=np.int64)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    columns = [[s.t for s in series], [s.current for s in series], [s.pilot for s in series]]
    for lo in range(start, stop, step):
        hi = min(lo + step, stop)
        # Sessions first..last hold rows lo..hi-1; empty ones among them add none.
        first, last = int(np.searchsorted(ends, lo, "right")), int(np.searchsorted(ends, hi))
        head, tail = lo - starts[first], hi - starts[last]
        counts = lengths[first : last + 1].copy()
        counts[-1] = tail
        counts[0] -= head
        gathered = []
        for column in columns:
            pieces = column[first : last + 1]
            pieces[-1] = pieces[-1][:tail]
            pieces[0] = pieces[0][head:]
            gathered.append(np.concatenate(pieces))
        yield np.repeat(np.arange(first, last + 1), counts), *gathered


def _stamp_cells(t: np.ndarray) -> np.ndarray:
    """YYYY-MM-DDTHH:MM:SSZ of epoch seconds in years 1-9999 as an (n, 20)
    uint8 matrix; days become dates by Hinnant's civil_from_days."""
    days, secs = (part.astype(np.int32) for part in np.divmod(t, 86_400))
    era, doe = np.divmod(days + 719_468, 146_097)  # 400-year eras from 0000-03-01
    yoe = (doe - doe // 1460 + doe // 36_524 - doe // 146_096) // 365
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)  # day of the year from March 1
    mp = (5 * doy + 2) // 153
    month = np.where(mp < 10, mp + 3, mp - 9)
    year, day = 400 * era + yoe + (month <= 2), doy - (153 * mp + 2) // 5 + 1
    cells = np.tile(_STAMP, (len(t), 1))
    fields = (year // 100, year % 100, month, day, secs // 3600, secs // 60 % 60, secs % 60)
    for at, value in zip((0, 2, 5, 8, 11, 14, 17), fields):  # where _STAMP's pairs start
        cells[:, at], cells[:, at + 1] = ord("0") + value // 10, ord("0") + value % 10
    return cells


def _run_cells(keys: np.ndarray, values: np.ndarray, text) -> tuple[np.ndarray, np.ndarray]:
    """(cells, sizes): row i of the uint8 matrix cells starts with the
    sizes[i] bytes text(values[i]), text called once per run of equal keys.
    Sizes are len(), as a byte array drops trailing NULs."""
    head = np.ones(len(keys), dtype=bool)
    head[1:] = keys[1:] != keys[:-1]
    texts = [text(v) for v in values[head].tolist()]
    sizes = np.array([len(b) for b in texts], dtype=np.int64)
    table = np.array(texts, dtype=f"S{max(sizes.max(), 1)}").view(np.uint8)
    which = np.cumsum(head) - 1
    return table.reshape(len(texts), -1)[which], sizes[which]


def _rows(parts: list) -> np.ndarray:
    """The bytes of the rows that (cells, sizes) parts make side by side. The
    parts fill one fixed-width matrix; one boolean mask drops the bytes past
    each row's size."""
    widths = [cells.shape[1] for cells, _ in parts]
    rows = np.empty((len(parts[0][0]), sum(widths)), dtype=np.uint8)
    used = np.empty(rows.shape, dtype=bool)
    for (cells, sizes), at, width in zip(parts, np.cumsum([0] + widths).tolist(), widths):
        rows[:, at : at + width] = cells
        used[:, at : at + width] = (np.arange(width)[:, None] < sizes).T  # faster than by row
    return rows[used]

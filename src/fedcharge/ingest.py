r"""File ingestion and deterministic synthetic depots.

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

Reading. A file is read in blocks of _CHUNK_ROWS lines, so memory stays
bounded. Lines end as the csv module ends them: at a \n, a \r\n or a bare
\r. The text is decoded as it is read, and each block is encoded back to
its bytes for the tokenizer. The CSV header line goes through csv.reader.
A CSV block is plain when it holds no quote, no NUL, no bare \r and no
blank line, and every line has as many fields as the header. Then one
numpy pass over the offsets of "," and "\n" finds every field, each
column is gathered into a fixed-width byte array, and row k is line
first + k. Any other block goes through csv.reader. From the first block
holding a quote to the end of the file, csv.reader reads everything,
because a quoted field may run on across a block boundary. NUL is kept out
of plain blocks because a byte array drops trailing NUL bytes.

Converting. The same column converters take byte arrays and the lists that
csv.reader and JSON give. Canonical timestamps are checked on their bytes
and parsed by numpy. float() runs on each numeric cell's decoded text. A
session id is decoded and looked up once per run of equal adjacent ids,
which is how a time-series file lays out its sessions. A cell or row the
bulk path cannot vouch for goes through the per-row rules (_reading,
_get_float, parse_utc), which also give its line-numbered issue.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import suppress
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta, timezone
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .seeding import STREAM_SYNTH, rng_from
from .sessions import (
    DatasetConfig,
    SessionRecord,
    SessionSeries,
    epoch_seconds,
    format_utc,
    parse_utc,
)

SESSION_COLUMNS = [f.name for f in fields(SessionRecord)]
TIMESERIES_COLUMNS = ["session_id", "timestamp", "current_a", "pilot_a"]

# Lines read per block: enough to amortize the array calls, few enough that
# one block's bytes and cells stay a few MB.
_CHUNK_ROWS = 32_768


class ParseError(ValueError):
    """A malformed row in strict mode, bytes that are not UTF-8 or a CSV
    field over the csv module's size limit; carries the offending line number."""

    def __init__(self, path, line_number: int, message: str):
        super().__init__(f"{path}:{line_number}: {message}")
        self.path = str(path)
        self.line_number = line_number


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
    if suffix not in (".csv", ".jsonl", ".ndjson", ".json"):
        raise ValueError(f"unsupported file format: {path}")
    return suffix == ".csv"


def _read_chunks(path: Path, columns: list[str]):
    """Yield (lines, cells, absent, errors) per block of nonblank rows, in file order.

    lines[i] is the physical line that row i ends on; cells[c][i] is the value
    of columns[c] in row i, equal to `absent` when the field is absent: "" for
    CSV (an empty cell or a missing field), None for JSON lines (null or a
    missing key). A plain CSV block gives each column as a fixed-width byte
    array, whose cells decode to that text; other blocks give lists. errors
    maps a row to the exception its line raised (malformed JSON); such a row
    has every field absent.
    """
    is_csv = _is_csv(path)
    # Bytes that are not UTF-8 pass as lone surrogates, for _blocks to report.
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        if is_csv:
            yield from _csv_chunks(path, fh, columns)
            return
        for first, _, text, _ in _blocks(path, fh, repeat(_CHUNK_ROWS)):
            numbered = [
                (n, _json_object(obj)) for n, line in
                enumerate(io.StringIO(text, newline=None), start=first)
                if (obj := line.strip())
            ]
            if not numbered:
                continue
            lines, objs = zip(*numbered)
            errors = {i: obj for i, obj in enumerate(objs) if isinstance(obj, Exception)}
            if errors:
                objs = [{} if i in errors else obj for i, obj in enumerate(objs)]
            yield lines, [[obj.get(c) for obj in objs] for c in columns], None, errors


def _line_breaks(raw: bytes) -> tuple[int, int]:
    """(line breaks, bare \\r) in raw: a \\n, a \\r\\n or a bare \\r ends a line."""
    buf = np.frombuffer(raw, np.uint8)
    cr = np.flatnonzero(buf[:-1] == ord("\r"))
    bare = int(np.count_nonzero(buf[cr + 1] != ord("\n"))) + raw.endswith(b"\r")
    return int(np.count_nonzero(buf == ord("\n"))) + bare, bare


def _blocks(path: Path, fh, sizes):
    """Yield (first line number, bytes, text, bare \\r count) of consecutive
    blocks of a file opened with newline="" and errors="surrogateescape",
    block k holding sizes[k] lines. Bytes that are not UTF-8 raise a
    ParseError naming their line.
    """
    line = 1
    for size in sizes:
        text = "".join(islice(fh, size))
        if not text:
            return
        try:
            raw = text.encode()
        except UnicodeEncodeError:  # text holds escaped bytes: name the first
            raw = text.encode(errors="surrogateescape")
            try:
                raw.decode()
            except UnicodeDecodeError as exc:
                raise ParseError(
                    path, line + _line_breaks(raw[: exc.start])[0],
                    f"not valid UTF-8: {raw[exc.start : exc.end]!r} ({exc.reason})",
                ) from None
        breaks, bare = _line_breaks(raw)
        yield line, raw, text, bare
        line += breaks


def _csv_chunks(path: Path, fh, columns: list[str]):
    """_read_chunks for CSV: plain blocks by the byte tokenizer, others by csv.reader."""
    blocks = _blocks(path, fh, chain([1], repeat(_CHUNK_ROWS)))
    head = next(blocks, None)
    if head is None:
        return
    _, raw, text, _ = head
    if b'"' in raw:  # a quoted header may run on: csv.reader reads it all
        yield from _reader_chunks(path, chain([head], blocks), None, columns)
        return
    header = next(_checked(path, csv.reader([text]), 0), [])
    picks = _picks(header, columns)
    for block in blocks:
        first, raw, _, bare = block
        if b'"' in raw:  # a quoted field may run on into the next block
            yield from _reader_chunks(path, chain([block], blocks), picks, columns)
            return
        cells = None if bare or b"\0" in raw else _plain_columns(raw, len(header), picks)
        if cells is None:
            yield from _reader_chunks(path, [block], picks, columns)
        else:
            yield range(first, first + len(cells[0])), cells, "", {}


def _picks(header: list[str], columns: list[str]) -> list[int | None]:
    """Each column's field index; a repeated name resolves to its last occurrence."""
    where = {name: j for j, name in enumerate(header)}
    return [where.get(c) for c in columns]


def _checked(path: Path, reader, offset: int):
    """The rows of a csv.reader that starts at line offset + 1; a csv.Error (a
    field over csv.field_size_limit()) becomes a ParseError naming the line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(path, offset + reader.line_num, str(exc)) from None


def _reader_chunks(path: Path, blocks, picks, columns: list[str]):
    """csv.reader over the blocks' lines, in batches of _CHUNK_ROWS nonblank rows.
    Without picks, the first row is the header that sets them.
    """
    blocks = iter(blocks)
    first = next(blocks)
    offset = first[0] - 1
    reader = csv.reader(
        line for _, _, text, _ in chain([first], blocks) for line in io.StringIO(text, newline="")
    )
    rows_of = _checked(path, reader, offset)
    if picks is None:
        picks = _picks(next(rows_of, []), columns)
    lines, rows = [], []
    for row in rows_of:
        if row:
            lines.append(offset + reader.line_num)
            rows.append(row)
            if len(rows) == _CHUNK_ROWS:
                yield lines, _csv_columns(rows, picks), "", {}
                lines, rows = [], []
    if rows:
        yield lines, _csv_columns(rows, picks), "", {}


def _plain_columns(raw: bytes, width: int, picks: list[int | None]) -> list[np.ndarray] | None:
    """The picked columns of a block with no quote, NUL or bare \\r as
    fixed-width byte arrays. None when a line is blank or does not have
    `width` fields, when a field is over the csv module's size limit (on
    which csv.reader raises), or when a column's array would outgrow the
    block.
    """
    if not width:
        return None
    if not raw.endswith(b"\n"):  # the last line of the file
        raw += b"\n"
    buf = np.frombuffer(raw, np.uint8)
    sep = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    newline = buf[sep] == ord("\n")
    n = len(sep) // width
    if len(sep) != n * width or np.count_nonzero(newline) != n:
        return None
    if not newline[width - 1 :: width].all():  # the newlines do not end every width-th field
        return None
    starts = np.concatenate(([0], sep[:-1] + 1)).reshape(n, width)
    ends = sep.reshape(n, width)
    ends[:, -1] -= buf[ends[:, -1] - 1] == ord("\r")
    sizes = ends - starts
    if not np.all(ends[:, -1] > starts[:, 0]) or sizes.max() > csv.field_size_limit():
        return None
    widths = [1 if j is None else max(int(sizes[:, j].max()), 1) for j in picks]
    if n * max(widths) > len(raw):
        return None
    padded = np.zeros(len(buf) + max(widths), np.uint8)
    padded[: len(buf)] = buf
    cells = []
    for j, w in zip(picks, widths):
        if j is None:
            cells.append(np.zeros(n, "S1"))
            continue
        cell = sliding_window_view(padded, w)[starts[:, j]]
        if sizes[:, j].min() < w:
            cell[np.arange(w) >= sizes[:, j, None]] = 0
        cells.append(cell.view(f"S{w}").ravel())
    return cells


def _csv_columns(rows, picks: list[int | None]) -> list[list[str]]:
    """The picked columns of a batch of CSV rows; a missing field reads as ""."""
    width = 1 + max((j for j in picks if j is not None), default=-1)
    if min(map(len, rows)) < width:
        rows = [row + [""] * (width - len(row)) for row in rows]
    return [[""] * len(rows) if j is None else [row[j] for row in rows] for j in picks]


def _row(columns: list[str], cells, i: int, absent) -> dict:
    """Row i as {column: value} of its present fields, byte cells decoded."""
    values = (col[i] for col in cells)
    values = [v.decode() if isinstance(v, bytes) else v for v in values]
    return {c: v for c, v in zip(columns, values) if v != absent}


def _texts(cells) -> list:
    """A column as a list, byte cells decoded."""
    if isinstance(cells, np.ndarray) and cells.dtype.kind == "S":
        return [v.decode() for v in cells.tolist()]
    return list(cells)


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


def _get_time(row: dict, key: str) -> datetime | None:
    value = row.get(key)
    if value is None:
        return None
    return parse_utc(str(value))


def parse_sessions(path, strict: bool = False) -> SessionParseResult:
    """Parse session metadata; one SessionRecord per well-formed row."""
    path = Path(path)
    records: list[SessionRecord] = []
    issues: list[tuple[int, str]] = []
    for lines, cells, absent, errors in _read_chunks(path, SESSION_COLUMNS):
        for i, lineno in enumerate(lines):
            try:
                if i in errors:
                    raise errors[i]
                row = _row(SESSION_COLUMNS, cells, i, absent)
                conn = _get_time(row, "connection_time")
                if conn is None:
                    raise ValueError("connection_time is required")
                records.append(
                    SessionRecord(
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
                )
            except (ValueError, TypeError) as exc:
                if strict:
                    raise ParseError(path, lineno, str(exc)) from exc
                issues.append((lineno, str(exc)))
    return SessionParseResult(records=records, issues=issues)


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
    return sid, epoch_seconds(ts), current, pilot


# YYYY-MM-DDTHH:MM:SSZ, the form synth writes: a byte minus _STAMP is at most
# 9 where the form has a digit and 0 elsewhere.
_STAMP = np.frombuffer(b"0000-00-00T00:00:00Z", np.uint8)
_SLACK = np.where(_STAMP == ord("0"), 9, 0).astype(np.uint8)


def _canonical_seconds(stamps) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds of every cell that is a valid time in the canonical form,
    and a mask of the other cells, which parse_utc must judge one by one.
    The form is checked on the cells' bytes; there is no year 0.
    """
    if not isinstance(stamps, np.ndarray):  # text or JSON cells
        stamps = np.array(
            [s if type(s) is str and len(s) == 20 and s.isascii() else "" for s in stamps],
            dtype="S20",
        )
    n, width = len(stamps), stamps.dtype.itemsize
    t = np.full(n, np.datetime64("NaT", "s"))
    if n and width >= 20:
        cells = stamps.view(np.uint8).reshape(n, width)
        head = cells[:, :20]
        ok = ~((head - _STAMP) > _SLACK).any(1)
        ok &= (head[:, :4] != ord("0")).any(1)
        if width > 20:
            ok &= cells[:, 20] == 0  # no longer than the form
        rows = np.flatnonzero(ok)
        text = np.ascontiguousarray(head[rows, :19]).view("S19").ravel()
        try:
            t[rows] = text.astype("datetime64[s]")
        except ValueError:  # a field is out of range, for example 2019-02-30
            for i, s in zip(rows.tolist(), text.tolist()):
                with suppress(ValueError):
                    t[i] = s
    return t.astype(np.int64), np.isnat(t)


def _float_column(cells, absent) -> tuple[np.ndarray, np.ndarray]:
    """float() of every cell, NaN where absent, and a mask of the present cells
    that are not finite numbers, which the per-row rules must judge. Byte
    cells are decoded first: float(bytes) rejects the fullwidth digits that
    float(str) reads.
    """
    cells = _texts(cells)
    try:
        out = np.array([math.nan if v == absent else float(v) for v in cells], dtype=float)
    except (ValueError, TypeError, OverflowError):
        out = np.full(len(cells), math.nan)
        for i, v in enumerate(cells):
            with suppress(ValueError, TypeError, OverflowError):
                out[i] = math.nan if v == absent else float(v)
    bad = ~np.isfinite(out)
    for i in np.flatnonzero(bad).tolist():
        bad[i] = cells[i] != absent
    return out, bad


def parse_timeseries(path, strict: bool = False) -> TimeSeriesParseResult:
    """Parse time-series measurements into one SessionSeries per session.

    Sessions keep the order of their first valid row. Duplicate (session,
    timestamp) pairs merge last-write-wins in file order; negative readings
    are clamped to 0. Both are counted in the result.

    Rows are converted a block at a time: canonical timestamps and floats in
    bulk. A row the bulk path cannot vouch for (another timestamp form, a bad
    or missing cell, a malformed line) goes through the per-row rules, which
    also produce its line-numbered issue.
    """
    path = Path(path)
    issues: list[tuple[int, str]] = []
    code_of: dict[str, int] = {}  # session id -> rank of its first valid row
    parts = []
    for lines, cells, absent, errors in _read_chunks(path, TIMESERIES_COLUMNS):
        sids, stamps, currents, pilots = cells
        t, suspect = _canonical_seconds(stamps)
        current, bad_current = _float_column(currents, absent)
        pilot, bad_pilot = _float_column(pilots, absent)
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
                _, t[i], current[i], pilot[i] = _reading(
                    _row(TIMESERIES_COLUMNS, cells, i, absent)
                )
                keep[i] = True
            except (ValueError, TypeError) as exc:
                if strict:
                    raise ParseError(path, lines[i], str(exc)) from exc
                issues.append((lines[i], str(exc)))
        rows = np.flatnonzero(keep)
        kept = sids[rows]  # one lookup per run of equal ids, as files hold them
        head = np.ones(len(kept), dtype=bool)
        head[1:] = kept[1:] != kept[:-1]
        codes = [code_of.setdefault(sid, len(code_of)) for sid in _texts(kept[head])]
        codes = np.array(codes, dtype=np.int64)[np.cumsum(head) - 1]
        parts.append((codes, t[rows], current[rows], pilot[rows]))

    codes, t, current, pilot = (
        np.concatenate([part[k] for part in parts] or [np.empty(0, dtype)])
        for k, dtype in enumerate((np.int64, np.int64, float, float))
    )
    n_clamped = 0
    for values in (current, pilot):
        negative = values < 0  # NaN and -0.0 stay as they are
        n_clamped += int(np.count_nonzero(negative))
        values[negative] = 0.0
    # Stable, so each run of equal (session, timestamp) keys keeps file order
    # and its last row wins.
    order = np.lexsort((t, codes))
    codes, t, current, pilot = codes[order], t[order], current[order], pilot[order]
    last = np.ones(len(t), dtype=bool)
    last[:-1] = (codes[1:] != codes[:-1]) | (t[1:] != t[:-1])
    codes, t, current, pilot = codes[last], t[last], current[last], pilot[last]
    bounds = np.searchsorted(codes, np.arange(len(code_of) + 1)).tolist()
    index = {
        sid: SessionSeries(t[lo:hi], current[lo:hi], pilot[lo:hi])
        for sid, lo, hi in zip(code_of, bounds, bounds[1:])
    }
    return TimeSeriesParseResult(
        index=index,
        issues=issues,
        n_negative_clamped=n_clamped,
        n_duplicates_merged=len(last) - len(t),
    )


def write_sessions(path, sessions: list[SessionRecord]) -> None:
    path = Path(path)
    is_csv = _is_csv(path)
    with open(path, "w", newline="" if is_csv else None, encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if is_csv:
            writer.writerow(SESSION_COLUMNS)
        for s in sessions:
            row = {c: getattr(s, c) for c in SESSION_COLUMNS}
            row = {c: format_utc(v) if isinstance(v, datetime) else v for c, v in row.items()}
            if is_csv:
                writer.writerow(row.values())  # None as "", floats as repr
            else:
                fh.write(json.dumps({c: v for c, v in row.items() if v is not None}) + "\n")


def write_timeseries(path, index: dict[str, SessionSeries]) -> None:
    """One row per reading, sessions in index order, built as bytes by _rows.
    A time outside years 1-9999 or an infinite reading, which the parser
    would reject, raises ValueError naming its session before any write.
    """
    path = Path(path)
    sids = list(index)
    session = np.repeat(np.arange(len(sids)), [len(s) for s in index.values()])
    t = np.concatenate([np.empty(0, np.int64), *(s.t for s in index.values())])
    current = np.concatenate([np.empty(0), *(s.current for s in index.values())])
    pilot = np.concatenate([np.empty(0), *(s.pilot for s in index.values())])
    # Epoch seconds of 0001-01-01T00:00:00Z and 9999-12-31T23:59:59Z.
    bad = (t < -62_135_596_800) | (t > 253_402_300_799) | np.isinf(current) | np.isinf(pilot)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"cannot write session {sids[session[i]]!r}: t={t[i]}, current_a="
                         f"{current[i]}, pilot_a={pilot[i]} (not in years 1-9999, or not finite)")
    # Separators join the texts beside them; a float's label goes with it.
    if _is_csv(path):  # only a session id can need quoting
        header, ids = ",".join(TIMESERIES_COLUMNS) + "\r\n", [_csv_text(s) + "," for s in sids]
        floats = ((",", "", ""), (",", "", "\r\n"))
    else:  # json.dumps of the reading's object
        header, ids = "", [f'{{"session_id": {json.dumps(s)}, "timestamp": "' for s in sids]
        floats = (('"', ', "current_a": ', ""), ("", ', "pilot_a": ', "}\n"))
    ids = [sid.encode() for sid in ids]
    # Fewer rows per block when a long session id widens every row.
    step = max(1, min(_CHUNK_ROWS, _CHUNK_ROWS * 128 // max(map(len, ids), default=1)))
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for rows in (slice(lo, lo + step) for lo in range(0, len(t), step)):
            parts = [_run_cells(session[rows], session[rows], ids.__getitem__),
                     (_stamp_cells(t[rows]), [20])]
            for x, (before, label, after) in zip((current[rows], pilot[rows]), floats):
                parts.append(_run_cells(x.view(np.int64), x, lambda v: (
                    before + ("" if v != v else label + repr(v)) + after).encode()))
            fh.write(_rows(parts))


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


def _csv_text(value: str) -> str:
    """value as csv.writer renders it among other fields."""
    buf = io.StringIO()
    csv.writer(buf).writerow([value, ""])
    return buf.getvalue()[: -len(",\r\n")]


@dataclass(frozen=True)
class SyntheticDepotSpec:
    """Knobs for a deterministic synthetic depot.

    Each session runs at a constant current level chosen so the session's
    exact trapezoidal energy, at DatasetConfig's default nominal voltage,
    matches a draw from its station's energy distribution; the target is that
    integral plus Gaussian noise. Early current is therefore genuinely
    predictive of the target. Stations with index < n_stations // 2 get their
    energy mean raised by heterogeneity_shift_kwh.
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
        if self.station_energy_mean_kwh <= 0:
            raise ValueError("station_energy_mean_kwh must be positive")
        if self.station_energy_std_kwh < 0:
            raise ValueError("station_energy_std_kwh must be nonnegative")
        if self.heterogeneity_shift_kwh < 0:
            raise ValueError("heterogeneity_shift_kwh must be nonnegative")
        if self.noise_std_kwh < 0:
            raise ValueError("noise_std_kwh must be nonnegative")
        dlo, dhi = self.session_minutes
        if dlo <= 0 or dhi < dlo:
            raise ValueError("session_minutes must be a positive range")
        if self.sample_period_s <= 0:
            raise ValueError("sample_period_s must be positive")
        if not 0.0 <= self.user_field_presence <= 1.0:
            raise ValueError("user_field_presence must be in [0, 1]")


_SYNTH_EPOCH = datetime(2019, 1, 1, tzinfo=timezone.utc)


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
            conn = _SYNTH_EPOCH + timedelta(seconds=int(rng.integers(0, 365 * 86400)))
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
                    connection_time=conn,
                    disconnect_time=conn + timedelta(seconds=duration_s),
                    delivered_energy_kwh=delivered,
                    requested_energy_kwh=requested,
                    available_minutes=available,
                    requested_departure=departure,
                )
            )
            index[session_id] = readings
    return sessions, index

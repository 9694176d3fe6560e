"""Reference parsers and writer: the per-row parsers and the per-session
time-series writer that the batched ones in fedcharge.ingest replaced, kept
as test oracles.

They read one row at a time through csv.DictReader (or json.loads for JSON
lines) and apply the row rules in the same order; the time-series parser
merges duplicates in a dict keyed by timestamp and converts its result to
SessionSeries at the end, so that it compares with ``==``. Line numbers are
the reader's physical line, which is what the batched parsers report.
"""

from __future__ import annotations

import csv
import json
import math
from datetime import datetime
from itertools import repeat
from pathlib import Path

import numpy as np

from fedcharge.ingest import (
    TIMESERIES_COLUMNS,
    ParseError,
    SessionParseResult,
    TimeSeriesParseResult,
    _csv_text,
    _is_csv,
)
from fedcharge.sessions import SessionRecord, SessionSeries, epoch_seconds, parse_utc


def iter_rows(path: Path):
    """Yield (line_number, field dict or the line's exception) per row."""
    suffix = path.suffix.lower()
    if suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                fields = {k: v for k, v in row.items() if v not in (None, "")}
                yield reader.reader.line_num, fields
    elif suffix in (".jsonl", ".ndjson", ".json"):
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except ValueError as exc:  # JSONDecodeError, or over 4,300 digits
                    yield lineno, exc
                    continue
                if not isinstance(obj, dict):
                    yield lineno, ValueError("row is not a JSON object")
                    continue
                yield lineno, {k: v for k, v in obj.items() if v is not None}
    else:
        raise ValueError(f"unsupported file format: {path}")


def get_float(row: dict, key: str) -> float | None:
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


def get_time(row: dict, key: str) -> datetime | None:
    value = row.get(key)
    if value is None:
        return None
    return parse_utc(str(value))


def parse_timeseries(path, strict: bool = False) -> TimeSeriesParseResult:
    path = Path(path)
    issues: list[tuple[int, str]] = []
    n_clamped = 0
    n_duplicates = 0
    per_session: dict[str, dict[datetime, tuple]] = {}
    for lineno, row in iter_rows(path):
        if isinstance(row, Exception):
            if strict:
                raise ParseError(path, lineno, str(row))
            issues.append((lineno, str(row)))
            continue
        try:
            sid = str(row.get("session_id", ""))
            if not sid:
                raise ValueError("session_id is required")
            ts = get_time(row, "timestamp")
            if ts is None:
                raise ValueError("timestamp is required")
            current = get_float(row, "current_a")
            pilot = get_float(row, "pilot_a")
            if current is not None and current < 0:
                current = 0.0
                n_clamped += 1
            if pilot is not None and pilot < 0:
                pilot = 0.0
                n_clamped += 1
            if current is None and pilot is None:
                raise ValueError(f"sample for {sid} carries neither current nor pilot")
        except (ValueError, TypeError) as exc:
            if strict:
                raise ParseError(path, lineno, str(exc)) from exc
            issues.append((lineno, str(exc)))
            continue
        bucket = per_session.setdefault(sid, {})
        if ts in bucket:
            n_duplicates += 1
        bucket[ts] = (current, pilot)

    def column(values):
        return np.array([math.nan if v is None else v for v in values], dtype=float)

    index = {}
    for sid, bucket in per_session.items():
        stamps = sorted(bucket)
        index[sid] = SessionSeries(
            t=np.array([epoch_seconds(ts) for ts in stamps], dtype=np.int64),
            current=column(bucket[ts][0] for ts in stamps),
            pilot=column(bucket[ts][1] for ts in stamps),
        )
    return TimeSeriesParseResult(
        index=index,
        issues=issues,
        n_negative_clamped=n_clamped,
        n_duplicates_merged=n_duplicates,
    )


def parse_sessions(path, strict: bool = False) -> SessionParseResult:
    path = Path(path)
    records: list[SessionRecord] = []
    issues: list[tuple[int, str]] = []
    for lineno, row in iter_rows(path):
        if isinstance(row, Exception):
            if strict:
                raise ParseError(path, lineno, str(row))
            issues.append((lineno, str(row)))
            continue
        try:
            conn = get_time(row, "connection_time")
            if conn is None:
                raise ValueError("connection_time is required")
            records.append(
                SessionRecord(
                    session_id=str(row.get("session_id", "")),
                    site_id=str(row.get("site_id", "")),
                    station_id=str(row.get("station_id", "")),
                    connection_time=conn,
                    disconnect_time=get_time(row, "disconnect_time"),
                    delivered_energy_kwh=get_float(row, "delivered_energy_kwh"),
                    requested_energy_kwh=get_float(row, "requested_energy_kwh"),
                    available_minutes=get_float(row, "available_minutes"),
                    requested_departure=get_time(row, "requested_departure"),
                )
            )
        except (ValueError, TypeError) as exc:
            if strict:
                raise ParseError(path, lineno, str(exc)) from exc
            issues.append((lineno, str(exc)))
    return SessionParseResult(records=records, issues=issues)


def write_timeseries(path, index: dict[str, SessionSeries]) -> None:
    """One row per reading, sessions in index order, each session's columns
    formatted whole. Times and floats never need CSV quoting, so only the
    session id goes through csv.writer.
    """
    path = Path(path)
    is_csv = _is_csv(path)
    if is_csv:
        line, labels = "{},{},{},{}\r\n".format, ("", "")
    else:  # json.dumps of the reading's object, absent fields left out
        line = '{{"session_id": {}, "timestamp": "{}"{}{}}}\n'.format
        labels = (', "current_a": ', ', "pilot_a": ')
    with open(path, "w", newline="" if is_csv else None, encoding="utf-8") as fh:
        if is_csv:
            csv.writer(fh).writerow(TIMESERIES_COLUMNS)
        for sid, s in index.items():
            fh.write("".join(map(
                line,
                repeat(_csv_text(sid) if is_csv else json.dumps(sid), len(s)),
                np.datetime_as_string(s.t.astype("datetime64[s]"), timezone="UTC").tolist(),
                format_floats(s.current, labels[0]),
                format_floats(s.pilot, labels[1]),
            )))


def format_floats(x: np.ndarray, label: str) -> list[str]:
    """label + repr of each value, "" where absent (NaN); one repr per run of
    bit-identical values."""
    if not len(x):
        return []
    bits = x.view(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    text = ["" if v != v else label + repr(v) for v in x[starts].tolist()]
    return np.repeat(np.array(text, dtype=object), np.diff(starts, append=len(x))).tolist()

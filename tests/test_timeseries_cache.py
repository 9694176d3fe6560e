"""timeseries.csv.cache against the CSV file it sits beside.

* parse_timeseries with the cache gives what it gives with the cache deleted:
  the same sessions in the same order, the bits, dtypes and read-only flags
  of every column, the issues and both counters, lenient and strict.
* A valid cache is read without converting a row.
* A cache that does not hold the file's parse is ignored, and the file is
  parsed. A table the CSV would not give back as written, bit for bit and
  without an issue, gets no cache, and a stale one goes.
"""

from __future__ import annotations

import csv
import hashlib
import math
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import T0, make_series, uncached
from fedcharge import csvio, ingest
from fedcharge.cli import dispatch
from fedcharge.ingest import ParseError, parse_timeseries, write_timeseries
from fedcharge.sessions import SessionSeries
from test_columnar import FIRST_SECOND, LAST_SECOND, synthetic_index

BODY = csvio.CACHE_HEADER.size  # where a cache's body starts


def bits(result) -> tuple:
    """Everything a parse returns, each column as its dtype and bytes."""
    columns = [(sid, *((c.dtype.str, c.tobytes()) for c in (s.t, s.current, s.pilot)))
               for sid, s in result.index.items()]
    return columns, result.issues, result.n_negative_clamped, result.n_duplicates_merged


def outcome(path: Path, strict: bool):
    """Everything parse_timeseries returns, each column with its dtype,
    bytes and writeable flag, or the ParseError's text."""
    try:
        result = parse_timeseries(path, strict=strict)
    except ParseError as exc:
        return str(exc)
    flags = [c.flags.writeable for s in result.index.values() for c in (s.t, s.current, s.pilot)]
    return bits(result), flags


def outcomes(path: Path) -> tuple[list, list]:
    """(with the cache, with it deleted), lenient and strict."""
    cached = [outcome(path, strict) for strict in (False, True)]
    uncached(path)
    return cached, [outcome(path, strict) for strict in (False, True)]


def nan_with(payload: int) -> float:
    """A NaN of any sign and payload, which the writer writes as an empty cell."""
    return struct.unpack("<d", struct.pack("<Q", 0x7FF0_0000_0000_0000 | payload))[0]


readings = st.one_of(
    st.none(),
    st.sampled_from([math.nan, -0.0, 0.0, 5e-324, 1e-7, 16.0, 1e16, 1.7976931348623157e308]),
    st.integers(1, 2**52 - 1).map(lambda p: nan_with(p | (p & 1) << 63)),
    st.floats(min_value=0.0, allow_infinity=False, allow_nan=False),
    st.floats(max_value=-5e-324, allow_infinity=False),  # clamped by the parser: no cache
)


@st.composite
def series(draw):
    n = draw(st.integers(0, 5))  # a session with no readings is left out of the parse
    t = sorted(draw(st.sets(st.integers(FIRST_SECOND, LAST_SECOND), min_size=n, max_size=n)))
    pairs = draw(st.lists(st.tuples(readings, readings).filter(
        lambda p: any(v is not None and v == v for v in p)), min_size=n, max_size=n))
    return SessionSeries(np.array(t, np.int64),
                         [math.nan if c is None else c for c, _ in pairs],
                         [math.nan if p is None else p for _, p in pairs])


# Plain ids of any script, and ids csv.writer quotes, which get no cache.
ids = st.one_of(
    st.from_regex(r"[\w.:-]{1,12}", fullmatch=True),
    st.sampled_from(["ST000-0001", "é", "站-7", "x" * 300, "a,b", 'q"t', " ", "cr\rid"]),
)


def cacheable(index: dict[str, SessionSeries]) -> bool:
    return csvio.writes_plain(list(index)) and not any(
        (s.current < 0).any() or (s.pilot < 0).any() for s in index.values())


class TestOracle:
    @settings(max_examples=200, deadline=None)
    @given(index=st.dictionaries(ids, series(), max_size=5))
    def test_the_cache_gives_the_parse(self, index):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "timeseries.csv"
            write_timeseries(path, index)
            assert csvio.cache_path(path).exists() == cacheable(index)
            assert (ingest._read_cache(path) is not None) == cacheable(index)
            cached, parsed = outcomes(path)
        assert cached == parsed
        result = cached[0][0]
        assert [sid for sid, *_ in result[0]] == [sid for sid, s in index.items() if len(s)]

    def test_a_synthetic_depot(self, tmp_path):
        path = tmp_path / "timeseries.csv"
        write_timeseries(path, synthetic_index(2))
        assert ingest._read_cache(path) is not None
        cached, parsed = outcomes(path)
        assert cached == parsed

    def test_one_buffer_holds_every_column(self, tmp_path):
        """Every series' columns are slices of one read-only (3, n) buffer."""
        path = tmp_path / "timeseries.csv"
        write_timeseries(path, synthetic_index(1))
        index = ingest._read_cache(path).index
        bases = {id(c.base) for s in index.values() for c in (s.t, s.current, s.pilot)}
        assert len(bases) == 1
        buffer = next(iter(index.values())).t.base
        assert buffer.shape == (3, sum(map(len, index.values()))) and not buffer.flags.writeable

    def test_the_bytes_are_those_of_the_layout(self, tmp_path):
        index = {"a": make_series(), "empty": SessionSeries([], [], []),
                 "b": make_series(offsets_s=(0, 60), current=[None, 1.5])}
        path = tmp_path / "timeseries.csv"
        write_timeseries(path, index)
        blob = csvio.cache_path(path).read_bytes()
        assert csvio.CACHE_HEADER.unpack_from(blob) == (
            b"fcseries", 1, hashlib.sha256(path.read_bytes()).digest(), 2)
        kept = [index["a"], index["b"]]
        body = b"".join([
            np.array([5, 2], "<i8").tobytes(),
            *(np.concatenate([getattr(s, name) for s in kept]).tobytes()
              for name in ("t", "current", "pilot")),
            b"a\nb\n",
        ])
        assert blob[BODY:] == body


class TestWithoutParsing:
    def test_a_valid_cache_converts_no_row(self, tmp_path):
        path = tmp_path / "timeseries.csv"
        write_timeseries(path, synthetic_index(2))
        expected = outcomes(path)[1]
        write_timeseries(path, synthetic_index(2))
        refuse = mock.Mock(side_effect=AssertionError("parsed"))
        with mock.patch.object(ingest, "_convert", refuse):
            assert [outcome(path, strict) for strict in (False, True)] == expected
        refuse.assert_not_called()


class TestIgnored:
    """A cache that does not hold the file's parse: the file is parsed."""

    @staticmethod
    def _edit_cache(path: Path, edit) -> None:
        cache = csvio.cache_path(path)
        blob = bytearray(cache.read_bytes())
        edit(blob)
        cache.write_bytes(bytes(blob))

    @staticmethod
    def _plant(column: int, row: int, value):
        """An edit of reading row's value in column (0: t, 1: current,
        2: pilot) of the two sessions' ten readings below."""
        at = BODY + 16 + 8 * (10 * column + row)
        return lambda blob: blob.__setitem__(slice(at, at + 8), np.array(value).tobytes())

    PLANTED = {
        "times not increasing planted": (0, 1, np.int64(T0)),
        "reading without current or pilot planted": (2, 7, math.nan),
        "negative reading planted": (1, 0, -1.0),
        "infinite reading planted": (2, 9, math.inf),
    }

    @pytest.mark.parametrize("case", [
        "csv edited by one byte", "csv truncated", "wrong magic", "wrong version",
        "cache of another depot", "header not today's", "id not plain planted",
        "id repeated planted", "id appended", "bytes appended", "length sum raised",
        "cache truncated", *PLANTED,
    ])
    def test_the_file_is_parsed(self, tmp_path, case):
        path = tmp_path / "timeseries.csv"
        index = {"s1": make_series(), "s2": make_series(current=[1.0, 2.0, None, 4.0, 5.0])}
        write_timeseries(path, index)
        cache, text = csvio.cache_path(path), path.read_bytes()
        if case == "csv edited by one byte":
            path.write_bytes(text.replace(b"s1,", b"sZ,", 1))
        elif case == "csv truncated":
            path.write_bytes(text[: text.rindex(b"\r\n", 0, -2) + 2])
        elif case == "wrong magic":
            self._edit_cache(path, lambda blob: blob.__setitem__(0, ord("x")))
        elif case == "wrong version":
            self._edit_cache(path, lambda blob: blob.__setitem__(slice(8, 12),
                                                                 struct.pack("<I", 2)))
        elif case == "cache of another depot":
            other = tmp_path / "other.csv"
            write_timeseries(other, {**index, "s3": make_series()})
            cache.write_bytes(csvio.cache_path(other).read_bytes())
        elif case == "header not today's":
            path.write_bytes(text.replace(b"current_a,pilot_a", b"pilot_a,current_a", 1))
            digest = hashlib.sha256(path.read_bytes()).digest()
            self._edit_cache(path, lambda blob: blob.__setitem__(slice(12, 44), digest))
        elif case == "id not plain planted":
            self._edit_cache(path, lambda blob: blob.__setitem__(-2, ord(",")))
        elif case == "id repeated planted":
            self._edit_cache(path, lambda blob: blob.__setitem__(-2, ord("1")))
        elif case in ("id appended", "bytes appended"):
            more = b"s1\n" if case == "id appended" else b"x"
            self._edit_cache(path, lambda blob: blob.extend(more))
        elif case in self.PLANTED:
            self._edit_cache(path, self._plant(*self.PLANTED[case]))
        elif case == "length sum raised":
            self._edit_cache(path, lambda blob: blob.__setitem__(
                slice(BODY, BODY + 8), struct.pack("<q", 6)))
        else:
            self._edit_cache(path, lambda blob: blob.__delitem__(slice(-1, None)))
        assert ingest._read_cache(path) is None
        cached, parsed = outcomes(path)
        assert cached == parsed
        if case == "csv edited by one byte":
            assert [sid for sid, *_ in cached[0][0][0]] == ["sZ", "s1", "s2"]  # its first row
        elif case == "header not today's":  # the columns are read by the header's names
            result = parse_timeseries(path)
            assert result.index["s2"] == SessionSeries(index["s2"].t, index["s2"].pilot,
                                                       index["s2"].current)

    def test_a_lower_field_limit_when_reading_ignores_the_cache(self, tmp_path):
        path = tmp_path / "timeseries.csv"
        write_timeseries(path, {"s" * 40: make_series()})
        limit = csv.field_size_limit(39)
        try:
            assert ingest._read_cache(path) is None
            with pytest.raises(ParseError, match="field larger than field limit"):
                parse_timeseries(path)
        finally:
            csv.field_size_limit(limit)


class TestNoCache:
    """A depot the CSV would not give back as written, each written over one
    with a cache, which goes."""

    @pytest.mark.parametrize("case", ["negative reading", "quoted id", "id over the field limit"])
    def test_no_cache_and_the_stale_one_goes(self, tmp_path, case):
        path = tmp_path / "timeseries.csv"
        write_timeseries(path, {"s1": make_series(), "s2": make_series()})
        assert csvio.cache_path(path).exists()
        if case == "negative reading":
            index = {"s1": make_series(), "s2": make_series(current=[1.0, -2.0, 3.0, 4.0, 5.0])}
        else:
            sid = "a,b" if case == "quoted id" else "s" * (csv.field_size_limit() + 1)
            index = {"s1": make_series(), sid: make_series()}
        write_timeseries(path, index)
        assert not csvio.cache_path(path).exists()
        if case == "negative reading":
            assert parse_timeseries(path).n_negative_clamped == 1
        elif case == "quoted id":
            assert list(parse_timeseries(path, strict=True).index) == ["s1", "a,b"]
        else:
            with pytest.raises(ParseError, match=f"{path}:7: field larger than field limit"):
                parse_timeseries(path)

    def test_a_failed_write_leaves_no_cache(self, tmp_path):
        path = tmp_path / "timeseries.csv"
        write_timeseries(path, synthetic_index(1))
        rows, calls = ingest._rows, []

        def fails_on_the_second_block(parts):
            calls.append(1)
            if len(calls) == 2:
                raise OSError("disk full")
            return rows(parts)

        with mock.patch.object(ingest, "_rows", fails_on_the_second_block), \
                pytest.raises(OSError, match="disk full"):
            write_timeseries(path, synthetic_index(1))
        assert not csvio.cache_path(path).exists()

    def test_json_lines_get_none(self, tmp_path):
        path = tmp_path / "timeseries.jsonl"
        write_timeseries(path, {"s1": make_series()})
        assert not csvio.cache_path(path).exists()


def test_featurize_writes_the_same_bytes_with_the_cache_deleted(tmp_path):
    depot = tmp_path / "depot"
    assert dispatch(["synth", "--seed", "4", "--stations", "3", "--sessions-per-station", "5:8",
                     "--out", str(depot)]) == 0
    assert csvio.cache_path(depot / "timeseries.csv").exists()
    outputs = []
    for run in ("cached", "parsed"):
        if run == "parsed":
            uncached(depot / "timeseries.csv")
        out = tmp_path / run
        assert dispatch(["featurize", "--in", str(depot), "--out", str(out)]) == 0
        names = ("features.csv", "features.csv.cache", "featurize_report.json")
        outputs.append([(out / name).read_bytes() for name in names])
    assert outputs[0] == outputs[1]

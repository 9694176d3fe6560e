"""csvio.Reader.blocks, which cuts a file into blocks of lines from its
bytes, against the text-mode reader it replaced (ingest_reference.blocks):
the same (first line, bytes, bare \\r count) blocks, or the same ParseError
after the same blocks, at 1, 2, 3 and 4,096 lines a block. The read size
drops to a few bytes in the fuzzed files, so that \\r\\n pairs, bare \\r
and multibyte characters fall across read edges; named cases put them at
the edges of the real read size.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ingest_reference
from fedcharge import csvio
from fedcharge.csvio import ParseError

# Pieces of a line: text, separators, a quote, NUL, bytes that are not UTF-8,
# and a two- or three-byte character whole or cut short.
PIECES = [b"a", b"16.0", b",", b",,", b'"', b"\0", b"\xff", b"\x80", "é".encode(),
          "€".encode(), "€".encode()[:2], "é".encode()[:1], b" "]
ENDS = [b"\n", b"\r\n", b"\r"]


@st.composite
def files(draw) -> bytes:
    """Lines of pieces, each ended by \\n, \\r\\n or a bare \\r; blank lines,
    runs of \\r, and a last line with or without its end."""
    lines = []
    for _ in range(draw(st.integers(0, 24))):
        body = b"".join(draw(st.lists(st.sampled_from(PIECES), max_size=6)))
        lines.append(body + draw(st.sampled_from(ENDS + [b"\r\r\n", b"\n\r"])))
    raw = b"".join(lines)
    return raw.rstrip(b"\r\n") if draw(st.booleans()) else raw


def outcome(blocks) -> tuple[list, str | None]:
    """The blocks read, and the ParseError that stopped the reading."""
    out = []
    try:
        for block in blocks:
            out.append(block)
    except ParseError as exc:
        return out, str(exc)
    return out, None


def assert_same_blocks(raw: bytes, chunk_rows: int, read: int = csvio._READ):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file.csv"
        path.write_bytes(raw)
        with mock.patch.object(csvio, "CHUNK_ROWS", chunk_rows), \
                mock.patch.object(csvio, "_READ", read):
            ours = outcome(csvio.Reader(path).blocks())
            expected = outcome(ingest_reference.blocks(path))
    assert ours == expected
    return ours


chunk_sizes = st.sampled_from([1, 2, 3, 4_096])


class TestBlocksOracle:
    @settings(max_examples=300, deadline=None)
    @given(raw=files(), chunk_rows=chunk_sizes, read=st.sampled_from([1, 2, 3, 7, 64, 1 << 16]))
    def test_whole_files(self, raw, chunk_rows, read):
        assert_same_blocks(raw, chunk_rows, read)

    def test_empty_file(self):
        assert assert_same_blocks(b"", 2) == ([], None)

    @pytest.mark.parametrize("end", [b"\r\n", b"\r", b"\n"])
    @pytest.mark.parametrize("chunk_rows", [1, 3, 4_096])
    def test_line_end_at_the_read_edge(self, end, chunk_rows):
        """A line end whose first byte is the last of a read: the \\n of a
        \\r\\n comes with the next read, and a bare \\r stays bare."""
        line = b"a," * 10 + b"16.0\r\n"
        raw = b"h\r\n" + line * (csvio._READ // len(line))
        raw = raw[: csvio._READ - len(end) + 1]
        raw = raw[: raw.rindex(b"\n") + 1]
        raw += b"x" * (csvio._READ - 1 - len(raw)) + end + line * 3
        assert raw[csvio._READ - 1] == end[0]
        blocks, error = assert_same_blocks(raw, chunk_rows)
        assert error is None and b"".join(block[1] for block in blocks) == raw

    @pytest.mark.parametrize("at", [-1, 0, 1])
    def test_character_across_the_read_edge(self, at):
        """A three-byte character that a read cuts is UTF-8 all the same, and
        a byte that is not UTF-8 at the edge names its line."""
        raw = b"h\n" + b"a" * (csvio._READ - 3 + at) + "€".encode() + b"\nb\n"
        assert assert_same_blocks(raw, 4_096)[1] is None
        bad = raw.replace(b"\nb\n", b"\n\xffb\n")
        assert assert_same_blocks(bad, 4_096)[1].endswith(
            ":3: not valid UTF-8: b'\\xff' (invalid start byte)")

    def test_block_bytes_and_line_numbers(self):
        raw = b"h\r\na\r\nb\rc\n\nd"
        blocks, error = assert_same_blocks(raw, 2, read=3)
        assert error is None
        assert blocks == [(1, b"h\r\n", 0), (2, b"a\r\nb\r", 1), (4, b"c\n\n", 0), (6, b"d", 0)]

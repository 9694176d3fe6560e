r"""The one CSV layer: every CSV file the package reads or writes goes through
this module, and it alone imports csv.

Reading. A file is read in blocks of CHUNK_ROWS lines, after its first
line on its own. Lines end as the csv module ends them: at a \n, a \r\n or
a bare \r. Blocks are cut from the file's bytes, read _READ bytes at a
time, so a reader holds one block and one read; a block that is not ASCII
is checked to be UTF-8 by one decode. The CSV header line goes through
csv.reader.
A CSV block is plain when it holds no quote, no NUL, no bare \r and no
blank line, and every line has as many fields as the header. Then one
numpy pass over the offsets of "," and "\n" finds every field, each
column is gathered into a fixed-width byte array, and row k is line
first + k. Any other block goes through csv.reader. From the first block
holding a quote to the end of the file, csv.reader reads everything,
because a quoted field may run on across a block boundary. NUL is kept out
of plain blocks because a byte array drops trailing NUL bytes. Bytes that
are not UTF-8, and a field over csv.field_size_limit(), raise a ParseError
naming their line. JSON lines files are read in the same blocks.

Writing. A file gets the bytes csv.writer writes: None as an empty cell, a
float (numpy's too) as its repr, any other value as str() of it, quoted as
csv.writer quotes it (csv_text), and every row ended by \r\n.

Caches. A writer may leave NAME.cache beside a CSV file NAME it wrote: a
CACHE_HEADER (magic, version, the sha256 of the CSV's bytes, a count), then
a body of the writer's own. read_cache takes it only when the magic and
version are the reader's, the CSV's first line is the header it expects and
the hash is that of the CSV's bytes, as PEP 552's checked hash-based .pyc
files are bound to their source; any other cache is ignored, so deleting
one is always safe.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import re
import struct
from itertools import chain, repeat
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Lines read per block: enough to amortize the array calls, few enough that
# one block's bytes and cells stay near 1.5 MB.
CHUNK_ROWS = 4_096

_READ = 1 << 16  # bytes read from a file at a time

# Texts csv.writer writes as they are, which csv_text need not run it on.
_PLAIN_TEXT = re.compile(r"[\w.:-]+")

CACHE_HEADER = struct.Struct("<8sI32sQ")  # magic, version, sha256 of the CSV's bytes, count


class ParseError(ValueError):
    """A malformed row in strict mode, bytes that are not UTF-8 or a CSV
    field over the csv module's size limit; carries the offending line number."""

    def __init__(self, path, line_number: int, message: str):
        super().__init__(f"{path}:{line_number}: {message}")
        self.path = str(path)
        self.line_number = line_number
        self.reason = message

    def __reduce__(self):
        return ParseError, (self.path, self.line_number, self.reason)


class Reader:
    """The lines of the file at path, numbered from 1."""

    def __init__(self, path):
        self.path = Path(path)

    def blocks(self):
        """(first line number, bytes, bare \\r count) per block of CHUNK_ROWS
        lines, after a file's first line (a CSV header) on its own."""
        line = 1
        with open(self.path, "rb", buffering=0) as fh:
            lines = _Lines(fh)
            for size in chain([1], repeat(CHUNK_ROWS)):
                raw, breaks, bare = lines.take(size)
                self._utf8(raw, line)
                if not raw:
                    return
                yield line, raw, bare
                line += breaks

    def _utf8(self, raw: bytes, line: int) -> None:
        """Bytes of a block read from line `line` that are not UTF-8 raise a
        ParseError naming the first one's line."""
        if not raw.isascii():
            try:
                raw.decode()
            except UnicodeDecodeError as exc:
                raise ParseError(
                    self.path, line + _line_breaks(raw[: exc.start])[0],
                    f"not valid UTF-8: {raw[exc.start : exc.end]!r} ({exc.reason})",
                ) from None

    def rows(self, columns: list[str]):
        """Yield the header, the file's first row ([] for an empty file),
        then (lines, cells, widths) per block of nonblank rows: lines[i] is
        the line row i ends on, widths[i] its number of fields, and
        cells[c][i] its field under columns[c] ("" when the header or the row
        lacks it; a repeated name resolves to its last occurrence). A plain
        block gives each column as a fixed-width byte array, whose cells
        decode to that text (texts()); other blocks give lists."""
        blocks = self.blocks()
        head = next(blocks, None)
        if head is None:
            yield []
            return
        raw = head[1]
        if b'"' in raw:  # a quoted header may run on: csv.reader reads it all
            yield from _reader_chunks(self.path, chain([head], blocks), None, columns)
            return
        try:
            header = next(csv.reader([raw.decode()]), [])
        except csv.Error as exc:  # a field over csv.field_size_limit()
            raise ParseError(self.path, 1, str(exc)) from None
        yield header
        width, picks = len(header), _picks(header, columns)
        for block in blocks:
            first, raw, bare = block
            if b'"' in raw:  # a quoted field may run on into the next block
                yield from _reader_chunks(self.path, chain([block], blocks), picks, columns)
                return
            cells = None if bare or b"\0" in raw else _plain_columns(raw, width, picks)
            if cells is None:
                yield from _reader_chunks(self.path, [block], picks, columns)
            else:
                n = len(cells[0])
                yield range(first, first + n), cells, [width] * n


def texts(cells) -> list:
    """A column as a list, byte cells decoded."""
    if isinstance(cells, np.ndarray) and cells.dtype.kind == "S":
        return [v.decode() for v in cells.tolist()]
    return list(cells)


def _line_breaks(raw: bytes) -> tuple[int, int]:
    """(line breaks, bare \\r) in raw."""
    ends, bare = _line_ends(raw, 0, len(raw))
    return int(np.count_nonzero(ends)), bare


def _line_ends(raw, start: int, stop: int) -> tuple[np.ndarray, int]:
    """(a mask of the bytes of raw[start:stop] that end a line, how many of
    them are a bare \\r): the reader's line rule. A \\n ends a line, and so
    does a \\r that no \\n follows in the range."""
    buf = np.frombuffer(raw, np.uint8, stop - start, start)
    ends, cr = buf == ord("\n"), buf == ord("\r")
    gap = cr[:-1] > ends[1:]  # a \r not followed by \n
    bare = int(np.count_nonzero(gap)) + bool(len(cr) and cr[-1])
    if bare:
        ends[:-1] |= gap
        ends[-1] |= cr[-1]
    return ends, bare


class _Lines:
    """A binary file's lines from where it stands, cut as csv.reader cuts
    them, taken some at a time. It reads _READ bytes at a time and holds
    what it read past the last line taken."""

    def __init__(self, fh):
        self._fh, self._held, self._eof = fh, bytearray(), False

    def take(self, size: int) -> tuple[bytes, int, int]:
        """(bytes, line breaks, bare \\r) of the next size lines, or of the
        lines left."""
        held, at, need, bare = self._held, 0, size, 0  # need more line ends after held[:at]
        while True:
            # A final \r is left for the next read, which may start with \n.
            stop = len(held) - (not self._eof and held.endswith(b"\r"))
            ends, more_bare = _line_ends(held, at, stop)
            found = int(np.count_nonzero(ends))
            if found >= need:
                cut = at + int(np.flatnonzero(ends)[need - 1]) + 1
                bare += more_bare and _line_ends(held, at, cut)[1]
                need = 0
                break
            need, bare = need - found, bare + more_bare
            if self._eof:
                cut = len(held)
                break
            more = self._fh.read(_READ)
            self._eof = not more
            held += more
            at = stop
        with memoryview(held) as view:
            raw = view[:cut].tobytes()
        self._held = held[cut:]  # a new buffer: this one may have grown to a block
        return raw, size - need, bare


def _picks(header: list[str], columns: list[str]) -> list[int | None]:
    """Each column's field index; a repeated name resolves to its last occurrence."""
    where = {name: j for j, name in enumerate(header)}
    return [where.get(c) for c in columns]


def _reader_chunks(path: Path, blocks, picks, columns: list[str]):
    """csv.reader over the blocks' lines, in batches of CHUNK_ROWS nonblank rows.
    Without picks, the first row is the header, yielded first, that sets them.
    A csv.Error (a field over csv.field_size_limit()) becomes a ParseError.
    """
    blocks = iter(blocks)
    first = next(blocks)
    offset = first[0] - 1
    reader = csv.reader(line for _, raw, _ in chain([first], blocks)
                        for line in io.StringIO(raw.decode(), newline=""))
    lines, rows = [], []
    try:
        if picks is None:
            header = next(reader, [])
            yield header
            picks = _picks(header, columns)
        for row in reader:
            if row:
                lines.append(offset + reader.line_num)
                rows.append(row)
                if len(rows) == CHUNK_ROWS:
                    yield lines, *_csv_columns(rows, picks)
                    lines, rows = [], []
    except csv.Error as exc:
        raise ParseError(path, offset + reader.line_num, str(exc)) from None
    if rows:
        yield lines, *_csv_columns(rows, picks)


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
    offset = np.int32 if len(buf) < 2**31 else np.intp  # int32 where it fits: half the memory
    sep = np.flatnonzero((buf == ord(",")) | (buf == ord("\n"))).astype(offset)
    newline = buf[sep] == ord("\n")
    n = len(sep) // width
    if len(sep) != n * width or np.count_nonzero(newline) != n:
        return None
    if not newline[width - 1 :: width].all():  # the newlines do not end every width-th field
        return None
    starts = np.concatenate(([0], sep[:-1] + 1), dtype=offset).reshape(n, width)
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


def _csv_columns(rows, picks: list[int | None]) -> tuple[list[list[str]], list[int]]:
    """The picked columns of a batch of CSV rows, a missing field read as "",
    and each row's number of fields."""
    widths = list(map(len, rows))
    width = 1 + max((j for j in picks if j is not None), default=-1)
    if min(widths) < width:
        rows = [row + [""] * (width - len(row)) for row in rows]
    return [[""] * len(rows) if j is None else [row[j] for row in rows] for j in picks], widths


def csv_text(value: str) -> str:
    """value as csv.writer renders it among other fields."""
    if _PLAIN_TEXT.fullmatch(value):  # nothing csv.writer would quote
        return value
    buf = io.StringIO()
    csv.writer(buf).writerow([value, ""])
    return buf.getvalue()[: -len(",\r\n")]


def _cell(value) -> str:
    """value as csv.writer writes it among other fields, a numpy float as the
    float it holds."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return csv_text(str(value))


def write(path, header, columns) -> None:
    """A CSV file of the header and the rows whose field j is columns[j]'s
    value, rows ended by \\r\\n. A float array is a column in which NaN marks
    a missing value: NaN is an empty cell, any other float its repr, run
    once per distinct bit pattern (so -0.0 and 0.0 stay apart). Each value
    of any other column goes through _cell(), so a NaN there is written nan.
    """
    cells = [_float_texts(c) if isinstance(c, np.ndarray) and c.dtype.kind == "f"
             else _cells(c) for c in columns]
    lines = map(",".join, chain([map(_cell, header)], zip(*cells)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(f"{line}\r\n" for line in lines)


def writes_plain(texts) -> bool:
    """Whether every value is a text that csv.writer writes as it is (a plain
    or empty one) and that reads back as one field within
    csv.field_size_limit(): found by one match over the texts joined."""
    if not set(map(type, texts)) <= {str}:
        return False
    joined = "".join(texts)
    return ((not joined or _PLAIN_TEXT.fullmatch(joined) is not None)
            and max(map(len, texts), default=0) <= csv.field_size_limit())


def _cells(values) -> list[str]:
    """_cell() of each value; a column of texts that csv.writer writes as they
    are is its own cells."""
    values = list(values)
    return values if writes_plain(values) else list(map(_cell, values))


def _float_texts(values: np.ndarray) -> list[str]:
    """repr of each float64, "" for NaN; values are viewed as int64 bits and
    argsorted once (np.unique would import numpy.ma, ~1 MB)."""
    bits = values.astype(np.float64, copy=False).view(np.int64)
    order = np.argsort(bits)
    ordered = bits[order]
    head = np.ones(len(bits), dtype=bool)
    head[1:] = ordered[1:] != ordered[:-1]
    distinct = ordered[head].view(np.float64).tolist()
    reprs = np.array(["" if v != v else repr(v) for v in distinct], dtype=object)
    out = np.empty(len(bits), dtype=object)
    out[order] = reprs[np.cumsum(head) - 1]
    return out.tolist()


def cache_path(path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".cache")


def file_digest(path, header: bytes) -> bytes | None:
    """sha256 of the bytes of path, read _READ bytes at a time into one buffer
    (hashlib.file_digest needs Python 3.11); None when its first line is not
    header."""
    sha, buf = hashlib.sha256(), bytearray(_READ)
    with open(path, "rb", buffering=0) as fh, memoryview(buf) as view:
        n = fh.readinto(buf)
        if n < len(header) or view[: len(header)] != header:
            return None
        while n:
            sha.update(view[:n])
            n = fh.readinto(buf)
    return sha.digest()


def read_cache(path, magic: bytes, version: int, header: bytes, read):
    """read(file, count, size) of path's cache, or None. The file stands past
    the CACHE_HEADER and size is the bytes left after it; read gives None for
    a body it does not accept. The cache counts only when its magic and
    version are these, path's first line is header and the hash is that of
    path's bytes; an unreadable cache or CSV counts as none."""
    try:
        with open(cache_path(path), "rb") as fh:
            got_magic, got_version, digest, count = CACHE_HEADER.unpack(fh.read(CACHE_HEADER.size))
            if (got_magic, got_version) != (magic, version) or digest != file_digest(path, header):
                return None
            return read(fh, count, os.fstat(fh.fileno()).st_size - CACHE_HEADER.size)
    except (OSError, ValueError, struct.error):
        return None

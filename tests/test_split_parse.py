"""Time-series files parsed in two halves, the back half by a forked worker,
against the same files parsed in this process and by the per-row reference
parser: the same index (session order and the bits of every column), issues,
counters and strict-mode error. A quote before the cut keeps a file serial,
with no worker forked. No worker outlives a parse, whether it ends in a
result, an error in either half, a worker's death or a ^C.

The split is forced on any machine: _SPLIT_BYTES drops to 0 and the CPU
check reports two CPUs, so a one-CPU runner splits too.
"""

from __future__ import annotations

import errno
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ingest_reference
from conftest import children, uncached
from fedcharge import csvio, ingest, pool
from fedcharge.cli import dispatch
from fedcharge.ingest import ParseError, parse_timeseries, write_timeseries
from test_csvio import files
from test_columnar import (
    PLAIN_CELLS,
    TIMESERIES_CELLS,
    chunk_sizes,
    csv_files,
    plain_csv_files,
    reading_line,
    run_lines,
    synthetic_index,
    traced,
)

pytestmark = pytest.mark.usefixtures("deadline")


@contextmanager
def parsed_in(mode: str, chunk_rows: int = 2, split_bytes: int = 0):
    """Parses split ("split", when the file has at least split_bytes) or not
    ("serial") in blocks of chunk_rows lines; yields the list of the jobs
    the split parses started. A cut falls only where a block starts, so the
    named cases split at 2 rows a block but not at 8,192."""
    made, start_job = [], pool.start_job

    def recorded(*args):
        job = start_job(*args)
        if job is not None:
            made.append(job)
        return job

    with (
        mock.patch.object(csvio, "CHUNK_ROWS", chunk_rows),
        mock.patch.object(ingest, "_SPLIT_BYTES", split_bytes if mode == "split" else 1 << 62),
        mock.patch.object(pool, "usable_cpus", lambda: 2),
        mock.patch.object(pool, "start_job", recorded),
    ):
        yield made


def bits(result) -> tuple:
    """Everything a parse returns, each column as its dtype and bytes."""
    columns = [(sid, *((c.dtype.str, c.tobytes()) for c in (s.t, s.current, s.pilot)))
               for sid, s in result.index.items()]
    return columns, result.issues, result.n_negative_clamped, result.n_duplicates_merged


def outcome(parse, path: Path, strict: bool):
    try:
        return parse(path, strict=strict)
    except ParseError as exc:
        return str(exc)


def assert_split_is_serial(path: Path, chunk_rows: int) -> list:
    """Split, serial and reference parses agree, lenient and strict. Returns
    the jobs the split parses started."""
    results, made = {}, {}
    for mode in ("split", "serial"):
        with parsed_in(mode, chunk_rows) as made[mode]:
            results[mode] = [outcome(parse_timeseries, path, strict) for strict in (False, True)]
    assert made["serial"] == []
    split, serial = ([r if isinstance(r, str) else bits(r) for r in results[mode]]
                     for mode in ("split", "serial"))
    assert split == serial
    for ours, strict in zip(results["split"], (False, True)):
        expected = outcome(ingest_reference.parse_timeseries, path, strict)
        assert ours == expected
        if not isinstance(ours, str):
            assert list(ours.index) == list(expected.index)
    return made["split"]


def file_with(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "timeseries.csv"
    path.write_text(text, encoding="utf-8", newline="")
    return path


N = 40


def case(name: str) -> str:
    """N readings of sessions A, B and C in order; B runs across the split,
    about row N / 2. Each case changes a row or two near one end."""
    rows: list = [("ABC"[3 * i // N], i, f"{i}.0") for i in range(N)]
    if name == "issues in both halves":  # strict mode fails on both
        rows[3] = ("A", 3, "abc")
        rows[N - 4] = "C,not-a-time,1.0,32.0\r\n"
    elif name == "stamps outside years 1-9999 in both halves":  # in UTC, once offset
        rows[3] = "A,0001-01-01T00:00:00+01:00,3.0,32.0\r\n"
        rows[N - 4] = "C,9999-12-31T23:59:59-01:00,36.0,32.0\r\n"
    elif name == "quote in the front":
        rows[3] = ("A", 3, '"3.0"')
    elif name == "quote in the back":
        rows[N - 4] = ("C", N - 4, '"36.0"')
    elif name == "bare cr in the front":  # a line end that no \n counts
        rows[3] = reading_line(3, "A", "3.0").replace("\r\n", "\r")
    elif name == "duplicates across the split":  # the back's row wins
        rows += [("A", 2, "-2.0"), ("B", 14, "-14.0")]
    elif name == "out of order across the split":
        rows.insert(N - 2, ("A", -5, "-5.0"))
    elif name == "new sessions in both halves":
        rows[N - 3], rows[2] = ("Y", 0, "1.0"), ("Z", 0, "1.0")
        rows.insert(N - 1, ("Z", 1, "2.0"))
    elif name == "no valid row in the front":  # the back's ids rank from 0
        rows = [(sid, i, "abc" if i < 2 * N // 3 else current) for sid, i, current in rows]
        rows.append(("D", 0, "1.0"))
    elif name == "no new session in the back":  # B, then A again: the back ranks B first
        rows = [("ABA"[3 * i // N], i, current) for _, i, current in rows]
    return run_lines(rows)


CASES = ["in order", "issues in both halves", "quote in the front", "quote in the back",
         "bare cr in the front", "duplicates across the split",
         "out of order across the split", "new sessions in both halves",
         "no valid row in the front", "no new session in the back",
         "stamps outside years 1-9999 in both halves"]


def back_line(path: Path, chunk_rows: int = 2) -> int:
    """The number of the first line the worker converts."""
    with parsed_in("split", chunk_rows):
        split = ingest._split_at(path)
    return path.read_bytes()[:split].count(b"\n") + 1


class TestSplitEqualsSerial:
    @pytest.mark.parametrize("chunk_rows", [1, 2, 8192])
    @pytest.mark.parametrize("name", CASES)
    def test_named_cases(self, tmp_path, name, chunk_rows):
        path = file_with(tmp_path, case(name))
        made = assert_split_is_serial(path, chunk_rows)
        # Lenient and strict; a quote before the cut keeps both serial, and
        # so does one block of every line, which leaves no block start to cut at.
        assert len(made) == (0 if name == "quote in the front" or chunk_rows > N else 2)

    @pytest.mark.parametrize("where", ["header", "end of the front", "start of the back"])
    def test_a_quote_before_the_cut_forks_no_worker(self, tmp_path, where):
        """Every byte before the cut is read for a quote, the header's too; a
        quote from the cut on leaves the file split."""
        path = file_with(tmp_path, case("in order"))
        with parsed_in("split"):
            cut = ingest._split_at(path)
        raw = bytearray(path.read_bytes())
        assert raw[cut - 2 : cut] == b"\r\n"
        raw[{"header": 0, "end of the front": cut - 3, "start of the back": cut}[where]] = ord('"')
        path.write_bytes(raw)
        made = assert_split_is_serial(path, 2)
        assert len(made) == (2 if where == "start of the back" else 0)

    def test_cases_place_their_rows_as_named(self, tmp_path):
        middle = back_line(file_with(tmp_path, case("in order")))
        assert 2 + N // 3 < middle < 2 + 2 * N // 3  # B's rows lie on both sides
        lenient = parse_timeseries(file_with(tmp_path, case("issues in both halves")))
        assert [line for line, _ in lenient.issues] == [5, N - 2]
        assert 5 < middle < N - 2
        lenient = parse_timeseries(file_with(tmp_path, case("no valid row in the front")))
        assert [line for line, _ in lenient.issues] == list(range(2, 2 + 2 * N // 3))
        assert middle < 2 + 2 * N // 3 and list(lenient.index) == ["B", "C", "D"]
        back = case("no new session in the back").splitlines(True)[middle - 1 :]
        assert {line[:1] for line in back} == {"A", "B"} and back[0][:1] == "B"

    @pytest.mark.parametrize("where, line", [("front", 5), ("back", N - 2), ("both", 5)])
    def test_bytes_not_utf8_name_the_first_line(self, tmp_path, where, line):
        lines = case("in order").encode().splitlines(True)
        for k in {"front": [4], "back": [N - 3], "both": [4, N - 3]}[where]:
            lines[k] = lines[k].replace(b"32.0", b"3\xff2.0")
        path = tmp_path / "timeseries.csv"
        path.write_bytes(b"".join(lines))
        assert 5 < back_line(path) < N - 2
        for mode in ("split", "serial"):
            with parsed_in(mode, 2) as made:
                for strict in (False, True):
                    with pytest.raises(ParseError) as info:
                        parse_timeseries(path, strict=strict)
                    assert str(info.value) == \
                        f"{path}:{line}: not valid UTF-8: b'\\xff' (invalid start byte)"
            assert len(made) == (2 if mode == "split" else 0)

    @pytest.mark.parametrize("chunk_rows", [2, 8192])
    def test_a_bad_byte_after_the_cut_and_a_fault_before_it(self, tmp_path, chunk_rows):
        """The parent reads the block that runs past the cut whole, as a
        serial parse does, so a byte that is not UTF-8 on the back's first
        line is met where a serial parse meets it: before a strict-mode fault
        on the front's last line when one block holds both."""
        path = file_with(tmp_path, case("in order"))
        back = back_line(path)
        lines = path.read_bytes().splitlines(True)
        lines[back - 2] = lines[back - 2].replace(b"32.0", b"abc")
        lines[back - 1] = lines[back - 1].replace(b"32.0", b"3\xff2.0")
        path.write_bytes(b"".join(lines))
        for strict in (False, True):
            errors = {}
            for mode in ("split", "serial"):
                with parsed_in(mode, chunk_rows) as made, pytest.raises(ParseError) as info:
                    parse_timeseries(path, strict=strict)
                assert len(made) == (mode == "split" and chunk_rows < N)
                errors[mode] = str(info.value)
            assert errors["split"] == errors["serial"]
        if chunk_rows == 8192:  # one block holds every line
            assert errors["split"] == \
                f"{path}:{back}: not valid UTF-8: b'\\xff' (invalid start byte)"

    def test_a_fault_and_a_bad_byte_in_one_serial_block(self, tmp_path):
        """The cut falls where a serial read starts a block, so the worker
        reads the serial parse's blocks. At 4 rows a block, `abc` on line 24
        and a byte that is not UTF-8 on line 25 share the block of lines
        22-25, whose bytes are checked before its rows are converted."""
        lines = case("in order").encode().splitlines(True)
        lines[23] = lines[23].replace(b"32.0", b"abc")
        lines[24] = lines[24].replace(b"32.0", b"3\xff2.0")
        path = tmp_path / "timeseries.csv"
        path.write_bytes(b"".join(lines))
        assert back_line(path, 1) == 21 and back_line(path, 4) == 22
        for mode in ("split", "serial"):
            with parsed_in(mode, 4) as made, pytest.raises(ParseError) as info:
                parse_timeseries(path, strict=True)
            assert len(made) == (mode == "split")
            assert str(info.value) == \
                f"{path}:25: not valid UTF-8: b'\\xff' (invalid start byte)"

    @settings(max_examples=100, deadline=None)
    @given(text=csv_files(TIMESERIES_CELLS), chunk_rows=chunk_sizes)
    def test_csv_files(self, text, chunk_rows):
        with tempfile.TemporaryDirectory() as tmp:
            assert_split_is_serial(file_with(Path(tmp), text), chunk_rows)

    @settings(max_examples=100, deadline=None)
    @given(text=plain_csv_files(PLAIN_CELLS["timeseries"]), chunk_rows=chunk_sizes)
    def test_plain_csv_files(self, text, chunk_rows):
        with tempfile.TemporaryDirectory() as tmp:
            assert_split_is_serial(file_with(Path(tmp), text), chunk_rows)

    def test_json_lines_stay_serial(self, tmp_path):
        path = tmp_path / "timeseries.jsonl"
        write_timeseries(path, synthetic_index(1))
        with parsed_in("split") as made:
            parse_timeseries(path)
        assert made == []


class TestCut:
    """_split_at, which counts line ends _SCAN bytes at a time, against
    ingest_reference.split_at, which cuts the front into the reader's blocks:
    the same cut or both None, for lines ended by \\n, \\r\\n or a bare
    \\r (across the edges of reads of a few bytes too), quotes on either
    side of the cut, any share of the file and 1 to 4,096 lines a block."""

    @staticmethod
    def cuts(path: Path, chunk_rows: int, share: float, scan: int) -> tuple:
        with mock.patch.object(csvio, "CHUNK_ROWS", chunk_rows), \
                mock.patch.multiple(ingest, _SPLIT_BYTES=0, _FRONT_SHARE=share, _SCAN=scan):
            return ingest._split_at(path), ingest_reference.split_at(path)

    @settings(max_examples=400, deadline=None)
    @given(raw=files(), chunk_rows=st.one_of(st.integers(1, 4), st.integers(1, 4_096)),
           share=st.floats(0, 1), scan=st.sampled_from([2, 3, 7, 64, ingest._SCAN]))
    def test_equals_the_reference(self, raw, chunk_rows, share, scan):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "timeseries.csv"
            path.write_bytes(raw)
            ours, expected = self.cuts(path, chunk_rows, share, scan)
        assert ours == expected

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
    @pytest.mark.parametrize("chunk_rows", [1, 3, 64, 4_096])
    def test_a_depot_file(self, tmp_path, end, chunk_rows):
        """A time-series file of 6,001 lines: a cut after the first block
        end past 47% of its bytes, and none once a quote comes before it."""
        lines = [b"session_id,timestamp,current_a,pilot_a"] + [
            b"S%d,2019-01-07T08:%02d:00Z,%d.0,32.0" % (i // 60, i % 60, i % 7) for i in range(6_000)]
        path = tmp_path / "timeseries.csv"
        raw = end.join(lines) + end
        path.write_bytes(raw)
        for scan in (7, ingest._SCAN):
            cut, expected = self.cuts(path, chunk_rows, 0.47, scan)
            assert cut == expected > 0.47 * len(raw)
            assert (raw[:cut].count(end) - 1) % chunk_rows == 0
        path.write_bytes(raw[:cut] + b'"' + raw[cut:])
        assert self.cuts(path, chunk_rows, 0.47, ingest._SCAN)[0] is not None
        path.write_bytes(raw[: cut - 5] + b'"' + raw[cut - 4 :])
        assert self.cuts(path, chunk_rows, 0.47, ingest._SCAN) == (None, None)


class TestSplitMemoryBound:
    """TestMemoryBound's bounds with the depot split: the worker's columns
    arrive without a second full copy."""

    @pytest.mark.parametrize("chunk_rows", [1024, csvio.CHUNK_ROWS])
    @pytest.mark.parametrize("shuffled, factor", [(False, 1.25), (True, 1.75)])
    def test_parse_peaks_under_its_result_plus_one_block(self, tmp_path, chunk_rows,
                                                          shuffled, factor):
        depot, block = tmp_path / "timeseries.csv", tmp_path / "block.csv"
        write_timeseries(depot, synthetic_index(5))  # over _SPLIT_BYTES
        uncached(depot)
        lines = depot.read_bytes().splitlines(True)
        if shuffled:
            order = np.random.default_rng(0).permutation(len(lines) - 1)
            depot.write_bytes(lines[0] + b"".join(lines[1 + i] for i in order))
        block.write_bytes(b"".join(lines[: 1 + chunk_rows]))
        # The default threshold: the depot is split, the block is not.
        with parsed_in("split", chunk_rows, ingest._SPLIT_BYTES) as made:
            _, one_block, _ = traced(parse_timeseries, block)
            assert made == []
            parsed, peak, held = traced(parse_timeseries, depot)
        assert len(made) == 2
        assert sum(map(len, parsed.index.values())) > 4 * chunk_rows
        assert peak <= factor * held + one_block


class TestWorkers:
    def test_an_array_crosses_the_pipe_once(self):
        """The reply's array is read straight into the buffer it is returned
        in: receiving it costs its own size, not a pickled copy as well."""
        n = 1 << 20
        with mock.patch.object(pool, "usable_cpus", lambda: 2):  # a one-CPU runner forks too
            workers = pool.Workers(1, lambda size: np.arange(size, dtype=float))
        try:
            workers.send(0, n)
            tracemalloc.start()
            try:
                reply = workers.recv(0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        finally:
            workers.close()
        assert np.array_equal(reply, np.arange(n, dtype=float))
        assert peak < 1.1 * reply.nbytes


class TestNoWorkerOutlivesAParse:
    @staticmethod
    def in_the_worker(die):
        """_convert_range, which calls die() when it runs in the worker."""
        parent, convert_range = os.getpid(), ingest._convert_range

        def dies_in_the_worker(job):
            if os.getpid() != parent:
                die()
            return convert_range(job)

        return mock.patch.object(ingest, "_convert_range", dies_in_the_worker)

    def test_dead_worker_names_the_file(self, tmp_path, capsys):
        path = file_with(tmp_path, case("in order"))
        with parsed_in("split"), self.in_the_worker(lambda: os._exit(3)):
            with pytest.raises(RuntimeError) as info:
                parse_timeseries(path)
            assert str(info.value) == \
                f"{path}: the worker parsing its back half exited with code 3"
            sessions = tmp_path / "sessions.csv"
            sessions.write_text("session_id,site_id,station_id,connection_time\r\n")
            assert dispatch(["featurize", "--sessions", str(sessions), "--timeseries", str(path),
                             "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {info.value}\n"

    def test_worker_killed_by_a_signal_names_the_file(self, tmp_path):
        path = file_with(tmp_path, case("in order"))
        with parsed_in("split"), self.in_the_worker(
                lambda: os.kill(os.getpid(), signal.SIGKILL)):
            with pytest.raises(RuntimeError) as info:
                parse_timeseries(path)
        assert str(info.value) == f"{path}: the worker parsing its back half exited with code -9"

    @pytest.mark.parametrize("half", ["front", "back"])
    def test_interrupted_parent_stops_the_worker(self, tmp_path, half):
        path = file_with(tmp_path, case("in order"))
        parent, seen = os.getpid(), []
        convert, receive = ingest._convert, pool._Job.result

        def interrupted(*args):
            seen.extend(children())
            raise KeyboardInterrupt

        with parsed_in("split"):
            if half == "front":  # the worker may still be converting
                patch = mock.patch.object(ingest, "_convert", lambda *args: (
                    interrupted() if os.getpid() == parent else convert(*args)))
            else:  # the worker has sent its half or is sending it
                patch = mock.patch.object(pool._Job, "result", lambda self: (
                    interrupted(), receive(self)))
            with patch, pytest.raises(KeyboardInterrupt):
                parse_timeseries(path)
        assert len(seen) == 1 and seen[0] not in children()
        assert children() == []


class TestSerialWhenNoWorkerStarts:
    """A parse that cannot fork its worker gives the serial result."""

    @staticmethod
    def cut_and_parse(path: Path):
        """(whether the file was cut, how many split parses started, the
        parse's bits) with the split forced."""
        cuts = []
        split_at = ingest._split_at
        with parsed_in("split") as made, mock.patch.object(
                ingest, "_split_at", lambda p: cuts.append(split_at(p)) or cuts[-1]):
            result = bits(parse_timeseries(path))
        return cuts[0] is not None, len(made), result

    @pytest.mark.parametrize("code", [errno.EAGAIN, errno.ENOMEM])
    def test_fork_fails(self, tmp_path, code):
        path = file_with(tmp_path, case("in order"))
        serial = bits(parse_timeseries(path))
        with mock.patch.object(os, "fork", side_effect=OSError(code, os.strerror(code))):
            assert self.cut_and_parse(path) == (True, 0, serial)
        assert children() == []

    def test_in_a_daemonic_process(self, tmp_path):
        """multiprocessing lets no daemonic process, such as a Pool's worker,
        start a child."""
        path = file_with(tmp_path, case("in order"))
        serial = bits(parse_timeseries(path))
        fork = multiprocessing.get_context("fork")
        here, there = fork.Pipe(duplex=False)

        def parse_in_child():
            try:
                there.send(self.cut_and_parse(path))
            except BaseException as exc:
                there.send(repr(exc))

        child = fork.Process(target=parse_in_child, daemon=True)
        child.start()
        try:
            assert here.poll(30)
            assert here.recv() == (True, 0, serial)
        finally:
            child.join(5)
        assert child.exitcode == 0


# `python -m fedcharge ARGS` with the split forced, reporting on stderr
# whether it split, whether a child process is left when it is done and
# whether multiprocessing was loaded.
LEFT_BEHIND = r"""
import os, runpy, sys
from fedcharge import csvio, ingest, pool
ingest._SPLIT_BYTES, pool.usable_cpus, csvio.CHUNK_ROWS = 0, lambda: 2, 64
made, start_job = [], pool.start_job
def recorded(*args):
    job = start_job(*args)
    if job is not None:
        made.append(job)
    return job
pool.start_job = recorded
sys.argv = ["fedcharge", *sys.argv[1:]]
try:
    runpy.run_module("fedcharge", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
try:
    os.waitpid(-1, os.WNOHANG)
    left = "a child is left"
except ChildProcessError:
    left = "no child is left"
loaded = "loaded" if "multiprocessing" in sys.modules else "not loaded"
print(f"{len(made)} split parse, {left}, multiprocessing {loaded}", file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("strict", [False, True])
def test_featurize_leaves_no_child_behind(tmp_path, strict):
    depot = tmp_path / "depot"
    assert dispatch(["synth", "--seed", "3", "--stations", "2", "--sessions-per-station", "3:3",
                     "--out", str(depot)]) == 0
    series = uncached(depot / "timeseries.csv")
    if strict:  # a bad row in the back half
        series.write_bytes(series.read_bytes() + b"x,not-a-time,1.0,32.0\r\n")
    src = str(Path(ingest.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    argv = ["featurize", "--in", str(depot), "--out", str(tmp_path / "feats")]
    proc = subprocess.run([sys.executable, "-c", LEFT_BEHIND, *argv, *["--strict"] * strict],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == strict
    assert proc.stderr.endswith("1 split parse, no child is left, multiprocessing not loaded\n")
    if strict:
        assert "not-a-time" in proc.stderr

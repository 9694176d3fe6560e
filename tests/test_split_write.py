"""Time-series files written in two halves, the back half by a forked worker,
against the same index written in this process: the same bytes, in CSV and
JSON lines, wherever the cut falls. The worker's bytes reach the file by
os.copy_file_range or, where that fails, by a buffered copy. A write that
cannot fork its worker writes serially; a worker that dies is named with the
file; no worker and no temporary file outlives a write, whether it ends in a
file, an error or a ^C.

The split is forced on any machine: _SPLIT_WRITE_BYTES drops to 0 and the
CPU check reports two CPUs, so a one-CPU runner splits too.
"""

from __future__ import annotations

import errno
import math
import multiprocessing
import os
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import children
from fedcharge import csvio, ingest, pool
from fedcharge.cli import dispatch
from fedcharge.ingest import write_timeseries
from fedcharge.sessions import SessionSeries
from test_columnar import WRITER_IDS, session_ids, synthetic_index, traced, writable_series

pytestmark = pytest.mark.usefixtures("deadline")


@contextmanager
def written_in(mode: str, chunk_rows: int = 2):
    """Writes split ("split") or not ("serial") in blocks of chunk_rows rows;
    yields the list of the jobs the split writes started."""
    made, start_job = [], pool.start_job

    def recorded(*args):
        job = start_job(*args)
        if job is not None:
            made.append(job)
        return job

    with (
        mock.patch.object(csvio, "CHUNK_ROWS", chunk_rows),
        mock.patch.object(ingest, "_SPLIT_WRITE_BYTES", 0 if mode == "split" else 1 << 62),
        mock.patch.object(pool, "usable_cpus", lambda: 2),
        mock.patch.object(pool, "start_job", recorded),
    ):
        yield made


def written(index, suffix: str, mode: str, chunk_rows: int = 2) -> bytes:
    """The bytes of index written in mode; a split write must fork and leave
    no file descriptor open."""
    fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None
    with tempfile.TemporaryDirectory() as tmp, written_in(mode, chunk_rows) as made:
        path = Path(tmp) / f"timeseries{suffix}"
        write_timeseries(path, index)
        assert len(made) == (mode == "split")
        assert os.listdir(tmp) == [path.name]
        data = path.read_bytes()
    if fds is not None:
        assert len(os.listdir("/proc/self/fd")) == len(fds)
    return data


def assert_split_is_serial(index, suffix: str, chunk_rows: int) -> bytes:
    split = written(index, suffix, "split", chunk_rows)
    assert split == written(index, suffix, "serial", chunk_rows)
    return split


EDGE_VALUES = [math.nan, -0.0, 0.0, 5e-324, 1e308, -1e308, 16.0, 31.5]


def series_of(n: int, start: int = 0) -> SessionSeries:
    """n readings a minute apart, cycling through EDGE_VALUES."""
    values = [EDGE_VALUES[(start + i) % len(EDGE_VALUES)] for i in range(n)]
    return SessionSeries(range(0, 60 * n, 60), values, [32.0] * n)


class TestSplitEqualsSerial:
    @settings(max_examples=60, deadline=None)
    @given(
        index=st.dictionaries(
            st.one_of(st.sampled_from(WRITER_IDS), session_ids), writable_series(), max_size=6
        ),
        suffix=st.sampled_from([".csv", ".jsonl"]),
        chunk_rows=st.sampled_from([1, 2, 3, 5, 4096]),
    )
    def test_any_index(self, index, suffix, chunk_rows):
        assert_split_is_serial(index, suffix, chunk_rows)

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 4, 5, 8, 4096])
    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_a_session_across_the_cut(self, suffix, chunk_rows):
        """Rows 0-15, cut at row 8: "b,c" holds rows 6-11 and an empty
        session sits beside the cut. The cut is on a block edge at 1, 2, 4
        and 8 rows a block, inside a block at 3 and 5, and every row is in
        the front block at 4,096."""
        index = {"a": series_of(6), "é\nq\"t": SessionSeries([], [], []), "b,c": series_of(6, 6),
                 "站-7": series_of(4, 12)}
        data = assert_split_is_serial(index, suffix, chunk_rows)
        assert data.count(b"\n") == 16 + (suffix == ".csv")

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_fewer_rows_than_halves(self, n):
        assert_split_is_serial({"s1": series_of(n), "s2": SessionSeries([], [], [])}, ".csv", 2)

    def test_an_empty_index(self):
        assert assert_split_is_serial({}, ".csv", 2) == b"session_id,timestamp,current_a,pilot_a\r\n"


@pytest.mark.parametrize("bad", [{"": series_of(3)}, {"b": series_of(3, 3), "a": SessionSeries(
    [0], [math.inf], [32.0])}])
def test_a_refused_index_forks_no_worker(tmp_path, bad):
    with written_in("split") as made, pytest.raises(ValueError):
        write_timeseries(tmp_path / "timeseries.csv", {"s": series_of(40), **bad})
    assert made == [] and os.listdir(tmp_path) == []


def test_the_parents_peak_does_not_grow_with_the_depot(tmp_path):
    """TestMemoryBound's bound with the write split: the back half never
    passes through this process's memory."""
    path = tmp_path / "timeseries.csv"
    with written_in("split", csvio.CHUNK_ROWS) as made:
        small, large = (traced(write_timeseries, path, synthetic_index(n))[1] for n in (2, 4))
    assert len(made) == 4  # traced writes twice
    assert large - small <= 256 * 200


class TestAppend:
    """The worker's bytes reach the file whole however the kernel copy fails."""

    INDEX = {"a": series_of(40), "b": series_of(30, 3)}

    @pytest.mark.parametrize("copied", [0, 1, 7])
    def test_the_copy_fails_after_some_bytes(self, copied):
        serial = written(self.INDEX, ".csv", "serial")
        real, calls = os.copy_file_range, []

        def copy_file_range(src, dst, count, offset_src):
            calls.append(offset_src)
            if offset_src >= copied:
                raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))
            return real(src, dst, min(count, 1), offset_src)  # one byte at a time

        with mock.patch.object(os, "copy_file_range", copy_file_range):
            assert written(self.INDEX, ".csv", "split") == serial
        assert calls == list(range(copied + 1))

    def test_the_copy_stops_short(self):
        serial = written(self.INDEX, ".jsonl", "serial")
        with mock.patch.object(os, "copy_file_range", lambda *args: 0):
            assert written(self.INDEX, ".jsonl", "split") == serial

    def test_no_kernel_copy(self, monkeypatch):
        serial = written(self.INDEX, ".csv", "serial")
        monkeypatch.delattr(os, "copy_file_range")
        assert written(self.INDEX, ".csv", "split") == serial


def synth(out: Path, fmt: str = "csv") -> int:
    return dispatch(["synth", "--seed", "3", "--stations", "2", "--sessions-per-station", "3:3",
                     "--format", fmt, "--out", str(out)])


@pytest.fixture(scope="module")
def serial_depot(tmp_path_factory) -> bytes:
    """The time-series bytes of the small depot, written serially."""
    out = tmp_path_factory.mktemp("serial")
    with written_in("serial", 64):
        assert synth(out) == 0
    return (out / "timeseries.csv").read_bytes()


def synth_split(out: Path):
    """(exit code, split writes started, the time-series bytes) of synth with
    the split forced."""
    with written_in("split", 64) as made:
        code = synth(out)
    return code, len(made), (out / "timeseries.csv").read_bytes()


class TestSerialWhenNoWorkerStarts:
    def test_the_split_depot_is_the_serial_one(self, tmp_path, serial_depot):
        assert synth_split(tmp_path) == (0, 1, serial_depot)

    @pytest.mark.parametrize("code", [errno.EAGAIN, errno.ENOMEM])
    def test_fork_fails(self, tmp_path, serial_depot, code):
        with mock.patch.object(os, "fork", side_effect=OSError(code, os.strerror(code))):
            assert synth_split(tmp_path) == (0, 0, serial_depot)
        assert children() == []

    def test_one_usable_cpu(self, tmp_path, serial_depot):
        with written_in("split", 64) as made, mock.patch.object(pool, "usable_cpus", lambda: 1):
            assert synth(tmp_path) == 0
        assert made == []
        assert (tmp_path / "timeseries.csv").read_bytes() == serial_depot

    def test_no_temporary_file_beside_the_output(self, tmp_path, serial_depot):
        """A directory where this process may write the output but make no
        other file."""
        denied = OSError(errno.EACCES, os.strerror(errno.EACCES))
        with mock.patch("tempfile.TemporaryFile", side_effect=denied):
            assert synth_split(tmp_path) == (0, 0, serial_depot)

    def test_in_a_daemonic_process(self, tmp_path, serial_depot):
        """multiprocessing lets no daemonic process, such as a Pool's worker,
        start a child."""
        fork = multiprocessing.get_context("fork")
        here, there = fork.Pipe(duplex=False)

        def synth_in_child():
            try:
                there.send(synth_split(tmp_path))
            except BaseException as exc:
                there.send(repr(exc))

        child = fork.Process(target=synth_in_child, daemon=True)
        child.start()
        try:
            assert here.poll(30)
            assert here.recv() == (0, 0, serial_depot)
        finally:
            child.join(5)
        assert child.exitcode == 0


class TestNoWorkerOutlivesAWrite:
    def test_dead_worker_names_the_file(self, tmp_path, capsys):
        parent, blocks_of = os.getpid(), ingest._blocks_of

        def dies_in_the_worker(*args):
            if os.getpid() != parent:
                os._exit(3)
            return blocks_of(*args)

        with mock.patch.object(ingest, "_blocks_of", dies_in_the_worker):
            code, made, _ = synth_split(tmp_path)
        path = tmp_path / "timeseries.csv"
        assert (code, made) == (1, 1)
        assert capsys.readouterr().err == \
            f"error: {path}: the worker writing its back half exited with code 3\n"

    @pytest.mark.parametrize("half", ["front", "back"])
    def test_interrupted_parent_stops_the_worker(self, tmp_path, half):
        parent, seen = os.getpid(), []
        blocks_of, receive = ingest._blocks_of, pool._Job.result

        def interrupted(*args):
            seen.extend(children())
            raise KeyboardInterrupt

        if half == "front":  # the worker may still be writing
            patch = mock.patch.object(ingest, "_blocks_of", lambda *args: (
                interrupted() if os.getpid() == parent else blocks_of(*args)))
        else:  # the worker has written its half or is writing it
            patch = mock.patch.object(pool._Job, "result", lambda self: (
                interrupted(), receive(self)))
        with written_in("split"), patch, pytest.raises(KeyboardInterrupt):
            write_timeseries(tmp_path / "timeseries.csv", {"a": series_of(40)})
        assert len(seen) == 1 and seen[0] not in children()
        assert children() == []
        assert os.listdir(tmp_path) == ["timeseries.csv"]


# `python -m fedcharge ARGS` with the write split forced, reporting on stderr
# how many split writes started, whether a child process is left, any file
# descriptor still open in the output directory and whether multiprocessing
# was loaded. Its first line of stdout is still in stdout's buffer when the
# worker forks.
LEFT_BEHIND = r"""
import os, runpy, sys
from fedcharge import csvio, ingest, pool
ingest._SPLIT_WRITE_BYTES, pool.usable_cpus, csvio.CHUNK_ROWS = 0, lambda: 2, 64
if os.environ.get("APPEND_FAILS"):
    def append(out, back):
        raise OSError("no space left")
    ingest._append = append
made, start_job = [], pool.start_job
def recorded(*args):
    job = start_job(*args)
    if job is not None:
        made.append(job)
    return job
pool.start_job = recorded
print("synth, its write split:")
out = os.path.realpath(sys.argv[-1])
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
def target(fd):  # the fd that listed the directory is gone by now
    try:
        return os.readlink(f"/proc/self/fd/{fd}")
    except FileNotFoundError:
        return ""
open_there = [fd for fd in os.listdir("/proc/self/fd") if target(fd).startswith(out + os.sep)]
print(f"{len(made)} split write, {left}, {len(open_there)} open in the output, "
      f"multiprocessing {loaded}", file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open files by /proc")
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("append_fails", [False, True])
def test_synth_leaves_no_child_or_temporary_file_behind(tmp_path, fmt, append_fails):
    src = str(Path(ingest.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as a pipe's is by default
    if append_fails:
        env["APPEND_FAILS"] = "1"
    out = tmp_path / "depot"
    argv = ["synth", "--seed", "3", "--stations", "2", "--sessions-per-station", "3:3",
            "--format", fmt, "--out", str(out)]
    proc = subprocess.run([sys.executable, "-c", LEFT_BEHIND, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == (2 if append_fails else 0)  # 2: an i/o error
    assert proc.stderr.endswith("1 split write, no child is left, 0 open in the output, "
                                "multiprocessing not loaded\n")
    assert sorted(os.listdir(out)) == \
        ["config.json"] * (not append_fails) + [f"sessions.{fmt}", f"timeseries.{fmt}"]
    if append_fails:
        assert "no space left" in proc.stderr
        assert proc.stdout == "synth, its write split:\n"
    else:  # the same synth, written serially to the same directory
        serial = subprocess.run([sys.executable, "-m", "fedcharge", *argv], env=env,
                                capture_output=True, text=True, timeout=60)
        assert proc.stdout == "synth, its write split:\n" + serial.stdout

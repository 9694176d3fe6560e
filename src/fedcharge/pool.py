"""Forked worker processes, and the pool that trains FedAvg clients on them.

Workers is the package's one fork implementation. Its users are ClientPool
(below), which trains federation's FedAvg clients, and start_job, whose one
worker converts or formats the back half of a large time-series file for
ingest's parse or writer. Workers raises CannotFork, leaving no worker,
where this process cannot fork: with fewer than two usable CPUs, no
os.fork, in a daemonic multiprocessing process or when a fork raises
OSError. ClientPool also raises it, before it forks or sets a thread count,
where the OpenBLAS thread count cannot be set (blas_threads() is None).
Each user then does all of its work here; every such condition of the host
is decided in this module.

A worker is forked by os.fork with SIGINT blocked and then ignores it, so a
^C reaches only the parent, which kills its workers. stdout and stderr are
flushed before the fork, and a worker leaves only by os._exit, so it never
returns into the parent's stack or writes their text twice. Messages cross
two pipes, one each way, as frames: sizes, the message pickled with its
numpy arrays out of band, and the arrays' bytes, which cross once, straight
into a buffer the receiver allocates. An exception a worker raises goes back
and is raised in the parent; a worker that dies makes the parent raise a
RuntimeError with its exit code (-N for signal N). A worker whose pipes close
exits when done with its current message, and is reaped by os.waitpid when
its Workers closes, on every exit path. This module alone imports ctypes and
calls os.fork and os.waitpid, so the workers' heap and BLAS settings live
here; no module imports multiprocessing.

ClientPool forks its workers once per run, so each one inherits the model,
every client's rows and the training function without a copy or a pickle.
Parameter vectors never cross a pipe. θ_global and each θ_k live in one
shared (1 + m, P) float64 buffer of anonymous mmap memory: row 0 holds the
global parameters, row 1 + p the update of the client at sampled position p.
A pipe carries only (round, [(position, client)]) to a worker and a status
back: None, or the first position that failed with its exception. Row 0
of every round after the first holds the last round's result: the workers
first predict the evaluated splits from it, split k on worker
k mod n_workers, and those predictions come back before the round's status.

Every process runs one OpenBLAS thread while a ClientPool is open, and the
parent's count is restored when it closes. A client's products are small,
and an idle BLAS thread of the parent spins on a core the workers need.
Training that stays in this process (every centralized run, and FedAvg
where no pool starts) runs under serial_training, with a worker's thread
count and heap.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
import os
import pickle
import signal
import sys
from contextlib import contextmanager, suppress

import numpy as np

from .models import ModelParameters

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters

# The thread-count functions of the OpenBLAS builds numpy ships or links.
_BLAS_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "openblas_{}_num_threads")


def usable_cpus() -> int:
    """How many processes can run side by side here: the CPUs this process
    may run on, or 0 where there is no os.fork."""
    if not hasattr(os, "fork"):
        return 0
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def blas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, or None
    when no OpenBLAS is mapped into this process or it has no such functions."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in _BLAS_SYMBOLS:
            get, set_ = (getattr(dll, symbol.format(verb), None) for verb in ("get", "set"))
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _pin_heap() -> None:
    """Keep a trainer's freed memory in glibc's heap. A client's Adam state
    and gradients are freed at the top of the heap; trimmed off there, they
    came back as ~700 page faults per client. Keep up to 64 MB of free heap
    instead. That also fixes the mmap threshold at this process's, which may
    be 128 KB: then each 256 KB gradient and 1 MB Adam state is mapped anew.
    Pin it at 16 MB. The settings last for the life of the process."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)
        mallopt(_M_MMAP_THRESHOLD, 16 << 20)


@contextmanager
def serial_training():
    """The environment a ClientPool gives its workers, for training in this
    process: one OpenBLAS thread where its count can be set, the count
    restored on leaving, and the pinned heap (_pin_heap)."""
    get, set_ = blas_threads() or (lambda: None, lambda count: None)
    before = get()
    set_(1)
    _pin_heap()
    try:
        yield
    finally:
        set_(before)


def _send(fd: int, obj) -> None:
    """Write obj to the pipe fd as one frame: the number of its parts and
    their sizes, then its pickle and the bytes of each array in it."""
    buffers = []
    data = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    views = [buf.raw() for buf in buffers]
    sizes = np.array([1 + len(views), len(data), *(view.nbytes for view in views)], np.int64)
    for view in (memoryview(sizes.tobytes() + data), *views):
        while view:
            view = view[os.write(fd, view):]


def _read(fd: int, buf):
    """buf, filled from the pipe fd; EOFError where the pipe ends first."""
    view = memoryview(buf).cast("B")
    while view:
        n = os.readv(fd, [view])
        if not n:
            raise EOFError
        view = view[n:]
    return buf


def _recv(fd: int):
    """The object of the next frame on the pipe fd; each array is read into a
    buffer of its own size."""
    count = int(_read(fd, np.empty(1, np.int64))[0])
    sizes = _read(fd, np.empty(count, np.int64)).tolist()
    data = _read(fd, bytearray(sizes[0]))
    return pickle.loads(data, buffers=[_read(fd, np.empty(size, np.uint8)) for size in sizes[1:]])


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        with suppress(AttributeError, ValueError):  # None, or closed
            stream.flush()


def _worker_loop(messages: int, answers: int, handle, setup) -> None:
    """A worker's loop, until the pipe of messages ends."""
    if setup is not None:
        setup()
    while True:
        try:
            message = _recv(messages)
        except EOFError:
            return
        try:
            reply = (True, handle(message))
        except Exception as exc:
            reply = (False, exc)
        _send(answers, reply)


class CannotFork(Exception):
    """This process cannot fork workers (see the module docstring)."""


class Workers:
    """n_workers forked processes, each answering the messages sent to it,
    in order, with handle(message); setup(), if given, runs first in each. A
    worker that exits before it answers is a RuntimeError(died(pid, exit
    code)). close(), or leaving the with-block, stops and reaps them.
    CannotFork: see the module docstring."""

    def __init__(self, n_workers: int, handle, setup=None,
                 died=lambda pid, code: f"worker {pid} exited with code {code}"):
        mp = sys.modules.get("multiprocessing")  # a daemonic process has loaded it
        if usable_cpus() < 2 or (mp is not None and mp.current_process().daemon):
            raise CannotFork
        self._pids: list[int | None] = []     # None for a worker reaped
        self._fds: list[tuple[int, int]] = []  # per worker: its answers, its messages
        self._died = died
        _flush_std_streams()
        # SIGINT stays blocked from each fork until the worker ignores it, so
        # a ^C in between reaches only the parent.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for _ in range(n_workers):
                self._fork(handle, setup)
        except BaseException as exc:
            self.close(clean=False)
            if isinstance(exc, OSError):  # EAGAIN or ENOMEM from fork, say
                raise CannotFork from exc
            raise
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def __enter__(self) -> "Workers":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(clean=exc_type is None)

    def _fork(self, handle, setup) -> None:
        """Start one worker, keeping this process's ends of its two pipes."""
        fds: list[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except BaseException:
            for fd in fds:
                os.close(fd)
            raise
        messages, to_worker, answers, to_parent = fds
        if pid == 0:
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
                for fd in (to_worker, answers, *(fd for ends in self._fds for fd in ends)):
                    os.close(fd)  # the parent's ends: this worker's and earlier workers'
                _worker_loop(messages, to_parent, handle, setup)
                code = 0
            except BaseException:
                sys.excepthook(*sys.exc_info())
            finally:
                _flush_std_streams()
                os._exit(code)
        os.close(messages)
        os.close(to_parent)
        self._pids.append(pid)
        self._fds.append((answers, to_worker))

    def send(self, k: int, message) -> None:
        """Hand worker k a message; a dead worker is reported by recv."""
        with suppress(OSError):
            _send(self._fds[k][1], message)

    def recv(self, k: int):
        """Worker k's answer to the oldest message it has not answered; the
        exception handle raised there, or a RuntimeError if the worker died."""
        try:
            ok, value = _recv(self._fds[k][0])
        except (EOFError, OSError):
            pid, self._pids[k] = self._pids[k], None
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            raise RuntimeError(self._died(pid, code)) from None
        if not ok:
            raise value
        return value

    def shut(self) -> None:
        """Close this process's ends of the pipes: each worker exits when it
        is done with its current message."""
        for fd in (fd for ends in self._fds for fd in ends):
            os.close(fd)
        self._fds = []

    def close(self, clean: bool = True) -> None:
        """Stop the workers and reap them; clean lets each one finish its
        current message first, else they are killed. Closing twice does
        nothing."""
        pids = [pid for pid in self._pids if pid is not None]
        for pid in pids if not clean else ():
            os.kill(pid, signal.SIGKILL)
        self.shut()
        for pid in pids:
            os.waitpid(pid, 0)
        self._pids = []


def start_job(handle, job, name: str) -> "_Job | None":
    """handle(job), started in one forked worker, or None where this process
    cannot fork (CannotFork) and so does the job itself."""
    with suppress(CannotFork):
        worker = _Job(1, handle, died=lambda pid, code: f"{name} exited with code {code}")
        worker.send(0, job)
        return worker
    return None


class _Job(Workers):
    """One worker answering one job while this process goes on; its with-block reaps it."""

    def result(self):
        """handle(job), or the exception it raised; then the pipes close."""
        try:
            return self.recv(0)
        finally:
            self.shut()


class ClientPool(Workers):
    """n_workers forked processes, each calling train(r, position, client,
    global_params) -> ModelParameters for its share of one FedAvg round's
    clients. predictors[k](params) gives the predictions of evaluated split k.
    CannotFork where Workers raises it or no OpenBLAS thread count can be set.

    dispatch() starts a round and returns at once; collect() waits for it. A
    round's positions go to the workers in turn (position p to worker
    p mod n_workers), and each worker trains its positions in order. A worker
    that dies is named with the round. Leaving the pool's with-block stops
    the workers: at once when an exception leaves it (a round may still be in
    flight), after their current message otherwise.
    """

    def __init__(self, n_workers: int, layout, slots: int, train, predictors):
        threads = blas_threads()
        if threads is None:
            raise CannotFork
        self._get_threads, self._set_threads = threads
        self._layout = layout
        self._rows = np.frombuffer(mmap.mmap(-1, (1 + slots) * layout.total * 8),
                                   dtype=np.float64).reshape(1 + slots, layout.total)
        self._train, self._predictors = train, predictors
        self._n_workers = n_workers
        self._round: tuple[int, tuple] | None = None
        self._threads_before = self._get_threads()
        self._set_threads(1)
        try:
            super().__init__(n_workers, self._serve, self._set_up_worker, lambda pid, code: (
                f"federated training worker {pid} exited with code {code} in round "
                f"{self._round[0] + 1}"))
        except BaseException:
            self._set_threads(self._threads_before)
            raise

    def _set_up_worker(self) -> None:
        self._set_threads(1)
        np.seterr(all="ignore")             # as in the parent's round loop
        _pin_heap()

    def _serve(self, message):
        """A worker's answer: for a split k, its predictions from row 0; for
        (r, tasks), its positions of round r in order, and then None or the
        first position that failed and its exception."""
        global_params = ModelParameters(self._layout, self._rows[0])
        if isinstance(message, int):
            return self._predictors[message](global_params)
        r, tasks = message
        for pos, client in tasks:
            try:
                self._rows[1 + pos] = self._train(r, pos, client, global_params).values
            except Exception as exc:
                return pos, exc
        return None

    def dispatch(self, r: int, clients: tuple, global_params: ModelParameters) -> None:
        """Start training round r's clients from global_params. From round 1
        on, global_params are the last round's result, and the workers first
        predict each split from them (see predictions())."""
        self._rows[0] = global_params.values
        self._round = (r, clients)
        n = self._n_workers
        for w in range(n):
            for k in range(w, len(self._predictors) if r else 0, n):
                self.send(w, k)
            self.send(w, (r, [(pos, cid) for pos, cid in enumerate(clients)][w::n]))

    def predictions(self) -> list[np.ndarray]:
        """Each split's predictions of the parameters that the round just
        dispatched (not round 0) started from, in split order."""
        return [self.recv(k % self._n_workers) for k in range(len(self._predictors))]

    def collect(self) -> tuple[tuple, list[ModelParameters]]:
        """The dispatched round's clients and their updates in sampled order.

        Raises the exception of the first position that failed, as training
        the clients one after another would, or a RuntimeError naming the
        round when a worker died.
        """
        clients = self._round[1]
        statuses = [self.recv(w) for w in range(self._n_workers)]
        failures = [status for status in statuses if status is not None]
        self._round = None
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
        return clients, [ModelParameters(self._layout, row) for row in self._rows[1 : 1 + len(clients)]]

    def close(self, clean: bool = True) -> None:
        """Stop the workers, reap them and restore the BLAS thread count."""
        super().close(clean)
        self._set_threads(self._threads_before)

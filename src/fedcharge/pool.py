"""Forked worker processes, and the pool that trains FedAvg clients on them.

Workers is the package's one fork implementation. Four users start workers
through it: federation.run_federated, whose ClientPool (below) trains the
sampled clients of each round and predicts the evaluated splits;
federation.run_centralized, whose one-worker ClientPool trains the epochs
and holds their Adam state; ingest.parse_timeseries, whose worker converts
the back half of a large time-series file; and ingest.write_timeseries,
whose worker formats the back half of a large one's rows. Workers raises
CannotFork, leaving no worker, where this process cannot fork: with fewer
than two usable CPUs, no os.fork, in a daemonic process or when a fork
raises OSError. Each user then runs serially: the parse reads and the
writer writes the whole file here, and a trainer trains each round in turn.

A worker is forked with SIGINT blocked and then ignores it, so a ^C reaches
only the parent, which stops its workers. Messages cross a pipe both ways,
pickled with their numpy arrays out of band: an array's bytes cross once,
straight into a buffer the receiver allocates. An exception a worker raises
goes back and is raised in the parent; a worker that dies makes the parent
raise WorkerDied. Every worker is reaped when its Workers closes, on every
exit path. Importing this module does not import multiprocessing (about
1 MB of RSS and 10 ms), which only forking needs. This module alone
imports multiprocessing and ctypes, so the workers' heap and BLAS settings
live here.

ClientPool forks its workers once per run, so each one inherits the model,
every client's rows and the training function without a copy or a pickle.
Parameter vectors never cross a pipe. θ_global and each θ_k live in one
shared (1 + m, P) float64 buffer of anonymous mmap memory: row 0 holds the
global parameters, row 1 + p the update of the client at sampled position p.
A pipe carries only (round, [(position, client)]) to a worker and a status
back: None, or the first position that failed with its exception. Row 0
of every round after the first holds the last round's result: given
predictors, the workers first predict the evaluated splits from it, split k
on worker k mod n_workers, and those predictions come back before the
round's status.

Every process runs one OpenBLAS thread while a ClientPool is open, and the
parent's count is restored when it closes. A client's products are small,
and an idle BLAS thread of the parent spins on a core the workers need.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
import os
import pickle
import signal

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


def _send(conn, obj) -> None:
    """Pickle obj through conn, the bytes of its arrays after it, unframed."""
    buffers = []
    data = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    views = [buf.raw() for buf in buffers]
    conn.send((data, [view.nbytes for view in views]))
    for view in views:
        while view:
            view = view[os.write(conn.fileno(), view):]


def _recv(conn):
    """What _send sent; each array is read into a buffer of its own size."""
    data, sizes = conn.recv()
    buffers = [np.empty(size, np.uint8) for size in sizes]
    for buf in buffers:
        view = memoryview(buf)
        while view:
            n = os.readv(conn.fileno(), [view])
            if not n:
                raise EOFError
            view = view[n:]
    return pickle.loads(data, buffers=buffers)


class CannotFork(Exception):
    """This process cannot fork workers (see the module docstring)."""


class WorkerDied(RuntimeError):
    """A worker exited before it answered."""

    def __init__(self, pid: int, exitcode: int | None):
        super().__init__(f"worker {pid} exited with code {exitcode}")
        self.pid = pid
        self.exitcode = exitcode


class Workers:
    """n_workers forked processes, each answering the messages sent to it,
    in order, with handle(message). setup(), if given, runs first in each.
    close() stops and reaps them. CannotFork: see the module docstring.
    """

    def __init__(self, n_workers: int, handle, setup=None):
        import multiprocessing  # only here: see the module docstring

        if usable_cpus() < 2 or multiprocessing.current_process().daemon:
            raise CannotFork
        fork = multiprocessing.get_context("fork")
        self._procs: list = []
        self._conns: list = []
        # SIGINT stays blocked from each fork until the worker ignores it, so
        # a ^C in between reaches only the parent.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for _ in range(n_workers):
                here, there = fork.Pipe()
                proc = fork.Process(target=self._serve, args=(there, here, handle, setup),
                                    daemon=True)
                proc.start()
                there.close()
                self._procs.append(proc)
                self._conns.append(here)
        except BaseException as exc:
            self.close(clean=False)
            if isinstance(exc, OSError):  # EAGAIN or ENOMEM from fork, say
                raise CannotFork from exc
            raise
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def _serve(self, conn, parent_end, handle, setup) -> None:
        """A worker's loop, until the message None or the parent's end of the
        pipe closes. An exception of handle goes back through the pipe."""
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        parent_end.close()
        for other in self._conns:           # earlier workers' parent ends
            other.close()
        if setup is not None:
            setup()
        while True:
            try:
                message = _recv(conn)
            except EOFError:                # the parent is gone
                return
            if message is None:
                return
            try:
                reply = (True, handle(message))
            except Exception as exc:
                reply = (False, exc)
            _send(conn, reply)

    def send(self, k: int, message) -> None:
        """Hand worker k a message; a dead worker is reported by recv."""
        try:
            _send(self._conns[k], message)
        except OSError:
            pass

    def recv(self, k: int):
        """Worker k's answer to the oldest message it has not answered.

        Raises the exception handle raised in the worker, or WorkerDied.
        """
        try:
            ok, value = _recv(self._conns[k])
        except (EOFError, OSError):
            proc = self._procs[k]
            proc.join(1.0)
            raise WorkerDied(proc.pid, proc.exitcode) from None
        if not ok:
            raise value
        return value

    def close(self, clean: bool = True) -> None:
        """Stop the workers and reap them; clean lets each one finish its
        current message first. Closing twice does nothing."""
        for k, proc in enumerate(self._procs):
            if clean:
                self.send(k, None)
            else:
                proc.kill()
        for proc, conn in zip(self._procs, self._conns):
            proc.join(5.0 if clean else None)
            if proc.exitcode is None:
                proc.kill()
                proc.join()
            conn.close()
        self._procs, self._conns = [], []


class ClientPool:
    """n_workers forked processes, each calling train(r, position, client,
    global_params) -> ModelParameters for its share of one round's clients.
    predictors[k](params) gives the predictions of evaluated split k.

    dispatch() starts a round and returns at once; collect() waits for it. A
    round's positions go to the workers in turn (position p to worker
    p mod n_workers), and each worker trains its positions in order. mode and
    unit name the run and its rounds when a worker dies. Leaving the pool's
    with-block stops the workers: at once when an exception leaves it (a
    round may still be in flight), after their current message otherwise.
    """

    def __init__(self, n_workers: int, layout, slots: int, train, predictors=(), *,
                 mode: str, unit: str):
        self._layout = layout
        self._rows = np.frombuffer(mmap.mmap(-1, (1 + slots) * layout.total * 8),
                                   dtype=np.float64).reshape(1 + slots, layout.total)
        self._train, self._predictors = train, predictors
        self._n_workers = n_workers
        self._names = mode, unit
        self._round: tuple[int, tuple] | None = None
        self._get_threads, self._set_threads = blas_threads()
        self._threads_before = self._get_threads()
        self._set_threads(1)
        try:
            self._workers = Workers(n_workers, self._serve, self._set_up_worker)
        except BaseException:
            self._set_threads(self._threads_before)
            raise

    def __enter__(self) -> "ClientPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(clean=exc_type is None)

    def _set_up_worker(self) -> None:
        self._set_threads(1)
        np.seterr(all="ignore")             # as in the parent's round loop
        # A client's Adam state and gradients are freed at the top of the
        # worker's heap; trimmed off there, they came back as ~700 page faults
        # per client. Keep up to 64 MB of free heap instead. That also fixes
        # the mmap threshold at the parent's, which may be 128 KB: then each
        # 256 KB gradient and 1 MB Adam state is mapped anew. Pin it at 16 MB.
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
            mallopt(_M_TRIM_THRESHOLD, 64 << 20)
            mallopt(_M_MMAP_THRESHOLD, 16 << 20)

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
                self._workers.send(w, k)
            self._workers.send(w, (r, [(pos, cid) for pos, cid in enumerate(clients)][w::n]))

    def predictions(self) -> list[np.ndarray]:
        """Each split's predictions of the parameters that the round just
        dispatched (not round 0) started from, in split order."""
        return [self._recv(k % self._n_workers) for k in range(len(self._predictors))]

    def collect(self) -> tuple[tuple, list[ModelParameters]]:
        """The dispatched round's clients and their updates in sampled order.

        Raises the exception of the first position that failed, as training
        the clients one after another would, or a RuntimeError naming the
        round when a worker died.
        """
        clients = self._round[1]
        statuses = [self._recv(w) for w in range(self._n_workers)]
        failures = [status for status in statuses if status is not None]
        self._round = None
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
        return clients, [ModelParameters(self._layout, row) for row in self._rows[1 : 1 + len(clients)]]

    def _recv(self, w: int):
        """Worker w's next answer; a RuntimeError naming the round when it died."""
        try:
            return self._workers.recv(w)
        except WorkerDied as dead:
            mode, unit = self._names
            raise RuntimeError(f"{mode} training worker {dead.pid} exited with code "
                               f"{dead.exitcode} in {unit} {self._round[0] + 1}") from None

    def close(self, clean: bool = True) -> None:
        """Stop the workers, reap them and restore the BLAS thread count."""
        self._workers.close(clean)
        self._set_threads(self._threads_before)

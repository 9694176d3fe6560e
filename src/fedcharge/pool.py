"""Forked workers that train the sampled clients of FedAvg rounds.

The workers are forked once per run, so each one inherits the model, every
client's rows and the training function without a copy or a pickle.
Parameter vectors never cross a pipe. θ_global and each θ_k live in one
shared (1 + m, P) float64 buffer of anonymous mmap memory: row 0 holds the
global parameters, row 1 + p the update of the client at sampled position p.
A pipe carries only (round, [(position, client)]) to a worker and a status
back: None, or the first position that failed with its exception.

Every process runs one OpenBLAS thread while the pool is open, and the
parent's count is restored when it closes. A client's products are small,
and an idle BLAS thread of the parent spins on a core the workers need.

federation.py imports this module only for a run that passes the pool's
other checks (see federation._pool_size), since multiprocessing costs about
1 MB of RSS and 10 ms to import.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
import multiprocessing
import multiprocessing.connection
import signal

import numpy as np

from .models import ModelParameters

# glibc's mallopt parameter for how much free memory the top of the heap may
# hold before free() gives it back to the system.
_M_TRIM_THRESHOLD = -1

# The thread-count functions of the OpenBLAS builds numpy ships or links.
_BLAS_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "openblas_{}_num_threads")


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


class ClientPool:
    """n_workers forked processes, each calling train(r, position, client,
    global_params) -> ModelParameters for its share of one round's clients.

    dispatch() starts a round and returns at once; collect() waits for it. A
    round's positions go to the workers in turn (position p to worker
    p mod n_workers), and each worker trains its positions in order. Leaving
    the pool's with-block stops the workers: at once when an exception leaves
    it (a round may still be in flight), after their current message
    otherwise.
    """

    def __init__(self, n_workers: int, layout, slots: int, train):
        self._layout = layout
        self._rows = np.frombuffer(mmap.mmap(-1, (1 + slots) * layout.total * 8),
                                   dtype=np.float64).reshape(1 + slots, layout.total)
        self._train = train
        self._get_threads, self._set_threads = blas_threads()
        self._threads_before = self._get_threads()
        self._set_threads(1)
        self._workers: list[tuple[multiprocessing.Process, multiprocessing.connection.Connection]] = []
        self._round: tuple[int, tuple] | None = None
        fork = multiprocessing.get_context("fork")
        # SIGINT stays blocked from each fork until the worker ignores it, so
        # a ^C in between reaches only the parent.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for _ in range(n_workers):
                here, there = fork.Pipe()
                proc = fork.Process(target=self._serve, args=(there, here), daemon=True)
                proc.start()
                there.close()
                self._workers.append((proc, here))
        except BaseException:
            self.close(clean=False)
            raise
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def __enter__(self) -> "ClientPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(clean=exc_type is None)

    def _serve(self, conn, parent_end) -> None:
        """A worker's loop. It reports every failure through its pipe, never
        on stderr; ^C reaches the parent, which stops the pool."""
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        parent_end.close()
        for _, other in self._workers:      # earlier workers' parent ends
            other.close()
        self._set_threads(1)
        np.seterr(all="ignore")             # as in the parent's round loop
        # A client's Adam state and gradients are freed at the top of the
        # worker's heap; trimmed off there, they came back as ~700 page faults
        # per client. Keep up to 64 MB of free heap instead.
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
            mallopt(_M_TRIM_THRESHOLD, 64 << 20)
        while True:
            try:
                message = conn.recv()
            except EOFError:                # the parent is gone
                return
            if message is None:
                return
            r, tasks = message
            global_params = ModelParameters(self._layout, self._rows[0])
            status = None
            for pos, client in tasks:
                try:
                    self._rows[1 + pos] = self._train(r, pos, client, global_params).values
                except Exception as exc:
                    status = (pos, exc)
                    break
            conn.send(status)

    def dispatch(self, r: int, clients: tuple, global_params: ModelParameters) -> None:
        """Start training round r's clients from global_params."""
        self._rows[0] = global_params.values
        self._round = (r, clients)
        n = len(self._workers)
        for w, (_, conn) in enumerate(self._workers):
            try:
                conn.send((r, [(pos, cid) for pos, cid in enumerate(clients)][w::n]))
            except OSError:                 # a dead worker; collect() reports it
                pass

    def collect(self) -> tuple[tuple, list[ModelParameters]]:
        """The dispatched round's clients and their updates in sampled order.

        Raises the exception of the first position that failed, as training
        the clients one after another would, or a RuntimeError naming the
        round when a worker died.
        """
        r, clients = self._round
        self._round = None
        procs = {conn: proc for proc, conn in self._workers}
        failures = []
        while procs:
            for conn in multiprocessing.connection.wait(list(procs)):
                proc = procs.pop(conn)
                try:
                    status = conn.recv()
                except (EOFError, OSError):
                    proc.join(1.0)
                    raise RuntimeError(f"federated training worker {proc.pid} exited with "
                                       f"code {proc.exitcode} in round {r + 1}") from None
                if status is not None:
                    failures.append(status)
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
        return clients, [ModelParameters(self._layout, row) for row in self._rows[1 : 1 + len(clients)]]

    def close(self, clean: bool = True) -> None:
        """Stop the workers, reap them and restore the BLAS thread count."""
        for proc, conn in self._workers:
            if clean:
                try:
                    conn.send(None)
                except OSError:
                    pass
            else:
                proc.kill()
        for proc, conn in self._workers:
            proc.join(5.0 if clean else None)
            if proc.exitcode is None:
                proc.kill()
                proc.join()
            conn.close()
        self._workers = []
        self._set_threads(self._threads_before)

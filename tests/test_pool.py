"""FedAvg rounds trained in forked workers against the same rounds trained
one after another in this process: bit for bit, on every failure path,
where this process cannot fork, and with no process left behind. Centralized
runs train every epoch in this process and start no process. A reply's
array crosses a worker's pipe once.

A wrapped federation.local_train keeps FedAvg serial (as a traced run's
wrappers do), so every pooled result here has a serial oracle.
"""

from __future__ import annotations

import errno
import functools
import gc
import multiprocessing
import os
import re
import resource
import signal
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import fedcharge
import fedcharge.federation as federation
from conftest import children
from fedcharge import pool
from fedcharge import cli
from fedcharge.cli import dispatch
from fedcharge.evaluation import build_model, prepare_splits, split
from fedcharge.federation import (
    CentralConfig,
    FedConfig,
    run_centralized,
    run_federated,
    sample_clients,
)
from fedcharge.models import LinearRegressor, MlpRegressor, set_params
from fedcharge.partition import partition_by_station

pytestmark = pytest.mark.skipif(
    pool.usable_cpus() < 2 or pool.blas_threads() is None,
    reason="the pool needs two usable CPUs, os.fork and a settable OpenBLAS")

DIVERGED = r"federated training diverged in round {} at lr {}: the {} is (nan|inf)"
CENTRAL_DIVERGED = r"centralized training diverged in epoch {} at lr {}: the {} is (nan|inf)"


@pytest.fixture(autouse=True)
def deadline():
    """A parent that would wait on its workers forever fails its test instead
    of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError("the test ran for over 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def prepared(small_table):
    return prepare_splits(small_table, split(len(small_table), seed=11))


def train_serially(monkeypatch) -> None:
    """Makes FedAvg train every round in this process."""
    own = federation.local_train
    monkeypatch.setattr(federation, "local_train", lambda *args: own(*args))


@pytest.fixture
def dispatched(monkeypatch):
    """The (round, clients) of every round handed to a pool."""
    calls = []
    original = pool.ClientPool.dispatch

    def spy(self, r, clients, global_params):
        calls.append((r, clients))
        return original(self, r, clients, global_params)

    monkeypatch.setattr(pool.ClientPool, "dispatch", spy)
    return calls


def fit(prepared, kind: str, cfg: FedConfig | CentralConfig):
    """The run's result and the test predictions of its best parameters."""
    data = prepared.data
    model = build_model(kind, data.X_train.shape[1], prepared.vocab.cardinality, cfg.seed)
    result = (run_federated if isinstance(cfg, FedConfig) else run_centralized)(data, model, cfg)
    set_params(model, result.best_params)
    return result, model.predict(data.X_test, data.st_test)


def outputs(result, predictions) -> tuple:
    """Everything a run hands on, as exact text and bytes."""
    return (repr(result.logs), result.best_round, repr(result.best_val_mae),
            result.best_params.values.tobytes(), result.final_params.values.tobytes(),
            np.asarray(predictions).tobytes())


def failure(prepared, kind: str, cfg: FedConfig | CentralConfig, exc_type=ValueError) -> str:
    with np.errstate(all="ignore"), pytest.raises(exc_type) as info:
        fit(prepared, kind, cfg)
    return str(info.value)


def station_index(prepared, cid: str) -> int:
    return prepared.vocab.index[cid]


@pytest.mark.parametrize("kind", ["mlp", "lr"])
@pytest.mark.parametrize("fraction, m", [(0.2, 2), (0.3, 3), (0.5, 5)])
@pytest.mark.parametrize("local_epochs", [0, 1, 3])
def test_pooled_rounds_equal_serial_rounds(prepared, monkeypatch, dispatched, kind, fraction,
                                           m, local_epochs):
    # About 17 rows a client in batches of 7: every epoch ends on a partial batch.
    cfg = FedConfig(rounds=3, local_epochs=local_epochs, client_fraction=fraction,
                    batch_size=7, lr=1e-2, seed=5)
    pooled = outputs(*fit(prepared, kind, cfg))
    assert [(r, len(clients)) for r, clients in dispatched] == [(r, m) for r in range(3)]
    train_serially(monkeypatch)
    assert outputs(*fit(prepared, kind, cfg)) == pooled
    assert len(dispatched) == 3


def test_workers_evaluate_every_round_but_the_last(prepared, monkeypatch):
    """This process predicts the splits of the last round only (and the
    test split of the best parameters after the run); the workers predict
    them for every other round, to the same bits."""
    calls, original = [], MlpRegressor.predict

    def counted(self, X, stations):
        calls.append(len(X))
        return original(self, X, stations)

    monkeypatch.setattr(MlpRegressor, "predict", counted)
    cfg = FedConfig(rounds=4, client_fraction=0.3, seed=9)
    pooled = outputs(*fit(prepared, "mlp", cfg))
    data = prepared.data
    splits = [len(data.y_val), len(data.y_test)]
    assert calls == splits + [len(data.y_test)]
    calls.clear()
    train_serially(monkeypatch)
    assert outputs(*fit(prepared, "mlp", cfg)) == pooled
    assert calls == splits * cfg.rounds + [len(data.y_test)]


def test_one_blas_thread_while_the_pool_runs(prepared, monkeypatch):
    get_threads, set_threads = pool.blas_threads()
    before = get_threads()
    set_threads(2)
    try:
        if get_threads() != 2:
            pytest.skip("this OpenBLAS runs at most one thread")
        seen, evaluate = [], federation._evaluate

        def spy(*args):
            seen.append(get_threads())
            return evaluate(*args)

        monkeypatch.setattr(federation, "_evaluate", spy)
        fit(prepared, "lr", FedConfig(rounds=2, seed=2))
        assert seen == [1, 1] and get_threads() == 2
    finally:
        set_threads(before)


def test_a_run_frees_its_pool_without_the_cycle_collector(prepared, monkeypatch):
    """A federated run's pool, with its rows, model and clients' data, is
    freed when the run returns: nothing it holds refers back to it. A pool
    in a reference cycle once stayed until the collector's next pass, and a
    process reading a cached features.csv held several at once."""
    pools, init = [], pool.ClientPool.__init__

    def spy(self, *args):
        init(self, *args)
        pools.append(weakref.ref(self))

    monkeypatch.setattr(pool.ClientPool, "__init__", spy)
    gc.disable()
    try:
        fit(prepared, "mlp", FedConfig(rounds=2, client_fraction=0.3, seed=2))
        assert len(pools) == 1 and pools[0]() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("blocker", ["one client a round", "one usable CPU", "no settable BLAS",
                                     "wrapped local_train"])
def test_fallbacks_train_in_this_process(prepared, monkeypatch, dispatched, blocker):
    fraction = 0.2
    if blocker == "one client a round":
        fraction = 0.1
    elif blocker == "one usable CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif blocker == "no settable BLAS":
        monkeypatch.setattr(pool, "blas_threads", lambda: None)
    else:
        train_serially(monkeypatch)
    result, _ = fit(prepared, "lr", FedConfig(rounds=2, client_fraction=fraction, seed=2))
    assert len(result.logs) == 2 and dispatched == []


class TestFailures:
    @pytest.mark.parametrize("kind", ["mlp", "lr"])
    def test_diverging_batch_loss_gives_the_serial_message(self, prepared, monkeypatch, kind):
        cfg = FedConfig(rounds=3, client_fraction=0.3, lr=1e200, seed=3)
        pooled = failure(prepared, kind, cfg)
        assert re.fullmatch(DIVERGED.format(1, r"1e\+200", "batch loss"), pooled)
        train_serially(monkeypatch)
        assert failure(prepared, kind, cfg) == pooled

    def test_first_failing_position_wins(self, prepared, monkeypatch):
        """Two clients of a later round fail on different workers, the later
        position with another message; the error is the earlier position's,
        as it is when the clients train one after another."""
        cfg = FedConfig(rounds=8, client_fraction=0.3, seed=0)
        partition = partition_by_station(prepared.data.station_ids_train)
        seen: set[str] = set()
        for r in range(cfg.rounds):
            clients = sample_clients(partition, cfg.client_fraction, r, cfg.seed)
            fresh = [(pos, cid) for pos, cid in enumerate(clients) if cid not in seen]
            pairs = [(a, b) for a in fresh for b in fresh if a[0] > 0 and b[0] == a[0] + 1]
            if r > 0 and pairs:
                (pos_a, a), (_, b) = pairs[0]
                break
            seen.update(clients)
        else:
            pytest.fail("no round with two new clients side by side")
        bad = {station_index(prepared, a): float("nan"), station_index(prepared, b): float("inf")}
        original = MlpRegressor.loss_and_grad

        def poisoned(self, X, stations, y, rng):
            loss, grad = original(self, X, stations, y, rng)
            if stations[0] == station_index(prepared, a):
                time.sleep(0.2)  # the later position's failure arrives first
            return bad.get(int(stations[0]), loss), grad

        monkeypatch.setattr(MlpRegressor, "loss_and_grad", poisoned)
        pooled = failure(prepared, "mlp", cfg)
        assert pooled == f"federated training diverged in round {r + 1} at lr 0.001: " \
                         f"the batch loss is nan"
        train_serially(monkeypatch)
        assert failure(prepared, "mlp", cfg) == pooled

    def test_validation_failure_with_a_round_in_flight(self, prepared, monkeypatch, dispatched):
        # One step per client leaves finite losses and parameters out of range;
        # round 2 is already training when round 1's validation fails.
        cfg = FedConfig(rounds=3, local_epochs=1, client_fraction=0.3, batch_size=10_000,
                        lr=1e200, seed=3)
        pooled = failure(prepared, "mlp", cfg)
        assert re.fullmatch(DIVERGED.format(1, r"1e\+200", "validation MAE"), pooled)
        assert [r for r, _ in dispatched] == [0, 1]
        train_serially(monkeypatch)
        assert failure(prepared, "mlp", cfg) == pooled

    @pytest.mark.parametrize("when", ["first round", "later round", "evaluating"])
    def test_dead_worker_names_the_round(self, prepared, monkeypatch, when):
        cfg = FedConfig(rounds=6, client_fraction=0.3, seed=6)
        victim, round_number = None, 1
        parent = os.getpid()
        if when == "evaluating":  # round 1's parameters, before round 2's clients
            predict = MlpRegressor.predict

            def dying_predict(self, X, stations):
                if os.getpid() != parent:
                    os._exit(3)
                return predict(self, X, stations)

            monkeypatch.setattr(MlpRegressor, "predict", dying_predict)
            message = failure(prepared, "mlp", cfg, RuntimeError)
            assert re.fullmatch(r"federated training worker \d+ exited with code 3 in round 2",
                                message)
            return
        if when == "later round":  # the first client sampled in no round before
            partition = partition_by_station(prepared.data.station_ids_train)
            seen = set(sample_clients(partition, cfg.client_fraction, 0, cfg.seed))
            for r in range(1, cfg.rounds):
                clients = sample_clients(partition, cfg.client_fraction, r, cfg.seed)
                new = [cid for cid in clients if cid not in seen]
                if new:
                    victim, round_number = new[0], r + 1
                    break
                seen.update(clients)
            assert round_number > 1
        original = LinearRegressor.loss_and_grad

        def dying(self, X, stations, y, rng=None):
            if os.getpid() != parent and (victim is None or
                                          stations[0] == station_index(prepared, victim)):
                os._exit(3)
            return original(self, X, stations, y, rng)

        monkeypatch.setattr(LinearRegressor, "loss_and_grad", dying)
        message = failure(prepared, "lr", cfg, RuntimeError)
        assert re.fullmatch(rf"federated training worker \d+ exited with code 3 in round "
                            rf"{round_number}", message)

    def test_workers_ignore_sigint(self, prepared, monkeypatch):
        cfg = FedConfig(rounds=3, client_fraction=0.3, seed=7)
        evaluate, interrupted = federation._evaluate, []

        def interrupting(*args):
            if not interrupted:  # round 2 is training in the workers now
                interrupted.extend(children())
                for pid in interrupted:
                    os.kill(pid, signal.SIGINT)
            return evaluate(*args)

        monkeypatch.setattr(federation, "_evaluate", interrupting)
        pooled = outputs(*fit(prepared, "mlp", cfg))
        assert len(interrupted) == 2
        train_serially(monkeypatch)
        assert outputs(*fit(prepared, "mlp", cfg)) == pooled

    def test_interrupted_parent_stops_the_workers(self, prepared, monkeypatch):
        get_threads, _ = pool.blas_threads()
        threads = get_threads()
        workers = []

        def interrupted(*args):
            workers.extend(children())
            raise KeyboardInterrupt

        monkeypatch.setattr(federation, "_evaluate", interrupted)
        with pytest.raises(KeyboardInterrupt):
            fit(prepared, "mlp", FedConfig(rounds=3, client_fraction=0.3, seed=8))
        assert len(workers) == 2
        assert not set(workers) & set(children())
        assert children() == []
        assert get_threads() == threads

    def test_interrupted_parent_kills_a_busy_worker(self):
        """An unclean close does not wait for the worker's current message."""
        workers = pool.Workers(1, time.sleep)
        workers.send(0, 30)
        started = time.monotonic()
        workers.close(clean=False)
        assert time.monotonic() - started < 10
        assert children() == []

    def test_worker_killed_by_a_signal_names_the_round(self, prepared, monkeypatch):
        parent, original = os.getpid(), LinearRegressor.loss_and_grad

        def killed(self, *args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(self, *args)

        monkeypatch.setattr(LinearRegressor, "loss_and_grad", killed)
        message = failure(prepared, "lr", FedConfig(rounds=3, client_fraction=0.3, seed=6),
                          RuntimeError)
        assert re.fullmatch(r"federated training worker \d+ exited with code -9 in round 1",
                            message)


@pytest.fixture(scope="module")
def features(tmp_path_factory):
    out = tmp_path_factory.mktemp("pool-cli")
    assert dispatch(["synth", "--seed", "5", "--stations", "5",
                     "--sessions-per-station", "12:16", "--out", str(out / "depot")]) == 0
    assert dispatch(["featurize", "--in", str(out / "depot"), "--out", str(out / "feats")]) == 0
    return out / "feats" / "features.csv"


@pytest.mark.parametrize("model, flags, what", [
    ("mlp", [], "batch loss"),
    ("lr", [], "batch loss"),
    ("mlp", ["--local-epochs", "1", "--batch-size", "10000"], "validation MAE"),  # round 2 in flight
])
def test_cli_divergence_prints_only_its_message(features, tmp_path, model, flags, what):
    src = str(Path(fedcharge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "fedcharge", "train", "--features", str(features),
         "--mode", "federated", "--model", model, "--rounds", "4", "--fraction", "0.6",
         "--lr", "1e200", *flags, "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert re.fullmatch("error: " + DIVERGED.format(1, r"1e\+200", what) + "\n", proc.stderr)


def train(features, out, *flags: str) -> int:
    """A federated train of the features in this process; its exit code."""
    return dispatch(["train", "--features", str(features), "--mode", "federated", "--model", "mlp",
                     "--rounds", "3", "--fraction", "0.6", "--seed", "4", *flags,
                     "--out", str(out)])


def run_files(out: Path) -> dict[str, bytes]:
    """A train run's data outputs; config.json echoes the paths."""
    return {name: (out / name).read_bytes()
            for name in ("rounds.csv", "model.ckpt", "predictions.csv", "summary.json")}


def central(features, out, *flags: str) -> int:
    """A centralized train of the features in this process; its exit code."""
    return dispatch(["train", "--features", str(features), "--mode", "centralized",
                     "--model", "mlp", "--epochs", "4", "--batch-size", "16", "--seed", "4",
                     *flags, "--out", str(out)])


def central_evaluate(features, out, *flags: str) -> int:
    """A centralized evaluate of two seeds in this process; its exit code."""
    return dispatch(["evaluate", "--features", str(features), "--mode", "centralized",
                     "--model", "mlp", "--epochs", "4", "--batch-size", "16", "--seeds", "4,5",
                     *flags, "--out", str(out)])


def with_reset(monkeypatch, interval: int | None) -> None:
    """Makes the CLI's centralized runs reset Adam every interval epochs."""
    cls, keys = cli.SCHEMA["central"]
    monkeypatch.setitem(cli.SCHEMA, "central",
                        (functools.partial(cls, optimizer_reset_interval=interval), keys))


class TestCentralized:
    """Every epoch trains in this process, which evaluates it after."""

    @pytest.mark.parametrize("kind, dropout", [("mlp", "0"), ("mlp", "0.2"), ("lr", "0.2"),
                                               ("dummy-mean", "0.2"), ("dummy-gauss", "0.2")])
    @pytest.mark.parametrize("reset", [None, 3])
    @pytest.mark.parametrize("epochs", [0, 1, 5])
    def test_pooled_epochs_equal_serial_epochs(self, features, tmp_path, monkeypatch, dispatched,
                                               kind, dropout, reset, epochs):
        """No centralized run hands an epoch to a pool; each trained epoch is
        logged."""
        # About 50 training rows in batches of 16: every epoch ends on a partial batch.
        with_reset(monkeypatch, reset)
        flags = ["--model", kind, "--dropout", dropout, "--epochs", str(epochs)]
        assert central(features, tmp_path, *flags) == 0
        trained = epochs if kind in ("mlp", "lr") else 0  # the dummies are fitted, not trained
        assert len((tmp_path / "rounds.csv").read_text().splitlines()) == 1 + trained
        assert dispatched == []

    @pytest.mark.parametrize("kind", ["mlp", "lr"])
    def test_diverging_batch_in_the_first_epoch(self, prepared, kind):
        cfg = CentralConfig(epochs=4, batch_size=10, lr=1e200, seed=3)
        message = failure(prepared, kind, cfg)
        assert re.fullmatch(CENTRAL_DIVERGED.format(1, r"1e\+200", "batch loss"), message)

    @staticmethod
    def poison(monkeypatch, cls, method: str, after: int, value=float("nan")) -> None:
        """Makes cls.method give value (a loss, or every prediction) from its
        call after `after` on."""
        original, calls = getattr(cls, method), []

        def poisoned(self, *args):
            calls.append(None)
            out = original(self, *args)
            if len(calls) <= after:
                return out
            return (value, out[1]) if method == "loss_and_grad" else np.full_like(out, value)

        monkeypatch.setattr(cls, method, poisoned)

    @pytest.mark.parametrize("kind, cls", [("mlp", MlpRegressor), ("lr", LinearRegressor)])
    def test_diverging_batch_in_a_later_epoch(self, prepared, monkeypatch, kind, cls):
        batches = -(-len(prepared.data.y_train) // 10)
        self.poison(monkeypatch, cls, "loss_and_grad", 2 * batches + 1)  # epoch 3's 2nd
        message = failure(prepared, kind, CentralConfig(epochs=5, batch_size=10, seed=3))
        assert message == "centralized training diverged in epoch 3 at lr 0.001: " \
                          "the batch loss is nan"

    def test_validation_failure_in_the_first_epoch(self, prepared):
        # One step leaves a finite loss and parameters out of range.
        cfg = CentralConfig(epochs=4, batch_size=10_000, lr=1e200, seed=3)
        message = failure(prepared, "mlp", cfg)
        assert re.fullmatch(CENTRAL_DIVERGED.format(1, r"1e\+200", "validation MAE"), message)

    @pytest.mark.parametrize("then", ["nothing", "a diverging batch"])
    def test_validation_failure_in_a_later_epoch(self, prepared, monkeypatch, then):
        """Epoch 3's validation fails; a batch of epoch 4 that would diverge
        is never trained."""
        self.poison(monkeypatch, MlpRegressor, "predict", 4)  # epoch 3's val split
        if then == "a diverging batch":
            batches = -(-len(prepared.data.y_train) // 10)
            self.poison(monkeypatch, MlpRegressor, "loss_and_grad", 3 * batches)
        message = failure(prepared, "mlp", CentralConfig(epochs=5, batch_size=10, seed=3))
        assert message == "centralized training diverged in epoch 3 at lr 0.001: " \
                          "the validation MAE is nan"

    @pytest.mark.parametrize("end", ["success", "error", "interrupt"])
    def test_no_child_outlives_a_train(self, features, tmp_path, monkeypatch, end):
        """A centralized train or evaluate never has a child, and leaves the
        BLAS thread count as it found it."""
        get_threads, _ = pool.blas_threads()
        threads, seen, evaluate = get_threads(), [], federation._evaluate

        def spy(*args):
            seen.append(children())
            if end == "interrupt":
                raise KeyboardInterrupt
            return evaluate(*args)

        monkeypatch.setattr(federation, "_evaluate", spy)
        flags = ["--lr", "1e200", "--batch-size", "10000"] if end == "error" else []
        code = 1 if end == "error" else 0
        for run in (central, central_evaluate):
            if end == "interrupt":
                with pytest.raises(KeyboardInterrupt):
                    run(features, tmp_path / run.__name__)
            else:
                assert run(features, tmp_path / run.__name__, *flags) == code
            assert seen and all(pids == [] for pids in seen)
            assert children() == []
            assert get_threads() == threads
            seen.clear()


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


class TestRefusedFork:
    """A FedAvg run whose process cannot fork trains its rounds in that
    process, with the bytes of a serial run and exit 0."""

    @pytest.fixture
    def serial(self, features, tmp_path, monkeypatch):
        with monkeypatch.context() as patch:
            train_serially(patch)
            assert train(features, tmp_path / "serial") == 0
        return run_files(tmp_path / "serial")

    def test_in_a_daemonic_process(self, features, tmp_path, serial):
        """multiprocessing lets no daemonic process, such as a Pool's worker,
        start a child."""
        fork = multiprocessing.get_context("fork")
        here, there = fork.Pipe(duplex=False)

        def train_in_child():
            try:
                there.send(train(features, tmp_path / "daemonic"))
            except BaseException as exc:
                there.send(repr(exc))

        child = fork.Process(target=train_in_child, daemon=True)
        child.start()
        try:
            assert here.poll(50)
            assert here.recv() == 0
        finally:
            child.join(5)
        assert child.exitcode == 0
        assert run_files(tmp_path / "daemonic") == serial

    @pytest.mark.parametrize("code", [errno.EAGAIN, errno.ENOMEM])
    def test_fork_fails(self, features, tmp_path, monkeypatch, serial, dispatched, code):
        def fails():
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(os, "fork", fails)
        assert train(features, tmp_path / "refused") == 0
        assert run_files(tmp_path / "refused") == serial
        assert dispatched == []

    def test_one_usable_cpu(self, features, tmp_path, monkeypatch, serial, dispatched):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert train(features, tmp_path / "one-cpu") == 0
        assert run_files(tmp_path / "one-cpu") == serial
        assert dispatched == []


# Of a pooled 150-round train, the main process and its workers together; a
# worker whose malloc maps its gradients and Adam state afresh each time
# takes several hundred page faults a client.
MINOR_FAULTS = 50_000


# A fresh process's `fedcharge` with one usable CPU: its rounds train in it.
ONE_CPU = ("import sys; from fedcharge import cli, pool; pool.usable_cpus = lambda: 1; "
           "sys.exit(cli.dispatch(sys.argv[1:]))")


def train_faults(features, cwd: Path, out: str, *flags: str, command=("-m", "fedcharge")) -> int:
    """The minor page faults of a train in a fresh process and its workers."""
    src = str(Path(fedcharge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, *command, "train", "--features", str(features),
         "--model", "mlp", *flags, "--out", out], cwd=cwd, env=env, capture_output=True,
        text=True, timeout=60)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    assert proc.returncode == 0, proc.stderr
    return faults


@pytest.mark.parametrize("length", [16, 61])
def test_pooled_train_workers_keep_their_heap(features, tmp_path, length):
    """A worker's heap must not depend on where the parent's heap stood at
    the fork, which the --out path's length moves."""
    out = "o" * length
    faults = train_faults(features, tmp_path, out, "--mode", "federated", "--rounds", "150",
                          "--fraction", "0.6")
    assert len((tmp_path / out / "rounds.csv").read_text().splitlines()) == 151
    assert faults < MINOR_FAULTS


# A train of no rounds here takes about 5,800 minor faults. A run in this
# process whose malloc maps each 256 KB gradient afresh adds at least 64 a
# step: 1,350 steps federated below, and 300 centralized.
SERIAL_FAULTS = 12_000


@pytest.mark.parametrize("length", [16, 61])
def test_the_centralized_worker_keeps_its_heap(features, tmp_path, length):
    """Centralized training runs in the train process at any CPU count; its
    heap must not depend on where it stood, which the --out path's length
    moves."""
    out = "o" * length
    faults = train_faults(features, tmp_path, out, "--mode", "centralized", "--epochs", "300")
    assert len((tmp_path / out / "rounds.csv").read_text().splitlines()) == 301
    assert faults < SERIAL_FAULTS


@pytest.mark.parametrize("flags", [
    ("--mode", "federated", "--rounds", "150", "--fraction", "0.6"),
    ("--mode", "centralized", "--epochs", "300"),
], ids=["federated", "centralized"])
def test_a_run_on_one_cpu_trains_with_a_workers_heap(features, tmp_path, flags):
    faults = train_faults(features, tmp_path, "out", *flags, command=("-c", ONE_CPU))
    assert len((tmp_path / "out" / "rounds.csv").read_text().splitlines()) == 1 + int(flags[3])
    assert faults < SERIAL_FAULTS

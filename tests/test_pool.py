"""FedAvg rounds trained in forked workers against the same rounds trained one
after another in this process: bit for bit, on every failure path, where
this process cannot fork, and with no process left behind.

A wrapped federation.local_train keeps run_federated serial (as it does for
a traced run), so every pooled result here has a serial oracle.
"""

from __future__ import annotations

import errno
import multiprocessing
import os
import re
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import fedcharge
import fedcharge.federation as federation
from fedcharge import pool
from fedcharge.cli import dispatch
from fedcharge.evaluation import build_model, prepare_splits, split
from fedcharge.federation import FedConfig, run_federated, sample_clients
from fedcharge.models import LinearRegressor, MlpRegressor, set_params
from fedcharge.partition import partition_by_station

pytestmark = pytest.mark.skipif(
    pool.usable_cpus() < 2 or pool.blas_threads() is None,
    reason="the pool needs two usable CPUs, os.fork and a settable OpenBLAS")

DIVERGED = r"federated training diverged in round {} at lr {}: the {} is (nan|inf)"


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
    """Makes run_federated train every round in this process."""
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


def fit(prepared, kind: str, cfg: FedConfig):
    """The run's result and the test predictions of its best parameters."""
    data = prepared.data
    model = build_model(kind, data.X_train.shape[1], prepared.vocab.cardinality, cfg.seed)
    result = run_federated(data, model, cfg)
    set_params(model, result.best_params)
    return result, model.predict(data.X_test, data.st_test)


def outputs(result, predictions) -> tuple:
    """Everything a run hands on, as exact text and bytes."""
    return (repr(result.logs), result.best_round, repr(result.best_val_mae),
            result.best_params.values.tobytes(), result.final_params.values.tobytes(),
            np.asarray(predictions).tobytes())


def failure(prepared, kind: str, cfg: FedConfig, exc_type=ValueError) -> str:
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


def test_one_blas_thread_while_the_pool_runs(prepared, monkeypatch):
    get_threads, set_threads = pool.blas_threads()
    before = get_threads()
    set_threads(2)
    try:
        if get_threads() != 2:
            pytest.skip("this OpenBLAS runs at most one thread")
        seen, evaluate = [], federation._evaluate

        def spy(model, params, data):
            seen.append(get_threads())
            return evaluate(model, params, data)

        monkeypatch.setattr(federation, "_evaluate", spy)
        fit(prepared, "lr", FedConfig(rounds=2, seed=2))
        assert seen == [1, 1] and get_threads() == 2
    finally:
        set_threads(before)


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

    @pytest.mark.parametrize("when", ["first round", "later round"])
    def test_dead_worker_names_the_round(self, prepared, monkeypatch, when):
        cfg = FedConfig(rounds=6, client_fraction=0.3, seed=6)
        victim, round_number = None, 1
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
        parent = os.getpid()
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

        def interrupting(model, params, data):
            if not interrupted:  # round 2 is training in the workers now
                interrupted.extend(multiprocessing.active_children())
                for worker in interrupted:
                    os.kill(worker.pid, signal.SIGINT)
            return evaluate(model, params, data)

        monkeypatch.setattr(federation, "_evaluate", interrupting)
        pooled = outputs(*fit(prepared, "mlp", cfg))
        assert len(interrupted) == 2
        train_serially(monkeypatch)
        assert outputs(*fit(prepared, "mlp", cfg)) == pooled

    def test_interrupted_parent_stops_the_workers(self, prepared, monkeypatch):
        get_threads, _ = pool.blas_threads()
        threads = get_threads()
        workers = []

        def interrupted(model, params, data):
            workers.extend(multiprocessing.active_children())
            raise KeyboardInterrupt

        monkeypatch.setattr(federation, "_evaluate", interrupted)
        with pytest.raises(KeyboardInterrupt):
            fit(prepared, "mlp", FedConfig(rounds=3, client_fraction=0.3, seed=8))
        assert len(workers) == 2
        assert not any(worker.is_alive() for worker in workers)
        assert multiprocessing.active_children() == []
        assert get_threads() == threads


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


class TestRefusedFork:
    """A run whose process cannot fork trains its rounds in that process,
    with the bytes of a serial run and exit 0."""

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


# Of a pooled 150-round train, the main process and its workers together; a
# worker whose malloc maps its gradients and Adam state afresh each time
# takes several hundred page faults a client.
MINOR_FAULTS = 50_000


@pytest.mark.parametrize("length", [16, 61])
def test_pooled_train_workers_keep_their_heap(features, tmp_path, length):
    """A worker's heap must not depend on where the parent's heap stood at
    the fork, which the --out path's length moves."""
    src = str(Path(fedcharge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = "o" * length
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "-m", "fedcharge", "train", "--features", str(features),
         "--mode", "federated", "--model", "mlp", "--rounds", "150", "--fraction", "0.6",
         "--out", out], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / out / "rounds.csv").read_text().splitlines()) == 151
    assert faults < MINOR_FAULTS

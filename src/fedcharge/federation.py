"""Centralized training and the FedAvg simulation over station-level clients.

Raw feature rows never cross the client-to-server boundary: aggregation
receives only (ModelParameters, sample count) pairs. All stochastic steps
draw from named seed streams, so a run is reproducible from its config.

Batch schedules are addressed by global epoch index: centralized epoch t and
a client's local epoch e of round r (at sampled position p) draw from
stream (seed, STREAM_EPOCH, index, p) with index = r * local_epochs + e and
p = 0 for centralized. A single-client, full-participation federated run
therefore consumes exactly the centralized schedule.

Centralized training runs its epochs in this process, with one OpenBLAS
thread and a worker's heap (pool.serial_training). FedAvg trains the sampled
clients of a round (two or more) in up to MAX_WORKERS forked workers
(pool.ClientPool) when _pool_size allows it and the pool starts, and
otherwise in this process under serial_training. Round r + 1 is dispatched
as soon as round r is collected, so it trains while round r is evaluated:
before round r + 1's clients, worker 0 predicts the validation split and
worker 1 the test split from round r's parameters, and this process takes
the metrics of those predictions. It samples, aggregates in sampled order
and evaluates the last round itself. A round's work depends only on its
streams and the parameters it starts from, so both paths give the same bits,
and a failure surfaces in the order the serial loop would meet it.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from functools import partial

import numpy as np

from .metrics import mae, rmse
from .models import ModelParameters, adam_step, get_params, init_adam, set_params
from .partition import ClientPartition, partition_by_station
from .seeding import STREAM_EPOCH, STREAM_SAMPLE, rng_from

# A run has converged once this many rounds in a row fail to improve the
# validation MAE by more than CONVERGENCE_MIN_DELTA kWh.
CONVERGENCE_PATIENCE = 30
CONVERGENCE_MIN_DELTA = 0.01

# The most worker processes a run forks to train one round's clients.
MAX_WORKERS = 2


@dataclass(frozen=True)
class FedConfig:
    rounds: int = 400
    local_epochs: int = 3
    client_fraction: float = 0.2
    batch_size: int = 128
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.rounds < 0:
            raise ValueError("rounds must be nonnegative")
        if self.local_epochs < 0:
            raise ValueError("local_epochs must be nonnegative")
        if not 0.0 < self.client_fraction <= 1.0:
            raise ValueError("client_fraction must be in (0, 1]")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")


@dataclass(frozen=True)
class CentralConfig:
    epochs: int = 40
    batch_size: int = 128
    lr: float = 1e-3
    seed: int = 0
    # Reset Adam moments every N epochs; None keeps one optimizer run-long.
    # Matches the per-round optimizer reset of federated local training when
    # set to local_epochs, which is what makes the K=1 equivalence exact.
    optimizer_reset_interval: int | None = None

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.optimizer_reset_interval is not None and self.optimizer_reset_interval <= 0:
            raise ValueError("optimizer_reset_interval must be positive")


@dataclass(frozen=True)
class RoundLog:
    """One completed communication round (or centralized epoch)."""

    round: int                      # 1-based, contiguous
    clients: tuple[str, ...]        # sampled client ids; empty when centralized
    val_mae: float
    val_rmse: float
    test_mae: float
    test_rmse: float


@dataclass
class TrainResult:
    best_params: ModelParameters
    final_params: ModelParameters
    logs: list[RoundLog]
    best_round: int                 # 0 = initial parameters retained
    best_val_mae: float | None      # None when no round ran


@dataclass(frozen=True)
class SplitData:
    """Standardized feature splits plus station metadata for partitioning."""

    X_train: np.ndarray
    st_train: np.ndarray            # station embedding indices
    y_train: np.ndarray
    station_ids_train: tuple[str, ...]
    X_val: np.ndarray
    st_val: np.ndarray
    y_val: np.ndarray
    X_test: np.ndarray
    st_test: np.ndarray
    y_test: np.ndarray

    @property
    def evaluated(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(features, stations) of the validation and the test split, which
        every round is evaluated on."""
        return (self.X_val, self.st_val), (self.X_test, self.st_test)


def sample_clients(
    partition: ClientPartition, fraction: float, round_index: int, seed: int
) -> tuple[str, ...]:
    """max(1, round(fraction * K)) client ids, sampled without replacement.

    Deterministic in (seed, round_index); returned in lexicographic order.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    k = partition.n_clients
    rng = rng_from(seed, STREAM_SAMPLE, round_index)
    chosen = sorted(rng.choice(k, size=_clients_per_round(k, fraction), replace=False))
    return tuple(partition.client_ids[i] for i in chosen)


def _clients_per_round(k: int, fraction: float) -> int:
    return max(1, int(np.floor(fraction * k + 0.5)))


def train_one_epoch(model, X, stations, y, batch_size: int, adam, rng) -> None:
    """One pass over shuffled batches; updates model values and adam state in
    place. A batch loss that is not finite raises FloatingPointError before
    its update.
    """
    order = rng.permutation(len(y))
    for start in range(0, len(y), batch_size):
        idx = order[start : start + batch_size]
        loss, grad = model.loss_and_grad(X[idx], stations[idx], y[idx], rng)
        if not math.isfinite(loss):
            raise FloatingPointError(f"the batch loss is {loss}")
        adam_step(model.values, grad, adam)


def local_train(
    model,
    global_params: ModelParameters,
    X,
    stations,
    y,
    local_epochs: int,
    batch_size: int,
    lr: float,
    epoch_rngs,
) -> ModelParameters:
    """Client-side update: fresh optimizer, local_epochs seeded passes."""
    set_params(model, global_params)
    adam = init_adam(model.layout.total, lr)
    for e in range(local_epochs):
        train_one_epoch(model, X, stations, y, batch_size, adam, epoch_rngs[e])
    return get_params(model)


# The training functions this module looks up, as it defines them.
_OWN = (local_train, train_one_epoch, adam_step)


def aggregate(updates: list[tuple[ModelParameters, int]]) -> ModelParameters:
    """Sample-count weighted average, reduced in the given (fixed) order."""
    if not updates:
        raise ValueError("cannot aggregate an empty update list")
    layout = updates[0][0].layout
    if any(p.layout != layout for p, _ in updates):
        raise ValueError("layout mismatch between updates")
    total = sum(n for _, n in updates)
    if total <= 0:
        raise ValueError("sample counts must be positive")
    acc = np.zeros(layout.total)
    for params, n in updates:
        acc += (n / total) * params.values
    return ModelParameters(layout=layout, values=acc)


def _predict(model, X, stations, params: ModelParameters) -> np.ndarray:
    set_params(model, params)
    return model.predict(X, stations)


def _evaluate(model, params: ModelParameters, data: SplitData,
              predicted=None) -> tuple[float, float, float, float]:
    """Validation and test MAE and RMSE of params, from the predictions of
    the two splits when given; FloatingPointError when the validation MAE is
    not finite (parameters that left the float range)."""
    if predicted is None:
        set_params(model, params)
        predicted = [model.predict(X, stations) for X, stations in data.evaluated]
    val_pred, test_pred = predicted
    val_mae = mae(val_pred, data.y_val)
    if not math.isfinite(val_mae):
        raise FloatingPointError(f"the validation MAE is {val_mae}")
    return (
        val_mae,
        rmse(val_pred, data.y_val),
        mae(test_pred, data.y_test),
        rmse(test_pred, data.y_test),
    )


def _train(model, data: SplitData, step, n_rounds: int, mode: str, unit: str,
           lr: float) -> TrainResult:
    """The round loop of both trainers, with best-validation retention.

    step(r, params) trains round (or epoch) r from params and returns the
    parameters it leaves, the clients it sampled and the predictions of the
    evaluated splits from those parameters, or None to make them here.
    numpy's float warnings are silenced: a run that leaves the float range
    stops on the finite checks, with a ValueError naming the mode, the round
    and the lr.
    """
    params = get_params(model)
    logs: list[RoundLog] = []
    best, best_mae, best_round = params, np.inf, 0
    for r in range(n_rounds):
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                params, clients, predicted = step(r, params)
                v_mae, v_rmse, t_mae, t_rmse = _evaluate(model, params, data, predicted)
        except FloatingPointError as exc:
            raise ValueError(
                f"{mode} training diverged in {unit} {r + 1} at lr {lr}: {exc}"
            ) from exc
        logs.append(RoundLog(r + 1, clients, v_mae, v_rmse, t_mae, t_rmse))
        if v_mae < best_mae:
            best_mae, best, best_round = v_mae, params, r + 1
    set_params(model, params)
    return TrainResult(best, params, logs, best_round, best_mae if logs else None)


def _pool_size(m: int) -> int:
    """The workers that train FedAvg rounds of m clients, or 0 to train them
    in this process: min(MAX_WORKERS, m), and none for one client a round.

    The training functions this module looks up must be its own (_OWN): when
    something in this process wraps one (a tracer, a test spy), a forked
    worker would carry the wrapper off and drop what it records, so such runs
    stay here. Whether this host can run workers at all is pool.ClientPool's
    call (CannotFork).
    """
    own = (local_train, train_one_epoch, adam_step) == _OWN
    return min(MAX_WORKERS, m) if m > 1 and own else 0


def run_centralized(data: SplitData, model, cfg: CentralConfig) -> TrainResult:
    """Mini-batch Adam over the pooled training split, one epoch per round,
    in this process with one OpenBLAS thread (pool.serial_training)."""
    interval = cfg.optimizer_reset_interval
    adam = None

    def epoch(t: int, params: ModelParameters):
        """Epoch t, on the model's own parameters: it trained params."""
        nonlocal adam
        if t == 0 or (interval is not None and t % interval == 0):
            adam = init_adam(model.layout.total, cfg.lr)
        rng = rng_from(cfg.seed, STREAM_EPOCH, t, 0)
        train_one_epoch(model, data.X_train, data.st_train, data.y_train, cfg.batch_size, adam, rng)
        return get_params(model), (), None

    from .pool import serial_training

    with serial_training():
        return _train(model, data, epoch, cfg.epochs, "centralized", "epoch", cfg.lr)


def run_federated(data: SplitData, model, cfg: FedConfig) -> TrainResult:
    """FedAvg: sample clients, train each locally, aggregate (see the
    module docstring for when the clients train in forked workers)."""
    partition = partition_by_station(data.station_ids_train)
    client_data = {
        cid: (data.X_train[list(idx)], data.st_train[list(idx)], data.y_train[list(idx)])
        for cid, idx in zip(partition.client_ids, partition.indices)
    }

    def sampled(r: int) -> tuple[str, ...]:
        return sample_clients(partition, cfg.client_fraction, r, cfg.seed)

    def train_client(r: int, pos: int, cid: str, global_params: ModelParameters):
        Xc, stc, yc = client_data[cid]
        epoch_rngs = [
            rng_from(cfg.seed, STREAM_EPOCH, r * cfg.local_epochs + e, pos)
            for e in range(cfg.local_epochs)
        ]
        return local_train(model, global_params, Xc, stc, yc, cfg.local_epochs,
                           cfg.batch_size, cfg.lr, epoch_rngs)

    def combine(clients, trained):
        updates = [(p, len(client_data[cid][2])) for cid, p in zip(clients, trained)]
        return aggregate(updates), clients

    def serial(r: int, params: ModelParameters):
        clients = sampled(r)
        trained = [train_client(r, pos, cid, params) for pos, cid in enumerate(clients)]
        return *combine(clients, trained), None

    def pooled(r: int, params: ModelParameters):
        if r == 0:
            workers.dispatch(0, sampled(0), params)
        upcoming = sampled(r + 1) if r + 1 < cfg.rounds else None  # while round r trains
        params, clients = combine(*workers.collect())
        if upcoming is None:
            return params, clients, None
        workers.dispatch(r + 1, upcoming, params)  # the workers first evaluate params
        return params, clients, workers.predictions()

    from .pool import CannotFork, ClientPool, serial_training

    m = _clients_per_round(partition.n_clients, cfg.client_fraction)
    n_workers, workers = (_pool_size(m) if cfg.rounds else 0), None
    if n_workers:
        predictors = [partial(_predict, model, X, stations) for X, stations in data.evaluated]
        with suppress(CannotFork):  # the rounds then train in this process
            workers = ClientPool(n_workers, model.layout, m, train_client, predictors)
    with workers or serial_training():
        return _train(model, data, pooled if workers else serial, cfg.rounds, "federated",
                      "round", cfg.lr)


def detect_convergence(
    val_maes, patience: int = CONVERGENCE_PATIENCE, min_delta: float = CONVERGENCE_MIN_DELTA
) -> int | None:
    """Earliest 1-based round whose next `patience` rounds never improve
    validation MAE by more than min_delta; None when no full window qualifies.
    """
    values = list(val_maes)
    for r in range(len(values)):
        window = values[r + 1 : r + 1 + patience]
        if len(window) < patience:
            break
        if all(values[r] - v <= min_delta for v in window):
            return r + 1
    return None

"""Centralized training and the FedAvg simulation over station-level clients.

Raw feature rows never cross the client-to-server boundary: aggregation
receives only (ModelParameters, sample count) pairs. All stochastic steps
draw from named seed streams, so a run is reproducible from its config.

Batch schedules are addressed by global epoch index: centralized epoch t and
a client's local epoch e of round r (at sampled position p) draw from
stream (seed, STREAM_EPOCH, index, p) with index = r * local_epochs + e and
p = 0 for centralized. A single-client, full-participation federated run
therefore consumes exactly the centralized schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import mae, rmse
from .models import ModelParameters, adam_step, get_params, init_adam, set_params
from .partition import ClientPartition, partition_by_station
from .seeding import STREAM_EPOCH, STREAM_SAMPLE, rng_from

# A run has converged once this many rounds in a row fail to improve the
# validation MAE by more than CONVERGENCE_MIN_DELTA kWh.
CONVERGENCE_PATIENCE = 30
CONVERGENCE_MIN_DELTA = 0.01


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


def sample_clients(
    partition: ClientPartition, fraction: float, round_index: int, seed: int
) -> tuple[str, ...]:
    """max(1, round(fraction * K)) client ids, sampled without replacement.

    Deterministic in (seed, round_index); returned in lexicographic order.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    k = partition.n_clients
    m = max(1, int(np.floor(fraction * k + 0.5)))
    rng = rng_from(seed, STREAM_SAMPLE, round_index)
    chosen = sorted(rng.choice(k, size=m, replace=False))
    return tuple(partition.client_ids[i] for i in chosen)


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


def _evaluate(model, params: ModelParameters, data: SplitData) -> tuple[float, float, float, float]:
    """Validation and test MAE and RMSE; FloatingPointError when the
    validation MAE is not finite (parameters that left the float range)."""
    set_params(model, params)
    val_pred = model.predict(data.X_val, data.st_val)
    test_pred = model.predict(data.X_test, data.st_test)
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
    parameters it leaves and the clients it sampled. numpy's float warnings
    are silenced: a run that leaves the float range stops on the finite
    checks, with a ValueError naming the mode, the round and the lr.
    """
    params = get_params(model)
    logs: list[RoundLog] = []
    best, best_mae, best_round = params, np.inf, 0
    for r in range(n_rounds):
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                params, clients = step(r, params)
                v_mae, v_rmse, t_mae, t_rmse = _evaluate(model, params, data)
        except FloatingPointError as exc:
            raise ValueError(
                f"{mode} training diverged in {unit} {r + 1} at lr {lr}: {exc}"
            ) from exc
        logs.append(RoundLog(r + 1, clients, v_mae, v_rmse, t_mae, t_rmse))
        if v_mae < best_mae:
            best_mae, best, best_round = v_mae, params, r + 1
    set_params(model, params)
    return TrainResult(best, params, logs, best_round, best_mae if logs else None)


def run_centralized(data: SplitData, model, cfg: CentralConfig) -> TrainResult:
    """Mini-batch Adam over the pooled training split, one epoch per round."""
    interval = cfg.optimizer_reset_interval
    adam = None

    def epoch(t: int, params: ModelParameters):
        nonlocal adam
        if t == 0 or (interval is not None and t % interval == 0):
            adam = init_adam(model.layout.total, cfg.lr)
        rng = rng_from(cfg.seed, STREAM_EPOCH, t, 0)
        train_one_epoch(model, data.X_train, data.st_train, data.y_train, cfg.batch_size, adam, rng)
        return get_params(model), ()

    return _train(model, data, epoch, cfg.epochs, "centralized", "epoch", cfg.lr)


def run_federated(data: SplitData, model, cfg: FedConfig) -> TrainResult:
    """FedAvg: sample clients, train each locally, aggregate."""
    partition = partition_by_station(data.station_ids_train)
    client_data = {
        cid: (data.X_train[list(idx)], data.st_train[list(idx)], data.y_train[list(idx)])
        for cid, idx in zip(partition.client_ids, partition.indices)
    }

    def fed_round(r: int, global_params: ModelParameters):
        sampled = sample_clients(partition, cfg.client_fraction, r, cfg.seed)
        updates: list[tuple[ModelParameters, int]] = []
        for pos, cid in enumerate(sampled):
            Xc, stc, yc = client_data[cid]
            epoch_rngs = [
                rng_from(cfg.seed, STREAM_EPOCH, r * cfg.local_epochs + e, pos)
                for e in range(cfg.local_epochs)
            ]
            updated = local_train(model, global_params, Xc, stc, yc, cfg.local_epochs,
                                  cfg.batch_size, cfg.lr, epoch_rngs)
            updates.append((updated, len(yc)))
        return aggregate(updates), sampled

    return _train(model, data, fed_round, cfg.rounds, "federated", "round", cfg.lr)


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

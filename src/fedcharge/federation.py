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
import time
from dataclasses import dataclass, field

import numpy as np

from .metrics import mae, rmse
from .models import (
    ModelParameters,
    adam_step,
    get_params,
    init_adam,
    set_params,
)
from .partition import ClientPartition, partition_by_station
from .seeding import STREAM_EPOCH, STREAM_SAMPLE, rng_from


@dataclass(frozen=True)
class FedConfig:
    rounds: int = 400
    local_epochs: int = 3
    client_fraction: float = 0.2
    batch_size: int = 128
    lr: float = 1e-3
    seed: int = 0
    convergence_patience: int = 30
    convergence_min_delta: float = 0.01   # kWh of validation MAE

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
        if self.convergence_patience <= 0:
            raise ValueError("convergence_patience must be positive")
        if self.convergence_min_delta < 0:
            raise ValueError("convergence_min_delta must be nonnegative")


@dataclass(frozen=True)
class CentralConfig:
    epochs: int = 40
    batch_size: int = 128
    lr: float = 1e-3
    seed: int = 0
    convergence_patience: int = 30
    convergence_min_delta: float = 0.01
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
    wall_time_s: float


@dataclass
class TrainResult:
    best_params: ModelParameters
    final_params: ModelParameters
    logs: list[RoundLog] = field(default_factory=list)
    best_round: int = 0             # 0 = initial parameters retained
    best_val_mae: float | None = None


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


def run_centralized(data: SplitData, model, cfg: CentralConfig) -> TrainResult:
    """Mini-batch Adam over the pooled training split, best-validation retention."""
    initial = get_params(model)
    logs: list[RoundLog] = []
    best = initial
    best_mae = np.inf
    best_round = 0
    adam = init_adam(model.layout.total, cfg.lr)
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        if (
            cfg.optimizer_reset_interval is not None
            and epoch > 0
            and epoch % cfg.optimizer_reset_interval == 0
        ):
            adam = init_adam(model.layout.total, cfg.lr)
        rng = rng_from(cfg.seed, STREAM_EPOCH, epoch, 0)
        try:
            train_one_epoch(
                model, data.X_train, data.st_train, data.y_train, cfg.batch_size, adam, rng
            )
            snapshot = get_params(model)
            v_mae, v_rmse, t_mae, t_rmse = _evaluate(model, snapshot, data)
        except FloatingPointError as exc:
            raise ValueError(
                f"centralized training diverged in epoch {epoch + 1} at lr {cfg.lr}: {exc}"
            ) from exc
        logs.append(
            RoundLog(
                round=epoch + 1,
                clients=(),
                val_mae=v_mae,
                val_rmse=v_rmse,
                test_mae=t_mae,
                test_rmse=t_rmse,
                wall_time_s=time.perf_counter() - t0,
            )
        )
        if v_mae < best_mae:
            best_mae, best, best_round = v_mae, snapshot, epoch + 1
    return TrainResult(
        best_params=best,
        final_params=get_params(model),
        logs=logs,
        best_round=best_round,
        best_val_mae=None if not logs else best_mae,
    )


def run_federated(data: SplitData, model, cfg: FedConfig) -> TrainResult:
    """FedAvg: sample clients, train locally, aggregate, evaluate each round."""
    partition = partition_by_station(data.station_ids_train)
    client_data = {
        cid: (
            data.X_train[list(idx)],
            data.st_train[list(idx)],
            data.y_train[list(idx)],
        )
        for cid, idx in zip(partition.client_ids, partition.indices)
    }
    global_params = get_params(model)
    logs: list[RoundLog] = []
    best = global_params
    best_mae = np.inf
    best_round = 0
    for r in range(cfg.rounds):
        t0 = time.perf_counter()
        sampled = sample_clients(partition, cfg.client_fraction, r, cfg.seed)
        try:
            updates: list[tuple[ModelParameters, int]] = []
            for pos, cid in enumerate(sampled):
                Xc, stc, yc = client_data[cid]
                epoch_rngs = [
                    rng_from(cfg.seed, STREAM_EPOCH, r * cfg.local_epochs + e, pos)
                    for e in range(cfg.local_epochs)
                ]
                updated = local_train(
                    model,
                    global_params,
                    Xc,
                    stc,
                    yc,
                    cfg.local_epochs,
                    cfg.batch_size,
                    cfg.lr,
                    epoch_rngs,
                )
                updates.append((updated, len(yc)))
            global_params = aggregate(updates)
            v_mae, v_rmse, t_mae, t_rmse = _evaluate(model, global_params, data)
        except FloatingPointError as exc:
            raise ValueError(
                f"federated training diverged in round {r + 1} at lr {cfg.lr}: {exc}"
            ) from exc
        logs.append(
            RoundLog(
                round=r + 1,
                clients=sampled,
                val_mae=v_mae,
                val_rmse=v_rmse,
                test_mae=t_mae,
                test_rmse=t_rmse,
                wall_time_s=time.perf_counter() - t0,
            )
        )
        if v_mae < best_mae:
            best_mae, best, best_round = v_mae, global_params, r + 1
    set_params(model, global_params)
    return TrainResult(
        best_params=best,
        final_params=global_params,
        logs=logs,
        best_round=best_round,
        best_val_mae=None if not logs else best_mae,
    )


def detect_convergence(
    val_maes, patience: int, min_delta: float
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

"""Splitting, per-seed experiment orchestration, and aggregate reporting."""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .features import FeatureTable, fit_imputer, fit_scaler
from .federation import (
    CentralConfig,
    FedConfig,
    SplitData,
    TrainResult,
    detect_convergence,
    run_centralized,
    run_federated,
)
from .metrics import mae, rmse
from .models import (
    DummyGaussianModel,
    DummyMeanModel,
    LinearRegressor,
    MlpRegressor,
    MlpSpec,
    set_params,
)
from .seeding import STREAM_SPLIT, rng_from

FRACTIONS = (0.70, 0.15, 0.15)  # train, validation, test
DEFAULT_SEEDS = tuple(range(10))
MODES = ("centralized", "federated")


@dataclass(frozen=True)
class SplitAssignment:
    """Session-level train/val/test assignment: shuffle, then contiguous slices.

    Train and val sizes round half-up, the remainder is test; every realized
    size stays within one sample of its fractional target.
    """

    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray

    @property
    def n(self) -> int:
        return self.train_idx.size + self.val_idx.size + self.test_idx.size

    def require_nonempty(self) -> None:
        """Raise ValueError naming the first split that holds no session."""
        sizes = (self.train_idx.size, self.val_idx.size, self.test_idx.size)
        for name, size in zip(("train", "validation", "test"), sizes):
            if size == 0:
                raise ValueError(
                    f"{self.n} sessions leave the {name} split empty "
                    f"(train/validation/test sizes {sizes[0]}/{sizes[1]}/{sizes[2]})"
                )


def split(n_sessions: int, seed: int = 0) -> SplitAssignment:
    if n_sessions < 3:
        raise ValueError("dataset must contain at least 3 sessions")
    order = rng_from(seed, STREAM_SPLIT).permutation(n_sessions)
    n_train = int(np.floor(FRACTIONS[0] * n_sessions + 0.5))
    n_val = int(np.floor(FRACTIONS[1] * n_sessions + 0.5))
    return SplitAssignment(
        train_idx=order[:n_train],
        val_idx=order[n_train : n_train + n_val],
        test_idx=order[n_train + n_val :],
    )


@dataclass(frozen=True)
class StationVocab:
    """Train-split station index; unseen stations map to the reserved row."""

    index: dict[str, int]

    @property
    def cardinality(self) -> int:
        return len(self.index)

    def encode(self, station_ids) -> np.ndarray:
        unknown = self.cardinality
        return np.array([self.index.get(s, unknown) for s in station_ids], dtype=int)


@dataclass
class PreparedSplits:
    data: SplitData
    vocab: StationVocab
    test_session_ids: list[str]


def prepare_splits(
    table: FeatureTable, assignment: SplitAssignment
) -> PreparedSplits:
    """Impute and standardize with train-split statistics only."""
    tr, va, te = assignment.train_idx, assignment.val_idx, assignment.test_idx
    imputer = fit_imputer(table.X[tr])
    X = imputer.apply(table.X)
    scaler = fit_scaler(X[tr])
    X = scaler.apply(X)

    stations = np.array(table.station_ids)
    vocab = StationVocab(
        index={s: i for i, s in enumerate(sorted(set(stations[tr])))}
    )
    st = vocab.encode(table.station_ids)
    data = SplitData(
        X_train=X[tr],
        st_train=st[tr],
        y_train=table.y[tr],
        station_ids_train=tuple(stations[tr]),
        X_val=X[va],
        st_val=st[va],
        y_val=table.y[va],
        X_test=X[te],
        st_test=st[te],
        y_test=table.y[te],
    )
    return PreparedSplits(
        data=data, vocab=vocab, test_session_ids=[table.session_ids[i] for i in te]
    )


def build_model(
    kind: str,
    numeric_dim: int,
    station_cardinality: int,
    seed: int,
    dropout_rate: float = MlpSpec.dropout_rate,
):
    if kind == "dummy-mean":
        return DummyMeanModel()
    if kind == "dummy-gauss":
        return DummyGaussianModel(seed=seed)
    if kind == "lr":
        return LinearRegressor(input_dim=numeric_dim, seed=seed)
    if kind == "mlp":
        spec = MlpSpec(
            numeric_input_dim=numeric_dim,
            embedding_cardinality=station_cardinality,
            dropout_rate=dropout_rate,
        )
        return MlpRegressor(spec, seed=seed)
    raise ValueError(f"unknown model kind: {kind}")


@dataclass(frozen=True)
class SeedResult:
    seed: int
    test_mae: float
    test_rmse: float
    best_round: int | None
    convergence_round: int | None


@dataclass
class ExperimentArtifacts:
    """Everything one seeded run produces beyond the scalar metrics."""

    model: object
    result: TrainResult | None
    prepared: PreparedSplits
    predictions: np.ndarray


def run_experiment(
    table: FeatureTable,
    model_kind: str,
    mode: str,
    seed: int,
    fed_cfg: FedConfig | None = None,
    central_cfg: CentralConfig | None = None,
    dropout_rate: float = MlpSpec.dropout_rate,
) -> tuple[SeedResult, ExperimentArtifacts]:
    """Full per-seed pipeline: split, transform, train, evaluate best checkpoint."""
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode}")
    assignment = split(len(table), seed=seed)
    assignment.require_nonempty()
    prepared = prepare_splits(table, assignment)
    data = prepared.data
    model = build_model(
        model_kind, table.X.shape[1], prepared.vocab.cardinality, seed,
        dropout_rate=dropout_rate,
    )

    result: TrainResult | None = None
    convergence = None
    best_round = None
    if model_kind in ("dummy-mean", "dummy-gauss"):
        model.fit(data.y_train)
    else:
        if mode == "centralized":
            cfg, train = replace(central_cfg or CentralConfig(), seed=seed), run_centralized
        else:
            cfg, train = replace(fed_cfg or FedConfig(), seed=seed), run_federated
        result = train(data, model, cfg)
        convergence = detect_convergence([log.val_mae for log in result.logs])
        set_params(model, result.best_params)
        best_round = result.best_round
    predictions = model.predict(data.X_test, data.st_test)
    seed_result = SeedResult(
        seed=seed,
        test_mae=mae(predictions, data.y_test),
        test_rmse=rmse(predictions, data.y_test),
        best_round=best_round,
        convergence_round=convergence,
    )
    return seed_result, ExperimentArtifacts(
        model=model, result=result, prepared=prepared, predictions=predictions
    )


@dataclass
class RunReport:
    """Per-seed metrics plus mean and population-std aggregates."""

    model: str
    mode: str
    per_seed: list[SeedResult]
    mae_mean: float = 0.0
    mae_std: float = 0.0
    rmse_mean: float = 0.0
    rmse_std: float = 0.0
    convergence_round_median: float | None = None

    @property
    def n_seeds(self) -> int:
        return len(self.per_seed)

    def __post_init__(self):
        if not self.per_seed:
            raise ValueError("per_seed is empty")
        maes = np.array([r.test_mae for r in self.per_seed])
        rmses = np.array([r.test_rmse for r in self.per_seed])
        self.mae_mean = float(maes.mean())
        self.mae_std = float(maes.std())
        self.rmse_mean = float(rmses.mean())
        self.rmse_std = float(rmses.std())
        rounds = [r.convergence_round for r in self.per_seed if r.convergence_round]
        self.convergence_round_median = (
            float(statistics.median(rounds)) if rounds else None
        )


def multi_seed_run(
    table: FeatureTable,
    model_kind: str,
    mode: str,
    seeds=DEFAULT_SEEDS,
    fed_cfg: FedConfig | None = None,
    central_cfg: CentralConfig | None = None,
    dropout_rate: float = MlpSpec.dropout_rate,
) -> RunReport:
    """Run the per-seed pipeline for each seed and aggregate.

    Each seed gets its own 70/15/15 split as well as its own initialization
    and batch schedule (reports record this re-splitting policy).
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    split(len(table)).require_nonempty()  # the split sizes depend only on n
    per_seed = []
    for seed in seeds:
        try:
            seed_result, _ = run_experiment(
                table, model_kind, mode, seed,
                fed_cfg=fed_cfg, central_cfg=central_cfg, dropout_rate=dropout_rate,
            )
        except Exception as exc:
            raise RuntimeError(f"seed {seed} failed: {exc}") from exc
        per_seed.append(seed_result)
    return RunReport(model=model_kind, mode=mode, per_seed=per_seed)


RESULT_COLUMNS = [
    "model",
    "mode",
    "mae_mean",
    "mae_std",
    "rmse_mean",
    "rmse_std",
    "n_seeds",
    "convergence_round_median",
]


def report_to_dict(report: RunReport) -> dict:
    return {**asdict(report), "split_policy": "resplit-per-seed", "n_seeds": report.n_seeds}


def report_from_dict(payload: dict) -> RunReport:
    """The RunReport that report_to_dict wrote; aggregates are recomputed."""
    per_seed = [SeedResult(**entry) for entry in payload["per_seed"]]
    return RunReport(model=payload["model"], mode=payload["mode"], per_seed=per_seed)


def emit_report(reports: list[RunReport], out_dir) -> tuple[Path, Path]:
    """Write results.csv (stable column order) and results.json (full detail)."""
    if not reports:
        raise ValueError("need at least one report")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "results.csv"
    json_path = out_dir / "results.json"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)  # writes floats with repr and None as ""
        writer.writerow(RESULT_COLUMNS)
        writer.writerows([getattr(rep, c) for c in RESULT_COLUMNS] for rep in reports)
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump([report_to_dict(r) for r in reports], fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


def write_predictions(path, session_ids, y_true, y_pred) -> None:
    """predictions.csv for independent metric re-checks."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["session_id", "y_true", "y_pred"])
        for sid, yt, yp in zip(session_ids, y_true, y_pred):
            writer.writerow([sid, repr(float(yt)), repr(float(yp))])

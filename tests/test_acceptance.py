"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. A9 exercises real depot data and is skipped unless FEDCHARGE_ACN_DIR
points at a directory holding sessions.csv/timeseries.csv in the documented
schema.
"""

import os
import time

import numpy as np
import pytest

from fedcharge.evaluation import (
    build_model,
    prepare_splits,
    run_experiment,
    split,
    write_predictions,
)
from conftest import make_series, make_session
from features_reference import early_energy, least_squares_slope
from fedcharge.features import FEATURE_COLUMNS, build_feature_table
from fedcharge.federation import CentralConfig, FedConfig, run_centralized, run_federated
from fedcharge.heterogeneity import analyze_partition
from fedcharge.ingest import (
    SyntheticDepotSpec,
    generate_synthetic,
    parse_sessions,
    parse_timeseries,
)
from fedcharge.models import LinearRegressor, MlpRegressor, MlpSpec
from fedcharge.partition import partition_by_station
from fedcharge.sessions import DatasetConfig, retain_sessions

CFG = DatasetConfig()


def report(criterion: str, ok: bool, detail: str):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def make_table(spec: SyntheticDepotSpec):
    sessions, series = generate_synthetic(spec)
    retained = retain_sessions(sessions, series, CFG)
    return build_feature_table(retained.sessions, series, CFG, retained.windows)


def table_feature(name: str, offsets, current, cfg=CFG) -> float:
    """One feature of build_feature_table's row for one session with one
    current reading per offset (seconds after connection)."""
    session = make_session()
    series = make_series(start=session.connection_time, offsets_s=offsets, current=current)
    table = build_feature_table([session], {session.session_id: series}, cfg)
    return float(table.X[0, FEATURE_COLUMNS.index(name)])


def test_a1_analytic_integration():
    t = np.arange(0, 601, 60, dtype=float)
    expected_const = 208.0 * 32.0 / 1000.0 * (600.0 / 3600.0)   # 1.1093333...
    expected_ramp = expected_const / 2.0                         # 0.5546666...
    ok = True
    # The per-session definition, then the table that featurize writes.
    for energy in (
        lambda current: early_energy(t, current, 208.0),
        lambda current: table_feature("early_energy_kwh", t, tuple(current)),
    ):
        constant = energy(np.full(t.size, 32.0))
        ramp = energy(32.0 * t / 600.0)
        ok &= abs(constant - expected_const) < 1e-9 and abs(ramp - expected_ramp) < 1e-9
    report("A1", ok, f"constant={constant:.9f} ramp={ramp:.9f}")


def test_a2_slope_exactness():
    rng = np.random.default_rng(0)
    window = DatasetConfig(early_window_minutes=100)  # holds every t < 6000 s
    worst = 0.0
    for _ in range(100):
        slope = float(rng.uniform(-2, 2))
        intercept = float(rng.uniform(-50, 50))
        n = int(rng.integers(2, 30))
        t = np.sort(rng.choice(6000, size=n, replace=False)).astype(float)
        recovered = least_squares_slope(t, slope * t + intercept)
        in_table = table_feature("current_slope", t, tuple(slope * t + intercept), window)
        worst = max(worst, abs(recovered - slope), abs(in_table - slope))
    report("A2", worst < 1e-9, f"worst |error| = {worst:.2e} over 100 draws")


def test_a3_gradient_oracle():
    def fd(model, X, st, y, eps=1e-6):
        base = model.values.copy()
        grad = np.zeros_like(base)
        for i in range(base.size):
            model.values = base.copy()
            model.values[i] += eps
            up = np.mean((model.predict(X, st) - y) ** 2)
            model.values = base.copy()
            model.values[i] -= eps
            down = np.mean((model.predict(X, st) - y) ** 2)
            grad[i] = (up - down) / (2 * eps)
        model.values = base
        return grad

    def rel(a, b):
        return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)

    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    spec = MlpSpec(numeric_input_dim=3, embedding_cardinality=2,
                   embedding_dim=2, hidden=(4, 3, 2), dropout_rate=0.0)
    worst = 0.0
    for point in range(100):
        lr = LinearRegressor(4, seed=point)
        X = rng.normal(size=(6, 4))
        y = rng.normal(size=6)
        _, ga = lr.loss_and_grad(X, None, y)
        worst = max(worst, rel(ga, fd(lr, X, None, y)))

        mlp = MlpRegressor(spec, seed=point)
        Xm = rng.normal(size=(5, 3))
        stm = rng.integers(0, 3, size=5)
        ym = np.abs(rng.normal(size=5)) * 4
        _, gm = mlp.loss_and_grad(Xm, stm, ym, rng=None)
        worst = max(worst, rel(gm, fd(mlp, Xm, stm, ym)))
    elapsed = time.perf_counter() - t0
    report("A3", worst < 1e-4,
           f"worst relative error {worst:.2e} at 100 points ({elapsed:.1f}s)")


def test_a4_fedavg_degenerate_equivalence():
    t0 = time.perf_counter()
    table = make_table(
        SyntheticDepotSpec(n_stations=1, sessions_per_station=(500, 500), seed=5)
    )
    prep = prepare_splits(table, split(len(table), seed=11))
    rounds, local_epochs = 3, 2
    m_fed = build_model("mlp", table.X.shape[1], prep.vocab.cardinality, seed=11)
    fed = run_federated(prep.data, m_fed,
                        FedConfig(rounds=rounds, local_epochs=local_epochs,
                                  client_fraction=1.0, seed=11))
    m_cen = build_model("mlp", table.X.shape[1], prep.vocab.cardinality, seed=11)
    cen = run_centralized(prep.data, m_cen,
                          CentralConfig(epochs=rounds * local_epochs, seed=11,
                                        optimizer_reset_interval=local_epochs))
    gap = float(np.max(np.abs(fed.final_params.values - cen.final_params.values)))
    elapsed = time.perf_counter() - t0
    report("A4", gap <= 1e-12,
           f"max parameter gap {gap:.2e} on {len(table)}-session depot ({elapsed:.1f}s)")


def test_a5_heterogeneity_calibration():
    t0 = time.perf_counter()
    iid_ok = 0
    for seed in range(20):
        table = make_table(SyntheticDepotSpec(
            n_stations=20, sessions_per_station=(20, 30),
            heterogeneity_shift_kwh=0.0, seed=seed,
        ))
        rep = analyze_partition(table.y, partition_by_station(table.station_ids),
                                seed=seed)
        iid_ok += rep.js_weighted <= rep.tau_iid

    shifted_ok = 0
    for seed in range(20):
        base = make_table(SyntheticDepotSpec(
            n_stations=20, sessions_per_station=(80, 100),
            heterogeneity_shift_kwh=0.0, seed=seed,
        ))
        global_std = float(np.std(base.y))
        table = make_table(SyntheticDepotSpec(
            n_stations=20, sessions_per_station=(80, 100),
            heterogeneity_shift_kwh=global_std, seed=seed,
        ))
        rep = analyze_partition(table.y, partition_by_station(table.station_ids),
                                seed=seed)
        shifted_ok += rep.classification == "non-IID"
    elapsed = time.perf_counter() - t0
    report("A5", iid_ok >= 18 and shifted_ok == 20,
           f"IID {iid_ok}/20 trials under tau; shifted non-IID {shifted_ok}/20 ({elapsed:.0f}s)")


@pytest.fixture(scope="module")
def linear_depot_table():
    # Fixed-duration sessions make the target an exact linear function of the
    # early-window energy plus Gaussian noise.
    return make_table(SyntheticDepotSpec(
        n_stations=20, sessions_per_station=(90, 110), session_minutes=(120, 120),
        station_energy_mean_kwh=5.0, station_energy_std_kwh=3.0,
        noise_std_kwh=1.0, seed=42,
    ))


def test_a6_learning_signal(linear_depot_table):
    t0 = time.perf_counter()
    table = linear_depot_table
    central = CentralConfig(epochs=200, batch_size=32)
    dummy, _ = run_experiment(table, "dummy-mean", "centralized", seed=0)
    lr, _ = run_experiment(table, "lr", "centralized", seed=0, central_cfg=central)
    mlp, _ = run_experiment(table, "mlp", "centralized", seed=0, central_cfg=central)
    ok = lr.test_mae < 0.5 * dummy.test_mae and mlp.test_mae <= 1.05 * lr.test_mae
    elapsed = time.perf_counter() - t0
    report("A6", ok,
           f"dummy {dummy.test_mae:.3f}, lr {lr.test_mae:.3f}, "
           f"mlp {mlp.test_mae:.3f} kWh ({elapsed:.0f}s)")


def test_a7_federated_gap():
    t0 = time.perf_counter()
    table = make_table(SyntheticDepotSpec(
        n_stations=20, sessions_per_station=(90, 110), seed=42,
    ))
    central, _ = run_experiment(table, "mlp", "centralized", seed=0,
                                central_cfg=CentralConfig(epochs=40))
    fed, _ = run_experiment(table, "mlp", "federated", seed=0,
                            fed_cfg=FedConfig(rounds=400, local_epochs=3,
                                              client_fraction=0.2))
    gap = fed.test_mae / central.test_mae - 1.0
    elapsed = time.perf_counter() - t0
    report("A7", fed.test_mae <= 1.15 * central.test_mae,
           f"federated {fed.test_mae:.3f} vs centralized {central.test_mae:.3f} kWh, "
           f"relative gap {gap:+.1%} ({elapsed:.0f}s)")


def test_a8_nonnegativity_and_metric_oracles(tmp_path, linear_depot_table):
    # Softplus output under aggressive input fuzzing.
    spec = MlpSpec(numeric_input_dim=36, embedding_cardinality=20)
    mlp = MlpRegressor(spec, seed=0)
    rng = np.random.default_rng(2)
    X = rng.normal(scale=50.0, size=(10_000, 36))
    st = rng.integers(0, 21, size=10_000)
    preds = mlp.predict(X, st)
    nonneg = bool(np.all(preds >= 0.0))

    # Metric oracle from a real run's predictions.csv.
    result, artifacts = run_experiment(
        linear_depot_table, "mlp", "centralized", seed=0,
        central_cfg=CentralConfig(epochs=5),
    )
    path = tmp_path / "predictions.csv"
    write_predictions(path, artifacts.prepared.test_session_ids,
                      artifacts.prepared.data.y_test, artifacts.predictions)
    import csv as csvmod

    y_true, y_pred = [], []
    with open(path) as fh:
        for row in csvmod.DictReader(fh):
            y_true.append(float(row["y_true"]))
            y_pred.append(float(row["y_pred"]))
    n = len(y_true)
    brute_mae = sum(abs(a - b) for a, b in zip(y_pred, y_true)) / n
    brute_rmse = (sum((a - b) ** 2 for a, b in zip(y_pred, y_true)) / n) ** 0.5
    metrics_ok = (
        abs(result.test_mae - brute_mae) < 1e-12
        and abs(result.test_rmse - brute_rmse) < 1e-12
    )
    report("A8", nonneg and metrics_ok,
           f"min prediction {preds.min():.3e} over 10^4 inputs; "
           f"MAE/RMSE brute-force deltas {abs(result.test_mae - brute_mae):.2e}/"
           f"{abs(result.test_rmse - brute_rmse):.2e}")


ACN_ENV = "FEDCHARGE_ACN_DIR"


@pytest.mark.skipif(ACN_ENV not in os.environ,
                    reason=f"set {ACN_ENV} to a directory with ACN-derived "
                           "sessions/timeseries files to run A9")
def test_a9_acn_caltech_conditional():
    base = os.environ[ACN_ENV]
    sessions = parse_sessions(os.path.join(base, "sessions.csv")).records
    series = parse_timeseries(os.path.join(base, "timeseries.csv")).index
    retained = retain_sessions(sessions, series, CFG)
    table = build_feature_table(retained.sessions, series, CFG)

    partition = partition_by_station(table.station_ids)
    k_ok = partition.n_clients == 54

    depot_mean = float(np.mean(table.y))
    mean_ok = 8.0 <= depot_mean <= 10.0

    het = analyze_partition(table.y, partition, seed=0)
    het_ok = (het.classification == "non-IID"
              and 0.005 <= het.js_weighted <= 0.05)

    mlp, _ = run_experiment(table, "mlp", "centralized", seed=0,
                            central_cfg=CentralConfig(epochs=40))
    mae_ok = 3.0 <= mlp.test_mae <= 4.5

    report("A9", k_ok and mean_ok and het_ok and mae_ok,
           f"K={partition.n_clients}, depot mean {depot_mean:.2f} kWh, "
           f"JS_weighted {het.js_weighted:.4f} vs tau {het.tau_iid:.4f} "
           f"({het.classification}), MLP MAE {mlp.test_mae:.2f} kWh")

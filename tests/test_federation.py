"""Client sampling, aggregation, trainers, and the degenerate equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedcharge.federation as federation
from fedcharge.evaluation import build_model, prepare_splits, split
from fedcharge.federation import (
    CentralConfig,
    FedConfig,
    aggregate,
    detect_convergence,
    local_train,
    run_centralized,
    run_federated,
    sample_clients,
)
from fedcharge.features import build_feature_table
from fedcharge.ingest import SyntheticDepotSpec, generate_synthetic
from fedcharge.models import (
    LinearRegressor,
    ModelParameters,
    get_params,
)
from fedcharge.partition import partition_by_station
from fedcharge.sessions import retain_sessions


@pytest.fixture(scope="module")
def prepared(small_table):
    return prepare_splits(small_table, split(len(small_table), seed=11))


@pytest.fixture(scope="module")
def single_station_prepared(dataset_cfg):
    spec = SyntheticDepotSpec(n_stations=1, sessions_per_station=(60, 60), seed=5)
    sessions, series = generate_synthetic(spec)
    retained = retain_sessions(sessions, series, dataset_cfg)
    table = build_feature_table(retained.sessions, series, dataset_cfg)
    return table, prepare_splits(table, split(len(table), seed=11))


class TestPartition:
    def test_weights_from_counts(self):
        part = partition_by_station(["a"] * 5 + ["b"] * 3 + ["c"] * 2)
        assert part.n_clients == 3
        np.testing.assert_allclose(part.weights, [0.5, 0.3, 0.2])

    def test_singleton(self):
        part = partition_by_station(["only"] * 4)
        assert part.n_clients == 1
        np.testing.assert_allclose(part.weights, [1.0])

    def test_disjoint_cover_and_order(self):
        stations = ["b", "a", "b", "c", "a", "a"]
        part = partition_by_station(stations)
        assert part.client_ids == ("a", "b", "c")
        flat = sorted(i for idx in part.indices for i in idx)
        assert flat == list(range(len(stations)))
        assert part.indices[0] == (1, 4, 5)  # row order preserved per client

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            partition_by_station([])


class TestSampleClients:
    def test_fraction_of_54_is_11(self):
        part = partition_by_station([f"st{i:02d}" for i in range(54) for _ in (0,)])
        sampled = sample_clients(part, 0.2, round_index=0, seed=0)
        assert len(sampled) == 11  # round(0.2 * 54)

    def test_full_participation(self):
        part = partition_by_station(["a", "b", "c"])
        assert sample_clients(part, 1.0, 5, seed=3) == ("a", "b", "c")

    def test_deterministic_per_round_and_seed(self):
        part = partition_by_station([f"st{i}" for i in range(20)])
        a = sample_clients(part, 0.2, 7, seed=1)
        b = sample_clients(part, 0.2, 7, seed=1)
        assert a == b
        assert sample_clients(part, 0.2, 8, seed=1) != a or True  # usually differs
        assert len(a) == 4

    def test_invalid_fraction(self):
        part = partition_by_station(["a"])
        with pytest.raises(ValueError):
            sample_clients(part, 0.0, 0, seed=0)
        with pytest.raises(ValueError):
            sample_clients(part, 1.5, 0, seed=0)


class TestAggregate:
    def _params(self, values):
        model = LinearRegressor(1, seed=0)
        return ModelParameters(layout=model.layout, values=np.asarray(values, float))

    def test_weighted_mean(self):
        a = self._params([1.0, 2.0])
        out = aggregate([(a, 1), (self._params([3.0, 4.0]), 3)])
        np.testing.assert_allclose(out.values, [2.5, 3.5])
        assert out.layout == a.layout and out.values.size == a.values.size

    def test_idempotent_on_identical_updates(self):
        p = self._params([5.0, -1.0])
        out = aggregate([(p, 2), (p, 7)])
        np.testing.assert_allclose(out.values, p.values)

    def test_single_client_unchanged(self):
        p = self._params([0.25, 8.0])
        np.testing.assert_array_equal(aggregate([(p, 9)]).values, p.values)

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=6),
        counts=st.lists(st.integers(1, 10_000), min_size=2, max_size=12),
    )
    def test_identical_updates_return_the_input(self, values, counts):
        p = ModelParameters(LinearRegressor(len(values) - 1, seed=0).layout, values)
        np.testing.assert_array_equal(aggregate([(p, counts[0])]).values, p.values)
        # k copies under unequal weights: each weight n/total and each of the
        # k products and sums rounds once, so the error stays within k + 1 ulp.
        out = aggregate([(p, n) for n in counts]).values
        ulp = np.spacing(np.abs(p.values))
        assert np.all(np.abs(out - p.values) <= (len(counts) + 1) * ulp)

    def test_layout_mismatch_and_empty(self):
        a = LinearRegressor(1, seed=0)
        b = LinearRegressor(2, seed=0)
        with pytest.raises(ValueError):
            aggregate([(get_params(a), 1), (get_params(b), 1)])
        with pytest.raises(ValueError):
            aggregate([])


class TestLocalTrain:
    def test_zero_epochs_identity(self, prepared):
        data = prepared.data
        model = build_model("lr", data.X_train.shape[1], prepared.vocab.cardinality, 0)
        start = get_params(model)
        out = local_train(model, start, data.X_train, data.st_train, data.y_train,
                          local_epochs=0, batch_size=32, lr=1e-3, epoch_rngs=[])
        np.testing.assert_array_equal(out.values, start.values)

    def test_small_client_partial_batch(self, prepared):
        data = prepared.data
        model = build_model("lr", data.X_train.shape[1], prepared.vocab.cardinality, 0)
        start = get_params(model)
        out = local_train(
            model, start, data.X_train[:5], data.st_train[:5], data.y_train[:5],
            local_epochs=1, batch_size=128, lr=1e-3,
            epoch_rngs=[np.random.default_rng(0)],
        )
        assert np.any(out.values != start.values)

    def test_perfect_fit_fixed_point(self):
        # Zero-gradient model: predictions already equal targets.
        model = LinearRegressor(2, seed=0)
        model.values = np.array([1.0, 2.0, 0.5])
        X = np.random.default_rng(1).normal(size=(12, 2))
        y = X @ np.array([1.0, 2.0]) + 0.5
        start = get_params(model)
        out = local_train(model, start, X, np.zeros(12, int), y,
                          local_epochs=3, batch_size=4, lr=1e-3,
                          epoch_rngs=[np.random.default_rng(i) for i in range(3)])
        np.testing.assert_allclose(out.values, start.values, atol=1e-12)


class TestRunFederated:
    def test_degenerate_equivalence_single_round(self, single_station_prepared):
        table, prep = single_station_prepared
        data = prep.data
        m1 = build_model("mlp", table.X.shape[1], prep.vocab.cardinality, seed=11)
        fed = run_federated(data, m1, FedConfig(rounds=1, local_epochs=4,
                                                client_fraction=1.0, seed=11))
        m2 = build_model("mlp", table.X.shape[1], prep.vocab.cardinality, seed=11)
        cen = run_centralized(data, m2, CentralConfig(epochs=4, seed=11))
        np.testing.assert_allclose(
            fed.final_params.values, cen.final_params.values, atol=1e-12
        )

    def test_degenerate_equivalence_multi_round(self, single_station_prepared):
        # Federated resets the optimizer each round; the centralized twin
        # matches it with an optimizer reset every local_epochs epochs.
        table, prep = single_station_prepared
        data = prep.data
        rounds, local_epochs = 3, 2
        m1 = build_model("lr", table.X.shape[1], prep.vocab.cardinality, seed=11)
        fed = run_federated(data, m1, FedConfig(rounds=rounds, local_epochs=local_epochs,
                                                client_fraction=1.0, seed=11))
        m2 = build_model("lr", table.X.shape[1], prep.vocab.cardinality, seed=11)
        cen = run_centralized(
            data, m2,
            CentralConfig(epochs=rounds * local_epochs, seed=11,
                          optimizer_reset_interval=local_epochs),
        )
        np.testing.assert_allclose(
            fed.final_params.values, cen.final_params.values, atol=1e-12
        )

    def test_zero_rounds_keeps_initial(self, prepared):
        data = prepared.data
        model = build_model("lr", data.X_train.shape[1], prepared.vocab.cardinality, 3)
        initial = get_params(model)
        result = run_federated(data, model, FedConfig(rounds=0, seed=3))
        np.testing.assert_array_equal(result.best_params.values, initial.values)
        assert result.logs == [] and result.best_round == 0

    def test_best_checkpoint_is_min_val_mae(self, prepared):
        data = prepared.data
        model = build_model("lr", data.X_train.shape[1], prepared.vocab.cardinality, 3)
        result = run_federated(data, model, FedConfig(rounds=8, seed=3))
        assert result.best_val_mae == min(log.val_mae for log in result.logs)
        assert result.logs[result.best_round - 1].val_mae == result.best_val_mae
        assert [log.round for log in result.logs] == list(range(1, 9))

    def test_deterministic_given_seed(self, prepared):
        data = prepared.data
        results = []
        for _ in range(2):
            model = build_model("mlp", data.X_train.shape[1], prepared.vocab.cardinality, 4)
            results.append(run_federated(data, model, FedConfig(rounds=4, seed=4)))
        a, b = results
        assert a.logs == b.logs
        np.testing.assert_array_equal(a.final_params.values, b.final_params.values)

    def test_aggregation_sees_only_params_and_counts(self, prepared, monkeypatch):
        data = prepared.data
        seen = []

        def spy(updates):
            seen.append(updates)
            return aggregate(updates)

        monkeypatch.setattr(federation, "aggregate", spy)
        model = build_model("lr", data.X_train.shape[1], prepared.vocab.cardinality, 5)
        run_federated(data, model, FedConfig(rounds=2, seed=5))
        assert seen
        for updates in seen:
            for params, count in updates:
                assert isinstance(params, ModelParameters)
                assert isinstance(count, int)

    def test_zero_gradient_params_invariant_across_rounds(self, prepared):
        data = prepared.data
        model = build_model("lr", data.X_train.shape[1], prepared.vocab.cardinality, 6)
        # Perfect-fit model on constant zero targets: w = 0, b = 0.
        zero = SplitDataZero(data)
        model.values = np.zeros_like(model.values)
        result = run_federated(zero, model, FedConfig(rounds=3, seed=6))
        np.testing.assert_allclose(result.final_params.values, 0.0, atol=1e-15)


def SplitDataZero(data):
    from dataclasses import replace

    zeros = lambda y: np.zeros_like(y)
    return replace(
        data,
        y_train=zeros(data.y_train),
        y_val=zeros(data.y_val),
        y_test=zeros(data.y_test),
    )


class TestRunCentralized:
    def test_zero_epochs_keeps_initial(self, prepared):
        data = prepared.data
        model = build_model("lr", data.X_train.shape[1], prepared.vocab.cardinality, 7)
        initial = get_params(model)
        result = run_centralized(data, model, CentralConfig(epochs=0, seed=7))
        np.testing.assert_array_equal(result.best_params.values, initial.values)
        assert result.best_val_mae is None

    def test_training_descends_on_convex_problem(self, prepared):
        data = prepared.data
        model = build_model("lr", data.X_train.shape[1], prepared.vocab.cardinality, 8)
        initial = get_params(model)

        def train_mse(params):
            from fedcharge.models import set_params

            set_params(model, params)
            return float(np.mean((model.predict(data.X_train, data.st_train) - data.y_train) ** 2))

        mse_init = train_mse(initial)
        result = run_centralized(data, model, CentralConfig(epochs=15, seed=8))
        assert train_mse(result.best_params) <= mse_init

    def test_deterministic_given_seed(self, prepared):
        data = prepared.data
        results = []
        for _ in range(2):
            model = build_model("mlp", data.X_train.shape[1], prepared.vocab.cardinality, 9)
            results.append(run_centralized(data, model, CentralConfig(epochs=3, seed=9)))
        assert results[0].logs == results[1].logs


class TestDetectConvergence:
    def test_flat_tail(self):
        vals = [10.0, 8.0, 6.0, 5.0] + [5.0] * 31
        assert detect_convergence(vals, patience=30, min_delta=0.01) == 4
        assert detect_convergence(vals) == 4  # 30 rounds, 0.01 kWh by default

    def test_strictly_improving_never_converges(self):
        vals = [10.0 - 0.5 * i for i in range(40)]
        assert detect_convergence(vals, patience=5, min_delta=0.01) is None

    def test_hand_worked_example(self):
        vals = [5.0, 4.0, 3.995, 3.99, 3.99, 3.99, 3.99]
        assert detect_convergence(vals, patience=2, min_delta=0.01) == 2

    def test_window_must_be_complete(self):
        assert detect_convergence([5.0, 5.0], patience=30, min_delta=0.01) is None


class TestFedConfigValidation:
    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError, match="client_fraction"):
            FedConfig(client_fraction=1.5)

    def test_negative_rounds(self):
        with pytest.raises(ValueError):
            FedConfig(rounds=-1)

    def test_central_reset_interval(self):
        with pytest.raises(ValueError):
            CentralConfig(optimizer_reset_interval=0)


class TestDivergence:
    """A batch loss or validation MAE that is not finite stops training, with
    the mode, the round or epoch and the learning rate in the message."""

    @pytest.mark.parametrize("kind", ["mlp", "lr"])
    def test_centralized_names_epoch_and_lr(self, prepared, kind):
        data = prepared.data
        model = build_model(kind, data.X_train.shape[1], prepared.vocab.cardinality, 3)
        with np.errstate(all="ignore"), pytest.raises(
            ValueError, match=r"centralized training diverged in epoch 1 at lr 1e\+200: "
                              r"the batch loss is (nan|inf)"):
            run_centralized(data, model, CentralConfig(epochs=3, lr=1e200, seed=3))

    @pytest.mark.parametrize("kind", ["mlp", "lr"])
    def test_federated_names_round_and_lr(self, prepared, kind):
        data = prepared.data
        model = build_model(kind, data.X_train.shape[1], prepared.vocab.cardinality, 3)
        with np.errstate(all="ignore"), pytest.raises(
            ValueError, match=r"federated training diverged in round 1 at lr 1e\+200: "
                              r"the batch loss is (nan|inf)"):
            run_federated(data, model, FedConfig(rounds=3, lr=1e200, seed=3))

    @pytest.mark.parametrize("mode", ["centralized", "federated"])
    def test_last_step_checked_through_validation(self, prepared, mode):
        # One step per run: its loss is finite, the parameters it leaves are not.
        data = prepared.data
        model = build_model("mlp", data.X_train.shape[1], prepared.vocab.cardinality, 3)
        cfg = (CentralConfig(epochs=1, batch_size=10_000, lr=1e200, seed=3)
               if mode == "centralized" else
               FedConfig(rounds=1, local_epochs=1, client_fraction=0.1, batch_size=10_000,
                         lr=1e200, seed=3))
        run = run_centralized if mode == "centralized" else run_federated
        where = "epoch 1" if mode == "centralized" else "round 1"
        with np.errstate(all="ignore"), pytest.raises(
            ValueError, match=f"{mode} training diverged in {where} at lr 1e\\+200: "
                              r"the validation MAE is (nan|inf)"):
            run(data, model, cfg)

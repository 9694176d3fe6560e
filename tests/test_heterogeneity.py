"""Histogram divergences, the permutation null, and IID classification."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcharge import heterogeneity
from fedcharge.heterogeneity import analyze_partition, global_bin_edges, permutation_null
from fedcharge.partition import partition_by_station
from fedcharge.seeding import STREAM_PERM, rng_from
from heterogeneity_reference import (
    HistogramDensity,
    fit_histogram,
    js_divergence,
    kl_divergence,
    weighted_js,
)

# The upper bound of a natural-log Jensen-Shannon divergence.
LN2 = math.log(2.0)


def hist(probs, edges=None):
    probs = np.asarray(probs, dtype=float)
    if edges is None:
        edges = np.arange(probs.size + 1, dtype=float)
    return HistogramDensity(bin_edges=np.asarray(edges, dtype=float), probabilities=probs)


class TestHistogram:
    def test_point_mass(self):
        edges = global_bin_edges([5.0, 5.1], n_bins=4)
        h = fit_histogram([5.05, 5.05, 5.05], edges)
        assert h.probabilities.max() == 1.0

    def test_uniform_grid_counts(self):
        # Hand count: targets 0.5, 1.5, 2.5, 3.5 over edges 0..4 -> 1 per bin.
        edges = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        h = fit_histogram([0.5, 1.5, 2.5, 3.5], edges)
        np.testing.assert_allclose(h.probabilities, [0.25, 0.25, 0.25, 0.25])

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            targets = rng.uniform(0, 30, size=int(rng.integers(1, 200)))
            h = fit_histogram(targets, global_bin_edges(targets, 50))
            assert abs(h.probabilities.sum() - 1.0) < 1e-12

    def test_upper_edge_in_last_bin(self):
        edges = np.array([0.0, 1.0, 2.0])
        h = fit_histogram([2.0], edges)
        np.testing.assert_allclose(h.probabilities, [0.0, 1.0])

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError):
            fit_histogram([], np.array([0.0, 1.0]))

    @pytest.mark.parametrize("bins", [0, -3])
    def test_nonpositive_bins_rejected(self, bins):
        with pytest.raises(ValueError, match=f"bins must be a positive integer, got {bins}"):
            global_bin_edges([1.0, 2.0], bins)


class TestKl:
    def test_identity_zero(self):
        p = hist([0.25, 0.75])
        assert kl_divergence(p, p) == 0.0

    def test_single_term_value(self):
        assert kl_divergence(hist([1.0, 0.0]), hist([0.5, 0.5])) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.dirichlet(np.ones(10))
            q = rng.dirichlet(np.ones(10)) + 1e-9
            q = q / q.sum()
            assert kl_divergence(hist(p), hist(q)) >= -1e-15

    def test_contract_violation_raises(self):
        with pytest.raises(ValueError):
            kl_divergence(hist([0.5, 0.5]), hist([1.0, 0.0]))


class TestJs:
    def test_identical_distributions_zero(self):
        p = hist([0.2, 0.3, 0.5])
        assert js_divergence(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_disjoint_point_masses_ln2(self):
        assert js_divergence(hist([1.0, 0.0]), hist([0.0, 1.0])) == pytest.approx(
            LN2, abs=1e-12
        )

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            p = hist(rng.dirichlet(np.ones(8)))
            q = hist(rng.dirichlet(np.ones(8)))
            assert js_divergence(p, q) == pytest.approx(js_divergence(q, p), abs=1e-12)

    def test_range_bounds_fuzz(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = hist(rng.dirichlet(np.ones(12)))
            q = hist(rng.dirichlet(np.ones(12)))
            v = js_divergence(p, q)
            assert -1e-15 <= v <= LN2 + 1e-15

    def test_mismatched_edges_rejected(self):
        p = hist([0.5, 0.5], edges=[0, 1, 2])
        q = hist([0.5, 0.5], edges=[0, 1, 3])
        with pytest.raises(ValueError):
            js_divergence(p, q)


class TestWeightedJs:
    def test_convexity_fixed_point(self):
        part = partition_by_station(["a"] * 3 + ["b"] * 5)
        assert weighted_js(part, {"a": 0.3, "b": 0.3}) == pytest.approx(0.3, abs=1e-15)

    def test_two_client_hand_value(self):
        part = partition_by_station(["a", "b", "b", "b"])
        assert weighted_js(part, {"a": 0.4, "b": 0.0}) == pytest.approx(0.1, abs=1e-15)

    def test_bounds_and_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            k = int(rng.integers(2, 10))
            stations = []
            for i in range(k):
                stations += [f"st{i}"] * int(rng.integers(1, 20))
            part = partition_by_station(stations)
            js = {cid: float(rng.uniform(0, LN2)) for cid in part.client_ids}
            got = weighted_js(part, js)
            sizes = part.sizes
            brute = sum(
                sizes[i] / sizes.sum() * js[cid]
                for i, cid in enumerate(part.client_ids)
            )
            assert abs(got - brute) < 1e-12
            assert min(js.values()) - 1e-12 <= got <= max(js.values()) + 1e-12


class TestPermutationNull:
    def test_identical_targets_degenerate(self):
        mu, sigma, tau = permutation_null([7.0] * 30, [10, 10, 10], 20, seed=0)
        assert (mu, sigma, tau) == (0.0, 0.0, 0.0)

    def test_same_seed_reproducible(self):
        rng = np.random.default_rng(5)
        targets = rng.uniform(0, 20, size=60)
        a = permutation_null(targets, [20, 20, 20], 50, seed=9)
        b = permutation_null(targets, [20, 20, 20], 50, seed=9)
        assert a == b

    def test_tau_is_mu_plus_two_sigma(self):
        rng = np.random.default_rng(6)
        targets = rng.uniform(0, 20, size=80)
        mu, sigma, tau = permutation_null(targets, [40, 40], 40, seed=1)
        assert tau == pytest.approx(mu + 2 * sigma, abs=1e-15)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            permutation_null([1.0, 2.0], [3], 10, seed=0)

    @pytest.mark.parametrize("n", [1, 2, 1843])
    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_a_chunk_draws_the_rows_of_per_row_permutations(self, n, k):
        """The null draws a chunk of k permutations in one rng.permuted call:
        the rows, and the generator state after them, of k rng.permutation
        calls. A numpy that changes either stream fails here."""
        rows, one_call = rng_from(3, STREAM_PERM), rng_from(3, STREAM_PERM)
        want = np.stack([rows.permutation(n) for _ in range(k)])
        chunk = np.tile(np.arange(n), (k, 1))
        one_call.permuted(chunk, axis=1, out=chunk)
        assert np.array_equal(chunk, want)
        assert one_call.bit_generator.state == rows.bit_generator.state


class TestClassify:
    """analyze_partition's classification: non-IID iff the weighted JS
    strictly exceeds tau."""

    def test_observed_exceeding_tau_is_non_iid(self):
        # Two stations on disjoint halves of the range: the observed weighted
        # divergence clears the permutation threshold.
        targets = np.concatenate([np.arange(10.0), np.arange(100.0, 110.0)])
        report = analyze_partition(targets, partition_by_station(["lo"] * 10 + ["hi"] * 10),
                                   n_permutations=50, seed=0)
        assert report.js_weighted > report.tau_iid > 0.0
        assert report.classification == "non-IID"

    def test_zero_divergence_is_iid(self):
        # One shared histogram (an ascending repeat per station): every client's
        # JS is zero, below the null's spread.
        targets = np.tile(np.arange(10.0), 4)
        stations = np.repeat(["a", "b", "c", "d"], 10)
        report = analyze_partition(targets, partition_by_station(list(stations)),
                                   n_permutations=50, seed=0)
        assert report.js_weighted == 0.0 < report.tau_iid
        assert report.classification == "IID"

    def test_boundary_is_iid_strict_inequality(self):
        # Constant targets: every histogram is the one bin, so the observed
        # weighted JS equals tau at 0.0, and equal is IID.
        report = analyze_partition([7.0] * 12, partition_by_station(["a", "b", "b"] * 4),
                                   n_permutations=20, seed=0)
        assert report.js_weighted == report.tau_iid == 0.0
        assert report.classification == "IID"


class TestAnalyzePartition:
    def test_full_pipeline_deterministic(self):
        rng = np.random.default_rng(7)
        targets = rng.normal(9, 3, size=200)
        stations = [f"st{i % 8}" for i in range(200)]
        part = partition_by_station(stations)
        a = analyze_partition(targets, part, n_permutations=50, seed=3)
        b = analyze_partition(targets, part, n_permutations=50, seed=3)
        assert a == b
        assert set(a.per_client_js) == set(part.client_ids)
        assert all(0 <= v <= LN2 for v in a.per_client_js.values())
        assert a.js_max == max(a.per_client_js.values())

    def test_engineered_shift_detected(self):
        # Clients draw from two well-separated distributions: must flag non-IID.
        rng = np.random.default_rng(8)
        targets = np.concatenate([rng.normal(5, 1, 300), rng.normal(15, 1, 300)])
        stations = ["lo"] * 300 + ["hi"] * 300
        report = analyze_partition(targets, partition_by_station(stations),
                                   n_permutations=100, seed=0)
        assert report.classification == "non-IID"
        assert report.js_weighted > report.tau_iid


def reference_analysis(targets, indices, n_permutations, seed, n_bins):
    """The per-client loop the vectorized kernel replaced: one fit_histogram
    and one js_divergence per client, weighted and summed in client order.

    Returns (per-client JS of the clients' index lists, (mu, sigma, tau)).
    """
    arr = np.asarray(targets, dtype=float)
    sizes = np.array([len(idx) for idx in indices])
    edges = global_bin_edges(arr, n_bins)
    global_hist = fit_histogram(arr, edges)

    def per_client(index_lists):
        return [
            js_divergence(fit_histogram(arr[list(idx)], edges), global_hist)
            for idx in index_lists
        ]

    bounds = np.concatenate([[0], np.cumsum(sizes)])
    weights = sizes / sizes.sum()
    rng = rng_from(seed, STREAM_PERM)
    values = np.empty(n_permutations)
    for i in range(n_permutations):
        perm = rng.permutation(arr.size)
        total = 0.0
        for w, js in zip(weights, per_client(
            perm[bounds[k]:bounds[k + 1]] for k in range(sizes.size)
        )):
            total += w * js
        values[i] = total
    mu = float(values.mean())
    sigma = float(values.std())
    return per_client(indices), (mu, sigma, mu + 2.0 * sigma)


def _blocks(sizes):
    bounds = np.cumsum([0, *sizes])
    return [range(bounds[k], bounds[k + 1]) for k in range(len(sizes))]


ORACLE_CASES = {
    "one_client": [12],
    "single_session_client": [1, 6, 9],
    "unequal_sizes": [2, 17, 5, 30, 8, 1, 11, 3, 21, 6],
    "identical_targets": [4, 6, 5],
}


def _oracle_inputs(case, seed):
    sizes = ORACLE_CASES[case]
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    if case == "identical_targets":
        targets = np.full(n, 3.5)
    else:
        # Rounding leaves ties, so some targets share a bin edge exactly.
        targets = np.round(rng.gamma(2.0, 4.0, size=n), 1)
    # Station ids sort in client order, so the partition's sizes match `sizes`.
    stations = np.repeat([f"st{k:02d}" for k in range(len(sizes))], sizes)
    rng.shuffle(stations)
    return targets, partition_by_station(list(stations))


class TestKernelMatchesReference:
    """Bitwise: the vectorized null and observed JS equal the per-client loop."""

    @pytest.mark.parametrize("n_bins", [1, 2, 7, 50, 129, 300])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_bitwise_grid(self, case, n_bins, monkeypatch):
        sizes = ORACLE_CASES[case]
        # Three permutations per chunk, so 4 crosses a chunk boundary.
        monkeypatch.setattr(heterogeneity, "_CHUNK_ELEMENTS", 3 * len(sizes) * n_bins)
        for seed in range(5):
            targets, part = _oracle_inputs(case, seed)
            for n_perm in (2, 3, 4):
                want_js, want_null = reference_analysis(
                    targets, part.indices, n_perm, seed, n_bins
                )
                assert permutation_null(targets, sizes, n_perm, seed, n_bins) == want_null
                report = analyze_partition(targets, part, n_bins, n_perm, seed)
                assert (report.mu_iid, report.sigma_iid, report.tau_iid) == want_null
                assert list(report.per_client_js.values()) == want_js
                want_jsw = weighted_js(part, dict(zip(part.client_ids, want_js)))
                assert report.js_weighted == want_jsw
                assert report.js_max == max(want_js)
                assert report.classification == (
                    "non-IID" if want_jsw > want_null[2] else "IID")

    def test_one_permutation_per_chunk_floor(self, monkeypatch):
        monkeypatch.setattr(heterogeneity, "_CHUNK_ELEMENTS", 1)
        targets, part = _oracle_inputs("unequal_sizes", 0)
        want = reference_analysis(targets, part.indices, 5, 0, 50)[1]
        assert permutation_null(targets, part.sizes, 5, seed=0, n_bins=50) == want

    def test_default_chunk_boundary(self):
        # 20 clients x 50 bins, the shape of a 20-station depot: one permutation
        # past the first full chunk at the module's own chunk size.
        rng = np.random.default_rng(11)
        sizes = rng.integers(5, 12, size=20).tolist()
        targets = rng.gamma(2.0, 4.0, size=sum(sizes))
        n_perm = heterogeneity._CHUNK_ELEMENTS // (20 * 50) + 1
        assert n_perm >= 3
        want = reference_analysis(targets, _blocks(sizes), n_perm, 4, 50)[1]
        assert permutation_null(targets, sizes, n_perm, seed=4, n_bins=50) == want


def test_reduceat_after_a_zero_is_np_sum():
    """The kernel sums each row as np.add.reduceat over [0.0, *row]: bit-equal
    to np.sum(row) only while np.sum starts from 0.0 and both run numpy's
    pairwise sum. Lengths 0-300 cross its sequential path (< 8), its 8-way
    block (to 128) and its recursion. A numpy that sums otherwise fails here
    first."""
    rng = np.random.default_rng(0)
    rows = []
    for n in range(301):
        row = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 4.0, n)
        row[rng.random(n) < 0.1] = -0.0
        rows.append(row)
    rows += [np.array([-0.0]), np.full(9, -0.0)]
    flat = np.concatenate([np.concatenate([[0.0], row]) for row in rows])
    starts = np.cumsum([0] + [row.size + 1 for row in rows[:-1]])
    want = np.array([np.sum(row) for row in rows])
    assert np.array_equal(np.add.reduceat(flat, starts).view(np.int64), want.view(np.int64))


def _spy_on_chunks(monkeypatch):
    """Records (terms, its largest count, the table's cells) after each
    _client_js call."""
    seen = []
    kernel = heterogeneity._client_js

    def spy(terms, assignments, grow=True):
        js = kernel(terms, assignments, grow)
        seen.append((terms, terms.top, terms.table.size))
        return js

    monkeypatch.setattr(heterogeneity, "_client_js", spy)
    return seen


class TestTermTable:
    """The table of KL terms at its edges, each bit-equal to the reference."""

    def _check(self, targets, part, n_perm, seed, n_bins):
        want_js, want_null = reference_analysis(targets, part.indices, n_perm, seed, n_bins)
        assert permutation_null(targets, part.sizes, n_perm, seed, n_bins) == want_null
        report = analyze_partition(targets, part, n_bins, n_perm, seed)
        assert (report.mu_iid, report.sigma_iid, report.tau_iid) == want_null
        assert list(report.per_client_js.values()) == want_js

    @pytest.mark.parametrize("chunk", [1, 80, 160])
    def test_counts_past_the_cap(self, chunk, monkeypatch):
        # Ten distinct sizes over 7 bins: a 30-target client holds 5 or more in
        # some bin, past a cap of 0, 1 and 3 counts.
        monkeypatch.setattr(heterogeneity, "_CHUNK_ELEMENTS", chunk)
        seen = _spy_on_chunks(monkeypatch)
        for seed in range(3):
            targets, part = _oracle_inputs("unequal_sizes", seed)
            self._check(targets, part, 4, seed, 7)
        terms = seen[-1][0]
        assert terms.top == terms.cap < 5
        assert all(cells <= max(4 * chunk, terms.table[:, :1].size) for _, _, cells in seen)

    def test_a_table_grown_chunk_by_chunk_is_the_one_built_at_once(self, monkeypatch):
        # One permutation a chunk, room for 6 counts: 12 clients of 8-10 targets.
        monkeypatch.setattr(heterogeneity, "_CHUNK_ELEMENTS", 12 * 10)
        rng = np.random.default_rng(3)
        sizes = [8, 9, 10] * 4
        targets = np.round(rng.uniform(0.0, 40.0, size=sum(sizes)), 1)
        seen = _spy_on_chunks(monkeypatch)
        self._check(targets, partition_by_station(
            list(np.repeat([f"st{k:02d}" for k in range(12)], sizes))), 30, 3, 10)
        terms = seen[-1][0]  # the null's; analyze_partition scores the observed first
        tops = [top for t, top, _ in seen if t is terms]
        assert len(set(tops)) >= 4 and tops == sorted(tops)  # 3, 4, 5, then the cap 6
        fresh = heterogeneity._Terms(targets, 10, np.array(sizes))
        fresh.grow(terms.top)
        assert fresh.table.shape == terms.table.shape
        assert np.array_equal(fresh.table.view(np.int64), terms.table.view(np.int64))

    def test_most_bins_empty(self):
        # Small integers and one far outlier: 3 of 200 bins hold every target.
        rng = np.random.default_rng(3)
        targets = np.append(rng.integers(0, 10, size=59).astype(float), 1000.0)
        stations = [f"st{k % 6}" for k in range(60)]
        part = partition_by_station(stations)
        assert heterogeneity._Terms(targets, 200, part.sizes).g.size == 3
        for seed in range(3):
            self._check(targets, part, 5, seed, 200)


class TestNullMemory:
    def test_peak_of_a_20_client_null(self):
        # The shape of het-null's 20-station tables: 80-100 rows a client.
        rng = np.random.default_rng(0)
        sizes = rng.integers(80, 101, size=20)
        targets = rng.gamma(2.0, 4.0, size=sizes.sum())
        permutation_null(targets, sizes, 20, seed=0)
        tracemalloc.start()
        try:
            permutation_null(targets, sizes, 200, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1150 * 1024

    def test_a_large_depot_keeps_the_table_under_its_cap(self, monkeypatch):
        # 54 stations of up to 2,000 rows, 70% of targets on one value.
        rng = np.random.default_rng(4)
        sizes = rng.integers(1, 2001, size=54)
        n = int(sizes.sum())
        targets = np.where(rng.random(n) < 0.7, 10.0, rng.gamma(2.0, 4.0, size=n))
        seen = _spy_on_chunks(monkeypatch)
        want = reference_analysis(targets, _blocks(sizes), 4, 0, 50)[1]
        assert permutation_null(targets, sizes, 4, seed=0, n_bins=50) == want
        terms = seen[-1][0]
        assert terms.top == terms.cap
        assert max(cells for _, _, cells in seen) <= 4 * heterogeneity._CHUNK_ELEMENTS


@st.composite
def _targets_and_sizes(draw):
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=8))
    values = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
    targets = draw(st.lists(values, min_size=sum(sizes), max_size=sum(sizes)))
    return np.array(targets), sizes


class TestDivergenceProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        data=_targets_and_sizes(),
        n_bins=st.integers(1, 60),
        n_perm=st.integers(2, 6),
        seed=st.integers(0, 2**16),
    )
    def test_bounds_and_repeatability(self, data, n_bins, n_perm, seed):
        targets, sizes = data
        _, global_probs = heterogeneity._binned(targets, n_bins)
        edges = global_bin_edges(targets, n_bins)
        assert np.array_equal(global_probs, fit_histogram(targets, edges).probabilities)
        assignments = np.stack([
            np.random.default_rng(seed + i).permutation(targets.size) for i in range(n_perm)
        ])
        terms = heterogeneity._Terms(targets, n_bins, np.asarray(sizes))
        js = heterogeneity._client_js(terms, assignments)
        assert np.all((js >= 0.0) & (js <= LN2))

        stations = np.repeat([f"st{k:02d}" for k in range(len(sizes))], sizes)
        report = analyze_partition(targets, partition_by_station(list(stations)),
                                   n_bins, n_perm, seed)
        assert all(0.0 <= v <= LN2 for v in report.per_client_js.values())
        assert 0.0 <= report.mu_iid <= LN2
        assert report.sigma_iid >= 0.0
        again = analyze_partition(targets, partition_by_station(list(stations)),
                                  n_bins, n_perm, seed)
        assert again == report

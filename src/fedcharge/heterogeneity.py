"""Client-vs-global target divergence and the permutation-derived IID threshold.

Divergences use natural log, so Jensen-Shannon values live in [0, ln 2].
Histograms share one set of equal-width bin edges built from the global
target range; the bin count is a config knob recorded in every report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .partition import ClientPartition
from .seeding import STREAM_PERM, rng_from

DEFAULT_BINS = 50
DEFAULT_PERMUTATIONS = 200
LN2 = math.log(2.0)


@dataclass(frozen=True)
class HistogramDensity:
    """Empirical probabilities over shared, strictly increasing bin edges."""

    bin_edges: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.bin_edges) <= 0):
            raise ValueError("bin edges must be strictly increasing")
        if abs(float(self.probabilities.sum()) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")
        if np.any(self.probabilities < 0):
            raise ValueError("probabilities must be nonnegative")


def global_bin_edges(targets, n_bins: int = DEFAULT_BINS) -> np.ndarray:
    """Equal-width edges over the global [min, max] target range."""
    arr = np.asarray(targets, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot build bin edges from an empty target list")
    if n_bins < 1:
        raise ValueError(f"bins must be a positive integer, got {n_bins}")
    lo, hi = float(arr.min()), float(arr.max())
    if lo == hi:
        # Degenerate range: center a unit-width span so histograms stay valid.
        lo, hi = lo - 0.5, hi + 0.5
    return np.linspace(lo, hi, n_bins + 1)


def fit_histogram(targets, edges: np.ndarray) -> HistogramDensity:
    """Counts per bin normalized to probabilities; upper edge falls in the last bin."""
    arr = np.asarray(targets, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot fit a histogram on an empty target list")
    counts, _ = np.histogram(arr, bins=edges)
    return HistogramDensity(bin_edges=edges, probabilities=counts / arr.size)


def kl_divergence(p: HistogramDensity, q: HistogramDensity) -> float:
    """Sum of p_b * ln(p_b / q_b) over bins with p_b > 0."""
    pv, qv = p.probabilities, q.probabilities
    mask = pv > 0
    if np.any(qv[mask] == 0):
        raise ValueError("KL undefined: q vanishes where p has mass")
    return float(np.sum(pv[mask] * np.log(pv[mask] / qv[mask])))


def js_divergence(p_k: HistogramDensity, p: HistogramDensity) -> float:
    """0.5*KL(p_k, M) + 0.5*KL(p, M) with M the bin-wise average of the pair."""
    if not np.array_equal(p_k.bin_edges, p.bin_edges):
        raise ValueError("histograms must share bin edges")
    m = HistogramDensity(
        bin_edges=p_k.bin_edges,
        probabilities=(p_k.probabilities + p.probabilities) / 2.0,
    )
    return 0.5 * kl_divergence(p_k, m) + 0.5 * kl_divergence(p, m)


def weighted_js(partition: ClientPartition, per_client_js: dict[str, float]) -> float:
    """Sample-size weighted average of per-client divergences."""
    weights = partition.weights
    return float(
        sum(
            w * per_client_js[cid]
            for w, cid in zip(weights, partition.client_ids)
        )
    )


def _binned(arr: np.ndarray, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Each target's bin, by np.histogram's rule, and the global probabilities."""
    edges = global_bin_edges(arr, n_bins)
    # Bin b holds [e_b, e_b+1); the top edge falls in the last bin.
    bins = np.minimum(np.searchsorted(edges, arr, side="right") - 1, n_bins - 1)
    return bins, fit_histogram(arr, edges).probabilities


def _row_sums(terms: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """np.sum of each row's run in the flat, row-major ``terms``.

    np.sum adds pairwise in an order that depends on the run length, so rows
    are summed in groups of equal length, each one C-contiguous 2-D block.
    """
    starts = np.cumsum(lengths) - lengths
    sums = np.empty(lengths.size)
    for n in np.flatnonzero(np.bincount(lengths)):
        rows = np.flatnonzero(lengths == n)
        sums[rows] = terms[starts[rows, None] + np.arange(n)].sum(axis=1)
    return sums


def _client_js(
    bins: np.ndarray,
    assignments: np.ndarray,
    sizes: np.ndarray,
    global_probs: np.ndarray,
) -> np.ndarray:
    """JS divergence of every client from the global histogram, per assignment.

    Each row of ``assignments`` lists target indices client by client, client
    k taking the next ``sizes[k]``. Returns an (assignments, clients) array
    whose every value equals js_divergence(fit_histogram(...), global) bit for
    bit: the same elementwise operations, and each KL summed by np.sum.
    """
    n_assign, n_clients, n_bins = assignments.shape[0], sizes.size, global_probs.size
    row_of = np.arange(n_assign)[:, None] * n_clients + np.repeat(np.arange(n_clients), sizes)
    counts = np.bincount(
        (row_of * n_bins + bins[assignments]).ravel(), minlength=n_assign * n_clients * n_bins
    ).reshape(n_assign * n_clients, n_bins)
    p = counts / np.tile(sizes, n_assign)[:, None]
    m = (p + global_probs) / 2.0
    has_mass = p > 0
    pv = p[has_mass]
    kl_client = _row_sums(pv * np.log(pv / m[has_mass]), has_mass.sum(axis=1))
    g = global_probs > 0
    pg = global_probs[g]
    kl_global = np.ascontiguousarray(pg * np.log(pg / m[:, g])).sum(axis=1)
    return (0.5 * kl_client + 0.5 * kl_global).reshape(n_assign, n_clients)


# Upper bound on the (permutation x client) rows x bins held at once by the null.
_CHUNK_ELEMENTS = 1 << 14


def permutation_null(
    targets,
    client_sizes,
    n_permutations: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
    n_bins: int = DEFAULT_BINS,
) -> tuple[float, float, float]:
    """(mu, sigma, tau) of weighted JS under random client assignment.

    Each permutation reshuffles the target-to-client assignment uniformly
    while preserving client sizes; tau = mu + 2*sigma. Replicates run in a
    fixed order so results depend only on the seed. Permutations are scored
    in chunks of at most _CHUNK_ELEMENTS count cells (at least one each).
    """
    arr = np.asarray(targets, dtype=float)
    sizes = np.asarray(client_sizes, dtype=int)
    if sizes.sum() != arr.size:
        raise ValueError("client sizes must sum to the number of targets")
    if n_permutations < 2:
        raise ValueError("need at least 2 permutations")
    bins, global_probs = _binned(arr, n_bins)
    weights = sizes / sizes.sum()
    per_chunk = max(1, _CHUNK_ELEMENTS // (sizes.size * n_bins))
    rng = rng_from(seed, STREAM_PERM)
    values = np.empty(n_permutations)
    for start in range(0, n_permutations, per_chunk):
        stop = min(start + per_chunk, n_permutations)
        perms = np.stack([rng.permutation(arr.size) for _ in range(start, stop)])
        js = _client_js(bins, perms, sizes, global_probs)
        # cumsum adds clients in order, as a running total would.
        values[start:stop] = np.cumsum(weights * js, axis=1)[:, -1]
    mu = float(values.mean())
    sigma = float(values.std())
    return mu, sigma, mu + 2.0 * sigma


@dataclass(frozen=True)
class HeterogeneityReport:
    """Divergence summary, permutation threshold, and the IID classification."""

    per_client_js: dict[str, float]
    js_weighted: float
    js_max: float
    mu_iid: float
    sigma_iid: float
    tau_iid: float
    classification: str          # "IID" or "non-IID"
    n_permutations: int
    seed: int
    n_bins: int
    client_sizes: dict[str, int]


def classify(
    partition: ClientPartition,
    per_client_js: dict[str, float],
    mu_iid: float,
    sigma_iid: float,
    tau_iid: float,
    n_permutations: int,
    seed: int,
    n_bins: int,
) -> HeterogeneityReport:
    """Assemble the report; non-IID iff weighted JS strictly exceeds tau."""
    jsw = weighted_js(partition, per_client_js)
    sizes = partition.sizes
    return HeterogeneityReport(
        per_client_js=dict(per_client_js),
        js_weighted=jsw,
        js_max=max(per_client_js.values()),
        mu_iid=mu_iid,
        sigma_iid=sigma_iid,
        tau_iid=tau_iid,
        classification="non-IID" if jsw > tau_iid else "IID",
        n_permutations=n_permutations,
        seed=seed,
        n_bins=n_bins,
        client_sizes={
            cid: int(n) for cid, n in zip(partition.client_ids, sizes)
        },
    )


def analyze_partition(
    targets,
    partition: ClientPartition,
    n_bins: int = DEFAULT_BINS,
    n_permutations: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
) -> HeterogeneityReport:
    """Full pipeline: per-client JS, permutation null, classification."""
    arr = np.asarray(targets, dtype=float)
    bins, global_probs = _binned(arr, n_bins)
    observed = np.concatenate(partition.indices)[None, :]
    js = _client_js(bins, observed, partition.sizes, global_probs)[0]
    per_client = dict(zip(partition.client_ids, js.tolist()))
    mu, sigma, tau = permutation_null(
        arr, partition.sizes, n_permutations=n_permutations, seed=seed, n_bins=n_bins
    )
    return classify(partition, per_client, mu, sigma, tau, n_permutations, seed, n_bins)

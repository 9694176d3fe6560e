"""Client-vs-global target divergence and the permutation-derived IID threshold.

Divergences use natural log, so Jensen-Shannon values live in [0, ln 2].
Histograms share one set of equal-width bin edges built from the global
target range; the bin count is a config knob recorded in every report.
One kernel, _client_js, scores the observed partition and each permutation
of the null; tests/heterogeneity_reference.py holds its scalar oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import ClientPartition
from .seeding import STREAM_PERM, rng_from

DEFAULT_BINS = 50
DEFAULT_PERMUTATIONS = 200


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


def _binned(arr: np.ndarray, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Each target's bin, by np.histogram's rule, and the global probabilities."""
    edges = global_bin_edges(arr, n_bins)
    # Bin b holds [e_b, e_b+1); the top edge falls in the last bin.
    bins = np.minimum(np.searchsorted(edges, arr, side="right") - 1, n_bins - 1)
    return bins, np.bincount(bins, minlength=n_bins) / arr.size


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
    whose every value equals the scalar JS of the client's histogram against
    the global one bit for bit: the same elementwise operations, and each KL
    summed by np.sum.
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


def analyze_partition(
    targets,
    partition: ClientPartition,
    n_bins: int = DEFAULT_BINS,
    n_permutations: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
) -> HeterogeneityReport:
    """Per-client JS, the permutation null, and the classification: non-IID
    iff the weighted JS strictly exceeds tau."""
    arr = np.asarray(targets, dtype=float)
    bins, global_probs = _binned(arr, n_bins)
    observed = np.concatenate(partition.indices)[None, :]
    js = _client_js(bins, observed, partition.sizes, global_probs)[0]
    per_client = dict(zip(partition.client_ids, js.tolist()))
    # Weighted as permutation_null weights each permutation's clients.
    js_weighted = float(np.cumsum(partition.weights * js)[-1])
    mu, sigma, tau = permutation_null(arr, partition.sizes, n_permutations, seed, n_bins)
    return HeterogeneityReport(
        per_client_js=per_client,
        js_weighted=js_weighted,
        js_max=max(per_client.values()),
        mu_iid=mu,
        sigma_iid=sigma,
        tau_iid=tau,
        classification="non-IID" if js_weighted > tau else "IID",
        n_permutations=n_permutations,
        seed=seed,
        n_bins=n_bins,
        client_sizes={cid: int(n) for cid, n in zip(partition.client_ids, partition.sizes)},
    )

"""Reference divergences: the scalar histogram, KL and JS that
fedcharge.heterogeneity's vectorized _client_js must equal bit for bit, and
the client-order weighted sum the report's js_weighted must equal.

Histograms come from np.histogram, not from the package's bin rule, so the
global probabilities that _binned counts are checked against it too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fedcharge.partition import ClientPartition


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
    """Sample-size weighted average of per-client divergences, summed in
    client order from 0."""
    weights = partition.weights
    return float(
        sum(
            w * per_client_js[cid]
            for w, cid in zip(weights, partition.client_ids)
        )
    )

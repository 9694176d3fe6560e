"""Client-vs-global target divergence and the permutation-derived IID threshold.

Divergences use natural log, so Jensen-Shannon values live in [0, ln 2].
Histograms share one set of equal-width bin edges built from the global
target range; the bin count is a config knob recorded in every report.
One kernel, _client_js, scores the observed partition and each permutation
of the null; tests/heterogeneity_reference.py holds its scalar oracle.

Cost. A client's two KL terms in a bin depend only on its size, its count
there and the bin's global probability. _Terms tabulates them once per null,
for each distinct client size and each count up to the largest yet seen,
over the occupied bins only. An empty bin adds nothing to either KL, so this
is exact, and the kernel's memory does not grow with the bin count. No log
is taken per chunk. The table grows when a chunk holds a larger count, up to
4 * _CHUNK_ELEMENTS cells (0.5 MB); the terms of a larger count come from the
same _terms, computed at its cells. Each row's terms, gathered by a flat
take, follow a 0.0, and one np.add.reduceat sums every row's client KL and
one its global KL: a segment starts from its first element and np.sum from
0.0, so each equals np.sum of the row bit for bit.
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


# Upper bound on the (permutation x client) rows x bins held at once by the null.
_CHUNK_ELEMENTS = 1 << 14


def _terms(c, n, g):
    """KL terms of a bin holding c of a client's n targets, g the bin's global
    probability, by the scalar oracle's expressions: the client's
    p * log(p / m), NaN where c = 0 (no KL keeps it), and the global
    g * log(g / m), with p = c / n and m = (p + g) / 2."""
    p = c / n
    m = (p + g) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return p * np.log(p / m), g * np.log(g / m)


class _Terms:
    """One scoring's binned targets, client sizes and table of KL terms.

    table[0] holds the client terms and table[1] the global ones, at
    [count, index of the client size in n, column]. Column j > 0 is the j-th
    occupied bin; column 0 holds the 0.0 each row's sums start from. The
    table holds counts 0 to top in at most 4 * _CHUNK_ELEMENTS cells, or
    count 0 alone where that row is larger.
    """

    def __init__(self, targets: np.ndarray, n_bins: int, sizes: np.ndarray):
        if sizes.sum() != targets.size:
            raise ValueError("client sizes must sum to the number of targets")
        bins, global_probs = _binned(targets, n_bins)
        occupied = global_probs > 0
        self.sizes, self.g = sizes, global_probs[occupied]
        self.column = np.cumsum(occupied)[bins]
        width = self.g.size + 1
        self.offset = np.repeat(np.arange(sizes.size) * width, sizes)
        present = np.bincount(sizes) > 0
        self.n = np.flatnonzero(present)
        # A client's row in table[:, c] starts at c * n.size * width + key[k, 0].
        self.key = (np.cumsum(present)[sizes] - 1)[:, None] * width + np.arange(width)
        self.cap = max(0, 4 * _CHUNK_ELEMENTS // (2 * self.n.size * width) - 1)
        self.table = np.empty((2, 0, self.n.size, width))
        self.grow(0)

    @property
    def top(self) -> int:
        """The largest count the table holds."""
        return self.table.shape[1] - 1

    def grow(self, top: int) -> None:
        """Tabulate every count up to top (no further than the cap)."""
        old, top = self.table, min(top, self.cap)
        if top > self.top:
            self.table = np.zeros((2, top + 1, *old.shape[2:]))
            self.table[:, : old.shape[1]] = old
            # One count at a time, so the terms' temporaries stay one row big.
            for c in range(old.shape[1], top + 1):
                client, glob = _terms(c, self.n[:, None], self.g)
                self.table[0, c, :, 1:], self.table[1, c, :, 1:] = client, glob


def _client_js(terms: _Terms, assignments: np.ndarray, grow: bool = True) -> np.ndarray:
    """JS divergence of every client from the global histogram, per assignment.

    Each row of ``assignments`` lists target indices client by client, client
    k taking the next ``sizes[k]``. Returns an (assignments, clients) array
    whose every value equals the scalar JS of the client's histogram against
    the global one bit for bit: the same elementwise operations, and each KL
    summed as np.sum sums it. With grow, the table first takes in the
    chunk's largest count.
    """
    n_assign, (n_clients, width) = assignments.shape[0], terms.key.shape
    cells = terms.column[assignments]
    cells += terms.offset
    cells += (np.arange(n_assign) * (n_clients * width))[:, None]
    counts = np.bincount(cells.ravel(), minlength=n_assign * n_clients * width)
    del cells
    counts = counts.reshape(n_assign * n_clients, width)
    keep = counts > 0
    keep[:, 0] = True
    # The flat cells of each row's 0.0 and its client terms, row after row.
    kept = np.flatnonzero(keep)
    del keep
    top = int(counts.max())
    if grow and top > terms.top:
        terms.grow(top)
    over = None
    if top > terms.top:
        over = counts > terms.top
        rows, cols = np.nonzero(over)
        extra = _terms(counts[over], terms.sizes[rows % n_clients], terms.g[cols - 1])
        np.minimum(counts, terms.top, out=counts)
    # Each count becomes the flat index of its cell in table[0] and table[1].
    counts *= terms.n.size * width
    counts.reshape(n_assign, n_clients, width)[...] += terms.key
    starts = np.arange(0, counts.size, width)
    glob = terms.table[1].take(counts)
    if over is not None:
        glob[over] = extra[1]
    kl_global = np.add.reduceat(glob.ravel(), starts)
    del glob
    # A row's client segment starts at its 0.0, the kept cell in its column 0.
    starts = np.searchsorted(kept, starts)
    client = terms.table[0].take(counts.ravel().take(kept))
    del counts
    if over is not None:
        client[over.ravel().take(kept)] = extra[0]
    kl_client = np.add.reduceat(client, starts)
    return (0.5 * kl_client + 0.5 * kl_global).reshape(n_assign, n_clients)


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
    in chunks of at most _CHUNK_ELEMENTS (permutation x client) x bin cells
    (at least one permutation each).
    """
    arr = np.asarray(targets, dtype=float)
    terms = _Terms(arr, n_bins, np.asarray(client_sizes, dtype=int))
    if n_permutations < 2:
        raise ValueError("need at least 2 permutations")
    sizes = terms.sizes
    weights = sizes / sizes.sum()
    per_chunk = max(1, _CHUNK_ELEMENTS // (sizes.size * n_bins))
    rng = rng_from(seed, STREAM_PERM)
    values = np.empty(n_permutations)
    for start in range(0, n_permutations, per_chunk):
        stop = min(start + per_chunk, n_permutations)
        perms = np.tile(np.arange(arr.size), (stop - start, 1))
        rng.permuted(perms, axis=1, out=perms)  # each row as rng.permutation(arr.size) draws it
        js = _client_js(terms, perms)
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
    observed = np.concatenate(partition.indices)[None, :]
    # One assignment: its counts' terms are computed at their cells, not tabulated.
    js = _client_js(_Terms(arr, n_bins, partition.sizes), observed, grow=False)[0]
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

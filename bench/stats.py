"""Order statistics used to report timings.

A timing is reported as its median plus the highest percentile of
TAIL_LADDER that still has at least MIN_BEYOND samples beyond it, with the
sample count, so a tail figure is never read off a handful of samples.
"""

from __future__ import annotations

import statistics

TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method), q in [0, 100]."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least MIN_BEYOND of n samples above it.

    None when even the median has fewer than MIN_BEYOND samples beyond it.
    """
    best = None
    for q in TAIL_LADDER:
        # Round away float noise: 200 * 0.05 must count as 10 samples.
        if round(n * (100.0 - q) / 100.0, 9) >= MIN_BEYOND:
            best = q
    return best


def describe(values, unit: str) -> str:
    """'median M unit, pQ T unit (n=N)' for a list of timings."""
    n = len(values)
    text = f"median {statistics.median(values):.4f} {unit}"
    q = tail_percentile(n)
    if q is None:
        text += f", no tail percentile below {MIN_BEYOND} samples beyond the median"
    else:
        text += f", p{q:g} {percentile(values, q):.4f} {unit}"
    return f"{text} (n={n})"

"""Named RNG streams so every stochastic step is reproducible from one run seed.

Each consumer derives its own generator from (seed, stream, *indices); streams
never share state, so parallel execution cannot reorder draws.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

# The seeds rng_from tells apart: it masks every seed to its low 64 bits.
SEEDS = range(_MASK64 + 1)

# Stream identifiers. Values are part of the on-disk reproducibility contract:
# changing them changes every seeded output.
STREAM_INIT = 0      # model parameter initialization
STREAM_EPOCH = 1     # batch shuffling + dropout, one stream per global epoch
STREAM_SAMPLE = 2    # per-round client sampling
STREAM_SPLIT = 3     # train/val/test assignment
STREAM_SYNTH = 4     # synthetic depot generation
STREAM_PERM = 5      # permutation null for heterogeneity
STREAM_GAUSS = 6     # gaussian dummy predictions


def rng_from(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream addressed by (seed, *path)."""
    entropy = [seed & _MASK64, *(p & _MASK64 for p in path)]
    return np.random.default_rng(np.random.SeedSequence(entropy))

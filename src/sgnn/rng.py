"""Deterministic random-stream plumbing.

Every stochastic operation in the package takes an explicit
``numpy.random.Generator``.  Independent sub-streams are derived from a
master seed with ``derive``, so parallel Monte-Carlo loops replay
bit-identically regardless of scheduling: stream i is a pure function of
(master_seed, i).  Real-valued settings such as p enter a key through
``stream_key``.
"""

from __future__ import annotations

import math
import struct

import numpy as np


def root_rng(seed) -> np.random.Generator:
    """Root generator for a run. ``seed`` may be an int or a SeedSequence."""
    return np.random.default_rng(seed)


def derive(master_seed, *keys) -> np.random.Generator:
    """Independent stream keyed by integers, e.g. derive(seed, task_index)."""
    return np.random.default_rng(np.random.SeedSequence((int(master_seed),) + tuple(int(k) for k in keys)))


def stream_key(value: float) -> int:
    """Integer key of a real setting, distinct for distinct values.

    A value k / 1000 on the grid of thousandths keys as k; any other value as
    2^64 plus its float bit pattern, which no grid value reaches.
    """
    scaled = value * 1000
    if math.isfinite(scaled) and scaled >= 0 and round(scaled) / 1000 == value:
        return round(scaled)
    return 2 ** 64 + int.from_bytes(struct.pack("<d", value), "little")

"""Benchmark-owned inputs: the MovieLens-format ratings file and its reader.

The recommender workload reads a ``u.data``-style file (tab-separated,
1-based ``user item rating timestamp``) of 943 users, 1,682 items and
exactly 100,000 distinct ratings.  The file is written here, with no code
from the program under test, and read back here by the correctness checks,
so a fault in the program's loader or task builder cannot hide itself.

Like the MovieLens file it stands in for, the benchmark's file is one fixed
data set: ``DATA_SEED`` makes it, whatever the run's ``--seed``.  Which item
pairs reach the top of the Pearson ranking is decided among many pairs with
two co-raters and correlation 1, so the item graph has 86 to 98 nodes
depending on the file, and the work per iteration grows with its square.
A fixed file keeps that work, 92 nodes, the same in every run.
"""

from __future__ import annotations

import numpy as np

N_USERS = 943
N_ITEMS = 1682
N_RATINGS = 100_000
TIMESTAMP = 874_965_758
DATA_SEED = 0


def write_ratings(path, seed: int) -> None:
    """Write a synthetic ratings file determined by ``seed`` alone.

    Ratings come from a rank-5 latent-factor model with user and item
    biases.  Which (user, item) pairs are rated follows log-normal user
    activity times log-normal item popularity, sampled without replacement
    by Gumbel top-k, so a few items are rated by many users as in the real
    data set.
    """
    rng = np.random.default_rng([seed, 2201_12611])
    rank = 5
    users = rng.normal(size=(N_USERS, rank))
    items = rng.normal(size=(N_ITEMS, rank))
    user_bias = 0.35 * rng.normal(size=N_USERS)
    item_bias = 0.45 * rng.normal(size=N_ITEMS)
    activity = rng.lognormal(0.0, 0.9, size=N_USERS)
    popularity = rng.lognormal(0.0, 2.2, size=N_ITEMS)
    keys = np.log(activity)[:, None] + np.log(popularity)[None, :] \
        + rng.gumbel(size=(N_USERS, N_ITEMS))
    chosen = np.argpartition(-keys.ravel(), N_RATINGS - 1)[:N_RATINGS]
    uu, ii = np.unravel_index(np.sort(chosen), (N_USERS, N_ITEMS))
    raw = 3.55 + user_bias[uu] + item_bias[ii] \
        + 0.5 * np.einsum("kr,kr->k", users[uu], items[ii]) \
        + 0.45 * rng.normal(size=N_RATINGS)
    stars = np.clip(np.rint(raw), 1, 5).astype(int)
    lines = [f"{u + 1}\t{i + 1}\t{r}\t{TIMESTAMP}\n" for u, i, r in zip(uu, ii, stars)]
    with open(path, "w") as f:
        f.writelines(lines)


def read_ratings(path) -> dict:
    """``{(user, item): rating}`` with 0-based ids, parsed independently."""
    out = {}
    with open(path) as f:
        for line in f:
            user, item, rating, _ = line.split("\t")
            out[(int(user) - 1, int(item) - 1)] = float(rating)
    return out

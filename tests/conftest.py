import numpy as np
import pytest

from sgnn import graphs as G
from sgnn.model import PER_FILTER, Architecture, Realizations, init_params


def random_symmetric(n, rng, scale=0.25):
    a = rng.normal(size=(n, n))
    return (a + a.T) * scale


def random_seq(arch: Architecture, n: int, rng, mode=PER_FILTER,
               scale=0.25) -> Realizations:
    """Independent random symmetric shifts for every position."""
    count = arch.shift_count(mode)
    mats = [random_symmetric(n, rng, scale) for _ in range(count)]
    return Realizations.from_rows(arch, mode, n, mats)


def small_gres(n=6, p=0.3, q=0.2, kind=G.ADJACENCY, seed=0, normalize=True):
    rng = np.random.default_rng(seed)
    g = G.sbm_generate(n, 2, 0.9, 0.4, rng)
    s = G.build_shift(g, kind)
    if normalize:
        s = G.normalize_shift(s)
    edges = s.edges()
    n_drop = min(3, len(edges))
    pairs = {(i, j) for i, j, _ in edges}
    absent = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in pairs]
    adds = tuple((i, j, 0.5) for i, j in absent[:2]) if q > 0 else ()
    return G.GresModel(s, drop_edges=edges[:n_drop], add_edges=adds, p=p, q=q)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

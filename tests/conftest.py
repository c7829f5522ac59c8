import numpy as np
import pytest

from sgnn import experiments as X
from sgnn import graphs as G
from sgnn.estimators import McConfig, sample_stack
from sgnn.model import PER_FILTER, SHARED, Architecture, Realizations, forward_stack, init_params


def random_symmetric(n, rng, scale=0.25):
    a = rng.normal(size=(n, n))
    return (a + a.T) * scale


def random_seq(arch: Architecture, n: int, rng, mode=PER_FILTER,
               scale=0.25) -> Realizations:
    """Independent random symmetric shifts for every position; in shared mode
    one per layer and tap, repeated over the bank."""
    count = arch.shift_count(mode)
    mats = [random_symmetric(n, rng, scale) for _ in range(count)]
    if mode == SHARED:
        k, f = arch.order, arch.features
        mats = [mats[l * k + t] for l in range(arch.layers)
                for _ in range(f[l + 1] * f[l]) for t in range(k)]
    return Realizations.from_rows(arch, n, mats)


def small_gres(n=6, p=0.3, q=0.2, seed=0, normalize=True):
    rng = np.random.default_rng(seed)
    g = G.sbm_generate(n, 2, 0.9, 0.4, rng)
    s = G.build_shift(g)
    if normalize:
        s = G.normalize_shift(s)
    edges = s.edges()
    n_drop = min(3, len(edges))
    pairs = {(i, j) for i, j, _ in edges}
    absent = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in pairs]
    adds = tuple((i, j, 0.5) for i, j in absent[:2]) if q > 0 else ()
    return G.GresModel(s, drop_edges=edges[:n_drop], add_edges=adds, p=p, q=q)


def mc_cost(params, gres, batch, cfg: McConfig, loss, mode=PER_FILTER) -> float:
    """Empirical expected cost along the training path: ``cfg.n_realizations``
    sequences, a tape-free forward pass, and the mean batch loss over them."""
    stack = sample_stack(gres, params.arch, cfg.n_realizations, cfg.rng(), mode)
    tape = forward_stack(params, stack, batch.x, keep_tape=False)
    return float(loss.value(tape.logits if tape.logits is not None else tape.output[:, 0],
                            batch))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="module")
def small_ratings(tmp_path_factory):
    """80 users x 50 items, 1,200 synthetic ratings."""
    path = tmp_path_factory.mktemp("ml") / "u.data"
    X.write_synthetic_movielens(path, seed=5, n_users=80, n_items=50, n_ratings=1200)
    return X.load_movielens(path, n_users=80, n_items=50, expect_count=1200)

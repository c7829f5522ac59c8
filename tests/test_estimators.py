import numpy as np
import pytest

from conftest import small_gres
from sgnn import estimators as E
from sgnn import graphs as G
from sgnn import rng as R
from sgnn.errors import ConfigError
from sgnn.model import PER_FILTER, SHARED, Architecture, SgnnParams, init_params
from sgnn.training import Batch, Loss


def degenerate(gres):
    return G.GresModel(gres.nominal, drop_edges=gres.drop_edges,
                       add_edges=gres.add_edges, p=0.0, q=0.0)


class TestSampleRealizationSeq:
    def test_degenerate_gives_nominal_everywhere(self, rng):
        gres = small_gres(p=0.0, q=0.0)
        arch = Architecture((1, 2, 1), 2)
        seq = E.sample_stack(gres, arch, 1, rng)
        for l in range(arch.layers):
            for f in range(arch.features[l + 1]):
                for g in range(arch.features[l]):
                    for k in range(1, arch.order + 1):
                        np.testing.assert_array_equal(
                            seq.shift(l, f, g, k), gres.nominal.entries)

    def test_same_seed_identical(self):
        gres = small_gres(p=0.4, q=0.2)
        arch = Architecture((1, 2, 1), 2)
        a = E.sample_stack(gres, arch, 1, np.random.default_rng(3))
        b = E.sample_stack(gres, arch, 1, np.random.default_rng(3))
        for l in range(arch.layers):
            np.testing.assert_array_equal(a.dense(l).copy(), b.dense(l))

    def test_derived_streams_differ(self):
        gres = small_gres(p=0.5, q=0.4)
        arch = Architecture((1, 2, 1), 2)
        a = E.sample_stack(gres, arch, 1, R.derive(0, 1))
        b = E.sample_stack(gres, arch, 1, R.derive(0, 2))
        assert any(not np.array_equal(a.dense(l).copy(), b.dense(l))
                   for l in range(arch.layers))

    def test_shared_mode_shape(self, rng):
        gres = small_gres()
        arch = Architecture((1, 3, 1), 2)
        seq = E.sample_stack(gres, arch, 1, rng, mode=SHARED)
        assert seq.dense(0).shape == (1, 2, gres.n, gres.n)
        assert seq.total == arch.shift_count(SHARED)
        for k in (1, 2):
            np.testing.assert_array_equal(seq.shift(0, 2, 0, k), seq.shift(0, 0, 0, k))


def linear_filter_params(h0, h1):
    arch = Architecture((1, 1), 1, activation="identity")
    return SgnnParams(arch, [np.array([[[h0, h1]]])])


class TestEstimateCost:
    def test_deterministic_single_realization(self, rng):
        gres = small_gres(p=0.0, q=0.0)
        params = init_params(Architecture((1, 2, 1), 2), rng)
        x = rng.normal(size=(1, gres.n, 4))
        t = rng.normal(size=(gres.n, 4))
        batch = Batch(x, t, np.ones((gres.n, 4)))
        loss = Loss("masked_mse")
        a = E.estimate_cost(params, gres, batch, E.McConfig(1, master_seed=0), loss)
        b = E.estimate_cost(params, gres, batch, E.McConfig(1, master_seed=99), loss)
        assert a == pytest.approx(b)

    def test_zero_loss_via_empty_mask(self, rng):
        gres = small_gres()
        params = init_params(Architecture((1, 2, 1), 2), rng)
        batch = Batch(rng.normal(size=(1, gres.n, 3)),
                      rng.normal(size=(gres.n, 3)), np.zeros((gres.n, 3)))
        val = E.estimate_cost(params, gres, batch, E.McConfig(5, master_seed=1),
                              Loss("masked_mse"))
        assert val == 0.0

    def test_enumeration_vs_monte_carlo(self, rng):
        # one droppable edge, two shift draws per pass: 4 sequences total
        g = G.Graph(3, ((0, 1, 1.0), (1, 2, 1.0)))
        s = G.normalize_shift(G.build_shift(g, G.ADJACENCY))
        gres = G.GresModel(s, drop_edges=(s.edges()[0],), p=0.4)
        params = linear_filter_params(0.3, 0.9)
        arch2 = Architecture((1, 1), 2, activation="identity")
        params = SgnnParams(arch2, [np.array([[[0.3, 0.9, -0.4]]])])
        batch = Batch(rng.normal(size=(1, 3, 5)), rng.normal(size=(3, 5)),
                      np.ones((3, 5)))
        loss = Loss("masked_mse")
        exact = E.enumerate_cost(params, gres, batch, loss)
        draws = np.array([
            E.estimate_cost(params, gres, batch, E.McConfig(100, master_seed=i), loss)
            for i in range(100)
        ])
        se = draws.std(ddof=1) / 10.0
        assert abs(draws.mean() - exact) <= 3 * se


class TestEstimateMoments:
    def test_degenerate_zero_variance(self, rng):
        gres = small_gres(p=0.0, q=0.0)
        params = init_params(Architecture((1, 2, 1), 2), rng)
        x = rng.normal(size=gres.n)
        rep = E.estimate_moments(params, gres, x, E.McConfig(8, master_seed=2))
        assert rep.variance == 0.0
        assert np.all(rep.per_node_variance == 0.0)
        # first moment equals the deterministic forward on the nominal chain
        from sgnn.model import forward_stack
        seq = E.sample_stack(gres, params.arch, 1, np.random.default_rng(0))
        phi = forward_stack(params, seq, x[None, :, None]).output[0, 0, :, 0]
        assert rep.first_moment == pytest.approx(float(phi.mean()))

    def test_order_zero_network_has_no_randomness(self, rng):
        gres = small_gres(p=0.5, q=0.3)
        arch = Architecture((1, 1), 0, activation="identity")
        params = SgnnParams(arch, [np.array([[[1.0]]])])
        x = rng.normal(size=gres.n)
        rep = E.estimate_moments(params, gres, x, E.McConfig(16, master_seed=3))
        assert rep.variance == 0.0

    def test_linear_filter_variance_closed_form(self):
        gres = small_gres(p=0.3, q=0.2, seed=4)
        h1 = 0.8
        params = linear_filter_params(0.0, h1)
        x = np.random.default_rng(5).normal(size=gres.n)
        s_bar = G.expected_shift(gres).entries
        exact = h1 ** 2 * (x @ G.expected_square(gres) @ x - np.sum((s_bar @ x) ** 2)) / gres.n
        groups = [E.estimate_moments(params, gres, x, E.McConfig(1000, master_seed=s)).variance
                  for s in range(10)]
        est = float(np.mean(groups))
        se = float(np.std(groups, ddof=1) / np.sqrt(10))
        assert abs(est - exact) <= 3 * se

    def test_variance_not_above_second_moment(self, rng):
        gres = small_gres(p=0.4, q=0.3)
        params = init_params(Architecture((1, 2, 1), 2, activation="abs"), rng)
        x = rng.normal(size=gres.n)
        rep = E.estimate_moments(params, gres, x, E.McConfig(64, master_seed=6))
        assert rep.variance <= rep.second_moment + 1e-15

    def test_requires_two_realizations(self, rng):
        gres = small_gres()
        params = init_params(Architecture((1, 2, 1), 1), rng)
        with pytest.raises(ConfigError):
            E.estimate_moments(params, gres, rng.normal(size=gres.n),
                               E.McConfig(1, master_seed=0))

    def test_seed_stability(self, rng):
        gres = small_gres(p=0.4)
        params = init_params(Architecture((1, 2, 1), 2), rng)
        x = rng.normal(size=gres.n)
        a = E.estimate_moments(params, gres, x, E.McConfig(32, master_seed=7))
        b = E.estimate_moments(params, gres, x, E.McConfig(32, master_seed=7))
        assert a.variance == b.variance and a.first_moment == b.first_moment

    def test_enumeration_equivalence(self):
        g = G.Graph(3, ((0, 1, 1.0), (1, 2, 1.0)))
        s = G.normalize_shift(G.build_shift(g, G.ADJACENCY))
        gres = G.GresModel(s, drop_edges=(s.edges()[0],), p=0.35)
        arch = Architecture((1, 1), 2, activation="abs")
        params = SgnnParams(arch, [np.array([[[0.2, 0.7, -0.5]]])])
        x = np.random.default_rng(8).normal(size=3)
        m1, m2, var = E.enumerate_moments(params, gres, x)
        reps = [E.estimate_moments(params, gres, x, E.McConfig(500, master_seed=s_))
                for s_ in range(12)]
        means = np.array([r.first_moment for r in reps])
        se = means.std(ddof=1) / np.sqrt(len(reps))
        assert abs(means.mean() - float(m1.mean())) <= 3 * se + 1e-12

    def test_antithetic_stays_unbiased(self):
        gres = small_gres(p=0.4, q=0.3, seed=9)
        params = linear_filter_params(0.1, 1.0)
        x = np.random.default_rng(10).normal(size=gres.n)
        plain = [E.estimate_moments(params, gres, x, E.McConfig(400, master_seed=s)).first_moment
                 for s in range(8)]
        anti = [E.estimate_moments(params, gres, x,
                                   E.McConfig(400, master_seed=s, antithetic=True)).first_moment
                for s in range(8)]
        assert np.mean(anti) == pytest.approx(np.mean(plain), abs=4 * np.std(plain))


class TestDeviationProbability:
    def test_degenerate_probability_one(self, rng):
        gres = small_gres(p=0.0, q=0.0)
        params = init_params(Architecture((1, 2, 1), 2), rng)
        x = rng.normal(size=gres.n)
        p = E.deviation_probability(params, gres, x, 1e-12, 100, np.random.default_rng(0))
        assert p == 1.0

    def test_huge_epsilon_probability_one(self, rng):
        gres = small_gres(p=0.5, q=0.4)
        params = init_params(Architecture((1, 2, 1), 2), rng)
        x = rng.normal(size=gres.n)
        p = E.deviation_probability(params, gres, x, 1e9, 100, np.random.default_rng(1))
        assert p == 1.0

    def test_minimum_sample_size_enforced(self, rng):
        gres = small_gres()
        params = init_params(Architecture((1, 2, 1), 1), rng)
        with pytest.raises(ConfigError):
            E.deviation_probability(params, gres, rng.normal(size=gres.n), 0.1, 50,
                                    np.random.default_rng(0))


class TestConvergenceRate:
    def test_doubling_realizations_shrinks_stderr(self):
        gres = small_gres(p=0.4, q=0.3, seed=11)
        params = linear_filter_params(0.2, 0.9)
        x = np.random.default_rng(12).normal(size=gres.n)

        def spread(n_real, base):
            vals = [E.estimate_moments(params, gres, x,
                                       E.McConfig(n_real, master_seed=base + i)).first_moment
                    for i in range(10)]
            return float(np.std(vals, ddof=1))

        ratio = spread(200, 1000) / spread(400, 2000)
        assert np.sqrt(2) * 0.8 <= ratio <= np.sqrt(2) * 1.2


class TestMomentsCsv:
    def test_appends_with_header_once(self, tmp_path, rng):
        gres = small_gres(p=0.2)
        params = init_params(Architecture((1, 2, 1), 1), rng)
        rep = E.estimate_moments(params, gres, rng.normal(size=gres.n),
                                 E.McConfig(16, master_seed=0))
        path = tmp_path / "moments.csv"
        E.append_moments_row(path, 0.2, 0.0, rep)
        E.append_moments_row(path, 0.3, 0.0, rep)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(E.MOMENTS_COLUMNS)
        assert len(lines) == 3

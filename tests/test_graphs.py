import csv
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgnn import experiments as X
from sgnn import graphs as G
from sgnn.errors import GraphError


def path_graph(n, w=1.0):
    return G.Graph(n, tuple((i, i + 1, w) for i in range(n - 1)))


class TestBuildShift:
    def test_two_node_adjacency(self):
        g = G.Graph(2, ((0, 1, 1.0),))
        s = G.build_shift(g, G.ADJACENCY)
        np.testing.assert_array_equal(s.entries, [[0, 1], [1, 0]])

    def test_other_kinds_rejected(self):
        g = G.Graph(2, ((0, 1, 1.0),))
        with pytest.raises(GraphError, match="adjacency"):
            G.build_shift(g, "laplacian")

    def test_empty_graph_zero_matrix(self):
        s = G.build_shift(G.Graph(3), G.ADJACENCY)
        np.testing.assert_array_equal(s.entries, np.zeros((3, 3)))
        assert s.spectral_radius() == 0.0
        assert G.build_shift(G.Graph(0), G.ADJACENCY).spectral_radius() == 0.0

    def test_rejects_self_loop_and_duplicates(self):
        with pytest.raises(GraphError):
            G.Graph(3, ((1, 1, 1.0),))
        with pytest.raises(GraphError):
            G.Graph(3, ((0, 1, 1.0), (1, 0, 2.0)))

    def test_edge_recovery_round_trip(self):
        g = G.Graph(4, ((0, 1, 0.5), (2, 3, -1.5), (0, 3, 2.0)))
        s = G.build_shift(g)
        assert set(s.edges()) == set(g.edges)


def small_model(p=0.4, q=0.3):
    g = G.Graph(4, ((0, 1, 1.0), (1, 2, 0.5), (2, 3, 1.0), (0, 3, 2.0)))
    s = G.build_shift(g)
    return G.GresModel(s, drop_edges=s.edges()[:2], add_edges=((0, 2, 1.5),), p=p, q=q)


def sample_one(m, rng):
    """One realization as a validated (symmetric) shift operator."""
    return G.ShiftOperator(m.n, G.sample_gres_batch(m, 1, rng)[0])


class TestSampleGres:
    def test_degenerate_probabilities_reproduce_nominal(self):
        m = small_model(p=0.0, q=0.0)
        for seed in (0, 1, 99):
            out = sample_one(m, np.random.default_rng(seed))
            np.testing.assert_array_equal(out.entries, m.nominal.entries)

    def test_p_equal_one_rejected(self):
        g = G.Graph(2, ((0, 1, 1.0),))
        s = G.build_shift(g, G.ADJACENCY)
        with pytest.raises(GraphError):
            G.GresModel(s, drop_edges=s.edges(), p=1.0)

    def test_drop_frequency_matches_p(self):
        g = G.Graph(2, ((0, 1, 1.0),))
        s = G.build_shift(g, G.ADJACENCY)
        m = G.GresModel(s, drop_edges=s.edges(), p=0.5)
        draws = G.sample_gres_batch(m, 100000, np.random.default_rng(7))
        drop_freq = np.mean(draws[:, 0, 1] == 0.0)
        assert abs(drop_freq - 0.5) <= 3 * np.sqrt(0.25 / 100000)

    def test_differs_only_on_random_positions(self):
        m = small_model()
        random_pos = {(i, j) for i, j, _ in m.drop_edges + m.add_edges}
        rng = np.random.default_rng(3)
        for _ in range(50):
            out = sample_one(m, rng)
            diff = np.argwhere(out.entries != m.nominal.entries)
            for i, j in diff:
                pair = (min(i, j), max(i, j))
                assert pair in random_pos

    def test_distinct_streams_differ(self):
        m = small_model(p=0.5, q=0.5)
        a = G.sample_gres_batch(m, 20, np.random.default_rng(1))
        b = G.sample_gres_batch(m, 20, np.random.default_rng(2))
        assert not np.array_equal(a, b)

    def test_same_seed_identical(self):
        m = small_model()
        a = G.sample_gres_batch(m, 10, np.random.default_rng(42))
        b = G.sample_gres_batch(m, 10, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)


class TestExpectedShift:
    def test_degenerate_is_nominal(self):
        m = small_model(p=0.0, q=0.0)
        np.testing.assert_allclose(G.expected_shift(m).entries, m.nominal.entries)

    def test_single_drop_edge_scaling(self):
        g = G.Graph(2, ((0, 1, 1.0),))
        s = G.build_shift(g, G.ADJACENCY)
        m = G.GresModel(s, drop_edges=s.edges(), p=0.3)
        assert G.expected_shift(m).entries[0, 1] == pytest.approx(0.7)

    def test_monte_carlo_mean_matches(self):
        m = small_model()
        draws = G.sample_gres_batch(m, 100000, np.random.default_rng(11))
        emp = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        gap = np.abs(emp - G.expected_shift(m).entries)
        assert np.all(gap <= 3 * se + 1e-12)

    def test_loop_sampler_mean_matches(self):
        m = small_model()
        rng = np.random.default_rng(13)
        acc = np.zeros((4, 4))
        n = 2000
        for _ in range(n):
            acc += sample_one(m, rng).entries
        gap = np.abs(acc / n - G.expected_shift(m).entries)
        assert gap.max() < 0.05


class TestExpectedSquare:
    def test_degenerate_is_square(self):
        m = small_model(p=0.0, q=0.0)
        s = m.nominal.entries
        np.testing.assert_allclose(G.expected_square(m), s @ s, atol=1e-14)

    def test_path_single_drop_adjacency(self):
        g = path_graph(3)
        s = G.build_shift(g, G.ADJACENCY)
        m = G.GresModel(s, drop_edges=(s.edges()[0],), p=0.5)
        acc = sum(prob * (mat @ mat) for prob, mat in G.enumerate_gres(m))
        assert np.abs(acc - G.expected_square(m)).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_enumeration_property(self, data):
        n = data.draw(st.integers(3, 6))
        rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
        g = G.sbm_generate(n, 1, 0.7, 0.7, rng)
        s = G.build_shift(g)
        edges = s.edges()
        n_drop = min(len(edges), data.draw(st.integers(0, 3)))
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        absent = [p for p in all_pairs if p not in {(i, j) for i, j, _ in edges}]
        n_add = min(len(absent), data.draw(st.integers(0, 2)))
        adds = tuple((i, j, float(rng.uniform(0.5, 2.0))) for i, j in absent[:n_add])
        m = G.GresModel(s, drop_edges=edges[:n_drop], add_edges=adds,
                        p=data.draw(st.sampled_from([0.1, 0.5, 0.9])),
                        q=data.draw(st.sampled_from([0.1, 0.5, 0.9])))
        acc = sum(prob * (mat @ mat) for prob, mat in G.enumerate_gres(m))
        assert np.abs(acc - G.expected_square(m)).max() <= 1e-12


class TestSbm:
    def test_full_intra_zero_inter_gives_cliques(self):
        g = G.sbm_generate(12, 3, 1.0, 0.0, np.random.default_rng(0))
        labels = G.community_labels(12, 3)
        for i, j, _ in g.edges:
            assert labels[i] == labels[j]
        # each community of size 4 is complete
        assert len(g.edges) == 3 * 6

    def test_zero_probabilities_empty(self):
        g = G.sbm_generate(10, 2, 0.0, 0.0, np.random.default_rng(0))
        assert g.edges == ()

    def test_block_densities(self):
        rng = np.random.default_rng(5)
        labels = G.community_labels(50, 5)
        intra_pairs = sum(1 for i in range(50) for j in range(i + 1, 50) if labels[i] == labels[j])
        inter_pairs = 50 * 49 // 2 - intra_pairs
        intra = inter = 0
        reps = 200
        for _ in range(reps):
            g = G.sbm_generate(50, 5, 0.8, 0.2, rng)
            for i, j, _ in g.edges:
                if labels[i] == labels[j]:
                    intra += 1
                else:
                    inter += 1
        for count, pairs, prob in ((intra, intra_pairs, 0.8), (inter, inter_pairs, 0.2)):
            total = pairs * reps
            se = np.sqrt(prob * (1 - prob) / total)
            assert abs(count / total - prob) <= 3 * se

    def test_remainder_spread(self):
        labels = G.community_labels(11, 3)
        sizes = [int(np.sum(labels == c)) for c in range(3)]
        assert sizes == [4, 4, 3]


def float64_pearson(ratings, min_coraters=2):
    """The float64 formula on full item x item matrices: the oracle that
    ``pearson_correlations`` must match bit for bit."""
    r = np.asarray(ratings, dtype=float)
    mask = (r != 0).astype(float)
    cnt = mask.T @ mask
    s1 = r.T @ mask
    s2 = (r * r).T @ mask
    cross = r.T @ r
    with np.errstate(divide="ignore", invalid="ignore"):
        mu_i = s1 / cnt
        mu_j = mu_i.T
        var_i = s2 / cnt - mu_i ** 2
        var_j = var_i.T
        cov = cross / cnt - mu_i * mu_j
        corr = cov / np.sqrt(var_i * var_j)
    bad = (cnt < min_coraters) | ~np.isfinite(corr)
    corr = np.where(bad, 0.0, corr)
    iu, ju = np.triu_indices(r.shape[1], k=1)
    vals = corr[iu, ju]
    nz = np.nonzero(vals)[0]
    order = np.lexsort((ju[nz], iu[nz], -vals[nz]))
    nz = nz[order]
    return [(int(i), int(j), float(v)) for i, j, v in zip(iu[nz], ju[nz], vals[nz])]


def tie_heavy_ratings():
    """Items rated by two or three of many users: thousands of exact +-1 ties."""
    rng = np.random.default_rng(4)
    r = np.zeros((40, 300))
    for item in range(300):
        users = rng.choice(40, size=rng.integers(2, 4), replace=False)
        r[users, item] = rng.integers(1, 6, size=users.size)
    return r


def bits(triples):
    return [(i, j, c.hex()) for i, j, c in triples]


@pytest.fixture(scope="module")
def movielens_ratings(tmp_path_factory):
    """A synthetic file of the full 943 x 1,682 MovieLens-100k size."""
    path = tmp_path_factory.mktemp("ml") / "u.data"
    X.write_synthetic_movielens(path, seed=3)
    return X.load_movielens(path)


class TestPearson:
    def test_identical_columns_correlate_fully(self):
        r = np.array([[1, 1], [2, 2], [5, 5], [3, 3.0]])
        triples = G.pearson_correlations(r)
        assert triples[0][:2] == (0, 1)
        assert triples[0][2] == pytest.approx(1.0)

    def test_too_few_coraters_no_edge(self):
        r = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
        assert G.pearson_correlations(r) == []

    def test_toy_matrix_matches_direct_formula(self):
        rng = np.random.default_rng(9)
        r = rng.integers(0, 6, size=(5, 4)).astype(float)
        triples = {(i, j): c for i, j, c in G.pearson_correlations(r)}
        for i in range(4):
            for j in range(i + 1, 4):
                both = (r[:, i] != 0) & (r[:, j] != 0)
                if both.sum() < 2:
                    assert (i, j) not in triples
                    continue
                a, b = r[both, i], r[both, j]
                va, vb = a - a.mean(), b - b.mean()
                denom = np.sqrt((va ** 2).mean() * (vb ** 2).mean())
                expect = 0.0 if denom < 1e-15 else float((va * vb).mean() / denom)
                got = triples.get((i, j), 0.0)
                assert got == pytest.approx(expect, abs=1e-12)

    def test_constant_column_correlation_zero(self):
        r = np.array([[2.0, 1.0], [2.0, 3.0], [2.0, 5.0]])
        assert G.pearson_correlations(r) == []

    def test_top_k_matches_the_full_keyed_sort_across_ties(self):
        r = tie_heavy_ratings()
        full = G.pearson_correlations(r)
        ranked = sorted(full, key=lambda t: (-t[2], t[0], t[1]))
        assert full == ranked
        values = [c for _, _, c in ranked]
        assert values.count(1.0) > 50 and values.count(-1.0) > 50
        for k in (0, 1, 55, values.count(1.0), values.count(1.0) + 7, len(ranked) - 1,
                  len(ranked), len(ranked) + 5):
            assert G.pearson_correlations(r, top=k) == ranked[:k]

    def test_single_precision_sums_match_the_float64_formula_bit_for_bit(
            self, movielens_ratings, small_ratings):
        for r in (tie_heavy_ratings(), movielens_ratings, small_ratings):
            want = float64_pearson(r)
            assert len(want) > 100
            assert bits(G.pearson_correlations(r)) == bits(want)

    def test_float32_input_is_read_and_left_alone(self, small_ratings):
        r = small_ratings.astype(np.float32)
        r.flags.writeable = False
        assert bits(G.pearson_correlations(r)) == bits(float64_pearson(small_ratings))
        np.testing.assert_array_equal(r, small_ratings)

    def test_exact_up_to_the_single_precision_bound(self):
        # 3 users: 3 * 2364^2 is just below 2^24, 3 * 2365^2 just above
        r = np.array([[2364.0, -2364.0, 7.0], [-2363.0, 2364.0, 2.0], [2364.0, 2361.0, 1.0]])
        assert bits(G.pearson_correlations(r)) == bits(float64_pearson(r))
        r[2, 1] = 2365.0
        with pytest.raises(GraphError, match="2\\^24"):
            G.pearson_correlations(r)

    @pytest.mark.parametrize("bad", [3.5, -0.25, np.nan, np.inf, 2.0 ** 24 + 1])
    def test_ratings_that_are_not_whole_numbers_are_refused(self, bad):
        r = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 1.0]])
        r[1, 0] = bad
        with pytest.raises(GraphError, match="whole numbers"):
            G.pearson_correlations(r)

    def test_peak_allocation_on_the_full_size_file(self, movielens_ratings):
        tracemalloc.start()
        try:
            G.pearson_correlations(movielens_ratings, top=55)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the float64 item x item version peaked at 236 MB on this file
        assert peak < 100e6


class TestNormalizeShift:
    def test_scales_spectrum_into_unit_interval(self):
        s = G.ShiftOperator(2, np.array([[0.0, 3.0], [3.0, 0.0]]))
        out = G.normalize_shift(s)
        assert np.all(np.abs(np.linalg.eigvalsh(out.entries)) <= 1 + 1e-10)

    def test_unit_radius_unchanged(self):
        s = G.ShiftOperator(2, np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = G.normalize_shift(s)
        assert np.abs(out.entries - s.entries).max() <= 1e-12

    def test_zero_matrix_rejected(self):
        with pytest.raises(GraphError):
            G.normalize_shift(G.ShiftOperator(2, np.zeros((2, 2))))

    def test_random_sbm_radius_one(self):
        g = G.sbm_generate(20, 4, 0.7, 0.2, np.random.default_rng(3))
        s = G.normalize_shift(G.build_shift(g, G.ADJACENCY))
        lam = np.linalg.eigvalsh(s.entries)
        assert abs(np.abs(lam).max() - 1.0) <= 1e-8


def read_shift(path):
    """The shift and GRES model rebuilt from an edge CSV and its JSON sidecar."""
    with open(str(path) + ".json") as f:
        meta = json.load(f)
    with open(path, newline="") as f:
        header, *rows = csv.reader(f)
    assert header == ["i", "j", "w"]
    edges = tuple((int(i), int(j), float(w)) for i, j, w in rows)
    shift = G.build_shift(G.Graph(meta["n"], edges), meta["kind"])
    g = meta["gres"]
    if g is None:
        return shift, None
    return shift, G.GresModel(shift, tuple(map(tuple, g["drop_edges"])),
                              tuple(map(tuple, g["add_edges"])), g["p"], g["q"])


class TestSerialization:
    def test_shift_round_trip(self, tmp_path):
        m = small_model()
        path = tmp_path / "graph.csv"
        G.save_shift(path, m.nominal, m)
        shift, model = read_shift(path)
        np.testing.assert_allclose(shift.entries, m.nominal.entries, atol=1e-12)
        assert model.p == m.p and model.q == m.q
        assert set(model.drop_edges) == set(m.drop_edges)
        assert set(model.add_edges) == set(m.add_edges)

    def test_graph_round_trip(self, tmp_path):
        g = G.Graph(5, ((0, 1, 0.5), (3, 4, 2.0)))
        path = tmp_path / "g.csv"
        G.save_shift(path, G.build_shift(g, G.ADJACENCY))
        shift, model = read_shift(path)
        assert shift.edges() == g.edges and model is None

    def test_header_validated(self, tmp_path):
        path = tmp_path / "g.csv"
        G.save_shift(path, G.build_shift(G.Graph(3, ((0, 2, 0.1),)), G.ADJACENCY))
        assert path.read_text().splitlines() == ["i,j,w", "0,2,0.1"]
        meta = json.loads((tmp_path / "g.csv.json").read_text())
        assert meta == {"n": 3, "kind": "adjacency", "gres": None}

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgnn import graphs as G
from sgnn.errors import GraphError


def path_graph(n, w=1.0):
    return G.Graph(n, tuple((i, i + 1, w) for i in range(n - 1)))


class TestBuildShift:
    def test_two_node_adjacency(self):
        g = G.Graph(2, ((0, 1, 1.0),))
        s = G.build_shift(g, G.ADJACENCY)
        np.testing.assert_array_equal(s.entries, [[0, 1], [1, 0]])

    def test_two_node_laplacian(self):
        g = G.Graph(2, ((0, 1, 1.0),))
        s = G.build_shift(g, G.LAPLACIAN)
        np.testing.assert_array_equal(s.entries, [[1, -1], [-1, 1]])

    def test_triangle_laplacian_spectrum(self):
        g = G.Graph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))
        d = G.eigendecompose(G.build_shift(g, G.LAPLACIAN))
        np.testing.assert_allclose(d.eigenvalues, [0.0, 3.0, 3.0], atol=1e-10)

    def test_empty_graph_zero_matrix(self):
        s = G.build_shift(G.Graph(3), G.ADJACENCY)
        np.testing.assert_array_equal(s.entries, np.zeros((3, 3)))

    def test_rejects_self_loop_and_duplicates(self):
        with pytest.raises(GraphError):
            G.Graph(3, ((1, 1, 1.0),))
        with pytest.raises(GraphError):
            G.Graph(3, ((0, 1, 1.0), (1, 0, 2.0)))

    def test_edge_recovery_round_trip(self):
        g = G.Graph(4, ((0, 1, 0.5), (2, 3, -1.5), (0, 3, 2.0)))
        for kind in G.KINDS:
            s = G.build_shift(g, kind)
            assert set(s.edges()) == set(g.edges)


def small_model(kind=G.ADJACENCY, p=0.4, q=0.3):
    g = G.Graph(4, ((0, 1, 1.0), (1, 2, 0.5), (2, 3, 1.0), (0, 3, 2.0)))
    s = G.build_shift(g, kind)
    return G.GresModel(s, drop_edges=s.edges()[:2], add_edges=((0, 2, 1.5),), p=p, q=q)


class TestSampleGres:
    def test_degenerate_probabilities_reproduce_nominal(self):
        for kind in G.KINDS:
            m = small_model(kind, p=0.0, q=0.0)
            for seed in (0, 1, 99):
                out = G.sample_gres(m, np.random.default_rng(seed))
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
        m = small_model(G.ADJACENCY)
        random_pos = {(i, j) for i, j, _ in m.drop_edges + m.add_edges}
        rng = np.random.default_rng(3)
        for _ in range(50):
            out = G.sample_gres(m, rng)
            diff = np.argwhere(out.entries != m.nominal.entries)
            for i, j in diff:
                pair = (min(i, j), max(i, j))
                assert pair in random_pos

    def test_laplacian_rows_sum_zero_exactly(self):
        m = small_model(G.LAPLACIAN)
        rng = np.random.default_rng(5)
        for _ in range(20):
            out = G.sample_gres(m, rng)
            np.testing.assert_array_equal(out.entries.sum(axis=1), np.zeros(4))

    def test_distinct_streams_differ(self):
        m = small_model(G.ADJACENCY, p=0.5, q=0.5)
        a = G.sample_gres_batch(m, 20, np.random.default_rng(1))
        b = G.sample_gres_batch(m, 20, np.random.default_rng(2))
        assert not np.array_equal(a, b)

    def test_same_seed_identical(self):
        m = small_model(G.ADJACENCY)
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

    @pytest.mark.parametrize("kind", G.KINDS)
    def test_monte_carlo_mean_matches(self, kind):
        m = small_model(kind)
        draws = G.sample_gres_batch(m, 100000, np.random.default_rng(11))
        emp = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        gap = np.abs(emp - G.expected_shift(m).entries)
        assert np.all(gap <= 3 * se + 1e-12)

    def test_loop_sampler_mean_matches(self):
        m = small_model(G.ADJACENCY)
        rng = np.random.default_rng(13)
        acc = np.zeros((4, 4))
        n = 2000
        for _ in range(n):
            acc += G.sample_gres(m, rng).entries
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

    def test_four_node_laplacian_with_adds(self):
        m = small_model(G.LAPLACIAN, p=0.3, q=0.6)
        acc = sum(prob * (mat @ mat) for prob, mat in G.enumerate_gres(m))
        assert np.abs(acc - G.expected_square(m)).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_enumeration_property(self, data):
        n = data.draw(st.integers(3, 6))
        rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
        g = G.sbm_generate(n, 1, 0.7, 0.7, rng)
        kind = data.draw(st.sampled_from(G.KINDS))
        s = G.build_shift(g, kind)
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


class TestEigendecompose:
    def test_identity(self):
        s = G.ShiftOperator(3, np.eye(3), G.ADJACENCY)
        d = G.eigendecompose(s)
        np.testing.assert_allclose(d.eigenvalues, np.ones(3))

    def test_two_node_closed_form(self):
        s = G.ShiftOperator(2, np.array([[0.0, 1.0], [1.0, 0.0]]), G.ADJACENCY)
        d = G.eigendecompose(s)
        np.testing.assert_allclose(d.eigenvalues, [-1.0, 1.0], atol=1e-12)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(10, 10))
        s = G.ShiftOperator(10, (a + a.T) / 2, G.ADJACENCY)
        d = G.eigendecompose(s)
        recon = d.eigenvectors @ np.diag(d.eigenvalues) @ d.eigenvectors.T
        assert np.linalg.norm(recon - s.entries) <= 1e-8
        ortho = d.eigenvectors.T @ d.eigenvectors
        assert np.abs(ortho - np.eye(10)).max() <= 1e-10

    def test_matches_library_eigenvalues(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(8, 8))
        sym = (a + a.T) / 2
        d = G.eigendecompose(G.ShiftOperator(8, sym, G.ADJACENCY))
        np.testing.assert_allclose(d.eigenvalues, np.linalg.eigvalsh(sym), atol=1e-9)

    def test_sweep_cap_reported_as_numerical_failure(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 6))
        s = G.ShiftOperator(6, (a + a.T) / 2, G.ADJACENCY)
        from sgnn.errors import NumericalError
        with pytest.raises(NumericalError, match="converge"):
            G.eigendecompose(s, max_sweeps=0)


class TestGft:
    def setup_method(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(7, 7))
        self.decomp = G.eigendecompose(G.ShiftOperator(7, (a + a.T) / 2, G.ADJACENCY))

    def test_eigenvector_maps_to_basis_vector(self):
        xhat = G.gft(self.decomp, self.decomp.eigenvectors[:, 2])
        expect = np.zeros(7)
        expect[2] = 1.0
        np.testing.assert_allclose(xhat, expect, atol=1e-10)

    def test_zero_maps_to_zero(self):
        np.testing.assert_array_equal(G.gft(self.decomp, np.zeros(7)), np.zeros(7))

    def test_parseval_and_inverse(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = rng.normal(size=7)
            xhat = G.gft(self.decomp, x)
            assert abs(np.linalg.norm(xhat) - np.linalg.norm(x)) <= 1e-10
            np.testing.assert_allclose(G.igft(self.decomp, xhat), x, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(GraphError):
            G.gft(self.decomp, np.zeros(5))


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


class TestPearson:
    def test_identical_columns_correlate_fully(self):
        r = np.array([[1, 1], [2, 2], [5, 5], [3, 3.0]])
        triples = G.pearson_correlations(r)
        assert triples[0][:2] == (0, 1)
        assert triples[0][2] == pytest.approx(1.0)

    def test_too_few_coraters_no_edge(self):
        r = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
        assert G.pearson_correlations(r) == []
        assert G.pearson_graph(r, 5).edges == ()

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
        # items rated by two or three of many users: thousands of exact +-1 ties
        rng = np.random.default_rng(4)
        r = np.zeros((40, 300))
        for item in range(300):
            users = rng.choice(40, size=rng.integers(2, 4), replace=False)
            r[users, item] = rng.integers(1, 6, size=users.size)
        full = G.pearson_correlations(r)
        ranked = sorted(full, key=lambda t: (-t[2], t[0], t[1]))
        assert full == ranked
        values = [c for _, _, c in ranked]
        assert values.count(1.0) > 50 and values.count(-1.0) > 50
        for k in (0, 1, 55, values.count(1.0), values.count(1.0) + 7, len(ranked) - 1,
                  len(ranked), len(ranked) + 5):
            assert G.pearson_correlations(r, top=k) == ranked[:k]
        assert G.pearson_graph(r, 55).edges == tuple(sorted(ranked[:55]))


class TestNormalizeShift:
    def test_scales_spectrum_into_unit_interval(self):
        s = G.ShiftOperator(2, np.array([[0.0, 3.0], [3.0, 0.0]]), G.ADJACENCY)
        out = G.normalize_shift(s)
        d = G.eigendecompose(out)
        assert np.all(np.abs(d.eigenvalues) <= 1 + 1e-10)

    def test_unit_radius_unchanged(self):
        s = G.ShiftOperator(2, np.array([[0.0, 1.0], [1.0, 0.0]]), G.ADJACENCY)
        out = G.normalize_shift(s)
        assert np.abs(out.entries - s.entries).max() <= 1e-12

    def test_zero_matrix_rejected(self):
        with pytest.raises(GraphError):
            G.normalize_shift(G.ShiftOperator(2, np.zeros((2, 2)), G.ADJACENCY))

    def test_random_sbm_radius_one(self):
        g = G.sbm_generate(20, 4, 0.7, 0.2, np.random.default_rng(3))
        s = G.normalize_shift(G.build_shift(g, G.ADJACENCY))
        d = G.eigendecompose(s)
        assert abs(np.abs(d.eigenvalues).max() - 1.0) <= 1e-8


class TestSerialization:
    def test_shift_round_trip(self, tmp_path):
        m = small_model(G.LAPLACIAN)
        path = tmp_path / "graph.csv"
        G.save_shift(path, m.nominal, m)
        shift, model = G.load_shift(path)
        np.testing.assert_allclose(shift.entries, m.nominal.entries, atol=1e-12)
        assert model.p == m.p and model.q == m.q
        assert set(model.drop_edges) == set(m.drop_edges)
        assert set(model.add_edges) == set(m.add_edges)

    def test_graph_round_trip(self, tmp_path):
        g = G.Graph(5, ((0, 1, 0.5), (3, 4, 2.0)))
        path = tmp_path / "g.csv"
        G.save_graph(path, g)
        assert G.load_graph(path).edges == g.edges

    def test_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0,1,1\n")
        (tmp_path / "bad.csv.json").write_text('{"n": 2, "kind": "adjacency", "gres": null}')
        with pytest.raises(GraphError):
            G.load_shift(path)

import numpy as np
import pytest

from sgnn import experiments as X
from sgnn import graphs as G
from sgnn import rng as R
from sgnn import util
from sgnn.errors import ConfigError
from sgnn.model import Architecture
from sgnn.training import TrainConfig, UNCONSTRAINED


class TestLabeledDataset:
    def test_split_validation(self):
        x = np.zeros((4, 1, 3))
        y = np.zeros(4, dtype=int)
        with pytest.raises(ConfigError):
            X.LabeledDataset(x, y, None, {"train": np.array([0, 1]), "test": np.array([1, 2, 3])})
        with pytest.raises(ConfigError):
            X.LabeledDataset(x, y, None, {"train": np.array([0, 1]), "test": np.array([2])})

    def test_batch_shapes_and_determinism(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(10, 2, 5))
        y = rng.integers(0, 3, size=10)
        ds = X.LabeledDataset(x, y, None, X.make_splits(10, (0.8, 0.1, 0.1)))
        b1 = ds.sample_batch(np.random.default_rng(3), 4)
        b2 = ds.sample_batch(np.random.default_rng(3), 4)
        assert b1.x.shape == (2, 5, 4)
        np.testing.assert_array_equal(b1.x, b2.x)
        np.testing.assert_array_equal(b1.y, b2.y)

    def test_full_batch_covers_split(self):
        x = np.arange(24, dtype=float).reshape(6, 1, 4)
        y = np.arange(6)
        ds = X.LabeledDataset(x, y, None, X.make_splits(6, (0.5, 0.25, 0.25)))
        fb = ds.full_batch("train")
        assert fb.size == 3


class TestSourceLocalization:
    def test_zero_time_no_noise_is_delta(self):
        cfg = X.SourceLocConfig(n=20, communities=4, p=0.1, t_max=0, noise_std=0.0,
                                split_sizes=(30, 5, 5))
        graph, gres, ds = X.gen_source_localization(cfg, R.derive(0, 1))
        sources = X.community_sources(graph, 4)
        for k in range(ds.size):
            x = ds.inputs[k, 0]
            s = sources[ds.labels[k]]
            expect = np.zeros(20)
            expect[s] = 1.0
            np.testing.assert_array_equal(x, expect)

    def test_full_scale_split_sizes(self):
        cfg = X.SourceLocConfig(desk_scale_factor=1.0, split_sizes=(10000, 2500, 2500))
        graph, gres, ds = X.gen_source_localization(cfg, R.derive(0, 2))
        assert ds.splits["train"].size == 10000
        assert ds.splits["val"].size == 2500
        assert ds.splits["test"].size == 2500

    def test_gres_drops_all_edges_no_adds(self):
        cfg = X.SourceLocConfig(split_sizes=(20, 4, 4))
        graph, gres, ds = X.gen_source_localization(cfg, R.derive(0, 3))
        assert gres.m_drop == len(graph.edges)
        assert gres.m_add == 0 and gres.q == 0.0

    def test_signals_bounded_for_long_diffusion(self):
        cfg = X.SourceLocConfig(t_max=50, split_sizes=(100, 10, 10))
        _, _, ds = X.gen_source_localization(cfg, R.derive(0, 4))
        norms = np.linalg.norm(ds.inputs[:, 0, :], axis=1)
        assert np.all(np.isfinite(norms)) and norms.max() < 100.0

    def test_noiseless_energy_heuristic_beats_chance(self):
        cfg = X.SourceLocConfig(n=50, communities=5, t_max=2, noise_std=0.0,
                                split_sizes=(200, 10, 10))
        graph, gres, ds = X.gen_source_localization(cfg, R.derive(0, 5))
        labels_nodes = G.community_labels(50, 5)
        correct = 0
        for k in range(ds.size):
            x = ds.inputs[k, 0]
            energy = [float(np.sum(x[labels_nodes == c] ** 2)) for c in range(5)]
            correct += int(np.argmax(energy) == ds.labels[k])
        assert correct / ds.size > 0.2

    def test_sources_are_community_degree_maxima(self):
        graph, _, _ = X.gen_source_localization(
            X.SourceLocConfig(split_sizes=(10, 2, 2)), R.derive(0, 6))
        sources = X.community_sources(graph, 5)
        labels = G.community_labels(graph.n, 5)
        deg = graph.degree()
        for c, s in enumerate(sources):
            members = np.nonzero(labels == c)[0]
            assert deg[s] == deg[members].max()

    def test_both_tasks_share_graph_and_signals(self):
        cfg = X.SourceLocConfig(split_sizes=(40, 8, 8), standardize=True)
        graph, gres, loc = X.gen_source_localization(cfg, R.derive(0, 8))
        graph_d, gres_d, den = X.gen_source_denoising(cfg, R.derive(0, 8))
        assert graph.edges == graph_d.edges
        assert gres.drop_edges == gres_d.drop_edges and gres.add_edges == gres_d.add_edges
        np.testing.assert_array_equal(loc.inputs, den.inputs)
        for split in ("train", "val", "test"):
            np.testing.assert_array_equal(loc.splits[split], den.splits[split])

    def test_denoising_targets_scaled_and_clean(self):
        cfg = X.SourceLocConfig(n=20, communities=4, p=0.2, noise_std=0.0,
                                standardize=False, split_sizes=(50, 10, 10))
        graph, gres, ds = X.gen_source_denoising(cfg, R.derive(0, 7))
        tr = ds.splits["train"]
        m2 = float(np.mean(ds.labels[tr] ** 2))
        assert m2 == pytest.approx(1.5, rel=1e-6)
        assert ds.masks.shape == ds.labels.shape and np.all(ds.masks == 1.0)
        # with zero noise the (unscaled) input is proportional to the target
        ratio = ds.labels[0] @ ds.inputs[0, 0] / (np.linalg.norm(ds.labels[0])
                                                  * np.linalg.norm(ds.inputs[0, 0]))
        assert ratio == pytest.approx(1.0, abs=1e-10)


class TestMovieLens:
    def test_three_line_synthetic_file(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t2\t5\t100\n3\t1\t3\t200\n2\t4\t1\t300\n")
        r = X.load_movielens(path, n_users=3, n_items=4, expect_count=None)
        assert r[0, 1] == 5 and r[2, 0] == 3 and r[1, 3] == 1
        assert np.count_nonzero(r) == 3

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t2\t5\t100\nbroken line\n")
        with pytest.raises(ConfigError, match=":2"):
            X.load_movielens(path, n_users=3, n_items=4, expect_count=None)

    def test_out_of_range_id_rejected(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("9\t1\t4\t100\n")
        with pytest.raises(ConfigError):
            X.load_movielens(path, n_users=3, n_items=4, expect_count=None)

    def test_repeated_pair_rejected_with_both_lines(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t2\t5\t100\n2\t1\t3\t200\n1\t2\t4\t300\n")
        with pytest.raises(ConfigError, match=r":3: \(1,2\) already rated on line 1"):
            X.load_movielens(path, n_users=3, n_items=4, expect_count=None)

    @pytest.mark.parametrize("stars", ["3.5", "0", "6", "-1", "nan"])
    def test_rating_off_the_star_scale_rejected_with_its_line(self, tmp_path, stars):
        path = tmp_path / "u.data"
        path.write_text(f"1\t2\t5\t100\n\n2\t1\t{stars}\t200\n1\t3\t4\t300\n")
        with pytest.raises(ConfigError, match=f":3: rating '{stars}' is not a whole number"):
            X.load_movielens(path, n_users=3, n_items=4, expect_count=3)

    def test_earliest_faulty_line_is_named(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t2\t5\t100\n1\t2\t4\t300\n2\t9\t3\t200\n")
        with pytest.raises(ConfigError, match=r":2: \(1,2\) already rated on line 1"):
            X.load_movielens(path, n_users=3, n_items=4, expect_count=None)
        path.write_text("1\t2\t5\t100\n2\t9\t3\t200\n1\t2\t4\t300\n3\t1\t0\t1\n")
        with pytest.raises(ConfigError, match=r":2: id \(2,9\) outside 3x4"):
            X.load_movielens(path, n_users=3, n_items=4, expect_count=None)

    def test_matches_a_line_by_line_parse(self, tmp_path):
        path = tmp_path / "u.data"
        X.write_synthetic_movielens(path, seed=2, n_users=60, n_items=40, n_ratings=900)
        want = np.zeros((60, 40))
        for line in path.read_text().splitlines():
            user, item, stars, _ = line.split("\t")
            want[int(user) - 1, int(item) - 1] = float(stars)
        got = X.load_movielens(path, n_users=60, n_items=40, expect_count=900)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)

    def test_wrong_count_rejected(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t1\t4\t100\n")
        with pytest.raises(ConfigError, match="expected 2 ratings"):
            X.load_movielens(path, n_users=2, n_items=2, expect_count=2)

    def test_synthetic_generator_schema(self, tmp_path):
        path = tmp_path / "u.data"
        X.write_synthetic_movielens(path, seed=1, n_users=40, n_items=30, n_ratings=300)
        r = X.load_movielens(path, n_users=40, n_items=30, expect_count=300)
        vals = r[r != 0]
        assert np.all((vals >= 1) & (vals <= 5))
        assert np.all(vals == np.rint(vals))


class TestRecsysTask:
    def test_edge_set_sizes(self, small_ratings):
        task = X.build_recsys_task(small_ratings, X.RecsysConfig(keep_top=15, add_next=8), 0.1)
        assert task.gres.m_drop == 15
        assert task.gres.m_add == 8
        assert task.gres.p == task.gres.q == 0.1

    def test_p_zero_deterministic(self, small_ratings):
        task = X.build_recsys_task(small_ratings, X.RecsysConfig(keep_top=15, add_next=8), 0.0)
        a = G.sample_gres_batch(task.gres, 1, np.random.default_rng(0))[0]
        np.testing.assert_array_equal(a, task.gres.nominal.entries)

    def test_holdout_semantics(self, small_ratings):
        task = X.build_recsys_task(small_ratings, X.RecsysConfig(keep_top=15, add_next=8), 0.1)
        ds = task.dataset
        for k in range(min(50, ds.size)):
            node = task.sample_items[k]
            user = task.sample_users[k]
            assert ds.inputs[k, 0, node] == 0.0
            assert ds.masks[k, node] == 1.0
            assert ds.labels[k, node] == pytest.approx(
                task.ratings_sub[user, node] - task.rating_mean)
            assert ds.masks[k].sum() == 1.0

    def test_single_rating_users_excluded(self, small_ratings):
        task = X.build_recsys_task(small_ratings, X.RecsysConfig(keep_top=15, add_next=8), 0.1)
        counts = (task.ratings_sub != 0).sum(axis=1)
        for u in np.unique(task.sample_users):
            assert counts[u] >= 2

    def test_nominal_and_added_edges_share_one_scale(self, small_ratings):
        task = X.build_recsys_task(small_ratings, X.RecsysConfig(keep_top=15, add_next=8), 0.1)
        shift = G.build_shift(task.graph, G.ADJACENCY)
        rho = G.ShiftOperator(shift.n, shift.entries.copy()).spectral_radius()
        np.testing.assert_allclose(task.gres.nominal.entries, shift.entries / rho, rtol=1e-12)
        remap = {int(orig): k for k, orig in enumerate(task.covered_items)}
        runners_up = G.pearson_correlations(small_ratings, top=23)[15:]
        expected = sorted((remap[i], remap[j], w / rho) for i, j, w in runners_up)
        for (i, j, w), (ei, ej, ew) in zip(sorted(task.gres.add_edges), expected):
            assert (i, j) == (ei, ej)
            assert w == pytest.approx(ew, rel=1e-12)

    def test_cells_derive_their_model_from_the_one_task(self, small_ratings):
        cfg = X.ExperimentConfig(task=X.RECSYS, p_values=(0.05, 0.2),
                                 recsys=X.RecsysConfig(keep_top=15, add_next=8))
        shared = X.load_task(cfg, small_ratings)
        for p in (0.2, 0.0, 0.05):
            gres, dataset, _ = X.cell_task(cfg, 0, p, shared)
            want = X.build_recsys_task(small_ratings, cfg.recsys, p)
            assert (gres.p, gres.q, gres.drop_edges, gres.add_edges) == \
                (want.gres.p, want.gres.q, want.gres.drop_edges, want.gres.add_edges)
            np.testing.assert_array_equal(gres.nominal.entries, want.gres.nominal.entries)
            for name in ("inputs", "labels", "masks"):
                np.testing.assert_array_equal(getattr(dataset, name),
                                              getattr(want.dataset, name))
            assert dataset.splits.keys() == want.dataset.splits.keys()
            for split, idx in dataset.splits.items():
                np.testing.assert_array_equal(idx, want.dataset.splits[split])
        assert shared.gres.p == 0.05

    def test_a_sweep_correlates_the_ratings_once(self, small_ratings, monkeypatch):
        calls = []
        pearson = X.pearson_correlations
        monkeypatch.setattr(X, "pearson_correlations",
                            lambda *args, **kw: calls.append(1) or pearson(*args, **kw))
        monkeypatch.setattr(X, "load_movielens", lambda path: small_ratings)
        cfg = X.ExperimentConfig(
            task=X.RECSYS, p_values=(0.1, 0.2), modes=(UNCONSTRAINED,),
            arch=Architecture((1, 2, 1), 1),
            train=TrainConfig(max_iters=2, n_realizations=2, batch_size=4, loss="masked_mse"),
            recsys=X.RecsysConfig(keep_top=15, add_next=8), ratings_path="u.data",
            eval_draws=1)
        rows, _ = X.run_experiment(cfg)
        assert len(calls) == 1
        assert sorted({(r["p"], r["q"]) for r in rows}) == [(0.1, 0.1), (0.2, 0.2)]

    def test_requires_enough_correlated_pairs(self):
        ratings = np.zeros((5, 4))
        with pytest.raises(ConfigError):
            X.build_recsys_task(ratings, X.RecsysConfig(keep_top=35, add_next=20))


class TestMetrics:
    def test_accuracy(self):
        assert X.metric_accuracy([1, 2, 3], [1, 2, 3]) == 1.0
        assert X.metric_accuracy([1, 2, 3], [1, 0, 3]) == pytest.approx(2 / 3)

    def test_rmse_matches_formula(self, rng):
        pred = rng.normal(size=(4, 3))
        t = rng.normal(size=(4, 3))
        mask = np.ones((4, 3))
        expect = float(np.sqrt(np.mean((pred - t) ** 2)))
        assert X.metric_rmse(pred, t, mask) == pytest.approx(expect)

    def test_ad_at_k_identical_and_disjoint(self):
        same = [[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]] * 5
        assert X.metric_ad_at_k(same, 10) == 10
        disjoint = [list(range(10)), list(range(10, 20))]
        assert X.metric_ad_at_k(disjoint, 10) == 20

    def test_ad_at_k_counts_what_a_set_counts(self, rng):
        def by_set(lists, k):
            return len({int(i) for lst in lists for i in lst[:k]})

        ragged = [rng.choice(30, size=rng.integers(0, 15), replace=False) for _ in range(25)]
        cases = [ragged, [list(lst) for lst in ragged], [[3], [], [3, 4]], [[], []], [],
                 [np.arange(5, 0, -1)]]
        for lists in cases:
            for k in (0, 1, 3, 10):
                assert X.metric_ad_at_k(lists, k) == by_set(lists, k)

    def test_ad_bounds(self, rng):
        lists = [rng.choice(50, size=10, replace=False) for _ in range(7)]
        ad = X.metric_ad_at_k(lists, 10)
        assert 10 <= ad <= 70

    def test_top_k_excludes_rated_and_breaks_ties_by_index(self):
        pred = np.array([0.5, 0.9, 0.5, 0.1])
        rated = np.array([False, True, False, False])
        top = X.top_k_items(pred, rated, k=2)
        np.testing.assert_array_equal(top, [0, 2])

    def test_top_k_ranks_all_users_as_one_row_at_a_time(self, rng):
        def one_row(pred, rated, k=10):      # the per-user ranking, one lexsort per row
            scores = np.where(rated, -np.inf, pred)
            order = np.lexsort((np.arange(scores.size), -scores))
            return order[np.isfinite(scores[order])][:k]

        pred = np.round(rng.normal(size=(40, 30)), 1)      # many exact ties
        rated = rng.random((40, 30)) < 0.5
        rated[3] = True                                     # rated every item
        rated[5] = np.arange(30) < 25                      # fewer than k unrated
        lists = X.top_k_items(pred, rated)
        want = [one_row(pred[u], rated[u]) for u in range(40)]
        assert len(lists) == 40 and lists[3].size == 0 and lists[5].size == 5
        for got, ref in zip(lists, want):
            np.testing.assert_array_equal(got, ref)
        assert X.metric_ad_at_k(lists, 10) == X.metric_ad_at_k(want, 10)


class TestRunExperiment:
    def desk_cfg(self, tmp_path=None):
        return X.ExperimentConfig(
            task=X.SOURCE_LOCALIZATION,
            p_values=(0.1,),
            modes=(UNCONSTRAINED,),
            graph_seeds=(0,),
            master_seed=7,
            arch=Architecture((1, 2, 1), 2, activation="leaky_relu", readout=5),
            train=TrainConfig(max_iters=3, n_realizations=2, batch_size=8,
                              loss="cross_entropy", grad_norm_tol=0.0),
            source=X.SourceLocConfig(n=20, communities=5, split_sizes=(40, 8, 8),
                                     noise_std=0.005, standardize=True),
            eval_draws=4,
            cost_window=2,
        )

    def test_rows_written_and_sorted(self, tmp_path):
        rows, summary = X.run_experiment(self.desk_cfg(), out_dir=tmp_path)
        assert (tmp_path / "results.csv").exists()
        assert (tmp_path / "summary.json").exists()
        metrics = {r["metric"] for r in rows}
        assert metrics == {"accuracy", "cost"}
        assert len(rows) == 2
        back = X.read_results(tmp_path / "results.csv")
        assert back == rows

    def test_trace_files_written(self, tmp_path):
        X.run_experiment(self.desk_cfg(), out_dir=tmp_path)
        traces = [p.name for p in tmp_path.iterdir() if p.name.startswith("trace_")]
        assert len(traces) == 1

    def test_run_is_seed_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        X.run_experiment(self.desk_cfg(), out_dir=d1)
        X.run_experiment(self.desk_cfg(), out_dir=d2)
        assert (d1 / "results.csv").read_bytes() == (d2 / "results.csv").read_bytes()

    def test_recsys_cells_give_the_same_files_on_one_and_two_threads(self, tmp_path,
                                                                       monkeypatch):
        ratings = tmp_path / "u.data"
        X.write_synthetic_movielens(ratings, seed=3)
        cfg = X.ExperimentConfig(
            task=X.RECSYS, p_values=(0.0, 0.1), modes=(UNCONSTRAINED,), master_seed=7,
            arch=Architecture((1, 2, 1), 2, activation="leaky_relu"),
            train=TrainConfig(max_iters=3, n_realizations=2, batch_size=8,
                              loss="masked_mse", grad_norm_tol=0.0),
            recsys=X.RecsysConfig(max_samples=200), ratings_path=str(ratings),
            eval_draws=2)
        outs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("SGNN_THREADS", threads)
            out = tmp_path / threads
            X.run_experiment(cfg, out_dir=out)
            outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert len(outs[0]) == 4 and outs[0] == outs[1]

    def test_cv_sweep_schema(self, tmp_path, monkeypatch):
        cfg = self.desk_cfg()
        files = []
        # on two threads the cells share one GRES model, and so its per-thread buffers
        for threads in ("1", "2"):
            monkeypatch.setenv("SGNN_THREADS", threads)
            rows = X.run_cv_sweep(cfg, c_v_values=(0.3, 0.6), out_dir=tmp_path / threads,
                                  lipschitz_samples=200)
            assert len(rows) == 2
            files.append((tmp_path / threads / "lipschitz.csv").read_bytes())
        lines = files[0].decode().strip().splitlines()
        assert lines[0] == "c_v,graph_seed,c_l"
        assert len(lines) == 3
        assert files[1] == files[0]


@pytest.mark.parametrize("value", ["two", "0", "-3"])
def test_bad_thread_count_is_refused(monkeypatch, value):
    monkeypatch.setenv("SGNN_THREADS", value)
    with pytest.raises(ConfigError, match=f"SGNN_THREADS.*'{value}'"):
        util.worker_count()


def test_thread_count_is_read(monkeypatch):
    monkeypatch.setenv("SGNN_THREADS", "3")
    assert util.worker_count() == 3

"""Acceptance gate: one test per criterion, one printed line each.

The trend criteria (8, 9, 10) train full desk-scale models and dominate the
runtime (tens of minutes); session fixtures share the expensive sweeps and
run their independent trainings on SGNN_THREADS threads (2 unless set).
Every tolerance is pinned here, not configured elsewhere.
"""

import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from sgnn import cli
from sgnn import experiments as X
from sgnn import graphs as G
from sgnn import rng as R
from sgnn import training as T
from sgnn import verify as V
from sgnn.estimators import McConfig, deviation_probability, estimate_moments, sample_stack
from sgnn.model import (
    Architecture,
    SgnnParams,
    forward_stack,
    init_params,
    output_bound,
)
from sgnn.util import parallel_map

SEED = 2026


def report(num, passed, detail):
    print(f"ACCEPTANCE {num:>2} [{'PASS' if passed else 'FAIL'}] {detail}")
    assert passed, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# Shared desk-scale artifacts
# ---------------------------------------------------------------------------

DESK_ARCH = Architecture((1, 4, 1), 4, activation="leaky_relu", readout=5)
# c_s sits above the second moment that easy (low-p) cells settle at, so the
# bound stays slack there (paired streams then make the two modes literally
# identical) and bites only where graph randomness drives the moments up
DESK_TRAIN = T.TrainConfig(
    max_iters=2000, n_realizations=10, batch_size=32, eta_primal=1e-2,
    eta_dual=0.02, loss="cross_entropy", grad_norm_tol=0.0, c_f=0.0, c_s=2.0)
DESK_SOURCE = X.SourceLocConfig(desk_scale_factor=0.3, noise_std=0.005,
                                standardize=True)


@pytest.fixture(scope="session")
def desk_sweep(tmp_path_factory):
    """3 graph seeds x p in {0.05, 0.15, 0.25} x {primal-dual, unconstrained}."""
    os.environ.setdefault("SGNN_THREADS", "2")
    out = tmp_path_factory.mktemp("desk_sweep")
    cfg = X.ExperimentConfig(
        task=X.SOURCE_LOCALIZATION,
        p_values=(0.05, 0.15, 0.25),
        modes=(T.PRIMAL_DUAL, T.UNCONSTRAINED),
        graph_seeds=(0, 1, 2),
        master_seed=SEED,
        arch=DESK_ARCH,
        train=DESK_TRAIN,
        source=DESK_SOURCE,
        eval_draws=200,
        cost_window=100,
    )
    rows, summary = X.run_experiment(cfg, out_dir=out)
    return cfg, rows, out


@pytest.fixture(scope="session")
def recsys_artifacts(tmp_path_factory):
    """Synthetic MovieLens-100k file, loaded matrix, and two trained models."""
    path = tmp_path_factory.mktemp("ml") / "u.data"
    X.write_synthetic_movielens(path, seed=SEED)
    ratings = X.load_movielens(path)
    arch = Architecture((1, 8, 1), 4, activation="leaky_relu")
    tc = T.TrainConfig(max_iters=600, n_realizations=10, batch_size=32,
                       eta_primal=1e-2, eta_dual=0.02, loss="masked_mse",
                       grad_norm_tol=0.0, c_f=0.0, c_s=0.5, mode=T.UNCONSTRAINED)

    def one(p):
        task = X.build_recsys_task(ratings, X.RecsysConfig(max_samples=4000), p)
        params0 = init_params(arch, R.derive(SEED, 20), n=task.graph.n)
        params, _, trace = T.train(params0, task.gres, task.dataset, tc, R.derive(SEED, 21))
        return p, (task, params, trace)

    os.environ.setdefault("SGNN_THREADS", "2")
    return path, ratings, dict(parallel_map(one, (0.0, 0.1)))


# ---------------------------------------------------------------------------
# 1. Moment-formula exactness
# ---------------------------------------------------------------------------


def test_criterion_01_moment_formula_exact():
    rng = np.random.default_rng(SEED)
    probs = (0.1, 0.3, 0.5, 0.7, 0.9)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(3, 9))
        g = G.sbm_generate(n, 1, 0.8, 0.8, rng)
        s = G.build_shift(g, G.ADJACENCY)
        edges = s.edges()
        pairs = {(i, j) for i, j, _ in edges}
        absent = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in pairs]
        n_drop = min(len(edges), int(rng.integers(0, 7)))
        n_add = min(len(absent), int(rng.integers(0, 11 - n_drop)))
        model = G.GresModel(
            s, drop_edges=edges[:n_drop],
            add_edges=tuple((i, j, float(rng.uniform(0.5, 2.0))) for i, j in absent[:n_add]),
            p=float(rng.choice(probs)), q=float(rng.choice(probs)))
        acc = sum(prob * (mat @ mat) for prob, mat in G.enumerate_gres(model))
        worst = max(worst, float(np.abs(acc - G.expected_square(model)).max()))
    report(1, worst <= 1e-12,
           f"moment formula vs enumeration over 50 graphs: max error {worst:.3e} <= 1e-12")


# ---------------------------------------------------------------------------
# 2. Gradient correctness
# ---------------------------------------------------------------------------


def _fd_check(params, objective, h=1e-5, tol=1e-5):
    flat = params.flatten()
    grads = objective(params, want_grads=True).flatten()
    worst = 0.0
    for i in range(flat.size):
        e = np.zeros_like(flat)
        e[i] = h
        num = (objective(params.unflatten(flat + e))
               - objective(params.unflatten(flat - e))) / (2 * h)
        denom = max(abs(num) + abs(grads[i]), 1e-6)
        worst = max(worst, abs(num - grads[i]) / denom)
    return worst


def test_criterion_02_gradients_match_finite_differences():
    rng = np.random.default_rng(SEED + 1)
    activations = ("relu", "leaky_relu", "abs", "identity")
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(0, 4))
        widths = [1] + [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 3)) - 1)] + [1]
        use_readout = trial % 2 == 0
        arch = Architecture(tuple(widths), k, activation=activations[trial % 4],
                            readout=3 if use_readout else None)
        g = G.sbm_generate(n, 1, 0.9, 0.9, rng)
        s = G.normalize_shift(G.build_shift(g, G.ADJACENCY))
        edges = s.edges()
        gres = G.GresModel(s, drop_edges=edges[:min(3, len(edges))], p=0.3)
        params = init_params(arch, rng, n=n)
        b = 3
        x = rng.normal(size=(1, n, b))
        if use_readout:
            batch = T.Batch(x, rng.integers(0, 3, size=b))
            loss_name = "cross_entropy"
        else:
            batch = T.Batch(x, rng.normal(size=(n, b)), np.ones((n, b)))
            loss_name = "masked_mse"
        gamma = T.DualVars(0.7, 0.4)
        seed = int(rng.integers(10 ** 6))
        for mode, gm, beta in ((T.PRIMAL_DUAL, T.DualVars(0.0, 0.0), 0.0),
                               (T.PRIMAL_DUAL, gamma, 0.0),
                               (T.REGULARIZED, T.DualVars(0.0, 0.0), 0.6)):
            cfg = T.TrainConfig(n_realizations=2, loss=loss_name, c_f=0.2, c_s=0.4,
                                mode=mode, reg_beta=beta)

            def objective(p, want_grads=False, _g=gm, _c=cfg, _s=seed):
                v, grads = T.lagrangian(p, _g, gres, batch, _c, R.root_rng(_s))
                return grads if want_grads else v

            worst = max(worst, _fd_check(params, objective))
    report(2, worst < 1e-5,
           f"cost/Lagrangian/regularized gradients vs central differences: "
           f"max rel error {worst:.3e} < 1e-5 over 20 instances")


# ---------------------------------------------------------------------------
# 3. Output bound
# ---------------------------------------------------------------------------


def test_criterion_03_output_bound_never_violated():
    rng = np.random.default_rng(SEED + 2)
    g = G.sbm_generate(16, 4, 0.8, 0.3, rng)
    s = G.normalize_shift(G.build_shift(g, G.ADJACENCY))
    edges = s.edges()
    pairs = {(i, j) for i, j, _ in edges}
    absent = [(i, j) for i in range(16) for j in range(i + 1, 16) if (i, j) not in pairs]
    gres = G.GresModel(s, drop_edges=edges[:10],
                       add_edges=tuple((i, j, 0.5) for i, j in absent[:4]), p=0.3, q=0.4)
    violations = 0
    worst_ratio = 0.0
    for half, activation in ((0, "relu"), (1, "abs")):
        arch = Architecture((1, 3, 1), 2, activation=activation)
        params = V.rescale_to_unit_response(init_params(arch, rng), 1.0, rng)
        for _ in range(500):
            x = rng.normal(size=16)
            stack = sample_stack(gres, arch, 1, rng)
            tape = forward_stack(params, stack, x[None, :, None])
            c_y = output_bound(arch, float(np.linalg.norm(x)))
            ratio = float(np.linalg.norm(tape.output) / c_y)
            worst_ratio = max(worst_ratio, ratio)
            violations += ratio > 1.0
    report(3, violations == 0,
           f"output-energy bound over 1000 draws: 0 violations required, got {violations} "
           f"(worst ratio {worst_ratio:.3f})")


# ---------------------------------------------------------------------------
# 4. Variance bound over the probability grid
# ---------------------------------------------------------------------------


def test_criterion_04_variance_bound_grid():
    rng = np.random.default_rng(SEED + 3)
    g = G.sbm_generate(20, 4, 0.8, 0.3, rng)
    s = G.normalize_shift(G.build_shift(g, G.ADJACENCY))
    edges = s.edges()
    pairs = {(i, j) for i, j, _ in edges}
    absent = [(i, j) for i in range(20) for j in range(i + 1, 20) if (i, j) not in pairs]
    arch = Architecture((1, 2, 1), 2, activation="relu")
    params = init_params(arch, rng)
    x = rng.normal(size=20)
    grid = (0.05, 0.1, 0.2, 0.3)
    violations = []
    min_slack = math.inf
    for gi, p in enumerate(grid):
        for gj, q in enumerate(grid):
            gres = G.GresModel(s, drop_edges=edges[:12],
                               add_edges=tuple((i, j, 0.5) for i, j in absent[:5]),
                               p=p, q=q)
            rep = V.check_variance_bound(
                params, gres, x, McConfig(2000, master_seed=SEED + gi * 7 + gj))
            min_slack = min(min_slack, rep.slack)
            if rep.violated:
                violations.append((p, q))
    report(4, not violations,
           f"variance bound over the 16-point (p, q) grid at N=2000: "
           f"0 violations required, got {len(violations)}; min slack {min_slack:.4f}")


# ---------------------------------------------------------------------------
# 5. Deviation-probability (Chebyshev-style) bound
# ---------------------------------------------------------------------------


def test_criterion_05_chebyshev_on_trained_feasible_model():
    scfg = replace(DESK_SOURCE, n=20, communities=4, p=0.2,
                   split_sizes=(600, 100, 100))
    graph, gres, ds = X.gen_source_localization(scfg, R.derive(SEED, 30))
    arch = Architecture((1, 3, 1), 3, activation="leaky_relu", readout=4)
    params0 = init_params(arch, R.derive(SEED, 31), n=20)
    tc = replace(DESK_TRAIN, max_iters=400, c_s=0.4)
    params, gamma, trace = T.train(params0, gres, ds, tc, R.derive(SEED, 32))
    tail_slack = trace.column("slack2")[-50:].mean()
    x = ds.inputs[0, 0]
    var = estimate_moments(params, gres, x, McConfig(2000, master_seed=SEED + 5)).variance
    m = 2000
    failures = []
    for i, scale in enumerate((0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0, 300.0)):
        eps = max(var, 1e-12) * scale
        prob = deviation_probability(params, gres, x, eps, m, R.derive(SEED, 33, i))
        se = math.sqrt(max(prob * (1 - prob), 1.0 / m) / m)
        bound = 1.0 - var / eps - 2.0 * se
        if prob < bound:
            failures.append((eps, prob, bound))
    report(5, not failures,
           f"deviation probability >= 1 - Var/eps - 2SE on 8 eps points (M=2000, "
           f"trained model, tail slack {tail_slack:+.3f}): {len(failures)} failures")


# ---------------------------------------------------------------------------
# 6. Stability slope
# ---------------------------------------------------------------------------


def test_criterion_06_stability_slope():
    rng = np.random.default_rng(SEED + 6)
    g = G.sbm_generate(16, 4, 0.8, 0.3, rng)
    s = G.normalize_shift(G.build_shift(g, G.ADJACENCY))
    arch = Architecture((1, 2, 1), 2, activation="abs")
    params = init_params(arch, rng)
    rep = V.check_stability(params, s, [1e-3, 3e-3, 1e-2], 200, rng)
    ratio = rep.inputs["ratio"]
    alive = rep.empirical > 0.0
    report(6, alive and ratio <= 1.0,
           f"stability: fitted slope {rep.empirical:.4f} vs C_B {rep.bound:.4f} "
           f"(ratio {ratio:.3f} <= 1.0, 200 trials per eps, nonzero deviations={alive})")


# ---------------------------------------------------------------------------
# 7. Primal-dual mechanics
# ---------------------------------------------------------------------------


def test_criterion_07_primal_dual_mechanics():
    # one canonical desk-scale run at the paper's bounds (c_f=0, c_s=0.5)
    scfg = replace(DESK_SOURCE, p=0.15)
    graph, gres, ds = X.gen_source_localization(scfg, R.derive(SEED, 40))
    params0 = init_params(DESK_ARCH, R.derive(SEED, 41), n=50)
    tc = replace(DESK_TRAIN, c_f=0.0, c_s=0.5)
    _, gamma, trace = T.train(params0, gres, ds, tc, R.derive(SEED, 42))
    g1 = trace.column("gamma1")
    g2 = trace.column("gamma2")
    nonneg = bool(np.all(g1 >= 0) and np.all(g2 >= 0))
    # the last row's slack is one mini-batch estimate; "final" slack is read
    # as the trailing average, which is the stable quantity at desk scale
    tail1 = trace.column("slack1")[-100:].mean()
    tail2 = trace.column("slack2")[-100:].mean()
    slacks_ok = tail1 >= -0.05 and tail2 >= -0.05
    dual_active = bool(np.any(g2 > 0))

    # dual reduction: freezing the duals reproduces plain descent bit for bit
    scfg_small = replace(DESK_SOURCE, p=0.15, split_sizes=(400, 80, 80))
    graph, gres_s, ds_s = X.gen_source_localization(scfg_small, R.derive(SEED, 43))
    params_s = init_params(DESK_ARCH, R.derive(SEED, 44), n=50)
    tc_frozen = replace(DESK_TRAIN, max_iters=60, c_f=-1e9, c_s=1e9)
    p_pd, _, tr_pd = T.train(params_s, gres_s, ds_s, tc_frozen, R.derive(SEED, 45))
    p_un, _, tr_un = T.train(params_s, gres_s, ds_s,
                             replace(tc_frozen, mode=T.UNCONSTRAINED), R.derive(SEED, 45))
    identical = all(np.array_equal(a, b) for a, b in zip(p_pd.arrays(), p_un.arrays()))
    identical = identical and all(
        np.array_equal(tr_pd.column(c), tr_un.column(c))
        for c in T.TRACE_COLUMNS if not c.startswith("gamma"))

    ok = nonneg and slacks_ok and identical
    report(7, ok,
           f"duals nonnegative={nonneg}, tail slacks ({tail1:+.3f}, {tail2:+.3f}) >= -0.05, "
           f"gamma2 activated={dual_active}, frozen-dual reduction bit-identical={identical}")


# ---------------------------------------------------------------------------
# 8. Cost-vs-p trend
# ---------------------------------------------------------------------------


def test_criterion_08_cost_increases_with_p(desk_sweep):
    cfg, rows, _ = desk_sweep
    ordered = 0
    detail = []
    for seed in cfg.graph_seeds:
        costs = {r["p"]: r["mean"] for r in rows
                 if r["metric"] == "cost" and r["mode"] == T.PRIMAL_DUAL
                 and r["graph_seed"] == seed}
        seq = [costs[p] for p in cfg.p_values]
        ok = seq[0] <= seq[1] <= seq[2]
        ordered += ok
        detail.append(f"seed {seed}: {seq[0]:.3f}/{seq[1]:.3f}/{seq[2]:.3f}{'+' if ok else '-'}")
    report(8, ordered >= 2,
           f"smoothed final cost ordered in p for {ordered}/3 seeds (need >= 2): "
           + "; ".join(detail))


# ---------------------------------------------------------------------------
# 9. Variance-constrained accuracy spread
# ---------------------------------------------------------------------------


def test_criterion_09_constrained_std_not_larger(desk_sweep):
    cfg, rows, _ = desk_sweep

    def cell(mode, p, seed, field):
        for r in rows:
            if (r["metric"] == "accuracy" and r["mode"] == mode
                    and r["p"] == p and r["graph_seed"] == seed):
                return r[field]
        raise KeyError((mode, p, seed))

    all_ok = True
    detail = []
    for p in cfg.p_values:
        good = 0
        for seed in cfg.graph_seeds:
            std_ok = cell(T.PRIMAL_DUAL, p, seed, "std") <= cell(T.UNCONSTRAINED, p, seed, "std")
            acc_gap = abs(cell(T.PRIMAL_DUAL, p, seed, "mean")
                          - cell(T.UNCONSTRAINED, p, seed, "mean"))
            good += std_ok and acc_gap <= 0.05
        detail.append(f"p={p}: {good}/3 seeds")
        all_ok = all_ok and good >= 2
    report(9, all_ok,
           "constrained std <= unconstrained and accuracy within 5pp (majority per p): "
           + "; ".join(detail))


# ---------------------------------------------------------------------------
# 10. Lipschitz constant vs variance budget
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def cv_sweep():
    """Trainings at C_v in {0.1, 0.3, 0.5, 0.7} on the denoising regression.

    Without a readout the output scale is pinned by the targets, so the
    moment budget must reach the filter taps; a free readout would absorb it
    as a plain rescaling and say nothing about C_L.
    """
    scfg = replace(DESK_SOURCE, p=0.25, desk_scale_factor=0.2)
    graph, gres, ds = X.gen_source_denoising(scfg, R.derive(SEED, 50))
    arch = replace(DESK_ARCH, readout=None)
    params0 = init_params(arch, R.derive(SEED, 51), n=50)

    def one(cv):
        tc = replace(DESK_TRAIN, c_f=0.0, c_s=cv, loss="masked_mse", max_iters=1200)
        params, gamma, trace = T.train(params0, gres, ds, tc, R.derive(SEED, 52))
        c_l = V.model_lipschitz(params, 1.0, 2000, R.derive(SEED, 53),
                                reduce="mean")
        return cv, (c_l, trace)

    os.environ.setdefault("SGNN_THREADS", "2")
    return dict(parallel_map(one, (0.1, 0.3, 0.5, 0.7)))


def test_criterion_10_lipschitz_grows_with_variance_budget(cv_sweep):
    cvs = sorted(cv_sweep)
    values = [cv_sweep[cv][0] for cv in cvs]
    inversions = sum(values[i + 1] < values[i] for i in range(len(values) - 1))
    detail = ", ".join(f"C_v={cv}: C_L={v:.3f}" for cv, v in zip(cvs, values))
    report(10, inversions <= 1,
           f"estimated C_L nondecreasing in C_v (<= 1 inversion, got {inversions}): {detail}")


# ---------------------------------------------------------------------------
# 11. Recommender pipeline
# ---------------------------------------------------------------------------


def test_criterion_11_recsys_pipeline(recsys_artifacts):
    path, ratings, trained = recsys_artifacts
    shape_ok = ratings.shape == (943, 1682) and np.count_nonzero(ratings) == 100000

    task, params, _ = trained[0.1]
    rmses, ads = X._evaluate_recsys(params, task, 20, R.derive(SEED, 22), "per_filter")
    ds = task.dataset
    baseline = float(np.sqrt(np.mean(
        [ds.labels[k, task.sample_items[k]] ** 2 for k in ds.splits["test"]])))
    rmse_ok = rmses.mean() <= baseline

    task0, params0_, _ = trained[0.0]
    _, ads0 = X._evaluate_recsys(params0_, task0, 1, R.derive(SEED, 23), "per_filter")
    ad_ok = ads.mean() >= ads0.mean()

    ok = shape_ok and rmse_ok and ad_ok
    report(11, ok,
           f"load 943x1682/100000={shape_ok}; SGNN RMSE {rmses.mean():.4f} <= "
           f"mean-predictor {baseline:.4f}={rmse_ok}; AD@10 p=0.1 {ads.mean():.1f} >= "
           f"p=0 {ads0.mean():.1f}={ad_ok}")


# ---------------------------------------------------------------------------
# 12. Command determinism
# ---------------------------------------------------------------------------


def test_criterion_12_command_determinism(tmp_path):
    cfg_doc = {
        "schema": 1,
        "task": "source_localization",
        "architecture": {"features": [1, 2, 1], "order": 2,
                         "activation": "leaky_relu", "readout": 5},
        "train": {"max_iters": 4, "n_realizations": 2, "batch_size": 8,
                  "loss": "cross_entropy", "grad_norm_tol": 0.0},
        "source": {"n": 20, "communities": 5, "split_sizes": [40, 8, 8],
                   "noise_std": 0.005, "standardize": True},
        "sweep": {"p_values": [0.1], "modes": ["unconstrained"], "graph_seeds": [0]},
        "eval_draws": 3,
        "cost_window": 2,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_doc))
    blobs = {}
    for run in ("a", "b"):
        t_out = tmp_path / f"train_{run}"
        v_out = tmp_path / f"verify_{run}"
        s_out = tmp_path / f"sweep_{run}"
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(t_out),
                         "--seed", "9"]) == cli.EXIT_OK
        assert cli.main(["verify", "--out", str(v_out), "--seed", "9"]) == cli.EXIT_OK
        assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(s_out),
                         "--seed", "9"]) == cli.EXIT_OK
        r_out = tmp_path / f"report_{run}"
        assert cli.main(["report", "--results", str(s_out / "results.csv"),
                         "--out", str(r_out)]) == cli.EXIT_OK
        blobs[run] = [
            (t_out / "trace.csv").read_bytes(),
            (v_out / "verify.csv").read_bytes(),
            (s_out / "results.csv").read_bytes(),
            (r_out / "fig1b.csv").read_bytes(),
        ]
    same = all(a == b for a, b in zip(blobs["a"], blobs["b"]))
    report(12, same,
           "train/verify/sweep/report outputs byte-identical across reruns "
           f"with equal config and seed: {same}")

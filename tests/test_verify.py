import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import small_gres
from sgnn import graphs as G
from sgnn import verify as V
from sgnn.errors import ConfigError
from sgnn.estimators import McConfig
from sgnn.model import (
    Architecture,
    SgnnParams,
    frequency_response,
    frequency_response_gradient,
    init_params,
    output_bound,
)
from sgnn.training import TrainConfig, TrainTrace


class TestEstimateLipschitz:
    def test_constant_filter_zero(self, rng):
        assert V.estimate_lipschitz(np.array([1.7]), 1.0, 200, rng) == 0.0

    def test_linear_response_unit_constant(self, rng):
        assert V.estimate_lipschitz(np.array([0.0, 1.0]), 1.0, 500, rng) == pytest.approx(1.0)

    def test_gradient_mc_close_to_grid_maximum(self, rng):
        coeffs = rng.normal(size=4)
        c_l = V.estimate_lipschitz(coeffs, 1.0, 20000, rng)
        axes = [np.linspace(-1.0, 1.0, 21)] * 3
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        grid_max = float(np.linalg.norm(frequency_response_gradient(coeffs, grid), axis=-1).max())
        assert c_l >= grid_max * 0.95
        assert c_l <= V.coefficient_majorant(coeffs, 1.0) + 1e-12

    def test_majorant_dominates_all_methods(self, rng):
        # the sampled gradient norm and secant slopes between sampled pairs
        for _ in range(20):
            coeffs = rng.normal(size=rng.integers(2, 6))
            k = coeffs.size - 1
            lam_max = float(rng.uniform(0.5, 1.5))
            grad = V.estimate_lipschitz(coeffs, lam_max, 300, rng)
            a, b = rng.uniform(-lam_max, lam_max, size=(2, 300, k))
            secant = np.abs(frequency_response(coeffs, a) - frequency_response(coeffs, b)) \
                / np.linalg.norm(a - b, axis=-1)
            major = V.coefficient_majorant(coeffs, lam_max)
            assert grad <= major + 1e-12
            assert secant.max() <= major * (1 + 1e-9)

    def test_sample_floor_enforced(self, rng):
        with pytest.raises(ConfigError):
            V.estimate_lipschitz(np.array([0.0, 1.0]), 1.0, 10, rng)


class TestVarianceBound:
    def test_zero_probability_zero_bound(self):
        assert V.variance_bound(1.0, 5, 3, 0.0, 0.0, 2, 2, 4, 1.0, 10, 1.0) == 0.0

    def test_flat_response_zero_bound(self):
        assert V.variance_bound(0.0, 5, 3, 0.3, 0.2, 2, 2, 4, 1.0, 10, 1.0) == 0.0

    def test_hand_evaluated_case(self):
        got = V.variance_bound(c_l=1.0, m_drop=1, m_add=0, p=0.5, q=0.0,
                               order=1, layers=1, width=1, c_sigma=1.0,
                               n=4, x_norm=1.0)
        assert got == pytest.approx(0.25)

    def test_check_degenerate_model(self, rng):
        gres = small_gres(p=0.0, q=0.0)
        params = init_params(Architecture((1, 2, 1), 2), rng)
        x = rng.normal(size=gres.n)
        rep = V.check_variance_bound(params, gres, x, McConfig(64, master_seed=0))
        assert rep.empirical == 0.0 and rep.bound == 0.0
        assert not rep.violated

    def test_linear_filter_exact_variance_below_bound(self):
        gres = small_gres(p=0.3, q=0.0, seed=2)
        arch = Architecture((1, 1), 1, activation="identity")
        params = SgnnParams(arch, [np.array([[[0.0, 0.9]]])])
        x = np.random.default_rng(3).normal(size=gres.n)
        rep = V.check_variance_bound(params, gres, x, McConfig(500, master_seed=1))
        s_bar = G.expected_shift(gres).entries
        # the taps get rescaled inside the check; exact variance scales as h1^2
        assert rep.empirical <= rep.bound
        assert not rep.violated

    def test_small_grid_no_violations(self, rng):
        arch = Architecture((1, 2, 1), 2, activation="relu")
        params = init_params(arch, rng)
        for p in (0.1, 0.3):
            for q in (0.0, 0.3):
                gres = small_gres(p=p, q=q, seed=5)
                x = rng.normal(size=gres.n)
                rep = V.check_variance_bound(params, gres, x, McConfig(300, master_seed=4))
                assert not rep.violated


class TestChebyshev:
    def test_degenerate_probability_one(self, rng):
        gres = small_gres(p=0.0, q=0.0)
        params = init_params(Architecture((1, 2, 1), 2), rng)
        x = rng.normal(size=gres.n)
        # a zero variance puts eps at 1e-6 times each scale
        reports = V.check_chebyshev(params, gres, x, [1, 1e6], McConfig(200, master_seed=0))
        for rep in reports:
            assert rep.empirical == 0.0  # tail mass
            assert not rep.violated

    def test_vacuous_epsilon_still_reported(self, rng):
        gres = small_gres(p=0.4, q=0.2)
        params = init_params(Architecture((1, 2, 1), 2), rng)
        x = rng.normal(size=gres.n)
        reports = V.check_chebyshev(params, gres, x, [0.1], McConfig(300, master_seed=1))
        assert reports[0].bound >= 1.0  # vacuous upper bound on a probability
        assert not reports[0].violated

    def test_grid_holds_for_random_model(self, rng):
        gres = small_gres(p=0.3, q=0.2, seed=6)
        params = init_params(Architecture((1, 2, 1), 2, activation="abs"), rng)
        x = rng.normal(size=gres.n)
        scales = (0.5, 1, 2, 5, 10, 30, 100, 300)
        for rep in V.check_chebyshev(params, gres, x, scales, McConfig(400, master_seed=2)):
            assert not rep.violated


class TestMomentFormulaCheck:
    def test_no_random_edges_exact(self):
        gres = small_gres(p=0.0, q=0.0)
        gres = G.GresModel(gres.nominal, p=0.0, q=0.0)
        rep = V.check_moment_formula(gres)
        assert rep.empirical == 0.0

    def test_enumeration_cases(self):
        gres = small_gres(p=0.5, q=0.3, seed=7)
        rep = V.check_moment_formula(gres)
        assert rep.empirical <= 1e-12
        assert rep.inputs["method"] == "enumeration"
        assert rep.inputs["kind"] == "adjacency"
        assert not rep.violated


class TestStability:
    def test_linear_filter_slope_below_bound(self, rng):
        gres = small_gres(p=0.0, q=0.0, seed=9)
        arch = Architecture((1, 1), 1, activation="identity")
        params = SgnnParams(arch, [np.array([[[0.0, 1.0]]])])
        rep = V.check_stability(params, gres.nominal, [1e-3, 3e-3, 1e-2], 20, rng)
        assert rep.empirical <= rep.bound
        assert rep.inputs["ratio"] <= 1.0

    def test_deviation_monotone_in_eps(self, rng):
        gres = small_gres(seed=10)
        params = init_params(Architecture((1, 2, 1), 2, activation="relu"), rng)
        rep = V.check_stability(params, gres.nominal, [1e-3, 3e-3, 1e-2], 40, rng)
        devs = rep.inputs["mean_dev"]
        assert devs[0] <= devs[1] <= devs[2]
        assert not rep.violated


class TestOutputBoundCheck:
    def test_never_exceeds_after_rescaling(self, rng):
        gres = small_gres(p=0.3, q=0.2, seed=11)
        params = init_params(Architecture((1, 3, 1), 2, activation="relu"), rng)
        rep = V.check_output_bound(params, gres, 100, rng)
        assert rep.empirical <= 1.0
        assert not rep.violated

    def test_closed_form_values(self):
        arch = Architecture((1, 1), 2, activation="relu")
        assert output_bound(arch, 5.0) == pytest.approx(5.0)
        arch2 = Architecture((1, 32, 1), 8, activation="relu")
        assert output_bound(arch2, 1.0) == pytest.approx(32.0)


class TestConvergenceDiagnostics:
    def make_trace(self, gamma1=0.1, gamma2=0.2):
        trace = TrainTrace()
        trace.append(iter=0, mean_cost=1.0, first_moment=0.0, second_moment=0.3,
                     variance=0.2, gamma1=gamma1, gamma2=gamma2, lagrangian=1.0,
                     grad_norm=0.5, slack1=0.0, slack2=0.2)
        return trace

    def test_radius_limit_small_dual_step(self):
        trace = self.make_trace()
        tiny = V.convergence_diagnostics(trace, TrainConfig(eta_dual=1e-12),
                                         c_y=2.0, n=10, xi_estimate=0.03, delta=0.01)
        assert tiny.error_radius == pytest.approx(2 * 0.03 + 0.01, rel=1e-6)

    def test_radius_monotone_in_dual_step(self):
        trace = self.make_trace()
        radii = [V.convergence_diagnostics(trace, TrainConfig(eta_dual=e), c_y=2.0,
                                           n=10, xi_estimate=0.0).error_radius
                 for e in (0.01, 0.1, 1.0)]
        assert radii[0] < radii[1] < radii[2]

    def test_iteration_bound_formula(self):
        trace = self.make_trace(gamma1=0.3, gamma2=0.4)
        cfg = TrainConfig(eta_dual=0.05)
        diag = V.convergence_diagnostics(trace, cfg, c_y=1.0, n=5, delta=0.01)
        dist_sq = 0.3 ** 2 + 0.4 ** 2
        assert diag.t_bound == math.ceil(dist_sq / (2 * 0.05 * 0.01))

    def test_all_fields_nonnegative(self):
        diag = V.convergence_diagnostics(self.make_trace(), TrainConfig(),
                                         c_y=3.0, n=20, xi_estimate=0.5)
        assert diag.xi_estimate >= 0 and diag.t_bound >= 0 and diag.error_radius >= 0

    def test_probe_on_converged_toy(self):
        # a fully converged deterministic toy: extra steps cannot improve
        from conftest import small_gres as mk
        from sgnn import training as T

        gres = mk(p=0.0, q=0.0)
        n = gres.n
        rngl = np.random.default_rng(0)
        x = rngl.normal(size=(1, n, 8))
        t = 0.5 * x[0]

        class DS:
            def sample_batch(self, rng, size, split="train"):
                return T.Batch(x, t, np.ones((n, 8)))

        cfg = T.TrainConfig(eta_primal=0.3, optimizer="sgd", gamma_steps=200,
                            n_realizations=1, loss="masked_mse", batch_size=8)
        params = SgnnParams(Architecture((1, 1), 0, activation="identity"),
                            [np.array([[[0.0]]])])
        trained, _, _ = T.train(params, gres, DS(), replace(cfg, max_iters=1, eta_dual=0.0),
                                np.random.default_rng(1), init_gamma=T.DualVars())
        xi = V.primal_suboptimality_probe(trained, T.DualVars(), gres, DS(), cfg,
                                          np.random.default_rng(2), steps=10)
        assert xi <= 1e-4


class TestRescaleToUnitResponse:
    def test_sampled_response_within_one(self, rng):
        arch = Architecture((1, 3, 1), 3)
        params = init_params(arch, rng)
        for t in params.taps:
            t *= 10.0
        scaled = V.rescale_to_unit_response(params, 1.0, rng)
        pts = rng.uniform(-1, 1, size=(4000, 3))
        for taps in scaled.taps:
            for f in range(taps.shape[0]):
                for g in range(taps.shape[1]):
                    vals = frequency_response(taps[f, g], pts)
                    assert np.max(np.abs(vals)) <= 1.0 + 1e-9

    def test_already_small_untouched(self, rng):
        arch = Architecture((1, 2, 1), 2)
        params = init_params(arch, rng)
        for t in params.taps:
            t *= 1e-3
        scaled = V.rescale_to_unit_response(params, 1.0, rng)
        for a, b in zip(params.taps, scaled.taps):
            np.testing.assert_array_equal(a, b)


class TestReportPlumbing:
    def test_violated_threshold_rule(self):
        ok = V.BoundReport("x", empirical=1.0, bound=0.9, stderr=0.05)
        assert not ok.violated  # inside 3 sigma
        bad = V.BoundReport("x", empirical=1.0, bound=0.9, stderr=0.01)
        assert bad.violated
        assert bad.slack == pytest.approx(-0.1)

    def test_write_reports_csv_and_json(self, tmp_path):
        reports = [V.BoundReport("alpha", 0.5, 1.0, 0.0, {"p": 0.1}),
                   V.BoundReport("alpha", 0.6, 1.0, 0.0),
                   V.BoundReport("beta", 2.0, 1.0, 0.0)]
        csv_path = tmp_path / "verify.csv"
        V.write_reports(reports, csv_path, tmp_path / "reports")
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == ",".join(V.VERIFY_COLUMNS)
        assert len(lines) == 4
        assert (tmp_path / "reports" / "alpha.json").exists()
        assert (tmp_path / "reports" / "alpha-2.json").exists()
        import json
        doc = json.loads((tmp_path / "reports" / "beta.json").read_text())
        assert doc["violated"] is True

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import mc_cost, small_gres
from sgnn import rng as R
from sgnn import training as T
from sgnn.errors import ConfigError, NumericalError, TrainingDiverged
from sgnn.estimators import McConfig
from sgnn.model import Architecture, SgnnParams, init_params


class FixedDataset:
    """Always serves the same full batch; deterministic toy for closed forms."""

    def __init__(self, x, y, mask=None):
        self.batch = T.Batch(x, y, mask)

    def sample_batch(self, rng, size, split="train"):
        return self.batch


def toy_regression(n=6, b=8, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(1, n, b))
    t = rng.normal(size=(n, b))
    return FixedDataset(x, t, np.ones((n, b)))


def scalar_params(h0, arch=None):
    arch = arch or Architecture((1, 1), 0, activation="identity")
    return SgnnParams(arch, [np.array([[[float(h0)]]])])


class TestLosses:
    def test_uniform_logits_cross_entropy(self):
        logits = np.zeros((7, 10))
        labels = np.arange(10) % 7
        assert T.cross_entropy(logits, labels) == pytest.approx(math.log(7))

    def test_cross_entropy_matches_direct_formula(self, rng):
        logits = rng.normal(size=(4, 6))
        labels = rng.integers(0, 4, size=6)
        direct = 0.0
        for b in range(6):
            z = logits[:, b]
            direct += -z[labels[b]] + math.log(np.exp(z).sum())
        assert T.cross_entropy(logits, labels) == pytest.approx(direct / 6, abs=1e-12)

    def test_cross_entropy_grad_matches_fd(self, rng):
        logits = rng.normal(size=(3, 5))
        labels = rng.integers(0, 3, size=5)
        grad = T.cross_entropy_grad(logits, labels)
        num = np.zeros_like(logits)
        for i in range(3):
            for b in range(5):
                e = np.zeros_like(logits)
                e[i, b] = 1e-6
                num[i, b] = (T.cross_entropy(logits + e, labels)
                             - T.cross_entropy(logits - e, labels)) / 2e-6
        np.testing.assert_allclose(grad, num, atol=1e-9)

    def test_stabilized_for_huge_logits(self):
        logits = np.array([[1e4], [0.0]])
        val = T.cross_entropy(logits, np.array([0]))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_masked_mse_zero_on_match(self, rng):
        t = rng.normal(size=(4, 3))
        mask = (rng.random((4, 3)) < 0.5).astype(float)
        assert T.masked_mse(t.copy(), t, mask) == 0.0

    def test_masked_mse_matches_direct(self, rng):
        pred = rng.normal(size=(4, 3))
        t = rng.normal(size=(4, 3))
        mask = np.zeros((4, 3))
        mask[0, 0] = mask[2, 1] = 1.0
        direct = ((pred[0, 0] - t[0, 0]) ** 2 + (pred[2, 1] - t[2, 1]) ** 2) / 2
        assert T.masked_mse(pred, t, mask) == pytest.approx(direct, abs=1e-12)

    def test_masked_mse_grad_matches_fd(self, rng):
        pred = rng.normal(size=(2, 4, 3))   # leading realization axis
        t = rng.normal(size=(4, 3))
        mask = (rng.random((4, 3)) < 0.7).astype(float)
        grad = T.masked_mse_grad(pred, t, mask)
        k = (1, 2, 1)
        e = np.zeros_like(pred)
        e[k] = 1e-6
        num = (T.masked_mse(pred + e, t, mask) - T.masked_mse(pred - e, t, mask)) / 2e-6
        assert grad[k] == pytest.approx(num, abs=1e-9)


class TestDualStep:
    def cfg(self, **kw):
        base = dict(c_f=0.0, c_s=0.5, eta_dual=0.5)
        base.update(kw)
        return T.TrainConfig(**base)

    def test_zero_slack_fixed_point(self):
        g = T.dual_step(T.DualVars(0.3, 0.7), (0.0, 0.5), self.cfg())
        assert (g.gamma1, g.gamma2) == (0.3, 0.7)

    def test_projection_keeps_zero(self):
        g = T.dual_step(T.DualVars(0.0, 0.0), (1.0, 0.1), self.cfg())
        assert (g.gamma1, g.gamma2) == (0.0, 0.0)

    def test_hand_evaluated_update(self):
        g = T.dual_step(T.DualVars(0.2, 0.1), (-0.4, 0.9), self.cfg())
        assert g.gamma1 == pytest.approx(0.4)
        assert g.gamma2 == pytest.approx(0.3)

    def test_ascent_direction_sign(self):
        cfg = self.cfg(eta_dual=0.1)
        up = T.dual_step(T.DualVars(1.0, 1.0), (-0.5, 1.0), cfg)
        assert up.gamma1 > 1.0 and up.gamma2 > 1.0
        down = T.dual_step(T.DualVars(1.0, 1.0), (0.5, 0.1), cfg)
        assert down.gamma1 < 1.0 and down.gamma2 < 1.0

    def test_negative_duals_rejected(self):
        with pytest.raises(ConfigError):
            T.DualVars(-0.1, 0.0)


class TestLagrangian:
    def test_zero_duals_equal_estimated_cost(self, rng):
        gres = small_gres(p=0.3, q=0.2)
        params = init_params(Architecture((1, 2, 1), 2), rng)
        x = rng.normal(size=(1, gres.n, 5))
        t = rng.normal(size=(gres.n, 5))
        batch = T.Batch(x, t, np.ones((gres.n, 5)))
        cfg = T.TrainConfig(n_realizations=4, loss="masked_mse")
        value, _ = T.lagrangian(params, T.DualVars(0.0, 0.0), gres, batch, cfg,
                                R.root_rng(17))
        cost = mc_cost(params, gres, batch, McConfig(4, master_seed=17), T.Loss("masked_mse"))
        assert value == cost

    def test_zero_cost_reduces_to_slack_term(self, rng):
        gres = small_gres(p=0.2, q=0.0)
        params = init_params(Architecture((1, 2, 1), 1), rng)
        x = rng.normal(size=(1, gres.n, 3))
        batch = T.Batch(x, np.zeros((gres.n, 3)), np.zeros((gres.n, 3)))  # empty mask
        cfg = T.TrainConfig(n_realizations=3, loss="masked_mse", c_f=0.8, c_s=10.0)
        rng_l = R.root_rng(23)
        value, _ = T.lagrangian(params, T.DualVars(1.0, 0.0), gres, batch, cfg, rng_l)
        # recompute the first moment with the same stream to check the identity
        from sgnn.estimators import sample_stack
        from sgnn.model import forward_stack
        stack = sample_stack(gres, params.arch, 3, R.root_rng(23), cfg.realization_mode)
        phi = forward_stack(params, stack, x).output[:, 0]
        assert value == pytest.approx(0.8 - float(np.mean(phi)), abs=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        gres = small_gres(p=0.3, q=0.2)
        arch = Architecture((1, 3, 1), 2, activation="leaky_relu", readout=2)
        params = init_params(arch, rng, n=gres.n)
        x = rng.normal(size=(1, gres.n, 4))
        labels = rng.integers(0, 2, size=4)
        batch = T.Batch(x, labels)
        cfg = T.TrainConfig(n_realizations=3, loss="cross_entropy", c_f=0.1, c_s=0.3)
        gamma = T.DualVars(0.6, 0.3)

        def value_of(p):
            return T.lagrangian(p, gamma, gres, batch, cfg, R.root_rng(5))[0]

        _, grads = T.lagrangian(params, gamma, gres, batch, cfg, R.root_rng(5))
        flat, gflat = params.flatten(), grads.flatten()
        num = np.zeros_like(flat)
        for i in range(flat.size):
            e = np.zeros_like(flat)
            e[i] = 1e-5
            num[i] = (value_of(params.unflatten(flat + e))
                      - value_of(params.unflatten(flat - e))) / 2e-5
        denom = np.maximum(np.abs(num) + np.abs(gflat), 1e-6)
        assert np.max(np.abs(num - gflat) / denom) < 1e-5

    def test_regularized_gradient_matches_fd(self, rng):
        gres = small_gres(p=0.4, q=0.0)
        arch = Architecture((1, 2, 1), 2, activation="abs")
        params = init_params(arch, rng)
        x = rng.normal(size=(1, gres.n, 3))
        t = rng.normal(size=(gres.n, 3))
        batch = T.Batch(x, t, np.ones((gres.n, 3)))
        cfg = T.TrainConfig(n_realizations=4, loss="masked_mse", mode=T.REGULARIZED,
                            reg_beta=0.7)

        def value_of(p):
            return T.lagrangian(p, T.DualVars(), gres, batch, cfg, R.root_rng(9))[0]

        _, grads = T.lagrangian(params, T.DualVars(), gres, batch, cfg, R.root_rng(9))
        flat, gflat = params.flatten(), grads.flatten()
        num = np.zeros_like(flat)
        for i in range(flat.size):
            e = np.zeros_like(flat)
            e[i] = 1e-5
            num[i] = (value_of(params.unflatten(flat + e))
                      - value_of(params.unflatten(flat - e))) / 2e-5
        denom = np.maximum(np.abs(num) + np.abs(gflat), 1e-6)
        assert np.max(np.abs(num - gflat) / denom) < 1e-5


def primal_steps(params, gamma, gres, ds, cfg, seed):
    """The ``gamma_steps`` primal updates of one training iteration at duals ``gamma``."""
    out, _, _ = T.train(params, gres, ds, replace(cfg, max_iters=1, eta_dual=0.0),
                        R.root_rng(seed), init_gamma=gamma)
    return out


class TestPrimalStep:
    def test_zero_learning_rate_keeps_params(self, rng):
        gres = small_gres(p=0.2)
        params = init_params(Architecture((1, 2, 1), 1), rng)
        ds = toy_regression(gres.n)
        cfg = T.TrainConfig(eta_primal=0.0, optimizer=T.SGD, gamma_steps=3,
                            n_realizations=2, loss="masked_mse", batch_size=8)
        out = primal_steps(params, T.DualVars(), gres, ds, cfg, 0)
        for a, b in zip(params.arrays(), out.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_single_sgd_step_matches_manual(self, rng):
        gres = small_gres(p=0.3)
        params = init_params(Architecture((1, 2, 1), 1), rng)
        ds = toy_regression(gres.n)
        cfg = T.TrainConfig(eta_primal=0.05, optimizer=T.SGD, gamma_steps=1,
                            n_realizations=2, loss="masked_mse", batch_size=8)
        _, grads = T.lagrangian(params, T.DualVars(), gres, ds.batch, cfg, R.root_rng(4))
        manual = [p - 0.05 * g for p, g in zip(params.arrays(), grads.arrays())]
        out = primal_steps(params, T.DualVars(), gres, ds, cfg, 4)
        for a, b in zip(manual, out.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_quadratic_toy_reaches_closed_form(self):
        # identity network y = h0 x on a deterministic graph: the Lagrangian
        # is a quadratic in h0 with an explicit minimizer
        gres = small_gres(p=0.0, q=0.0)
        n = gres.n
        ds = toy_regression(n, b=8, seed=3)
        x, t = ds.batch.x[0], ds.batch.y
        gamma = T.DualVars(0.4, 0.2)
        cfg = T.TrainConfig(eta_primal=0.3, optimizer=T.SGD, gamma_steps=80,
                            n_realizations=1, loss="masked_mse", batch_size=8,
                            c_f=0.0, c_s=0.5)
        a = float(np.mean(x * x))
        b_ = float(np.mean(x * t))
        c = float(np.mean(x))
        best = (2 * b_ + gamma.gamma1 * c) / (2 * a * (1 + gamma.gamma2))
        params = scalar_params(0.0)
        out = primal_steps(params, gamma, gres, ds, cfg, 0)
        assert out.taps[0][0, 0, 0] == pytest.approx(best, abs=1e-6)

    def test_descends_lagrangian_on_convex_toy(self):
        gres = small_gres(p=0.0, q=0.0)
        ds = toy_regression(gres.n, seed=8)
        cfg = T.TrainConfig(eta_primal=0.1, optimizer=T.SGD, gamma_steps=1,
                            n_realizations=1, loss="masked_mse", batch_size=8)
        params = scalar_params(2.0)
        gamma = T.DualVars(0.1, 0.1)
        last = np.inf
        for step in range(5):
            value, _ = T.lagrangian(params, gamma, gres, ds.batch, cfg, R.root_rng(step))
            assert value < last
            last = value
            params = primal_steps(params, gamma, gres, ds, cfg, step)


class TestTrainingLoops:
    def make_setup(self, seed=0, readout=True):
        gres = small_gres(p=0.3, q=0.2, seed=seed)
        arch = Architecture((1, 2, 1), 2, activation="leaky_relu",
                            readout=3 if readout else None)
        params = init_params(arch, np.random.default_rng(seed), n=gres.n)
        rng = np.random.default_rng(seed + 1)
        x = rng.normal(size=(40, 1, gres.n))
        if readout:
            labels = rng.integers(0, 3, size=40)
            masks = None
        else:
            labels = rng.normal(size=(40, gres.n))
            masks = np.ones((40, gres.n))
        from sgnn.experiments import LabeledDataset
        splits = {"train": np.arange(30), "val": np.arange(30, 35), "test": np.arange(35, 40)}
        ds = LabeledDataset(x, labels, masks, splits)
        return gres, params, ds

    def cfg(self, **kw):
        base = dict(max_iters=6, n_realizations=3, batch_size=8,
                    eta_primal=1e-2, eta_dual=0.1, loss="cross_entropy",
                    grad_norm_tol=0.0)
        base.update(kw)
        return T.TrainConfig(**base)

    def test_zero_iterations_identity(self):
        gres, params, ds = self.make_setup()
        out, gamma, trace = T.train(params, gres, ds, self.cfg(max_iters=0), 5,
                                    init_gamma=T.DualVars(0.2, 0.3))
        assert out is params
        assert (gamma.gamma1, gamma.gamma2) == (0.2, 0.3)
        assert len(trace) == 0

    def test_gammas_nonnegative_throughout(self):
        gres, params, ds = self.make_setup()
        _, _, trace = T.train(params, gres, ds, self.cfg(max_iters=10), 7)
        assert np.all(trace.column("gamma1") >= 0)
        assert np.all(trace.column("gamma2") >= 0)

    def test_slack_constraints_keep_duals_zero(self):
        gres, params, ds = self.make_setup()
        cfg = self.cfg(c_f=-1e6, c_s=1e6)
        _, gamma, trace = T.train(params, gres, ds, cfg, 9)
        assert gamma.gamma1 == 0.0 and gamma.gamma2 == 0.0
        assert np.all(trace.column("gamma1") == 0.0)

    def test_frozen_duals_reproduce_unconstrained_bitwise(self):
        gres, params, ds = self.make_setup()
        cfg = self.cfg(c_f=-1e6, c_s=1e6, max_iters=8)
        p_pd, _, tr_pd = T.train(params, gres, ds, cfg, 11)
        p_un, _, tr_un = T.train(params, gres, ds, replace(cfg, mode=T.UNCONSTRAINED), 11)
        for a, b in zip(p_pd.arrays(), p_un.arrays()):
            np.testing.assert_array_equal(a, b)
        for col in T.TRACE_COLUMNS:
            if col in ("gamma1", "gamma2"):
                continue
            np.testing.assert_array_equal(tr_pd.column(col), tr_un.column(col))

    def test_regularized_beta_zero_matches_unconstrained(self):
        gres, params, ds = self.make_setup()
        cfg = self.cfg(mode=T.REGULARIZED, reg_beta=0.0, max_iters=8)
        p_reg, _, tr_reg = T.train(params, gres, ds, cfg, 13)
        cfg_u = self.cfg(mode=T.UNCONSTRAINED, max_iters=8)
        p_un, _, tr_un = T.train(params, gres, ds, cfg_u, 13)
        for a, b in zip(p_reg.arrays(), p_un.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_regularized_no_randomness_matches_unconstrained(self):
        gres, params, ds = self.make_setup()
        quiet = small_gres(p=0.0, q=0.0)
        cfg = self.cfg(mode=T.REGULARIZED, reg_beta=2.0, max_iters=5)
        p_reg, _, _ = T.train(params, quiet, ds, cfg, 15)
        p_un, _, _ = T.train(params, quiet, ds, self.cfg(mode=T.UNCONSTRAINED, max_iters=5), 15)
        for a, b in zip(p_reg.arrays(), p_un.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_seed_determinism_trace_bytes(self, tmp_path):
        gres, params, ds = self.make_setup()
        cfg = self.cfg(max_iters=6)
        paths = []
        for run in range(2):
            _, _, trace = T.train(params, gres, ds, cfg, 21)
            path = tmp_path / f"trace{run}.csv"
            trace.to_csv(path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_divergence_aborts_with_trace(self):
        gres, params, ds = self.make_setup(readout=False)
        cfg = self.cfg(loss="masked_mse", eta_primal=1e6, optimizer=T.SGD,
                       max_iters=30, divergence_limit=1e4, mode=T.UNCONSTRAINED)
        with pytest.raises(TrainingDiverged) as err:
            T.train(params, gres, ds, cfg, 25)
        assert err.value.trace is not None and len(err.value.trace) >= 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_forward_pass_aborts_with_trace(self):
        gres, params, ds = self.make_setup(readout=False)
        # the first step leaves finite taps; the second iteration's forward overflows
        cfg = self.cfg(loss="masked_mse", eta_primal=1e60, optimizer=T.SGD,
                       max_iters=30, divergence_limit=math.inf, mode=T.UNCONSTRAINED)
        with pytest.raises(TrainingDiverged) as err:
            T.train(params, gres, ds, cfg, 25)
        assert isinstance(err.value.__cause__, NumericalError)
        assert "non-finite pre-activation" in str(err.value.__cause__)
        assert [r["iter"] for r in err.value.trace.rows] == [0]

    def test_grad_norm_stopping(self):
        gres, params, ds = self.make_setup(readout=False)
        cfg = self.cfg(loss="masked_mse", eta_primal=0.0, optimizer=T.SGD,
                       grad_norm_tol=1e9, max_iters=50, mode=T.UNCONSTRAINED)
        _, _, trace = T.train(params, gres, ds, cfg, 27)
        assert len(trace) == 1

    def test_adam_state_carries_across_iterations(self):
        # with adam, two iterations of one step differ from one iteration of
        # two steps only through batch draws; reusing the optimizer state is
        # what makes the comparison here deterministic and reproducible
        gres, params, ds = self.make_setup()
        cfg = self.cfg(max_iters=4, gamma_steps=2)
        out1, _, _ = T.train(params, gres, ds, cfg, 31)
        out2, _, _ = T.train(params, gres, ds, cfg, 31)
        for a, b in zip(out1.arrays(), out2.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_trace_csv_round_trip(self, tmp_path):
        gres, params, ds = self.make_setup()
        _, _, trace = T.train(params, gres, ds, self.cfg(max_iters=3), 33)
        path = tmp_path / "t.csv"
        trace.to_csv(path)
        back = T.TrainTrace.from_csv(path)
        for col in T.TRACE_COLUMNS:
            np.testing.assert_array_equal(trace.column(col), back.column(col))


class TestConfigValidation:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            T.TrainConfig(c_s=-0.1)
        with pytest.raises(ConfigError):
            T.TrainConfig(gamma_steps=0)
        with pytest.raises(ConfigError):
            T.TrainConfig(mode="bogus")
        with pytest.raises(ConfigError):
            T.TrainConfig(optimizer="lbfgs")

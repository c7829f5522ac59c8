"""Executable checks of the closed-form theory.

Each check compares a Monte-Carlo (or enumerated) quantity against the
matching closed-form bound and emits a BoundReport; a report is flagged
violated only when the empirical value beats the bound by more than three
standard errors, so sampling noise cannot trip a structurally sound bound.
The variance bound is implemented at leading order exactly as stated; the
dropped O(p^2 (1-p)^2) remainder is a documented caveat, never added back.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .estimators import (
    McConfig,
    MomentReport,
    deviation_probability,
    estimate_moments,
    sample_stack,
)
from .graphs import ADJACENCY, GresModel, ShiftOperator, enumerate_gres, expected_square
from .model import (
    Realizations,
    SgnnParams,
    forward_stack,
    frequency_response,
    frequency_response_gradient,
    output_bound,
)
from .util import write_csv, write_json


@dataclass
class BoundReport:
    """Empirical value vs. theoretical bound for one check."""

    check_name: str
    empirical: float
    bound: float
    stderr: float = 0.0
    inputs: dict = field(default_factory=dict)
    moments: MomentReport | None = None     # the estimate behind ``empirical``, if any

    @property
    def slack(self) -> float:
        return self.bound - self.empirical

    @property
    def violated(self) -> bool:
        return self.empirical > self.bound + 3.0 * self.stderr

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "inputs": self.inputs,
            "empirical": self.empirical,
            "bound": self.bound,
            "slack": self.slack,
            "violated": self.violated,
            "stderr": self.stderr,
        }


@dataclass
class ConvergenceDiag:
    """Computable pieces of the dual-convergence statement."""

    xi_estimate: float
    t_bound: int
    error_radius: float


# ---------------------------------------------------------------------------
# Lipschitz estimation
# ---------------------------------------------------------------------------


def _domain_samples(k: int, lambda_max: float, n_samples: int, rng) -> np.ndarray:
    pts = rng.uniform(-lambda_max, lambda_max, size=(n_samples, k))
    if k <= 12:
        # corners of the box often attain the maximum of a polynomial
        corners = lambda_max * (
            ((np.arange(2 ** k)[:, None] >> np.arange(k)) & 1) * 2.0 - 1.0
        )
        pts = np.concatenate([pts, corners], axis=0)
    return pts


def coefficient_majorant(coeffs, lambda_max: float) -> float:
    """Analytic overestimate of sup ||grad h||: sum_k |h_k| sqrt(k) r^(k-1)."""
    coeffs = np.asarray(coeffs, dtype=float)
    k = coeffs.shape[0] - 1
    return float(sum(abs(coeffs[j]) * math.sqrt(j) * lambda_max ** (j - 1)
                     for j in range(1, k + 1)))


def estimate_lipschitz(coeffs, lambda_max: float, n_samples: int,
                       rng: np.random.Generator) -> float:
    """Lipschitz constant C_L of h over the box [-lambda_max, lambda_max]^K.

    The maximum of the analytic gradient norm over sampled points plus the
    box corners; ``coefficient_majorant`` dominates it on the same domain.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    k = coeffs.shape[0] - 1
    if k == 0:
        return 0.0
    if n_samples < 100:
        raise ConfigError("need at least 100 samples for a Lipschitz estimate")
    pts = _domain_samples(k, lambda_max, n_samples, rng)
    grads = frequency_response_gradient(coeffs, pts)
    return float(np.max(np.linalg.norm(grads, axis=-1)))


def model_lipschitz(params: SgnnParams, lambda_max: float, n_samples: int,
                    rng: np.random.Generator, reduce: str = "max") -> float:
    """Aggregate Lipschitz estimate over every filter in the net."""
    values = []
    for taps in params.taps:
        f_out, f_in, _ = taps.shape
        for f in range(f_out):
            for g in range(f_in):
                values.append(estimate_lipschitz(taps[f, g], lambda_max, n_samples, rng))
    return float(np.max(values) if reduce == "max" else np.mean(values))


def rescale_to_unit_response(params: SgnnParams, lambda_max: float,
                             rng: np.random.Generator) -> SgnnParams:
    """Shrink each filter so its sampled |h(lambda)| stays within 1.

    Filters already inside the unit response are left untouched; the 5 %
    margin guards against the sampled maximum undershooting the true one.
    """
    new_taps = []
    for taps in params.taps:
        t = taps.copy()
        f_out, f_in, k1 = t.shape
        pts = _domain_samples(k1 - 1, lambda_max, 2048, rng) if k1 > 1 else None
        for f in range(f_out):
            for g in range(f_in):
                if pts is None:
                    peak = abs(t[f, g, 0])
                else:
                    peak = float(np.max(np.abs(frequency_response(t[f, g], pts))))
                scale = max(1.0, 1.05 * peak)
                t[f, g] = t[f, g] / scale
        new_taps.append(t)
    return params.replace_arrays(new_taps + params.arrays()[len(new_taps):])


# ---------------------------------------------------------------------------
# Theorem-level checks
# ---------------------------------------------------------------------------


def variance_bound(c_l: float, m_drop: int, m_add: int, p: float, q: float,
                   order: int, layers: int, width: int, c_sigma: float,
                   n: int, x_norm: float) -> float:
    """Leading-order closed-form variance cap.

    bound = C_L^2 (M_d p(1-p) + M_a q(1-q)) * C * ||x||^2 with
    C = 4 K sum_{l=1..L} F^(2L-3) C_sigma^(2l-2) / n.
    """
    c = 4.0 * order * sum(
        width ** (2 * layers - 3) * c_sigma ** (2 * l - 2) for l in range(1, layers + 1)
    ) / n
    stochastic = m_drop * p * (1.0 - p) + m_add * q * (1.0 - q)
    return float(c_l ** 2 * stochastic * c * x_norm ** 2)


def check_variance_bound(params: SgnnParams, gres: GresModel, x: np.ndarray,
                         cfg: McConfig) -> BoundReport:
    """Empirical plug-in variance vs. the closed-form cap.

    Assumes the unit-response regime: taps are rescaled internally and the
    Lipschitz constant is the sampled maximum over all filters on the
    matching domain.  The standard error comes from ten batch means.
    """
    arch = params.arch
    if arch.lipschitz_sigma() != 1.0:
        raise ConfigError("the variance bound check needs a 1-Lipschitz nonlinearity")
    rng = np.random.default_rng(cfg.master_seed + 7)
    lambda_max = gres.nominal.spectral_radius()
    params = rescale_to_unit_response(params, lambda_max, rng)
    c_l = model_lipschitz(params, lambda_max, 4096, rng)
    moments = estimate_moments(params, gres, x, cfg)
    group_size = max(2, cfg.n_realizations // 10)
    seeds = [cfg.master_seed * 1000003 + 17 + g for g in range(10)]
    vals = [estimate_moments(params, gres, x, McConfig(group_size, master_seed=s)).variance
            for s in seeds]
    stderr = float(np.std(vals, ddof=1) / math.sqrt(10))
    width = max(arch.features[1:-1] or arch.features[-1:])
    bound = variance_bound(
        c_l, gres.m_drop, gres.m_add, gres.p, gres.q, arch.order, arch.layers,
        width, 1.0, gres.n, float(np.linalg.norm(x)))
    return BoundReport(
        "variance-bound", moments.variance, bound, stderr,
        inputs={"p": gres.p, "q": gres.q, "m_drop": gres.m_drop, "m_add": gres.m_add,
                "c_l": c_l, "n_realizations": cfg.n_realizations},
        moments=moments,
    )


def check_chebyshev(params: SgnnParams, gres: GresModel, x: np.ndarray,
                    scales, cfg: McConfig) -> list:
    """Deviation-probability lower bound at each epsilon.

    Each epsilon is the estimated variance (1e-6 when it is zero) times one
    of ``scales``.  Reported with tail-probability orientation: empirical
    Pr[dev > eps] must not exceed Var/eps (plus binomial noise).
    """
    var = estimate_moments(params, gres, x, cfg).variance
    base = var if var > 0 else 1e-6
    m = max(100, cfg.n_realizations)
    reports = []
    for i, scale in enumerate(scales):
        if scale <= 0:
            raise ConfigError("epsilon scales must be positive")
        eps = base * scale
        rng = np.random.default_rng(cfg.master_seed * 65537 + 101 + i)
        prob = deviation_probability(params, gres, x, eps, m, rng)
        tail = 1.0 - prob
        se = math.sqrt(max(prob * (1.0 - prob), 1.0 / m) / m)
        reports.append(BoundReport(
            "chebyshev", tail, var / eps, se,
            inputs={"eps": eps, "variance": var, "m": m},
        ))
    return reports


def check_moment_formula(model: GresModel) -> BoundReport:
    """Exhaustively enumerated second moment vs. the closed form."""
    formula = expected_square(model)
    acc = np.zeros_like(formula)
    for prob, mat in enumerate_gres(model):
        acc += prob * (mat @ mat)
    err = float(np.max(np.abs(acc - formula)))
    return BoundReport(
        "moment-formula", err, 1e-12, 0.0,
        inputs={"kind": ADJACENCY, "m_drop": model.m_drop,
                "m_add": model.m_add, "p": model.p, "q": model.q,
                "method": "enumeration"},
    )


def _random_direction(n: int, eps: float, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(n, n))
    e = (a + a.T) / 2.0
    return e * (eps / np.abs(np.linalg.eigvalsh(e)).max())


def check_stability(params: SgnnParams, nominal: ShiftOperator, eps_list,
                    trials: int, rng: np.random.Generator) -> BoundReport:
    """Small-perturbation output deviation vs. the stability constant.

    Every shift in the chain is perturbed by an independent random symmetric
    direction of spectral norm eps; the fitted through-origin slope of the
    mean deviation must stay under C_B = K C_L L C_sigma^L F^(L-1) ||x|| for
    a random unit input x.
    """
    arch = params.arch
    n = nominal.n
    rho = nominal.spectral_radius()
    params = rescale_to_unit_response(params, rho, rng)
    x = rng.normal(size=n)
    x /= np.linalg.norm(x)
    x_norm = float(np.linalg.norm(x))
    c_l = model_lipschitz(params, rho + max(eps_list), 4096, rng)
    width_product = 1.0
    for f in arch.features[1:-1]:
        width_product *= f
    c_b = arch.order * c_l * arch.layers * arch.lipschitz_sigma() ** arch.layers \
        * width_product * x_norm
    xb = x[None, :, None]
    n_shifts = arch.shift_count()
    mean_dev = []
    for eps in eps_list:
        devs = np.empty(trials)
        for t in range(trials):
            base = [nominal.entries.copy() for _ in range(n_shifts)]
            pert = [b + _random_direction(n, eps, rng) for b in base]
            seq0 = Realizations.from_rows(arch, n, base)
            seq1 = Realizations.from_rows(arch, n, pert)
            t0 = forward_stack(params, seq0, xb, keep_tape=False)
            t1 = forward_stack(params, seq1, xb, keep_tape=False)
            devs[t] = np.linalg.norm(t1.output - t0.output)
        mean_dev.append(float(devs.mean()))
    eps_arr = np.asarray(eps_list, dtype=float)
    dev_arr = np.asarray(mean_dev)
    slope = float(np.sum(eps_arr * dev_arr) / np.sum(eps_arr * eps_arr))
    return BoundReport(
        "stability", slope, c_b, 0.0,
        inputs={"eps_list": [float(e) for e in eps_list], "trials": trials,
                "c_l": c_l, "mean_dev": mean_dev, "ratio": slope / c_b if c_b else math.inf},
    )


def check_output_bound(params: SgnnParams, gres: GresModel, draws: int,
                       rng: np.random.Generator) -> BoundReport:
    """Sampled output energies vs. the closed-form cap (unit-response regime)."""
    arch = params.arch
    lambda_max = gres.nominal.spectral_radius()
    params = rescale_to_unit_response(params, lambda_max, rng)
    worst_ratio = 0.0
    for _ in range(draws):
        x = rng.normal(size=gres.n)
        stack = sample_stack(gres, arch, 1, rng)
        tape = forward_stack(params, stack, x[None, :, None], keep_tape=False)
        c_y = output_bound(arch, float(np.linalg.norm(x)))
        ratio = float(np.linalg.norm(tape.output) / c_y)
        worst_ratio = max(worst_ratio, ratio)
    return BoundReport(
        "output-bound", worst_ratio, 1.0, 0.0,
        inputs={"draws": draws, "c_sigma": arch.lipschitz_sigma()},
    )


def check_lipschitz_majorant(order: int, draws: int, rng: np.random.Generator) -> BoundReport:
    """Sampled Lipschitz estimates never exceed the analytic coefficient majorant."""
    worst = -math.inf
    for _ in range(draws):
        coeffs = rng.normal(size=order + 1)
        lam_max = float(rng.uniform(0.5, 1.5))
        c_l = estimate_lipschitz(coeffs, lam_max, 500, rng)
        worst = max(worst, c_l - coefficient_majorant(coeffs, lam_max))
    return BoundReport(
        "lipschitz", worst, 0.0, 0.0,
        inputs={"order": order, "draws": draws},
    )


def primal_suboptimality_probe(params, gamma, gres, dataset, cfg, rng,
                               steps: int = 10) -> float:
    """Achievable Lagrangian drop from a few extra primal steps (xi proxy)."""
    from .training import make_optimizer, lagrangian

    optimizer = make_optimizer(cfg)
    batch = dataset.sample_batch(rng, cfg.batch_size, "train")
    start, _ = lagrangian(params, gamma, gres, batch, cfg, np.random.default_rng(0))
    best = start
    for _ in range(steps):
        value, grads = lagrangian(params, gamma, gres, batch, cfg, np.random.default_rng(0))
        params = optimizer.step(params, grads)
        best = min(best, value)
    final, _ = lagrangian(params, gamma, gres, batch, cfg, np.random.default_rng(0))
    best = min(best, final)
    return max(0.0, start - best)


def convergence_diagnostics(trace, cfg, c_y: float, n: int,
                            xi_estimate: float = 0.0,
                            delta: float = 1e-3,
                            gamma0=(0.0, 0.0)) -> ConvergenceDiag:
    """Assemble the dual-convergence error radius and iteration cap.

    The optimal dual variable is proxied by the final iterate and the primal
    suboptimality xi by an extra-step probe; both proxies are labeled as
    such wherever they are reported.
    """
    if len(trace) == 0:
        raise ConfigError("empty trace")
    last = trace.rows[-1]
    gstar = np.array([last["gamma1"], last["gamma2"]])
    dist_sq = float(np.sum((np.asarray(gamma0) - gstar) ** 2))
    t_bound = int(math.ceil(dist_sq / (2.0 * cfg.eta_dual * delta))) if dist_sq > 0 else 0
    radius = (2.0 * xi_estimate
              + cfg.eta_dual * ((cfg.c_f + c_y / math.sqrt(n)) ** 2
                                + (cfg.c_s + c_y ** 2 / n) ** 2) / 2.0
              + delta)
    return ConvergenceDiag(xi_estimate=xi_estimate, t_bound=t_bound, error_radius=radius)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

VERIFY_COLUMNS = ["check_name", "empirical", "bound", "slack", "violated", "stderr"]


def write_reports(reports: list, csv_path, json_dir=None) -> None:
    """verify.csv plus one JSON document per check."""
    write_csv(csv_path, VERIFY_COLUMNS, [[r.check_name, r.empirical, r.bound, r.slack,
                                          int(r.violated), r.stderr] for r in reports])
    if json_dir is not None:
        os.makedirs(json_dir, exist_ok=True)
        counts = {}
        for r in reports:
            counts[r.check_name] = counts.get(r.check_name, 0) + 1
            name = r.check_name if counts[r.check_name] == 1 else f"{r.check_name}-{counts[r.check_name]}"
            write_json(os.path.join(json_dir, name + ".json"), r.to_dict())

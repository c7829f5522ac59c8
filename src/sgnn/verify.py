"""Executable checks of the closed-form theory.

Each check compares a Monte-Carlo (or enumerated) quantity against the
matching closed-form bound and emits a BoundReport; a report is flagged
violated only when the empirical value beats the bound by more than three
standard errors, so sampling noise cannot trip a structurally sound bound.
The variance bound is implemented at leading order exactly as stated; the
dropped O(p^2 (1-p)^2) remainder is a documented caveat, never added back.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .estimators import (
    McConfig,
    deviation_probability,
    estimate_moments,
    sample_stack,
)
from .graphs import (
    GresModel,
    ShiftOperator,
    _power_spectral_radius,
    enumerate_gres,
    expected_square,
    sample_gres_batch,
)
from .model import (
    PER_FILTER,
    Architecture,
    Realizations,
    SgnnParams,
    forward_stack,
    frequency_response,
    frequency_response_gradient,
    output_bound,
)

GRADIENT_MC = "gradient_mc"
PAIRWISE_FD = "pairwise_fd"
COEFFICIENT_BOUND = "coefficient_bound"


@dataclass
class LipschitzEstimate:
    """Estimated Lipschitz constant of one filter's frequency response."""

    c_l: float
    domain_radius: float
    samples_used: int
    method: str
    coefficient_bound: float = 0.0


@dataclass
class BoundReport:
    """Empirical value vs. theoretical bound for one check."""

    check_name: str
    empirical: float
    bound: float
    mc_stderr: float = 0.0
    inputs: dict = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return self.bound - self.empirical

    @property
    def violated(self) -> bool:
        return self.empirical > self.bound + 3.0 * self.mc_stderr

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "inputs": self.inputs,
            "empirical": self.empirical,
            "bound": self.bound,
            "slack": self.slack,
            "violated": self.violated,
            "stderr": self.mc_stderr,
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
                       rng: np.random.Generator,
                       method: str = GRADIENT_MC) -> LipschitzEstimate:
    """Lipschitz constant of h over the box [-lambda_max, lambda_max]^K.

    GradientMC maximizes the analytic gradient norm over sampled points (plus
    the box corners); PairwiseFiniteDiff maximizes secant slopes between
    sampled pairs; CoefficientBound returns the analytic majorant, which
    dominates both estimates on the same domain.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    k = coeffs.shape[0] - 1
    major = coefficient_majorant(coeffs, lambda_max) if k else 0.0
    if k == 0:
        return LipschitzEstimate(0.0, lambda_max, 0, method, 0.0)
    if n_samples < 100:
        raise ConfigError("need at least 100 samples for a Lipschitz estimate")
    if method == COEFFICIENT_BOUND:
        return LipschitzEstimate(major, lambda_max, 0, method, major)
    pts = _domain_samples(k, lambda_max, n_samples, rng)
    if method == GRADIENT_MC:
        grads = frequency_response_gradient(coeffs, pts)
        c_l = float(np.max(np.linalg.norm(grads, axis=-1)))
        return LipschitzEstimate(c_l, lambda_max, pts.shape[0], method, major)
    if method == PAIRWISE_FD:
        other = rng.uniform(-lambda_max, lambda_max, size=pts.shape)
        num = np.abs(frequency_response(coeffs, pts) - frequency_response(coeffs, other))
        den = np.linalg.norm(pts - other, axis=-1)
        ok = den > 1e-12
        c_l = float(np.max(num[ok] / den[ok])) if np.any(ok) else 0.0
        return LipschitzEstimate(c_l, lambda_max, pts.shape[0], method, major)
    raise ConfigError(f"unknown Lipschitz method {method!r}")


def model_lipschitz(params: SgnnParams, lambda_max: float, n_samples: int,
                    rng: np.random.Generator, reduce: str = "max") -> float:
    """Aggregate GradientMC Lipschitz estimate over every filter in the net."""
    values = []
    for taps in params.taps:
        f_out, f_in, _ = taps.shape
        for f in range(f_out):
            for g in range(f_in):
                est = estimate_lipschitz(taps[f, g], lambda_max, n_samples, rng)
                values.append(est.c_l)
    return float(np.max(values) if reduce == "max" else np.mean(values))


def rescale_to_unit_response(params: SgnnParams, lambda_max: float,
                             rng: np.random.Generator, n_samples: int = 2048,
                             margin: float = 1.05) -> SgnnParams:
    """Shrink each filter so its sampled |h(lambda)| stays within 1.

    Filters already inside the unit response are left untouched; the margin
    guards against the sampled maximum undershooting the true one.
    """
    new_taps = []
    for taps in params.taps:
        t = taps.copy()
        f_out, f_in, k1 = t.shape
        pts = _domain_samples(k1 - 1, lambda_max, n_samples, rng) if k1 > 1 else None
        for f in range(f_out):
            for g in range(f_in):
                if pts is None:
                    peak = abs(t[f, g, 0])
                else:
                    peak = float(np.max(np.abs(frequency_response(t[f, g], pts))))
                scale = max(1.0, margin * peak)
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


def _plugin_variance_with_stderr(params, gres, x, cfg: McConfig, groups: int = 10):
    """Plug-in variance plus a batch-means standard error."""
    report = estimate_moments(params, gres, x, cfg)
    group_size = max(2, cfg.n_realizations // groups)
    vals = []
    for g in range(groups):
        sub = McConfig(group_size, master_seed=cfg.master_seed * 1000003 + 17 + g)
        vals.append(estimate_moments(params, gres, x, sub).variance)
    return report.variance, float(np.std(vals, ddof=1) / math.sqrt(groups)), report


def check_variance_bound(params: SgnnParams, gres: GresModel, x: np.ndarray,
                         cfg: McConfig, c_l: float | None = None,
                         rng: np.random.Generator | None = None) -> BoundReport:
    """Empirical plug-in variance vs. the closed-form cap.

    Assumes the unit-response regime: taps are rescaled internally and the
    Lipschitz constant (if not given) is the GradientMC maximum over all
    filters on the matching domain.
    """
    arch = params.arch
    if arch.lipschitz_sigma() != 1.0:
        raise ConfigError("the variance bound check needs a 1-Lipschitz nonlinearity")
    rng = rng if rng is not None else np.random.default_rng(cfg.master_seed + 7)
    lambda_max = gres.nominal.spectral_radius()
    params = rescale_to_unit_response(params, lambda_max, rng)
    if c_l is None:
        c_l = model_lipschitz(params, lambda_max, 4096, rng)
    variance, stderr, _ = _plugin_variance_with_stderr(params, gres, x, cfg)
    width = max(arch.features[1:-1] or arch.features[-1:])
    bound = variance_bound(
        c_l, gres.m_drop, gres.m_add, gres.p, gres.q, arch.order, arch.layers,
        width, 1.0, gres.n, float(np.linalg.norm(x)))
    return BoundReport(
        "variance-bound", variance, bound, stderr,
        inputs={"p": gres.p, "q": gres.q, "m_drop": gres.m_drop, "m_add": gres.m_add,
                "c_l": c_l, "n_realizations": cfg.n_realizations},
    )


def check_chebyshev(params: SgnnParams, gres: GresModel, x: np.ndarray,
                    eps_grid, cfg: McConfig) -> list:
    """Deviation-probability lower bound at each epsilon.

    Reported with tail-probability orientation: empirical Pr[dev > eps] must
    not exceed Var/eps (plus binomial noise).
    """
    var, _, _ = _plugin_variance_with_stderr(params, gres, x, cfg)
    m = max(100, cfg.n_realizations)
    reports = []
    for i, eps in enumerate(eps_grid):
        if eps <= 0:
            raise ConfigError("epsilon grid values must be positive")
        rng = np.random.default_rng(cfg.master_seed * 65537 + 101 + i)
        prob = deviation_probability(params, gres, x, float(eps), m, rng)
        tail = 1.0 - prob
        se = math.sqrt(max(prob * (1.0 - prob), 1.0 / m) / m)
        reports.append(BoundReport(
            "chebyshev", tail, var / float(eps), se,
            inputs={"eps": float(eps), "variance": var, "m": m},
        ))
    return reports


def check_moment_formula(model: GresModel, mc_fallback: int = 20000,
                         rng: np.random.Generator | None = None) -> BoundReport:
    """Exhaustive (or Monte-Carlo) second moment vs. the closed form."""
    formula = expected_square(model)
    if model.m_drop + model.m_add <= 12:
        acc = np.zeros_like(formula)
        for prob, mat in enumerate_gres(model):
            acc += prob * (mat @ mat)
        err = float(np.max(np.abs(acc - formula)))
        return BoundReport(
            "moment-formula", err, 1e-12, 0.0,
            inputs={"kind": model.nominal.kind, "m_drop": model.m_drop,
                    "m_add": model.m_add, "p": model.p, "q": model.q,
                    "method": "enumeration"},
        )
    rng = rng if rng is not None else np.random.default_rng(0)
    mats = sample_gres_batch(model, mc_fallback, rng)
    products = np.matmul(mats, mats)
    resid = products.mean(axis=0) - formula
    se = products.std(axis=0, ddof=1) / math.sqrt(mc_fallback)
    worst = np.unravel_index(np.argmax(np.abs(resid)), resid.shape)
    return BoundReport(
        "moment-formula", float(np.abs(resid[worst])), 0.0, float(se[worst]),
        inputs={"kind": model.nominal.kind, "m_drop": model.m_drop,
                "m_add": model.m_add, "p": model.p, "q": model.q,
                "method": "monte_carlo", "n_samples": mc_fallback},
    )


def _random_direction(n: int, eps: float, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(n, n))
    e = (a + a.T) / 2.0
    rho = _power_spectral_radius(e)
    return e * (eps / rho)


def check_stability(params: SgnnParams, nominal: ShiftOperator, eps_list,
                    trials: int, rng: np.random.Generator,
                    x: np.ndarray | None = None) -> BoundReport:
    """Small-perturbation output deviation vs. the stability constant.

    Every shift in the chain is perturbed by an independent random symmetric
    direction of spectral norm eps; the fitted through-origin slope of the
    mean deviation must stay under C_B = K C_L L C_sigma^L F^(L-1) ||x||.
    """
    arch = params.arch
    n = nominal.n
    rho = nominal.spectral_radius()
    params = rescale_to_unit_response(params, rho, rng)
    if x is None:
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
    n_shifts = arch.shift_count(PER_FILTER)
    mean_dev = []
    for eps in eps_list:
        devs = np.empty(trials)
        for t in range(trials):
            base = [nominal.entries.copy() for _ in range(n_shifts)]
            pert = [b + _random_direction(n, eps, rng) for b in base]
            seq0 = Realizations.from_rows(arch, PER_FILTER, n, base)
            seq1 = Realizations.from_rows(arch, PER_FILTER, n, pert)
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
        stack = sample_stack(gres, arch, 1, rng, PER_FILTER)
        tape = forward_stack(params, stack, x[None, :, None], keep_tape=False)
        c_y = output_bound(arch, float(np.linalg.norm(x)))
        ratio = float(np.linalg.norm(tape.output) / c_y)
        worst_ratio = max(worst_ratio, ratio)
    return BoundReport(
        "output-bound", worst_ratio, 1.0, 0.0,
        inputs={"draws": draws, "c_sigma": arch.lipschitz_sigma()},
    )


def check_lipschitz_majorant(order: int, draws: int, rng: np.random.Generator) -> BoundReport:
    """GradientMC estimates never exceed the analytic coefficient majorant."""
    worst = -math.inf
    for _ in range(draws):
        coeffs = rng.normal(size=order + 1)
        lam_max = float(rng.uniform(0.5, 1.5))
        est = estimate_lipschitz(coeffs, lam_max, 500, rng)
        worst = max(worst, est.c_l - est.coefficient_bound)
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
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(VERIFY_COLUMNS)
        for r in reports:
            writer.writerow([r.check_name, repr(r.empirical), repr(r.bound),
                             repr(r.slack), int(r.violated), repr(r.mc_stderr)])
    if json_dir is not None:
        os.makedirs(json_dir, exist_ok=True)
        counts = {}
        for r in reports:
            counts[r.check_name] = counts.get(r.check_name, 0) + 1
            name = r.check_name if counts[r.check_name] == 1 else f"{r.check_name}-{counts[r.check_name]}"
            with open(os.path.join(json_dir, name + ".json"), "w") as f:
                json.dump(r.to_dict(), f, indent=1, sort_keys=True)

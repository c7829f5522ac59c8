"""Lagrangian machinery, the primal-dual training loop, and its baselines.

The constrained problem lower-bounds the node-averaged first output moment by
c_f and upper-bounds the second by c_s, which jointly cap the output variance
at c_s - c_f^2.  Training alternates a handful of gradient-descent steps on
the filter taps against one projected gradient-ascent step on the two dual
variables; freezing the duals at zero recovers plain stochastic descent
bit-for-bit, which the tests rely on.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .errors import ConfigError, TrainingDiverged
from .estimators import plugin_variance, sample_stack
from .graphs import GresModel
from .model import PER_FILTER, SHARED, SgnnParams, backward_stack, forward_stack

PRIMAL_DUAL = "primal_dual"
UNCONSTRAINED = "unconstrained"
REGULARIZED = "regularized"
MODES = (PRIMAL_DUAL, UNCONSTRAINED, REGULARIZED)

SURROGATE = "surrogate"
ORIGINAL_VARIANCE = "original_variance"
TARGETS = (SURROGATE, ORIGINAL_VARIANCE)

SGD = "sgd"
ADAM = "adam"


# ---------------------------------------------------------------------------
# Batches and losses
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    """A mini-batch: inputs (F0, n, B) plus task-dependent targets.

    ``y`` holds integer class labels (B,) for classification or target
    signals (n, B) for regression; ``mask`` selects the observed entries in
    the regression case.
    """

    x: np.ndarray
    y: np.ndarray
    mask: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.x.shape[-1]


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy with log-sum-exp stabilization.

    ``logits`` may carry leading axes (realizations); the mean runs over
    every axis except the class one.
    """
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels)
    shifted = logits - logits.max(axis=-2, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-2))
    picked = np.take_along_axis(
        shifted, np.broadcast_to(labels, shifted.shape[:-2] + labels.shape)[..., None, :], axis=-2
    )[..., 0, :]
    return float(np.mean(lse - picked))


def cross_entropy_grad(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of the mean cross-entropy w.r.t. the logits."""
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels)
    shifted = logits - logits.max(axis=-2, keepdims=True)
    e = np.exp(shifted)
    soft = e / e.sum(axis=-2, keepdims=True)
    onehot = np.zeros_like(soft)
    idx = np.broadcast_to(labels, soft.shape[:-2] + labels.shape)[..., None, :]
    np.put_along_axis(onehot, idx, 1.0, axis=-2)
    count = soft.size // soft.shape[-2]
    return (soft - onehot) / count


def masked_mse(pred: np.ndarray, target: np.ndarray, mask: np.ndarray) -> float:
    """Mean squared error over observed entries only.

    Leading axes on ``pred`` (realizations) are averaged over as well.
    """
    pred = np.asarray(pred, dtype=float)
    lead = pred.size // target.size if target.size else 1
    total = float(np.sum(mask)) * lead
    if total == 0:
        return 0.0
    diff = (pred - target) * mask
    return float(np.sum(diff * diff) / total)


def masked_mse_grad(pred: np.ndarray, target: np.ndarray, mask: np.ndarray) -> np.ndarray:
    pred = np.asarray(pred, dtype=float)
    lead = pred.size // target.size if target.size else 1
    total = float(np.sum(mask)) * lead
    if total == 0:
        return np.zeros_like(pred)
    return 2.0 * (pred - target) * mask / total


class Loss:
    """Pairs a loss value with its gradient w.r.t. the prediction."""

    def __init__(self, name: str):
        if name not in ("cross_entropy", "masked_mse"):
            raise ConfigError(f"unknown loss {name!r}")
        self.name = name

    def value(self, pred: np.ndarray, batch: Batch) -> float:
        if self.name == "cross_entropy":
            return cross_entropy(pred, batch.y)
        return masked_mse(pred, batch.y, batch.mask)

    def grad(self, pred: np.ndarray, batch: Batch) -> np.ndarray:
        if self.name == "cross_entropy":
            return cross_entropy_grad(pred, batch.y)
        return masked_mse_grad(pred, batch.y, batch.mask)


# ---------------------------------------------------------------------------
# Configuration and dual variables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualVars:
    """The two nonnegative multipliers of the moment constraints."""

    gamma1: float = 0.0
    gamma2: float = 0.0

    def __post_init__(self):
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ConfigError("dual variables must be nonnegative")


@dataclass(frozen=True)
class TrainConfig:
    c_f: float = 0.0
    c_s: float = 0.5
    eta_primal: float = 1e-3
    eta_dual: float = 1e-2
    gamma_steps: int = 1
    n_realizations: int = 10
    max_iters: int = 100
    batch_size: int = 32
    optimizer: str = ADAM
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    grad_norm_tol: float = 1e-6
    mode: str = PRIMAL_DUAL
    reg_beta: float = 0.0
    constraint_target: str = SURROGATE
    loss: str = "cross_entropy"
    realization_mode: str = PER_FILTER
    checkpoint_every: int = 0
    divergence_limit: float = 1e6

    def __post_init__(self):
        if self.c_s < 0:
            raise ConfigError("c_s must be nonnegative")
        if self.constraint_target == ORIGINAL_VARIANCE and self.c_s - self.c_f ** 2 < 0:
            raise ConfigError("implied variance bound c_s - c_f^2 is negative")
        if self.eta_primal < 0 or self.eta_dual < 0:
            raise ConfigError("step sizes must be nonnegative")
        if self.gamma_steps < 1:
            raise ConfigError("need at least one primal step per iteration")
        if self.mode not in MODES:
            raise ConfigError(f"unknown training mode {self.mode!r}")
        if self.constraint_target not in TARGETS:
            raise ConfigError(f"unknown constraint target {self.constraint_target!r}")
        if self.optimizer not in (SGD, ADAM):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.realization_mode not in (PER_FILTER, SHARED):
            raise ConfigError(f"unknown realization mode {self.realization_mode!r}")

    @property
    def c_v(self) -> float:
        return self.c_s - self.c_f ** 2


TRACE_COLUMNS = ["iter", "mean_cost", "first_moment", "second_moment", "variance",
                 "gamma1", "gamma2", "lagrangian", "grad_norm", "slack1", "slack2"]


@dataclass
class TrainTrace:
    """One row of convergence diagnostics per outer iteration."""

    rows: list = field(default_factory=list)

    def append(self, **kw):
        self.rows.append({c: kw[c] for c in TRACE_COLUMNS})

    def column(self, name: str) -> np.ndarray:
        return np.array([r[name] for r in self.rows], dtype=float)

    def __len__(self):
        return len(self.rows)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(TRACE_COLUMNS)
            for r in self.rows:
                writer.writerow([repr(r[c]) if isinstance(r[c], float) else r[c]
                                 for c in TRACE_COLUMNS])

    @staticmethod
    def from_csv(path) -> "TrainTrace":
        trace = TrainTrace()
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            for row in reader:
                trace.append(**{c: (int(row[c]) if c == "iter" else float(row[c]))
                                for c in TRACE_COLUMNS})
        return trace


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


class _Sgd:
    def __init__(self, cfg: TrainConfig):
        self.lr = cfg.eta_primal

    def step(self, params: SgnnParams, grads: SgnnParams) -> SgnnParams:
        return params.replace_arrays(
            [p - self.lr * g for p, g in zip(params.arrays(), grads.arrays())]
        )


class _Adam:
    def __init__(self, cfg: TrainConfig):
        self.lr = cfg.eta_primal
        self.b1, self.b2, self.eps = cfg.beta1, cfg.beta2, cfg.eps_adam
        self.t = 0
        self.m = None
        self.v = None

    def step(self, params: SgnnParams, grads: SgnnParams) -> SgnnParams:
        garrs = grads.arrays()
        if self.m is None:
            self.m = [np.zeros_like(g) for g in garrs]
            self.v = [np.zeros_like(g) for g in garrs]
        self.t += 1
        out = []
        c1 = 1.0 - self.b1 ** self.t
        c2 = 1.0 - self.b2 ** self.t
        for i, (p, g) in enumerate(zip(params.arrays(), garrs)):
            self.m[i] = self.b1 * self.m[i] + (1.0 - self.b1) * g
            self.v[i] = self.b2 * self.v[i] + (1.0 - self.b2) * g * g
            mhat = self.m[i] / c1
            vhat = self.v[i] / c2
            out.append(p - self.lr * mhat / (np.sqrt(vhat) + self.eps))
        return params.replace_arrays(out)


def make_optimizer(cfg: TrainConfig):
    return _Adam(cfg) if cfg.optimizer == ADAM else _Sgd(cfg)


# ---------------------------------------------------------------------------
# Objective evaluation
# ---------------------------------------------------------------------------


def _phi_and_pred(tape):
    out = tape.output
    if out.shape[1] != 1:
        raise ConfigError("training requires a single output feature")
    phi = out[:, 0]
    pred = tape.logits if tape.logits is not None else phi
    return phi, pred


def _objective_value_and_grads(params, gamma, gres, batch, cfg, rng,
                               mode, reg_weight=0.0):
    """Value and exact gradients of the training objective on one batch.

    ``mode`` selects between the surrogate Lagrangian (moment terms weighted
    by the duals), the single-dual variance Lagrangian, and the
    beta-regularized objective; the unconstrained cost falls out of the
    surrogate path at gamma = 0.
    """
    loss = Loss(cfg.loss)
    stack = sample_stack(gres, params.arch, cfg.n_realizations, rng,
                         cfg.realization_mode)
    tape = forward_stack(params, stack, batch.x)
    phi, pred = _phi_and_pred(tape)
    n_total = float(phi.size)          # N * n * B
    cost = loss.value(pred, batch)
    m1 = float(np.mean(phi))
    m2 = float(np.mean(phi * phi))

    d_pred = loss.grad(pred, batch)
    d_logits = d_pred if tape.logits is not None else None
    d_out = None if tape.logits is not None else d_pred[:, None]

    if mode == SURROGATE:
        value = cost + gamma.gamma1 * (cfg.c_f - m1) - gamma.gamma2 * (cfg.c_s - m2)
        moment_up = (-gamma.gamma1 + 2.0 * gamma.gamma2 * phi) / n_total
        aux_var = None
    else:
        # per-sample plug-in variance, averaged over nodes and the batch
        m1_nb = phi.mean(axis=0)
        per_node = np.mean(phi * phi, axis=0) - m1_nb * m1_nb
        var = float(np.mean(per_node))
        weight = gamma.gamma1 if mode == ORIGINAL_VARIANCE else reg_weight
        if mode == ORIGINAL_VARIANCE:
            value = cost + weight * (var - cfg.c_v)
        else:
            value = cost + weight * var
        moment_up = weight * 2.0 * (phi - m1_nb) / n_total
        aux_var = var

    d_out = moment_up[:, None] if d_out is None else d_out + moment_up[:, None]
    grads = backward_stack(tape, d_output=d_out, d_logits=d_logits)
    aux = {"cost": cost, "m1": m1, "m2": m2, "variance": aux_var}
    return value, grads, aux


def lagrangian(params: SgnnParams, gamma: DualVars, gres: GresModel, batch: Batch,
               cfg: TrainConfig, rng: np.random.Generator):
    """Empirical Lagrangian value and its exact parameter gradient.

    The cost and both moment estimates share the same N sampled sequences;
    the moment terms reach the taps through the backward pass with upstream
    -gamma1/n on the first moment and +2 gamma2 Phi_i / n on the second (per
    realization, per sample).
    """
    value, grads, _ = _objective_value_and_grads(
        params, gamma, gres, batch, cfg, rng, SURROGATE)
    if not math.isfinite(value):
        raise TrainingDiverged(f"non-finite Lagrangian value {value}")
    return value, grads


def dual_step(gamma: DualVars, moments, cfg: TrainConfig) -> DualVars:
    """Projected gradient ascent on the two moment multipliers.

    gamma1 <- [gamma1 + eta (c_f - m1)]_+ ;  gamma2 <- [gamma2 - eta (c_s - m2)]_+
    """
    m1, m2 = moments
    g1 = max(0.0, gamma.gamma1 + cfg.eta_dual * (cfg.c_f - m1))
    g2 = max(0.0, gamma.gamma2 - cfg.eta_dual * (cfg.c_s - m2))
    return DualVars(g1, g2)


def variance_dual_step(gamma: DualVars, variance: float, cfg: TrainConfig) -> DualVars:
    """Single-multiplier ascent when constraining the variance directly."""
    g = max(0.0, gamma.gamma1 + cfg.eta_dual * (variance - cfg.c_v))
    return DualVars(g, 0.0)


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------


def _dual_phase_metrics(params, gres, dataset, cfg, rng):
    """Cost, batch-averaged moments, and plug-in variance on fresh draws."""
    loss = Loss(cfg.loss)
    batch = dataset.sample_batch(rng, cfg.batch_size, "train")
    stack = sample_stack(gres, params.arch, cfg.n_realizations, rng,
                         cfg.realization_mode)
    tape = forward_stack(params, stack, batch.x, keep_tape=False)
    phi, pred = _phi_and_pred(tape)
    cost = loss.value(pred, batch)
    m1 = float(np.mean(phi))
    m2 = float(np.mean(phi * phi))
    variance = float(np.mean(plugin_variance(phi)))
    return cost, m1, m2, variance


def _train_loop(init_params, init_gamma, gres, dataset, cfg, rng,
                objective_mode, update_dual, reg_weight=0.0, callback=None):
    rng = rngmod.root_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    params = init_params
    gamma = init_gamma
    optimizer = make_optimizer(cfg)
    trace = TrainTrace()
    value = grad_norm = float("nan")
    for t in range(cfg.max_iters):
        for _ in range(cfg.gamma_steps):
            batch = dataset.sample_batch(rng, cfg.batch_size, "train")
            value, grads, _ = _objective_value_and_grads(
                params, gamma, gres, batch, cfg, rng, objective_mode, reg_weight)
            grad_norm = float(np.linalg.norm(grads.flatten()))
            params = optimizer.step(params, grads)
        cost, m1, m2, variance = _dual_phase_metrics(params, gres, dataset, cfg, rng)
        if update_dual:
            if objective_mode == ORIGINAL_VARIANCE:
                gamma = variance_dual_step(gamma, variance, cfg)
            else:
                gamma = dual_step(gamma, (m1, m2), cfg)
        trace.append(iter=t, mean_cost=cost, first_moment=m1, second_moment=m2,
                     variance=variance, gamma1=gamma.gamma1, gamma2=gamma.gamma2,
                     lagrangian=value, grad_norm=grad_norm,
                     slack1=m1 - cfg.c_f, slack2=cfg.c_s - m2)
        if callback is not None:
            callback(t, params, gamma, trace)
        if not math.isfinite(cost) or not math.isfinite(value) or cost > cfg.divergence_limit:
            raise TrainingDiverged(f"training diverged at iteration {t} (cost={cost})", trace)
        if grad_norm < cfg.grad_norm_tol:
            break
    return params, gamma, trace


def train_primal_dual(init_params: SgnnParams, init_gamma: DualVars, gres: GresModel,
                      dataset, cfg: TrainConfig, rng, callback=None):
    """Alternating primal descent / projected dual ascent.

    Stops at ``max_iters`` or once the Lagrangian gradient norm drops under
    the tolerance; raises TrainingDiverged (carrying the partial trace) if
    the cost blows up.
    """
    objective = SURROGATE if cfg.constraint_target == SURROGATE else ORIGINAL_VARIANCE
    params, gamma, trace = _train_loop(
        init_params, init_gamma, gres, dataset, cfg, rng,
        objective_mode=objective, update_dual=True, callback=callback)
    return params, gamma, trace


def train_unconstrained(init_params: SgnnParams, gres: GresModel, dataset,
                        cfg: TrainConfig, rng, callback=None):
    """Plain stochastic descent on the expected cost (duals pinned at zero)."""
    params, _, trace = _train_loop(
        init_params, DualVars(0.0, 0.0), gres, dataset, cfg, rng,
        objective_mode=SURROGATE, update_dual=False, callback=callback)
    return params, trace


def train_regularized(init_params: SgnnParams, gres: GresModel, dataset,
                      cfg: TrainConfig, rng, callback=None):
    """Descent on cost + beta * plug-in variance (fixed-weight baseline)."""
    params, _, trace = _train_loop(
        init_params, DualVars(0.0, 0.0), gres, dataset, cfg, rng,
        objective_mode=REGULARIZED, update_dual=False,
        reg_weight=cfg.reg_beta, callback=callback)
    return params, trace


def train(init_params: SgnnParams, gres: GresModel, dataset, cfg: TrainConfig,
          rng, init_gamma: DualVars | None = None, callback=None):
    """Mode dispatch; returns (params, gamma, trace) for every mode."""
    if cfg.mode == PRIMAL_DUAL:
        return train_primal_dual(init_params, init_gamma or DualVars(),
                                 gres, dataset, cfg, rng, callback)
    if cfg.mode == UNCONSTRAINED:
        params, trace = train_unconstrained(init_params, gres, dataset, cfg, rng, callback)
        return params, DualVars(), trace
    params, trace = train_regularized(init_params, gres, dataset, cfg, rng, callback)
    return params, DualVars(), trace

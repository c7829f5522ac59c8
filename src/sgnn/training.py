"""Losses, the Lagrangian objective, and the one training loop.

The constrained problem lower-bounds the node-averaged first output moment by
c_f and upper-bounds the second by c_s, which jointly cap the output variance
at c_s - c_f^2.  ``train`` alternates a handful of gradient-descent steps on
the filter taps against one projected gradient-ascent step on the two dual
variables.  The training mode picks the objective and whether the duals move;
holding them at zero recovers plain stochastic descent bit-for-bit, which the
tests rely on.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .errors import ConfigError, NumericalError, TrainingDiverged
from .estimators import plugin_variance, sample_stack
from .graphs import GresModel
from .model import PER_FILTER, SHARED, SgnnParams, backward_stack, forward_stack

PRIMAL_DUAL = "primal_dual"
UNCONSTRAINED = "unconstrained"
REGULARIZED = "regularized"
MODES = (PRIMAL_DUAL, UNCONSTRAINED, REGULARIZED)

SGD = "sgd"
ADAM = "adam"
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
    grad_norm_tol: float = 1e-6
    mode: str = PRIMAL_DUAL
    reg_beta: float = 0.0
    loss: str = "cross_entropy"
    realization_mode: str = PER_FILTER
    checkpoint_every: int = 0
    divergence_limit: float = 1e6

    def __post_init__(self):
        if self.c_s < 0:
            raise ConfigError("c_s must be nonnegative")
        if self.eta_primal < 0 or self.eta_dual < 0:
            raise ConfigError("step sizes must be nonnegative")
        if self.gamma_steps < 1:
            raise ConfigError("need at least one primal step per iteration")
        if self.mode not in MODES:
            raise ConfigError(f"unknown training mode {self.mode!r}")
        if self.optimizer not in (SGD, ADAM):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.realization_mode not in (PER_FILTER, SHARED):
            raise ConfigError(f"unknown realization mode {self.realization_mode!r}")


TRACE_COLUMNS = ["iter", "mean_cost", "first_moment", "second_moment", "variance",
                 "gamma1", "gamma2", "lagrangian", "grad_norm", "slack1", "slack2"]


def _csv_cells(row: dict) -> list:
    """One trace row as CSV cells; floats by repr, so they read back exactly."""
    return [repr(row[c]) if isinstance(row[c], float) else row[c] for c in TRACE_COLUMNS]


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
            writer.writerows(_csv_cells(r) for r in self.rows)

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
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        for i, (p, g) in enumerate(zip(params.arrays(), garrs)):
            self.m[i] = ADAM_BETA1 * self.m[i] + (1.0 - ADAM_BETA1) * g
            self.v[i] = ADAM_BETA2 * self.v[i] + (1.0 - ADAM_BETA2) * g * g
            mhat = self.m[i] / c1
            vhat = self.v[i] / c2
            out.append(p - self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS))
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


def lagrangian(params: SgnnParams, gamma: DualVars, gres: GresModel, batch: Batch,
               cfg: TrainConfig, rng: np.random.Generator):
    """Value and exact parameter gradient of the training objective on one batch.

    In the regularized mode the objective is the cost plus ``cfg.reg_beta``
    times the plug-in variance.  Otherwise it is the surrogate Lagrangian:
    the moment terms reach the taps through the backward pass with upstream
    -gamma1/n on the first moment and +2 gamma2 Phi_i / n on the second (per
    realization, per sample).  The cost and the moments share the same N
    sampled sequences.
    """
    loss = Loss(cfg.loss)
    stack = sample_stack(gres, params.arch, cfg.n_realizations, rng,
                         cfg.realization_mode)
    tape = forward_stack(params, stack, batch.x)
    phi, pred = _phi_and_pred(tape)
    n_total = float(phi.size)          # N * n * B
    cost = loss.value(pred, batch)

    d_pred = loss.grad(pred, batch)
    d_logits = d_pred if tape.logits is not None else None
    d_out = None if tape.logits is not None else d_pred[:, None]

    if cfg.mode == REGULARIZED:
        # per-sample plug-in variance, averaged over nodes and the batch
        m1_nb = phi.mean(axis=0)
        per_node = np.mean(phi * phi, axis=0) - m1_nb * m1_nb
        value = cost + cfg.reg_beta * float(np.mean(per_node))
        moment_up = cfg.reg_beta * 2.0 * (phi - m1_nb) / n_total
    else:
        m1 = float(np.mean(phi))
        m2 = float(np.mean(phi * phi))
        value = cost + gamma.gamma1 * (cfg.c_f - m1) - gamma.gamma2 * (cfg.c_s - m2)
        moment_up = (-gamma.gamma1 + 2.0 * gamma.gamma2 * phi) / n_total

    if not math.isfinite(value):
        raise TrainingDiverged(f"non-finite Lagrangian value {value}")
    d_out = moment_up[:, None] if d_out is None else d_out + moment_up[:, None]
    return value, backward_stack(tape, d_output=d_out, d_logits=d_logits)


def dual_step(gamma: DualVars, moments, cfg: TrainConfig) -> DualVars:
    """Projected gradient ascent on the two moment multipliers.

    gamma1 <- [gamma1 + eta (c_f - m1)]_+ ;  gamma2 <- [gamma2 - eta (c_s - m2)]_+
    """
    m1, m2 = moments
    g1 = max(0.0, gamma.gamma1 + cfg.eta_dual * (cfg.c_f - m1))
    g2 = max(0.0, gamma.gamma2 - cfg.eta_dual * (cfg.c_s - m2))
    return DualVars(g1, g2)


# ---------------------------------------------------------------------------
# Training
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


def train(init_params: SgnnParams, gres: GresModel, dataset, cfg: TrainConfig,
          rng, init_gamma: DualVars | None = None, callback=None):
    """Train from ``init_params``; returns (params, gamma, trace) for every mode.

    Primal-dual mode descends the Lagrangian and steps the duals, from
    ``init_gamma``, after every iteration; unconstrained mode descends the
    same Lagrangian with the duals held at zero; regularized mode descends
    cost plus ``reg_beta`` times the plug-in variance.  Stops at
    ``max_iters`` or once the gradient norm drops under the tolerance.  A
    non-finite forward pass or Lagrangian, or a cost that is non-finite or
    above ``divergence_limit``, raises TrainingDiverged carrying the partial
    trace.
    """
    rng = rngmod.root_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    update_dual = cfg.mode == PRIMAL_DUAL
    params = init_params
    gamma = (init_gamma or DualVars()) if update_dual else DualVars()
    optimizer = make_optimizer(cfg)
    trace = TrainTrace()
    value = grad_norm = float("nan")
    # every non-finite value below ends in TrainingDiverged; NumPy's warnings only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(cfg.max_iters):
            try:
                for _ in range(cfg.gamma_steps):
                    batch = dataset.sample_batch(rng, cfg.batch_size, "train")
                    value, grads = lagrangian(params, gamma, gres, batch, cfg, rng)
                    grad_norm = float(np.linalg.norm(grads.flatten()))
                    params = optimizer.step(params, grads)
                cost, m1, m2, variance = _dual_phase_metrics(params, gres, dataset, cfg, rng)
            except NumericalError as exc:
                raise TrainingDiverged(f"training diverged at iteration {t}: {exc}", trace) from exc
            if update_dual:
                gamma = dual_step(gamma, (m1, m2), cfg)
            trace.append(iter=t, mean_cost=cost, first_moment=m1, second_moment=m2,
                         variance=variance, gamma1=gamma.gamma1, gamma2=gamma.gamma2,
                         lagrangian=value, grad_norm=grad_norm,
                         slack1=m1 - cfg.c_f, slack2=cfg.c_s - m2)
            if callback is not None:
                callback(t, params, gamma, trace)
            if not math.isfinite(cost) or cost > cfg.divergence_limit:
                raise TrainingDiverged(f"training diverged at iteration {t} (cost={cost})", trace)
            if grad_norm < cfg.grad_norm_tol:
                break
    return params, gamma, trace

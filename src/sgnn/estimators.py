"""Monte-Carlo estimation of costs, output moments, and deviation probabilities.

Expectations over random shift sequences are approximated by empirical means
over N sampled sequences.  The variance estimator is the plug-in one (divide
by N, no Bessel correction) because it is exactly what the training-time
constraints consume; verification against closed forms and enumeration keeps
it honest.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .errors import ConfigError, GraphError
from .graphs import GresModel, enumerate_masks, sample_gres_masks
from .model import (
    PER_FILTER,
    Architecture,
    ForwardTape,
    Realizations,
    SgnnParams,
    forward_stack,
    layer_positions,
)


@dataclass(frozen=True)
class McConfig:
    """How many realizations to draw and from which master stream."""

    n_realizations: int = 10
    master_seed: int = 0
    antithetic: bool = False

    def __post_init__(self):
        if self.n_realizations < 1:
            raise ConfigError("need at least one realization")

    def rng(self) -> np.random.Generator:
        return rngmod.root_rng(self.master_seed)


@dataclass
class MomentReport:
    """Empirical output moments of the pre-readout network output.

    ``variance`` averages the per-node plug-in variances; ``first_moment``
    and ``second_moment`` are the node-averaged raw moments the surrogate
    constraints bound.
    """

    mean_cost: float | None
    first_moment: float
    second_moment: float
    variance: float
    per_node_variance: np.ndarray
    n_samples: int

    def to_dict(self) -> dict:
        return {
            "mean_cost": self.mean_cost,
            "first_moment": self.first_moment,
            "second_moment": self.second_moment,
            "variance": self.variance,
            "per_node_variance": [float(v) for v in self.per_node_variance],
            "n_samples": self.n_samples,
        }


# ---------------------------------------------------------------------------
# Sampling realization sequences
# ---------------------------------------------------------------------------


def sample_stack(gres: GresModel, arch: Architecture, count: int,
                 rng: np.random.Generator, mode: str = PER_FILTER,
                 antithetic: bool = False) -> Realizations:
    """``count`` independent realization sequences, as GRES edge masks.

    In per-filter mode every (filter, tap) position gets an independent
    GRES draw; in shared mode one draw per tap index is reused across the
    bank.  Draw order is layers outermost, then (count, f, g, k) row-major.
    """
    layers = []
    for shape in layer_positions(arch, mode):
        bits = sample_gres_masks(gres, count * int(np.prod(shape)), rng, antithetic)
        layers.append(bits.reshape((count,) + shape + bits.shape[1:]))
    return Realizations(layers, mode, gres.n, gres)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def _single_input(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :, None]
    if x.ndim == 2:
        return x[:, :, None]
    raise ConfigError("moment estimation expects a single input signal")


def _phi(tape: ForwardTape) -> np.ndarray:
    """Pre-readout output as (N, n, B); requires a single output feature."""
    out = tape.output
    if out.shape[1] != 1:
        raise ConfigError("moment estimation requires a single output feature")
    return out[:, 0]


def plugin_variance(phi: np.ndarray) -> np.ndarray:
    """Per-node plug-in variance over the leading realization axis.

    Centered form keeps the result nonnegative; bitwise-identical
    realizations (no randomness in the chain) give exactly zero.
    """
    if np.all(phi == phi[:1]):
        return np.zeros(phi.shape[1:])
    m1 = phi.mean(axis=0)
    return np.maximum(np.mean((phi - m1) ** 2, axis=0), 0.0)


def estimate_cost(params: SgnnParams, gres: GresModel, batch, cfg: McConfig,
                  loss, mode: str = PER_FILTER) -> float:
    """Empirical expected cost: mean over realizations of the mean batch loss."""
    rng = cfg.rng()
    stack = sample_stack(gres, params.arch, cfg.n_realizations, rng, mode, cfg.antithetic)
    tape = forward_stack(params, stack, batch.x, keep_tape=False)
    pred = tape.logits if tape.logits is not None else _phi(tape)
    return float(loss.value(pred, batch))


def estimate_moments(params: SgnnParams, gres: GresModel, x: np.ndarray,
                     cfg: McConfig, mode: str = PER_FILTER) -> MomentReport:
    """First/second output moments and plug-in variance for one input."""
    if cfg.n_realizations < 2:
        raise ConfigError("plug-in variance needs at least two realizations")
    rng = cfg.rng()
    stack = sample_stack(gres, params.arch, cfg.n_realizations, rng, mode, cfg.antithetic)
    tape = forward_stack(params, stack, _single_input(x), keep_tape=False)
    phi = _phi(tape)[:, :, 0]                    # (N, n)
    m1 = phi.mean(axis=0)
    m2 = (phi * phi).mean(axis=0)
    per_node = plugin_variance(phi)
    return MomentReport(
        mean_cost=None,
        first_moment=float(m1.mean()),
        second_moment=float(m2.mean()),
        variance=float(per_node.mean()),
        per_node_variance=per_node,
        n_samples=cfg.n_realizations,
    )


def deviation_probability(params: SgnnParams, gres: GresModel, x: np.ndarray,
                          eps: float, m_realizations: int,
                          rng: np.random.Generator,
                          mode: str = PER_FILTER) -> float:
    """Empirical Pr[(1/n) ||Phi - E Phi||^2 <= eps].

    The reference expectation comes from an independent batch of the same
    size, so estimation error in the centre is itself Monte-Carlo noise.
    """
    if m_realizations < 100:
        raise ConfigError("need at least 100 realizations for a deviation probability")
    xb = _single_input(x)
    ref_stack = sample_stack(gres, params.arch, m_realizations, rng, mode)
    ref = _phi(forward_stack(params, ref_stack, xb, keep_tape=False))[:, :, 0].mean(axis=0)
    stack = sample_stack(gres, params.arch, m_realizations, rng, mode)
    phi = _phi(forward_stack(params, stack, xb, keep_tape=False))[:, :, 0]
    sq = np.mean((phi - ref) ** 2, axis=1)
    return float(np.mean(sq <= eps))


def mc_stderr(samples: np.ndarray) -> float:
    """Standard error of a Monte-Carlo mean."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        return float("nan")
    return float(np.std(samples, ddof=1) / math.sqrt(samples.size))


# ---------------------------------------------------------------------------
# Exhaustive enumeration oracles (small models only)
# ---------------------------------------------------------------------------


def enumerate_sequences(gres: GresModel, arch: Architecture, mode: str = PER_FILTER,
                        limit: int = 4096):
    """Yield (probability, one-sequence Realizations) over every realization sequence."""
    p = arch.shift_count(mode)
    bits, probs = enumerate_masks(gres)
    total = probs.size ** p
    if total > limit:
        raise GraphError(f"sequence space of size {total} exceeds enumeration limit")
    for combo in itertools.product(range(probs.size), repeat=p):
        prob = 1.0
        for c in combo:
            prob *= float(probs[c])
        yield prob, Realizations.from_rows(arch, mode, gres.n, bits[list(combo)], gres)


def enumerate_cost(params: SgnnParams, gres: GresModel, batch, loss,
                   mode: str = PER_FILTER) -> float:
    """Probability-weighted exact expected cost over all sequences."""
    total = 0.0
    for prob, seq in enumerate_sequences(gres, params.arch, mode):
        tape = forward_stack(params, seq, batch.x, keep_tape=False)
        pred = tape.logits if tape.logits is not None else _phi(tape)
        total += prob * float(loss.value(pred, batch))
    return total


def enumerate_moments(params: SgnnParams, gres: GresModel, x: np.ndarray,
                      mode: str = PER_FILTER):
    """Exact per-node first/second moments (and variance) by enumeration."""
    xb = _single_input(x)
    n = gres.n
    m1 = np.zeros(n)
    m2 = np.zeros(n)
    for prob, seq in enumerate_sequences(gres, params.arch, mode):
        phi = _phi(forward_stack(params, seq, xb, keep_tape=False))[0, :, 0]
        m1 += prob * phi
        m2 += prob * phi * phi
    per_node = np.maximum(m2 - m1 * m1, 0.0)
    return m1, m2, float(per_node.mean())


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

MOMENTS_COLUMNS = ["p", "q", "N", "mean_cost", "first_moment", "second_moment", "variance"]


def append_moments_row(path, p: float, q: float, report: MomentReport) -> None:
    """Append one verification row to moments.csv, creating the header once."""
    fresh = not os.path.exists(path)
    with open(path, "a", newline="") as f:
        writer = csv.writer(f)
        if fresh:
            writer.writerow(MOMENTS_COLUMNS)
        cost = "" if report.mean_cost is None else repr(report.mean_cost)
        writer.writerow([repr(p), repr(q), report.n_samples, cost,
                         repr(report.first_moment), repr(report.second_moment),
                         repr(report.variance)])

"""Runs one benchmark workload in this process and writes its result as JSON.

``run.py`` starts this script with BLAS pinned to one thread and passes the
clock reading taken just before the process was created, so set-up time
counts from the process's start.  It can also be imported: the tests call
``run_cell`` directly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
from dataclasses import dataclass, replace
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import probes  # noqa: E402
from sgnn import cli, experiments  # noqa: E402
from sgnn import rng as rngmod  # noqa: E402
from sgnn.estimators import sample_stack  # noqa: E402
from sgnn.model import Architecture, backward_stack, forward_stack  # noqa: E402
from sgnn.training import PRIMAL_DUAL  # noqa: E402


@dataclass(frozen=True)
class Workload:
    """One training cell; the fields the benchmark pins override the config."""

    config: str
    full: bool
    p: float
    arch: dict
    train: dict
    task: dict
    iters_per_s: float     # nominal rates that turn --seconds into a fixed amount of work
    draws_per_s: float
    calls_per_draw: int    # evaluation sample_stack calls in one draw


WORKLOADS = {
    "desk_source": Workload(
        "configs/source_localization.json", False, 0.05,
        dict(features=(1, 4, 1), order=4, activation="leaky_relu", readout=5),
        dict(n_realizations=10, batch_size=32, eta_primal=0.01),
        dict(n=50, desk_scale_factor=0.3),
        16.0, 20.0, 1),
    "full_source": Workload(
        "configs/source_localization.json", True, 0.05,
        dict(features=(1, 32, 1), order=8, activation="leaky_relu", readout=5),
        dict(n_realizations=10, batch_size=32, eta_primal=0.001),
        dict(n=50, desk_scale_factor=1.0),
        1.0, 0.5, 1),
    "recsys": Workload(
        "configs/recsys.json", False, 0.1,
        dict(features=(1, 8, 1), order=4, activation="leaky_relu"),
        dict(n_realizations=10, batch_size=32, eta_primal=0.01, loss="masked_mse"),
        dict(keep_top=35, add_next=20, max_samples=4000),
        4.0, 6.0, 2),
}


def work_size(name: str, seconds: float) -> tuple:
    """(iterations, evaluation draws) for a run of nominally ``seconds``."""
    wl = WORKLOADS[name]
    return max(4, round(seconds * wl.iters_per_s)), max(1, round(seconds * wl.draws_per_s))


def make_config(name: str, seed: int, iters: int, draws: int):
    wl = WORKLOADS[name]
    cfg = cli.parse_experiment_config(cli.load_config(os.path.join(ROOT, wl.config)),
                                      seed, wl.full)
    task_field = "recsys" if cfg.task == experiments.RECSYS else "source"
    return replace(
        cfg,
        arch=Architecture(**wl.arch),
        train=replace(cfg.train, max_iters=iters, mode=PRIMAL_DUAL, **wl.train),
        eval_draws=draws,
        **{task_field: replace(getattr(cfg, task_field), **wl.task)},
    )


@dataclass
class CellRun:
    name: str
    iters: int
    draws: int
    probe: probes.CellProbe
    tracer: probes.Tracer | None
    trace: object = None
    params: object = None
    cell_end: float = 0.0
    peak_rss_mb: float = 0.0


def run_cell(name: str, seed: int, iters: int, draws: int, traced: bool,
             ratings_path=None) -> CellRun:
    """Run the program's cell for one workload with the probes in place."""
    wl = WORKLOADS[name]
    cfg = make_config(name, seed, iters, draws)
    tracer = probes.Tracer() if traced else None
    run = CellRun(name, iters, draws, probes.CellProbe(tracer), tracer)
    patches = probes.Patches()
    if tracer is not None:
        tracer.install(patches)
    run.probe.install(patches)
    try:
        if cfg.task == experiments.RECSYS:
            ratings = experiments.load_movielens(ratings_path)
            _, run.trace, run.params, _ = experiments.run_recsys_cell(
                cfg, ratings, wl.p, PRIMAL_DUAL)
        else:
            _, run.trace, run.params, _ = experiments.run_source_cell(
                cfg, 0, wl.p, PRIMAL_DUAL)
        run.cell_end = perf_counter()
        run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        patches.restore()
    return run


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def draw_bounds(run: CellRun) -> list:
    starts = run.probe.draw_calls[::WORKLOADS[run.name].calls_per_draw]
    return list(zip(starts, starts[1:] + [run.cell_end]))


def end_to_end(run: CellRun, t0: float) -> dict:
    stamps = run.probe.iter_stamps
    draws = [b - a for a, b in draw_bounds(run)]
    return {
        "setup_s": (stamps[0] - t0, "s"),
        "train_iter_ms": (float(np.median(np.diff(stamps))) * 1e3, "ms"),
        "eval_draw_ms": (float(np.median(draws)) * 1e3, "ms"),
        "cell_s": (run.cell_end - stamps[0], "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def _union_length(intervals) -> float:
    total, reach = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def _iteration_layers(spans, start, end) -> dict:
    """Per-layer times (ms) inside one traced iteration."""
    def total(name, pick=lambda s: True):
        return sum(s[2] - s[1] for s in spans if s[0] == name and pick(s)) * 1e3

    samples = sorted(s[1] for s in spans if s[0] == "sample")
    dual_start = samples[-1] if samples else end
    append = [s[1] for s in spans if s[0] == "append"]
    dual_end = append[-1] if append else end
    top = [(s[1], s[2]) for s in spans
           if s[0] in ("sample", "forward", "backward", "loss", "optimizer")]
    top.append((dual_start, dual_end))
    return {
        "sample.ms": total("sample"),
        "sample.gres_ms": total("gres"),
        "sample.shift_mb": sum(s[3] for s in spans if s[0] == "sample") / 1e6,
        "forward.ms": total("forward", lambda s: s[1] < dual_start),
        "backward.ms": total("backward"),
        "dual_phase.ms": (dual_end - dual_start) * 1e3,
        "dual_phase.forward_ms": total("forward", lambda s: s[1] >= dual_start),
        "loss.ms": total("loss"),
        "optimizer.ms": total("optimizer"),
        "iter_other.ms": (end - start - _union_length(top)) * 1e3,
    }


def _self_times(spans) -> dict:
    """Set-up span durations with the set-up spans nested inside them removed."""
    out = {"setup.data_s": 0.0, "setup.graph_s": 0.0, "setup.task_s": 0.0}
    for s in spans:
        inner = sum(c[2] - c[1] for c in spans
                    if c is not s and s[1] <= c[1] and c[2] <= s[2])
        out[s[0] + "_s"] += s[2] - s[1] - inner
    return out


def per_layer(run: CellRun) -> dict:
    stamps = run.probe.iter_stamps
    spans = sorted(run.tracer.spans, key=lambda s: s[1])
    starts = np.array([s[1] for s in spans])
    where = np.searchsorted(stamps, starts, side="right") - 1

    traced_iters, plain_iters = [], []
    rows = []
    for t in range(1, len(stamps) - 1):
        (traced_iters if t % 2 else plain_iters).append(stamps[t + 1] - stamps[t])
        if t % 2:
            inside = [spans[k] for k in np.nonzero(where == t)[0]]
            rows.append(_iteration_layers(inside, stamps[t], stamps[t + 1]))
    out = {name: float(np.median([r[name] for r in rows])) for name in rows[0]}

    ru0, ru1 = run.probe.rusage
    n_iter = len(stamps) - 1
    out["faults_per_iter"] = (ru1.ru_minflt - ru0.ru_minflt) / n_iter
    out["sys_ms_per_iter"] = (ru1.ru_stime - ru0.ru_stime) / n_iter * 1e3

    draws = []
    for a, b in draw_bounds(run):
        inside = [s for s in spans if a <= s[1] < b]
        draws.append({f"eval.{kind}_ms": sum(s[2] - s[1] for s in inside
                                             if s[0] == f"eval.{kind}") * 1e3
                      for kind in ("sample", "forward", "score")})
    for name in draws[0]:
        out[name] = float(np.median([d[name] for d in draws]))

    out.update(_self_times([s for s in spans
                            if s[1] < stamps[0] and s[0].startswith("setup.")]))
    out["tracing_overhead_ms"] = (float(np.median(traced_iters))
                                  - float(np.median(plain_iters))) * 1e3
    units = {"sample.shift_mb": "MB", "faults_per_iter": "count"}
    return {k: (v, units.get(k, "s" if k.endswith("_s") else "ms")) for k, v in out.items()}


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------

CHECK_STREAM = 7919   # the checks' own random stream, apart from the cell's


def _objective(params, stack, batch):
    """Loss plus fixed first- and second-moment terms, and their upstreams."""
    a, b = 0.3, -0.2
    tape = forward_stack(params, stack, batch.x)
    phi = tape.output[:, 0]
    d_logits = None
    if tape.logits is not None:
        cost, d_logits = checks.cross_entropy(tape.logits, batch.y)
        d_phi = np.zeros_like(phi)
    else:
        cost, d_phi = checks.masked_mse(phi, batch.y, batch.mask)
    value = cost + a * float(np.mean(phi)) + b * float(np.mean(phi * phi))
    d_phi = d_phi + (a + 2.0 * b * phi) / phi.size
    return value, tape, d_phi[:, None], d_logits


def kink_signs(value, tape):
    """The objective value and the sign of every pre-activation."""
    return value, np.concatenate([(u > 0).ravel() for u in tape.preacts])


def run_checks(run: CellRun, seed: int, ratings_path=None) -> list:
    _, gres, dataset, tcfg = run.probe.train_args
    params, arch, mode = run.params, run.params.arch, tcfg.realization_mode
    rng = rngmod.derive(seed, CHECK_STREAM)
    failures = []
    if len(run.trace) != run.iters:
        failures.append(f"cell: {len(run.trace)} of {run.iters} iterations ran")
    if len(draw_bounds(run)) != run.draws:
        failures.append(f"cell: {len(draw_bounds(run))} of {run.draws} draws ran")

    def shifts_of(seq):
        f_in, f_out = arch.features[:-1], arch.features[1:]
        return [seq.shift(l, f, g, k) for l in range(arch.layers)
                for f in range(f_out[l]) for g in range(f_in[l])
                for k in range(1, arch.order + 1)]

    count = math.ceil(1024 / arch.shift_count(mode))
    stack = sample_stack(gres, arch, count, rng, mode)
    mats = np.stack([m for j in range(count) for m in shifts_of(stack.seq(j))])
    failures += checks.check_sampler(mats, gres.nominal.entries, gres.drop_edges,
                                     gres.add_edges, gres.p, gres.q)
    del stack, mats

    x = dataset.full_batch("test").x[:, :, :4]
    one = sample_stack(gres, arch, 1, rng, mode)
    tape = forward_stack(params, one, x)
    ref = checks.reference_forward(
        params.taps, params.readout_w, params.readout_b,
        checks.activation(arch.activation, arch.leaky_slope),
        one.seq(0).shift, x)
    failures += checks.check_forward(
        ref, tape.output[0], None if tape.logits is None else tape.logits[0])

    stack = sample_stack(gres, arch, 2, rng, mode)
    batch = dataset.sample_batch(rng, 4, "train")
    _, tape, d_out, d_logits = _objective(params, stack, batch)
    grad = backward_stack(tape, d_output=d_out, d_logits=d_logits).flatten()
    failures += checks.check_gradient(
        lambda theta: kink_signs(*_objective(params.unflatten(theta), stack, batch)[:2]),
        params.flatten(), grad, rng)

    failures += checks.check_duals(run.trace.rows, tcfg.c_f, tcfg.c_s, tcfg.eta_dual)
    failures += checks.check_moments(run.trace.rows)
    if run.probe.task is not None:
        failures += checks.check_recsys(run.probe.task, inputs.read_ratings(ratings_path),
                                        run.probe.ad_values)
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--ratings", default=None)
    ap.add_argument("--result", required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="perf_counter reading taken before this process was started")
    args = ap.parse_args(argv)
    iters, draws = work_size(args.workload, args.seconds)
    run = run_cell(args.workload, args.seed, iters, draws, bool(args.trace), args.ratings)
    metrics = per_layer(run) if args.trace else end_to_end(run, args.t0)
    failures = run_checks(run, args.seed, args.ratings)
    for f in failures:
        print(f"benchmark check failed: {f}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": iters + draws,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())

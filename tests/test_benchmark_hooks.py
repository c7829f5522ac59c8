"""The benchmark's hook points are names the program still has and still calls.

``benchmark/probes.py`` wraps module attributes from outside.  A name the
program inlines or stops looking up at call time would silently read zero in
the per-layer figures, so these tests install the hooks the benchmark
installs and check both that every one of them lands and that a traced cell
records a span for every layer.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from sgnn import estimators, experiments, training
from sgnn.experiments import ExperimentConfig, SourceLocConfig
from sgnn.model import Architecture
from sgnn.training import PRIMAL_DUAL, TrainConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmark"))
import probes  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    WORKLOADS = [w["name"] for w in json.load(_f)["workloads"]]

# Stale in the benchmark itself: estimators stopped calling sample_gres_batch
# when realizations became edge masks (the draw is graphs.sample_gres_masks).
KNOWN_MISSES = {"sgnn.estimators.sample_gres_batch"}


def _install(tracer, probe, run=lambda: None):
    """Install the benchmark's hooks, call ``run``, restore; returns stderr."""
    patches = probes.Patches()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            tracer.install(patches)
            probe.install(patches)
            run()
        finally:
            patches.restore()
    return err.getvalue()


def test_every_hook_point_is_found():
    tracer = probes.Tracer()
    err = _install(tracer, probes.CellProbe(tracer))
    missed = {line.split()[1] for line in err.splitlines() if "not hooked" in line}
    assert missed == KNOWN_MISSES
    assert training.sample_stack is estimators.sample_stack


def test_a_traced_cell_records_every_layer():
    cfg = ExperimentConfig(
        arch=Architecture((1, 2, 1), 2, readout=5),
        train=TrainConfig(max_iters=3, n_realizations=2, batch_size=4),
        source=SourceLocConfig(n=20, communities=5, split_sizes=(40, 8, 8)),
        eval_draws=2)
    tracer = probes.Tracer()
    probe = probes.CellProbe(tracer)
    _install(tracer, probe, lambda: experiments.run_source_cell(cfg, 0, 0.1, PRIMAL_DUAL))
    assert len(probe.iter_stamps) == 1 + 3
    assert len(probe.draw_calls) == 2
    assert {s[0] for s in tracer.spans} == {
        "sample", "forward", "backward", "loss", "optimizer", "append",
        "eval.sample", "eval.forward", "eval.score",
        "setup.data", "setup.graph", "setup.task"}
    # iteration 1 is the traced one: one objective pass (sample, forward, loss
    # value and gradient, backward, optimizer step), then the dual phase
    # (sample, forward, loss value) and the trace row
    start, end = probe.iter_stamps[1], probe.iter_stamps[2]
    assert Counter(s[0] for s in tracer.spans if start <= s[1] < end) == {
        "sample": 2, "forward": 2, "loss": 3, "backward": 1, "optimizer": 1, "append": 1}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_short_benchmark_run_is_correct(workload):
    """The whole benchmark, checks included, on a one-second run of the program."""
    run = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert json.loads(run.stdout.splitlines()[-1])["correct"] is True

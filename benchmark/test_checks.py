"""Each benchmark check passes on the program's output and fails on a corrupted copy.

    python3 -m pytest benchmark -q
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

import checks
import inputs
import worker
from sgnn import experiments, graphs
from sgnn.estimators import sample_stack
from sgnn.model import backward_stack, forward_stack


@pytest.fixture(scope="module")
def desk():
    """A short desk cell: its GRES model, dataset, trained parameters and trace."""
    return worker.run_cell("desk_source", 0, 8, 2, traced=False)


def test_traced_and_untraced_traces_are_byte_identical(desk, tmp_path):
    traced = worker.run_cell("desk_source", 0, 8, 2, traced=True)
    assert traced.tracer.spans
    desk.trace.to_csv(tmp_path / "plain.csv")
    traced.trace.to_csv(tmp_path / "traced.csv")
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "traced.csv").read_bytes()


def _gres_with_adds(p, q):
    rng = np.random.default_rng(5)
    g = graphs.sbm_generate(12, 3, 0.8, 0.2, rng)
    nominal = graphs.normalize_shift(graphs.build_shift(g, graphs.ADJACENCY))
    present = {(i, j) for i, j, _ in nominal.edges()}
    absent = [(i, j, 0.4) for i in range(12) for j in range(i + 1, 12)
              if (i, j) not in present][:6]
    return graphs.GresModel(nominal, drop_edges=nominal.edges(), add_edges=absent, p=p, q=q)


@pytest.mark.parametrize("swap", [False, True])
def test_sampler_check_fails_with_p_swapped(swap):
    model = _gres_with_adds(0.1, 0.2)
    drawn = _gres_with_adds(0.9, 0.8) if swap else model
    shifts = graphs.sample_gres_batch(drawn, 2000, np.random.default_rng(1))
    failures = checks.check_sampler(shifts, model.nominal.entries, model.drop_edges,
                                    model.add_edges, model.p, model.q)
    assert bool(failures) == swap


def test_sampler_check_passes_on_the_workload_model(desk):
    _, gres, _, _ = desk.probe.train_args
    shifts = graphs.sample_gres_batch(gres, 1500, np.random.default_rng(2))
    assert checks.check_sampler(shifts, gres.nominal.entries, gres.drop_edges,
                                gres.add_edges, gres.p, gres.q) == []


def _forward_case(desk):
    _, gres, dataset, _ = desk.probe.train_args
    params = desk.params
    x = dataset.full_batch("test").x[:, :, :3]
    stack = sample_stack(gres, params.arch, 1, np.random.default_rng(3))
    tape = forward_stack(params, stack, x)
    ref = checks.reference_forward(
        params.taps, params.readout_w, params.readout_b,
        checks.activation(params.arch.activation, params.arch.leaky_slope),
        stack.seq(0).shift, x)
    return ref, tape.output[0].copy(), tape.logits[0].copy()


def test_forward_check_fails_on_an_entry_moved_by_1e_6(desk):
    ref, out, logits = _forward_case(desk)
    assert checks.check_forward(ref, out, logits) == []
    moved = out.copy()
    moved[0, 7, 1] += 1e-6
    assert checks.check_forward(ref, moved, logits)
    moved = logits.copy()
    moved[2, 0] += 1e-6
    assert checks.check_forward(ref, out, moved)


def test_gradient_check_fails_on_one_perturbed_tap(desk):
    _, gres, dataset, _ = desk.probe.train_args
    params = desk.params
    rng = np.random.default_rng(4)
    stack = sample_stack(gres, params.arch, 2, rng)
    batch = dataset.sample_batch(rng, 4, "train")
    _, tape, d_out, d_logits = worker._objective(params, stack, batch)
    grads = backward_stack(tape, d_output=d_out, d_logits=d_logits)

    def objective(theta):
        return worker.kink_signs(*worker._objective(params.unflatten(theta), stack, batch)[:2])

    theta = params.flatten()
    assert checks.check_gradient(objective, theta, grads.flatten(),
                                 np.random.default_rng(6)) == []
    bad = grads.copy()
    bad.taps[0][2, 0, 3] += 1e-4
    assert checks.check_gradient(objective, theta, bad.flatten(), np.random.default_rng(6))


def test_dual_check_fails_on_one_altered_gamma(desk):
    _, _, _, cfg = desk.probe.train_args
    rows = desk.trace.rows
    assert checks.check_duals(rows, cfg.c_f, cfg.c_s, cfg.eta_dual) == []
    # a budget below every second moment, so the replayed gamma2 is active
    c_s = 0.5 * min(r["second_moment"] for r in rows)
    tight = [dict(r) for r in rows]
    g2 = 0.0
    for r in tight:
        g2 = max(0.0, g2 - cfg.eta_dual * (c_s - r["second_moment"]))
        r["gamma2"] = g2
    assert g2 > 0 and checks.check_duals(tight, cfg.c_f, c_s, cfg.eta_dual) == []
    for trace_rows, budget in ((rows, cfg.c_s), (tight, c_s)):
        altered = copy.deepcopy(trace_rows)
        altered[5]["gamma2"] += 1e-9
        assert checks.check_duals(altered, cfg.c_f, budget, cfg.eta_dual)


@pytest.mark.parametrize("column, value", [
    ("variance", -1e-9), ("gamma1", -1e-9), ("second_moment", 0.0), ("mean_cost", np.nan)])
def test_moment_check_fails_on_a_broken_row(desk, column, value):
    assert checks.check_moments(desk.trace.rows) == []
    rows = copy.deepcopy(desk.trace.rows)
    rows[3][column] = value
    if column == "second_moment":
        rows[3]["first_moment"] = 0.5
    assert checks.check_moments(rows)


@pytest.fixture(scope="module")
def recsys_task(tmp_path_factory):
    path = tmp_path_factory.mktemp("ratings") / "u.data"
    inputs.write_ratings(path, 3)
    ratings = experiments.load_movielens(path)
    task = experiments.build_recsys_task(ratings, experiments.RecsysConfig(max_samples=600))
    return task, inputs.read_ratings(path)


def test_recsys_check_fails_on_a_shifted_target_input_or_ad(recsys_task):
    task, ratings = recsys_task
    assert checks.check_recsys(task, ratings, [10, len(task.covered_items)]) == []
    k = int(task.dataset.splits["test"][4])
    node = int(task.sample_items[k])

    shifted = copy.deepcopy(task)
    shifted.dataset.labels[k, node] += 1.0
    assert checks.check_recsys(shifted, ratings, [12])

    leaked = copy.deepcopy(task)
    leaked.dataset.inputs[k, 0, node] = 0.5
    assert checks.check_recsys(leaked, ratings, [12])

    assert checks.check_recsys(task, ratings, [9])
    assert checks.check_recsys(task, ratings, [len(task.covered_items) + 1])


def test_gradient_check_redraws_directions_that_cross_a_kink():
    def objective(theta):
        return abs(theta[0]) + theta[1], theta[:1] > 0

    at_kink = np.zeros(2)
    assert checks.check_gradient(objective, at_kink, np.array([0.0, 1.0]),
                                 np.random.default_rng(0))
    away = np.array([1.0, 0.0])
    assert checks.check_gradient(objective, away, np.array([1.0, 1.0]),
                                 np.random.default_rng(0)) == []

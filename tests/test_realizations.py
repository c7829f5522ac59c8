"""Edge-mask realizations: same draws as a dense construction, no aliasing, thread safety."""

import copy
import os
import sys
import threading

import numpy as np
import pytest

from conftest import small_gres
from sgnn import graphs as G
from sgnn import rng as R
from sgnn import training
from sgnn.errors import ConfigError
from sgnn.estimators import sample_stack
from sgnn.model import (
    ACTIVATIONS,
    PER_FILTER,
    SHARED,
    Architecture,
    Realizations,
    backward_stack,
    forward_stack,
    init_params,
)
from sgnn.training import Batch, DualVars, TrainConfig, lagrangian, train


def dense_reference(gres, arch, count, rng, mode):
    """Per layer, the shifts drawn and built densely, one uniform per edge.

    Mirrors the sampling contract: per layer, all drop uniforms, then all add
    uniforms.
    """
    n = gres.n
    drops = set(gres.drop_edges)
    kept = [e for e in gres.nominal.edges() if e not in drops]
    layers = []
    for l in range(arch.layers):
        shape = (arch.features[l + 1], arch.features[l], arch.order) \
            if mode == PER_FILTER else (arch.order,)
        rows = count * int(np.prod(shape))
        a = np.zeros((rows, n, n))
        for i, j, w in kept:
            a[:, i, j] = a[:, j, i] = w
        if gres.m_drop:
            u = rng.random((rows, gres.m_drop))
            for t, (i, j, w) in enumerate(gres.drop_edges):
                a[:, i, j] = a[:, j, i] = np.where(u[:, t] >= gres.p, w, 0.0)
        if gres.m_add:
            u = rng.random((rows, gres.m_add))
            for t, (i, j, w) in enumerate(gres.add_edges):
                a[:, i, j] = a[:, j, i] = np.where(u[:, t] < gres.q, w, 0.0)
        if gres.nominal.kind == G.LAPLACIAN:
            lap = -a
            for r in range(rows):
                lap[r][np.diag_indices(n)] = a[r].sum(axis=1)
            a = lap
        layers.append(a.reshape((count,) + shape + (n, n)))
    return layers


@pytest.mark.parametrize("kind", G.KINDS)
@pytest.mark.parametrize("mode", [PER_FILTER, SHARED])
def test_sample_stack_matches_dense_construction(kind, mode):
    gres = small_gres(n=7, p=0.4, q=0.3, kind=kind, seed=2)
    assert gres.m_drop and gres.m_add
    arch = Architecture((1, 3, 2), 2)
    stacks, refs = [], []
    for seed in range(3):
        stacks.append(sample_stack(gres, arch, 3, np.random.default_rng(seed), mode))
        refs.append(dense_reference(gres, arch, 3, np.random.default_rng(seed), mode))
    # materialize in an order that makes every draw start from another's leftovers
    for s, ref in [(0, refs[0]), (1, refs[1]), (0, refs[0]), (2, refs[2]), (1, refs[1])]:
        for l in range(arch.layers):
            np.testing.assert_array_equal(stacks[s].dense(l), ref[l])
    seq = stacks[2].seq(1)
    for l, (f, g) in enumerate([(2, 0), (1, 2)]):
        for k in range(1, arch.order + 1):
            pos = (1, f, g, k - 1) if mode == PER_FILTER else (1, k - 1)
            np.testing.assert_array_equal(seq.shift(l, f, g, k), refs[2][l][pos])


def test_enumeration_walks_every_mask_once():
    gres = small_gres(n=6, p=0.3, q=0.2, kind=G.LAPLACIAN)
    pairs = list(G.enumerate_gres(gres))
    assert len(pairs) == 1 << (gres.m_drop + gres.m_add)
    assert sum(p for p, _ in pairs) == pytest.approx(1.0, abs=1e-15)
    assert len({m.tobytes() for _, m in pairs}) == len(pairs)
    for _, m in pairs:
        np.testing.assert_allclose(m.sum(axis=1), np.zeros(gres.n), atol=1e-12)


def _objective_grads(params, stack, x):
    tape = forward_stack(params, stack, x)
    return backward_stack(tape, d_output=np.ones_like(tape.output)).flatten()


def test_forward_on_another_stack_leaves_a_pending_backward_alone():
    gres = small_gres(n=8, p=0.4, q=0.3)
    arch = Architecture((1, 3, 1), 3, activation="leaky_relu")
    params = init_params(arch, np.random.default_rng(1))
    x = np.random.default_rng(2).normal(size=(1, gres.n, 5))
    a = sample_stack(gres, arch, 4, np.random.default_rng(3))
    b = sample_stack(gres, arch, 4, np.random.default_rng(4))
    alone = _objective_grads(params, a, x)
    shift_before = a.seq(2).shift(1, 0, 2, 3)

    tape_a = forward_stack(params, a, x)
    forward_stack(params, b, x)
    forward_stack(params, b, x, keep_tape=False)
    interleaved = backward_stack(tape_a, d_output=np.ones_like(tape_a.output)).flatten()
    np.testing.assert_array_equal(interleaved, alone)
    np.testing.assert_array_equal(a.seq(2).shift(1, 0, 2, 3), shift_before)


def test_pending_tapes_consumed_in_reverse_order_match_isolated_runs():
    gres = small_gres(n=8, p=0.4, q=0.3)
    arch = Architecture((1, 3, 1), 3, activation="leaky_relu")
    params = init_params(arch, np.random.default_rng(1))
    x = np.random.default_rng(2).normal(size=(1, gres.n, 5))
    a, b, c = (sample_stack(gres, arch, 4, np.random.default_rng(seed)) for seed in (3, 4, 5))
    alone = [_objective_grads(params, s, x) for s in (a, b)]

    tape_a = forward_stack(params, a, x)
    tape_b = forward_stack(params, b, x)
    grads_b = backward_stack(tape_b, d_output=np.ones_like(tape_b.output)).flatten()
    _objective_grads(params, c, x)       # borrows what tape_b gave back, not tape_a's
    grads_a = backward_stack(tape_a, d_output=np.ones_like(tape_a.output)).flatten()
    np.testing.assert_array_equal(grads_a, alone[0])
    np.testing.assert_array_equal(grads_b, alone[1])


def test_a_consumed_tape_is_refused_and_keeps_its_output():
    gres = small_gres(n=8, p=0.4, q=0.3)
    arch = Architecture((1, 3, 1), 2, readout=3)
    params = init_params(arch, np.random.default_rng(1), n=gres.n)
    x = np.random.default_rng(2).normal(size=(1, gres.n, 5))
    stack = sample_stack(gres, arch, 3, np.random.default_rng(3))
    tape = forward_stack(params, stack, x)
    output, logits = tape.output.copy(), tape.logits.copy()
    backward_stack(tape, d_logits=np.ones_like(tape.logits))
    with pytest.raises(ConfigError, match="no tape"):
        backward_stack(tape, d_logits=np.ones_like(tape.logits))
    for seed in (4, 5):      # later passes reuse the tape's buffers, not its output
        _objective_grads(params, sample_stack(gres, arch, 3, np.random.default_rng(seed)), x)
    np.testing.assert_array_equal(tape.output, output)
    np.testing.assert_array_equal(tape.logits, logits)


def test_repeated_lagrangians_reuse_one_tape_and_match_explicit_matrices(monkeypatch):
    gres = small_gres(n=8, p=0.4, q=0.3)
    arch = Architecture((1, 3, 1), 3, activation="leaky_relu", readout=4)
    params = init_params(arch, np.random.default_rng(1), n=gres.n)
    rng = np.random.default_rng(2)
    batch = Batch(np.moveaxis(rng.normal(size=(5, 1, gres.n)), 0, -1), rng.integers(0, 4, 5))
    cfg = TrainConfig(n_realizations=1, c_f=0.1, c_s=0.05)
    gamma = DualVars(0.3, 0.2)
    spares = gres.thread_cache("tapes")
    masks, held = [], []
    for seed in range(4):
        masks.append(lagrangian(params, gamma, gres, batch, cfg, np.random.default_rng(seed)))
        held.append([id(buf) for bufs in spares.values() for buf in bufs])
    # per layer the pre-activation and K hops, plus the inputs of layers >= 1
    assert len(held[0]) == arch.layers * (arch.order + 1) + arch.layers - 1
    assert held[1:] == held[:-1]

    def as_matrices(gres, arch, count, rng, mode):
        stack = sample_stack(gres, arch, count, rng, mode)
        # copies: each layer's shifts live in a workspace the next layer overwrites
        rows = np.concatenate([stack.dense(l).reshape(-1, gres.n, gres.n).copy()
                               for l in range(arch.layers)])
        return Realizations.from_rows(arch, mode, gres.n, rows)

    monkeypatch.setattr(training, "sample_stack", as_matrices)
    for seed, (value, grads) in enumerate(masks):
        want_value, want = lagrangian(params, gamma, gres, batch, cfg, np.random.default_rng(seed))
        assert value == want_value
        np.testing.assert_array_equal(grads.flatten(), want.flatten())


def test_a_lagrangian_writes_the_shared_workspace_once_per_layer(monkeypatch):
    # both layers hold 3 * K shifts and share one workspace; the backward pass
    # needs the last layer, which the forward pass left in it
    gres = small_gres(n=8, p=0.4, q=0.3)
    arch = Architecture((1, 3, 1), 3, activation="leaky_relu", readout=4)
    params = init_params(arch, np.random.default_rng(1), n=gres.n)
    rng = np.random.default_rng(2)
    batch = Batch(np.moveaxis(rng.normal(size=(5, 1, gres.n)), 0, -1), rng.integers(0, 4, 5))
    cfg = TrainConfig(n_realizations=2, c_f=0.1, c_s=0.05)
    write = G._Sampler.write
    writes = []
    monkeypatch.setattr(G._Sampler, "write",
                        lambda self, *args: writes.append(1) or write(self, *args))
    lagrangian(params, DualVars(0.3, 0.2), gres, batch, cfg, np.random.default_rng(0))
    for seed in range(1, 4):
        writes.clear()
        lagrangian(params, DualVars(0.3, 0.2), gres, batch, cfg, np.random.default_rng(seed))
        assert len(writes) == 2


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("mode", [PER_FILTER, SHARED])
def test_output_only_forward_is_bit_identical(activation, mode):
    gres = small_gres(n=9, p=0.3, q=0.2)
    arch = Architecture((2, 3, 2, 1), 2, activation=activation, readout=3)
    params = init_params(arch, np.random.default_rng(5), n=gres.n)
    rng = np.random.default_rng(6)
    # samples on the first axis, moved last: the layout the datasets hand out
    x = np.moveaxis(rng.normal(size=(7, 2, gres.n)), 0, -1)
    stacks = [sample_stack(gres, arch, 3, rng, mode) for _ in range(3)]
    kept = []
    for stack in stacks + stacks:
        taped = forward_stack(params, stack, x)
        free = forward_stack(params, stack, x, keep_tape=False)
        np.testing.assert_array_equal(free.output, taped.output)
        np.testing.assert_array_equal(free.logits, taped.logits)
        assert free.output.strides == taped.output.strides
        kept.append((free, taped.output.copy()))
    for free, want in kept:
        np.testing.assert_array_equal(free.output, want)
    with pytest.raises(ConfigError, match="no tape"):
        backward_stack(kept[0][0], d_logits=np.ones_like(kept[0][0].logits))


class RegressionData:
    """40 random (input, target) signal pairs on n nodes."""

    def __init__(self, n, rng):
        self.x = rng.normal(size=(40, 1, n))
        self.y = rng.normal(size=(40, n))

    def sample_batch(self, rng, size, split="train"):
        idx = rng.integers(0, 40, size=size)
        return Batch(np.moveaxis(self.x[idx], 0, -1), self.y[idx].T,
                     np.ones((self.y.shape[1], size)))


def test_train_leaves_no_buffers_on_the_thread():
    gres = small_gres(n=10, p=0.3, q=0.2)
    arch = Architecture((1, 3, 1), 3, activation="leaky_relu")
    cfg = TrainConfig(max_iters=3, n_realizations=4, batch_size=4, loss="masked_mse")
    caches = ("tapes", "scratch", "hops", "workspaces")
    during = []
    train(init_params(arch, np.random.default_rng(1)), gres,
          RegressionData(gres.n, np.random.default_rng(2)), cfg, R.root_rng(3),
          callback=lambda *_: during.append([len(gres.thread_cache(c)) for c in caches]))
    assert len(during) == 3 and all(all(sizes) for sizes in during)
    assert not any(gres.thread_cache(c) for c in caches)


def test_threads_training_on_one_model_match_serial_runs():
    gres = small_gres(n=10, p=0.3, q=0.2)
    arch = Architecture((1, 3, 1), 3, activation="leaky_relu")
    cfg = TrainConfig(max_iters=25, n_realizations=6, batch_size=4, loss="masked_mse",
                      eta_primal=0.01, c_s=0.05, realization_mode=PER_FILTER)
    data = RegressionData(gres.n, np.random.default_rng(7))

    def run(seed):
        params0 = init_params(arch, np.random.default_rng(seed))
        params, _, trace = train(params0, gres, data, cfg, R.root_rng(seed))
        return params.flatten(), [r["lagrangian"] for r in trace.rows]

    seeds = range(11, 11 + max(4, 2 * (os.cpu_count() or 1)))
    serial = [run(seed) for seed in seeds]
    results = [None] * len(serial)
    barrier = threading.Barrier(len(serial))

    def work(k):
        barrier.wait()
        results[k] = run(seeds[k])

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(serial))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, serial):
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]


def test_a_copied_model_gets_its_own_workspace():
    gres = small_gres(n=7, p=0.4, q=0.3)
    arch = Architecture((1, 2, 1), 2)
    sample_stack(gres, arch, 2, np.random.default_rng(8)).dense(0)
    twin = copy.deepcopy(gres)
    assert twin.thread_cache("workspaces") is not gres.thread_cache("workspaces")
    other = sample_stack(twin, arch, 2, np.random.default_rng(9))
    first = G.sample_gres_batch(gres, 8, np.random.default_rng(9))   # layer 0: 2 x 2 x 1 x 2 draws
    np.testing.assert_array_equal(other.dense(0).reshape(first.shape), first)

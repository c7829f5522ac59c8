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
    uniforms; a shared draw repeated over the bank.
    """
    n = gres.n
    drops = set(gres.drop_edges)
    kept = [e for e in gres.nominal.edges() if e not in drops]
    layers = []
    for l in range(arch.layers):
        bank = (arch.features[l + 1], arch.features[l])
        shape = (bank if mode == PER_FILTER else (1, 1)) + (arch.order,)
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
        a = a.reshape((count,) + shape + (n, n))
        layers.append(np.broadcast_to(a, (count,) + bank + a.shape[-3:]))
    return layers


@pytest.mark.parametrize("mode", [PER_FILTER, SHARED])
def test_sample_stack_matches_dense_construction(mode):
    gres = small_gres(n=7, p=0.4, q=0.3, seed=2)
    assert gres.m_drop and gres.m_add
    arch = Architecture((1, 3, 2), 2)
    stacks, refs = [], []
    for seed in range(3):
        stacks.append(sample_stack(gres, arch, 3, np.random.default_rng(seed), mode))
        refs.append(dense_reference(gres, arch, 3, np.random.default_rng(seed), mode))
    # materialize in an order that makes every draw start from another's leftovers
    for s, ref in [(0, refs[0]), (1, refs[1]), (0, refs[0]), (2, refs[2]), (1, refs[1])]:
        for l in range(arch.layers):
            bits = stacks[s].layers[l]
            np.testing.assert_array_equal(
                gres.realize(bits.reshape(-1, bits.shape[-1])).reshape(ref[l].shape), ref[l])
            workspace = gres.layout.unpack(stacks[s].hops(l))     # hop first
            np.testing.assert_array_equal(np.moveaxis(workspace, 0, -3), ref[l])
    seq = stacks[2].seq(1)
    for l, (f, g) in enumerate([(2, 0), (1, 2)]):
        for k in range(1, arch.order + 1):
            np.testing.assert_array_equal(seq.shift(l, f, g, k), refs[2][l][1, f, g, k - 1])


def test_enumeration_walks_every_mask_once():
    gres = small_gres(n=6, p=0.3, q=0.2)
    pairs = list(G.enumerate_gres(gres))
    assert len(pairs) == 1 << (gres.m_drop + gres.m_add)
    assert sum(p for p, _ in pairs) == pytest.approx(1.0, abs=1e-15)
    assert len({m.tobytes() for _, m in pairs}) == len(pairs)


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
    # per layer the pre-activation and the hop buffer, plus the inputs of layers >= 1
    assert len(held[0]) == arch.layers * 2 + arch.layers - 1
    assert held[1:] == held[:-1]

    def as_matrices(gres, arch, count, rng, mode):
        stack = sample_stack(gres, arch, count, rng, mode)
        bits = np.concatenate([a.reshape(-1, a.shape[-1]) for a in stack.layers])
        return Realizations.from_rows(arch, gres.n, gres.realize(bits))

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
    # samples on the first axis, moved last: a view in another layout than the tape's
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
    sample_stack(gres, arch, 2, np.random.default_rng(8)).hops(0)
    twin = copy.deepcopy(gres)
    assert twin.thread_cache("workspaces") is not gres.thread_cache("workspaces")
    other = sample_stack(twin, arch, 2, np.random.default_rng(9))
    first = G.sample_gres_batch(gres, 8, np.random.default_rng(9))   # layer 0: 2 x 2 x 1 x 2 draws
    bits = other.layers[0]
    np.testing.assert_array_equal(twin.realize(bits.reshape(8, -1)), first)
    workspace = twin.layout.unpack(other.hops(0))
    np.testing.assert_array_equal(np.moveaxis(workspace, 0, -3).reshape(first.shape), first)


# ---------------------------------------------------------------------------
# Shifts applied as the blocks of the connected components
# ---------------------------------------------------------------------------


def forest_gres(p=0.4, q=0.3):
    """Components of sizes 1, 2, 3 and 4 over scattered labels, with drop and add edges.

    Nodes 8, 10 and 13 are isolated; {6, 12} is joined by an add edge only.
    """
    rng = np.random.default_rng(21)
    nominal = [(0, 5), (1, 7), (2, 9), (9, 11), (4, 11)]
    graph = G.Graph(14, tuple((i, j, float(w)) for (i, j), w
                              in zip(nominal, rng.uniform(0.2, 1.0, len(nominal)))))
    shift = G.build_shift(graph)
    adds = ((3, 7, 0.6), (2, 4, 0.4), (6, 12, 0.8))
    return G.GresModel(shift, drop_edges=shift.edges()[::2], add_edges=adds, p=p, q=q)


def sbm_gres():
    g = G.sbm_generate(12, 3, 0.9, 0.3, np.random.default_rng(4))
    s = G.normalize_shift(G.build_shift(g))
    pairs = {(i, j) for i, j, _ in s.edges()}
    absent = [(i, j) for i in range(12) for j in range(i + 1, 12) if (i, j) not in pairs]
    return G.GresModel(s, drop_edges=s.edges()[::2], add_edges=tuple(
        (i, j, 0.3) for i, j in absent[:4]), p=0.3, q=0.2)


def as_explicit(stack):
    """The same realizations as explicit dense matrices, one block of size n."""
    gres = stack.gres
    layers = [gres.realize(a.reshape(-1, a.shape[-1])).reshape(a.shape[:-1] + (gres.n, gres.n))
              for a in stack.layers]
    return Realizations(layers, gres.n)


def test_the_layout_groups_components_by_size_in_label_order():
    layout = forest_gres().layout
    assert layout.classes == ((1, 3, 0, 0), (2, 2, 3, 3), (3, 1, 7, 11), (4, 1, 10, 20))
    np.testing.assert_array_equal(layout.perm, [8, 10, 13, 0, 5, 6, 12, 1, 3, 7, 2, 4, 9, 11])
    np.testing.assert_array_equal(layout.perm[layout.inverse], np.arange(14))
    assert layout.width == 3 + 2 * 4 + 9 + 16 and not layout.identity
    connected = sbm_gres().layout
    assert connected.classes == ((12, 1, 0, 0),)
    np.testing.assert_array_equal(connected.perm, np.arange(12))
    assert connected.identity


@pytest.mark.parametrize("count", [1, 10])
@pytest.mark.parametrize("mode", [PER_FILTER, SHARED])
@pytest.mark.parametrize("make", [sbm_gres, forest_gres])
def test_block_products_match_explicit_dense_shifts(make, mode, count):
    gres = make()
    assert gres.m_drop and gres.m_add
    arch = Architecture((2, 3, 1), 3, activation="leaky_relu", readout=4)
    params = init_params(arch, np.random.default_rng(5), n=gres.n)
    rng = np.random.default_rng(6)
    x = np.moveaxis(rng.normal(size=(7, 2, gres.n)), 0, -1)
    stacks = [sample_stack(gres, arch, count, rng, mode) for _ in range(3)]
    wide = rng.normal(size=(2, gres.n, 3 * gres.n + 1))   # tape-free: each filter's matrix
    for stack in stacks + stacks[::-1]:      # each draw starts from another's leftovers
        dense = as_explicit(stack)
        for batch, keep_tape in ((wide, True), (wide, False), (x, True), (x, False)):
            got = forward_stack(params, stack, batch, keep_tape)
            want = forward_stack(params, dense, batch, keep_tape)
            np.testing.assert_array_equal(got.output, want.output)
            np.testing.assert_array_equal(got.logits, want.logits)
        upstream = np.cos(got.logits)
        got_g = backward_stack(forward_stack(params, stack, x), d_logits=upstream).flatten()
        want_g = backward_stack(forward_stack(params, dense, x), d_logits=upstream).flatten()
        assert np.max(np.abs(got_g - want_g)) <= 1e-12 * np.max(np.abs(want_g))


@pytest.mark.parametrize("make", [sbm_gres, forest_gres])
def test_wide_passes_on_one_input_feature_match_explicit_dense_shifts(make):
    # with F_in = 1 a layer's filter products go straight into its pre-activation
    gres = make()
    arch = Architecture((1, 3, 2, 1), 3, activation="leaky_relu", readout=4)
    params = init_params(arch, np.random.default_rng(5), n=gres.n)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(1, gres.n, gres.n))
    for count in (1, 10):
        stack = sample_stack(gres, arch, count, rng)
        got = forward_stack(params, stack, x, keep_tape=False)
        want = forward_stack(params, as_explicit(stack), x, keep_tape=False)
        np.testing.assert_array_equal(got.output, want.output)
        np.testing.assert_array_equal(got.logits, want.logits)


def test_isolated_nodes_hop_to_positive_zero():
    gres = forest_gres()
    arch = Architecture((1, 2, 1), 3)
    params = init_params(arch, np.random.default_rng(1))
    x = -np.abs(np.random.default_rng(2).normal(size=(1, gres.n, 5))) - 1.0
    tape = forward_stack(params, sample_stack(gres, arch, 4, np.random.default_rng(3)), x)
    size, count, node, _ = gres.layout.classes[0]
    assert size == 1 and count == 3
    for hops in tape.shifted:
        assert hops.shape[3] == arch.order
        rows = hops[..., node:node + count, :]
        assert np.all(rows == 0.0) and not np.signbit(rows).any()


def test_the_recsys_workspace_holds_only_the_blocks(tmp_path):
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "benchmark"))
    import inputs
    from sgnn import experiments as X

    path = tmp_path / "u.data"
    inputs.write_ratings(path, inputs.DATA_SEED)
    task = X.build_recsys_task(X.load_movielens(path), X.RecsysConfig(35, 20, 4000), 0.1)
    gres, n = task.gres, task.gres.n
    arch = Architecture((1, 8, 1), 4, activation="leaky_relu")
    params = init_params(arch, np.random.default_rng(0))
    forward_stack(params, sample_stack(gres, arch, 10, np.random.default_rng(1)),
                  task.dataset.full_batch("test").x[:, :, :32], keep_tape=False)
    blocks = sum(count * size * size for size, count, _, _ in gres.layout.classes)
    assert 20 * blocks < n * n
    workspaces = gres.thread_cache("workspaces")
    assert {rows: ws[0].shape for rows, ws in workspaces.items()} == {320: (320, blocks)}
    assert workspaces[320][0].nbytes == 320 * blocks * 8


@pytest.mark.parametrize("readout", [4, None])
@pytest.mark.parametrize("make", [forest_gres, sbm_gres])
def test_the_passes_do_not_depend_on_the_input_layout(make, readout):
    # (F_in, F_out) is (2, 3) and then (3, 2); without a readout the upstream
    # is the masked-MSE gradient, as on the recommender task
    gres = make()
    arch = Architecture((2, 3, 2), 3, activation="leaky_relu", readout=readout)
    params = init_params(arch, np.random.default_rng(5), n=gres.n)
    rng = np.random.default_rng(6)
    samples, targets = rng.normal(size=(5, 2, gres.n)), rng.normal(size=(5, gres.n))
    masks = (rng.random((5, gres.n)) < 0.5).astype(float)
    stack = sample_stack(gres, arch, 3, rng)
    loss = training.Loss("masked_mse")
    results = []
    for order in (np.ascontiguousarray, lambda a: a):     # a sample-major moveaxis view
        def sample_last(a):
            return order(np.moveaxis(a, 0, -1))
        batch = Batch(sample_last(samples), sample_last(targets), sample_last(masks))
        assert batch.x.flags.c_contiguous == (order is np.ascontiguousarray)
        tape = forward_stack(params, stack, batch.x)
        for a in tape.layer_inputs + tape.shifted + tape.preacts + [tape.output]:
            assert a.flags.c_contiguous
        output, logits = tape.output.copy(), tape.logits
        if readout:
            grads = backward_stack(tape, d_logits=np.cos(tape.logits))
        else:
            upstream = loss.grad(tape.output[:, 0], batch)[:, None]
            grads = backward_stack(tape, d_output=upstream)
        results.append((output, logits, grads.flatten()))
    for got, want in zip(*results):
        np.testing.assert_array_equal(got, want)

import numpy as np
import pytest

from conftest import random_seq, random_symmetric, small_gres
from sgnn import model as M
from sgnn.errors import ConfigError, NumericalError
from sgnn.estimators import sample_stack


def scalar_forward(params, seq, x):
    """Straight-line per-filter reimplementation used as the oracle."""
    arch = params.arch
    act = {
        "relu": lambda u: np.maximum(u, 0.0),
        "leaky_relu": lambda u: np.where(u > 0, u, arch.leaky_slope * u),
        "abs": np.abs,
        "identity": lambda u: u,
    }[arch.activation]
    cur = [x[g] for g in range(x.shape[0])]
    for l, taps in enumerate(params.taps):
        nxt = []
        for f in range(taps.shape[0]):
            u = np.zeros_like(cur[0])
            for g in range(taps.shape[1]):
                z = cur[g]
                u = u + taps[f, g, 0] * z
                for k in range(1, taps.shape[2]):
                    z = seq.shift(l, f, g, k) @ z
                    u = u + taps[f, g, k] * z
            nxt.append(act(u))
        cur = nxt
    return np.stack(cur)


def filter_output(h, shifts, x):
    """One filter with taps ``h`` over ``shifts``: a (1, 1) identity-activation network."""
    h = np.asarray(h, dtype=float)
    arch = M.Architecture((1, 1), h.size - 1, activation="identity")
    params = M.SgnnParams(arch, [h[None, None]])
    n = len(shifts[0]) if len(shifts) else x.shape[0]
    seq = M.Realizations.from_rows(arch, n, shifts)
    return M.forward_stack(params, seq, x[None, :, None]).output[0, 0, :, 0]


@pytest.mark.parametrize("slope", [-0.3, 0.0, 0.01, 0.2, 1.0, 1.5, 3.0])
def test_leaky_relu_is_bitwise_the_masked_multiply(slope, rng):
    tiny = np.finfo(float).smallest_subnormal
    edges = [0.0, -0.0, tiny, -tiny, 7 * tiny, -7 * tiny, 2e-308, -2e-308, 1e300, -1e300]
    u = np.concatenate([edges, rng.normal(size=500)]).reshape(2, 5, 51)
    want = u.copy()
    np.multiply(want, slope, out=want, where=want <= 0)
    arch = M.Architecture((1, 1), 0, activation="leaky_relu", leaky_slope=slope)
    act, _ = M._activation_fns(arch)
    got = u.copy()
    assert act(got) is got
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("slope", [0.01, -0.3, 1.9999, -1.9999, 3.0])
def test_leaky_relu_derivative_is_bitwise_the_masked_fill(slope, rng):
    tiny = np.finfo(float).smallest_subnormal
    edges = [0.0, -0.0, tiny, -tiny, 7 * tiny, -7 * tiny, 2e-308, -2e-308, np.nan, -np.inf]
    u = np.concatenate([edges, rng.normal(size=500)]).reshape(2, 5, 51)
    want = np.full_like(u, slope)
    np.copyto(want, 1.0, where=u > 0)
    _, deriv = M._activation_fns(
        M.Architecture((1, 1), 0, activation="leaky_relu", leaky_slope=slope))
    out = np.full_like(u, np.nan)
    assert deriv(u, out) is out
    np.testing.assert_array_equal(out.view(np.int64), want.view(np.int64))


class TestFilterApply:
    def test_order_zero_scales_input(self, rng):
        x = rng.normal(size=5)
        np.testing.assert_allclose(filter_output([2.5], [], x), 2.5 * x)

    def test_identity_shift_passthrough(self, rng):
        x = rng.normal(size=4)
        y = filter_output([0.0, 1.0], [np.eye(4)], x)
        np.testing.assert_allclose(y, x)

    def test_matches_dense_polynomial(self, rng):
        n = 5
        s1, s2 = random_symmetric(n, rng), random_symmetric(n, rng)
        h = rng.normal(size=3)
        x = rng.normal(size=n)
        dense = h[0] * np.eye(n) + h[1] * s1 + h[2] * (s2 @ s1)
        np.testing.assert_allclose(filter_output(h, [s1, s2], x), dense @ x, atol=1e-12)

    def test_linear_in_input_and_coeffs(self, rng):
        n = 4
        shifts = [random_symmetric(n, rng) for _ in range(2)]
        h = rng.normal(size=3)
        x, y = rng.normal(size=n), rng.normal(size=n)
        lhs = filter_output(h, shifts, 2.0 * x + y)
        rhs = 2.0 * filter_output(h, shifts, x) + filter_output(h, shifts, y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
        lhs_c = filter_output(3.0 * h, shifts, x)
        np.testing.assert_allclose(lhs_c, 3.0 * filter_output(h, shifts, x), atol=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ConfigError, match="input shape"):
            filter_output([1.0, 1.0], [np.eye(3)], np.zeros(4))


class TestForward:
    def test_single_tap_identity_network(self, rng):
        arch = M.Architecture((1, 1), 0, activation="identity")
        params = M.SgnnParams(arch, [np.array([[[0.7]]])])
        seq = random_seq(arch, 6, rng)
        x = rng.normal(size=6)
        out = M.forward_stack(params, seq, x[None, :, None]).output
        np.testing.assert_allclose(out[0, 0, :, 0], 0.7 * x)

    @pytest.mark.parametrize("activation", M.ACTIVATIONS)
    def test_zero_input_zero_output(self, rng, activation):
        arch = M.Architecture((1, 3, 1), 2, activation=activation)
        params = M.init_params(arch, rng)
        seq = random_seq(arch, 5, rng)
        out = M.forward_stack(params, seq, np.zeros((1, 5, 1))).output
        np.testing.assert_array_equal(out, np.zeros((1, 1, 5, 1)))

    @pytest.mark.parametrize("activation", M.ACTIVATIONS)
    def test_matches_scalar_loop(self, rng, activation):
        arch = M.Architecture((2, 2, 2), 2, activation=activation)
        params = M.init_params(arch, rng)
        seq = random_seq(arch, 6, rng)
        x = rng.normal(size=(2, 6))
        out = M.forward_stack(params, seq, x[:, :, None]).output[0]
        ref = scalar_forward(params, seq, x[:, :, None])
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_shared_mode_matches_scalar_loop(self, rng):
        arch = M.Architecture((1, 3, 1), 3, activation="relu")
        params = M.init_params(arch, rng)
        seq = random_seq(arch, 5, rng, mode=M.SHARED)
        x = rng.normal(size=(1, 5))
        out = M.forward_stack(params, seq, x[:, :, None]).output[0]
        ref = scalar_forward(params, seq, x[:, :, None])
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_deterministic_given_same_sequence(self, rng):
        arch = M.Architecture((1, 2, 1), 2)
        params = M.init_params(arch, rng)
        seq = random_seq(arch, 5, rng)
        x = rng.normal(size=(1, 5, 1))
        a = M.forward_stack(params, seq, x).output
        b = M.forward_stack(params, seq, x).output
        np.testing.assert_array_equal(a, b)

    def test_tape_replays_bit_identically(self, rng):
        arch = M.Architecture((1, 2, 1), 2, activation="leaky_relu")
        params = M.init_params(arch, rng)
        seq = random_seq(arch, 5, rng)
        x = rng.normal(size=(1, 5, 1))
        t_a, t_b = [M.forward_stack(params, seq, x) for _ in range(2)]
        for l in range(arch.layers):
            np.testing.assert_array_equal(t_a.preacts[l], t_b.preacts[l])
            np.testing.assert_array_equal(t_a.layer_inputs[l], t_b.layer_inputs[l])
            assert t_a.shifted[l].shape == (1, arch.features[l + 1], arch.features[l], 2, 5, 1)
            np.testing.assert_array_equal(t_a.shifted[l], t_b.shifted[l])
        np.testing.assert_array_equal(t_a.output, t_b.output)

    def test_positively_homogeneous_halving(self, rng):
        for activation in ("relu", "leaky_relu", "abs"):
            arch = M.Architecture((1, 2, 1), 2, activation=activation)
            params = M.init_params(arch, rng)
            seq = random_seq(arch, 5, rng)
            x = rng.normal(size=(1, 5, 1))
            full = M.forward_stack(params, seq, x).output
            half = M.forward_stack(params, seq, x / 2.0).output
            np.testing.assert_allclose(half, full / 2.0, atol=1e-12)

    def test_readout_shapes_and_flatten(self, rng):
        arch = M.Architecture((1, 2, 1), 1, readout=4)
        params = M.init_params(arch, rng, n=5)
        seq = random_seq(arch, 5, rng)
        tape = M.forward_stack(params, seq, rng.normal(size=(1, 5, 1)))
        assert tape.logits.shape == (1, 4, 1)
        manual = params.readout_w @ tape.output[0].reshape(-1) + params.readout_b
        np.testing.assert_allclose(tape.logits[0, :, 0], manual, atol=1e-12)

    def test_nonfinite_reports_layer(self, rng):
        arch = M.Architecture((1, 1, 1), 1, activation="identity")
        taps = [np.array([[[0.0, 1e308]]]), np.array([[[0.0, 1e308]]])]
        params = M.SgnnParams(arch, taps)
        seq = random_seq(arch, 4, rng, scale=1e10)
        with pytest.raises(NumericalError, match="layer"):
            M.forward_stack(params, seq, np.full((1, 4, 1), 1e30))


class TestBackward:
    def test_linear_least_squares_gradient(self, rng):
        # y = h0 x, loss = 0.5 ||y - t||^2  =>  d loss / d h0 = x.(y - t)
        arch = M.Architecture((1, 1), 0, activation="identity")
        params = M.SgnnParams(arch, [np.array([[[0.8]]])])
        seq = random_seq(arch, 6, rng)
        x, t = rng.normal(size=6), rng.normal(size=6)
        tape = M.forward_stack(params, seq, x[None, :, None])
        y = tape.output[0, 0, :, 0]
        grads = M.backward_stack(tape, d_output=(y - t)[None, None, :, None])
        assert grads.taps[0][0, 0, 0] == pytest.approx(float(x @ (y - t)))

    def test_zero_upstream_zero_gradients(self, rng):
        arch = M.Architecture((1, 2, 1), 2, readout=3)
        params = M.init_params(arch, rng, n=5)
        tape = M.forward_stack(params, random_seq(arch, 5, rng), rng.normal(size=(1, 5, 1)))
        grads = M.backward_stack(tape, d_logits=np.zeros((1, 3, 1)))
        assert all(np.all(a == 0) for a in grads.arrays())

    @pytest.mark.parametrize("activation", M.ACTIVATIONS)
    def test_finite_difference_all_activations(self, rng, activation):
        arch = M.Architecture((1, 3, 2, 1), 3, activation=activation, readout=2)
        n = 8
        params = M.init_params(arch, rng, n=n)
        seq = random_seq(arch, n, rng)
        x = rng.normal(size=(1, n, 1))
        t = rng.normal(size=(1, 2, 1))

        def loss_of(p):
            out = M.forward_stack(p, seq, x).logits
            return 0.5 * float(np.sum((out - t) ** 2))

        tape = M.forward_stack(params, seq, x)
        grads = M.backward_stack(tape, d_logits=tape.logits - t).flatten()
        flat = params.flatten()
        num = np.zeros_like(flat)
        h = 1e-5
        for i in range(flat.size):
            e = np.zeros_like(flat)
            e[i] = h
            num[i] = (loss_of(params.unflatten(flat + e)) - loss_of(params.unflatten(flat - e))) / (2 * h)
        denom = np.maximum(np.abs(num) + np.abs(grads), 1e-6)
        assert np.max(np.abs(num - grads) / denom) < 1e-5

    def test_shared_mode_finite_difference(self, rng):
        arch = M.Architecture((1, 2, 1), 2, activation="leaky_relu")
        n = 6
        params = M.init_params(arch, rng)
        seq = random_seq(arch, n, rng, mode=M.SHARED)
        x = rng.normal(size=(1, n, 1))
        t = rng.normal(size=(1, 1, n, 1))

        def loss_of(p):
            out = M.forward_stack(p, seq, x).output
            return 0.5 * float(np.sum((out - t) ** 2))

        tape = M.forward_stack(params, seq, x)
        grads = M.backward_stack(tape, d_output=tape.output - t).flatten()
        flat = params.flatten()
        num = np.zeros_like(flat)
        for i in range(flat.size):
            e = np.zeros_like(flat)
            e[i] = 1e-5
            num[i] = (loss_of(params.unflatten(flat + e)) - loss_of(params.unflatten(flat - e))) / 2e-5
        denom = np.maximum(np.abs(num) + np.abs(grads), 1e-6)
        assert np.max(np.abs(num - grads) / denom) < 1e-5

    def test_stale_tape_detected(self, rng):
        arch = M.Architecture((1, 1, 1), 1)
        params = M.init_params(arch, rng)
        tape = M.forward_stack(params, random_seq(arch, 4, rng), rng.normal(size=(1, 4, 1)))
        tape.params = params.replace_arrays([a.copy() for a in params.arrays()])
        with pytest.raises(NumericalError, match="stale"):
            M.backward_stack(tape, d_output=np.ones_like(tape.output))


# (features, order, readout): an empty hop buffer, order >= 2 with F_in > 1, a readout
BATCHED_CASES = [((1, 1), 0, None), ((2, 3, 2), 2, None), ((1, 3, 2, 1), 3, 2)]


def batched_case(rng, features, order, readout, stacked, batch=4):
    """A network, its realizations and a batch of B inputs on 6 nodes: one
    sequence of explicit matrices, or three GRES sequences."""
    arch = M.Architecture(features, order, activation="leaky_relu", readout=readout)
    params = M.init_params(arch, rng, n=6)
    seq = sample_stack(small_gres(n=6), arch, 3, rng) if stacked else random_seq(arch, 6, rng)
    return params, seq, rng.normal(size=(features[0], 6, batch))


class TestBatchedContraction:
    """The stacked hop buffer and the tap contractions over it, at B = 4."""

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("features,order,readout", BATCHED_CASES)
    def test_matches_scalar_loop(self, rng, features, order, readout, stacked):
        params, stack, x = batched_case(rng, features, order, readout, stacked)
        tape = M.forward_stack(params, stack, x)
        for j in range(stack.count):
            seq = stack.seq(j)
            np.testing.assert_allclose(tape.output[j], scalar_forward(params, seq, x), atol=1e-12)
            for l, hops in enumerate(tape.shifted):   # hop k of filter (f, g) at [:, f, g, k - 1]
                assert hops.shape == (stack.count,) + params.taps[l].shape[:2] + (order, 6, 4)
                for f, g in np.ndindex(*params.taps[l].shape[:2]):
                    z = tape.layer_inputs[l][min(j, len(tape.layer_inputs[l]) - 1), g]
                    for k in range(1, order + 1):
                        z = seq.shift(l, f, g, k) @ z
                        np.testing.assert_allclose(hops[j, f, g, k - 1], z, atol=1e-12)

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("features,order,readout", BATCHED_CASES)
    def test_finite_difference(self, rng, features, order, readout, stacked):
        params, stack, x = batched_case(rng, features, order, readout, stacked)

        def prediction(p):
            tape = M.forward_stack(p, stack, x)
            return tape, tape.logits if readout else tape.output

        tape, pred = prediction(params)
        t = rng.normal(size=pred.shape)
        upstream = {"d_logits" if readout else "d_output": pred - t}
        grads = M.backward_stack(tape, **upstream).flatten()
        flat = params.flatten()
        num = np.zeros_like(flat)
        for i in range(flat.size):
            e = np.zeros_like(flat)
            e[i] = 1e-5
            plus, minus = (0.5 * float(np.sum((prediction(params.unflatten(flat + d))[1] - t) ** 2))
                           for d in (e, -e))
            num[i] = (plus - minus) / 2e-5
        denom = np.maximum(np.abs(num) + np.abs(grads), 1e-6)
        assert np.max(np.abs(num - grads) / denom) < 1e-5


# a single hop and no products of shifts, then order >= 2 with F_in > 1, with and without a readout
WIDE_CASES = [((2, 2), 1, None)] + BATCHED_CASES[1:]


class TestWideBatches:
    """Tape-free passes over B >= n columns apply each filter's matrix
    h_0 I + sum_k h_k S_k ... S_1; narrower and taped passes hop."""

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("batch", [6, 19])       # B = n and B = 3n + 1
    @pytest.mark.parametrize("features,order,readout", WIDE_CASES)
    def test_matches_the_taped_pass_and_the_scalar_loop(self, rng, features, order, readout,
                                                         stacked, batch):
        params, stack, x = batched_case(rng, features, order, readout, stacked, batch)
        free = M.forward_stack(params, stack, x, keep_tape=False)
        taped = M.forward_stack(params, stack, x)
        for got, want in ((free.output, taped.output), (free.logits, taped.logits)):
            if want is not None:
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        for j in range(stack.count):
            np.testing.assert_allclose(free.output[j], scalar_forward(params, stack.seq(j), x),
                                       atol=1e-12)

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("features,order,readout", WIDE_CASES)
    def test_below_n_columns_the_tape_free_pass_is_the_taped_one(self, rng, features, order,
                                                                  readout, stacked):
        params, stack, x = batched_case(rng, features, order, readout, stacked, batch=5)
        free = M.forward_stack(params, stack, x, keep_tape=False)
        taped = M.forward_stack(params, stack, x)
        np.testing.assert_array_equal(free.output, taped.output)
        np.testing.assert_array_equal(free.logits, taped.logits)

    @pytest.mark.parametrize("shape", [(1, 9), (1, 9, 9, 2)])
    def test_input_must_be_three_dimensional(self, rng, shape):
        arch = M.Architecture((1, 2, 1), 2)
        params = M.init_params(arch, rng)
        stack = sample_stack(small_gres(n=9), arch, 1, rng)
        for keep_tape in (True, False):
            with pytest.raises(ConfigError, match="input shape"):
                M.forward_stack(params, stack, np.ones(shape), keep_tape)


class TestFrequencyResponse:
    def test_all_ones_sums_coefficients(self, rng):
        h = rng.normal(size=5)
        val = M.frequency_response(h, np.ones(4))
        assert val == pytest.approx(float(h.sum()))

    def test_linear_tap_is_identity_in_lambda(self):
        assert M.frequency_response([0.0, 1.0], [0.37]) == pytest.approx(0.37)

    def test_matches_independent_evaluation(self, rng):
        h = rng.normal(size=4)
        for _ in range(20):
            lam = rng.normal(size=3)
            expect = h[0] + h[1] * lam[0] + h[2] * lam[0] * lam[1] + h[3] * lam[0] * lam[1] * lam[2]
            assert M.frequency_response(h, lam) == pytest.approx(expect, abs=1e-14)

    def test_gradient_matches_finite_differences(self, rng):
        h = rng.normal(size=5)
        lam = rng.normal(size=(6, 4))
        grad = M.frequency_response_gradient(h, lam)
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1e-6
            num = (M.frequency_response(h, lam + e) - M.frequency_response(h, lam - e)) / 2e-6
            np.testing.assert_allclose(grad[:, j], num, atol=1e-8)


class TestOutputBound:
    def test_single_layer_unit(self):
        arch = M.Architecture((1, 1), 1, activation="relu")
        assert M.output_bound(arch, 3.0) == pytest.approx(3.0)

    def test_two_layer_width(self):
        arch = M.Architecture((1, 32, 1), 8, activation="relu")
        assert M.output_bound(arch, 1.0) == pytest.approx(32.0)

    def test_leaky_slope_above_one_expands(self):
        arch = M.Architecture((1, 2, 1), 1, activation="leaky_relu", leaky_slope=2.0)
        assert M.output_bound(arch, 1.0) == pytest.approx(4.0 * 2.0)


class TestArchitectureCounts:
    def test_per_filter_count(self):
        arch = M.Architecture((1, 4, 1), 3)
        assert arch.shift_count(M.PER_FILTER) == 3 * (4 + 4)
        assert arch.shift_count(M.SHARED) == 3 * 2

    def test_paper_count_recorded_separately(self):
        arch = M.Architecture((1, 32, 1), 8)
        assert arch.shift_count(M.PER_FILTER) == 8 * 64
        assert arch.paper_shift_count() == 8 * (2 * 32 + 32 * 32)

    def test_seq_total_matches_count(self, rng):
        arch = M.Architecture((2, 3, 2), 2)
        seq = random_seq(arch, 4, rng)
        # one n x n shift per position after the leading realization axis
        assert sum(a[0, ..., 0, 0].size for a in seq.layers) == arch.shift_count(M.PER_FILTER)

    def test_invalid_architectures_rejected(self):
        with pytest.raises(ConfigError):
            M.Architecture((1,), 2)
        with pytest.raises(ConfigError):
            M.Architecture((1, 0), 2)
        with pytest.raises(ConfigError):
            M.Architecture((1, 2), -1)
        with pytest.raises(ConfigError):
            M.Architecture((1, 2), 1, activation="tanh")


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        arch = M.Architecture((1, 3, 1), 2, activation="leaky_relu", readout=4)
        params = M.init_params(arch, rng, n=6)
        path = tmp_path / "ckpt.json"
        M.save_params(path, params, rng_state=9, iteration=17)
        loaded, rng_state, iteration = M.load_params(path)
        assert rng_state == 9 and iteration == 17
        assert loaded.arch == arch
        for a, b in zip(params.arrays(), loaded.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_round_trip_without_readout(self, tmp_path, rng):
        arch = M.Architecture((1, 2), 1)
        params = M.init_params(arch, rng)
        path = tmp_path / "ckpt.json"
        M.save_params(path, params)
        loaded, _, _ = M.load_params(path)
        for a, b in zip(params.arrays(), loaded.arrays()):
            np.testing.assert_array_equal(a, b)

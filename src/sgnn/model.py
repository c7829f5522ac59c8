"""Stochastic graph filters and the layered network built from them.

A filter of order K applied over a chain of sampled shifts S_1..S_K is

    y = h_0 x + h_1 S_1 x + h_2 S_2 S_1 x + ... + h_K S_K ... S_1 x

and a network layer passes a bank of such filters through a pointwise
nonlinearity.  Forward passes record a tape; ``backward_stack`` replays it
once to produce exact reverse-mode gradients for every tap and the optional
linear readout.  All heavy code paths are vectorized over a leading realization
axis so Monte-Carlo loops become batched matrix products.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError
from .graphs import BlockLayout

PER_FILTER = "per_filter"
SHARED = "shared"

RELU = "relu"
LEAKY_RELU = "leaky_relu"
ABS = "abs"
IDENTITY = "identity"
ACTIVATIONS = (RELU, LEAKY_RELU, ABS, IDENTITY)


@dataclass(frozen=True)
class Architecture:
    """Layer widths, filter order, nonlinearity, and optional readout.

    ``features`` lists the per-layer widths F_0..F_L (F_0 is the input width,
    F_L the output width); the network has L = len(features) - 1 filter
    banks.  ``readout`` adds a dense linear map from the flattened final
    features to that many class logits.
    """

    features: tuple
    order: int
    activation: str = RELU
    leaky_slope: float = 0.01
    readout: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(int(f) for f in self.features))
        if len(self.features) < 2:
            raise ConfigError("need at least one layer (two width entries)")
        if any(f < 1 for f in self.features):
            raise ConfigError("feature widths must be >= 1")
        if self.order < 0:
            raise ConfigError("filter order must be >= 0")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.readout is not None and self.readout < 1:
            raise ConfigError("readout class count must be >= 1")

    @property
    def layers(self) -> int:
        return len(self.features) - 1

    def shift_count(self, mode: str = PER_FILTER) -> int:
        """Number of random shifts one forward pass consumes."""
        if mode == PER_FILTER:
            return self.order * sum(
                self.features[l] * self.features[l + 1] for l in range(self.layers)
            )
        return self.order * self.layers

    def paper_shift_count(self) -> int:
        """The K[2F + (L-1)F^2] headline count, with F the widest layer.

        Disagrees with the literal per-filter count for deep networks; both
        numbers are reported so the discrepancy stays visible.
        """
        widths = self.features[1:-1] or (self.features[-1],)
        f = max(widths)
        return self.order * (2 * f + (self.layers - 1) * f * f)

    def lipschitz_sigma(self) -> float:
        """Lipschitz constant of the pointwise nonlinearity."""
        if self.activation == LEAKY_RELU:
            return max(1.0, abs(self.leaky_slope))
        return 1.0


def _activation_fns(arch: Architecture):
    """The pointwise nonlinearity, applied in place, and its derivative, written into ``out``."""
    s = arch.leaky_slope
    if arch.activation == RELU:
        return (lambda u: np.maximum(u, 0.0, out=u), lambda u, out: np.greater(u, 0.0, out=out))
    if arch.activation == LEAKY_RELU:
        slopes = np.array([s, 1.0])

        def leaky_deriv(u, out):
            # np.take copies its mask as intp indices, so one realization at a
            # time; they are 0 or 1, and "clip" skips the buffered bounds check
            for a, o in zip(u, out):
                np.take(slopes, a > 0, out=o, mode="clip")
            return out
        # u above zero and s*u below: the larger of the two when s <= 1, else the smaller
        pick = np.maximum if s <= 1 else np.minimum
        return (lambda u: pick(u, u * s, out=u), leaky_deriv)
    if arch.activation == ABS:
        return (lambda u: np.abs(u, out=u), lambda u, out: np.sign(u, out=out))
    return (lambda u: u, lambda u, out: np.positive(1.0, out=out))


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


@dataclass
class SgnnParams:
    """All filter taps plus the optional readout weights.

    ``taps[l]`` has shape (F_{l+1}, F_l, K+1); entry [f, g, k] weighs the
    k-times-shifted copy of input feature g in output feature f of layer l.
    Treated as immutable between a forward/backward pair.
    """

    arch: Architecture
    taps: list
    readout_w: np.ndarray | None = None
    readout_b: np.ndarray | None = None

    def __post_init__(self):
        k1 = self.arch.order + 1
        if len(self.taps) != self.arch.layers:
            raise ConfigError("tap list does not match layer count")
        for l, t in enumerate(self.taps):
            want = (self.arch.features[l + 1], self.arch.features[l], k1)
            if t.shape != want:
                raise ConfigError(f"layer {l} taps have shape {t.shape}, expected {want}")
        if (self.readout_w is None) != (self.arch.readout is None):
            raise ConfigError("readout weights must be present iff the architecture has a readout")

    def arrays(self) -> list:
        out = list(self.taps)
        if self.readout_w is not None:
            out += [self.readout_w, self.readout_b]
        return out

    def replace_arrays(self, arrays: list) -> "SgnnParams":
        nl = self.arch.layers
        taps = list(arrays[:nl])
        if self.readout_w is not None:
            return SgnnParams(self.arch, taps, arrays[nl], arrays[nl + 1])
        return SgnnParams(self.arch, taps)

    def copy(self) -> "SgnnParams":
        return self.replace_arrays([a.copy() for a in self.arrays()])

    def flatten(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.arrays()])

    def unflatten(self, vec: np.ndarray) -> "SgnnParams":
        arrays, pos = [], 0
        for a in self.arrays():
            arrays.append(vec[pos:pos + a.size].reshape(a.shape).copy())
            pos += a.size
        return self.replace_arrays(arrays)


def init_params(arch: Architecture, rng: np.random.Generator, n: int | None = None) -> SgnnParams:
    """Scaled-fan-in uniform initialization.

    Taps are uniform in +/- 1/sqrt((K+1) F_in), which keeps early frequency
    responses near the |h| <= 1 regime; the readout (when present) needs the
    node count ``n`` to size its input.
    """
    k1 = arch.order + 1
    taps = []
    for l in range(arch.layers):
        f_in, f_out = arch.features[l], arch.features[l + 1]
        bound = 1.0 / np.sqrt(k1 * f_in)
        taps.append(rng.uniform(-bound, bound, size=(f_out, f_in, k1)))
    if arch.readout is None:
        return SgnnParams(arch, taps)
    if n is None:
        raise ConfigError("node count required to initialize the readout")
    in_dim = arch.features[-1] * n
    bound = 1.0 / np.sqrt(in_dim)
    w = rng.uniform(-bound, bound, size=(arch.readout, in_dim))
    b = np.zeros(arch.readout)
    return SgnnParams(arch, taps, w, b)


# ---------------------------------------------------------------------------
# Realizations
# ---------------------------------------------------------------------------


@dataclass
class Realizations:
    """``count`` realization sequences: every shift the forward passes consume.

    ``layers[l]`` is indexed (count, F_out, F_in, K), a shift per filter and
    tap; a shared draw is a read-only view broadcast over (F_out, F_in) (see
    ``estimators.sample_stack``).  Its trailing axis holds the presence bits
    of the random edges of ``gres``; their shifts exist only while a layer is
    applied, as the blocks of the components of ``gres.layout``.  With
    ``gres`` None, two trailing axes hold n x n matrices, one block of size n.
    """

    layers: list
    n: int
    gres: object = None

    @property
    def count(self) -> int:
        return self.layers[0].shape[0]

    @classmethod
    def from_rows(cls, arch: Architecture, n: int, rows, gres=None):
        """One sequence from per-shift n x n matrices, or ``gres`` bits, in sampling order."""
        rows = np.asarray(rows) if gres else np.asarray(rows, dtype=float).reshape(-1, n, n)
        layers, pos = [], 0
        for l in range(arch.layers):
            shape = (arch.features[l + 1], arch.features[l], arch.order)
            size = int(np.prod(shape))
            layers.append(rows[pos:pos + size].reshape((1,) + shape + rows.shape[1:]))
            pos += size
        return cls(layers, n, gres)

    def seq(self, j: int) -> "Realizations":
        """The j-th sequence as a one-realization view."""
        return Realizations([a[j:j + 1] for a in self.layers], self.n, self.gres)

    @property
    def layout(self):
        """The ``BlockLayout`` the shifts are applied in."""
        if self.gres is None:       # any n x n matrix: one block
            return BlockLayout.of(np.ones((self.n, self.n)))
        return self.gres.layout

    def hops(self, layer: int) -> np.ndarray:
        """A layer's shifts as packed blocks of ``layout``, hop first: (K, count,
        F_out, F_in, width).  Mask realizations are in this thread's GRES
        workspace, where one hop's shifts lie together."""
        a = self.layers[layer]
        if self.gres is None:
            return np.moveaxis(a.reshape(a.shape[:-2] + (self.n * self.n,)), -2, 0)
        bits = np.moveaxis(a, -2, 0)
        packed = self.gres.materialize(bits.reshape(-1, bits.shape[-1]))
        return packed.reshape(bits.shape[:-1] + packed.shape[-1:])

    def shift(self, layer: int, f: int, g: int, k: int) -> np.ndarray:
        """The shift at hop k (1-based) of filter (f, g) of a one-realization view."""
        if self.count != 1:
            raise ConfigError("shift() reads one sequence; take seq(j) first")
        a = self.layers[layer][0, f, g, k - 1]
        return a if self.gres is None else self.gres.realize(a[None])[0]


# ---------------------------------------------------------------------------
# Forward and backward passes
# ---------------------------------------------------------------------------


@dataclass
class ForwardTape:
    """Replayable record of one (stacked) forward pass.

    Every array is C-contiguous and in component order.  An output-only pass
    leaves every field but ``output`` and ``logits`` None, and so does
    ``backward_stack`` once it has consumed the tape.
    """

    params: SgnnParams
    stack: Realizations
    layer_inputs: list    # per layer: (N, F_in, n, B); (1, F_0, n, B) for the first
    shifted: list         # per layer: (N, F, G, K, n, B), hop k of filter (f, g) at [:, f, g, k-1]
    preacts: list         # per layer: (N, F_out, n, B)
    output: np.ndarray    # (N, F_L, n, B) activations of the last layer, in node order
    logits: np.ndarray | None
    loans: tuple | None = field(default=None, repr=False)   # (signature, borrowed buffers)
    _token: tuple = field(default=None, repr=False)

    def __post_init__(self):
        if self._token is None:
            self._token = _params_token(self.params)


def _params_token(params: SgnnParams) -> tuple:
    return tuple(id(a) for a in params.arrays())


def _reused(pool, key, shape):
    """A C-contiguous buffer of ``shape``, kept in ``pool`` under ``key`` and its size.

    The next call with the same key and size on this thread returns the same
    memory, so it serves as a temporary within one pass.  ``pool`` None
    allocates afresh.
    """
    if pool is None:
        return np.empty(shape)
    size = int(np.prod(shape))
    if (key, size) not in pool:
        pool[key, size] = np.empty(size)
    return pool[key, size].reshape(shape)


def _lend(spare, loans, shape):
    """The next spare buffer, from a pass of the same signature, or a new one, onto ``loans``."""
    out = next(spare, None)
    loans.append(np.empty(shape) if out is None else out)
    return loans[-1]


def _reorder(a, layout, axis, back=False):
    """``a`` in component order along ``axis`` (``back``: in label order), as a
    new C-contiguous array: a plain copy when the two orders agree."""
    if layout.identity:
        return np.array(a, order="C")
    return np.take(a, layout.inverse if back else layout.perm, axis=axis)


def _filter_matrices(taps, hops, layout, pool):
    """Each filter's matrix h_0 I + sum_k h_k S_k ... S_1 as packed blocks of
    ``layout``, (N, F_out, F_in, width), from the hop-first shifts ``hops``."""
    order = taps.shape[2] - 1
    h = np.multiply(taps[:, :, 1, None], hops[0], out=_reused(pool, "h", hops.shape[1:]))
    prod = hops[0]
    spare = [_reused(pool, ("prod", i), h.shape) for i in range(2)]
    for k in range(1, order):
        # P_k into one buffer; P_{k-1} is then done with, and its buffer takes h_k P_k
        prod, term = layout.compose(hops[k], prod, spare[k % 2]), spare[(k + 1) % 2]
        h += np.multiply(taps[:, :, k + 1, None], prod, out=term)
    h[..., layout.diagonal] += taps[:, :, 0, None]
    return h


def forward_stack(params: SgnnParams, stack: Realizations, x: np.ndarray,
                  keep_tape: bool = True) -> ForwardTape:
    """Run the network over N stacked realizations at once.

    ``x`` has shape (F_0, n, B), in any memory layout; the same batch rides
    along every realization, and any other shape raises ConfigError.  Raises
    NumericalError naming the layer if an intermediate stops being finite.
    ``output`` and ``logits`` are always new arrays the caller owns,
    bit-identical with and without ``keep_tape`` when B < n.

    Every filter (f, g) carries its input through its own K hops, so a
    shared draw, broadcast over the bank, costs as many products as
    independent ones.  Each hop multiplies the blocks of ``stack.layout``,
    one product per block size, on signals in its component order: ``x`` is
    copied into it on entry and the output back before the readout.  Every
    array of the pass is C-contiguous, (count, F, [G,] n, B).  A layer writes
    its K hops into one (N, F_out, F_in, K, n, B) buffer, and its taps of
    orders 1..K reach the pre-activation as one matrix product over it, one
    (1, F_in K) x (F_in K, B) product per node: BLAS may round a product's
    last columns apart, and products alike for every node keep the outputs
    bit for bit those of dense shifts, whatever the component order.

    Mask realizations keep the other arrays in buffers of this thread and
    ``stack.gres``; explicit matrices (``gres`` None) allocate them afresh.
    A taped pass borrows its tape (hop buffers, pre-activations, inputs of
    layers >= 1) from the thread's one spare set, the buffers the last
    ``backward_stack`` on this thread gave back, if that pass had the same
    realization count and input and tap shapes; otherwise it allocates.  The
    tape keeps them until ``backward_stack`` consumes it, so a pending tape
    is never overwritten.  Without a tape the hops, like every pass's
    temporaries, go into the thread's reused buffers, one hop buffer for
    all layers of its size.  ``train`` drops all of them when it returns.

    A tape-free pass of order K >= 1 over B >= n columns applies each
    filter's matrix H = h_0 I + sum_k h_k P_k instead, with the prefix
    products P_1 = S_1 and P_k = S_k P_{k-1} formed block by block
    (``BlockLayout.compose``): one block product of H per filter, summed
    over the input features.  Per block of size s that is (K-1) s^3 + s^2 B
    multiply-adds against K s^2 B for the hops, never more when s <= B, and
    its buffers, three packed matrices per filter and one (N, F_out, F_in,
    n, B) product, replace the K-hop buffer.  Its outputs agree with a
    taped pass's to rounding, not bit for bit.  The threshold is n, not the
    largest block, so explicit matrices (one n-block) and GRES blocks take
    the same arithmetic and stay bit for bit equal.
    """
    arch = params.arch
    act, _ = _activation_fns(arch)
    n, count, order = stack.n, stack.count, arch.order
    if x.ndim != 3 or x.shape[0] != arch.features[0] or x.shape[1] != n:
        raise ConfigError(f"input shape {x.shape} does not match (F0={arch.features[0]}, n={n}, B)")
    gres, layout = stack.gres, stack.layout
    pool = None if gres is None else gres.thread_cache("hops")
    if keep_tape:
        signature = (count, x.shape) + tuple(t.shape for t in params.taps)
        spare = iter(() if gres is None else gres.thread_cache("tapes").pop(signature, ()))
        loans = []
        hold = lambda key, shape: _lend(spare, loans, shape)   # noqa: E731
    else:
        hold = lambda key, shape: _reused(pool, key, shape)    # noqa: E731
    wide = not keep_tape and order > 0 and x.shape[2] >= n
    cur = _reorder(x, layout, 1)[None]      # one copy broadcasts over the realizations
    signal = x.shape[1:]
    layer_inputs, shifted, preacts = [], [], []
    for l in range(arch.layers):
        taps = params.taps[l]
        f_out, f_in, _ = taps.shape
        s = stack.hops(l)
        u = hold(("u", l), (count, f_out) + signal)
        with np.errstate(over="ignore", invalid="ignore"):     # the check below names the layer
            if wide:        # each filter's matrix, applied once
                h = _filter_matrices(taps, s, layout, pool)
                if f_in == 1:
                    layout.apply(h, cur[:, None], u[:, :, None])
                else:
                    y = layout.apply(h, cur[:, None], _reused(pool, "hops", h.shape[:3] + signal))
                    np.sum(y, axis=2, out=u)
            else:
                hops = hold("hops", (count, f_out, f_in, order) + signal)
                z = np.broadcast_to(cur[:, None], (len(cur), f_out) + cur.shape[1:])
                for k in range(order):
                    z = layout.apply(s[k], z, hops[:, :, :, k])
                by_node = hops.reshape((count, f_out, f_in * order) + signal).swapaxes(2, 3)
                np.matmul(taps[:, :, None, 1:].reshape(f_out, 1, 1, f_in * order), by_node,
                          out=u[:, :, :, None])
                # the order-0 term, once for an input that all realizations share
                u += np.einsum("fg,ngib->nfib", taps[:, :, 0], cur,
                               out=_reused(pool, "base", (len(cur), f_out) + signal))
        if not np.all(np.isfinite(u)):
            raise NumericalError(f"non-finite pre-activation at layer {l}")
        if keep_tape:
            layer_inputs.append(cur)
            shifted.append(hops)
            preacts.append(u)
        if l + 1 == arch.layers:        # the output, in node order
            u = _reorder(u, layout, 2, back=True)
        elif keep_tape:                 # the activation goes into a copy
            u = np.positive(u, out=hold(None, u.shape))
        cur = act(u)
    logits = None
    if params.readout_w is not None:
        flat = cur.reshape(count, -1, cur.shape[-1])
        logits = np.matmul(params.readout_w, flat) + params.readout_b[:, None]
        if not np.all(np.isfinite(logits)):
            raise NumericalError("non-finite readout logits")
    if not keep_tape:
        return ForwardTape(params, None, None, None, None, cur, logits)
    return ForwardTape(params, stack, layer_inputs, shifted, preacts, cur, logits,
                       (signature, loans))


def backward_stack(tape: ForwardTape, d_output: np.ndarray | None = None,
                   d_logits: np.ndarray | None = None) -> SgnnParams:
    """Exact reverse-mode gradients through a taped forward pass.

    ``d_output`` is the upstream gradient w.r.t. the pre-readout activations
    (N, F_L, n, B), in any memory layout; ``d_logits`` w.r.t. the readout
    logits.  Gradients are summed over realizations and batch, so any
    averaging lives in the upstream.  Returns SgnnParams-shaped gradients.

    The upstream is taken into component order once (left as it is when
    that is the label order), and every temporary is C-contiguous.  A
    layer's tap gradients of orders 1..K are one matrix product of its hop
    buffer with the pre-activation gradient, summed over realizations.
    The pass consumes the tape: its buffers replace the thread's spare set
    for the next taped pass of the same signature (see ``forward_stack``),
    its ``output`` and ``logits`` stay readable, and a second backward pass
    on it raises ConfigError.  Its temporaries go into the thread's reused buffers.
    """
    params, stack = tape.params, tape.stack
    if tape.preacts is None:
        raise ConfigError("no tape: the forward pass kept none or a backward pass consumed it")
    if _params_token(params) != tape._token:
        raise NumericalError("stale tape: parameters changed since the forward pass")
    arch = params.arch
    _, act_deriv = _activation_fns(arch)
    pool = None if stack.gres is None else stack.gres.thread_cache("scratch")
    count, order = stack.count, arch.order
    grads = [np.zeros_like(t) for t in params.taps]
    gw = gb = None
    d_cur = None
    if d_logits is not None:
        if params.readout_w is None:
            raise ConfigError("d_logits given but the network has no readout")
        flat = tape.output.reshape(count, -1, tape.output.shape[-1])
        gw = np.einsum("ncb,nmb->cm", d_logits, flat)
        gb = np.einsum("ncb->c", d_logits)
        d_cur = np.matmul(params.readout_w.T, d_logits,
                          out=_reused(pool, "d_logits", flat.shape)).reshape(tape.output.shape)
    if d_output is not None:
        d_cur = d_output if d_cur is None else np.add(
            d_cur, d_output, out=_reused(pool, "d_sum", tape.output.shape))
    if d_cur is None:
        raise ConfigError("no upstream gradient given")
    elif params.readout_w is not None and gw is None:
        gw = np.zeros_like(params.readout_w)
        gb = np.zeros_like(params.readout_b)
    layout = stack.layout
    if not layout.identity:
        d_cur = _reorder(d_cur, layout, 2)

    for l in reversed(range(arch.layers)):
        taps = params.taps[l]
        f_out, f_in, _ = taps.shape
        u, hops = tape.preacts[l], tape.shifted[l]
        du = _reused(pool, "du", u.shape)
        np.multiply(d_cur, act_deriv(u, du), out=du)
        g = grads[l]
        g[:, :, 0] = np.einsum("nfib,ngib->fg", du, tape.layer_inputs[l])
        g[:, :, 1:] = (hops.reshape(count, f_out, f_in * order, u[0, 0].size)
                       @ du.reshape(count, f_out, -1, 1)).sum(axis=0).reshape(f_out, f_in, order)
        if l == 0:
            break
        s = stack.hops(l)

        def tap_term(k, out):     # hop k's tap times du, per filter
            return np.multiply(taps[:, :, k, None, None], du[:, :, None], out=out)

        acc = tap_term(order, _reused(pool, "acc", hops.shape[:3] + u.shape[2:]))
        mm = _reused(pool, "mm", acc.shape)
        for k in range(order - 1, -1, -1):
            layout.apply(s[k], acc, mm, transpose=True)
            np.add(tap_term(k, acc), mm, out=acc)      # acc was read into mm
        d_cur = np.sum(acc, axis=1, out=_reused(pool, "d_cur", (count, f_in) + u.shape[2:]))

    if stack.gres is not None:
        spares = stack.gres.thread_cache("tapes")    # one spare set per thread
        signature, buffers = tape.loans
        spares.clear()
        spares[signature] = buffers
    tape.layer_inputs = tape.shifted = tape.preacts = tape.loans = None
    if params.readout_w is not None:
        return SgnnParams(arch, grads, gw, gb)
    return SgnnParams(arch, grads)


# ---------------------------------------------------------------------------
# Spectral characterization
# ---------------------------------------------------------------------------


def frequency_response(coeffs, lam) -> np.ndarray:
    """Multivariate response h(lambda) = sum_k h_k prod_{j<=k} lambda_j.

    ``lam`` holds one value per hop (K of them; the zeroth hop contributes
    the constant tap).  Batched evaluation: ``lam`` may be (..., K).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    lam = np.asarray(lam, dtype=float)
    k = coeffs.shape[0] - 1
    if k == 0:
        base = np.zeros(lam.shape[:-1]) if lam.ndim > 1 else 0.0
        return base + coeffs[0]
    if lam.shape[-1] != k:
        raise ConfigError(f"need {k} frequency coordinates, got {lam.shape[-1]}")
    prods = np.cumprod(lam, axis=-1)
    return coeffs[0] + np.einsum("...k,k->...", prods, coeffs[1:])


def frequency_response_gradient(coeffs, lam) -> np.ndarray:
    """Analytic gradient of h(lambda) w.r.t. each frequency coordinate.

    d h / d lam_j = sum_{k >= j} h_k prod_{i <= k, i != j} lam_i.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    lam = np.asarray(lam, dtype=float)
    k = coeffs.shape[0] - 1
    if k == 0:
        return np.zeros(lam.shape)
    grad = np.zeros(lam.shape)
    for j in range(k):
        prefix = np.prod(lam[..., :j], axis=-1)
        running = np.ones(lam.shape[:-1])
        total = np.zeros(lam.shape[:-1])
        for kk in range(j, k):
            total = total + coeffs[kk + 1] * running
            if kk + 1 < k:
                running = running * lam[..., kk + 1]
        grad[..., j] = prefix * total
    return grad


def output_bound(arch: Architecture, x_norm: float, c_sigma: float | None = None) -> float:
    """Worst-case output energy when every filter response stays within 1.

    Equals C_sigma^L times the product of the intermediate widths times the
    input norm; for uniform width F that is C_sigma^L F^(L-1) ||x||.
    """
    if c_sigma is None:
        c_sigma = arch.lipschitz_sigma()
    width_product = 1.0
    for f in arch.features[1:-1]:
        width_product *= f
    return (c_sigma ** arch.layers) * width_product * float(x_norm)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_params(path, params: SgnnParams, rng_state=None, iteration: int = 0) -> None:
    """JSON checkpoint: architecture, taps (row-major), readout, bookkeeping."""
    arch = params.arch
    doc = {
        "architecture": {
            "features": list(arch.features),
            "order": arch.order,
            "activation": arch.activation,
            "leaky_slope": arch.leaky_slope,
            "readout": arch.readout,
        },
        "coeffs": [t.tolist() for t in params.taps],
        "readout": None,
        "rng_state": rng_state,
        "iteration": iteration,
    }
    if params.readout_w is not None:
        doc["readout"] = {
            "weights": params.readout_w.tolist(),
            "bias": params.readout_b.tolist(),
        }
    with open(path, "w") as f:
        json.dump(doc, f)


def load_params(path):
    """Load a checkpoint; returns (params, rng_state, iteration)."""
    with open(path) as f:
        doc = json.load(f)
    a = doc["architecture"]
    arch = Architecture(
        features=tuple(a["features"]),
        order=a["order"],
        activation=a["activation"],
        leaky_slope=a["leaky_slope"],
        readout=a["readout"],
    )
    taps = [np.asarray(t, dtype=float) for t in doc["coeffs"]]
    w = b = None
    if doc.get("readout"):
        w = np.asarray(doc["readout"]["weights"], dtype=float)
        b = np.asarray(doc["readout"]["bias"], dtype=float)
    params = SgnnParams(arch, taps, w, b)
    return params, doc.get("rng_state"), doc.get("iteration", 0)

"""Stochastic graph filters and the layered network built from them.

A filter of order K applied over a chain of sampled shifts S_1..S_K is

    y = h_0 x + h_1 S_1 x + h_2 S_2 S_1 x + ... + h_K S_K ... S_1 x

and a network layer passes a bank of such filters through a pointwise
nonlinearity.  Forward passes record a tape; ``sgnn_backward`` replays it to
produce exact reverse-mode gradients for every tap and the optional linear
readout.  All heavy code paths are vectorized over a leading realization
axis so Monte-Carlo loops become batched matrix products.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GraphError, NumericalError

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
    """The pointwise nonlinearity, applied in place, and its derivative."""
    s = arch.leaky_slope
    if arch.activation == RELU:
        return (lambda u: np.maximum(u, 0.0, out=u), lambda u: (u > 0).astype(float))
    if arch.activation == LEAKY_RELU:
        return (
            lambda u: np.multiply(u, s, out=u, where=u <= 0),
            lambda u: np.where(u > 0, 1.0, s),
        )
    if arch.activation == ABS:
        return (lambda u: np.abs(u, out=u), np.sign)
    return (lambda u: u, lambda u: np.ones_like(u))


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

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(a)) for a in self.arrays())


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


def zeros_like_params(params: SgnnParams) -> SgnnParams:
    return params.replace_arrays([np.zeros_like(a) for a in params.arrays()])


# ---------------------------------------------------------------------------
# Realizations
# ---------------------------------------------------------------------------


def layer_positions(arch: Architecture, mode: str) -> list:
    """Per layer, the index shape of its random shifts: (F_out, F_in, K) or (K,)."""
    if mode == PER_FILTER:
        return [(arch.features[l + 1], arch.features[l], arch.order)
                for l in range(arch.layers)]
    return [(arch.order,)] * arch.layers


@dataclass
class Realizations:
    """``count`` realization sequences: every shift the forward passes consume.

    ``layers[l]`` is indexed (count, F_out, F_in, K) in per-filter mode, a
    draw per filter and tap, and (count, K) in shared mode, a draw per tap
    for the whole bank.  Its trailing axis holds the presence bits of the
    random edges of ``gres``, whose dense shifts exist only while a layer is
    applied; with ``gres`` None, two trailing axes hold n x n matrices.
    """

    layers: list
    mode: str
    n: int
    gres: object = None

    @property
    def count(self) -> int:
        return self.layers[0].shape[0]

    @property
    def total(self) -> int:
        """Number of distinct sampled shifts per sequence (the paper-facing P)."""
        trailing = 2 if self.gres is None else 1
        return sum(int(np.prod(a.shape[1:a.ndim - trailing])) for a in self.layers)

    @classmethod
    def from_rows(cls, arch: Architecture, mode: str, n: int, rows, gres=None):
        """One sequence from per-shift n x n matrices, or ``gres`` bits, in sampling order."""
        rows = np.asarray(rows) if gres else np.asarray(rows, dtype=float).reshape(-1, n, n)
        layers, pos = [], 0
        for shape in layer_positions(arch, mode):
            size = int(np.prod(shape))
            layers.append(rows[pos:pos + size].reshape((1,) + shape + rows.shape[1:]))
            pos += size
        return cls(layers, mode, n, gres)

    def seq(self, j: int) -> "Realizations":
        """The j-th sequence as a one-realization view."""
        return Realizations([a[j:j + 1] for a in self.layers], self.mode, self.n, self.gres)

    def dense(self, layer: int) -> np.ndarray:
        """A layer's shifts as (..., n, n), mask realizations in this thread's GRES workspace."""
        a = self.layers[layer]
        if self.gres is None:
            return a
        mats = self.gres.materialize(a.reshape(-1, a.shape[-1]))
        return mats.reshape(a.shape[:-1] + (self.n, self.n))

    def shift(self, layer: int, f: int, g: int, k: int) -> np.ndarray:
        """The shift at hop k (1-based) of filter (f, g) of a one-realization view."""
        if self.count != 1:
            raise ConfigError("shift() reads one sequence; take seq(j) first")
        pos = (0, f, g, k - 1) if self.mode == PER_FILTER else (0, k - 1)
        if self.gres is None:
            return self.layers[layer][pos]
        return self.gres.realize(self.layers[layer][pos][None])[0]


# ---------------------------------------------------------------------------
# Filtering
# ---------------------------------------------------------------------------


def filter_apply(coeffs, shifts, x: np.ndarray) -> np.ndarray:
    """Output of one stochastic graph filter by recursive accumulation.

    ``coeffs`` holds the K+1 taps; ``shifts`` the K shift matrices applied in
    hop order (the zeroth hop is the identity).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    x = np.asarray(x, dtype=float)
    mats = [s.entries if hasattr(s, "entries") else np.asarray(s, dtype=float) for s in shifts]
    if len(mats) != coeffs.shape[0] - 1:
        raise GraphError(f"{coeffs.shape[0]} taps need {coeffs.shape[0] - 1} shifts, got {len(mats)}")
    for m in mats:
        if m.shape != (x.shape[0], x.shape[0]):
            raise GraphError("shift dimension does not match signal length")
    z = x
    y = coeffs[0] * x
    for k, m in enumerate(mats):
        z = m @ z
        y = y + coeffs[k + 1] * z
    return y


@dataclass
class ForwardTape:
    """Replayable record of one (stacked) forward pass; an output-only pass
    leaves every field but ``output`` and ``logits`` None."""

    params: SgnnParams
    stack: Realizations
    layer_inputs: list    # per layer: (N, F_in, n, B)
    shifted: list         # per layer: list over k=1..K of (N, F, G, n, B) or (N, G, n, B)
    preacts: list         # per layer: (N, F_out, n, B)
    output: np.ndarray    # (N, F_L, n, B) activations of the last layer
    logits: np.ndarray | None
    _token: tuple = field(default=None, repr=False)

    def __post_init__(self):
        if self._token is None:
            self._token = _params_token(self.params)


def _params_token(params: SgnnParams) -> tuple:
    return tuple(id(a) for a in params.arrays())


SCRATCH_BUFFERS = 32


def _reused(pool, key, compute):
    """``compute(out)`` into ``pool[key]``.  The first call keeps compute(None): the
    buffer has the layout NumPy picks, so later calls sum to the same bits."""
    if pool is None:
        return compute(None)
    if key in pool:
        return compute(pool[key])
    if len(pool) >= SCRATCH_BUFFERS:
        pool.clear()
    pool[key] = compute(None)
    return pool[key]


def forward_stack(params: SgnnParams, stack: Realizations, x: np.ndarray,
                  check_finite: bool = True, keep_tape: bool = True) -> ForwardTape:
    """Run the network over N stacked realizations at once.

    ``x`` has shape (F_0, n, B); the same batch rides along every
    realization.  With ``keep_tape`` False nothing is kept for a backward
    pass: hops go into this thread's reused buffers, and only copies of the
    output and logits are returned, bit-identical to the taped pass.  Raises
    NumericalError naming the layer if an intermediate stops being finite.
    """
    arch = params.arch
    act, _ = _activation_fns(arch)
    n, count = stack.n, stack.count
    if x.shape[0] != arch.features[0] or x.shape[1] != n:
        raise ConfigError(f"input shape {x.shape} does not match (F0={arch.features[0]}, n={n}, B)")
    per_filter = stack.mode == PER_FILTER
    spec = "fg,nfgib->nfib" if per_filter else "fg,ngib->nfib"
    pool = None if keep_tape or stack.gres is None else stack.gres.thread_cache("hops")
    cur = np.broadcast_to(x, (count,) + x.shape)
    layer_inputs, shifted, preacts = [], [], []
    for l in range(arch.layers):
        taps = params.taps[l]
        s = stack.dense(l)
        key = (stack.mode, l, taps.shape, taps.strides, cur.shape, cur.strides)
        z = np.broadcast_to(cur[:, None], (count, taps.shape[0]) + cur.shape[1:]) \
            if per_filter else cur
        u = _reused(pool, ("u",) + key,
                    lambda out: np.einsum("fg,ngib->nfib", taps[:, :, 0], cur, out=out))
        zs = []
        for k in range(arch.order):
            hop = s[:, :, :, k] if per_filter else s[:, None, k]
            z = _reused(pool, ("z", k % 2) + key, lambda out: np.matmul(hop, z, out=out))
            zs.append(z)
            u += _reused(pool, ("term",) + key,
                         lambda out: np.einsum(spec, taps[:, :, k + 1], z, out=out))
        if check_finite and not np.all(np.isfinite(u)):
            raise NumericalError(f"non-finite pre-activation at layer {l}")
        if keep_tape:
            layer_inputs.append(cur)
            shifted.append(zs)
            preacts.append(u)
            u = u.copy(order="K")
        cur = act(u)
    logits = None
    if params.readout_w is not None:
        flat = cur.reshape(count, -1, cur.shape[-1])
        logits = np.matmul(params.readout_w, flat) + params.readout_b[:, None]
        if check_finite and not np.all(np.isfinite(logits)):
            raise NumericalError("non-finite readout logits")
    if not keep_tape:
        return ForwardTape(params, None, None, None, None, cur.copy(order="K"), logits)
    return ForwardTape(params, stack, layer_inputs, shifted, preacts, cur, logits)


def backward_stack(tape: ForwardTape, d_output: np.ndarray | None = None,
                   d_logits: np.ndarray | None = None,
                   want_input_grad: bool = False):
    """Exact reverse-mode gradients through a taped forward pass.

    ``d_output`` is the upstream gradient w.r.t. the pre-readout activations
    (N, F_L, n, B); ``d_logits`` w.r.t. the readout logits.  Gradients are
    summed over realizations and batch, so any averaging lives in the
    upstream.  Returns SgnnParams-shaped gradients (and the input gradient
    when requested).
    """
    params, stack = tape.params, tape.stack
    if tape.preacts is None:
        raise ConfigError("the forward pass kept no tape")
    if _params_token(params) != tape._token:
        raise NumericalError("stale tape: parameters changed since the forward pass")
    arch = params.arch
    _, act_deriv = _activation_fns(arch)
    grads = [np.zeros_like(t) for t in params.taps]
    gw = gb = None
    d_cur = None
    if d_logits is not None:
        if params.readout_w is None:
            raise ConfigError("d_logits given but the network has no readout")
        flat = tape.output.reshape(stack.count, -1, tape.output.shape[-1])
        gw = np.einsum("ncb,nmb->cm", d_logits, flat)
        gb = np.einsum("ncb->c", d_logits)
        d_cur = np.matmul(params.readout_w.T, d_logits).reshape(tape.output.shape)
    if d_output is not None:
        d_cur = d_output if d_cur is None else d_cur + d_output
    if d_cur is None:
        raise ConfigError("no upstream gradient given")
    elif params.readout_w is not None and gw is None:
        gw = np.zeros_like(params.readout_w)
        gb = np.zeros_like(params.readout_b)

    for l in reversed(range(arch.layers)):
        taps = params.taps[l]
        k_order = arch.order
        x_in = tape.layer_inputs[l]
        zs = tape.shifted[l]
        du = d_cur * act_deriv(tape.preacts[l])
        g = grads[l]
        g[:, :, 0] = np.einsum("nfib,ngib->fg", du, x_in)
        if stack.mode == PER_FILTER:
            for k in range(k_order):
                g[:, :, k + 1] = np.einsum("nfib,nfgib->fg", du, zs[k])
            if l > 0 or want_input_grad:
                s = stack.dense(l)
                acc = taps[:, :, k_order, None, None] * du[:, :, None]
                for k in range(k_order - 1, -1, -1):
                    st = np.swapaxes(s[:, :, :, k], -1, -2)
                    acc = taps[:, :, k, None, None] * du[:, :, None] + np.matmul(st, acc)
                d_cur = acc.sum(axis=1)
            else:
                d_cur = None
        else:
            for k in range(k_order):
                g[:, :, k + 1] = np.einsum("nfib,ngib->fg", du, zs[k])
            if l > 0 or want_input_grad:
                s = stack.dense(l)
                acc = np.einsum("fg,nfib->ngib", taps[:, :, k_order], du)
                for k in range(k_order - 1, -1, -1):
                    st = np.swapaxes(s[:, None, k], -1, -2)
                    acc = np.einsum("fg,nfib->ngib", taps[:, :, k], du) + np.matmul(st, acc)
                d_cur = acc
            else:
                d_cur = None

    if params.readout_w is not None:
        out = SgnnParams(arch, grads, gw, gb)
    else:
        out = SgnnParams(arch, grads)
    if want_input_grad:
        return out, d_cur
    return out


def _as_batched(x: np.ndarray, arch: Architecture):
    """Promote (n,), (F0, n), or (F0, n, B) input to (F0, n, B)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :, None], "vector"
    if x.ndim == 2:
        return x[:, :, None], "features"
    if x.ndim == 3:
        return x, "batched"
    raise ConfigError(f"cannot interpret input of shape {x.shape}")


def sgnn_forward(params: SgnnParams, seq: Realizations, x: np.ndarray):
    """Single-sequence forward pass; returns (output, tape).

    The output is the readout logits when the architecture has a readout and
    the final-layer features otherwise, squeezed to match how ``x`` was
    given: a plain length-n vector in, a length-n vector out (when F_L = 1).
    """
    xb, shape_kind = _as_batched(x, params.arch)
    tape = forward_stack(params, seq, xb)
    if tape.logits is not None:
        out = tape.logits[0]
        out = out[:, 0] if shape_kind != "batched" else out
    else:
        out = tape.output[0]
        if shape_kind == "vector" and out.shape[0] == 1:
            out = out[0, :, 0]
        elif shape_kind != "batched":
            out = out[:, :, 0]
    return out, tape


def sgnn_backward(tape: ForwardTape, upstream: np.ndarray) -> SgnnParams:
    """Gradients of a scalar loss given its gradient w.r.t. the forward output."""
    params = tape.params
    up = np.asarray(upstream, dtype=float)
    if tape.logits is not None:
        target_shape = tape.logits.shape
        up = up.reshape(target_shape)
        return backward_stack(tape, d_logits=up)
    up = up.reshape(tape.output.shape)
    return backward_stack(tape, d_output=up)


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

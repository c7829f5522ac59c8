"""Stochastic graph filters and the network built from them.

Shows the recursive filter form y = h0 x + h1 S1 x + h2 S2 S1 x + ...,
its multivariate frequency response, and a forward/backward pass of the
full network with gradients checked against finite differences.
"""

import numpy as np

from sgnn import graphs as G
from sgnn import model as M
from sgnn.estimators import sample_stack

rng = np.random.default_rng(1)

graph = G.sbm_generate(10, 2, 0.9, 0.3, rng)
shift = G.normalize_shift(G.build_shift(graph, G.ADJACENCY))
gres = G.GresModel(shift, drop_edges=shift.edges(), p=0.2)

# one filter over a chain of sampled shifts: a one-feature network, order 2
taps = np.array([0.5, 0.8, -0.3])
chain = G.sample_gres_batch(gres, 2, rng)
x = rng.normal(size=10)
xb = x[None, :, None]                               # (features, nodes, batch)
one = M.Architecture(features=(1, 1), order=2, activation="identity")
single = M.Realizations.from_rows(one, 10, chain)
y = M.forward_stack(M.SgnnParams(one, [taps[None, None]]), single, xb).output
print(f"filter output energy: ||y|| = {np.linalg.norm(y):.4f} for ||x|| = {np.linalg.norm(x):.4f}")

# the response surface only depends on the taps; chains pin its arguments
lam = rng.uniform(-1, 1, size=(5, 2))
print("frequency response at 5 random frequency pairs:",
      np.round(M.frequency_response(taps, lam), 3))

# a two-bank network: 1 -> 4 -> 1 features, order 3
arch = M.Architecture(features=(1, 4, 1), order=3, activation="leaky_relu")
params = M.init_params(arch, rng)
print(f"network consumes {arch.shift_count()} sampled shifts per pass "
      f"(headline count {arch.paper_shift_count()})")

seq = sample_stack(gres, arch, 1, rng)
tape = M.forward_stack(params, seq, xb)
print(f"output bound check: ||phi|| = {np.linalg.norm(tape.output):.4f} <= "
      f"{M.output_bound(arch, float(np.linalg.norm(x))):.4f} (worst case)")

# exact reverse-mode gradients vs a finite-difference probe on one tap
target = rng.normal(size=10)[None, None, :, None]
grads = M.backward_stack(tape, d_output=tape.output - target)
flat = params.flatten()
probe = 7
e = np.zeros_like(flat)
e[probe] = 1e-6


def loss_of(p):
    o = M.forward_stack(p, seq, xb, keep_tape=False).output
    return 0.5 * float(np.sum((o - target) ** 2))


fd = (loss_of(params.unflatten(flat + e)) - loss_of(params.unflatten(flat - e))) / 2e-6
print(f"gradient check (tap {probe}): analytic {grads.flatten()[probe]:+.8f}, "
      f"finite difference {fd:+.8f}")

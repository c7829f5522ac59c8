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

# one filter over a chain of sampled shifts
taps = np.array([0.5, 0.8, -0.3])
chain = [G.sample_gres(gres, rng).entries for _ in range(2)]
x = rng.normal(size=10)
y = M.filter_apply(taps, chain, x)
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
out, tape = M.sgnn_forward(params, seq, x)
print(f"output bound check: ||phi|| = {np.linalg.norm(out):.4f} <= "
      f"{M.output_bound(arch, float(np.linalg.norm(x))):.4f} (worst case)")

# exact reverse-mode gradients vs a finite-difference probe on one tap
target = rng.normal(size=10)
grads = M.sgnn_backward(tape, out - target)
flat = params.flatten()
probe = 7
e = np.zeros_like(flat)
e[probe] = 1e-6


def loss_of(p):
    o, _ = M.sgnn_forward(p, seq, x)
    return 0.5 * float(np.sum((o - target) ** 2))


fd = (loss_of(params.unflatten(flat + e)) - loss_of(params.unflatten(flat - e))) / 2e-6
print(f"gradient check (tap {probe}): analytic {grads.flatten()[probe]:+.8f}, "
      f"finite difference {fd:+.8f}")

"""Numerical verification of the closed-form results.

Runs each bound check on a small fixture and prints the empirical value
against its theoretical cap: the second-moment formula, the output-energy
bound, the variance bound, the deviation-probability bound, and the
small-perturbation stability slope.
"""

import numpy as np

from sgnn import graphs as G
from sgnn import rng as R
from sgnn.estimators import McConfig
from sgnn.model import Architecture, init_params
from sgnn.verify import (
    check_chebyshev,
    check_moment_formula,
    check_output_bound,
    check_stability,
    check_variance_bound,
    coefficient_majorant,
    estimate_lipschitz,
)

rng = R.derive(7, 0)
graph = G.sbm_generate(14, 3, 0.85, 0.25, rng)
shift = G.normalize_shift(G.build_shift(graph, G.ADJACENCY))
gres = G.GresModel(shift, drop_edges=shift.edges()[:7], p=0.25)
arch = Architecture((1, 2, 1), 2, activation="abs")
params = init_params(arch, R.derive(7, 1))
x = R.derive(7, 2).normal(size=14)

reports = []
reports.append(check_moment_formula(gres))
reports.append(check_output_bound(params, gres, 300, R.derive(7, 3)))
reports.append(check_variance_bound(params, gres, x, McConfig(1000, master_seed=7)))
reports.extend(check_chebyshev(params, gres, x, (2, 10, 50), McConfig(500, master_seed=8)))
reports.append(check_stability(params, shift, [1e-3, 3e-3, 1e-2], 50, R.derive(7, 4)))

print(f"{'check':<16} {'empirical':>12} {'bound':>12} {'slack':>12}  status")
for r in reports:
    status = "VIOLATED" if r.violated else "ok"
    print(f"{r.check_name:<16} {r.empirical:>12.5g} {r.bound:>12.5g} {r.slack:>12.5g}  {status}")

# the filter-slope estimate and its analytic majorant
taps = np.array([0.3, 0.7, -0.5, 0.2])
c_l = estimate_lipschitz(taps, 1.0, 5000, R.derive(7, 5))
print(f"\nfilter slope estimate: {c_l:.4f} "
      f"(analytic coefficient majorant {coefficient_majorant(taps, 1.0):.4f})")

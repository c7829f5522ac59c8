"""Random-edge graph models: sampling and exact moments.

Builds a small community graph, declares part of its edge set droppable and
a few absent pairs addable, then checks the closed-form mean and second
moment of the sampled shift operator against brute force.
"""

import numpy as np

from sgnn import graphs as G

rng = np.random.default_rng(0)

graph = G.sbm_generate(n=12, c=3, p_intra=0.9, p_inter=0.25, rng=rng)
shift = G.build_shift(graph, G.ADJACENCY)
print(f"SBM graph: {graph.n} nodes, {len(graph.edges)} edges, "
      f"spectral radius {shift.spectral_radius():.3f}")

edges = shift.edges()
pairs = {(i, j) for i, j, _ in edges}
absent = [(i, j) for i in range(12) for j in range(i + 1, 12) if (i, j) not in pairs]
model = G.GresModel(
    shift,
    drop_edges=edges[:5],
    add_edges=tuple((i, j, 1.0) for i, j in absent[:3]),
    p=0.3,
    q=0.4,
)
print(f"GRES model: {model.m_drop} droppable edges (p={model.p}), "
      f"{model.m_add} addable edges (q={model.q})")

# a few realizations
for seed in range(3):
    real = G.sample_gres_batch(model, 1, np.random.default_rng(seed))[0]
    changed = int(np.sum(real != shift.entries)) // 2
    print(f"  realization {seed}: {changed} edge slots differ from nominal")

# first moment: Monte-Carlo mean vs closed form
draws = G.sample_gres_batch(model, 20000, np.random.default_rng(42))
emp_mean = draws.mean(axis=0)
exact_mean = G.expected_shift(model).entries
print(f"first moment: max |MC - closed form| = {np.abs(emp_mean - exact_mean).max():.4f} "
      f"(MC noise ~ {1.0 / np.sqrt(20000):.4f})")

# second moment: exhaustive enumeration vs closed form, exact to 1e-12
enum = sum(prob * (mat @ mat) for prob, mat in G.enumerate_gres(model))
err = np.abs(enum - G.expected_square(model)).max()
print(f"second moment: enumeration vs closed form, max error = {err:.2e}")

# graph Fourier transform: coordinates in the eigenvector basis of the normalized shift
eigenvalues, eigenvectors = np.linalg.eigh(G.normalize_shift(shift).entries)
x = rng.normal(size=12)
xhat = eigenvectors.T @ x
print(f"GFT isometry: ||x|| = {np.linalg.norm(x):.6f}, ||xhat|| = {np.linalg.norm(xhat):.6f}")
print(f"eigenvalues span [{eigenvalues[0]:.3f}, {eigenvalues[-1]:.3f}]")

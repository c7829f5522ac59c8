"""Graphs, shift operators, spectral tooling, and the random edge-sampling model.

The central object is the GRES(p, q) model: a nominal graph together with a
set of droppable edges (each independently absent with probability p) and a
set of addable edges (each independently present with probability q).
Closed-form first and second moments of the sampled shift operator are
available next to the sampler itself, so Monte-Carlo estimates can always be
cross-checked against exact expressions.

Weights are supported throughout; for a weighted edge the second-moment
correction terms carry the squared weight, which reduces to the unweighted
degree/Laplacian form when all weights are 1.
"""

from __future__ import annotations

import csv
import json
import math
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GraphError, NumericalError

ADJACENCY = "adjacency"
LAPLACIAN = "laplacian"
KINDS = (ADJACENCY, LAPLACIAN)

SYMMETRY_TOL = 1e-12
ROW_SUM_TOL = 1e-10


def _normalize_edges(edges):
    out = []
    for e in edges:
        i, j, w = int(e[0]), int(e[1]), float(e[2])
        if i == j:
            raise GraphError(f"self-loop at node {i}")
        if i > j:
            i, j = j, i
        out.append((i, j, w))
    out.sort()
    return tuple(out)


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph on nodes 0..n-1.

    Edges are stored as sorted (i, j, w) triples with i < j; duplicates and
    self-loops are rejected.  Instances are immutable and hashable-by-identity,
    safe to share across threads.
    """

    n: int
    edges: tuple = ()

    def __post_init__(self):
        if self.n < 0:
            raise GraphError("node count must be nonnegative")
        norm = _normalize_edges(self.edges)
        object.__setattr__(self, "edges", norm)
        pairs = [(i, j) for i, j, _ in norm]
        if len(set(pairs)) != len(pairs):
            raise GraphError("duplicate edges")
        for i, j, w in norm:
            if j >= self.n:
                raise GraphError(f"edge ({i},{j}) outside node range n={self.n}")
            if not math.isfinite(w):
                raise GraphError(f"non-finite weight on edge ({i},{j})")

    @property
    def edge_pairs(self):
        return tuple((i, j) for i, j, _ in self.edges)

    def degree(self, weighted=True):
        d = np.zeros(self.n)
        for i, j, w in self.edges:
            d[i] += w if weighted else 1.0
            d[j] += w if weighted else 1.0
        return d


@dataclass(frozen=True)
class ShiftOperator:
    """Dense symmetric shift matrix of a graph (adjacency or Laplacian)."""

    n: int
    entries: np.ndarray
    kind: str

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.shape != (self.n, self.n):
            raise GraphError(f"matrix shape {m.shape} does not match n={self.n}")
        if not np.all(np.isfinite(m)):
            raise GraphError("non-finite entries in shift operator")
        if self.kind not in KINDS:
            raise GraphError(f"unknown shift kind {self.kind!r}")
        if m.size and np.max(np.abs(m - m.T)) > SYMMETRY_TOL:
            raise GraphError("shift operator is not symmetric")
        if self.kind == LAPLACIAN and m.size:
            if np.max(np.abs(m.sum(axis=1))) > ROW_SUM_TOL:
                raise GraphError("Laplacian rows do not sum to zero")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "_rho_cache", [None])

    def spectral_radius(self) -> float:
        """Largest |eigenvalue|; computed once and cached."""
        if self._rho_cache[0] is None:
            self._rho_cache[0] = _power_spectral_radius(self.entries)
        return self._rho_cache[0]

    def edges(self) -> tuple:
        """Recover the (i, j, w) edge list encoded in the matrix."""
        iu, ju = np.triu_indices(self.n, k=1)
        vals = self.entries[iu, ju]
        nz = np.nonzero(vals)[0]
        if self.kind == LAPLACIAN:
            return tuple((int(iu[k]), int(ju[k]), float(-vals[k])) for k in nz)
        return tuple((int(iu[k]), int(ju[k]), float(vals[k])) for k in nz)


def _adjacency_from_edges(n, edges) -> np.ndarray:
    a = np.zeros((n, n))
    if edges:
        ii = np.fromiter((e[0] for e in edges), dtype=int, count=len(edges))
        jj = np.fromiter((e[1] for e in edges), dtype=int, count=len(edges))
        ww = np.fromiter((e[2] for e in edges), dtype=float, count=len(edges))
        a[ii, jj] = ww
        a[jj, ii] = ww
    return a


def build_shift(graph: Graph, kind: str) -> ShiftOperator:
    """Adjacency A, or Laplacian L = D - A with D the weighted degree matrix."""
    if kind not in KINDS:
        raise GraphError(f"unknown shift kind {kind!r}")
    a = _adjacency_from_edges(graph.n, graph.edges)
    if kind == ADJACENCY:
        return ShiftOperator(graph.n, a, ADJACENCY)
    lap = np.diag(a.sum(axis=1)) - a
    return ShiftOperator(graph.n, lap, LAPLACIAN)


def _power_spectral_radius(m: np.ndarray, tol=1e-14, max_iters=5000) -> float:
    """Spectral radius of a symmetric matrix by power iteration on m @ m.

    Working on the square sidesteps the +/- dominant-eigenvalue pair of
    bipartite adjacencies; the Rayleigh quotient of m^2 converges to rho^2.
    """
    n = m.shape[0]
    if n == 0:
        return 0.0
    scale = np.max(np.abs(m))
    if scale == 0.0:
        return 0.0
    v = np.ones(n) + 1e-3 * np.arange(n)
    v /= np.linalg.norm(v)
    rho_sq = 0.0
    for _ in range(max_iters):
        w = m @ (m @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v_new = w / nw
        rho_new = float(v_new @ (m @ (m @ v_new)))
        if abs(rho_new - rho_sq) <= tol * max(rho_new, scale * scale):
            rho_sq = rho_new
            break
        rho_sq = rho_new
        v = v_new
    return math.sqrt(max(rho_sq, 0.0))


# ---------------------------------------------------------------------------
# GRES(p, q) random edge-sampling model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GresModel:
    """Nominal shift plus droppable / addable edge sets with probabilities.

    Every edge in ``drop_edges`` must be a nominal edge and is independently
    removed with probability p; every edge in ``add_edges`` must be absent
    from the nominal graph and independently appears with probability q.
    """

    nominal: ShiftOperator
    drop_edges: tuple = ()
    add_edges: tuple = ()
    p: float = 0.0
    q: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "drop_edges", _normalize_edges(self.drop_edges))
        object.__setattr__(self, "add_edges", _normalize_edges(self.add_edges))
        if not (0.0 <= self.p < 1.0):
            raise GraphError(f"drop probability p={self.p} outside [0, 1)")
        if not (0.0 <= self.q < 1.0):
            raise GraphError(f"add probability q={self.q} outside [0, 1)")
        nominal_edges = set(self.nominal.edges())
        nominal_pairs = {(i, j) for i, j, _ in nominal_edges}
        for e in self.drop_edges:
            if e not in nominal_edges:
                raise GraphError(f"drop edge {e} is not a nominal edge")
        pairs = [(i, j) for i, j, _ in self.add_edges]
        if len(set(pairs)) != len(pairs):
            raise GraphError("duplicate add edges")
        for i, j, w in self.add_edges:
            if (i, j) in nominal_pairs:
                raise GraphError(f"add edge ({i},{j}) already present in nominal graph")
            if j >= self.nominal.n:
                raise GraphError(f"add edge ({i},{j}) outside node range")

    @property
    def n(self) -> int:
        return self.nominal.n

    @property
    def m_drop(self) -> int:
        return len(self.drop_edges)

    @property
    def m_add(self) -> int:
        return len(self.add_edges)

    @cached_property
    def _sampler(self):
        return _Sampler(self)

    def realize(self, bits: np.ndarray) -> np.ndarray:
        """Fresh dense shifts (m, n, n) for presence bits (m, M_d + M_a)."""
        sampler = self._sampler
        buf = np.broadcast_to(sampler.base, (len(bits),) + sampler.base.shape).copy()
        sampler.write(buf, bits, np.zeros(0, dtype=np.intp))
        return buf

    def thread_cache(self, name: str) -> dict:
        """A dict of this model's reused buffers, private to the calling thread."""
        return self._sampler.local.__dict__.setdefault(name, {})

    def materialize(self, bits: np.ndarray) -> np.ndarray:
        """Dense shifts for ``bits``, in a workspace the next call on this thread
        for as many shifts overwrites."""
        sampler = self._sampler
        pool = self.thread_cache("workspaces")
        if len(bits) not in pool:
            if len(pool) >= WORKSPACES_PER_THREAD:
                del pool[next(iter(pool))]
            nominal = np.broadcast_to(sampler.nominal_bits, bits.shape)
            pool[len(bits)] = [self.realize(nominal), np.zeros(0, dtype=np.intp)]
        entry = pool[len(bits)]
        entry[1] = sampler.write(entry[0], bits, entry[1])
        return entry[0]


WORKSPACES_PER_THREAD = 4


class _Sampler:
    """The nominal shift and its random edges: drop edges (present in it) first."""

    def __init__(self, model: GresModel):
        n = model.n
        edges = model.drop_edges + model.add_edges
        self.ii = np.array([e[0] for e in edges], dtype=np.intp)
        self.jj = np.array([e[1] for e in edges], dtype=np.intp)
        self.nominal_bits = np.arange(len(edges)) < model.m_drop
        # the adjacency entry of an edge whose bit differs from nominal
        self.flipped = np.array([0.0] * model.m_drop + [e[2] for e in model.add_edges])
        a = _adjacency_from_edges(n, _kept_edges(model) + model.drop_edges)
        self.laplacian = model.nominal.kind == LAPLACIAN
        self.base = a
        if self.laplacian:
            self.base, self.flipped = -a, -self.flipped
            self.base[np.arange(n), np.arange(n)] = a.sum(axis=1)
        self.local = threading.local()

    def __getstate__(self):       # copies get workspaces of their own
        return {k: v for k, v in vars(self).items() if k != "local"}

    def __setstate__(self, state):
        vars(self).update(state, local=threading.local())

    def write(self, buf, bits, dirty):
        """Make ``buf`` (m, n, n), nominal but at flat indices ``dirty``, the
        realizations ``bits`` (m, M): put those back, then write the edges off
        their nominal state.  Returns the indices written."""
        n = len(self.base)
        flat = buf.reshape(-1)
        flat[dirty] = self.base.reshape(-1)[dirty % (n * n)]
        r, e = np.nonzero(bits != self.nominal_bits)
        ii, jj = r * n + self.ii[e], r * n + self.jj[e]     # rows of buf.reshape(-1, n)
        upper, lower = ii * n + self.jj[e], jj * n + self.ii[e]
        flat[upper] = flat[lower] = self.flipped[e]
        if not self.laplacian:
            return np.concatenate([upper, lower])
        # the diagonal is the row sum of the realized adjacency, -L off it
        rows = np.unique(np.concatenate([ii, jj]))
        block = buf.reshape(-1, n)[rows]
        block[np.arange(rows.size), rows % n] = -0.0
        diag = rows * n + rows % n
        flat[diag] = -block.sum(axis=1)
        return np.concatenate([upper, lower, diag])


def _kept_edges(model: GresModel):
    drops = set(model.drop_edges)
    return tuple(e for e in model.nominal.edges() if e not in drops)


def _uniforms(rng, count, width, antithetic):
    """(count, width) uniforms; antithetic pairs rows as (u, 1-u)."""
    if not antithetic:
        return rng.random((count, width))
    half = (count + 1) // 2
    u = rng.random((half, width))
    return np.concatenate([u, 1.0 - u], axis=0)[:count]


def sample_gres_masks(model: GresModel, count: int, rng: np.random.Generator,
                      antithetic: bool = False) -> np.ndarray:
    """Presence bits (count, M_d + M_a) of ``count`` GRES realizations.

    Draw order is fixed (all drop uniforms first, then all add uniforms) so a
    given generator state always produces the same realizations.  A drop edge
    is present when its uniform is >= p; an add edge is present when its
    uniform is < q.
    """
    bits = np.empty((count, model.m_drop + model.m_add), dtype=bool)
    if model.m_drop:
        bits[:, :model.m_drop] = _uniforms(rng, count, model.m_drop, antithetic) >= model.p
    if model.m_add:
        bits[:, model.m_drop:] = _uniforms(rng, count, model.m_add, antithetic) < model.q
    return bits


def sample_gres_batch(model: GresModel, count: int, rng: np.random.Generator,
                      antithetic: bool = False) -> np.ndarray:
    """``count`` independent GRES realizations, stacked as (count, n, n)."""
    return model.realize(sample_gres_masks(model, count, rng, antithetic))


def sample_gres(model: GresModel, rng: np.random.Generator) -> ShiftOperator:
    """One GRES(p, q) realization of the nominal shift, kind preserved.

    The edge set is realized first and the matrix rebuilt from it, so
    Laplacian realizations have exactly zero row sums.
    """
    m = sample_gres_batch(model, 1, rng)[0]
    return ShiftOperator(model.n, m, model.nominal.kind)


def expected_shift(model: GresModel) -> ShiftOperator:
    """Entrywise mean of the sampled shift.

    Drop-edge weights scale by (1 - p) and add-edge weights by q; the
    Laplacian case is built from the scaled edge weights (D - A is linear in
    the weights, so this is the exact expectation).
    """
    edges = list(_kept_edges(model))
    edges += [(i, j, w * (1.0 - model.p)) for i, j, w in model.drop_edges]
    edges += [(i, j, w * model.q) for i, j, w in model.add_edges]
    g = Graph(model.n, tuple(e for e in edges if e[2] != 0.0))
    return build_shift(g, model.nominal.kind)


def expected_square(model: GresModel) -> np.ndarray:
    """Closed-form E[S_k^2] of a GRES realization.

    Adjacency:  mean^2 + p(1-p) D_d + q(1-q) D_a
    Laplacian:  mean^2 + 2 p(1-p) L_d + 2 q(1-q) L_a

    where D_d / D_a are the degree matrices and L_d / L_a the Laplacians of
    the drop / add subgraphs, with each edge counted at its squared weight.
    """
    sbar = expected_shift(model).entries
    out = sbar @ sbar
    n = model.n

    def sq_weight_graph(edges):
        return Graph(n, tuple((i, j, w * w) for i, j, w in edges))

    if model.m_drop:
        gd = sq_weight_graph(model.drop_edges)
        coeff = model.p * (1.0 - model.p)
        if model.nominal.kind == ADJACENCY:
            out = out + coeff * np.diag(gd.degree())
        else:
            out = out + 2.0 * coeff * build_shift(gd, LAPLACIAN).entries
    if model.m_add:
        ga = sq_weight_graph(model.add_edges)
        coeff = model.q * (1.0 - model.q)
        if model.nominal.kind == ADJACENCY:
            out = out + coeff * np.diag(ga.degree())
        else:
            out = out + 2.0 * coeff * build_shift(ga, LAPLACIAN).entries
    return out


def enumerate_masks(model: GresModel):
    """Every realization's presence bits (2^M, M) and probability (2^M,).

    Realization c has edge t present when bit t of c is set.  Only feasible
    for small random edge sets (M = M_d + M_a <= 20).
    """
    md, m = model.m_drop, model.m_drop + model.m_add
    if m > 20:
        raise GraphError("realization space too large to enumerate")
    bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1 == 1
    prob = np.ones(1 << m)
    for t in range(m):
        on, off = (1.0 - model.p, model.p) if t < md else (model.q, 1.0 - model.q)
        prob *= np.where(bits[:, t], on, off)
    return bits, prob


def enumerate_gres(model: GresModel):
    """Yield (probability, matrix) over all 2^(M_d + M_a) realizations.

    The brute-force oracle for the closed-form moments.
    """
    bits, prob = enumerate_masks(model)
    for c in range(prob.size):
        yield float(prob[c]), model.realize(bits[c:c + 1])[0]


# ---------------------------------------------------------------------------
# Spectral tooling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def eigendecompose(shift: ShiftOperator, max_sweeps=100, tol=1e-12) -> SpectralDecomposition:
    """Full symmetric eigendecomposition by cyclic Jacobi rotations.

    Sweeps rotate away every off-diagonal pair until the off-diagonal
    Frobenius mass falls below ``tol`` relative to the matrix norm; raises
    NumericalError if the sweep cap is hit first.
    """
    a = np.array(shift.entries, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    if n == 0:
        return SpectralDecomposition(np.zeros(0), v)
    norm = np.linalg.norm(a)
    if norm == 0.0:
        return SpectralDecomposition(np.zeros(n), v)

    def off(m):
        # sum the off-diagonal mass directly; norm^2 - diag^2 cancels badly
        stripped = m.copy()
        np.fill_diagonal(stripped, 0.0)
        return float(np.linalg.norm(stripped))

    converged = off(a) <= tol * norm
    for _ in range(max_sweeps):
        if converged:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-30 * norm:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
        converged = off(a) <= tol * norm
    if not converged:
        raise NumericalError(f"Jacobi eigendecomposition did not converge in {max_sweeps} sweeps")
    lam = np.diag(a).copy()
    order = np.argsort(lam, kind="stable")
    return SpectralDecomposition(lam[order], v[:, order])


def gft(decomp: SpectralDecomposition, x: np.ndarray) -> np.ndarray:
    """Graph Fourier transform: project x on the eigenvector basis (V^T x)."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != decomp.n:
        raise GraphError(f"signal length {x.shape[0]} does not match n={decomp.n}")
    return decomp.eigenvectors.T @ x

def igft(decomp: SpectralDecomposition, xhat: np.ndarray) -> np.ndarray:
    """Inverse transform: synthesize from Fourier coefficients (V xhat)."""
    xhat = np.asarray(xhat, dtype=float)
    if xhat.shape[0] != decomp.n:
        raise GraphError(f"coefficient length {xhat.shape[0]} does not match n={decomp.n}")
    return decomp.eigenvectors @ xhat


def normalize_shift(shift: ShiftOperator) -> ShiftOperator:
    """Rescale by the spectral radius so all eigenvalues lie in [-1, 1]."""
    rho = shift.spectral_radius()
    if rho == 0.0:
        raise GraphError("cannot normalize a zero shift operator")
    out = ShiftOperator(shift.n, shift.entries / rho, shift.kind)
    out._rho_cache[0] = 1.0
    return out


# ---------------------------------------------------------------------------
# Graph generators
# ---------------------------------------------------------------------------


def community_labels(n: int, c: int) -> np.ndarray:
    """Community assignment with sizes floor(n/c), remainder spread first."""
    sizes = [n // c + (1 if k < n % c else 0) for k in range(c)]
    return np.repeat(np.arange(c), sizes)


def sbm_generate(n: int, c: int, p_intra: float, p_inter: float,
                 rng: np.random.Generator) -> Graph:
    """Stochastic block model draw with unit edge weights.

    Node pairs inside a community connect independently with p_intra, pairs
    across communities with p_inter.
    """
    if not (0.0 <= p_intra <= 1.0 and 0.0 <= p_inter <= 1.0):
        raise GraphError("SBM probabilities must lie in [0, 1]")
    if c < 1 or c > max(n, 1):
        raise GraphError("community count must be in 1..n")
    labels = community_labels(n, c)
    iu, ju = np.triu_indices(n, k=1)
    intra = labels[iu] == labels[ju]
    probs = np.where(intra, p_intra, p_inter)
    u = rng.random(iu.shape[0])
    sel = u < probs
    edges = tuple((int(i), int(j), 1.0) for i, j in zip(iu[sel], ju[sel]))
    return Graph(n, edges)


def pearson_correlations(ratings: np.ndarray, min_coraters: int = 2,
                         top: int | None = None) -> list:
    """Item-pair Pearson correlations over co-rated users, sorted.

    ``ratings`` is users x items with 0 marking a missing rating.  For each
    pair the correlation is computed over users that rated both items; pairs
    with fewer than ``min_coraters`` co-raters, or with a constant rating
    vector on the co-rated set, get correlation 0 and are omitted.  Returns
    (i, j, corr) triples sorted by decreasing signed correlation, ties broken
    by (i, j) for determinism; only the first ``top`` when it is given.
    """
    r = np.asarray(ratings, dtype=float)
    mask = (r != 0).astype(float)
    cnt = mask.T @ mask                 # co-rater counts
    s1 = r.T @ mask                     # sum of item-i ratings over co-raters with j
    s2 = (r * r).T @ mask
    cross = r.T @ r
    with np.errstate(divide="ignore", invalid="ignore"):
        mu_i = s1 / cnt
        mu_j = mu_i.T
        var_i = s2 / cnt - mu_i ** 2
        var_j = var_i.T
        cov = cross / cnt - mu_i * mu_j
        corr = cov / np.sqrt(var_i * var_j)
    bad = (cnt < min_coraters) | ~np.isfinite(corr)
    corr = np.where(bad, 0.0, corr)
    iu, ju = np.triu_indices(r.shape[1], k=1)
    vals = corr[iu, ju]
    nz = np.nonzero(vals)[0]
    neg = -vals[nz]
    if top is not None and top < nz.size:
        # every pair tied with the top-th value survives, so the (i, j)
        # tie-break below still picks among all of them
        kth = np.partition(neg, top - 1)[top - 1] if top > 0 else -np.inf
        keep = neg <= kth
        nz, neg = nz[keep], neg[keep]
    order = np.lexsort((ju[nz], iu[nz], neg))[:top]
    nz = nz[order]
    return [(int(i), int(j), float(v)) for i, j, v in zip(iu[nz], ju[nz], vals[nz])]


def pearson_graph(ratings: np.ndarray, keep_top: int) -> Graph:
    """Item-item similarity graph keeping the highest-correlation edges.

    Edge weights are the signed Pearson correlations; the global top
    ``keep_top`` pairs are retained.
    """
    return Graph(ratings.shape[1], tuple(pearson_correlations(ratings, top=keep_top)))


# ---------------------------------------------------------------------------
# Serialization: edge-list CSV with a JSON sidecar
# ---------------------------------------------------------------------------


def _sidecar_path(csv_path) -> str:
    return str(csv_path) + ".json"


def save_shift(csv_path, shift: ShiftOperator, gres: GresModel | None = None) -> None:
    """Write the edge list (header i,j,w) plus a JSON sidecar.

    The sidecar carries {n, kind, gres} where gres is null or the drop/add
    edge sets with their probabilities.
    """
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["i", "j", "w"])
        for i, j, w in shift.edges():
            writer.writerow([i, j, repr(w)])
    meta = {"n": shift.n, "kind": shift.kind, "gres": None}
    if gres is not None:
        meta["gres"] = {
            "drop_edges": [list(e) for e in gres.drop_edges],
            "add_edges": [list(e) for e in gres.add_edges],
            "p": gres.p,
            "q": gres.q,
        }
    with open(_sidecar_path(csv_path), "w") as f:
        json.dump(meta, f, indent=1, sort_keys=True)


def load_shift(csv_path):
    """Read a shift operator (and its GRES model if present) back from disk."""
    with open(_sidecar_path(csv_path)) as f:
        meta = json.load(f)
    edges = []
    with open(csv_path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if header != ["i", "j", "w"]:
            raise GraphError(f"unexpected edge CSV header {header}")
        for row in reader:
            edges.append((int(row[0]), int(row[1]), float(row[2])))
    graph = Graph(meta["n"], tuple(edges))
    shift = build_shift(graph, meta["kind"])
    model = None
    if meta.get("gres"):
        g = meta["gres"]
        model = GresModel(
            nominal=shift,
            drop_edges=tuple(tuple(e) for e in g["drop_edges"]),
            add_edges=tuple(tuple(e) for e in g["add_edges"]),
            p=g["p"],
            q=g["q"],
        )
    return shift, model


def save_graph(csv_path, graph: Graph, kind: str = ADJACENCY) -> None:
    save_shift(csv_path, build_shift(graph, kind))


def load_graph(csv_path) -> Graph:
    shift, _ = load_shift(csv_path)
    return Graph(shift.n, shift.edges())

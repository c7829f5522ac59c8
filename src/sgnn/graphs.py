"""Graphs, shift operators, and the random edge-sampling model.

The central object is the GRES(p, q) model: a nominal graph together with a
set of droppable edges (each independently absent with probability p) and a
set of addable edges (each independently present with probability q).
Closed-form first and second moments of the sampled shift operator are
available next to the sampler itself, so Monte-Carlo estimates can always be
cross-checked against exact expressions.

Every shift is a weighted adjacency matrix.  For a weighted edge the
second-moment correction terms carry the squared weight, which reduces to
the unweighted degree form when all weights are 1.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GraphError
from .util import write_csv, write_json

ADJACENCY = "adjacency"

SYMMETRY_TOL = 1e-12


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

    def degree(self):
        d = np.zeros(self.n)
        for i, j, w in self.edges:
            d[i] += w
            d[j] += w
        return d


@dataclass(frozen=True)
class ShiftOperator:
    """Dense symmetric shift matrix of a graph: its weighted adjacency."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.shape != (self.n, self.n):
            raise GraphError(f"matrix shape {m.shape} does not match n={self.n}")
        if not np.all(np.isfinite(m)):
            raise GraphError("non-finite entries in shift operator")
        if m.size and np.max(np.abs(m - m.T)) > SYMMETRY_TOL:
            raise GraphError("shift operator is not symmetric")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "_rho_cache", [None])

    def spectral_radius(self) -> float:
        """Largest |eigenvalue|; computed once and cached."""
        if self._rho_cache[0] is None:
            self._rho_cache[0] = float(np.abs(np.linalg.eigvalsh(self.entries)).max(initial=0.0))
        return self._rho_cache[0]

    def edges(self) -> tuple:
        """Recover the (i, j, w) edge list encoded in the matrix."""
        iu, ju = np.triu_indices(self.n, k=1)
        vals = self.entries[iu, ju]
        nz = np.nonzero(vals)[0]
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


def build_shift(graph: Graph, kind: str = ADJACENCY) -> ShiftOperator:
    """The weighted adjacency matrix A, the one shift ``kind`` there is."""
    if kind != ADJACENCY:
        raise GraphError(f"unknown shift kind {kind!r}; shifts are adjacency matrices")
    return ShiftOperator(graph.n, _adjacency_from_edges(graph.n, graph.edges))


def normalize_shift(shift: ShiftOperator) -> ShiftOperator:
    """Rescale by the spectral radius so all eigenvalues lie in [-1, 1]."""
    rho = shift.spectral_radius()
    if rho == 0.0:
        raise GraphError("cannot normalize a zero shift operator")
    out = ShiftOperator(shift.n, shift.entries / rho)
    out._rho_cache[0] = 1.0
    return out


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

    @property
    def layout(self) -> "BlockLayout":
        """The connected components of the nominal graph plus the addable edges,
        over which every realization is block-diagonal."""
        return self._sampler.layout

    def realize(self, bits: np.ndarray) -> np.ndarray:
        """Fresh dense shifts (m, n, n) for presence bits (m, M_d + M_a)."""
        sampler = self._sampler
        packed = sampler.fresh(len(bits))
        sampler.write(packed, bits, np.zeros(0, dtype=np.intp))
        return sampler.layout.unpack(packed)

    def thread_cache(self, name: str) -> dict:
        """A dict of this model's reused buffers, private to the calling thread."""
        return self._sampler.local.__dict__.setdefault(name, {})

    @contextmanager
    def scoped_thread_caches(self):
        """Scopes to the block every reused buffer of this model private to the
        calling thread: they are dropped when it ends."""
        try:
            yield
        finally:
            self._sampler.local.__dict__.clear()

    def materialize(self, bits: np.ndarray) -> np.ndarray:
        """The shifts for ``bits`` as packed component blocks (m, layout.width),
        in a workspace the next call on this thread for as many shifts
        overwrites.  The caller only reads it: a call for the bits it already
        holds returns it unwritten."""
        sampler = self._sampler
        pool = self.thread_cache("workspaces")
        if len(bits) not in pool:
            nominal = np.broadcast_to(sampler.nominal_bits, bits.shape)
            pool[len(bits)] = [sampler.fresh(len(bits)), np.zeros(0, dtype=np.intp),
                               nominal.copy()]
        entry = pool[len(bits)]     # the shifts, their indices off nominal, their bits
        if not np.array_equal(entry[2], bits):
            entry[1] = sampler.write(entry[0], bits, entry[1])
            np.copyto(entry[2], bits)
        return entry[0]


@dataclass(frozen=True, eq=False)
class BlockLayout:
    """Shifts that are block-diagonal over the connected components of a graph,
    stored as their blocks.

    ``perm`` lists the node labels in component order and ``inverse`` undoes
    it: components are grouped by size, ordered by their smallest label
    within a size, and keep their nodes in increasing label order, so a
    block product adds its terms in the order a dense one does.  A packed
    shift holds each block row-major, class by class and component by
    component; ``index`` is the flat n x n position of each packed entry.
    ``classes`` holds (size, components, first node, first entry) per size,
    and ``identity`` tells whether component order is the label order.
    """

    perm: np.ndarray
    inverse: np.ndarray
    index: np.ndarray
    classes: tuple
    identity: bool

    @classmethod
    def of(cls, adjacency: np.ndarray) -> "BlockLayout":
        """The components of the graph whose edges are the nonzeros of ``adjacency``."""
        n = len(adjacency)
        reach = np.eye(n) + (adjacency != 0)
        for _ in range(n.bit_length()):     # walks of up to 2^k steps after k squarings
            reach = (reach @ reach > 0).astype(float)
        size, first = np.count_nonzero(reach, axis=1), np.argmax(reach, axis=1)
        perm = np.lexsort((np.arange(n), first, size))
        classes, index, node, entry = [], [], 0, 0
        for s, members in zip(*np.unique(size[perm], return_counts=True)):
            group = perm[node:node + members].reshape(-1, s)
            classes.append((int(s), len(group), node, entry))
            index.append((group[:, :, None] * n + group[:, None, :]).ravel())
            node, entry = node + int(members), entry + int(members * s)
        return cls(perm, np.argsort(perm), np.concatenate(index), tuple(classes),
                   bool(np.all(perm == np.arange(n))))

    @property
    def width(self) -> int:
        """Entries of one packed shift: the sum of its squared block sizes."""
        return self.index.size

    @cached_property
    def diagonal(self) -> np.ndarray:
        """The packed positions of the diagonal entries."""
        return np.flatnonzero(self.index % (self.perm.size + 1) == 0)

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """(..., width) blocks as fresh dense (..., n, n) shifts in the original labels."""
        n = self.perm.size
        out = np.zeros(packed.shape[:-1] + (n * n,))
        out[..., self.index] = packed
        return out.reshape(packed.shape[:-1] + (n, n))

    def apply(self, blocks: np.ndarray, z: np.ndarray, out=None, transpose=False):
        """``out`` = S z for packed shifts ``blocks`` (..., width) and signals
        ``z`` (..., n, B) in component order, broadcast over the leading axes:
        one product per block size."""
        if out is None:
            out = np.empty(np.broadcast_shapes(blocks.shape[:-1], z.shape[:-2]) + z.shape[-2:])
        for size, count, node, entry in self.classes:
            rows = slice(node, node + count * size)
            s = blocks[..., entry:entry + count * size * size]
            s = s.reshape(s.shape[:-1] + (count, size, size))
            split = lambda a: a.reshape(a.shape[:-2] + (count, size, a.shape[-1]))  # noqa: E731
            np.matmul(np.swapaxes(s, -1, -2) if transpose else s, split(z[..., rows, :]),
                      out=split(out[..., rows, :]))
        return out

    def compose(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out`` = a b for packed shifts (..., width), broadcast over the
        leading axes: one product per block size."""
        for size, count, _, entry in self.classes:
            def blocks(m):
                m = m[..., entry:entry + count * size * size]
                return m.reshape(m.shape[:-1] + (count, size, size))
            np.matmul(blocks(a), blocks(b), out=blocks(out))
        return out


class _Sampler:
    """The nominal shift and its random edges, drop edges (present in it)
    first, packed over the components of the graph they form together."""

    def __init__(self, model: GresModel):
        n = model.n
        edges = model.drop_edges + model.add_edges
        ii = np.array([e[0] for e in edges], dtype=np.intp)
        jj = np.array([e[1] for e in edges], dtype=np.intp)
        a = _adjacency_from_edges(n, _kept_edges(model) + model.drop_edges)
        union = a != 0
        union[ii, jj] = union[jj, ii] = True
        self.layout = layout = BlockLayout.of(union)
        at = np.empty(n * n, dtype=np.intp)         # the packed position of a dense entry
        at[layout.index] = np.arange(layout.width)
        self.upper, self.lower = at[ii * n + jj], at[jj * n + ii]
        self.nominal_bits = np.arange(len(edges)) < model.m_drop
        # the adjacency entry of an edge whose bit differs from nominal
        self.flipped = np.array([0.0] * model.m_drop + [e[2] for e in model.add_edges])
        self.base = a.reshape(-1)[layout.index]
        self.local = threading.local()

    def __getstate__(self):       # copies get workspaces of their own
        return {k: v for k, v in vars(self).items() if k != "local"}

    def __setstate__(self, state):
        vars(self).update(state, local=threading.local())

    def fresh(self, m: int) -> np.ndarray:
        """``m`` packed copies of the nominal shift."""
        return np.broadcast_to(self.base, (m, self.base.size)).copy()

    def write(self, buf, bits, dirty):
        """Make ``buf`` (m, width), nominal but at flat indices ``dirty``, the
        realizations ``bits`` (m, M): put those back, then write the edges off
        their nominal state.  Returns the indices written."""
        w = self.base.size
        flat = buf.reshape(-1)
        flat[dirty] = self.base[dirty % w]
        # flat indices: a 2-D nonzero costs about four times as much
        r, e = np.divmod(np.flatnonzero(bits != self.nominal_bits), bits.shape[1])
        upper, lower = r * w + self.upper[e], r * w + self.lower[e]
        flat[upper] = flat[lower] = self.flipped[e]
        return np.concatenate([upper, lower])


def _kept_edges(model: GresModel):
    drops = set(model.drop_edges)
    return tuple(e for e in model.nominal.edges() if e not in drops)


def sample_gres_masks(model: GresModel, count: int, rng: np.random.Generator) -> np.ndarray:
    """Presence bits (count, M_d + M_a) of ``count`` GRES realizations.

    Draw order is fixed (all drop uniforms first, then all add uniforms) so a
    given generator state always produces the same realizations.  A drop edge
    is present when its uniform is >= p; an add edge is present when its
    uniform is < q.
    """
    bits = np.empty((count, model.m_drop + model.m_add), dtype=bool)
    if model.m_drop:
        bits[:, :model.m_drop] = rng.random((count, model.m_drop)) >= model.p
    if model.m_add:
        bits[:, model.m_drop:] = rng.random((count, model.m_add)) < model.q
    return bits


def sample_gres_batch(model: GresModel, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` independent GRES realizations, stacked as (count, n, n)."""
    return model.realize(sample_gres_masks(model, count, rng))


def expected_shift(model: GresModel) -> ShiftOperator:
    """Entrywise mean of the sampled shift: drop-edge weights scale by (1 - p)
    and add-edge weights by q."""
    edges = list(_kept_edges(model))
    edges += [(i, j, w * (1.0 - model.p)) for i, j, w in model.drop_edges]
    edges += [(i, j, w * model.q) for i, j, w in model.add_edges]
    g = Graph(model.n, tuple(e for e in edges if e[2] != 0.0))
    return build_shift(g)


def expected_square(model: GresModel) -> np.ndarray:
    """Closed-form E[S_k^2] of a GRES realization,

        mean^2 + p(1-p) D_d + q(1-q) D_a,

    where D_d / D_a are the degree matrices of the drop / add subgraphs,
    with each edge counted at its squared weight.
    """
    sbar = expected_shift(model).entries
    out = sbar @ sbar
    n = model.n

    def sq_weight_graph(edges):
        return Graph(n, tuple((i, j, w * w) for i, j, w in edges))

    if model.m_drop:
        out = out + model.p * (1.0 - model.p) * np.diag(sq_weight_graph(model.drop_edges).degree())
    if model.m_add:
        out = out + model.q * (1.0 - model.q) * np.diag(sq_weight_graph(model.add_edges).degree())
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

    ``ratings`` is users x items of whole numbers, with 0 marking a missing
    rating.  For each pair the correlation is computed over users that rated
    both items; pairs with fewer than ``min_coraters`` co-raters, or with a
    constant rating vector on the co-rated set, get correlation 0 and are
    omitted.  Returns (i, j, corr) triples sorted by decreasing signed
    correlation, ties broken by (i, j) for determinism; only the first
    ``top`` when it is given.

    The four item x item sums (co-rater counts, sums of ratings and of their
    squares over co-raters, and cross products) are single-precision matrix
    products.  They are exact because every partial sum is an integer below
    2^24, so ratings that are not whole numbers, or too large for
    ``n_users * max|r|^2 < 2^24``, raise GraphError.  The float64 formula
    then runs on the co-rated pairs of the upper triangle alone.
    """
    r = np.asarray(ratings, dtype=np.float32)       # never written to: may be the caller's
    peak = float(max(r.max(), -r.min())) if r.size else 0.0
    if not (np.array_equal(r, ratings) and np.array_equal(r, np.rint(r))
            and r.shape[0] * peak * peak < 2 ** 24):
        raise GraphError("ratings must be whole numbers with n_users * max|r|^2 < 2^24")
    mask = (r != 0).astype(np.float32)
    cnt = mask.T @ mask                 # co-rater counts
    iu, ju = np.nonzero(np.triu(cnt >= min_coraters, k=1))
    n_ij = cnt[iu, ju].astype(float)
    del cnt

    def pair_sums(gram):
        """The float64 (i, j) and (j, i) entries of a Gram product at the kept pairs."""
        return gram[iu, ju].astype(float), gram[ju, iu].astype(float)

    s1_ij, s1_ji = pair_sums(r.T @ mask)    # item-i ratings summed over co-raters with j
    s2_ij, s2_ji = pair_sums((r * r).T @ mask)
    cross = (r.T @ r)[iu, ju].astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        mu_i = s1_ij / n_ij
        mu_j = s1_ji / n_ij
        var_i = s2_ij / n_ij - mu_i ** 2
        var_j = s2_ji / n_ij - mu_j ** 2
        cov = cross / n_ij - mu_i * mu_j
        vals = cov / np.sqrt(var_i * var_j)
    nz = np.nonzero(np.isfinite(vals) & (vals != 0))[0]
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


# ---------------------------------------------------------------------------
# Serialization: edge-list CSV with a JSON sidecar
# ---------------------------------------------------------------------------


def save_shift(csv_path, shift: ShiftOperator, gres: GresModel | None = None) -> None:
    """Write the edge list (header i,j,w) plus a JSON sidecar.

    The sidecar carries {n, kind, gres} where gres is null or the drop/add
    edge sets with their probabilities.
    """
    write_csv(csv_path, ["i", "j", "w"], shift.edges())
    meta = {"n": shift.n, "kind": ADJACENCY, "gres": None}
    if gres is not None:
        meta["gres"] = {
            "drop_edges": [list(e) for e in gres.drop_edges],
            "add_edges": [list(e) for e in gres.add_edges],
            "p": gres.p,
            "q": gres.q,
        }
    write_json(str(csv_path) + ".json", meta)

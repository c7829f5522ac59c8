"""Dataset generation, metrics, and experiment orchestration.

Two tasks are wired up end to end: community-source localization on
stochastic block models (synthetic diffusion signals, classification) and
movie-rating prediction on a Pearson-correlation item graph (regression plus
a recommendation-diversity metric).  ``cell_task`` builds either task at one
edge probability (a recommender sweep builds its item graph once, with
``load_task``), ``run_cell`` trains and evaluates one cell on it, and
``run_experiment`` sweeps edge-failure probabilities and training modes over
several graph seeds and writes plot-ready CSV rows.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng as rngmod
from .errors import ConfigError, GraphError
from .estimators import sample_stack
from .graphs import (
    Graph,
    GresModel,
    build_shift,
    community_labels,
    expected_shift,
    normalize_shift,
    pearson_correlations,
    sbm_generate,
)
from .model import Architecture, forward_stack, init_params
from .training import MODES, PRIMAL_DUAL, UNCONSTRAINED, Batch, TrainConfig, train
from .util import parallel_map, read_csv, write_csv, write_json
from .verify import model_lipschitz


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass
class LabeledDataset:
    """Signals plus labels (or masked targets) with train/val/test splits."""

    inputs: np.ndarray                 # (num, F0, n)
    labels: np.ndarray                 # (num,) ints or (num, n) targets
    masks: np.ndarray | None = None    # (num, n)
    splits: dict = field(default_factory=dict)

    def __post_init__(self):
        num = self.inputs.shape[0]
        seen = np.concatenate([np.asarray(v) for v in self.splits.values()]) \
            if self.splits else np.zeros(0, dtype=int)
        if self.splits:
            if len(np.unique(seen)) != seen.size:
                raise ConfigError("splits overlap")
            if seen.size != num:
                raise ConfigError("splits do not cover the dataset")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    def _batch_from(self, idx: np.ndarray) -> Batch:
        """Samples ``idx`` on the last axis, each array C-contiguous: x (F0, n, B),
        labels (B,) or targets and masks (n, B)."""
        return Batch(*(None if a is None else np.ascontiguousarray(np.moveaxis(a[idx], 0, -1))
                       for a in (self.inputs, self.labels, self.masks)))

    def sample_batch(self, rng: np.random.Generator, size: int, split: str = "train") -> Batch:
        pool = self.splits[split]
        idx = pool[rng.integers(0, pool.size, size=size)]
        return self._batch_from(idx)

    def full_batch(self, split: str) -> Batch:
        return self._batch_from(self.splits[split])


def make_splits(num: int, fractions=(0.8, 0.1, 0.1), shuffle_rng=None) -> dict:
    """Deterministic contiguous (or shuffled) train/val/test index sets."""
    idx = np.arange(num)
    if shuffle_rng is not None:
        shuffle_rng.shuffle(idx)
    n_train = int(round(num * fractions[0]))
    n_val = int(round(num * fractions[1]))
    return {
        "train": idx[:n_train],
        "val": idx[n_train:n_train + n_val],
        "test": idx[n_train + n_val:],
    }


# ---------------------------------------------------------------------------
# Source localization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SourceLocConfig:
    n: int = 50
    communities: int = 5
    p_intra: float = 0.8
    p_inter: float = 0.2
    p: float = 0.1
    t_max: int = 50
    noise_std: float = 0.01
    standardize: bool = False
    split_sizes: tuple = (10000, 2500, 2500)
    desk_scale_factor: float = 1.0

    def scaled_sizes(self) -> tuple:
        return tuple(max(1, int(round(s * self.desk_scale_factor))) for s in self.split_sizes)


def community_sources(graph: Graph, c: int) -> np.ndarray:
    """One source per community: its highest-degree node (ties: lowest id)."""
    labels = community_labels(graph.n, c)
    deg = graph.degree()
    sources = []
    for comm in range(c):
        members = np.nonzero(labels == comm)[0]
        sources.append(int(members[np.argmax(deg[members])]))
    return np.array(sources)


def _source_signals(cfg: SourceLocConfig, rng: np.random.Generator):
    """SBM graph, all-edges-droppable GRES model, and diffusion signals.

    Each sample diffuses a Kronecker delta from one of the per-community
    source nodes for a uniformly random number of steps; the input adds
    Gaussian noise to it.  Diffusion runs over the expected shift normalized
    by its spectral radius so long diffusion times stay bounded.  Returns
    (graph, gres, source community, clean signal, input, splits).
    """
    graph = sbm_generate(cfg.n, cfg.communities, cfg.p_intra, cfg.p_inter, rng)
    if not graph.edges:
        raise GraphError("SBM draw produced an empty graph; cannot diffuse")
    nominal = normalize_shift(build_shift(graph))
    gres = GresModel(nominal, drop_edges=nominal.edges(), add_edges=(), p=cfg.p)
    diffusion = normalize_shift(expected_shift(gres)).entries
    sources = community_sources(graph, cfg.communities)

    # all diffused deltas up to t_max, per source
    table = np.zeros((cfg.communities, cfg.t_max + 1, cfg.n))
    for s_idx, s in enumerate(sources):
        vec = np.zeros(cfg.n)
        vec[s] = 1.0
        table[s_idx, 0] = vec
        for t in range(1, cfg.t_max + 1):
            vec = diffusion @ vec
            table[s_idx, t] = vec

    sizes = cfg.scaled_sizes()
    total = sum(sizes)
    src = rng.integers(0, cfg.communities, size=total)
    ts = rng.integers(0, cfg.t_max + 1, size=total)
    clean = table[src, ts]
    noise = cfg.noise_std * rng.normal(size=(total, cfg.n))
    inputs = (clean + noise)[:, None, :]
    if cfg.standardize:
        # one constant gain from the training portion, shared by every split
        scale = float(np.std(inputs[:sizes[0]]))
        if scale > 0:
            inputs = inputs / scale
    splits = {
        "train": np.arange(sizes[0]),
        "val": np.arange(sizes[0], sizes[0] + sizes[1]),
        "test": np.arange(sizes[0] + sizes[1], total),
    }
    return graph, gres, src, clean, inputs, splits


def gen_source_localization(cfg: SourceLocConfig, rng: np.random.Generator):
    """SBM graph, GRES model, and diffusion dataset labeled by source community."""
    graph, gres, src, _, inputs, splits = _source_signals(cfg, rng)
    return graph, gres, LabeledDataset(inputs, src.astype(int), None, splits)


def gen_source_denoising(cfg: SourceLocConfig, rng: np.random.Generator):
    """Regression variant: recover the clean diffusion pattern from noise.

    Same signals as the classification task, but the label is the noiseless
    diffused delta and there is no readout, so the output scale is pinned by
    the targets (scaled so the per-node second moment of the train targets
    is 1.5).  Used by the variance-budget sweeps, where a free
    readout scale would otherwise absorb the moment constraints.
    """
    graph, gres, _, clean, inputs, splits = _source_signals(cfg, rng)
    n_train = splits["train"].size
    t_scale = math.sqrt(1.5 / max(np.mean(clean[:n_train] ** 2), 1e-12))
    targets = clean * t_scale
    return graph, gres, LabeledDataset(inputs, targets, np.ones_like(targets), splits)


# ---------------------------------------------------------------------------
# MovieLens / recommender system
# ---------------------------------------------------------------------------


_RATING_FIELDS = np.dtype([("user", np.int64), ("item", np.int64), ("rating", np.float64),
                          ("timestamp", np.int64)])


def load_movielens(path, n_users: int = 943, n_items: int = 1682,
                   expect_count: int | None = 100000) -> np.ndarray:
    """Parse a tab-separated ``u.data`` rating file into a dense matrix.

    Each non-blank line is ``user<TAB>item<TAB>rating<TAB>timestamp``, with
    integer ids and timestamp; one ``np.loadtxt`` pass reads them all.  Ids
    are 1-based in the file; the returned users x items matrix uses 0 for
    unrated.  A malformed line, an out-of-range id, a rating that is not a
    whole number of stars from 1 to 5 and a repeated (user, item) pair raise
    with the line number, the earliest such line first (a malformed line
    before all others); a wrong total count raises when ``expect_count`` is
    given.
    """
    with open(path) as f:
        lines = f.read().split("\n")
    rows = [row for row in map(str.strip, lines) if row]

    def line_of(k):         # the 1-based line number of rows[k], for messages
        return [n for n, line in enumerate(lines, start=1) if line.strip()][k]

    try:
        table = np.loadtxt(rows, dtype=_RATING_FIELDS, delimiter="\t", comments=None,
                           ndmin=1) if rows else np.zeros(0, _RATING_FIELDS)
    except ValueError as exc:
        for k, row in enumerate(rows):
            try:
                np.loadtxt([row], dtype=_RATING_FIELDS, delimiter="\t", comments=None)
            except ValueError:
                raise ConfigError(f"{path}:{line_of(k)}: expected 4 tab-separated fields, "
                                  f"all integers but the rating: {row!r}") from exc
        raise ConfigError(f"{path}: {exc}") from exc
    user, item, rating = table["user"], table["item"], table["rating"]
    bad_id = (user < 1) | (user > n_users) | (item < 1) | (item > n_items)
    faults = np.flatnonzero(bad_id | ~np.isin(rating, np.arange(1, 6)))
    stop = faults[0] if faults.size else table.size
    # a pair rated again before the first other fault is the earliest fault
    keys = (user[:stop] - 1) * n_items + (item[:stop] - 1)
    distinct, first = np.unique(keys, return_index=True)
    repeated = np.ones(stop, dtype=bool)
    repeated[first] = False
    if repeated.any():
        k = np.flatnonzero(repeated)[0]
        seen = first[np.searchsorted(distinct, keys[k])]
        raise ConfigError(f"{path}:{line_of(k)}: ({user[k]},{item[k]}) already rated on line "
                          f"{line_of(seen)}")
    if faults.size:
        k = stop
        if bad_id[k]:
            raise ConfigError(
                f"{path}:{line_of(k)}: id ({user[k]},{item[k]}) outside {n_users}x{n_items}")
        stars = rows[k].split("\t")[2]
        raise ConfigError(f"{path}:{line_of(k)}: rating {stars!r} is not a whole number of "
                          f"stars from 1 to 5")
    if expect_count is not None and table.size != expect_count:
        raise ConfigError(f"{path}: expected {expect_count} ratings, found {table.size}")
    ratings = np.zeros((n_users, n_items))
    ratings[user - 1, item - 1] = rating
    return ratings


def write_synthetic_movielens(path, seed: int = 0, n_users: int = 943,
                              n_items: int = 1682, n_ratings: int = 100000) -> None:
    """Materialize a ratings file with the MovieLens-100k layout.

    A low-rank latent model with popularity skew produces correlated item
    columns, so the Pearson graph built on top is informative.  Intended as
    a stand-in when the real dataset is not on disk; the loader treats both
    identically.
    """
    rng = rngmod.root_rng(seed)
    rank = 4
    users = rng.normal(size=(n_users, rank))
    items = rng.normal(size=(n_items, rank))
    user_bias = 0.3 * rng.normal(size=n_users)
    item_bias = 0.5 * rng.normal(size=n_items)
    popularity = rng.zipf(1.6, size=n_items).astype(float)
    popularity = np.minimum(popularity, 2000.0)
    activity = 1.0 + rng.gamma(2.0, 2.0, size=n_users)
    logw = np.log(np.outer(activity, popularity)).ravel()
    gumbel = rng.gumbel(size=logw.size)
    top = np.argpartition(-(logw + gumbel), n_ratings - 1)[:n_ratings]
    uu, ii = np.unravel_index(top, (n_users, n_items))
    raw = 3.5 + user_bias[uu] + item_bias[ii] \
        + 0.6 * np.einsum("kr,kr->k", users[uu], items[ii]) \
        + 0.4 * rng.normal(size=n_ratings)
    vals = np.clip(np.rint(raw), 1, 5).astype(int)
    order = np.lexsort((ii, uu))
    with open(path, "w") as f:
        for k in order:
            f.write(f"{uu[k] + 1}\t{ii[k] + 1}\t{vals[k]}\t{881250949}\n")


@dataclass(frozen=True)
class RecsysConfig:
    keep_top: int = 35
    add_next: int = 20
    max_samples: int | None = None


@dataclass
class RecsysTask:
    """Item graph, its random-edge model, holdout dataset, and bookkeeping.

    The graph lives on the induced subgraph of items touched by the kept or
    addable edges; outputs at those nodes are unchanged by the restriction
    because no other node can reach them.
    """

    graph: Graph
    gres: GresModel
    dataset: LabeledDataset
    covered_items: np.ndarray   # original item ids, position = subgraph node
    ratings_sub: np.ndarray     # users x covered items (raw scale)
    sample_users: np.ndarray    # user id per dataset sample
    sample_items: np.ndarray    # subgraph node per dataset sample
    rating_mean: float = 0.0    # subtracted from signals and targets


def build_recsys_task(ratings: np.ndarray, cfg: RecsysConfig, p: float = 0.1) -> RecsysTask:
    """Pearson item graph with droppable top edges and addable runner-ups.

    The ``keep_top`` highest-correlation edges form the nominal graph and may
    all drop; the next ``add_next`` by correlation may appear, both with
    probability p.  One sample per (user, rated covered movie): the
    held-out entry is zeroed in the input and must be predicted at its node.
    """
    corrs = pearson_correlations(ratings, top=cfg.keep_top + cfg.add_next)
    if len(corrs) < cfg.keep_top + cfg.add_next:
        raise ConfigError(
            f"only {len(corrs)} correlated pairs; need {cfg.keep_top + cfg.add_next}")
    top = corrs[:cfg.keep_top]
    nxt = corrs[cfg.keep_top:cfg.keep_top + cfg.add_next]
    covered = np.unique([v for i, j, _ in top + nxt for v in (i, j)])
    remap = {orig: k for k, orig in enumerate(covered)}
    m = covered.size
    top_sub = tuple((remap[i], remap[j], w) for i, j, w in top)
    nxt_sub = tuple((remap[i], remap[j], w) for i, j, w in nxt)
    graph = Graph(m, top_sub)
    shift = build_shift(graph)
    nominal = normalize_shift(shift)
    scale = 1.0 / shift.spectral_radius()
    gres = GresModel(
        nominal,
        drop_edges=nominal.edges(),
        add_edges=tuple((i, j, w * scale) for i, j, w in nxt_sub),
        p=p, q=p,
    )

    sub = ratings[:, covered]
    users, items = np.nonzero(sub)
    eligible = np.nonzero((sub != 0).sum(axis=1) >= 2)[0]
    keep = np.isin(users, eligible)
    users, items = users[keep], items[keep]
    order = np.lexsort((items, users))
    users, items = users[order], items[order]
    if cfg.max_samples is not None and users.size > cfg.max_samples:
        rng = rngmod.derive(0, 1)
        sel = np.sort(rng.choice(users.size, cfg.max_samples, replace=False))
        users, items = users[sel], items[sel]

    # rating signals carry deviations from the global observed mean, the
    # standard collaborative-filtering centering: a zero prediction at an
    # uninformative node then means "predict the average rating" instead of
    # an impossible absolute level (the network has no bias terms)
    mu = float(sub[sub != 0].mean()) if np.any(sub != 0) else 0.0
    centered = np.where(sub != 0, sub - mu, 0.0)

    num = users.size
    inputs = centered[users][:, None, :].copy()
    targets = np.zeros((num, m))
    masks = np.zeros((num, m))
    for k in range(num):
        inputs[k, 0, items[k]] = 0.0
        targets[k, items[k]] = centered[users[k], items[k]]
        masks[k, items[k]] = 1.0
    splits = make_splits(num, shuffle_rng=rngmod.derive(0, 2))
    dataset = LabeledDataset(inputs, targets, masks, splits)
    return RecsysTask(graph, gres, dataset, covered, sub, users, items, mu)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def metric_accuracy(preds: np.ndarray, labels: np.ndarray) -> float:
    """Exact-match classification rate."""
    return float(np.mean(np.asarray(preds) == np.asarray(labels)))


def metric_rmse(preds: np.ndarray, targets: np.ndarray, masks: np.ndarray) -> float:
    """Root mean squared error over observed entries."""
    masks = np.asarray(masks, dtype=float)
    total = masks.sum()
    if total == 0:
        return 0.0
    sq = ((np.asarray(preds) - np.asarray(targets)) ** 2 * masks).sum() / total
    return float(math.sqrt(sq))


def metric_ad_at_k(recommendation_lists, k: int = 10) -> int:
    """Aggregated diversity: distinct items across all users' top-k lists."""
    firsts = [np.asarray(lst[:k], dtype=np.int64) for lst in recommendation_lists]
    return int(np.unique(np.concatenate(firsts)).size) if firsts else 0


def top_k_items(pred_ratings: np.ndarray, already_rated: np.ndarray, k: int = 10):
    """Up to k highest-predicted unrated items, best first, ties broken by item id.

    Items run along the last axis.  A 1-D input gives one index array; a 2-D
    input (users, items) gives one per user, all ranked by one lexsort.
    """
    scores = np.atleast_2d(np.where(already_rated, -np.inf, pred_ratings))
    finite = np.isfinite(scores)
    ids = np.broadcast_to(np.arange(scores.shape[-1]), scores.shape)
    order = np.lexsort((ids, -scores, ~finite), axis=-1)[:, :k]
    lists = [row[:count] for row, count in zip(order, np.minimum(finite.sum(axis=-1), k))]
    return lists if np.ndim(pred_ratings) > 1 else lists[0]


# ---------------------------------------------------------------------------
# Experiment orchestration
# ---------------------------------------------------------------------------

RESULTS_COLUMNS = ["task", "mode", "p", "q", "graph_seed", "metric", "mean", "std"]

SOURCE_LOCALIZATION = "source_localization"
RECSYS = "recsys"


@dataclass(frozen=True)
class ExperimentConfig:
    task: str = SOURCE_LOCALIZATION
    p_values: tuple = (0.05, 0.15, 0.25)
    modes: tuple = (PRIMAL_DUAL, UNCONSTRAINED)
    graph_seeds: tuple = (0, 1, 2)
    master_seed: int = 0
    arch: Architecture = field(default_factory=lambda: Architecture((1, 4, 1), 4, readout=5))
    train: TrainConfig = field(default_factory=TrainConfig)
    source: SourceLocConfig = field(default_factory=lambda: SourceLocConfig(desk_scale_factor=0.3))
    recsys: RecsysConfig = field(default_factory=RecsysConfig)
    ratings_path: str | None = None
    eval_draws: int = 200
    cost_window: int = 100

    def __post_init__(self):
        if self.task not in (SOURCE_LOCALIZATION, RECSYS):
            raise ConfigError(f"unknown task {self.task!r}")
        for mode in self.modes:
            if mode not in MODES:
                raise ConfigError(f"unknown training mode {mode!r}")
        if self.eval_draws < 1 or self.cost_window < 1:
            raise ConfigError("eval_draws and cost_window must be >= 1")
        if not (self.p_values and self.modes and self.graph_seeds):
            raise ConfigError("p_values, modes and graph_seeds must not be empty")
        for p in self.p_values:
            if not (isinstance(p, (int, float)) and not isinstance(p, bool) and 0 <= p < 1):
                raise ConfigError(f"p_values must be numbers in [0, 1), got {p!r}")
        for seed in self.graph_seeds:
            if not (isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0):
                raise ConfigError(f"graph_seeds must be integers >= 0, got {seed!r}")
        # one spelling of each p in results, summary keys and trace names
        object.__setattr__(self, "p_values", tuple(float(p) for p in self.p_values))
        for key in ("p_values", "modes", "graph_seeds"):
            values = getattr(self, key)
            if len(set(values)) < len(values):
                raise ConfigError(f"sweep.{key} repeats a value: {list(values)!r}")


def _evaluate_recsys(params, task, draws, rng, mode_realizations):
    """Per-draw test RMSE and AD@10 over fresh realization sequences."""
    batch = task.dataset.full_batch("test")
    test_idx = task.dataset.splits["test"]
    users = np.unique(task.sample_users[test_idx])
    rated = task.ratings_sub[users] != 0
    user_inputs = np.zeros((1, task.graph.n, users.size))
    user_inputs[0] = np.where(rated, task.ratings_sub[users] - task.rating_mean, 0.0).T
    rmses = np.empty(draws)
    ads = np.empty(draws)
    for d in range(draws):
        stack = sample_stack(task.gres, params.arch, 1, rng, mode_realizations)
        pred = forward_stack(params, stack, batch.x, keep_tape=False).output[0, 0]
        rmses[d] = metric_rmse(pred, batch.y, batch.mask)
        stack = sample_stack(task.gres, params.arch, 1, rng, mode_realizations)
        pred_u = forward_stack(params, stack, user_inputs, keep_tape=False).output[0, 0]
        ads[d] = metric_ad_at_k(top_k_items(pred_u.T, rated), 10)
    return rmses, ads


def load_task(cfg: ExperimentConfig, ratings=None):
    """The recommender task every cell of a recsys experiment shares, built at
    the first sweep p from ``ratings``, by default the config's ratings file;
    None for other tasks."""
    if cfg.task != RECSYS:
        return None
    if ratings is None:
        if cfg.ratings_path is None:
            raise ConfigError("recsys task needs ratings_path in the config")
        ratings = load_movielens(cfg.ratings_path)
    return build_recsys_task(ratings, cfg.recsys, cfg.p_values[0])


def cell_task(cfg: ExperimentConfig, graph_seed: int, p: float, task=None):
    """(gres, dataset, evaluate) of the configured task at edge probability p.

    A recsys cell takes the item graph and data set of ``task`` (see
    ``load_task``), whatever p it was built at, and its GRES model at p.
    ``evaluate(params, draws, rng)`` maps each metric name to its per-draw
    test values over fresh realization sequences.
    """
    mode = cfg.train.realization_mode
    if cfg.task == SOURCE_LOCALIZATION:
        _, gres, dataset = gen_source_localization(
            replace(cfg.source, p=p), rngmod.derive(cfg.master_seed, 1, graph_seed))

        def evaluate(params, draws, rng):
            batch = dataset.full_batch("test")
            accs = np.empty(draws)
            for d in range(draws):
                stack = sample_stack(gres, params.arch, 1, rng, mode)
                logits = forward_stack(params, stack, batch.x, keep_tape=False).logits
                pred = np.argmax(logits[0], axis=0)
                accs[d] = metric_accuracy(pred, batch.y)
            return {"accuracy": accs}
        return gres, dataset, evaluate
    task = replace(task, gres=replace(task.gres, p=p, q=p))

    def evaluate(params, draws, rng):
        rmses, ads = _evaluate_recsys(params, task, draws, rng, mode)
        return {"rmse": rmses, "ad_at_10": ads}
    return task.gres, task.dataset, evaluate


def metric_rows(task: str, mode: str, p: float, q: float, graph_seed: int, metrics) -> list:
    """One ``results.csv`` row per metric: the mean and std of its values."""
    return [{"task": task, "mode": mode, "p": p, "q": q, "graph_seed": graph_seed,
             "metric": name, "mean": float(values.mean()), "std": float(values.std(ddof=0))}
            for name, values in metrics.items()]


def run_cell(cfg: ExperimentConfig, graph_seed: int, p: float, mode: str, task=None):
    """Train one (graph seed, p, mode) cell and evaluate it.

    Returns (rows, trace, params, gamma).  Evaluation takes one draw when no
    edge is random.  Source-localization cells add the mean cost over the
    last ``cost_window`` iterations as a row.
    """
    gres, dataset, evaluate = cell_task(cfg, graph_seed, p, task)
    params0 = init_params(cfg.arch, rngmod.derive(cfg.master_seed, 2, graph_seed), n=gres.n)
    key = rngmod.stream_key(p)
    params, gamma, trace = train(params0, gres, dataset, replace(cfg.train, mode=mode),
                                 rngmod.derive(cfg.master_seed, 3, graph_seed, key))
    metrics = evaluate(params, cfg.eval_draws if p > 0 else 1,
                       rngmod.derive(cfg.master_seed, 4, graph_seed, key))
    if cfg.task == SOURCE_LOCALIZATION:
        metrics["cost"] = trace.column("mean_cost")[-cfg.cost_window:]
    return metric_rows(cfg.task, mode, p, gres.q, graph_seed, metrics), trace, params, gamma


def run_source_cell(cfg: ExperimentConfig, graph_seed: int, p: float, mode: str):
    """Train one source-localization cell and evaluate it; see ``run_cell``."""
    return run_cell(cfg, graph_seed, p, mode)


def run_recsys_cell(cfg: ExperimentConfig, ratings: np.ndarray, p: float, mode: str):
    """Train one recommender cell on ``ratings`` and evaluate it; see ``run_cell``."""
    return run_cell(cfg, 0, p, mode, build_recsys_task(ratings, cfg.recsys, p))


def run_experiment(cfg: ExperimentConfig, out_dir=None):
    """Full sweep over (graph seed x p x mode); returns and/or writes rows.

    ``results.csv`` gets one row per cell and metric; traces land next to it
    as ``trace_<task>_<mode>_p<p>_s<seed>.csv``; ``summary.json`` aggregates
    per (mode, p) across seeds.  Recommender sweeps have the one graph seed 0.
    """
    task = load_task(cfg)
    seeds = cfg.graph_seeds if cfg.task == SOURCE_LOCALIZATION else (0,)
    cells = [(seed, p, mode) for seed in seeds for p in cfg.p_values for mode in cfg.modes]
    rows = []
    traces = {}
    for (seed, p, mode), (cell_rows, trace, _, _) in zip(
            cells, parallel_map(lambda cell: run_cell(cfg, *cell, task), cells)):
        rows.extend(cell_rows)
        traces[f"trace_{cfg.task}_{mode}_p{p}_s{seed}.csv"] = trace
    rows.sort(key=lambda r: (r["task"], r["mode"], r["p"], r["graph_seed"], r["metric"]))
    summary = summarize_rows(rows)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(os.path.join(out_dir, "results.csv"), RESULTS_COLUMNS, rows)
        for name, trace in traces.items():
            trace.to_csv(os.path.join(out_dir, name))
        write_json(os.path.join(out_dir, "summary.json"), summary)
    return rows, summary


def summarize_rows(rows: list) -> dict:
    """Mean over graph seeds, keyed task/mode/metric/p."""
    acc = {}
    for r in rows:
        key = (r["task"], r["mode"], r["metric"], r["p"])
        acc.setdefault(key, []).append((r["mean"], r["std"]))
    out = {}
    for (task, mode, metric, p), vals in sorted(acc.items()):
        means = [v[0] for v in vals]
        stds = [v[1] for v in vals]
        out[f"{task}/{mode}/{metric}/p={p}"] = {
            "mean": float(np.mean(means)),
            "std": float(np.mean(stds)),
            "seeds": len(vals),
        }
    return out


def read_results(path) -> list:
    return [dict(row, p=float(row["p"]), q=float(row["q"]), graph_seed=int(row["graph_seed"]),
                 mean=float(row["mean"]), std=float(row["std"]))
            for row in read_csv(path)]


# ---------------------------------------------------------------------------
# Lipschitz-vs-variance-bound sweep (the discrimination trade-off figure)
# ---------------------------------------------------------------------------

LIPSCHITZ_COLUMNS = ["c_v", "graph_seed", "c_l"]


def run_cv_sweep(cfg: ExperimentConfig, c_v_values=(0.1, 0.3, 0.5, 0.7),
                 out_dir=None, lipschitz_samples: int = 2000):
    """Train at several variance budgets and record the mean filter slope.

    Tighter budgets should force flatter frequency responses; rows land in
    ``lipschitz.csv`` as (c_v, graph_seed, c_l).  Runs on the denoising
    regression variant: without a readout the output scale is pinned by the
    targets, so the moment budget has to reach the filter taps instead of
    being absorbed by a free output rescaling.
    """
    arch = replace(cfg.arch, readout=None)
    tasks = {}
    for seed in cfg.graph_seeds:
        _, gres, dataset = gen_source_denoising(cfg.source, rngmod.derive(cfg.master_seed, 1, seed))
        params0 = init_params(arch, rngmod.derive(cfg.master_seed, 2, seed), n=cfg.source.n)
        tasks[seed] = (gres, dataset, params0)

    def run(cell):
        seed, c_v = cell
        gres, dataset, params0 = tasks[seed]
        tc = replace(cfg.train, mode=PRIMAL_DUAL, c_f=0.0, c_s=float(c_v), loss="masked_mse")
        key = rngmod.stream_key(c_v)
        rng = rngmod.derive(cfg.master_seed, 5, seed, key)
        params, _, _ = train(params0, gres, dataset, tc, rng)
        lip_rng = rngmod.derive(cfg.master_seed, 6, seed, key)
        c_l = model_lipschitz(params, 1.0, lipschitz_samples, lip_rng, reduce="mean")
        return {"c_v": float(c_v), "graph_seed": seed, "c_l": float(c_l)}

    rows = parallel_map(run, [(seed, c_v) for seed in cfg.graph_seeds for c_v in c_v_values])
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(os.path.join(out_dir, "lipschitz.csv"), LIPSCHITZ_COLUMNS, rows)
    return rows

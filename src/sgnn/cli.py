"""Command-line entry point.

Subcommands: ``train`` (one training run), ``eval`` (metrics for a checkpoint
over a probability sweep), ``verify`` (the closed-form check suite),
``gen-data`` (materialize datasets), ``sweep`` (every cell of the config),
``report`` (aggregate results into per-figure CSV files).  ``--full`` merges
the config's partial ``full`` document over it before the ``--override``s
apply.  All randomness flows from ``--seed``; repeating any command with the
same config and seed reproduces its CSV outputs byte for byte.

Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 verification
violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import rng as rngmod
from .errors import ConfigError, NumericalError, SgnnError
from .estimators import McConfig, append_moments_row, estimate_moments
from .experiments import (
    RECSYS,
    SOURCE_LOCALIZATION,
    ExperimentConfig,
    RecsysConfig,
    SourceLocConfig,
    build_recsys_task,
    cell_task,
    load_movielens,
    load_ratings,
    metric_rows,
    read_results,
    run_cv_sweep,
    run_experiment,
    write_results,
    write_synthetic_movielens,
)
from .graphs import GresModel, build_shift, save_shift
from .model import Architecture, init_params, load_params, save_params
from .training import TrainConfig, TrainTrace, _csv_cells, train
from .verify import (
    BoundReport,
    check_chebyshev,
    check_lipschitz_majorant,
    check_moment_formula,
    check_output_bound,
    check_stability,
    check_variance_bound,
    convergence_diagnostics,
    write_reports,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VIOLATION = 4

CONFIG_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not KEY=VALUE")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _merge(doc: dict, update: dict) -> dict:
    """``doc`` with ``update`` merged over it key by key, objects recursively."""
    out = dict(doc)
    for key, value in update.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            value = _merge(out[key], value)
        out[key] = value
    return out


def _apply_overrides(doc: dict, overrides) -> dict:
    for text in overrides or []:
        key, value = _parse_override(text)
        for part in reversed(key.split(".")):
            value = {part: value}
        doc = _merge(doc, value)
    return doc


def _merge_full(doc: dict) -> dict:
    """The document with its partial ``full`` document merged over it."""
    full = doc.get("full") or {}
    _check_keys(full, TOP_KEYS, "full")
    return _merge({k: v for k, v in doc.items() if k != "full"}, full)


def load_config(path, overrides=None, full: bool = False) -> dict:
    """The config document at ``path``; with ``full``, its ``full`` section is
    merged over it first, so an override always wins."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level config must be an object")
    schema = doc.get("schema")
    if schema != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"{path}: unsupported schema {schema!r} (expected {CONFIG_SCHEMA_VERSION})")
    return _apply_overrides(_merge_full(doc) if full else doc, overrides)


def _check_keys(section: dict, allowed, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


def _build(section: dict, cls, where: str):
    _check_keys(section, cls.__dataclass_fields__, where)
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in section.items()})
    except TypeError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


TOP_KEYS = ("schema", "task", "architecture", "train", "source", "recsys",
            "sweep", "ratings_path", "eval_draws", "cost_window", "verify",
            "cv_values", "full")


def parse_experiment_config(doc: dict, seed: int, full: bool = False) -> ExperimentConfig:
    """The experiment a config document describes; ``full`` merges its ``full``
    section over it first.  That section is checked either way."""
    if "full" in doc:
        merged = parse_experiment_config(_merge_full(doc), seed)
        if full:
            return merged
    _check_keys(doc, TOP_KEYS, "config")
    sweep = doc.get("sweep", {})
    _check_keys(sweep, ("p_values", "modes", "graph_seeds"), "sweep")
    kwargs = {k: v for k, v in doc.items() if k in ("task", "ratings_path", "eval_draws",
                                                     "cost_window")}
    kwargs.update({k: tuple(v) for k, v in sweep.items()})
    if "architecture" in doc:
        kwargs["arch"] = _build(doc["architecture"], Architecture, "architecture")
    return ExperimentConfig(
        train=_build(doc.get("train", {}), TrainConfig, "train"),
        source=_build(doc.get("source", {}), SourceLocConfig, "source"),
        recsys=_build(doc.get("recsys", {}), RecsysConfig, "recsys"),
        master_seed=seed, **kwargs)


def _prepare_out_dir(out_dir, overwrite: bool, expected_files) -> None:
    os.makedirs(out_dir, exist_ok=True)
    if overwrite:
        return
    clashes = [f for f in expected_files if os.path.exists(os.path.join(out_dir, f))]
    if clashes:
        raise ConfigError(
            f"output files already exist in {out_dir}: {', '.join(clashes)} "
            "(pass --overwrite to replace them)")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    doc = load_config(args.config, args.override, args.full)
    cfg = parse_experiment_config(doc, args.seed)
    _prepare_out_dir(args.out, args.overwrite,
                     ["trace.csv", "checkpoint.json", "summary.json"])
    p = cfg.p_values[0]
    gres, dataset, _ = cell_task(cfg, 0, p, load_ratings(cfg))
    params0 = init_params(cfg.arch, rngmod.derive(cfg.master_seed, 2, 0), n=gres.n)
    ckpt_every = cfg.train.checkpoint_every
    trace_path = os.path.join(args.out, "trace.csv")
    TrainTrace().to_csv(trace_path)

    def checkpointer(t, params, gamma, trace):
        # stream the fresh row so a long run can be watched (and survives aborts)
        with open(trace_path, "a", newline="") as f:
            csv.writer(f).writerow(_csv_cells(trace.rows[-1]))
        if ckpt_every and (t + 1) % ckpt_every == 0:
            save_params(os.path.join(args.out, f"checkpoint_{t + 1}.json"),
                        params, iteration=t + 1)

    params, gamma, trace = train(params0, gres, dataset, cfg.train,
                                 rngmod.derive(cfg.master_seed, 3, 0),
                                 callback=checkpointer)
    save_params(os.path.join(args.out, "checkpoint.json"), params,
                rng_state=cfg.master_seed, iteration=len(trace))
    summary = {
        "iterations": len(trace),
        "final_cost": trace.rows[-1]["mean_cost"] if len(trace) else None,
        "final_variance": trace.rows[-1]["variance"] if len(trace) else None,
        "gamma": [gamma.gamma1, gamma.gamma2],
        "mode": cfg.train.mode,
        "p": p,
    }
    with open(os.path.join(args.out, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
    return EXIT_OK


def cmd_eval(args) -> int:
    doc = load_config(args.config, args.override, args.full)
    cfg = parse_experiment_config(doc, args.seed)
    _prepare_out_dir(args.out, args.overwrite, ["results.csv"])
    params, _, _ = load_params(args.checkpoint)
    ratings = load_ratings(cfg)
    rows = []
    for p in cfg.p_values:
        gres, _, evaluate = cell_task(cfg, 0, p, ratings)
        metrics = evaluate(params, cfg.eval_draws,
                           rngmod.derive(cfg.master_seed, 4, rngmod.stream_key(p)))
        rows.extend(metric_rows(cfg.task, "eval", p, gres.q, 0, metrics))
    write_results(os.path.join(args.out, "results.csv"), rows)
    return EXIT_OK


VERIFY_CHECKS = ("moment-formula", "variance-bound", "chebyshev", "output-bound",
                 "stability", "lipschitz", "convergence")


def _default_verify_fixture(seed: int):
    """A small trained-ish model over a 12-node SBM used by every check."""
    from .graphs import normalize_shift, sbm_generate

    rng = rngmod.derive(seed, 10)
    graph = sbm_generate(12, 3, 0.8, 0.25, rng)
    nominal = normalize_shift(build_shift(graph, "adjacency"))
    edges = nominal.edges()
    gres = GresModel(nominal, drop_edges=edges[:min(6, len(edges))],
                     add_edges=(), p=0.2, q=0.0)
    arch = Architecture((1, 2, 1), 2, activation="abs")
    params = init_params(arch, rngmod.derive(seed, 11))
    x = rngmod.derive(seed, 12).normal(size=12)
    return gres, params, x


def cmd_verify(args) -> int:
    doc = load_config(args.config, args.override, args.full) if args.config else {"schema": 1}
    vdoc = doc.get("verify", {})
    _check_keys(vdoc, ("bound_scale", "n_realizations", "eps_grid", "stability_trials"),
                "verify")
    bound_scale = float(vdoc.get("bound_scale", 1.0))
    n_real = int(vdoc.get("n_realizations", 400))
    only = args.only
    if only is not None and only not in VERIFY_CHECKS:
        raise ConfigError(f"unknown check {only!r}; available: {', '.join(VERIFY_CHECKS)}")
    _prepare_out_dir(args.out, args.overwrite, ["verify.csv", "moments.csv"])
    gres, params, x = _default_verify_fixture(args.seed)
    reports: list[BoundReport] = []

    def want(name):
        return only is None or only == name

    if want("moment-formula"):
        reports.append(check_moment_formula(gres))
    if want("variance-bound"):
        cfg = McConfig(n_real, master_seed=args.seed)
        reports.append(check_variance_bound(params, gres, x, cfg))
        rep = estimate_moments(params, gres, x, cfg)
        append_moments_row(os.path.join(args.out, "moments.csv"), gres.p, gres.q, rep)
    if want("chebyshev"):
        cfg = McConfig(max(200, n_real), master_seed=args.seed + 1)
        var = estimate_moments(params, gres, x, cfg).variance
        base = var if var > 0 else 1e-6
        eps_grid = vdoc.get("eps_grid") or [base * s for s in (0.5, 1, 2, 5, 10, 30, 100, 300)]
        reports.extend(check_chebyshev(params, gres, x, eps_grid, cfg))
    if want("output-bound"):
        reports.append(check_output_bound(params, gres, 200, rngmod.derive(args.seed, 13)))
    if want("stability"):
        trials = int(vdoc.get("stability_trials", 30))
        reports.append(check_stability(params, gres.nominal, [1e-3, 3e-3, 1e-2],
                                       trials, rngmod.derive(args.seed, 14)))
    if want("lipschitz"):
        reports.append(check_lipschitz_majorant(3, 50, rngmod.derive(args.seed, 15)))
    if want("convergence"):
        # radius diagnostics on a tiny training trace
        trace = TrainTrace()
        trace.append(iter=0, mean_cost=1.0, first_moment=0.0, second_moment=0.1,
                     variance=0.1, gamma1=0.0, gamma2=0.1, lagrangian=1.0,
                     grad_norm=1.0, slack1=0.0, slack2=0.4)
        diag = convergence_diagnostics(trace, TrainConfig(), c_y=1.0, n=gres.n)
        reports.append(BoundReport("convergence", 0.0, diag.error_radius, 0.0,
                                   inputs={"t_bound": diag.t_bound,
                                           "xi_proxy": diag.xi_estimate}))
    if bound_scale != 1.0:
        reports = [BoundReport(r.check_name, r.empirical, r.bound * bound_scale,
                               r.stderr, r.inputs) for r in reports]
    write_reports(reports, os.path.join(args.out, "verify.csv"),
                  os.path.join(args.out, "reports"))
    violated = [r for r in reports if r.violated]
    for r in reports:
        status = "VIOLATED" if r.violated else "ok"
        print(f"{r.check_name}: empirical={r.empirical:.6g} bound={r.bound:.6g} [{status}]")
    return EXIT_VIOLATION if violated else EXIT_OK


def cmd_gen_data(args) -> int:
    doc = load_config(args.config, args.override, args.full)
    cfg = parse_experiment_config(doc, args.seed)
    _prepare_out_dir(args.out, args.overwrite, ["dataset.npz", "graph.csv", "u.data"])
    if cfg.task == SOURCE_LOCALIZATION:
        gres, dataset, _ = cell_task(cfg, 0, cfg.p_values[0])
        np.savez(os.path.join(args.out, "dataset.npz"),
                 inputs=dataset.inputs, labels=dataset.labels,
                 train=dataset.splits["train"], val=dataset.splits["val"],
                 test=dataset.splits["test"])
    else:
        path = os.path.join(args.out, "u.data")
        write_synthetic_movielens(path, seed=cfg.master_seed)
        ratings = load_movielens(path)
        gres = build_recsys_task(ratings, cfg.recsys).gres
    save_shift(os.path.join(args.out, "graph.csv"), gres.nominal, gres)
    return EXIT_OK


FIGURE_FILES = {
    "fig1a.csv": ["p", "iteration", "cost"],
    "fig1b.csv": ["p", "mode", "accuracy_mean", "accuracy_std"],
    "fig2d.csv": ["c_v", "mean_c_l", "std_c_l"],
    "fig3a.csv": ["p", "mode", "rmse_mean", "rmse_std"],
    "fig3b.csv": ["p", "mode", "ad_mean", "ad_std"],
}


def cmd_report(args) -> int:
    _prepare_out_dir(args.out, args.overwrite, list(FIGURE_FILES))
    rows = read_results(args.results) if args.results and os.path.exists(args.results) else []
    results_dir = os.path.dirname(args.results) if args.results else "."
    data = {name: [] for name in FIGURE_FILES}

    # fig1a: cost convergence curves from traces
    if os.path.isdir(results_dir):
        for fname in sorted(os.listdir(results_dir)):
            if fname.startswith("trace_source_localization_primal_dual") and fname.endswith(".csv"):
                p_tag = fname.split("_p")[-1].split("_s")[0]
                trace = TrainTrace.from_csv(os.path.join(results_dir, fname))
                for r in trace.rows:
                    data["fig1a.csv"].append([p_tag, r["iter"], r["mean_cost"]])
    for r in rows:
        if r["task"] == SOURCE_LOCALIZATION and r["metric"] == "accuracy":
            data["fig1b.csv"].append([r["p"], r["mode"], r["mean"], r["std"]])
        if r["task"] == RECSYS and r["metric"] == "rmse":
            data["fig3a.csv"].append([r["p"], r["mode"], r["mean"], r["std"]])
        if r["task"] == RECSYS and r["metric"] == "ad_at_10":
            data["fig3b.csv"].append([r["p"], r["mode"], r["mean"], r["std"]])
    lip_path = os.path.join(results_dir, "lipschitz.csv") if args.results else None
    if lip_path and os.path.exists(lip_path):
        acc = {}
        with open(lip_path, newline="") as f:
            for row in csv.DictReader(f):
                acc.setdefault(float(row["c_v"]), []).append(float(row["c_l"]))
        for c_v in sorted(acc):
            vals = np.array(acc[c_v])
            data["fig2d.csv"].append([c_v, float(vals.mean()), float(vals.std(ddof=0))])
    for name, header in FIGURE_FILES.items():
        with open(os.path.join(args.out, name), "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(header)
            for row in data[name]:
                writer.writerow(row)
    return EXIT_OK


def cmd_sweep(args) -> int:
    doc = load_config(args.config, args.override, args.full)
    cfg = parse_experiment_config(doc, args.seed)
    _prepare_out_dir(args.out, args.overwrite, ["results.csv", "summary.json"])
    run_experiment(cfg, out_dir=args.out)
    if doc.get("cv_values"):
        run_cv_sweep(cfg, tuple(doc["cv_values"]), out_dir=args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgnn",
        description="Variance-constrained stochastic graph neural networks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=needs_config == "required", default=None)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--override", action="append", default=[], metavar="K=V")
        p.add_argument("--full", action="store_true",
                       help="merge the config's full-scale section before the overrides")
        p.add_argument("--overwrite", action="store_true")

    p_train = sub.add_parser("train", help="run one training per the config")
    common(p_train, needs_config="required")
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint over a p sweep")
    common(p_eval, needs_config="required")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.set_defaults(fn=cmd_eval)

    p_verify = sub.add_parser("verify", help="run the closed-form check suite")
    common(p_verify, needs_config=True)
    p_verify.add_argument("--only", default=None, metavar="NAME")
    p_verify.set_defaults(fn=cmd_verify)

    p_gen = sub.add_parser("gen-data", help="materialize datasets to disk")
    common(p_gen, needs_config="required")
    p_gen.set_defaults(fn=cmd_gen_data)

    p_rep = sub.add_parser("report", help="aggregate results into figure CSVs")
    p_rep.add_argument("--results", default=None, help="path to results.csv")
    p_rep.add_argument("--out", required=True)
    p_rep.add_argument("--overwrite", action="store_true")
    p_rep.set_defaults(fn=cmd_report)

    p_sweep = sub.add_parser("sweep", help="full experiment sweep (results.csv)")
    common(p_sweep, needs_config="required")
    p_sweep.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SgnnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

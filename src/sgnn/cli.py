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
import json
import os
import re
import sys

import numpy as np

from . import rng as rngmod
from .errors import ConfigError, NumericalError, SgnnError
from .estimators import McConfig, write_moments
from .experiments import (
    RECSYS,
    RESULTS_COLUMNS,
    SOURCE_LOCALIZATION,
    ExperimentConfig,
    RecsysConfig,
    SourceLocConfig,
    cell_task,
    load_movielens,
    load_task,
    metric_rows,
    read_results,
    run_cv_sweep,
    run_experiment,
    write_synthetic_movielens,
)
from .graphs import GresModel, build_shift, save_shift
from .model import Architecture, init_params, load_params, save_params
from .training import TRACE_COLUMNS, TrainConfig, TrainTrace, train
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
from .util import read_csv, write_csv, write_json

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
            "sweep", "ratings_path", "eval_draws", "cost_window", "cv_values", "full")


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
    for key, values in sweep.items():
        if not isinstance(values, list):
            raise ConfigError(f"sweep.{key} must be a list, got {values!r}")
        kwargs[key] = tuple(values)
    cv_values = doc.get("cv_values", [])
    if not isinstance(cv_values, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and 0 <= v < float("inf")
            for v in cv_values):
        raise ConfigError(f"cv_values must be a list of finite numbers >= 0, got {cv_values!r}")
    if len(set(cv_values)) < len(cv_values):
        raise ConfigError(f"cv_values repeats a value: {cv_values!r}")
    if "architecture" in doc:
        kwargs["arch"] = _build(doc["architecture"], Architecture, "architecture")
    return ExperimentConfig(
        train=_build(doc.get("train", {}), TrainConfig, "train"),
        source=_build(doc.get("source", {}), SourceLocConfig, "source"),
        recsys=_build(doc.get("recsys", {}), RecsysConfig, "recsys"),
        master_seed=seed, **kwargs)


def _prepare_out_dir(out_dir, overwrite: bool, outputs) -> None:
    """Create ``out_dir``, and find the files in it that ``outputs`` names:
    regular expressions over paths relative to it, such as
    ``trace_.*[.]csv`` or ``reports/.*[.]json``.  Refuse to run over them,
    or under ``overwrite`` delete them all."""
    os.makedirs(out_dir, exist_ok=True)
    found = []
    for pattern in outputs:
        sub, _, name = pattern.rpartition("/")
        folder = os.path.join(out_dir, sub)
        names = sorted(os.listdir(folder)) if os.path.isdir(folder) else []
        found += [os.path.join(sub, f) for f in names
                  if re.fullmatch(name, f) and os.path.isfile(os.path.join(folder, f))]
    if found and not overwrite:
        raise ConfigError(
            f"output files already exist in {out_dir}: {', '.join(found)} "
            "(pass --overwrite to replace them)")
    for f in found:
        os.remove(os.path.join(out_dir, f))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    doc = load_config(args.config, args.override, args.full)
    cfg = parse_experiment_config(doc, args.seed)
    _prepare_out_dir(args.out, args.overwrite,
                     ["trace[.]csv", "checkpoint(_[0-9]+)?[.]json", "summary[.]json"])
    p = cfg.p_values[0]
    gres, dataset, _ = cell_task(cfg, 0, p, load_task(cfg))
    params0 = init_params(cfg.arch, rngmod.derive(cfg.master_seed, 2, 0), n=gres.n)
    ckpt_every = cfg.train.checkpoint_every
    trace_path = os.path.join(args.out, "trace.csv")
    TrainTrace().to_csv(trace_path)

    def checkpointer(t, params, gamma, trace):
        # stream the fresh row so a long run can be watched (and survives aborts)
        write_csv(trace_path, TRACE_COLUMNS, trace.rows[-1:], append=True)
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
    write_json(os.path.join(args.out, "summary.json"), summary)
    return EXIT_OK


def cmd_eval(args) -> int:
    doc = load_config(args.config, args.override, args.full)
    cfg = parse_experiment_config(doc, args.seed)
    _prepare_out_dir(args.out, args.overwrite, ["results[.]csv"])
    params, _, _ = load_params(args.checkpoint)
    task = load_task(cfg)
    rows = []
    for p in cfg.p_values:
        gres, _, evaluate = cell_task(cfg, 0, p, task)
        metrics = evaluate(params, cfg.eval_draws,
                           rngmod.derive(cfg.master_seed, 4, rngmod.stream_key(p)))
        rows.extend(metric_rows(cfg.task, "eval", p, gres.q, 0, metrics))
    write_csv(os.path.join(args.out, "results.csv"), RESULTS_COLUMNS, rows)
    return EXIT_OK


VERIFY_CHECKS = ("moment-formula", "variance-bound", "chebyshev", "output-bound",
                 "stability", "lipschitz", "convergence")


def _default_verify_fixture(seed: int):
    """A small trained-ish model over a 12-node SBM used by every check."""
    from .graphs import normalize_shift, sbm_generate

    rng = rngmod.derive(seed, 10)
    graph = sbm_generate(12, 3, 0.8, 0.25, rng)
    nominal = normalize_shift(build_shift(graph))
    edges = nominal.edges()
    gres = GresModel(nominal, drop_edges=edges[:min(6, len(edges))],
                     add_edges=(), p=0.2, q=0.0)
    arch = Architecture((1, 2, 1), 2, activation="abs")
    params = init_params(arch, rngmod.derive(seed, 11))
    x = rngmod.derive(seed, 12).normal(size=12)
    return gres, params, x


def cmd_verify(args) -> int:
    only = args.only
    if only is not None and only not in VERIFY_CHECKS:
        raise ConfigError(f"unknown check {only!r}; available: {', '.join(VERIFY_CHECKS)}")
    _prepare_out_dir(args.out, args.overwrite,
                     ["verify[.]csv", "moments[.]csv",
                      "reports/(%s)(-[0-9]+)?[.]json" % "|".join(VERIFY_CHECKS)])
    gres, params, x = _default_verify_fixture(args.seed)
    reports: list[BoundReport] = []

    def want(name):
        return only is None or only == name

    if want("moment-formula"):
        reports.append(check_moment_formula(gres))
    if want("variance-bound"):
        reports.append(check_variance_bound(params, gres, x, McConfig(400, master_seed=args.seed)))
        # the moments of the rescaled taps the check bounds
        write_moments(os.path.join(args.out, "moments.csv"), gres.p, gres.q, reports[-1].moments)
    if want("chebyshev"):
        reports.extend(check_chebyshev(params, gres, x, (0.5, 1, 2, 5, 10, 30, 100, 300),
                                       McConfig(400, master_seed=args.seed + 1)))
    if want("output-bound"):
        reports.append(check_output_bound(params, gres, 200, rngmod.derive(args.seed, 13)))
    if want("stability"):
        reports.append(check_stability(params, gres.nominal, [1e-3, 3e-3, 1e-2],
                                       30, rngmod.derive(args.seed, 14)))
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
    _prepare_out_dir(args.out, args.overwrite,
                     ["dataset[.]npz", "graph[.]csv([.]json)?", "u[.]data"])
    ratings = None
    if cfg.task == RECSYS:
        path = os.path.join(args.out, "u.data")
        write_synthetic_movielens(path, seed=cfg.master_seed)
        ratings = load_movielens(path)
    gres, dataset, _ = cell_task(cfg, 0, cfg.p_values[0], load_task(cfg, ratings))
    if cfg.task == SOURCE_LOCALIZATION:
        np.savez(os.path.join(args.out, "dataset.npz"),
                 inputs=dataset.inputs, labels=dataset.labels,
                 train=dataset.splits["train"], val=dataset.splits["val"],
                 test=dataset.splits["test"])
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
    """Figure CSVs from ``--results`` and the traces and ``lipschitz.csv``
    beside it; with no ``--results``, the headers alone."""
    if args.results and not os.path.isfile(args.results):
        raise ConfigError(f"results file not found: {args.results}")
    _prepare_out_dir(args.out, args.overwrite, [re.escape(name) for name in FIGURE_FILES])
    rows = read_results(args.results) if args.results else []
    results_dir = (os.path.dirname(args.results) or ".") if args.results else None
    names = sorted(os.listdir(results_dir)) if results_dir else []
    data = {name: [] for name in FIGURE_FILES}

    # fig1a: cost convergence curves from traces
    for fname in names:
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
    acc = {}
    if "lipschitz.csv" in names:
        for row in read_csv(os.path.join(results_dir, "lipschitz.csv")):
            acc.setdefault(float(row["c_v"]), []).append(float(row["c_l"]))
    for c_v in sorted(acc):
        vals = np.array(acc[c_v])
        data["fig2d.csv"].append([c_v, float(vals.mean()), float(vals.std(ddof=0))])
    for name, header in FIGURE_FILES.items():
        write_csv(os.path.join(args.out, name), header, data[name])
    return EXIT_OK


def cmd_sweep(args) -> int:
    doc = load_config(args.config, args.override, args.full)
    cfg = parse_experiment_config(doc, args.seed)
    _prepare_out_dir(args.out, args.overwrite, ["results[.]csv", "summary[.]json",
                                                 "trace_.*[.]csv", "lipschitz[.]csv"])
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
            p.add_argument("--config", required=True)
            p.add_argument("--override", action="append", default=[], metavar="K=V")
            p.add_argument("--full", action="store_true",
                           help="merge the config's full-scale section before the overrides")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--overwrite", action="store_true")

    p_train = sub.add_parser("train", help="run one training per the config")
    common(p_train)
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint over a p sweep")
    common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.set_defaults(fn=cmd_eval)

    p_verify = sub.add_parser("verify", help="run the closed-form check suite")
    common(p_verify, needs_config=False)
    p_verify.add_argument("--only", default=None, metavar="NAME")
    p_verify.set_defaults(fn=cmd_verify)

    p_gen = sub.add_parser("gen-data", help="materialize datasets to disk")
    common(p_gen)
    p_gen.set_defaults(fn=cmd_gen_data)

    p_rep = sub.add_parser("report", help="aggregate results into figure CSVs")
    p_rep.add_argument("--results", default=None, help="path to results.csv")
    p_rep.add_argument("--out", required=True)
    p_rep.add_argument("--overwrite", action="store_true")
    p_rep.set_defaults(fn=cmd_report)

    p_sweep = sub.add_parser("sweep", help="full experiment sweep (results.csv)")
    common(p_sweep)
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

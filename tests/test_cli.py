import csv
import json
import os

import numpy as np
import pytest

from sgnn import cli
from sgnn.experiments import write_synthetic_movielens
from sgnn.training import TrainTrace

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def write_config(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f)
    return str(path)


@pytest.fixture
def tiny_config(tmp_path):
    doc = {
        "schema": 1,
        "task": "source_localization",
        "architecture": {"features": [1, 2, 1], "order": 2,
                         "activation": "leaky_relu", "readout": 5},
        "train": {"max_iters": 3, "n_realizations": 2, "batch_size": 8,
                  "loss": "cross_entropy", "grad_norm_tol": 0.0},
        "source": {"n": 20, "communities": 5, "split_sizes": [40, 8, 8],
                   "noise_std": 0.005, "standardize": True},
        "sweep": {"p_values": [0.1], "modes": ["unconstrained"], "graph_seeds": [0]},
        "eval_draws": 3,
        "cost_window": 2,
    }
    return write_config(tmp_path / "config.json", doc)


class TestTrainCommand:
    def test_missing_config_exits_two_naming_path(self, tmp_path, capsys):
        rc = cli.main(["train", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        assert "nope.json" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "bad.json",
                           {"schema": 1, "train": {"max_iters": 1, "turbo": True}})
        rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG

    @pytest.mark.parametrize("key", ["source.signal_gain", "train.constraint_target",
                                     "train.beta1", "train.beta2", "train.eps_adam"])
    def test_removed_option_is_rejected(self, tiny_config, tmp_path, key):
        rc = cli.main(["train", "--config", tiny_config, "--out", str(tmp_path / "out"),
                       "--override", f"{key}=1"])
        assert rc == cli.EXIT_CONFIG

    @pytest.mark.parametrize("key", ["recsys.p", "recsys.center", "recsys.shuffle_seed",
                                     "recsys.split_fractions", "source.q"])
    def test_removed_config_key_exits_two(self, tiny_config, tmp_path, capsys, key):
        rc = cli.main(["train", "--config", tiny_config, "--out", str(tmp_path / "out"),
                       "--override", f"{key}=0"])
        assert rc == cli.EXIT_CONFIG
        assert "unknown keys" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("sweep.p_values", "0.1"),
                                            ("sweep.modes", "primal_dual")])
    def test_sweep_value_that_is_not_a_list_exits_two(self, tiny_config, tmp_path, capsys,
                                                       key, value):
        rc = cli.main(["train", "--config", tiny_config, "--out", str(tmp_path / "out"),
                       "--override", f"{key}={value}"])
        assert rc == cli.EXIT_CONFIG
        assert f"{key} must be a list" in capsys.readouterr().err

    @pytest.mark.parametrize("full", [{"source": {"bogus": 1}}, {"bogus": 1}],
                             ids=["full.source.bogus", "full.bogus"])
    @pytest.mark.parametrize("flags", [[], ["--full"]], ids=["desk", "full"])
    def test_unknown_key_under_full_rejected(self, tiny_config, tmp_path, full, flags):
        with open(tiny_config) as f:
            doc = json.load(f)
        cfg = write_config(tmp_path / "bad.json", dict(doc, full=full))
        rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "out")] + flags)
        assert rc == cli.EXIT_CONFIG

    def test_override_wins_over_full(self):
        doc = cli.load_config(os.path.join(CONFIGS, "source_localization.json"),
                              ["train.max_iters=5"], full=True)
        cfg = cli.parse_experiment_config(doc, 0)
        assert cfg.train.max_iters == 5 and cfg.train.eta_primal == 0.001

    def test_trace_is_written_as_train_trace_writes_it(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["train", "--config", tiny_config, "--out", str(out)]) == cli.EXIT_OK
        again = tmp_path / "again.csv"
        TrainTrace.from_csv(out / "trace.csv").to_csv(again)
        assert (out / "trace.csv").read_bytes() == again.read_bytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_training_exits_three_keeping_streamed_rows(self, tiny_config,
                                                                   tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli.main(["train", "--config", tiny_config, "--out", str(out),
                       "--override", "train.optimizer=sgd",
                       "--override", "train.eta_primal=1e100",
                       "--override", "train.divergence_limit=Infinity"])
        assert rc == cli.EXIT_NUMERICAL
        assert "training diverged at iteration 1: non-finite" in capsys.readouterr().err
        assert [r["iter"] for r in TrainTrace.from_csv(out / "trace.csv").rows] == [0]

    def test_verify_section_is_refused(self, tiny_config, tmp_path, capsys):
        with open(tiny_config) as f:
            doc = json.load(f)
        cfg = write_config(tmp_path / "v.json", dict(doc, verify={"bound_scale": 0.0}))
        rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        assert "unknown keys in config: verify" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0.3", "[0.1, -0.5]", '["a"]', "[true]", "[1e999]"])
    def test_bad_cv_values_exit_two_before_any_cell(self, tiny_config, tmp_path, capsys,
                                                     value):
        out = tmp_path / "out"
        rc = cli.main(["sweep", "--config", tiny_config, "--out", str(out),
                       "--override", f"cv_values={value}"])
        assert rc == cli.EXIT_CONFIG
        assert "cv_values must be a list" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("override", [
        "train.n_realizations=0", "train.batch_size=0", "train.max_iters=-1",
        'sweep.p_values=["a"]', "sweep.p_values=[1.0]", "sweep.p_values=[NaN]",
        "sweep.graph_seeds=[-1]", "sweep.graph_seeds=[0.5]", "sweep.graph_seeds=[true]",
        "sweep.p_values=[]", "sweep.modes=[]", "sweep.graph_seeds=[]",
        "cost_window=0", "eval_draws=0"])
    def test_bad_count_or_sweep_value_exits_two_before_any_cell(self, tiny_config, tmp_path,
                                                                 capsys, override):
        out = tmp_path / "out"
        rc = cli.main(["sweep", "--config", tiny_config, "--out", str(out),
                       "--override", override])
        assert rc == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_shared_realizations_train_end_to_end(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["train", "--config", tiny_config, "--out", str(out),
                       "--override", 'train.realization_mode="shared"'])
        assert rc == cli.EXIT_OK
        assert len(TrainTrace.from_csv(out / "trace.csv").rows) == 3

    def test_wrong_schema_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "bad.json", {"schema": 99})
        rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG

    def test_override_controls_iterations(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["train", "--config", tiny_config, "--out", str(out),
                       "--override", "train.max_iters=1"])
        assert rc == cli.EXIT_OK
        rows = (out / "trace.csv").read_text().strip().splitlines()
        assert len(rows) == 2  # header + exactly one iteration

    def test_outputs_and_checkpoint(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["train", "--config", tiny_config, "--out", str(out), "--seed", "3"])
        assert rc == cli.EXIT_OK
        assert (out / "trace.csv").exists()
        assert (out / "checkpoint.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iterations"] == 3

    def test_refuses_to_clobber_without_overwrite(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["train", "--config", tiny_config, "--out", str(out)]) == cli.EXIT_OK
        rc = cli.main(["train", "--config", tiny_config, "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        rc = cli.main(["train", "--config", tiny_config, "--out", str(out), "--overwrite"])
        assert rc == cli.EXIT_OK

    def test_overwrite_removes_the_checkpoints_of_a_longer_run(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        for iters, flags in ((4, []), (2, ["--overwrite"])):
            assert cli.main(["train", "--config", tiny_config, "--out", str(out),
                             "--override", "train.checkpoint_every=1",
                             "--override", f"train.max_iters={iters}"] + flags) == cli.EXIT_OK
        assert sorted(f.name for f in out.iterdir()) == [
            "checkpoint.json", "checkpoint_1.json", "checkpoint_2.json", "summary.json",
            "trace.csv"]

    def test_byte_identical_replay(self, tiny_config, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = cli.main(["train", "--config", tiny_config, "--out", str(out),
                           "--seed", "11"])
            assert rc == cli.EXIT_OK
            outs.append((out / "trace.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_full_flag_swaps_protocol(self, tmp_path):
        doc = {
            "schema": 1,
            "architecture": {"features": [1, 2, 1], "order": 2, "readout": 5},
            "train": {"max_iters": 2},
            "source": {"n": 20, "communities": 5, "split_sizes": [20, 4, 4]},
            "full": {"train": {"max_iters": 7},
                     "architecture": {"features": [1, 3, 1], "order": 3, "readout": 5},
                     "sweep": {"graph_seeds": [0, 1, 2, 3]}},
        }
        cfg_path = write_config(tmp_path / "c.json", doc)
        desk = cli.parse_experiment_config(cli.load_config(cfg_path), seed=0, full=False)
        assert desk.train.max_iters == 2 and desk.arch.order == 2
        full = cli.parse_experiment_config(cli.load_config(cfg_path), seed=0, full=True)
        assert full.train.max_iters == 7
        assert full.arch.features == (1, 3, 1)
        assert full.graph_seeds == (0, 1, 2, 3)

    @pytest.mark.parametrize("name, full, expected", [
        ("source_localization", False, ((1, 4, 1), 4, 2000, 0.01, (0, 1, 2), 0.3, None)),
        ("source_localization", True, ((1, 32, 1), 8, 10000, 0.001, tuple(range(10)), 1.0,
                                       None)),
        ("recsys", False, ((1, 8, 1), 4, 600, 0.01, (0,), 1.0, 4000)),
        ("recsys", True, ((1, 32, 1), 4, 10000, 0.001, (0,), 1.0, None)),
    ])
    def test_committed_configs_parse(self, name, full, expected):
        cfg = cli.parse_experiment_config(
            cli.load_config(os.path.join(CONFIGS, f"{name}.json")), 0, full)
        assert (cfg.arch.features, cfg.arch.order, cfg.train.max_iters, cfg.train.eta_primal,
                cfg.graph_seeds, cfg.source.desk_scale_factor,
                cfg.recsys.max_samples) == expected

    def test_periodic_checkpoints(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["train", "--config", tiny_config, "--out", str(out),
                       "--override", "train.checkpoint_every=2",
                       "--override", "train.max_iters=4"])
        assert rc == cli.EXIT_OK
        assert (out / "checkpoint_2.json").exists()
        assert (out / "checkpoint_4.json").exists()


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class TestSweepCommand:
    def test_an_integer_p_is_spelled_as_a_float_everywhere(self, tiny_config, tmp_path):
        out = tmp_path / "s"
        assert cli.main(["sweep", "--config", tiny_config, "--out", str(out),
                         "--override", "sweep.p_values=[0]"]) == cli.EXIT_OK
        assert {r["p"] for r in read_rows(out / "results.csv")} == {"0.0"}
        summary = json.loads((out / "summary.json").read_text())
        assert sorted(summary) == ["source_localization/unconstrained/accuracy/p=0.0",
                                   "source_localization/unconstrained/cost/p=0.0"]
        assert [f.name for f in out.glob("trace_*")] == [
            "trace_source_localization_unconstrained_p0.0_s0.csv"]

    @pytest.mark.parametrize("override", [
        "sweep.p_values=[0.05, 0.05]", "sweep.p_values=[0, 0.0]",
        'sweep.modes=["unconstrained", "unconstrained"]', "sweep.graph_seeds=[1, 1]",
        "cv_values=[0.3, 0.3]"])
    def test_a_repeated_sweep_value_exits_two_before_any_cell(self, tiny_config, tmp_path,
                                                               capsys, override):
        out = tmp_path / "s"
        rc = cli.main(["sweep", "--config", tiny_config, "--out", str(out),
                       "--override", override])
        assert rc == cli.EXIT_CONFIG
        assert "repeats a value" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_overwrite_removes_every_output_of_the_earlier_sweep(self, tiny_config, tmp_path):
        out = tmp_path / "s"
        sweep = ["sweep", "--config", tiny_config, "--out", str(out),
                 "--override", 'sweep.modes=["primal_dual"]']
        assert cli.main(sweep + ["--override", "sweep.p_values=[0.05, 0.25]",
                                 "--override", "cv_values=[0.3]"]) == cli.EXIT_OK
        (out / "kept.txt").write_text("mine")
        assert cli.main(sweep + ["--override", "sweep.p_values=[0.05]",
                                 "--overwrite"]) == cli.EXIT_OK
        assert sorted(f.name for f in out.iterdir()) == [
            "kept.txt", "results.csv", "summary.json",
            "trace_source_localization_primal_dual_p0.05_s0.csv"]
        figs = tmp_path / "figs"
        assert cli.main(["report", "--results", str(out / "results.csv"),
                         "--out", str(figs)]) == cli.EXIT_OK
        fig1a = read_rows(figs / "fig1a.csv")
        assert len(fig1a) == 3 and {r["p"] for r in fig1a} == {"0.05"}
        assert read_rows(figs / "fig2d.csv") == []

    def test_refuses_to_run_over_any_output_it_writes(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "s"
        out.mkdir()
        (out / "lipschitz.csv").write_text("c_v,graph_seed,c_l\n")
        rc = cli.main(["sweep", "--config", tiny_config, "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert "lipschitz.csv" in capsys.readouterr().err
        assert sorted(f.name for f in out.iterdir()) == ["lipschitz.csv"]


class TestVerifyCommand:
    def test_default_suite_passes(self, tmp_path):
        out = tmp_path / "v"
        rc = cli.main(["verify", "--out", str(out), "--seed", "0"])
        assert rc == cli.EXIT_OK
        lines = (out / "verify.csv").read_text().strip().splitlines()
        assert lines[0] == "check_name,empirical,bound,slack,violated,stderr"
        assert len(lines) > 5
        assert (out / "moments.csv").exists()
        assert (out / "reports").is_dir()

    def test_forced_violation_exits_four(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "check_lipschitz_majorant",
                            lambda *args: cli.BoundReport("lipschitz", 1.0, 0.0))
        rc = cli.main(["verify", "--out", str(tmp_path / "v"), "--only", "lipschitz"])
        assert rc == cli.EXIT_VIOLATION

    def test_config_flag_is_refused(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"schema": 1})
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--out", str(tmp_path / "v"), "--config", cfg])
        assert exc.value.code == cli.EXIT_CONFIG

    def test_only_runs_single_check(self, tmp_path):
        out = tmp_path / "v"
        rc = cli.main(["verify", "--out", str(out), "--only", "moment-formula"])
        assert rc == cli.EXIT_OK
        lines = (out / "verify.csv").read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("moment-formula")

    def test_unknown_check_rejected(self, tmp_path):
        rc = cli.main(["verify", "--out", str(tmp_path / "v"), "--only", "bogus"])
        assert rc == cli.EXIT_CONFIG

    def test_verify_replay_identical(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["verify", "--out", str(out), "--seed", "5"]) == cli.EXIT_OK
            blobs.append((out / "verify.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_overwrite_writes_moments_afresh(self, tmp_path):
        out = tmp_path / "v"
        files = []
        for _ in range(2):
            assert cli.main(["verify", "--out", str(out), "--only", "variance-bound",
                             "--overwrite"]) == cli.EXIT_OK
            files.append((out / "moments.csv").read_bytes())
        assert files[0] == files[1]
        assert len(files[1].splitlines()) == 2

    def test_moments_describe_the_model_the_variance_bound_checks(self, tmp_path):
        out = tmp_path / "v"
        assert cli.main(["verify", "--out", str(out), "--only", "variance-bound"]) == cli.EXIT_OK
        with open(out / "moments.csv", newline="") as f:
            moments = list(csv.DictReader(f))
        with open(out / "verify.csv", newline="") as f:
            checks = list(csv.DictReader(f))
        assert [c["check_name"] for c in checks] == ["variance-bound"]
        assert len(moments) == 1 and moments[0]["variance"] == checks[0]["empirical"]

    def test_overwrite_removes_the_earlier_runs_outputs(self, tmp_path):
        out = tmp_path / "v"
        assert cli.main(["verify", "--out", str(out)]) == cli.EXIT_OK
        (out / "reports" / "notes.json").write_text("{}")
        (out / "kept.txt").write_text("mine")
        assert cli.main(["verify", "--out", str(out), "--only", "moment-formula",
                         "--overwrite"]) == cli.EXIT_OK
        assert sorted(f.name for f in (out / "reports").iterdir()) == \
            ["moment-formula.json", "notes.json"]
        assert sorted(f.name for f in out.iterdir()) == ["kept.txt", "reports", "verify.csv"]


class TestGenDataAndEval:
    def test_gen_data_source_localization(self, tiny_config, tmp_path):
        out = tmp_path / "d"
        rc = cli.main(["gen-data", "--config", tiny_config, "--out", str(out)])
        assert rc == cli.EXIT_OK
        assert (out / "dataset.npz").exists()
        assert (out / "graph.csv").exists()
        data = np.load(out / "dataset.npz")
        assert data["inputs"].shape[0] == 56

    def test_gen_data_recsys_writes_ratings(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "schema": 1, "task": "recsys",
            "recsys": {"keep_top": 10, "add_next": 5},
        })
        out = tmp_path / "d"
        # synthetic ratings generation at full scale is a few seconds
        rc = cli.main(["gen-data", "--config", cfg, "--out", str(out)])
        assert rc == cli.EXIT_OK
        assert (out / "u.data").exists()
        assert sum(1 for _ in open(out / "u.data")) == 100000

    def test_gen_data_recsys_graph_uses_the_first_sweep_p(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "schema": 1, "task": "recsys",
            "recsys": {"keep_top": 10, "add_next": 5},
            "sweep": {"p_values": [0.05, 0.1]},
        })
        out = tmp_path / "d"
        assert cli.main(["gen-data", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        meta = json.loads((out / "graph.csv.json").read_text())
        assert (meta["gres"]["p"], meta["gres"]["q"]) == (0.05, 0.05)

    def test_eval_untrained_near_chance(self, tiny_config, tmp_path):
        train_out = tmp_path / "t"
        assert cli.main(["train", "--config", tiny_config, "--out", str(train_out),
                         "--override", "train.max_iters=1",
                         "--override", "train.eta_primal=0.0"]) == cli.EXIT_OK
        out = tmp_path / "e"
        rc = cli.main(["eval", "--config", tiny_config, "--out", str(out),
                       "--checkpoint", str(train_out / "checkpoint.json"),
                       "--override", "eval_draws=10"])
        assert rc == cli.EXIT_OK
        rows = open(out / "results.csv").read().strip().splitlines()
        assert rows[0] == "task,mode,p,q,graph_seed,metric,mean,std"
        acc = float(rows[1].split(",")[6])
        assert abs(acc - 0.2) < 0.35


@pytest.fixture(scope="module")
def recsys_config(tmp_path_factory):
    root = tmp_path_factory.mktemp("recsys")
    write_synthetic_movielens(root / "u.data", seed=3)
    return write_config(root / "config.json", {
        "schema": 1, "task": "recsys", "ratings_path": str(root / "u.data"),
        "architecture": {"features": [1, 2, 1], "order": 2, "activation": "leaky_relu"},
        "train": {"max_iters": 2, "n_realizations": 2, "batch_size": 8,
                  "loss": "masked_mse", "grad_norm_tol": 0.0},
        "recsys": {"max_samples": 200},
        "sweep": {"p_values": [0.0, 0.1], "modes": ["unconstrained"]},
        "eval_draws": 3,
    })


def test_recsys_train_and_eval_replay(recsys_config, tmp_path):
    outs = []
    for name in ("a", "b"):
        train_out, eval_out = tmp_path / name / "t", tmp_path / name / "e"
        assert cli.main(["train", "--config", recsys_config, "--out", str(train_out),
                         "--seed", "4"]) == cli.EXIT_OK
        assert cli.main(["eval", "--config", recsys_config, "--out", str(eval_out),
                         "--seed", "4", "--checkpoint",
                         str(train_out / "checkpoint.json")]) == cli.EXIT_OK
        outs.append({f: (d / f).read_bytes() for d in (train_out, eval_out)
                     for f in sorted(os.listdir(d))})
    assert outs[0] == outs[1]
    rows = outs[0]["results.csv"].decode().strip().splitlines()[1:]
    cells = sorted((r.split(",")[2], r.split(",")[5]) for r in rows)
    assert cells == [("0.0", "ad_at_10"), ("0.0", "rmse"), ("0.1", "ad_at_10"), ("0.1", "rmse")]


class TestReportCommand:
    def test_empty_results_header_only(self, tmp_path):
        out = tmp_path / "figs"
        rc = cli.main(["report", "--out", str(out)])
        assert rc == cli.EXIT_OK
        for name, header in cli.FIGURE_FILES.items():
            lines = (out / name).read_text().strip().splitlines()
            assert lines == [",".join(header)]

    def test_fig2d_schema(self, tmp_path):
        res_dir = tmp_path / "r"
        res_dir.mkdir()
        (res_dir / "lipschitz.csv").write_text(
            "c_v,graph_seed,c_l\n0.1,0,0.5\n0.1,1,0.7\n0.3,0,0.9\n")
        (res_dir / "results.csv").write_text("task,mode,p,q,graph_seed,metric,mean,std\n")
        out = tmp_path / "figs"
        rc = cli.main(["report", "--results", str(res_dir / "results.csv"),
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
        lines = (out / "fig2d.csv").read_text().strip().splitlines()
        assert lines[0] == "c_v,mean_c_l,std_c_l"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.1
        assert float(first[1]) == pytest.approx(0.6)

    def test_report_aggregates_results(self, tmp_path):
        res = tmp_path / "results.csv"
        res.write_text(
            "task,mode,p,q,graph_seed,metric,mean,std\n"
            "source_localization,primal_dual,0.05,0.0,0,accuracy,0.8,0.01\n"
            "recsys,unconstrained,0.1,0.1,0,rmse,1.0,0.05\n"
            "recsys,unconstrained,0.1,0.1,0,ad_at_10,25,1.5\n")
        out = tmp_path / "figs"
        assert cli.main(["report", "--results", str(res), "--out", str(out)]) == cli.EXIT_OK
        assert len((out / "fig1b.csv").read_text().strip().splitlines()) == 2
        assert len((out / "fig3a.csv").read_text().strip().splitlines()) == 2
        assert len((out / "fig3b.csv").read_text().strip().splitlines()) == 2

    def test_missing_results_file_exits_two(self, tmp_path, capsys):
        out = tmp_path / "figs"
        rc = cli.main(["report", "--results", str(tmp_path / "missing" / "results.csv"),
                       "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert "results file not found" in capsys.readouterr().err
        assert not out.exists()

    def test_without_results_reads_nothing_from_the_working_directory(self, tmp_path,
                                                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        trace = TrainTrace()
        trace.append(iter=0, mean_cost=1.0, first_moment=0.0, second_moment=0.1,
                     variance=0.1, gamma1=0.0, gamma2=0.0, lagrangian=1.0,
                     grad_norm=1.0, slack1=0.0, slack2=0.4)
        trace.to_csv(tmp_path / "trace_source_localization_primal_dual_p0.1_s0.csv")
        (tmp_path / "lipschitz.csv").write_text("c_v,graph_seed,c_l\n0.1,0,0.5\n")
        assert cli.main(["report", "--out", "figs"]) == cli.EXIT_OK
        for name, header in cli.FIGURE_FILES.items():
            assert (tmp_path / "figs" / name).read_text().splitlines() == [",".join(header)]

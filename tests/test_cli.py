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

    def test_forced_violation_exits_four(self, tmp_path):
        rc = cli.main(["verify", "--out", str(tmp_path / "v"), "--seed", "0",
                       "--config", write_config(tmp_path / "c.json",
                                                {"schema": 1, "verify": {"bound_scale": 0.0}})])
        assert rc == cli.EXIT_VIOLATION

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
            "recsys": {"keep_top": 10, "add_next": 5, "p": 0.1},
        })
        out = tmp_path / "d"
        # synthetic ratings generation at full scale is a few seconds
        rc = cli.main(["gen-data", "--config", cfg, "--out", str(out)])
        assert rc == cli.EXIT_OK
        assert (out / "u.data").exists()
        assert sum(1 for _ in open(out / "u.data")) == 100000

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

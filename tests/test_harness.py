"""Config parsing, experiment runners, and the command-line interface."""

import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from graphkd.cli import main
from graphkd.config import (
    ConfigError,
    config_digest,
    load_config,
    parse_config,
)
from graphkd.harness import aggregate_median
from graphkd.models import build_blocknet, save_checkpoint

from conftest import make_config


def tiny_config_dict(**overrides):
    base = {
        "version": 1,
        "dataset": {
            "name": "gaussian_mixture",
            "n": 80,
            "classes": 2,
            "dim": 3,
            "separation": 8.0,
            "seed": 0,
            "test_fraction": 0.25,
        },
        "teacher": {"depths": [1, 1], "widths": [12, 12]},
        "student": {"depths": [1, 1], "widths": [4, 4]},
        "loss": "vanilla",
        "schedule": {
            "base_lr": 0.1,
            "decay_factor": 0.2,
            "milestones": [],
            "total_epochs": 2,
        },
        "batch_size": 20,
        "seeds": [1, 2],
    }
    base.update(overrides)
    return base


def write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(tiny_config_dict(**overrides)))
    return path


class TestConfigParsing:
    def test_defaults_are_filled(self):
        config = parse_config(tiny_config_dict(loss="gkd"))
        assert config.lambda_kd == 25.0
        assert config.graph.k == 19  # batch_size - 1
        assert config.graph.p == 1
        assert config.graph.mask_mode == "all"
        assert config.momentum == 0.9

    def test_vanilla_defaults_lambda_to_zero(self):
        config = parse_config(tiny_config_dict())
        assert config.lambda_kd == 0.0
        assert config.graph is None

    def test_missing_version_rejected(self):
        obj = tiny_config_dict()
        del obj["version"]
        with pytest.raises(ConfigError, match="version"):
            parse_config(obj)

    def test_wrong_version_rejected(self):
        with pytest.raises(ConfigError, match="version"):
            parse_config(tiny_config_dict(version=2))

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="optimizer"):
            parse_config(tiny_config_dict(optimizer="adam"))

    def test_unknown_dataset_key_rejected(self):
        obj = tiny_config_dict()
        obj["dataset"]["rotation"] = 3
        with pytest.raises(ConfigError, match="rotation"):
            parse_config(obj)

    def test_unknown_schedule_key_rejected(self):
        obj = tiny_config_dict()
        obj["schedule"]["warmup"] = 5
        with pytest.raises(ConfigError, match="warmup"):
            parse_config(obj)

    def test_unknown_graph_key_rejected(self):
        obj = tiny_config_dict(loss="gkd", graph={"k": 5, "weighted": True})
        with pytest.raises(ConfigError, match="weighted"):
            parse_config(obj)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigError, match="lambda_kd must be nonnegative"):
            parse_config(tiny_config_dict(loss="gkd", lambda_kd=-0.5))

    def test_vanilla_with_nonzero_lambda_rejected(self):
        with pytest.raises(ConfigError, match="lambda"):
            parse_config(tiny_config_dict(lambda_kd=1.0))

    def test_graph_section_requires_gkd(self):
        with pytest.raises(ConfigError, match="gkd"):
            parse_config(tiny_config_dict(loss="rkdd", lambda_kd=1.0, graph={"k": 3}))

    def test_graph_k_bounds(self):
        with pytest.raises(ConfigError, match="k="):
            parse_config(tiny_config_dict(loss="gkd", graph={"k": 20}))
        with pytest.raises(ConfigError):
            parse_config(tiny_config_dict(loss="gkd", graph={"k": 0}))

    def test_bad_mask_mode_rejected(self):
        with pytest.raises(ConfigError, match="mask_mode"):
            parse_config(tiny_config_dict(loss="gkd", graph={"k": 3, "mask_mode": "nearby"}))

    def test_unknown_loss_rejected(self):
        with pytest.raises(ConfigError, match="loss"):
            parse_config(tiny_config_dict(loss="attention"))

    def test_unknown_dataset_name_rejected(self):
        obj = tiny_config_dict()
        obj["dataset"] = {"name": "cifar10"}
        with pytest.raises(ConfigError):
            parse_config(obj)

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(tiny_config_dict(seeds=[1, 1]))

    def test_bad_milestones_rejected(self):
        obj = tiny_config_dict()
        obj["schedule"]["milestones"] = [5]
        with pytest.raises(ConfigError):
            parse_config(obj)  # milestone beyond total_epochs=2

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="config"):
            load_config(tmp_path / "absent.json")

    def test_load_config_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(bad)

    def test_digest_is_stable_and_sensitive(self):
        a = config_digest(parse_config(tiny_config_dict()))
        b = config_digest(parse_config(tiny_config_dict()))
        c = config_digest(parse_config(tiny_config_dict(batch_size=16)))
        assert a == b
        assert a != c
        assert len(a) == 64

    def test_digest_value_is_pinned(self):
        # guards the bytes of manifest.json against changes to the config types
        assert config_digest(parse_config(tiny_config_dict(loss="gkd"))) == (
            "a31475269bd5f161e740a5e7402a5af23da9a02eb37326a0b7a5952270296a90"
        )

    def test_replace_revalidates(self):
        config = parse_config(tiny_config_dict(loss="gkd"))
        with pytest.raises(ConfigError, match="lambda_kd must be nonnegative"):
            replace(config, lambda_kd=-1.0)
        with pytest.raises(ConfigError, match="k="):
            replace(config, graph=replace(config.graph, k=config.batch_size))
        with pytest.raises(ConfigError, match="vanilla"):
            replace(parse_config(tiny_config_dict()), lambda_kd=5.0)


class TestAggregateMedian:
    def test_odd_count_picks_middle(self):
        per_seed = {
            1: {"test_error": 10.1},
            2: {"test_error": 9.9},
            3: {"test_error": 10.0},
        }
        assert aggregate_median(per_seed) == {"test_error": 10.0}

    def test_even_count_averages_middle_pair(self):
        per_seed = {s: {"m": float(s)} for s in (1, 2, 3, 4)}
        assert aggregate_median(per_seed) == {"m": 2.5}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_median({})


class TestCliEndToEnd:
    def _train_teacher(self, tmp_path, config_path):
        out = tmp_path / "teacher_run"
        code = main(["train-teacher", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        return out / "teacher.ckpt"

    def test_full_teacher_then_distill_flow(self, tmp_path, capsys):
        config_path = write_config(
            tmp_path, loss="gkd", lambda_kd=1.0, graph={"k": 10}
        )
        teacher_ckpt = self._train_teacher(tmp_path, config_path)
        assert teacher_ckpt.exists()

        out = tmp_path / "distill_run"
        code = main(
            [
                "distill",
                "--config", str(config_path),
                "--out", str(out),
                "--teacher", str(teacher_ckpt),
            ]
        )
        assert code == 0
        assert "median test error" in capsys.readouterr().out

        for seed in (1, 2):
            seed_dir = out / f"seed{seed}"
            assert (seed_dir / "student.ckpt").exists()
            with (seed_dir / "metrics.csv").open() as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 2  # one per epoch
            assert list(rows[0]) == [
                "epoch", "lr", "train_error", "test_error",
                "task_loss", "kd_loss", "total_loss",
            ]
            assert float(rows[1]["kd_loss"]) > 0.0

        summary = json.loads((out / "summary.json").read_text())
        assert summary["loss"] == "gkd"
        assert set(summary["per_seed"]) == {"1", "2"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "distill"
        assert manifest["config_digest"] == config_digest(load_config(config_path))
        assert set(manifest["checkpoint_digests"]) == {"student_seed1", "student_seed2"}
        assert all(len(d) == 64 for d in manifest["checkpoint_digests"].values())

    def test_distill_reruns_are_bit_identical(self, tmp_path):
        config_path = write_config(tmp_path, seeds=[3])
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["distill", "--config", str(config_path), "--out", str(out)]) == 0
            outs.append(out)
        first = (outs[0] / "seed3" / "metrics.csv").read_bytes()
        second = (outs[1] / "seed3" / "metrics.csv").read_bytes()
        assert first == second
        assert (outs[0] / "seed3" / "student.ckpt").read_bytes() == (
            outs[1] / "seed3" / "student.ckpt"
        ).read_bytes()

    def test_metrics_floats_round_trip_exactly(self, tmp_path):
        config_path = write_config(tmp_path, seeds=[1])
        out = tmp_path / "run"
        assert main(["distill", "--config", str(config_path), "--out", str(out)]) == 0
        with (out / "seed1" / "metrics.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        summary = json.loads((out / "summary.json").read_text())
        final = summary["per_seed"]["1"]
        # repr-serialized floats parse back to the exact same doubles
        assert float(rows[-1]["test_error"]) == final["test_error"]
        assert float(rows[-1]["task_loss"]) == final["task_loss"]

    def test_sweep_writes_one_row_per_value(self, tmp_path):
        config_path = write_config(
            tmp_path, loss="gkd", lambda_kd=1.0, graph={"k": 10}, seeds=[1]
        )
        teacher_ckpt = self._train_teacher(tmp_path, config_path)
        out = tmp_path / "sweep_run"
        code = main(
            [
                "sweep",
                "--config", str(config_path),
                "--out", str(out),
                "--teacher", str(teacher_ckpt),
                "--param", "p",
                "--values", "1,2",
            ]
        )
        assert code == 0
        with (out / "sweep.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["value"] for r in rows] == ["1", "2"]
        assert rows[0]["param"] == "p"
        assert all(r["median_test_error"] for r in rows)
        assert (out / "p_1" / "summary.json").exists()
        assert (out / "p_2" / "summary.json").exists()

    def test_sweep_graph_param_on_vanilla_base_is_rejected(self, tmp_path):
        config_path = write_config(tmp_path)
        out = tmp_path / "sweep_run"
        code = main(
            [
                "sweep",
                "--config", str(config_path),
                "--out", str(out),
                "--param", "k",
                "--values", "3,5",
            ]
        )
        assert code == 2

    def _assert_sweep_rejected(self, capsys, out, argv, fragment):
        code = main(["sweep", "--out", str(out), *argv])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and fragment in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_sweep_negative_lambda_on_gkd_base_is_rejected(self, tmp_path, capsys):
        config_path = write_config(tmp_path, loss="gkd", lambda_kd=1.0, seeds=[1])
        teacher_ckpt = self._train_teacher(tmp_path, config_path)
        argv = ["--config", str(config_path), "--teacher", str(teacher_ckpt),
                "--param", "lambda_kd", "--values", "-1"]
        self._assert_sweep_rejected(capsys, tmp_path / "sweep_run", argv, "lambda_kd")

    def test_sweep_nonzero_lambda_on_vanilla_base_is_rejected(self, tmp_path, capsys):
        config_path = write_config(tmp_path, seeds=[1])
        argv = ["--config", str(config_path), "--param", "lambda_kd", "--values", "5"]
        self._assert_sweep_rejected(capsys, tmp_path / "sweep_run", argv, "vanilla")

    def test_sweep_bad_k_is_rejected_before_any_run(self, tmp_path, capsys):
        config_path = write_config(
            tmp_path, loss="gkd", lambda_kd=1.0, graph={"k": 10}, batch_size=24, seeds=[1]
        )
        teacher_ckpt = self._train_teacher(tmp_path, config_path)
        out = tmp_path / "sweep_run"
        argv = ["--config", str(config_path), "--teacher", str(teacher_ckpt),
                "--param", "k", "--values", "3,500"]
        # the whole sweep fails before k=3 trains, so no k_3/ is left behind
        self._assert_sweep_rejected(capsys, out, argv, "k=500")

    DIVERGING_SCHEDULE = {"base_lr": 1e200, "decay_factor": 0.2, "milestones": [], "total_epochs": 2}

    def _assert_diverged(self, capsys, recwarn, out):
        err = capsys.readouterr().err
        assert err.startswith("error:") and "diverged at epoch 0" in err
        assert len(err.strip().splitlines()) == 1
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not (out / "seed1").exists()

    def test_diverging_distill_exits_two(self, tmp_path, capsys, recwarn):
        config_path = write_config(tmp_path, schedule=self.DIVERGING_SCHEDULE, seeds=[1])
        out = tmp_path / "run"
        code = main(["distill", "--config", str(config_path), "--out", str(out)])
        assert code == 2
        self._assert_diverged(capsys, recwarn, out)

    def test_diverging_gkd_distill_leaves_no_seed_dir(self, tmp_path, capsys, recwarn):
        teacher_ckpt = self._train_teacher(tmp_path, write_config(tmp_path))
        config_path = write_config(
            tmp_path, "gkd.json", loss="gkd", schedule=self.DIVERGING_SCHEDULE, seeds=[1]
        )
        out = tmp_path / "run"
        argv = ["distill", "--config", str(config_path), "--out", str(out)]
        assert main(argv + ["--teacher", str(teacher_ckpt)]) == 2
        self._assert_diverged(capsys, recwarn, out)

    def test_train_teacher_summary_is_independent_of_out_dir(self, tmp_path):
        config_path = write_config(tmp_path)
        for name in ("a", "b"):
            argv = ["train-teacher", "--config", str(config_path), "--out", str(tmp_path / name)]
            assert main(argv) == 0
        summary = (tmp_path / "a" / "summary.json").read_bytes()
        assert summary == (tmp_path / "b" / "summary.json").read_bytes()
        assert json.loads(summary)["checkpoint"] == "teacher.ckpt"

    def test_analyze_writes_tables(self, tmp_path):
        config_path = write_config(tmp_path, seeds=[1])
        teacher_ckpt = self._train_teacher(tmp_path, config_path)
        distill_out = tmp_path / "students"
        assert main(["distill", "--config", str(config_path), "--out", str(distill_out)]) == 0

        out = tmp_path / "analysis"
        code = main(
            [
                "analyze",
                "--config", str(config_path),
                "--out", str(out),
                "--teacher", str(teacher_ckpt),
                "--student", str(distill_out / "seed1" / "student.ckpt"),
                "--batches", "2",
                "--batch-size", "16",
            ]
        )
        assert code == 0
        with (out / "concentration.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert {r["loss"] for r in rows} == {"gkd", "rkdd"}
        assert list(rows[0]) == ["loss", "tap", "median_concentration_pct"]
        with (out / "consistency.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["tap"] for r in rows] == ["block1", "block2", "output"]
        assert (out / "analysis_summary.json").exists()

    @pytest.mark.parametrize("flag, value", [("--batches", "0"), ("--batches", "-3"),
                                             ("--batch-size", "1")])
    def test_analyze_without_batches_exits_two(self, tmp_path, capsys, flag, value):
        config_path = write_config(tmp_path)
        net = build_blocknet((1, 1), (4, 4), input_dim=3, classes=2, seed=1)
        ckpt = tmp_path / "net.ckpt"
        save_checkpoint(net, ckpt)
        out = tmp_path / "analysis"
        argv = ["analyze", "--config", str(config_path), "--out", str(out),
                "--teacher", str(ckpt), "--student", str(ckpt), flag, value]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: concentration_report:")
        assert len(err.strip().splitlines()) == 1
        assert not (out / "concentration.csv").exists()

    # shallow taps on a 2-epoch teacher can leave isolated nodes; the
    # degenerate-Fiedler warning is expected behavior, not a failure
    @pytest.mark.filterwarnings("ignore:teacher graph.*disconnected:RuntimeWarning")
    def test_post_hoc_reruns_are_bit_identical(self, tmp_path):
        config_path = write_config(tmp_path, seeds=[1])
        teacher_ckpt = self._train_teacher(tmp_path, config_path)
        distill_out = tmp_path / "students"
        assert main(["distill", "--config", str(config_path), "--out", str(distill_out)]) == 0
        student_ckpt = distill_out / "seed1" / "student.ckpt"
        common = ["--config", str(config_path), "--teacher", str(teacher_ckpt)]
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["analyze", *common, "--out", str(out), "--student", str(student_ckpt),
                         "--batches", "2", "--batch-size", "16"]) == 0
            assert main(["spectral", *common, "--out", str(out), "--student",
                         f"base={student_ckpt}", "--sample", "40", "--k", "8"]) == 0
        for name in ("concentration.csv", "consistency.csv", "smoothness.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    # shallow taps on a 2-epoch teacher can leave isolated nodes; the
    # degenerate-Fiedler warning is expected behavior, not a failure
    @pytest.mark.filterwarnings("ignore:teacher graph.*disconnected:RuntimeWarning")
    def test_spectral_writes_smoothness_table(self, tmp_path):
        config_path = write_config(tmp_path, seeds=[1])
        teacher_ckpt = self._train_teacher(tmp_path, config_path)
        distill_out = tmp_path / "students"
        assert main(["distill", "--config", str(config_path), "--out", str(distill_out)]) == 0

        out = tmp_path / "spectral"
        code = main(
            [
                "spectral",
                "--config", str(config_path),
                "--out", str(out),
                "--teacher", str(teacher_ckpt),
                "--student", f"base={distill_out / 'seed1' / 'student.ckpt'}",
                "--sample", "40",
                "--k", "8",
            ]
        )
        assert code == 0
        with (out / "smoothness.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["student", "signal", "tap", "smoothness"]
        assert {r["student"] for r in rows} == {"base"}
        assert {r["signal"] for r in rows} == {"label_indicator", "teacher_fiedler"}
        assert all(float(r["smoothness"]) >= -1e-12 for r in rows)

    def test_dump_graph_writes_edge_list(self, tmp_path):
        config_path = write_config(tmp_path, seeds=[1])
        teacher_ckpt = self._train_teacher(tmp_path, config_path)
        out = tmp_path / "graph"
        code = main(
            [
                "dump-graph",
                "--config", str(config_path),
                "--out", str(out),
                "--checkpoint", str(teacher_ckpt),
                "--block", "block1",
                "--sample", "24",
                "--k", "4",
            ]
        )
        assert code == 0
        with (out / "graph_edges.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows, "graph should have at least one edge"
        for row in rows:
            assert int(row["i"]) < int(row["j"])
            assert float(row["weight"]) > 0.0
        params = json.loads((out / "graph_params.json").read_text())
        assert params["k"] == 4 and params["n"] == 24

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        code = main(["train-teacher", "--config", str(tmp_path / "no.json"), "--out", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(tiny_config_dict(loss="gkd", graph={"k": 999})))
        code = main(["train-teacher", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "k=" in capsys.readouterr().err

    def test_distill_without_required_teacher_exits_two(self, tmp_path, capsys):
        config_path = write_config(tmp_path, loss="rkdd", lambda_kd=1.0)
        code = main(["distill", "--config", str(config_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "teacher" in capsys.readouterr().err

    def test_vanilla_distill_with_teacher_exits_two(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        ckpt = self._train_teacher(tmp_path, config_path)
        code = main(
            [
                "distill",
                "--config", str(config_path),
                "--out", str(tmp_path / "o"),
                "--teacher", str(ckpt),
            ]
        )
        assert code == 2
        assert "vanilla" in capsys.readouterr().err

    def test_missing_teacher_checkpoint_exits_two(self, tmp_path, capsys):
        config_path = write_config(tmp_path, loss="gkd", lambda_kd=1.0)
        code = main(
            [
                "distill",
                "--config", str(config_path),
                "--out", str(tmp_path / "o"),
                "--teacher", str(tmp_path / "ghost.ckpt"),
            ]
        )
        assert code == 2
        assert "not found" in capsys.readouterr().err

    # training refuses to write a diverged checkpoint, so build one with the
    # all-NaN parameters a diverged run used to save; analysing it must end
    # in one error line, not a traceback
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_analyze_diverged_checkpoint_exits_two(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        net = build_blocknet((1, 1), (12, 12), input_dim=3, classes=2, seed=1)
        for p in net.parameters():
            p.data[:] = np.nan
        ckpt = tmp_path / "diverged.ckpt"
        save_checkpoint(net, ckpt)
        code = main(
            [
                "analyze",
                "--config", str(config_path),
                "--out", str(tmp_path / "analysis"),
                "--teacher", str(ckpt),
                "--student", str(ckpt),
                "--batches", "2",
                "--batch-size", "16",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "diverged" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_analyze_failing_in_the_probe_fit_writes_nothing(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        net = build_blocknet((1, 1), (12, 12), input_dim=3, classes=2, seed=1)
        for p in net.parameters():
            p.data[:] = np.nan
        ckpt = tmp_path / "diverged.ckpt"
        save_checkpoint(net, ckpt)
        out = tmp_path / "analysis"
        argv = ["analyze", "--config", str(config_path), "--out", str(out), "--teacher",
                str(ckpt), "--student", str(ckpt), "--batches", "2", "--batch-size", "16"]
        assert main(argv) == 2
        assert "diverged" in capsys.readouterr().err
        assert not out.exists()

    # each command's own arguments for a run that loads or checks its inputs
    # and fails, and a fragment of its one error line
    REJECTED_RUNS = {
        "distill": (["--teacher", "{ghost}"], "teacher checkpoint not found"),
        "sweep": (["--teacher", "{ghost}", "--param", "lambda_kd", "--values", "1,2"],
                  "teacher checkpoint not found"),
        "analyze": (["--teacher", "{ckpt}", "--student", "{ckpt}", "--batches", "0"],
                    "n_batches >= 1"),
        "spectral": (["--teacher", "{ckpt}", "--student", "base={ghost}"],
                     "student 'base' checkpoint not found"),
        "dump-graph": (["--checkpoint", "{ckpt}", "--block", "nosuch"], "unknown tap 'nosuch'"),
    }

    @pytest.mark.parametrize("command", list(REJECTED_RUNS))
    def test_rejected_run_leaves_no_out_dir(self, tmp_path, capsys, command):
        config_path = write_config(tmp_path, loss="gkd", lambda_kd=1.0, seeds=[1])
        ckpt = tmp_path / "net.ckpt"
        save_checkpoint(build_blocknet((1, 1), (4, 4), input_dim=3, classes=2, seed=1), ckpt)
        paths = {"ckpt": str(ckpt), "ghost": str(tmp_path / "ghost.ckpt")}
        argv, fragment = self.REJECTED_RUNS[command]
        out = tmp_path / "out"
        code = main([command, "--config", str(config_path), "--out", str(out),
                     *(arg.format(**paths) for arg in argv)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and fragment in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()


class TestTwoArcsConfig:
    def test_two_arcs_dataset_flows_through(self, tmp_path):
        config_path = write_config(
            tmp_path,
            dataset={
                "name": "two_arcs",
                "n": 80,
                "noise": 0.15,
                "seed": 0,
                "test_fraction": 0.25,
            },
            teacher={"depths": [1], "widths": [8]},
            student={"depths": [1], "widths": [4]},
            batch_size=16,
            seeds=[1],
        )
        out = tmp_path / "arcs"
        assert main(["train-teacher", "--config", str(config_path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 <= summary["final"]["test_error"] <= 1.0

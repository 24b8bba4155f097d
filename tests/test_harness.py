"""Config parsing, experiment runners, and the command-line interface."""

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from graphkd import harness
from graphkd.cli import main
from graphkd.config import (
    ConfigError,
    config_digest,
    load_config,
    parse_config,
)
from graphkd.harness import (
    METRIC_COLUMNS,
    _apply_sweep,
    _sweep_value,
    aggregate_median,
    run_distill,
    run_dump_graph,
    run_spectral,
    run_sweep,
    run_train_teacher,
)
from graphkd.models import atomic_open, build_blocknet, save_checkpoint

from conftest import make_config, tiny_config_dict, write_config, write_net


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


class TestConfigDigests:
    """Digests of configs that lean on defaults, pinned so that a change to the
    schema tables cannot move a default or a stored type unnoticed."""

    ARCHS = {"teacher": {"depths": [1, 1], "widths": [12, 12]},
             "student": {"depths": [1], "widths": [4]}}
    PINNED = {
        # dataset seed and test_fraction, lambda_kd, batch_size, momentum,
        # schedule and seeds all omitted; separation an integer
        "gaussian_mixture": (
            {"version": 1, **ARCHS, "loss": "rkdd",
             "dataset": {"name": "gaussian_mixture", "n": 80, "classes": 3, "dim": 2,
                         "separation": 5}},
            "29404c6bd1bd9954fd6d0fb1ab4705da970e118d2202fb703e64a10d7aa15dfe",
        ),
        "idx_without_limit": (
            {"version": 1, **ARCHS, "loss": "ikd", "lambda_kd": 2, "batch_size": 64,
             "dataset": {"name": "idx", "images": "train-images.idx3-ubyte",
                         "labels": "train-labels.idx1-ubyte"}},
            "57e7ab53f5ee45153cbc6140d1050e01b9f7fca3f2cbadd742ef322b683e9dc7",
        ),
        # graph k, decay_factor and noise omitted; base_lr and momentum integers
        "two_arcs_without_noise": (
            {"version": 1, **ARCHS, "loss": "gkd", "graph": {"p": 2, "mask_mode": "inter_class"},
             "batch_size": 32, "momentum": 0, "seeds": [4],
             "schedule": {"base_lr": 1, "milestones": [3], "total_epochs": 5},
             "dataset": {"name": "two_arcs", "n": 200, "seed": 3, "test_fraction": 0.5}},
            "67b03f36041597788514cc8294070f390b20c192cf5c6f837f8be825099856bd",
        ),
    }

    @pytest.mark.parametrize("case", list(PINNED))
    def test_digest_value_is_pinned(self, case):
        obj, digest = self.PINNED[case]
        assert config_digest(parse_config(obj)) == digest

    # a dataset number written as an integer digests, and names its data, as
    # it does written as a float
    @pytest.mark.parametrize("dataset, key", [
        ({"name": "two_arcs", "n": 40, "noise": 0}, "noise"),
        ({"name": "gaussian_mixture", "n": 40, "classes": 2, "dim": 3, "separation": 8},
         "separation"),
    ], ids=["noise", "separation"])
    def test_integer_dataset_number_is_stored_as_float(self, dataset, key):
        configs = [parse_config(tiny_config_dict(dataset=d))
                   for d in (dataset, {**dataset, key: float(dataset[key])})]
        assert len({config_digest(c) for c in configs}) == 1
        assert len({harness.build_split(c).train.provenance for c in configs}) == 1


class TestNonFiniteNumbers:
    # a config with a non-finite number, and its whole error line
    NON_FINITE = {
        "lambda_kd_nan": ({"loss": "gkd", "lambda_kd": math.nan},
                          "config: lambda_kd must be finite, got nan"),
        "lambda_kd_inf": ({"loss": "rkdd", "lambda_kd": math.inf},
                          "config: lambda_kd must be finite, got inf"),
        "momentum_nan": ({"momentum": math.nan}, "config: momentum must be finite, got nan"),
        "base_lr_nan": ({"schedule": {"base_lr": math.nan}},
                        "schedule: base_lr must be finite, got nan"),
        "base_lr_inf": ({"schedule": {"base_lr": math.inf}},
                        "schedule: base_lr must be finite, got inf"),
        "decay_factor_minus_inf": ({"schedule": {"decay_factor": -math.inf}},
                                   "schedule: decay_factor must be finite, got -inf"),
        "noise_nan": ({"dataset": {"name": "two_arcs", "n": 80, "noise": math.nan}},
                      "dataset: noise must be finite, got nan"),
        "separation_inf": ({"dataset": {"name": "gaussian_mixture", "n": 80, "classes": 2,
                                        "dim": 3, "separation": math.inf}},
                           "dataset: separation must be finite, got inf"),
        "test_fraction_nan": ({"dataset": {"name": "two_arcs", "n": 80,
                                           "test_fraction": math.nan}},
                              "dataset: test_fraction must be finite, got nan"),
    }

    @pytest.mark.parametrize("case", list(NON_FINITE))
    def test_config_with_non_finite_number_exits_two(self, tmp_path, capsys, case):
        overrides, message = self.NON_FINITE[case]
        config_path = write_config(tmp_path, **overrides)  # json writes NaN and Infinity
        out = tmp_path / "out"
        assert main(["train-teacher", "--config", str(config_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("lambda_kd", math.nan), ("lambda_kd", math.inf), ("momentum", -math.inf),
    ])
    def test_replace_rejects_a_non_finite_config_number(self, field, value):
        config = parse_config(tiny_config_dict(loss="gkd"))
        with pytest.raises(ConfigError, match=f"^config: {field} must be finite, got"):
            replace(config, **{field: value})

    @pytest.mark.parametrize("field", ["base_lr", "decay_factor"])
    def test_replace_rejects_a_non_finite_schedule_number(self, field):
        schedule = parse_config(tiny_config_dict()).schedule
        with pytest.raises(ConfigError, match=f"^schedule: {field} must be finite, got nan"):
            replace(schedule, **{field: math.nan})


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

    # a sweep parameter, its --values, and the whole error line
    BAD_SWEEP_VALUES = {
        "k_fraction": ("k", "5,1.5", "sweep: k values must be integers, got '1.5'"),
        "p_word": ("p", "two", "sweep: p values must be integers, got 'two'"),
        "lambda_kd_word": ("lambda_kd", "abc", "sweep: lambda_kd values must be numbers, got 'abc'"),
        "lambda_kd_nan": ("lambda_kd", "0.5,nan", "config: lambda_kd must be finite, got nan"),
        "lambda_kd_inf": ("lambda_kd", "inf", "config: lambda_kd must be finite, got inf"),
        # values that are equal once typed would train into one directory
        "lambda_kd_repeated": ("lambda_kd", "1,1.0,1e0",
                               "sweep: lambda_kd values must be distinct, got [1.0, 1.0, 1.0]"),
        "k_repeated": ("k", "5,05", "sweep: k values must be distinct, got [5, 5]"),
        "mask_mode_repeated": ("mask_mode", "all,all",
                               "sweep: mask_mode values must be distinct, got ['all', 'all']"),
    }

    @pytest.mark.parametrize("case", list(BAD_SWEEP_VALUES))
    def test_bad_sweep_value_names_its_parameter(self, tmp_path, capsys, case):
        param, values, message = self.BAD_SWEEP_VALUES[case]
        config_path = write_config(tmp_path, loss="gkd", lambda_kd=1.0, seeds=[1])
        # every value is checked before the teacher checkpoint is looked for
        argv = ["--config", str(config_path), "--teacher", str(tmp_path / "ghost.ckpt"),
                "--param", param, "--values", values]
        self._assert_sweep_rejected(capsys, tmp_path / "sweep_run", argv, f"error: {message}\n")

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

    def test_diverging_sweep_value_keeps_the_values_before_it(self, tmp_path, capsys, recwarn):
        teacher_ckpt = self._train_teacher(tmp_path, write_config(tmp_path))
        config_path = write_config(tmp_path, "gkd.json", loss="gkd", lambda_kd=1.0, seeds=[1])
        out = tmp_path / "sweep_run"
        argv = ["sweep", "--config", str(config_path), "--out", str(out),
                "--teacher", str(teacher_ckpt), "--param", "lambda_kd", "--values", "0.5,1e300"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "diverged" in err
        assert len(err.strip().splitlines()) == 1
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        # the first value's run is whole; nothing of the second, and no sweep.csv
        written = sorted(str(f.relative_to(out)) for f in out.rglob("*") if f.is_file())
        assert written == [
            "lambda_kd_0.5/manifest.json",
            "lambda_kd_0.5/seed1/metrics.csv",
            "lambda_kd_0.5/seed1/student.ckpt",
            "lambda_kd_0.5/summary.json",
        ]

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

    def test_analysis_summary_does_not_depend_on_the_paths_given(self, tmp_path, monkeypatch):
        config_path = write_config(tmp_path, seeds=[1])
        teacher_ckpt = self._train_teacher(tmp_path, config_path)
        distill_out = tmp_path / "students"
        assert main(["distill", "--config", str(config_path), "--out", str(distill_out)]) == 0
        student_ckpt = distill_out / "seed1" / "student.ckpt"
        monkeypatch.chdir(tmp_path)
        relative = [config_path.name, "teacher_run/teacher.ckpt", "students/seed1/student.ckpt"]
        absolute = [str(p.resolve()) for p in (config_path, teacher_ckpt, student_ckpt)]
        for tag, (config, teacher, student) in (("rel", relative), ("abs", absolute)):
            assert main(["analyze", "--config", config, "--out", tag, "--teacher", teacher,
                         "--student", student, "--batches", "2", "--batch-size", "16"]) == 0
        summary = (tmp_path / "rel" / "analysis_summary.json").read_bytes()
        assert summary == (tmp_path / "abs" / "analysis_summary.json").read_bytes()
        # the digests are the ones the teacher's and the students' manifests record
        digests = json.loads(summary)["checkpoint_digests"]
        teacher_manifest = json.loads((tmp_path / "teacher_run" / "manifest.json").read_text())
        assert digests["teacher"] == teacher_manifest["checkpoint_digests"]["teacher"]
        manifest = json.loads((distill_out / "manifest.json").read_text())
        assert digests["student"] == manifest["checkpoint_digests"]["student_seed1"]

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

    # training checks the teacher against the student before its first step
    @pytest.mark.parametrize("command, argv", [
        ("distill", []),
        ("sweep", ["--param", "lambda_kd", "--values", "1,2"]),
    ], ids=["distill", "sweep"])
    def test_teacher_of_another_input_dim_leaves_no_out_dir(self, tmp_path, capsys, command,
                                                            argv):
        config_path = write_config(tmp_path, loss="gkd", lambda_kd=1.0, seeds=[1])
        ckpt = tmp_path / "teacher.ckpt"
        save_checkpoint(build_blocknet((1, 1), (4, 4), input_dim=5, classes=2, seed=1), ckpt)
        out = tmp_path / "out"
        code = main([command, "--config", str(config_path), "--out", str(out),
                     "--teacher", str(ckpt), *argv])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: teacher (5 -> 2) and student (3 -> 2) disagree on input/classes\n"
        )
        assert not out.exists()

    # training's teacher rule, for a vanilla config given a teacher and a gkd
    # config given none; a vanilla sweep may only sweep lambda_kd to 0
    @pytest.mark.parametrize("command, loss, argv, message", [
        ("distill", "vanilla", ["--teacher", "{ckpt}"],
         "vanilla training does not take a teacher"),
        ("distill", "gkd", [], "loss 'gkd' requires a teacher network"),
        ("sweep", "vanilla", ["--teacher", "{ckpt}", "--param", "lambda_kd", "--values", "0"],
         "vanilla training does not take a teacher"),
        ("sweep", "gkd", ["--param", "lambda_kd", "--values", "1,2"],
         "loss 'gkd' requires a teacher network"),
    ], ids=["distill-vanilla", "distill-gkd", "sweep-vanilla", "sweep-gkd"])
    def test_teacher_rule_leaves_no_out_dir(self, tmp_path, capsys, command, loss, argv,
                                            message):
        overrides = {"loss": "gkd", "lambda_kd": 1.0} if loss == "gkd" else {}
        config_path = write_config(tmp_path, seeds=[1], **overrides)
        ckpt = write_net(tmp_path, "teacher.ckpt", (12, 12), seed=1)
        out = tmp_path / "out"
        code = main([command, "--config", str(config_path), "--out", str(out),
                     *(arg.format(ckpt=ckpt) for arg in argv)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_sweeping_a_graph_parameter_needs_gkd(self, tmp_path, capsys):
        config_path = write_config(tmp_path, loss="rkdd", lambda_kd=1.0, seeds=[1])
        ckpt = write_net(tmp_path, "teacher.ckpt", (12, 12), seed=1)
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(config_path), "--out", str(out),
                     "--teacher", str(ckpt), "--param", "k", "--values", "5"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: sweeping 'k' requires loss='gkd' with graph parameters\n"
        )
        assert not out.exists()

    # analyze and spectral pair the teacher's taps with the student's, so a
    # three-block teacher and a two-block student are rejected before any write
    @pytest.mark.parametrize("command, argv", [
        ("analyze", ["--student", "{student}", "--batches", "2", "--batch-size", "16"]),
        ("spectral", ["--student", "small={student}", "--sample", "32"]),
    ], ids=["analyze", "spectral"])
    def test_nets_with_other_taps_leave_no_out_dir(self, tmp_path, capsys, command, argv):
        config_path = write_config(
            tmp_path, dataset={"name": "two_arcs", "n": 80, "seed": 0, "test_fraction": 0.25})
        teacher, student = tmp_path / "teacher.ckpt", tmp_path / "student.ckpt"
        save_checkpoint(build_blocknet((1, 1, 1), (16, 16, 16), 2, 2, seed=1), teacher)
        save_checkpoint(build_blocknet((1, 1), (4, 4), 2, 2, seed=2), student)
        out = tmp_path / "out"
        code = main([command, "--config", str(config_path), "--out", str(out),
                     "--teacher", str(teacher), *(arg.format(student=student) for arg in argv)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: teacher taps ['block1', 'block2', 'block3', 'output'] and student taps "
            "['block1', 'block2', 'output'] differ\n"
        )
        assert not out.exists()

    def test_spectral_repeated_student_name_exits_two(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        ckpt = tmp_path / "net.ckpt"
        save_checkpoint(build_blocknet((1, 1), (4, 4), input_dim=3, classes=2, seed=1), ckpt)
        out = tmp_path / "out"
        code = main(["spectral", "--config", str(config_path), "--out", str(out),
                     "--teacher", str(ckpt), "--student", f"gkd={ckpt}",
                     "--student", f"vanilla={ckpt}", "--student", f"gkd={tmp_path / 'other'}"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: spectral: student names must be distinct, got ['gkd', 'vanilla', 'gkd']\n"
        )
        assert not out.exists()

    # command lines the parser rejects: a bad value for each option type, a
    # missing required option and an unknown subcommand
    PARSE_ERRORS = {
        "seeds_not_integers": ["distill", "--out", "{out}", "--seeds", "1.5"],
        "k_not_an_integer": ["spectral", "--out", "{out}", "--teacher", "t.ckpt",
                             "--student", "a=s.ckpt", "--k", "x"],
        "sample_not_an_integer": ["dump-graph", "--out", "{out}", "--checkpoint", "c.ckpt",
                                  "--sample", "1.5"],
        "missing_required": ["analyze", "--out", "{out}", "--teacher", "t.ckpt"],
        "unknown_subcommand": ["frobnicate", "--out", "{out}"],
    }

    @pytest.mark.parametrize("case", list(PARSE_ERRORS))
    def test_parse_error_is_one_line_and_exits_two(self, tmp_path, capsys, case):
        config_path = write_config(tmp_path)
        out = tmp_path / "out"
        argv = [arg.format(out=out) for arg in self.PARSE_ERRORS[case]]
        assert main([argv[0], "--config", str(config_path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "_int_list" not in lines[0] and "usage" not in lines[0]
        assert captured.out == ""
        assert not out.exists()

    def test_seeds_error_names_the_expected_form(self, tmp_path, capsys):
        argv = ["distill", "--config", "c.json", "--out", str(tmp_path / "o"), "--seeds", "1,x"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: argument --seeds: expected comma-separated integers, got '1,x'\n"
        )


    # a config value of the wrong type, and a fragment of its one error line
    WRONG_TYPES = {
        "seeds": ({"seeds": 5}, "config: seeds must be a list of integers"),
        "milestones": ({"schedule": {"milestones": 5}},
                       "schedule: milestones must be a list of integers"),
        "depths": ({"teacher": {"depths": 3, "widths": [12]}},
                   "teacher: depths must be a list of integers"),
        "momentum": ({"momentum": None}, "config: momentum must be a number"),
        "graph_k": ({"loss": "gkd", "lambda_kd": 1.0, "graph": {"k": None}},
                    "graph: k must be an integer"),
        "noise": ({"dataset": {"name": "two_arcs", "n": 80, "noise": "x"}},
                  "dataset: noise must be a number"),
        # a number of the wrong JSON type is rejected, not converted
        "batch_size_fraction": ({"batch_size": 20.9}, "config: batch_size must be an integer"),
        "batch_size_string": ({"batch_size": "64"}, "config: batch_size must be an integer"),
        "seeds_fractions": ({"seeds": [1.5, 2.2]}, "config: seeds must be a list of integers"),
        "seeds_bool": ({"seeds": [True]}, "config: seeds must be a list of integers"),
        "depths_fraction": ({"teacher": {"depths": [1.7], "widths": [12]}},
                            "teacher: depths must be a list of integers"),
        "widths_bool": ({"teacher": {"depths": [1], "widths": [True]}},
                        "teacher: widths must be a list of integers"),
        "total_epochs_fraction": ({"schedule": {"total_epochs": 2.9}},
                                  "schedule: total_epochs must be an integer"),
        "graph_k_fraction": ({"loss": "gkd", "lambda_kd": 1.0, "graph": {"k": 3.5}},
                             "graph: k must be an integer"),
        "momentum_string": ({"momentum": "0.5"}, "config: momentum must be a number"),
        "lambda_kd_bool": ({"loss": "rkdd", "lambda_kd": True},
                           "config: lambda_kd must be a number"),
    }

    @pytest.mark.parametrize("case", list(WRONG_TYPES))
    def test_config_value_of_wrong_type_exits_two(self, tmp_path, capsys, case):
        overrides, fragment = self.WRONG_TYPES[case]
        config_path = write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert main(["train-teacher", "--config", str(config_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and fragment in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    # a seed that breaks the seed rule (non-empty, distinct, non-negative) in
    # the config or a command-line override: config overrides, command
    # arguments, and a fragment of the one error line
    BAD_SEEDS = {
        "config_seeds_negative": ({"seeds": [-1]}, ["train-teacher"],
                                  "config: seeds must be non-negative, got -1"),
        "dataset_seed_negative": (
            {"dataset": {"name": "two_arcs", "n": 80, "seed": -2}}, ["train-teacher"],
            "dataset: seed must be non-negative, got -2"),
        "seed_negative": ({}, ["train-teacher", "--seed=-4"],
                          "--seed must be non-negative, got -4"),
        "seeds_negative": ({}, ["distill", "--seeds=-4"], "--seeds must be non-negative, got -4"),
        "seeds_repeated": ({}, ["distill", "--seeds", "1,1"],
                           "--seeds must be distinct, got (1, 1)"),
        "seeds_empty": ({}, ["distill", "--seeds", ","], "--seeds must be a non-empty list"),
        "sample_seed_negative": ({}, ["dump-graph", "--checkpoint", "{ckpt}", "--seed=-1"],
                                 "--seed must be non-negative, got -1"),
    }

    @pytest.mark.parametrize("case", list(BAD_SEEDS))
    def test_seed_rule_exits_two(self, tmp_path, capsys, case):
        overrides, argv, fragment = self.BAD_SEEDS[case]
        config_path = write_config(tmp_path, **overrides)
        ckpt = tmp_path / "net.ckpt"
        save_checkpoint(build_blocknet((1, 1), (4, 4), input_dim=3, classes=2, seed=1), ckpt)
        out = tmp_path / "out"
        command, *args = argv
        code = main([command, "--config", str(config_path), "--out", str(out),
                     *(arg.format(ckpt=ckpt) for arg in args)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and fragment in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    # dump-graph arguments that the graph pipeline rejects: the error names
    # build_similarity_graph, the one public function of that path; an
    # explicit --k is taken as given, not capped at the sample
    @pytest.mark.parametrize("argv, fragment", [
        (["--k", "0"], "k=0 outside the valid range"),
        (["--sample", "24", "--k", "1000"], "k=1000 outside the valid range [1, 23]"),
        (["--p", "0"], "p must be a positive integer"),
        (["--sample", "1"], "need at least 2 rows"),
        (["--sample", "0"], "need at least 2 rows"),
    ], ids=["k0", "k1000", "p0", "sample1", "sample0"])
    def test_dump_graph_errors_name_build_similarity_graph(
        self, tmp_path, capsys, argv, fragment
    ):
        config_path = write_config(tmp_path)
        ckpt = tmp_path / "net.ckpt"
        save_checkpoint(build_blocknet((1, 1), (4, 4), input_dim=3, classes=2, seed=1), ckpt)
        out = tmp_path / "out"
        code = main(["dump-graph", "--config", str(config_path), "--out", str(out),
                     "--checkpoint", str(ckpt), *argv])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: build_similarity_graph: ") and fragment in err
        for gone in ("cosine_similarity_matrix", "knn_sparsify", "degree_normalize",
                     "adjacency_power"):
            assert gone not in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    # both commands draw their sample by one rule, harness._fixed_sample
    @pytest.mark.parametrize("command, argv", [
        ("spectral", ["--teacher", "{ckpt}", "--student", "s={ckpt}", "--sample", "-3"]),
        ("dump-graph", ["--checkpoint", "{ckpt}", "--sample", "-5"]),
    ], ids=["spectral", "dump-graph"])
    def test_negative_sample_exits_two(self, tmp_path, capsys, command, argv):
        config_path = write_config(tmp_path)
        ckpt = write_net(tmp_path, "net.ckpt", (4, 4), seed=1)
        out = tmp_path / "out"
        code = main([command, "--config", str(config_path), "--out", str(out),
                     *(arg.format(ckpt=ckpt) for arg in argv)])
        assert code == 2
        assert capsys.readouterr().err == f"error: --sample must be non-negative, got {argv[-1]}\n"
        assert not out.exists()

    # the tiny config's dataset has 60 training points
    @pytest.mark.filterwarnings("ignore:teacher graph.*disconnected:RuntimeWarning")
    @pytest.mark.parametrize("sample", ["1000", "40"])
    def test_spectral_and_dump_graph_use_one_sample_size(self, tmp_path, sample):
        config_path = write_config(tmp_path)
        ckpt = write_net(tmp_path, "net.ckpt", (4, 4), seed=1)
        common = ["--config", str(config_path), "--sample", sample, "--seed", "5"]
        assert main(["spectral", *common, "--out", str(tmp_path / "spectral"),
                     "--teacher", str(ckpt), "--student", f"s={ckpt}"]) == 0
        assert main(["dump-graph", *common, "--out", str(tmp_path / "graph"),
                     "--checkpoint", str(ckpt)]) == 0
        summary = json.loads((tmp_path / "spectral" / "spectral_summary.json").read_text())
        params = json.loads((tmp_path / "graph" / "graph_params.json").read_text())
        assert summary["sample_size"] == params["n"] == min(int(sample), 60)

    # a checkpoint header line, and a fragment of its one error line
    BAD_HEADERS = {
        "not_an_object": ("[1]", "header is not a JSON object"),
        "null_input_dim": (
            '{"classes": 2, "depths": [1, 1], "format_version": 1, "input_dim": null, '
            '"widths": [12, 12]}',
            "header field 'input_dim' must be an integer, got None",
        ),
        # a key that save_checkpoint never writes
        "unknown_key": (
            '{"classes": 2, "depths": [1, 1], "dropout": 0.5, "format_version": 1, '
            '"input_dim": 3, "widths": [12, 12]}',
            "unknown keys ['dropout']",
        ),
        # well-typed fields that describe no net
        "zero_input_dim": (
            '{"classes": 2, "depths": [1, 1], "format_version": 1, "input_dim": 0, '
            '"widths": [12, 12]}',
            "header: need input_dim >= 1 and classes >= 2, got 0 and 2",
        ),
        "no_blocks": (
            '{"classes": 2, "depths": [], "format_version": 1, "input_dim": 3, "widths": []}',
            "header: depths and widths must be equal-length non-empty lists, got () and ()",
        ),
    }

    @pytest.mark.parametrize("case", list(BAD_HEADERS))
    def test_malformed_checkpoint_header_exits_two(self, tmp_path, capsys, case):
        header, fragment = self.BAD_HEADERS[case]
        config_path = write_config(tmp_path, loss="gkd", lambda_kd=1.0, seeds=[1])
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(header.encode() + b"\n")
        out = tmp_path / "out"
        code = main(["distill", "--config", str(config_path), "--out", str(out),
                     "--teacher", str(ckpt)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"checkpoint {ckpt}: {fragment}" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()


class TestSweep:
    @pytest.mark.parametrize(
        "param, values", [("k", ["5", "23"]), ("mask_mode", ["inter_class", "intra_class"])]
    )
    def test_each_value_matches_a_standalone_distill(self, tmp_path, param, values):
        cfg = make_config(loss="gkd", lambda_kd=1.0, graph={"k": 10, "p": 2}, seeds=[1, 2])
        ckpt = run_train_teacher(cfg, tmp_path / "teacher")
        run_sweep(cfg, tmp_path / "sweep", param, values, teacher_path=ckpt)
        for raw in values:
            value = _sweep_value(param, raw)
            alone = tmp_path / f"alone_{raw}"
            run_distill(_apply_sweep(cfg, param, value), alone, teacher_path=ckpt)
            swept = tmp_path / "sweep" / f"{param}_{value}"
            for name in ("seed1/student.ckpt", "seed1/metrics.csv", "seed2/student.ckpt",
                         "seed2/metrics.csv", "manifest.json", "summary.json"):
                assert (swept / name).read_bytes() == (alone / name).read_bytes(), name


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


class TestDumpGraph:
    """run_dump_graph writes the graph's upper-triangle edges through harness's
    one table writer, and its parameters as a JSON sidecar."""

    def _dump(self, tmp_path, monkeypatch, edit=lambda w: None, **kwargs):
        """Run dump-graph on an untrained net; return the graph it wrote, after
        ``edit`` has changed its weights in place."""
        built, build = [], harness.build_similarity_graph

        def spy(*args, **kw):
            graph = build(*args, **kw)
            edit(graph.weights)
            built.append(graph)
            return graph

        monkeypatch.setattr(harness, "build_similarity_graph", spy)
        net = write_net(tmp_path, "net.ckpt", (12, 12), seed=1)
        run_dump_graph(make_config(), tmp_path / "graph", net, **kwargs)
        return built[0]

    @staticmethod
    def _edges(path):
        with path.open(newline="") as fh:
            return [(int(r["i"]), int(r["j"]), float(r["weight"])) for r in csv.DictReader(fh)]

    def test_round_trip(self, tmp_path, monkeypatch):
        graph = self._dump(tmp_path, monkeypatch, sample_size=7, k=2, p=2)
        out = tmp_path / "graph"
        edges = self._edges(out / "graph_edges.csv")
        rebuilt = np.zeros((7, 7))
        for i, j, weight in edges:
            assert i < j
            rebuilt[i, j] = rebuilt[j, i] = weight
        np.testing.assert_array_equal(rebuilt, graph.weights)
        assert [(i, j) for i, j, _ in edges] == sorted((i, j) for i, j, _ in edges)
        sidecar = json.loads((out / "graph_params.json").read_text())
        assert sidecar == {"n": 7, "k": 2, "p": 2, "mask_mode": "all"}

    def test_nan_weight_is_kept_and_signed_zeros_dropped(self, tmp_path, monkeypatch):
        def edit(w):
            w[0, 1] = w[1, 0] = np.nan
            w[1, 2] = w[2, 1] = -0.0
            w[2, 3] = w[3, 2] = 0.0

        graph = self._dump(tmp_path, monkeypatch, edit, sample_size=6, k=5)
        edges = self._edges(tmp_path / "graph" / "graph_edges.csv")
        assert edges[0][:2] == (0, 1) and math.isnan(edges[0][2])
        upper = {(i, j) for i in range(6) for j in range(i + 1, 6) if graph.weights[i, j] != 0}
        assert [(i, j) for i, j, _ in edges] == sorted(upper)
        assert (1, 2) not in upper and (2, 3) not in upper

    def test_config_k_is_capped_at_the_sample(self, tmp_path):
        net = write_net(tmp_path, "net.ckpt", (12, 12), seed=1)
        config = make_config(loss="gkd", lambda_kd=1.0, graph={"k": 10, "p": 2})
        run_dump_graph(config, tmp_path / "graph", net, sample_size=7)
        sidecar = json.loads((tmp_path / "graph" / "graph_params.json").read_text())
        assert sidecar == {"n": 7, "k": 6, "p": 2, "mask_mode": "all"}

    def test_write_failing_midway_leaves_no_file(self, tmp_path, monkeypatch):
        @contextmanager
        def failing_open(path):
            with atomic_open(path) as fh:
                fh.write(b"i,j,weight\n0,1,")
                raise OSError("No space left on device")

        monkeypatch.setattr(harness, "atomic_open", failing_open)
        with pytest.raises(OSError, match="No space left"):
            self._dump(tmp_path, monkeypatch, sample_size=7, k=2)
        assert [f for f in tmp_path.rglob("*") if f.is_file()] == [tmp_path / "net.ckpt"]


class TestFixedSample:
    """``_fixed_sample`` is the one sample rule of spectral and dump-graph."""

    def test_sample_size_is_clamped_to_dataset(self):
        config = make_config()
        train = harness.build_split(config).train
        for size in (0, 1, 40, len(train), len(train) + 1, 1000):
            sample = harness._fixed_sample(config, size, seed=3)
            idx = np.random.default_rng(3).choice(len(train), size=min(size, len(train)),
                                                  replace=False)
            assert len(sample) == min(size, len(train))
            assert sample.features.tobytes() == train.features[idx].tobytes()
            assert sample.labels.tobytes() == train.labels[idx].tobytes()
            assert (sample.num_classes, sample.provenance) == (train.num_classes, train.provenance)


class TestSpectralSummary:
    # the tiny config's dataset has 60 training points
    @pytest.mark.filterwarnings("ignore:teacher graph.*disconnected:RuntimeWarning")
    @pytest.mark.parametrize("sample, used", [(1000, 60), (40, 40)])
    def test_records_the_sample_size_used(self, tmp_path, sample, used):
        teacher = write_net(tmp_path, "teacher.ckpt", (12, 12), seed=1)
        student = write_net(tmp_path, "student.ckpt", (4, 4), seed=2)
        out = tmp_path / "spectral"
        run_spectral(load_config(write_config(tmp_path)), out, teacher, [("s", student)],
                     sample_size=sample)
        summary = json.loads((out / "spectral_summary.json").read_text())
        assert summary["sample_size"] == used

    @pytest.mark.filterwarnings("ignore:teacher graph.*disconnected:RuntimeWarning")
    def test_default_k_is_the_dense_graph_on_the_sample(self, tmp_path):
        # the config's graph (k = 10) is not used: no --k means k = n - 1
        config = write_config(tmp_path, loss="gkd", lambda_kd=1.0, graph={"k": 10})
        teacher = write_net(tmp_path, "teacher.ckpt", (12, 12), seed=1)
        student = write_net(tmp_path, "student.ckpt", (4, 4), seed=2)
        common = ["spectral", "--config", str(config), "--teacher", str(teacher),
                  "--student", f"s={student}", "--sample", "40", "--seed", "3"]
        assert main([*common, "--out", str(tmp_path / "default")]) == 0
        assert main([*common, "--out", str(tmp_path / "dense"), "--k", "39"]) == 0
        for name in ("smoothness.csv", "spectral_summary.json"):
            assert (tmp_path / "default" / name).read_bytes() == \
                (tmp_path / "dense" / name).read_bytes()


# every CSV a command writes, and the header it starts with
CSV_HEADERS = {
    "teacher_metrics.csv": ",".join(METRIC_COLUMNS),
    "metrics.csv": ",".join(METRIC_COLUMNS),
    "sweep.csv": "param,value,seeds,per_seed_test_errors,median_test_error",
    "concentration.csv": "loss,tap,median_concentration_pct",
    "consistency.csv": "tap,consistency",
    "smoothness.csv": "student,signal,tap,smoothness",
    "graph_edges.csv": "i,j,weight",
}
CSV_COMMANDS = {
    "train-teacher": [],
    "distill": ["--teacher", "{teacher}"],
    "sweep": ["--teacher", "{teacher}", "--param", "k", "--values", "4,8"],
    "analyze": ["--teacher", "{teacher}", "--student", "{student}",
                "--batches", "2", "--batch-size", "16"],
    "spectral": ["--teacher", "{teacher}", "--student", "gkd={student}", "--sample", "40"],
    "dump-graph": ["--checkpoint", "{teacher}", "--sample", "24", "--k", "4"],
}


@pytest.fixture(scope="module")
def command_runs(tmp_path_factory):
    """Each of CSV_COMMANDS run once, in order, into a directory of its own."""
    root = tmp_path_factory.mktemp("tables")
    config = str(write_config(root, loss="gkd", lambda_kd=1.0, graph={"k": 10}, seeds=[1]))
    runs = {command: root / command for command in CSV_COMMANDS}
    paths = {"teacher": runs["train-teacher"] / "teacher.ckpt",
             "student": runs["distill"] / "seed1" / "student.ckpt"}
    for command, extra in CSV_COMMANDS.items():
        argv = [command, "--config", config, "--out", str(runs[command])]
        assert main(argv + [arg.format(**paths) for arg in extra]) == 0
    return runs


@pytest.mark.filterwarnings("ignore:teacher graph.*disconnected:RuntimeWarning")
@pytest.mark.parametrize("command", list(CSV_COMMANDS))
def test_every_table_has_its_header_first_and_newline_line_ends(command_runs, command):
    tables = sorted(command_runs[command].rglob("*.csv"))
    assert tables
    for table in tables:
        data = table.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n"), table.name
        lines = data.decode().splitlines()
        assert lines[0] == CSV_HEADERS[table.name]
        assert len(lines) > 1 and {line.count(",") for line in lines} == {lines[0].count(",")}

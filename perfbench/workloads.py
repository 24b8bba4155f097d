"""The benchmark's workloads: generated configs, set-up ops, the timed op cycle and
the checks on each op's outputs.

An op is one ``graphkd`` CLI call.  A workload's timed phase repeats its op cycle
at least twice; every repeat of an op must reproduce the bytes of its first run.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

TEACHER = {"depths": [1, 1, 1], "widths": [64, 64, 64]}
STUDENT = {"depths": [1, 1, 1], "widths": [8, 8, 8]}
BATCH = 128
EPOCHS = 60  # graphkd's default schedule; the configs leave "schedule" out
N_POINTS = 2000
TEST_FRACTION = 0.75  # 500 training points: 3 steps per epoch at batch 128
LAMBDA_KD = 0.5  # criterion 1's calibration for width-8 students
SPECTRAL_SAMPLES = (32, 48, 64)  # the n of each symmetric_eig call on `analysis`


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``argv`` may hold ``{work}``, the set-up directory with the
    configs, and ``{cycle}``, the directory of this repeat of the cycle; the op
    writes to ``<cycle>/<label>``."""

    label: str  # unique within a cycle, names the output directory
    kind: str  # train-teacher, distill.<arm>, analyze or spectral
    argv: tuple[str, ...]
    steps: int = 0  # SGD steps the op runs: epochs x (n_train // batch) x seeds

    def outdir(self, cycle: Path) -> Path:
        return cycle / self.label

    def resolve(self, work: Path, cycle: Path) -> list[str]:
        argv = [a.format(work=work, cycle=cycle) for a in self.argv]
        return argv[:1] + ["--out", str(self.outdir(cycle))] + argv[1:]


@dataclass
class OpResult:
    """What an op's output check found.  ``info`` holds final test errors."""

    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    info: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass(frozen=True)
class Workload:
    name: str
    setup_every: int  # a set-up runs before the timed phase and after every this many ops
    configs: Callable  # seed -> {file name: config dict}
    setup_ops: Callable  # seed -> [Op], run inside the set-up process
    cycle: Callable  # seed -> [Op], the timed ops
    direction: Callable | None = None  # {label: OpResult} of the first cycle -> report


def _n_train() -> int:
    return N_POINTS - int(round(N_POINTS * TEST_FRACTION))


def _steps(epochs: int) -> int:
    """SGD steps of one seed."""
    return epochs * (_n_train() // BATCH)


def _config(dataset: dict, loss: str, seeds: list[int], **extra) -> dict:
    cfg = {
        "version": 1,
        "dataset": dataset,
        "teacher": TEACHER,
        "student": STUDENT,
        "loss": loss,
        "batch_size": BATCH,
        "seeds": seeds,
    }
    cfg.update(extra)
    return cfg


def _two_arcs(seed: int) -> dict:
    return {"name": "two_arcs", "n": N_POINTS, "noise": 0.15, "seed": seed,
            "test_fraction": TEST_FRACTION}


def _mixture(seed: int) -> dict:
    return {"name": "gaussian_mixture", "n": N_POINTS, "classes": 4, "dim": 8,
            "separation": 3.0, "seed": seed, "test_fraction": TEST_FRACTION}


def _student_seeds(seed: int, count: int) -> list[int]:
    return [count * seed + i for i in range(1, count + 1)]


def _teacher_op(config: str, epochs: int = EPOCHS) -> Op:
    return Op("teacher", "train-teacher",
              ("train-teacher", "--config", "{work}/" + config),
              _steps(epochs))


CYCLE_TEACHER = "{cycle}/teacher/teacher.ckpt"


def _distill_op(arm: str, config: str, seed: int, teacher: str | None = CYCLE_TEACHER,
                epochs: int = EPOCHS) -> Op:
    argv = ["distill", "--config", "{work}/" + config, "--seeds", str(seed)]
    if teacher:
        argv += ["--teacher", teacher]
    return Op(f"{arm}-s{seed}", f"distill.{arm}", tuple(argv), _steps(epochs))


# ---------------------------------------------------------------------------
# distill-dense: criterion 1's data, nets and schedule; one teacher plus two
# vanilla and two dense-k gkd students (criterion 1 itself trains five of each),
# so that a run holds several whole cycles


DENSE_SEEDS = 2


def _dense_configs(seed: int) -> dict:
    data = _two_arcs(seed)
    seeds = _student_seeds(seed, DENSE_SEEDS)
    return {
        "vanilla.json": _config(data, "vanilla", seeds),
        "gkd.json": _config(data, "gkd", seeds, lambda_kd=LAMBDA_KD,
                            graph={"k": BATCH - 1, "p": 1, "mask_mode": "all"}),
    }


def _dense_cycle(seed: int) -> list[Op]:
    ops = [_teacher_op("gkd.json")]
    for s in _student_seeds(seed, DENSE_SEEDS):
        ops += [_distill_op("vanilla", "vanilla.json", s, teacher=None),
                _distill_op("gkd", "gkd.json", s)]
    return ops


def _dense_direction(first: dict[str, OpResult]) -> dict:
    """Criterion 1's direction on the first cycle: gkd median <= vanilla median,
    and the teacher below both.  Reported, not gated: it is a tendency, not a
    property of every seed.  Even with five students per arm it fails on some
    (workload seed 104: gkd median 0.0173 against vanilla 0.0147; seed 11: gkd
    median 0.0080 below its teacher's 0.0093).  The tier-1 criterion-1 test
    gates it on its calibrated seeds."""
    def median_of(arm):
        errs = [r.info["test_error"] for label, r in first.items()
                if label.startswith(arm + "-") and "test_error" in r.info]
        return statistics.median(errs) if errs else math.nan

    gkd, vanilla = median_of("gkd"), median_of("vanilla")
    teacher = first["teacher"].info.get("test_error", math.nan)
    return {"holds": gkd <= vanilla and teacher < gkd and teacher < vanilla,
            "teacher": teacher, "gkd_median": gkd, "vanilla_median": vanilla}


# ---------------------------------------------------------------------------
# distill-relational: a 4-class mixture, rkdd against sparse, class-masked gkd


RELATIONAL_SEEDS = 1


def _relational_configs(seed: int) -> dict:
    data = _mixture(seed)
    seeds = _student_seeds(seed, RELATIONAL_SEEDS)
    return {
        "rkdd.json": _config(data, "rkdd", seeds, lambda_kd=LAMBDA_KD),
        "gkd.json": _config(data, "gkd", seeds, lambda_kd=LAMBDA_KD,
                            graph={"k": 8, "p": 2, "mask_mode": "inter_class"}),
    }


def _relational_cycle(seed: int) -> list[Op]:
    ops = [_teacher_op("gkd.json")]
    for s in _student_seeds(seed, RELATIONAL_SEEDS):
        ops += [_distill_op("rkdd", "rkdd.json", s), _distill_op("gkd", "gkd.json", s)]
    return ops


# ---------------------------------------------------------------------------
# analysis: post-hoc tools over checkpoints that set-up trains on criterion 1's
# data, with a 20-epoch schedule so that set-up stays short


ANALYSIS_EPOCHS = 20


def _analysis_configs(seed: int) -> dict:
    schedule = {"total_epochs": ANALYSIS_EPOCHS, "milestones": [10, 15]}
    return {name: dict(cfg, schedule=schedule) for name, cfg in _dense_configs(seed).items()}


def _analysis_setup(seed: int) -> list[Op]:
    s = _student_seeds(seed, DENSE_SEEDS)[0]
    return [_teacher_op("gkd.json", ANALYSIS_EPOCHS),
            _distill_op("gkd", "gkd.json", s, epochs=ANALYSIS_EPOCHS),
            _distill_op("vanilla", "vanilla.json", s, teacher=None, epochs=ANALYSIS_EPOCHS)]


def _analysis_cycle(seed: int) -> list[Op]:
    s = _student_seeds(seed, DENSE_SEEDS)[0]
    teacher = "{work}/setup/teacher/teacher.ckpt"
    gkd = f"{{work}}/setup/gkd-s{s}/seed{s}/student.ckpt"
    vanilla = f"{{work}}/setup/vanilla-s{s}/seed{s}/student.ckpt"
    ops = [Op("analyze", "analyze",
              ("analyze", "--config", "{work}/gkd.json", "--teacher", teacher,
               "--student", gkd, "--seed", str(seed)))]
    for n in SPECTRAL_SAMPLES:
        ops.append(Op(f"spectral-n{n}", "spectral",
                      ("spectral", "--config", "{work}/gkd.json", "--teacher", teacher,
                       "--student", f"gkd={gkd}", "--student", f"vanilla={vanilla}",
                       "--sample", str(n), "--seed", str(seed))))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="distill-dense",
            setup_every=1,  # a set-up is only interpreter start and import: 0.3 s
            configs=_dense_configs,
            setup_ops=lambda seed: [],
            cycle=_dense_cycle,
            direction=_dense_direction,
        ),
        Workload(
            name="distill-relational",
            setup_every=1,
            configs=_relational_configs,
            setup_ops=lambda seed: [],
            cycle=_relational_cycle,
        ),
        Workload(
            name="analysis",
            setup_every=4,  # once per cycle: this set-up trains three nets, 2 s
            configs=_analysis_configs,
            setup_ops=_analysis_setup,
            cycle=_analysis_cycle,
        ),
    )
}


def write_configs(workload: Workload, seed: int, work: Path) -> None:
    work.mkdir(parents=True, exist_ok=True)
    for name, cfg in workload.configs(seed).items():
        (work / name).write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# output checks


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _csv_rows(path: Path) -> list[dict[str, str]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _check_numbers(result: OpResult, path: Path, columns, nonnegative: bool,
                   allow_empty: bool = False) -> None:
    bad = []
    for row in _csv_rows(path):
        for col in columns:
            raw = row.get(col, "")
            if raw == "" and allow_empty:
                continue
            try:
                value = float(raw)
            except ValueError:
                value = math.nan
            if not math.isfinite(value) or (nonnegative and value < 0):
                bad.append(f"{col}={raw!r}")
    if bad:
        result.problems.append(f"{path.name}: {len(bad)} bad values, first {bad[0]}")


METRIC_COLUMNS = ("lr", "train_error", "test_error", "task_loss", "kd_loss", "total_loss")


def _check_train_teacher(out: Path, result: OpResult) -> None:
    summary = json.loads((out / "summary.json").read_text())
    if not all(_finite(v) for v in summary["final"].values()):
        result.problems.append(f"teacher summary not finite: {summary['final']}")
    _check_numbers(result, out / "teacher_metrics.csv", METRIC_COLUMNS, nonnegative=False)
    result.info["test_error"] = summary["final"]["test_error"]
    for name in ("teacher.ckpt", "teacher_metrics.csv"):
        result.digests[name] = _digest(out / name)


def _check_distill(out: Path, result: OpResult) -> None:
    summary = json.loads((out / "summary.json").read_text())
    if not all(_finite(v) for v in summary["median"].values()):
        result.problems.append(f"distill summary not finite: {summary['median']}")
    for seed in summary["seeds"]:
        seed_dir = out / f"seed{seed}"
        _check_numbers(result, seed_dir / "metrics.csv", METRIC_COLUMNS, nonnegative=False)
        for name in ("student.ckpt", "metrics.csv"):
            result.digests[f"seed{seed}/{name}"] = _digest(seed_dir / name)
    result.info["test_error"] = summary["median"]["test_error"]


def _check_analyze(out: Path, result: OpResult) -> None:
    # an all-zero loss leaves a concentration cell empty, which is not a failure
    _check_numbers(result, out / "concentration.csv", ["median_concentration_pct"],
                   nonnegative=True, allow_empty=True)
    _check_numbers(result, out / "consistency.csv", ["consistency"], nonnegative=True)
    for name in ("concentration.csv", "consistency.csv"):
        result.digests[name] = _digest(out / name)


def _check_spectral(out: Path, result: OpResult) -> None:
    # teacher_fiedler values are checked for range only: at a disconnected tap
    # lambda_2 is degenerate and any correct eigensolver may pick another vector
    _check_numbers(result, out / "smoothness.csv", ["smoothness"], nonnegative=True)
    result.digests["smoothness.csv"] = _digest(out / "smoothness.csv")


CHECKS = {
    "train-teacher": _check_train_teacher,
    "analyze": _check_analyze,
    "spectral": _check_spectral,
}


def check_op(op: Op, out: Path) -> OpResult:
    """Check one op's outputs in its output directory ``out``."""
    result = OpResult()
    check = CHECKS.get(op.kind, _check_distill)
    try:
        check(out, result)
    except (OSError, ValueError, KeyError, IndexError) as err:
        result.problems.append(f"unreadable output: {err!r}")
    return result



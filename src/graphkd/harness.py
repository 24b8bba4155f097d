"""Experiment runners: build data and nets from a config, run, write artifacts.

Every run directory receives a manifest (config digest, seeds, checkpoint
digests, dataset provenance) sufficient to reproduce it bit-exactly, plus
metrics.csv per run and a summary.json with per-seed and median metrics.
Every CSV table goes through ``_write_table``, so the table format is decided
here alone.

train-teacher, distill and sweep each run a plan: a list of run directories,
each with its jobs (one net to train apiece, written by ``_train_job``) and a
``finish`` that writes the directory's manifest and summary as soon as its
last job is done; a sweep writes sweep.csv once the whole plan is done.  A
runner makes no directory itself: ``models.atomic_open`` makes each
artefact's directory as it writes it, so a run that fails on its inputs or
arguments leaves no output directory behind, and a failing job leaves only
what the jobs and run directories before it wrote.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .analysis import (check_tap_norms, concentration_report, consistency_curve,
                       spectral_report)
from .config import ConfigError, DistillConfig, GraphParams, _check_seeds, config_digest
from .datasets import (
    Dataset,
    DataSplit,
    gen_gaussian_mixture,
    gen_two_arcs,
    load_idx,
    split_dataset,
)
from .graphs import build_similarity_graph
from .models import (
    BlockNet,
    atomic_open,
    build_blocknet,
    checkpoint_digest,
    forward_with_taps,
    load_checkpoint,
    save_checkpoint,
)
from .training import EpochMetrics, TrainResult, train

METRIC_COLUMNS = tuple(f.name for f in fields(EpochMetrics))
FINAL_METRICS = ("test_error", "train_error", "task_loss", "kd_loss", "total_loss")
SWEEPABLE_PARAMS = ("k", "p", "mask_mode", "lambda_kd")


@dataclass
class ExperimentResult:
    seeds: tuple[int, ...]
    per_seed: dict[int, dict[str, float]]
    median: dict[str, float]


def aggregate_median(per_seed: dict[int, dict[str, float]]) -> dict[str, float]:
    """Elementwise median of per-seed scalar metrics (midpoint for even counts)."""
    if not per_seed:
        raise ValueError("aggregate_median: need results for at least one seed")
    keys = sorted(next(iter(per_seed.values())))
    return {key: float(np.median([m[key] for m in per_seed.values()])) for key in keys}


# ---------------------------------------------------------------------------
# config realization


def build_split(config: DistillConfig) -> DataSplit:
    spec = config.dataset
    params = spec.params
    if spec.name == "two_arcs":
        full = gen_two_arcs(params["n"], params["noise"], params["seed"])
    elif spec.name == "gaussian_mixture":
        full = gen_gaussian_mixture(
            params["n"], params["classes"], params["dim"], params["separation"], params["seed"]
        )
    elif spec.name == "idx":
        full = load_idx(params["images"], params["labels"], params["limit"])
    else:  # pragma: no cover - parse_config rejects unknown names
        raise ConfigError(f"unknown dataset {spec.name!r}")
    return split_dataset(full, params["test_fraction"], params["seed"])


def build_net(config: DistillConfig, which: str, split: DataSplit, seed: int) -> BlockNet:
    arch = config.teacher if which == "teacher" else config.student
    return build_blocknet(
        arch.depths, arch.widths, split.train.dim, split.train.num_classes, seed=seed
    )


def _fixed_sample(config: DistillConfig, sample_size: int, seed: int) -> Dataset:
    """A fixed sample of the config's training split: ``min(sample_size, its
    size)`` points, drawn without replacement by ``seed``."""
    if int(sample_size) < 0:
        raise ConfigError(f"--sample must be non-negative, got {sample_size}")
    train = build_split(config).train
    n = min(int(sample_size), len(train))
    idx = np.random.default_rng(seed).choice(len(train), size=n, replace=False)
    return replace(train, features=train.features[idx], labels=train.labels[idx])


def _graph_at(config: DistillConfig, n: int) -> GraphParams:
    """The config's graph at n points.  A k of ``batch_size - 1`` (the value an
    omitted k takes) is the dense graph, so it is k = n - 1 at any n, as is
    a config with no graph; a sparse k stays as given, capped at n - 1."""
    dense_k = config.batch_size - 1
    graph = config.graph if config.graph is not None else GraphParams(k=dense_k)
    return replace(graph, k=n - 1 if graph.k == dense_k else min(graph.k, n - 1))


# ---------------------------------------------------------------------------
# artifact writers


def write_metrics_csv(path: Path, result: TrainResult) -> None:
    _write_table(path, METRIC_COLUMNS,
                 ([getattr(m, c) for c in METRIC_COLUMNS] for m in result.metrics))


def _cell(value) -> str:
    if isinstance(value, float):  # numpy floats too; repr round-trips to the exact double
        return repr(float(value))
    return "" if value is None else str(value)


def _write_table(path: Path, header, rows) -> None:
    """Write a CSV table through ``_write_text``: a float cell is its repr, None
    is empty and anything else its str; every line ends in a bare newline."""
    lines = [",".join(header), *(",".join(map(_cell, row)) for row in rows)]
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path: Path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text.encode("utf-8"))


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_run(
    out_dir: Path, config: DistillConfig, seeds, split: DataSplit, checkpoints: dict, summary: dict
) -> None:
    """Write a run directory's manifest.json, then its summary.json."""
    _write_json(
        out_dir / "manifest.json",
        {
            "command": summary["command"],
            "config": config.to_dict(),
            "config_digest": config_digest(config),
            "seeds": list(seeds),
            "dataset_provenance": split.train.provenance,
            "checkpoint_digests": checkpoints,
        },
    )
    _write_json(out_dir / "summary.json", summary)


# ---------------------------------------------------------------------------
# job plans


class _Job(NamedTuple):
    """One net to train under ``config``; ``role`` picks its architecture."""

    config: DistillConfig
    seed: int
    role: str  # "teacher" or "student"
    checkpoint: Path
    metrics: Path


def _train_job(job: _Job, split: DataSplit, teacher: BlockNet | None):
    """Train a job's net, write its checkpoint and metrics.csv; return its
    final metrics and checkpoint digest."""
    net = build_net(job.config, job.role, split, job.seed)
    result = train(net, split, job.config, job.seed, teacher=teacher)
    save_checkpoint(net, job.checkpoint)
    write_metrics_csv(job.metrics, result)
    final = {key: float(getattr(result.final, key)) for key in FINAL_METRICS}
    return final, checkpoint_digest(job.checkpoint)


def _run_plan(plan, split: DataSplit, teacher: BlockNet | None = None) -> list:
    """Run a plan of ``(jobs, finish)`` run directories in order.  Each
    ``finish`` gets its jobs' results, in job order, as soon as the last of
    them is done; returns what each ``finish`` returned."""
    return [finish([_train_job(job, split, teacher) for job in jobs]) for jobs, finish in plan]


def _distill_run(config: DistillConfig, out_dir: Path, seeds, split: DataSplit):
    """One distill run directory as a plan entry: a student job per seed."""
    jobs = [_Job(config, seed, "student", out_dir / f"seed{seed}" / "student.ckpt",
                 out_dir / f"seed{seed}" / "metrics.csv") for seed in seeds]

    def finish(results) -> ExperimentResult:
        finals, digests = zip(*results)
        per_seed = dict(zip(seeds, finals))
        median = aggregate_median(per_seed)
        checkpoints = {f"student_seed{s}": digest for s, digest in zip(seeds, digests)}
        summary = {"command": "distill", "loss": config.loss, "seeds": list(seeds),
                   "per_seed": {str(s): m for s, m in per_seed.items()}, "median": median}
        _write_run(out_dir, config, seeds, split, checkpoints, summary)
        return ExperimentResult(seeds=seeds, per_seed=per_seed, median=median)

    return jobs, finish


# ---------------------------------------------------------------------------
# runners


def run_train_teacher(config: DistillConfig, out_dir, seed: int | None = None) -> Path:
    """Train the teacher architecture on the task loss alone; returns the checkpoint path."""
    out_dir = Path(out_dir)
    seed = config.seeds[0] if seed is None else int(seed)
    _check_seeds((seed,), "--seed")
    split = build_split(config)
    ckpt = out_dir / "teacher.ckpt"
    teacher_cfg = replace(config, loss="vanilla", lambda_kd=0.0, graph=None)
    job = _Job(teacher_cfg, seed, "teacher", ckpt, out_dir / "teacher_metrics.csv")

    def finish(results) -> Path:
        [(final, digest)] = results
        # the checkpoint is named relative to the run directory
        summary = {"command": "train-teacher", "seed": seed, "final": final,
                   "checkpoint": ckpt.name}
        _write_run(out_dir, config, [seed], split, {"teacher": digest}, summary)
        return ckpt

    return _run_plan([([job], finish)], split)[0]


def run_distill(config: DistillConfig, out_dir, teacher_path=None, seeds=None) -> ExperimentResult:
    """Train one student per seed under the configured loss; aggregate medians."""
    seeds = tuple(int(s) for s in (seeds if seeds is not None else config.seeds))
    _check_seeds(seeds, "--seeds")  # an override keeps the manifest's config as it is
    split = build_split(config)
    # training checks the teacher against the loss and the student before its first step
    teacher = None if teacher_path is None else _require_checkpoint(teacher_path, "teacher")
    return _run_plan([_distill_run(config, Path(out_dir), seeds, split)], split, teacher)[0]


def _sweep_value(param: str, raw: str):
    """A swept value typed like its config key: k and p integers, lambda_kd a number."""
    if param == "mask_mode":
        return raw
    kind, convert = ("integers", int) if param in ("k", "p") else ("numbers", float)
    try:
        return convert(raw)
    except ValueError:
        raise ConfigError(f"sweep: {param} values must be {kind}, got {raw!r}") from None


def _apply_sweep(config: DistillConfig, param: str, value) -> DistillConfig:
    if param == "lambda_kd":
        return replace(config, lambda_kd=float(value))
    return replace(config, graph=replace(_graph_at(config, config.batch_size), **{param: value}))


def run_sweep(config: DistillConfig, out_dir, param: str, values, teacher_path=None) -> Path:
    """Run one distillation per parameter value; emit one sweep.csv row per value.

    The split and the teacher are built once, for every value's run."""
    if param not in SWEEPABLE_PARAMS:
        raise ConfigError(f"cannot sweep {param!r}; choose from {SWEEPABLE_PARAMS}")
    if not values:
        raise ConfigError("sweep requires at least one value")
    # build (and so validate) every sub-config before the first run starts
    swept = [_sweep_value(param, str(raw)) for raw in values]
    if len(set(swept)) != len(swept):
        raise ConfigError(f"sweep: {param} values must be distinct, got {swept}")
    sub_configs = [_apply_sweep(config, param, value) for value in swept]
    out_dir = Path(out_dir)
    # a swept parameter changes neither the dataset nor the loss
    split = build_split(config)
    teacher = None if teacher_path is None else _require_checkpoint(teacher_path, "teacher")
    plan = [
        _distill_run(sub, out_dir / f"{param}_{value}", sub.seeds, split)
        for value, sub in zip(swept, sub_configs)
    ]
    rows = [(param, value, ";".join(map(str, r.seeds)),
             ";".join(_cell(r.per_seed[s]["test_error"]) for s in r.seeds), r.median["test_error"])
            for value, r in zip(swept, _run_plan(plan, split, teacher))]
    sweep_path = out_dir / "sweep.csv"
    _write_table(sweep_path, ("param", "value", "seeds", "per_seed_test_errors",
                              "median_test_error"), rows)
    return sweep_path


def _require_checkpoint(path, role: str) -> BlockNet:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{role} checkpoint not found: {path}")
    return load_checkpoint(path)


def run_analyze(
    config: DistillConfig,
    out_dir,
    teacher_path,
    student_path,
    n_batches: int = 20,
    batch_size: int = 256,
    seed: int = 0,
) -> Path:
    """Loss-concentration and probe-consistency report for one student."""
    out_dir = Path(out_dir)
    _check_seeds((seed,), "--seed")
    split = build_split(config)
    teacher = _require_checkpoint(teacher_path, "teacher")
    student = _require_checkpoint(student_path, "student")

    graph = _graph_at(config, batch_size)
    report = concentration_report(teacher, student, split.train, graph,
                                  n_batches=n_batches, batch_size=batch_size, seed=seed)
    # both reports are computed before either table is written, so a run
    # that fails in the probe fit leaves no lone concentration.csv
    curve = consistency_curve(teacher, student, split.train, split.test)
    rows = [(loss, tap, pct) for loss, table in report.items() for tap, pct in table.items()]
    _write_table(out_dir / "concentration.csv", ("loss", "tap", "median_concentration_pct"), rows)
    _write_table(out_dir / "consistency.csv", ("tap", "consistency"), curve.items())

    _write_json(
        out_dir / "analysis_summary.json",
        {
            "command": "analyze",
            "config_digest": config_digest(config),
            "checkpoint_digests": {
                "teacher": checkpoint_digest(teacher_path),
                "student": checkpoint_digest(student_path),
            },
            "consistency": curve,
            # the batches and the graph that the gkd concentration read
            "concentration": {"n_batches": n_batches, "batch_size": batch_size, **asdict(graph)},
        },
    )
    return out_dir


def run_spectral(
    config: DistillConfig,
    out_dir,
    teacher_path,
    student_paths: list[tuple[str, str]],
    sample_size: int = 1000,
    k: int | None = None,
    seed: int = 0,
) -> Path:
    """Smoothness curves for one or more students against a common teacher;
    ``student_paths`` holds (name, checkpoint path) pairs with distinct names."""
    out_dir = Path(out_dir)
    _check_seeds((seed,), "--seed")
    names = [name for name, _ in student_paths]
    if len(set(names)) != len(names):
        raise ConfigError(f"spectral: student names must be distinct, got {names}")
    sample = _fixed_sample(config, sample_size, seed)
    teacher = _require_checkpoint(teacher_path, "teacher")
    students = {
        name: _require_checkpoint(path, f"student {name!r}") for name, path in student_paths
    }
    # the dense graph unless --k is given; the config's graph is not used
    curves = spectral_report(teacher, students, sample, k=len(sample) - 1 if k is None else k)
    rows = [(student_name, signal, tap, value) for student_name, signals in curves.items()
            for signal, curve in signals.items() for tap, value in curve.items()]
    _write_table(out_dir / "smoothness.csv", ("student", "signal", "tap", "smoothness"), rows)
    _write_json(
        out_dir / "spectral_summary.json",
        {"command": "spectral", "config_digest": config_digest(config), "curves": curves,
         "sample_size": len(sample)},
    )
    return out_dir


def run_dump_graph(
    config: DistillConfig,
    out_dir,
    checkpoint_path,
    block: str = "block1",
    sample_size: int = 128,
    k: int | None = None,
    p: int | None = None,
    mask_mode: str | None = None,
    seed: int = 0,
) -> Path:
    """Build one tap's similarity graph on a fixed sample; write its upper-triangle
    edges (i,j,weight, row-major, every nonzero weight) to graph_edges.csv and
    its parameters to graph_params.json.  A tap whose squared row norms are
    not finite is rejected before anything is written.  An explicit
    ``k``, ``p`` or ``mask_mode`` overrides ``_graph_at``'s graph as given:
    such a ``k`` is not capped, so one outside [1, n - 1] is rejected."""
    out_dir = Path(out_dir)
    _check_seeds((seed,), "--seed")
    sample = _fixed_sample(config, sample_size, seed)
    net = _require_checkpoint(checkpoint_path, "network")

    base = _graph_at(config, len(sample))
    params = GraphParams(
        k=base.k if k is None else int(k),
        p=base.p if p is None else int(p),
        mask_mode=base.mask_mode if mask_mode is None else str(mask_mode),
    )
    tap_names = net.tap_names()
    if block not in tap_names:
        raise ConfigError(f"unknown tap {block!r}; available: {tap_names}")
    tap = forward_with_taps(net, sample.features)[tap_names.index(block)]
    check_tap_norms(f"network {checkpoint_path}", [block], [tap])
    graph = build_similarity_graph(
        tap.data, k=params.k, p=params.p, mask_mode=params.mask_mode, labels=sample.labels
    )
    w = graph.weights
    rows, cols = np.nonzero(np.triu(w, 1))  # -0.0 counts as zero
    _write_table(out_dir / "graph_edges.csv", ("i", "j", "weight"),
                 zip(rows.tolist(), cols.tolist(), w[rows, cols].tolist()))
    _write_json(out_dir / "graph_params.json", {"n": len(sample), **asdict(params)})
    return out_dir

"""The graphkd benchmark: run one workload through ``graphkd.cli.main`` and print
its metrics.

    python3 perfbench/run.py --workload distill-dense --seed 0 --seconds 30 --trace 0

The run sets up in a fresh interpreter, then repeats the workload's op cycle in
this process: whole cycles, at least two, until ``--seconds`` have passed.  More
set-ups, each in a fresh interpreter too, run between the ops.  Each op's
outputs are checked, and every repeat of an op must reproduce the bytes of its
first run.  With ``--trace 1`` each op runs twice in a row, untraced and then
traced, and the run reports the per-layer split instead of the end-to-end
metrics.
The last line of standard output is the result as one JSON object; a record of
the run (environment, digests, per-op times) goes to ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
import warnings
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracing import ARMS, COUNTS, SPAN_NAMES, Tracer
from workloads import WORKLOADS, Op, OpResult, check_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_TIMEOUT_S = 150
MIN_CYCLES = 2  # so that every op repeats and is checked for byte-identical outputs

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
OP_LEVEL = {
    **{f"step_ms.{arm}": ("ms", "lower") for arm in ARMS},
    "analyze_s": ("s", "lower"),
    "spectral_s": ("s", "lower"),
    **{f"test_error.{arm}": ("fraction", "lower") for arm in ARMS},
}
PER_LAYER = {
    **OP_LEVEL,
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    **{f"{name}.{field}": (unit, "lower")
       for name in SPAN_NAMES for field, unit in (("calls", "count"), ("ms", "ms"))},
    **{name: ("count", "lower") for name in COUNTS},
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class OpRun:
    index: int  # position of the op in the run, traced repeats included
    pos: int  # position in the cycle
    cycle: int
    op: Op
    seconds: float
    result: OpResult
    warnings: int
    traced: bool


# ---------------------------------------------------------------------------
# environment


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _library(info: dict | None) -> dict | None:
    """Name, version and build line of a library from numpy's build config."""
    if info is None:
        return None
    return {key: info[key] for key in ("name", "version", "openblas configuration")
            if key in info}


def environment() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _library(deps.get("blas")),
        "lapack": _library(deps.get("lapack")),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def check_declared_metrics() -> None:
    """BENCHMARK.json, when present, must name exactly the workloads and metrics
    this benchmark runs and prints."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return
    spec = json.loads(path.read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        raise BenchError("BENCHMARK.json workloads do not match perfbench/workloads.py")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        if declared != table:
            raise BenchError(f"BENCHMARK.json {key} does not match the metrics run.py prints")


# ---------------------------------------------------------------------------
# set-up and ops


def set_up(workload, seed: int, work: Path) -> float:
    """Run prepare.py in a fresh interpreter; return its wall time."""
    cmd = [sys.executable, str(HERE / "prepare.py"), "--workload", workload.name,
           "--seed", str(seed), "--dir", str(work)]
    start = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    seconds = perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return seconds


def call_cli(argv: list[str]) -> tuple[float, int | None, str, int]:
    """Run one CLI op in this process: (seconds, exit code, error text, warnings)."""
    cli = sys.modules["graphkd.cli"]  # looked up per call, so tracing wrappers apply
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback from graphkd is a failed op, not a failed benchmark
            rc = None
            error = traceback.format_exc(limit=4)
        seconds = perf_counter() - start
    if rc != 0 and not error:
        error = err.getvalue().strip()[-500:]
    return seconds, rc, error, len(caught)


def run_once(op: Op, index: int, cycle: int, pos: int, work: Path, cycle_dir: Path,
             tracer: Tracer | None) -> OpRun:
    gc.collect()  # start each op from a clean heap, as a CLI call in a new process does
    if tracer is not None:
        tracer.begin_op(index, op.kind)
        tracer.install()
    try:
        seconds, rc, error, n_warn = call_cli(op.resolve(work, cycle_dir))
    finally:
        if tracer is not None:
            tracer.uninstall()
    if rc == 0:
        result = check_op(op, op.outdir(cycle_dir))
    else:
        result = OpResult(problems=[f"exit {rc}: {error}"])
    return OpRun(index, pos, cycle, op, seconds, result, n_warn, tracer is not None)


def run_timed(workload, seed: int, work_root: Path, budget_s: float,
              tracer: Tracer | None = None) -> tuple[list[OpRun], list[float], float]:
    """Set up, then repeat the op cycle: whole cycles, at least ``MIN_CYCLES``,
    until ``budget_s`` has passed.

    Another set-up runs after every ``workload.setup_every`` ops, so that the
    set-up times are sampled over the same minutes as the ops.  Returns the op
    runs, the set-up times and the peak RSS after the first cycle, which later
    repeats of the same ops could only raise by heap fragmentation.  With a
    tracer, each op runs twice in a row, untraced and then traced, so the two
    halves see the same machine and their difference is the tracing overhead.
    """
    ops = workload.cycle(seed)
    work = work_root / "setup0"
    setup_s = [set_up(workload, seed, work)]
    runs: list[OpRun] = []
    start = perf_counter()
    cycle = 0
    while cycle < MIN_CYCLES or perf_counter() - start < budget_s:
        for pos, op in enumerate(ops):
            runs.append(run_once(op, len(runs), cycle, pos, work,
                                 work_root / "ops" / f"c{cycle}", None))
            if tracer is not None:
                runs.append(run_once(op, len(runs), cycle, pos, work,
                                     work_root / "ops" / f"c{cycle}-traced", tracer))
            if (cycle * len(ops) + pos + 1) % workload.setup_every == 0:
                extra = work_root / f"setup{len(setup_s)}"
                setup_s.append(set_up(workload, seed, extra))
                shutil.rmtree(extra)
        if cycle == 0:
            rss_mb = peak_rss_mb()
        cycle += 1
    return runs, setup_s, rss_mb


def verify(runs: list[OpRun], tracer: Tracer | None) -> None:
    """Cross-op checks: traced step counts and byte-identical repeats."""
    for run in runs:  # step_ms divides by the config's steps, so they must be the steps taken
        steps = tracer.calls.get((run.index, "training.sgd_momentum_step"), 0) if tracer else 0
        if steps and steps != run.op.steps:
            run.result.problems.append(f"ran {steps} SGD steps, the config gives {run.op.steps}")
    first: dict[int, OpRun] = {}
    for run in runs:
        ref = first.setdefault(run.pos, run)
        if run is not ref and run.result.ok and run.result.digests != ref.result.digests:
            run.result.problems.append("outputs differ from the op's first run")


# ---------------------------------------------------------------------------
# metrics


def _median(values):
    return statistics.median(values) if values else math.nan


def op_metrics(ops: list[Op], runs: list[OpRun]) -> dict[str, float]:
    """wall_s and the op-level metrics of a set of op runs, from each op's median time."""
    times = defaultdict(list)
    for run in runs:
        times[run.pos].append(run.seconds)
    med = {pos: _median(v) for pos, v in times.items()}
    metrics = {"wall_s": sum(med.values())}
    for arm in ARMS:
        kind = "train-teacher" if arm == "teacher" else f"distill.{arm}"
        positions = [p for p, op in enumerate(ops) if op.kind == kind]
        steps = sum(ops[p].steps for p in positions)
        metrics[f"step_ms.{arm}"] = 1000.0 * sum(med[p] for p in positions) / steps if steps else 0.0
        errors = [r.result.info["test_error"] for r in runs
                  if r.cycle == 0 and r.op.kind == kind and "test_error" in r.result.info]
        metrics[f"test_error.{arm}"] = _median(errors) if errors else 0.0
    for kind in ("analyze", "spectral"):
        metrics[f"{kind}_s"] = sum((med[p] for p, op in enumerate(ops) if op.kind == kind), 0.0)
    return metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="graphkd benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args) -> tuple[dict, Tracer | None]:
    """Set up, run the timed ops and check them; return the run's record."""
    workload = WORKLOADS[args.workload]
    ops = workload.cycle(args.seed)
    OUT.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=OUT))
    try:
        sys.path.insert(0, str(SRC))
        import graphkd.cli  # noqa: F401  (call_cli finds it in sys.modules)
        if not Path(graphkd.cli.__file__).resolve().is_relative_to(SRC):
            raise BenchError(f"graphkd imported from {graphkd.cli.__file__}, not {SRC}")

        tracer = Tracer() if args.trace else None
        runs, setup_s, rss_mb = run_timed(workload, args.seed, work_root, args.seconds, tracer)
        verify(runs, tracer)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    metrics = op_metrics(ops, [r for r in runs if not r.traced])
    metrics["setup_s"] = _median(setup_s)
    metrics["peak_rss_mb"] = rss_mb
    failed = sum(not r.result.ok for r in runs)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "setup_s_each": setup_s,
        "attempted": len(runs),
        "failed": failed,
        "failed_frac": failed / len(runs),
        "metrics": metrics,
        "ops": [
            {"label": r.op.label, "kind": r.op.kind, "cycle": r.cycle,
             "traced": r.traced, "seconds": r.seconds, "steps": r.op.steps,
             "ok": r.result.ok, "problems": r.result.problems, "warnings": r.warnings,
             "info": r.result.info, "digests": r.result.digests}
            for r in runs
        ],
    }
    if workload.direction is not None:
        record["criterion1_direction"] = workload.direction(
            {r.op.label: r.result for r in runs if r.cycle == 0 and not r.traced})
    if tracer is not None:
        traced = [r for r in runs if r.traced]
        metrics["trace.wall_s"] = op_metrics(ops, traced)["wall_s"]
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["wall_s"]
        metrics.update(tracer.per_cycle({r.index: r.pos for r in traced}))
        first = {}
        for r in traced:
            first.setdefault(r.op.label, r.index)
        record["layers_by_op"] = {label: tracer.per_op(i) for label, i in first.items()}
        record["symmetric_eig_calls"] = [[n, 1000.0 * (end - start)]
                                         for _, start, end, _, _, n in tracer.spans
                                         if n is not None]
    return record, tracer


def report(record: dict) -> None:
    """Human-readable summary on standard output, ahead of the result line."""
    env = record["environment"]
    blas = env["blas"] or {}
    print(f"graphkd benchmark: workload {record['workload']}, seed {record['seed']}, "
          f"{record['seconds']:g} s, trace {record['trace']}")
    print(f"env: python {env['python']}, numpy {env['numpy']}, blas {blas.get('name')} "
          f"{blas.get('version')}, nproc {env['nproc']}, blas threads {env['blas_threads']}, "
          f"cpu {env['cpu']!r}")
    print(f"ops: {record['attempted']} attempted, {record['failed']} failed, "
          f"failed_frac {record['failed_frac']:g}")
    for op in record["ops"]:
        if not op["ok"]:
            print(f"  FAILED {op['label']} (cycle {op['cycle']}): {'; '.join(op['problems'])}")
    if "criterion1_direction" in record:
        d = record["criterion1_direction"]
        verdict = "holds" if d["holds"] else "does not hold"
        print(f"criterion-1 direction (reported, not gated): {verdict}; teacher "
              f"{d['teacher']:.4f}, gkd median {d['gkd_median']:.4f}, "
              f"vanilla median {d['vanilla_median']:.4f}")
    metrics = record["metrics"]
    units = {**END_TO_END, **PER_LAYER}
    for name in list(END_TO_END) + list(OP_LEVEL) + ["trace.wall_s", "trace.overhead_s"]:
        if name in metrics:
            print(f"  {name:<20} {metrics[name]:>12.6g} {units[name][0]}")
    seen = set()
    for op in record["ops"]:
        if op["cycle"] == 0 and op["label"] not in seen:
            seen.add(op["label"])
            for name, digest in op["digests"].items():
                print(f"  sha256 {op['label']}/{name} {digest}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if not (SRC / "graphkd" / "__init__.py").is_file():
            raise BenchError(f"no graphkd sources under {SRC}")
        check_declared_metrics()
        record, tracer = run(args)
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(results / f"{stem}.spans.json.gz")

    report(record)
    table = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"].get(name, 0.0), "unit": unit}
                    for name, (unit, _) in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

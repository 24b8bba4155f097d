"""Outside-in layer tracing of graphkd, installed from the benchmark's own files.

Each traced public function is replaced, under every name a graphkd module looks
it up by, with a wrapper that records a span (name, start, end, parent span, op
index).  Spans stay in memory until :meth:`Tracer.write`.  Self time is a span's
duration minus the time of its child spans.  A symbol that a later version of
graphkd no longer has is skipped, and its span reports zero calls.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ARMS = ("teacher", "vanilla", "gkd", "rkdd")
EIG = "graphs.symmetric_eig"

# (module, attribute, span name); a None span name is resolved per call below
TARGETS = (
    ("cli", "main", "cli.main"),
    ("config", "load_config", "config.load_config"),
    ("datasets", "gen_two_arcs", "datasets.gen"),
    ("datasets", "gen_gaussian_mixture", "datasets.gen"),
    ("datasets", "split_dataset", "datasets.split_dataset"),
    ("datasets", "minibatch_indices", "datasets.minibatch_indices"),
    ("models", "forward_with_taps", None),
    ("models", "save_checkpoint", "models.save_checkpoint"),
    ("models", "load_checkpoint", "models.load_checkpoint"),
    ("graphs", "build_similarity_graph", None),
    ("graphs", "cosine_similarity_matrix", "graphs.cosine_similarity_matrix"),
    ("graphs", "class_mask", "graphs.class_mask"),
    ("graphs", "knn_sparsify", "graphs.knn_sparsify"),
    ("graphs", "degree_normalize", "graphs.degree_normalize"),
    ("graphs", "adjacency_power", "graphs.adjacency_power"),
    ("graphs", "laplacian", "graphs.laplacian"),
    ("graphs", "fiedler_vector", "graphs.fiedler_vector"),
    ("graphs", "smoothness", "graphs.smoothness"),
    ("graphs", "symmetric_eig", None),
    ("losses", "task_loss", "losses.task_loss"),
    ("losses", "gkd_loss", "losses.gkd_loss"),
    ("losses", "rkdd_loss", "losses.rkdd_loss"),
    ("losses", "per_example_gkd", "losses.per_example_gkd"),
    ("losses", "per_example_rkdd", "losses.per_example_rkdd"),
    ("autodiff", "backward", None),
    ("training", "train", None),
    ("training", "sgd_momentum_step", "training.sgd_momentum_step"),
    ("training", "evaluate_error", None),
    ("analysis", "concentration_report", "analysis.concentration_report"),
    ("analysis", "consistency_curve", "analysis.consistency_curve"),
    ("analysis", "LogisticProbe.fit", "analysis.LogisticProbe.fit"),
    ("analysis", "spectral_report", "analysis.spectral_report"),
    ("harness", "write_metrics_csv", "harness.write_metrics_csv"),
    ("harness", "run_train_teacher", "harness.run_train_teacher"),
    ("harness", "run_distill", "harness.run_distill"),
    ("harness", "run_analyze", "harness.run_analyze"),
    ("harness", "run_spectral", "harness.run_spectral"),
)

# every span name the per-layer report carries, in report order
SPAN_NAMES = tuple(dict.fromkeys(
    [name for _, _, name in TARGETS if name is not None]
    + [f"models.forward_with_taps.{side}" for side in ("student", "teacher", "eval", "analysis")]
    + [f"graphs.build_similarity_graph.{side}" for side in ("student", "teacher", "analysis")]
    + [EIG, "autodiff.backward", "training.train", "training.evaluate_error"]
))

COUNTS = tuple(f"autodiff.tape_nodes_per_step.{arm}" for arm in ARMS) + ("training.steps",)


def tape_nodes(loss) -> int:
    """Tensors reachable from ``loss`` through the tape's parent links."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in getattr(stack.pop(), "_parents", ()):
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _getter(fn, name: str):
    """Return a function that picks argument ``name`` of ``fn`` out of a call."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        params = []
    index = params.index(name) if name in params else None

    def get(args, kwargs):
        if index is not None and index < len(args):
            return args[index]
        return kwargs.get(name)
    return get


class Tracer:
    """Span recorder for one process.  Ops are numbered by the caller through
    :meth:`begin_op`; every span carries the op it ran in."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op, n]
        self._open: list[int] = []
        self._child_s: list[float] = []
        self.self_s: dict[tuple[int, str], float] = defaultdict(float)
        self.calls: dict[tuple[int, str], int] = defaultdict(int)
        self.tape: dict[tuple[int, str], list[int]] = defaultdict(list)
        self.op = -1
        self.arm = None
        self._train_nets: list[tuple] = []  # (student, teacher) of each open train()
        self._in_eval = 0
        self._installed: list[tuple] = []

    # -- recording --------------------------------------------------------
    def begin_op(self, index: int, kind: str) -> None:
        self.op = index
        arm = kind.split(".")[-1] if kind.startswith("distill.") else None
        self.arm = "teacher" if kind == "train-teacher" else arm

    def span(self, name: str, fn, args, kwargs, n=None):
        start = perf_counter()
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, start, 0.0, parent, self.op, n])
        self._open.append(index)
        self._child_s.append(0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            child = self._child_s.pop()
            self.spans[index][2] = end
            key = (self.op, name)
            self.self_s[key] += (end - start) - child
            self.calls[key] += 1
            if self._child_s:
                self._child_s[-1] += end - start

    # -- span names that depend on the call -------------------------------
    def _side(self, net=None, reps=None) -> str:
        if self._in_eval:
            return "eval"
        if not self._train_nets:
            return "analysis"
        student, teacher = self._train_nets[-1]
        if net is not None:
            if net is student:
                return "student"
            return "teacher" if net is teacher else "analysis"
        # a graph is the student's when its input is on the gradient tape
        return "student" if getattr(reps, "requires_grad", False) else "teacher"

    def _wrapper(self, attr: str, name: str | None, fn):
        if attr == "forward_with_taps":
            net = _getter(fn, "net")

            def call(*args, **kwargs):
                side = self._side(net=net(args, kwargs))
                return self.span(f"models.forward_with_taps.{side}", fn, args, kwargs)
        elif attr == "build_similarity_graph":
            reps = _getter(fn, "reps")

            def call(*args, **kwargs):
                side = self._side(reps=reps(args, kwargs))
                return self.span(f"graphs.build_similarity_graph.{side}", fn, args, kwargs)
        elif attr == "symmetric_eig":
            matrix = _getter(fn, "matrix")

            def call(*args, **kwargs):
                n = int(getattr(matrix(args, kwargs), "shape", (0,))[0])
                return self.span(EIG, fn, args, kwargs, n=n)
        elif attr == "backward":
            loss = _getter(fn, "loss")

            def call(*args, **kwargs):
                start = perf_counter()
                self.tape[(self.op, self.arm)].append(tape_nodes(loss(args, kwargs)))
                if self._child_s:  # the walk is tracer work: keep it out of the caller's self time
                    self._child_s[-1] += perf_counter() - start
                return self.span("autodiff.backward", fn, args, kwargs)
        elif attr == "train":
            student, teacher = _getter(fn, "net"), _getter(fn, "teacher")

            def call(*args, **kwargs):
                self._train_nets.append((student(args, kwargs), teacher(args, kwargs)))
                try:
                    return self.span("training.train", fn, args, kwargs)
                finally:
                    self._train_nets.pop()
        elif attr == "evaluate_error":
            def call(*args, **kwargs):
                self._in_eval += 1
                try:
                    return self.span("training.evaluate_error", fn, args, kwargs)
                finally:
                    self._in_eval -= 1
        else:
            def call(*args, **kwargs):
                return self.span(name, fn, args, kwargs)
        return functools.wraps(fn)(call)

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        """Wrap every target under each name a graphkd module binds it to."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "graphkd" or key.startswith("graphkd."))]
        for module_name, attr, name in TARGETS:
            try:
                home = importlib.import_module(f"graphkd.{module_name}")
            except ImportError:
                continue
            if "." in attr:  # a method: wrap it on its class
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name, None)
                fn = getattr(cls, method, None) if cls is not None else None
                if fn is not None:
                    self._patch(cls, method, self._wrapper(method, name, fn))
                continue
            fn = getattr(home, attr, None)
            if fn is None:
                continue
            wrapper = self._wrapper(attr, name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._installed.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    # -- reporting --------------------------------------------------------
    def per_cycle(self, op_positions: dict[int, int]) -> dict[str, float]:
        """Per-layer metrics for one cycle of the workload.

        ``op_positions`` maps each traced op's index to its position in the cycle;
        an op position that ran more than once contributes its mean.
        """
        runs = defaultdict(int)
        for pos in op_positions.values():
            runs[pos] += 1

        def cycle_sum(table, name):
            total = 0.0
            for (op, key), value in table.items():
                if key == name and op in op_positions:
                    total += value / runs[op_positions[op]]
            return total

        metrics = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls"] = cycle_sum(self.calls, name)
            metrics[f"{name}.ms"] = 1000.0 * cycle_sum(self.self_s, name)
        for arm in ARMS:
            counts = [c for (op, a), values in self.tape.items() if a == arm
                      and op in op_positions for c in values]
            metrics[f"autodiff.tape_nodes_per_step.{arm}"] = (
                sum(counts) / len(counts) if counts else 0.0)
        metrics["training.steps"] = metrics["training.sgd_momentum_step.calls"]
        return metrics

    def per_op(self, index: int) -> dict[str, dict[str, float]]:
        """Per-layer split of one op: {span: {"calls": count, "ms": self time}}."""
        return {name: {"calls": calls, "ms": 1000.0 * self.self_s[(op, name)]}
                for (op, name), calls in self.calls.items() if op == index}

    def write(self, path: Path) -> None:
        """Write every span as gzip'd JSON: [name, start_s, end_s, parent, op, n]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op", "n"],
                       "spans": self.spans}, fh, separators=(",", ":"))

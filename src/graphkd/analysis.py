"""Post-hoc analyses: loss concentration, probe consistency, graph smoothness.

These read networks and never update them: each forwards a net through
``models.forward_with_taps`` and reads its taps as arrays.  Every report
needs a teacher and students with the same taps.  Every report is a
``{tap: value}`` table keyed by ``tap_names()``, in that order, or a dict of
such tables: the tables that ``harness`` writes.
``spectral_report`` uses every point it is given; ``harness`` draws the
fixed sample, and it and ``dump-graph`` reject, with ``check_tap_norms``, a
net whose forward overflows.

``concentration_report`` runs on two threads.  For each batch it queues each
tap pair's ``per_example_rkdd`` on one worker thread, started once for the
whole report, and computes ``per_example_gkd_taps`` itself; then it runs
itself, last tap first, every RKD-D task the worker has not started.  Both
halves are bit-pinned numpy passes that release the interpreter lock.  For
the report numpy's bundled OpenBLAS is pinned to one thread, so that its own
threads do not compete with the worker, and the old count is restored
afterwards, also on an error.  Where no thread-count setter is found or
fewer than two CPUs are usable, the same tasks run inline; the tables, and
the first error a batch raises, are the same on either path (``blas``).

The probes of a consistency curve, one per net and block, fit in lockstep on
the same labels.  Probes whose features share a shape form one group, with
(G, n, d) feature, (G, d, C) weight and (G, C, 1) bias stacks, so each step
runs one batched matmul per group each way; numpy's batched matmul gives
each slice the bits of its 2-d matmul, while padding the features to one
width would move them, so groups are by exact shape.  The softmax and the
residual run once on a (P, C, n) stack: reducing over C along rows is several
times faster in numpy than over a short last axis of an (n, C) array, and for
C < 8 it sums in the same order, so the weights keep their one-probe bits.
Divergence is checked on that probability stack: a non-finite logit makes
its whole column NaN, so the stack is finite exactly when every probe's loss
is, and the loss itself is computed only to report a diverged probe.
"""

from __future__ import annotations

import warnings
from functools import partial

import numpy as np

from .blas import worker_at_one_blas_thread
from .config import GraphParams
from .datasets import Dataset
from .graphs import build_similarity_graph, fiedler_vector, laplacian, smoothness
from .losses import per_example_gkd_taps, per_example_rkdd
from .models import BlockNet, forward_with_taps

_CONNECTIVITY_EPS = 1e-10  # lambda_2 below this marks a disconnected graph
_PROBE_ITERATIONS = 500  # full-batch gradient steps per probe
_PROBE_STEP = 0.1  # their step size
_CONCENTRATION_FRACTION = 0.9  # share of a batch's loss that loss_concentration counts


def loss_concentration(per_example) -> float | None:
    """Smallest percentage of examples carrying 90% of the total loss.

    Contributions are sorted descending and the shortest prefix reaching
    _CONCENTRATION_FRACTION * total is counted, as a percentage of the batch.
    An all-zero vector has no concentration to speak of and yields None.
    """
    v = np.asarray(per_example, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"loss_concentration: expected a non-empty vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("loss_concentration: contributions must be finite")
    if np.any(v < 0):
        raise ValueError("loss_concentration: contributions must be nonnegative")
    total = float(v.sum())
    if total == 0.0:
        return None
    ordered = np.sort(v)[::-1]
    cumulative = np.cumsum(ordered)
    # tiny slack so e.g. cumsum 9.0 meets a target of 0.9*10 despite rounding
    target = _CONCENTRATION_FRACTION * total - 1e-12 * total
    count = int(np.searchsorted(cumulative, target) + 1)
    return 100.0 * count / v.size


def _check_same_taps(teacher: BlockNet, student: BlockNet) -> None:
    """Reject a net pair whose taps a report could not pair one to one."""
    t_names, s_names = teacher.tap_names(), student.tap_names()
    if t_names != s_names:
        raise ValueError(f"teacher taps {t_names} and student taps {s_names} differ")


def check_tap_norms(who: str, names, taps) -> None:
    """Reject a net whose tap has a squared row norm that is not finite, as a
    net whose forward overflows gives: the graph pipeline would zero such a
    row or carry NaN through its graph.  The error names ``who`` and the tap."""
    for name, tap in zip(names, taps):
        with np.errstate(over="ignore"):
            finite = np.isfinite(np.sum(tap.data * tap.data, axis=1)).all()
        if not finite:
            raise ValueError(f"{who}: tap {name} overflows (its squared row norms "
                             f"are not finite)")


def concentration_report(
    teacher: BlockNet,
    student: BlockNet,
    data: Dataset,
    graph: GraphParams,
    n_batches: int,
    batch_size: int,
    seed: int,
) -> dict[str, dict[str, float | None]]:
    """Median loss concentration per tap over random batches, as ``{"gkd":
    {tap: median}, "rkdd": {tap: median}}``: the share of a batch that
    carries 90% of its loss.  A tap whose loss was all zero in every batch
    gets None.  Both losses read the same batches and forwards.

    For "gkd" the per-example contributions are row sums of the squared
    adjacency mismatch between the two nets' ``graph`` graphs, from one
    ``per_example_gkd_taps`` call per batch: it routes the taps as training's
    ``gkd_tap_loss`` does, so under the dense graph the block taps' rows come
    from the factored O(n d^2) form and only the rest build graphs.  For
    "rkdd" each pair's Huber value is split half to each endpoint; those rows
    are computed on the worker thread of the module docstring.
    """
    if n_batches < 1 or batch_size < 2:
        raise ValueError(f"concentration_report: need n_batches >= 1 and batch_size >= 2, "
                         f"got {n_batches} and {batch_size}")
    if len(data) < batch_size:
        raise ValueError(
            f"concentration_report: dataset of {len(data)} examples is smaller than "
            f"batch_size {batch_size}"
        )
    _check_same_taps(teacher, student)
    rng = np.random.default_rng(seed)
    names = student.tap_names()
    collected = {loss: {name: [] for name in names} for loss in ("gkd", "rkdd")}
    with worker_at_one_blas_thread() as beside:
        for _ in range(n_batches):
            idx = rng.choice(len(data), size=batch_size, replace=False)
            xb, yb = data.features[idx], data.labels[idx]
            s_taps = forward_with_taps(student, xb)
            t_taps = forward_with_taps(teacher, xb)
            gkd_rows, rkdd_rows = beside(
                partial(per_example_gkd_taps, s_taps, t_taps, graph, yb),
                [partial(per_example_rkdd, s, t) for s, t in zip(s_taps, t_taps)])
            for name, gkd, rkdd in zip(names, gkd_rows, rkdd_rows):
                for loss, per_ex in (("gkd", gkd), ("rkdd", rkdd)):
                    pct = loss_concentration(per_ex)
                    if pct is not None:
                        collected[loss][name].append(pct)
    return {loss: {name: float(np.median(vals)) if vals else None
                   for name, vals in table.items()} for loss, table in collected.items()}


# ---------------------------------------------------------------------------
# probe consistency


def _fit_lockstep(probes: list, features: list, labels, num_classes: int) -> None:
    """Fit ``probes[i]`` on ``features[i]``, all on ``labels``, one iteration at a time."""
    y = np.asarray(labels, dtype=np.int64)
    n, rows = len(y), np.arange(len(y))
    by_shape: dict[tuple, list[int]] = {}
    for i, f in enumerate(features):
        by_shape.setdefault(np.shape(f), []).append(i)
    # one group per feature shape, each a slice of the (P, C, n) stack that
    # holds its probes in the caller's order: (caller indices, slice, x, w, b)
    groups, start = [], 0
    for (_, dim), members in by_shape.items():
        size = len(members)
        x = np.stack([np.asarray(features[i], dtype=np.float64) for i in members])
        groups.append((members, slice(start, start + size), x,
                       np.zeros((size, dim, num_classes)), np.zeros((size, num_classes, 1))))
        start += size
    onehot = np.zeros((num_classes, n))
    onehot[y, rows] = 1.0
    z = np.empty((len(features), num_classes, n))
    for iteration in range(_PROBE_ITERATIONS):
        for _, at, x, w, b in groups:
            np.copyto(z[at], (x @ w).transpose(0, 2, 1))
            z[at] += b
        z -= z.max(axis=1, keepdims=True)
        np.exp(z, out=z)
        z /= z.sum(axis=1, keepdims=True)
        # a non-finite logit turns its whole column NaN, the label's entry too
        if not np.isfinite(z).all():
            _raise_diverged(z, y, groups, iteration)
        z -= onehot
        z /= n
        resid = np.ascontiguousarray(z.transpose(0, 2, 1))
        for _, at, x, w, b in groups:
            g = x.transpose(0, 2, 1) @ resid[at]
            g *= _PROBE_STEP
            w -= g
            # a running sum over n adds in the order that an (n, C) residual's
            # sum over rows does; a reduce along z's contiguous n axis would
            # add pairwise and move the bias bits
            g = np.cumsum(z[at], axis=2)[..., -1:]
            g *= _PROBE_STEP
            b -= g
    for members, _, _, w, b in groups:
        for i, w_i, b_i in zip(members, w, b):
            probes[i].weights, probes[i].bias = w_i.copy(), b_i[:, 0].copy()


def _raise_diverged(z: np.ndarray, y: np.ndarray, groups: list, iteration: int):
    """Raise for the first probe, in the caller's order, whose loss is not finite."""
    loss = -np.mean(np.log(z[:, y, np.arange(len(y))] + 1e-300), axis=1)
    stacked = [(i, w_i) for members, _, _, w, _ in groups for i, w_i in zip(members, w)]
    diverged = [at for at in range(len(stacked)) if not np.isfinite(loss[at])]
    at = min(diverged, key=lambda at: stacked[at][0])
    p, w = stacked[at]
    raise RuntimeError(
        f"probe {p} diverged at iteration {iteration}: loss={loss[at]}, "
        f"max|w|={np.abs(w).max()}"
    )


class LogisticProbe:
    """Multinomial logistic regression fit by full-batch gradient descent.

    Deterministic: zero initialization, then 500 steps of size 0.1.
    """

    def __init__(self):
        self.weights: np.ndarray | None = None
        self.bias: np.ndarray | None = None

    def fit(self, features: np.ndarray, labels: np.ndarray, num_classes: int) -> "LogisticProbe":
        _fit_lockstep([self], [features], labels, num_classes)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self.weights is None:
            raise RuntimeError("probe has not been fitted")
        scores = np.asarray(features, dtype=np.float64) @ self.weights + self.bias
        return np.argmax(scores, axis=1)


def probe_agreement(
    probe_a: LogisticProbe,
    probe_b: LogisticProbe,
    features_a: np.ndarray,
    features_b: np.ndarray,
) -> float:
    """Fraction of evaluation points on which two fitted probes agree."""
    pred_a = probe_a.predict(features_a)
    pred_b = probe_b.predict(features_b)
    if pred_a.shape != pred_b.shape:
        raise ValueError(
            f"probe_agreement: prediction shapes differ: {pred_a.shape} vs {pred_b.shape}"
        )
    return float(np.mean(pred_a == pred_b))


def consistency_curve(
    teacher: BlockNet, student: BlockNet, train_data: Dataset, eval_data: Dataset
) -> dict[str, float]:
    """Probe consistency at every block, then output agreement, as ``{tap: fraction}``.

    Each net is forwarded once per split, and all the probes fit in one lockstep.
    """
    _check_same_taps(teacher, student)
    blocks = range(student.num_blocks)
    train = [forward_with_taps(net, train_data.features) for net in (teacher, student)]
    reps = [taps[block].data for block in blocks for taps in train]
    probes = [LogisticProbe() for _ in reps]
    _fit_lockstep(probes, reps, train_data.labels, train_data.num_classes)
    # the training taps go before the eval split is forwarded, so no two
    # splits' taps are held at once
    del train, reps
    t_eval, s_eval = (forward_with_taps(net, eval_data.features) for net in (teacher, student))
    fractions = [probe_agreement(t, s, t_eval[block].data, s_eval[block].data)
                 for block, t, s in zip(blocks, probes[::2], probes[1::2])]
    t_out, s_out = (np.argmax(taps[-1].data, axis=1) for taps in (t_eval, s_eval))
    return dict(zip(student.tap_names(), fractions + [float(np.mean(t_out == s_out))]))


# ---------------------------------------------------------------------------
# spectral smoothness


def spectral_report(
    teacher: BlockNet, students: dict[str, BlockNet], data: Dataset, k: int
) -> dict[str, dict[str, dict[str, float]]]:
    """Smoothness of label indicators and teacher Fiedler vectors on student graphs,
    as ``{student: {signal: {tap: value}}}``, the signals "label_indicator" and
    "teacher_fiedler" in that order.

    For each tap, a similarity graph is built per network on every point of
    ``data``, with ``k`` neighbours, p = 1 and no class mask.  The label
    signal is the sum over classes of one-vs-rest indicator smoothness; the
    teacher signal is the Fiedler vector of the teacher's graph evaluated on
    each student's Laplacian.  A disconnected teacher graph makes the Fiedler vector
    degenerate, which is reported as a warning rather than a failure.
    """
    n = len(data)
    if n < 2:
        raise ValueError(f"spectral_report: need at least 2 examples, got {n}")
    names = teacher.tap_names()
    for student in students.values():
        _check_same_taps(teacher, student)

    teacher_taps = forward_with_taps(teacher, data.features)
    student_taps = {name: forward_with_taps(net, data.features) for name, net in students.items()}
    check_tap_norms("teacher", names, teacher_taps)
    for student_name, taps in student_taps.items():
        check_tap_norms(f"student {student_name!r}", names, taps)
    indicator_signals = [
        (data.labels == c).astype(np.float64) for c in range(data.num_classes)
    ]
    fiedlers = []
    for name, tap in zip(names, teacher_taps):
        lap_t = laplacian(build_similarity_graph(tap.data, k=k).weights)
        fied = fiedler_vector(lap_t)
        # the Rayleigh quotient of the unit Fiedler vector is lambda_2;
        # a degenerate (near-zero) lambda_2 means a disconnected graph
        if smoothness(lap_t, fied) < _CONNECTIVITY_EPS:
            warnings.warn(
                f"teacher graph at {name} is disconnected; Fiedler vector is degenerate",
                RuntimeWarning,
                stacklevel=2,
            )
        fiedlers.append(fied)

    report = {}
    for student_name, taps in student_taps.items():
        label_vals, fiedler_vals = {}, {}
        for name, tap, fied in zip(names, taps, fiedlers):
            lap_s = laplacian(build_similarity_graph(tap.data, k=k).weights)
            label_vals[name] = sum(smoothness(lap_s, sig) for sig in indicator_signals)
            fiedler_vals[name] = smoothness(lap_s, fied)
        report[student_name] = {"label_indicator": label_vals, "teacher_fiedler": fiedler_vals}
    return report

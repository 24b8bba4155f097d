"""Post-hoc analyses: loss concentration, probe consistency, graph smoothness.

These all operate on frozen networks; nothing here touches the gradient tape.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .datasets import Dataset
from .graphs import (
    GraphParams,
    build_similarity_graph,
    fiedler_vector,
    laplacian,
    smoothness,
)
from .losses import per_example_gkd, per_example_rkdd
from .models import OUTPUT_TAP, BlockNet, frozen_forward

__all__ = [
    "loss_concentration",
    "ConcentrationReport",
    "concentration_report",
    "LogisticProbe",
    "probe_agreement",
    "consistency_probe",
    "ConsistencyCurve",
    "consistency_curve",
    "SmoothnessCurve",
    "spectral_report",
]

_CONNECTIVITY_EPS = 1e-10  # lambda_2 below this marks a disconnected graph


def loss_concentration(per_example, fraction: float = 0.9) -> float | None:
    """Smallest percentage of examples carrying ``fraction`` of the total loss.

    Contributions are sorted descending and the shortest prefix reaching
    fraction * total is counted, as a percentage of the batch.  An all-zero
    vector has no concentration to speak of and yields None.
    """
    v = np.asarray(per_example, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"loss_concentration: expected a non-empty vector, got shape {v.shape}")
    if np.any(v < 0):
        raise ValueError("loss_concentration: contributions must be nonnegative")
    if not 0 < fraction <= 1:
        raise ValueError(f"loss_concentration: fraction must lie in (0, 1], got {fraction}")
    total = float(v.sum())
    if total == 0.0:
        return None
    ordered = np.sort(v)[::-1]
    cumulative = np.cumsum(ordered)
    # tiny slack so e.g. cumsum 9.0 meets a target of 0.9*10 despite rounding
    target = fraction * total - 1e-12 * total
    count = int(np.searchsorted(cumulative, target) + 1)
    return 100.0 * count / v.size


@dataclass
class ConcentrationReport:
    loss: str
    fraction: float
    batch_size: int
    n_batches: int
    per_tap: dict[str, float | None] = field(default_factory=dict)


def _frozen_taps(net: BlockNet, features: np.ndarray):
    return frozen_forward(net, features).for_taps(net.tap_set)


def concentration_report(
    teacher: BlockNet,
    student: BlockNet,
    data: Dataset,
    loss: str,
    graph: GraphParams | None = None,
    n_batches: int = 20,
    batch_size: int = 256,
    fraction: float = 0.9,
    seed: int = 0,
) -> ConcentrationReport:
    """Median per-tap loss concentration over random batches.

    For "gkd" the per-example contributions are row sums of the squared
    adjacency mismatch; for "rkdd" each pair's Huber value is split half to
    each endpoint.
    """
    if loss not in ("gkd", "rkdd"):
        raise ValueError(f"concentration_report: loss must be 'gkd' or 'rkdd', got {loss!r}")
    if len(data) < batch_size:
        raise ValueError(
            f"concentration_report: dataset of {len(data)} examples is smaller than "
            f"batch_size {batch_size}"
        )
    if loss == "gkd" and graph is None:
        graph = GraphParams(k=batch_size - 1)
    rng = np.random.default_rng(seed)
    names = student.tap_names()
    collected: dict[str, list[float]] = {name: [] for name in names}
    for _ in range(n_batches):
        idx = rng.choice(len(data), size=batch_size, replace=False)
        xb, yb = data.features[idx], data.labels[idx]
        s_taps = _frozen_taps(student, xb)
        t_taps = _frozen_taps(teacher, xb)
        for name, s_tap, t_tap in zip(names, s_taps, t_taps):
            if loss == "gkd":
                sg = build_similarity_graph(
                    s_tap.data, k=graph.k, p=graph.p, mask_mode=graph.mask_mode, labels=yb
                )
                tg = build_similarity_graph(
                    t_tap.data, k=graph.k, p=graph.p, mask_mode=graph.mask_mode, labels=yb
                )
                per_ex = per_example_gkd(sg, tg)
            else:
                per_ex = per_example_rkdd(s_tap, t_tap)
            pct = loss_concentration(per_ex, fraction)
            if pct is not None:
                collected[name].append(pct)
    report = ConcentrationReport(
        loss=loss, fraction=fraction, batch_size=batch_size, n_batches=n_batches
    )
    for name in names:
        vals = collected[name]
        report.per_tap[name] = float(np.median(vals)) if vals else None
    return report


# ---------------------------------------------------------------------------
# probe consistency


class LogisticProbe:
    """Multinomial logistic regression fit by full-batch gradient descent.

    Deterministic: zero initialization, fixed iteration count and step size.
    """

    def __init__(self, iterations: int = 500, learning_rate: float = 0.1):
        self.iterations = int(iterations)
        self.learning_rate = float(learning_rate)
        self.weights: np.ndarray | None = None
        self.bias: np.ndarray | None = None

    @staticmethod
    def _softmax(z: np.ndarray) -> np.ndarray:
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def fit(self, features: np.ndarray, labels: np.ndarray, num_classes: int) -> "LogisticProbe":
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.int64)
        n, dim = x.shape
        onehot = np.zeros((n, num_classes))
        onehot[np.arange(n), y] = 1.0
        w = np.zeros((dim, num_classes))
        b = np.zeros(num_classes)
        for iteration in range(self.iterations):
            probs = self._softmax(x @ w + b)
            eps_loss = -np.mean(np.log(probs[np.arange(n), y] + 1e-300))
            if not np.isfinite(eps_loss):
                raise RuntimeError(
                    f"probe diverged at iteration {iteration}: loss={eps_loss}, "
                    f"max|w|={np.abs(w).max()}"
                )
            resid = (probs - onehot) / n
            w = w - self.learning_rate * (x.T @ resid)
            b = b - self.learning_rate * resid.sum(axis=0)
        self.weights, self.bias = w, b
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


def consistency_probe(
    teacher: BlockNet,
    student: BlockNet,
    train_data: Dataset,
    eval_data: Dataset,
    block,
) -> float:
    """Agreement between probes fitted on the two nets' block representations.

    ``block`` is a 1-based block index, or "output" to compare the networks'
    own argmax predictions directly.
    """
    if block == OUTPUT_TAP:
        t_logits = _frozen_taps(teacher, eval_data.features)[-1].data
        s_logits = _frozen_taps(student, eval_data.features)[-1].data
        return float(np.mean(np.argmax(t_logits, axis=1) == np.argmax(s_logits, axis=1)))
    idx = int(block)
    if not 1 <= idx <= teacher.num_blocks or not 1 <= idx <= student.num_blocks:
        raise ValueError(f"consistency_probe: block {block!r} out of range")
    classes = train_data.num_classes

    def fit_on(net: BlockNet) -> tuple[LogisticProbe, np.ndarray]:
        train_reps = _frozen_taps(net, train_data.features)[idx - 1].data
        eval_reps = _frozen_taps(net, eval_data.features)[idx - 1].data
        return LogisticProbe().fit(train_reps, train_data.labels, classes), eval_reps

    probe_t, eval_t = fit_on(teacher)
    probe_s, eval_s = fit_on(student)
    return probe_agreement(probe_t, probe_s, eval_t, eval_s)


@dataclass
class ConsistencyCurve:
    taps: list[str]
    fractions: list[float]


def consistency_curve(
    teacher: BlockNet, student: BlockNet, train_data: Dataset, eval_data: Dataset
) -> ConsistencyCurve:
    """Probe consistency for every block, plus output agreement as the last entry."""
    taps, fractions = [], []
    for block in range(1, student.num_blocks + 1):
        taps.append(f"block{block}")
        fractions.append(consistency_probe(teacher, student, train_data, eval_data, block))
    taps.append(OUTPUT_TAP)
    fractions.append(consistency_probe(teacher, student, train_data, eval_data, OUTPUT_TAP))
    return ConsistencyCurve(taps=taps, fractions=fractions)


# ---------------------------------------------------------------------------
# spectral smoothness


@dataclass
class SmoothnessCurve:
    signal: str
    taps: list[str]
    values: list[float]


def spectral_report(
    teacher: BlockNet,
    students: dict[str, BlockNet],
    data: Dataset,
    sample_size: int = 1000,
    k: int | None = None,
    seed: int = 0,
) -> dict[str, list[SmoothnessCurve]]:
    """Smoothness of label indicators and teacher Fiedler vectors on student graphs.

    For each tap, a similarity graph is built per network on a fixed sample.
    The label signal is the sum over classes of one-vs-rest indicator
    smoothness; the teacher signal is the Fiedler vector of the teacher's
    graph evaluated on each student's Laplacian.  A disconnected teacher
    graph makes the Fiedler vector degenerate, which is reported as a
    warning rather than a failure.
    """
    n = min(int(sample_size), len(data))
    if n < 2:
        raise ValueError(f"spectral_report: need at least 2 examples, got {n}")
    idx = np.random.default_rng(seed).choice(len(data), size=n, replace=False)
    xb, yb = data.features[idx], data.labels[idx]
    if k is None:
        k = n - 1
    names = teacher.tap_names()

    teacher_taps = _frozen_taps(teacher, xb)
    indicator_signals = [
        (yb == c).astype(np.float64) for c in range(data.num_classes)
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
        fiedlers.append(fied.s)

    report: dict[str, list[SmoothnessCurve]] = {}
    for student_name, student in students.items():
        student_taps = _frozen_taps(student, xb)
        label_vals, fiedler_vals = [], []
        for tap, fied in zip(student_taps, fiedlers):
            lap_s = laplacian(build_similarity_graph(tap.data, k=k).weights)
            label_vals.append(sum(smoothness(lap_s, sig) for sig in indicator_signals))
            fiedler_vals.append(smoothness(lap_s, fied))
        report[student_name] = [
            SmoothnessCurve(signal="label_indicator", taps=list(names), values=label_vals),
            SmoothnessCurve(signal="teacher_fiedler", taps=list(names), values=fiedler_vals),
        ]
    return report

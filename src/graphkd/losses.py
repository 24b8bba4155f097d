"""Task and distillation losses.

All losses return scalar tensors so a single backward pass covers the
combined objective.  Teacher-side inputs are treated as constants; only the
student side contributes gradients.

Conventions:

* IKD averages squared L2 distances over examples and taps.
* RKD-D compares Huber-smoothed, mean-normalized pairwise distances over
  ordered pairs (x != x'), summed over taps and divided by the pair count.
* GKD is the raw squared Frobenius distance between degree-normalized
  adjacencies, summed over taps (no normalization; lambda absorbs scale).
"""

from __future__ import annotations

import numpy as np

from .autodiff import (
    Tensor,
    add,
    clamp_min,
    div,
    log_softmax,
    matmul,
    mul,
    sqrt,
    square,
    sub,
    transpose,
    where,
)
from .graphs import SimilarityGraph

__all__ = [
    "task_loss",
    "huber",
    "ikd_loss",
    "rkdd_loss",
    "gkd_loss",
    "per_example_gkd",
    "per_example_rkdd",
    "normalized_pairwise_distances",
]

KD_LOSSES = ("ikd", "rkdd", "gkd")


def task_loss(logits, labels) -> Tensor:
    """Mean softmax cross-entropy of integer labels."""
    logits_t = logits if isinstance(logits, Tensor) else Tensor(logits)
    labels = np.asarray(labels)
    if logits_t.data.ndim != 2:
        raise ValueError(f"task_loss: logits must be 2-d, got shape {logits_t.data.shape}")
    n, classes = logits_t.data.shape
    if labels.shape != (n,):
        raise ValueError(
            f"task_loss: labels shape {labels.shape} does not match batch size {n}"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise ValueError(
            f"task_loss: labels must lie in [0, {classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    onehot = np.arange(classes) == labels.astype(int)[:, None]
    picked = where(onehot, log_softmax(logits_t), 0.0)
    return mul(picked.sum(), -1.0 / n)


def huber(x: float, y: float) -> float:
    """Huber penalty with delta=1 on the difference x - y."""
    d = abs(float(x) - float(y))
    return 0.5 * d * d if d <= 1.0 else d - 0.5


def _huber_elementwise(a: Tensor, b: Tensor) -> Tensor:
    """Tensor Huber(a, b); the branch choice is frozen from the values.

    Huber is C^1, so freezing the branch at |d| = 1 still yields the exact
    derivative everywhere.
    """
    d = sub(a, b)
    quad = mul(square(d), 0.5)
    lin = sub(mul(d, Tensor(np.sign(d.data))), 0.5)
    return where(np.abs(d.data) <= 1.0, quad, lin)


def normalized_pairwise_distances(reps) -> Tensor:
    """Pairwise L2 distances divided by their mean over ordered pairs (i != j).

    Returns an n x n tensor with a zero diagonal.  If the mean distance is
    zero (all points coincide) the normalized distances are defined as 0.
    """
    t = reps if isinstance(reps, Tensor) else Tensor(reps)
    if t.data.ndim != 2:
        raise ValueError(f"pairwise distances: expected a 2-d batch, got shape {t.data.shape}")
    n = t.data.shape[0]
    if n < 2:
        raise ValueError(f"pairwise distances: need at least 2 rows, got {n}")
    eye = np.eye(n, dtype=bool)
    gram = matmul(t, transpose(t))
    sq = where(eye, gram, 0.0).sum(axis=1)
    d2 = sub(add(sq.reshape((1, n)), sq.reshape((n, 1))), mul(gram, 2.0))
    d2 = clamp_min(d2, 0.0)  # guard tiny negative rounding
    dist = where(~eye, sqrt(d2), 0.0)
    mean_dist = mul(dist.sum(), 1.0 / (n * (n - 1)))
    if float(mean_dist.data) == 0.0:
        return mul(dist, 0.0)
    return div(dist, mean_dist)


def _check_tap_lists(student_taps, teacher_taps, loss_name):
    if len(student_taps) != len(teacher_taps):
        raise ValueError(
            f"{loss_name}: student has {len(student_taps)} taps but teacher has "
            f"{len(teacher_taps)}"
        )
    if not student_taps:
        raise ValueError(f"{loss_name}: empty tap list")


def ikd_loss(student_taps, teacher_taps) -> Tensor:
    """Mean squared L2 distance between paired representations.

    Requires equal widths at every tap; this is the individual KD regime,
    which cannot bridge differently-sized latent spaces.
    """
    _check_tap_lists(student_taps, teacher_taps, "ikd_loss")
    total = None
    n = None
    for idx, (s, t) in enumerate(zip(student_taps, teacher_taps)):
        s_t = s if isinstance(s, Tensor) else Tensor(s)
        t_arr = t.data if isinstance(t, Tensor) else np.asarray(t, dtype=np.float64)
        if s_t.data.shape != t_arr.shape:
            raise ValueError(
                f"ikd_loss: tap {idx} has student shape {s_t.data.shape} and teacher "
                f"shape {t_arr.shape}; IKD requires identical dimensions at every tap"
            )
        if n is None:
            n = s_t.data.shape[0]
        term = square(sub(s_t, Tensor(t_arr))).sum()
        total = term if total is None else add(total, term)
    return mul(total, 1.0 / (n * len(student_taps)))


def rkdd_loss(student_taps, teacher_taps) -> Tensor:
    """Distance-wise relational KD over ordered pairs, summed across taps."""
    _check_tap_lists(student_taps, teacher_taps, "rkdd_loss")
    total = None
    n = None
    for idx, (s, t) in enumerate(zip(student_taps, teacher_taps)):
        s_t = s if isinstance(s, Tensor) else Tensor(s)
        t_arr = t.data if isinstance(t, Tensor) else np.asarray(t, dtype=np.float64)
        if s_t.data.shape[0] != t_arr.shape[0]:
            raise ValueError(
                f"rkdd_loss: tap {idx} has {s_t.data.shape[0]} student rows and "
                f"{t_arr.shape[0]} teacher rows"
            )
        if n is None:
            n = s_t.data.shape[0]
            if n < 2:
                raise ValueError(f"rkdd_loss: need at least 2 examples, got {n}")
        ds = normalized_pairwise_distances(s_t)
        dt = normalized_pairwise_distances(Tensor(t_arr))
        h = _huber_elementwise(ds, Tensor(dt.data))
        total = h.sum() if total is None else add(total, h.sum())
    return mul(total, 1.0 / (n * (n - 1)))


def gkd_loss(student_graphs, teacher_graphs) -> Tensor:
    """Sum over taps of || A_student - A_teacher ||_F^2 on normalized adjacencies."""
    if len(student_graphs) != len(teacher_graphs):
        raise ValueError(
            f"gkd_loss: student has {len(student_graphs)} graphs but teacher has "
            f"{len(teacher_graphs)}"
        )
    if not student_graphs:
        raise ValueError("gkd_loss: empty graph list")
    total = None
    for idx, (sg, tg) in enumerate(zip(student_graphs, teacher_graphs)):
        a_s = _adjacency_tensor(sg)
        a_t = _adjacency_array(tg)
        if a_s.data.shape[0] != a_t.shape[0]:
            raise ValueError(
                f"gkd_loss: graph {idx} has {a_s.data.shape[0]} student nodes and "
                f"{a_t.shape[0]} teacher nodes"
            )
        term = square(sub(a_s, Tensor(a_t))).sum()
        total = term if total is None else add(total, term)
    return total


def _adjacency_tensor(g) -> Tensor:
    if isinstance(g, SimilarityGraph):
        return g.adjacency_tensor if g.adjacency_tensor is not None else Tensor(g.adjacency)
    return g if isinstance(g, Tensor) else Tensor(np.asarray(g, dtype=np.float64))


def _adjacency_array(g) -> np.ndarray:
    if isinstance(g, SimilarityGraph):
        return g.adjacency
    return g.data if isinstance(g, Tensor) else np.asarray(g, dtype=np.float64)


# ---------------------------------------------------------------------------
# per-example attribution (plain arrays; used for loss-concentration analysis)


def per_example_gkd(adj_student, adj_teacher) -> np.ndarray:
    """Row-wise squared adjacency mismatch; sums to the per-tap GKD loss."""
    a_s = _adjacency_array(adj_student)
    a_t = _adjacency_array(adj_teacher)
    if a_s.shape != a_t.shape:
        raise ValueError(
            f"per_example_gkd: adjacency shapes differ: {a_s.shape} vs {a_t.shape}"
        )
    diff = a_s - a_t
    return (diff * diff).sum(axis=1)


def per_example_rkdd(student_tap, teacher_tap) -> np.ndarray:
    """Per-example RKD-D attribution: each ordered pair's Huber value is split
    half to each endpoint, then scaled by the pair count so the vector sums to
    the per-tap loss."""
    s = student_tap.data if isinstance(student_tap, Tensor) else np.asarray(student_tap)
    t = teacher_tap.data if isinstance(teacher_tap, Tensor) else np.asarray(teacher_tap)
    n = s.shape[0]
    ds = normalized_pairwise_distances(Tensor(np.asarray(s, dtype=np.float64))).data
    dt = normalized_pairwise_distances(Tensor(np.asarray(t, dtype=np.float64))).data
    d = np.abs(ds - dt)
    h = np.where(d <= 1.0, 0.5 * d * d, d - 0.5)
    np.fill_diagonal(h, 0.0)
    return 0.5 * (h.sum(axis=1) + h.sum(axis=0)) / (n * (n - 1))

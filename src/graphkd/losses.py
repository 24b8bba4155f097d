"""Task and distillation losses.

All losses return scalar tensors so a single backward pass covers the
combined objective.  Teacher-side inputs are constants (arrays, tensors
whose values are read, or a graph's ``.adjacency``); only the student side
contributes gradients.  IKD and RKD-D take the student's and the teacher's
tap lists in the forward pass's order and pair them once, in ``_tap_pairs``,
which checks that the two lists are one length and not empty, and that every
tap on either side has one row count.

Conventions:

* The task loss (softmax cross-entropy) is one tape node.
* IKD averages squared L2 distances over examples and taps; each tap's
  squared distance is one tape node.
* RKD-D compares Huber-smoothed, mean-normalized pairwise distances over
  ordered pairs (x != x'), summed over taps and divided by the pair count.
  Each tap's term is one tape node with a closed-form backward; the pairwise
  distances themselves are a plain-array function.  One clip of the
  difference to [-1, 1] gives both the Huber penalty and its slope.
* GKD is the raw squared Frobenius distance between degree-normalized
  adjacencies, summed over taps (no normalization; lambda absorbs scale).
  Both sides are ``SimilarityGraph``s.  A stacked graph carries every tap,
  so the sum over taps is one term, and each graph pair's term is one tape
  node on the student's ``adjacency_tensor``.
* The sum over taps, with the IKD or RKD-D scale, is one tape node over the
  per-tap terms.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, record
from .graphs import SimilarityGraph

__all__ = [
    "task_loss",
    "ikd_loss",
    "rkdd_loss",
    "gkd_loss",
    "per_example_gkd",
    "per_example_rkdd",
]


def task_loss(logits, labels) -> Tensor:
    """Mean softmax cross-entropy of integer labels, as one tape node.

    Values and gradients are bitwise equal to the generic-op chain
    ``mul(total(where(onehot, log_softmax(logits), 0.0)), -1 / n)``.
    """
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
    z = logits_t.data - np.max(logits_t.data, axis=1, keepdims=True)
    logp = z - np.log(np.sum(np.exp(z), axis=1, keepdims=True))
    scale = -1.0 / n

    def backward(g: np.ndarray) -> tuple[np.ndarray]:
        # the rules of mul, sum, where and log_softmax, in that order
        gp = np.broadcast_to(g * scale, logp.shape) * onehot
        return (gp - np.exp(logp) * np.sum(gp, axis=1, keepdims=True),)

    return record(np.sum(np.where(onehot, logp, 0.0)) * scale, (logits_t,), backward)


def _huber(d: np.ndarray) -> np.ndarray:
    """Elementwise Huber penalty with delta=1 on differences ``d``; the clip is its slope."""
    c = np.clip(d, -1.0, 1.0)
    return c * (d - c * 0.5)


def _distances(reps) -> tuple[np.ndarray, np.ndarray, float]:
    """Return (normalized distances, distances, mean distance) of a batch; the
    normalized ones are divided by the mean over i != j, or 0 if all coincide."""
    x = np.asarray(reps, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"pairwise distances: expected a 2-d batch, got shape {x.shape}")
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"pairwise distances: need at least 2 rows, got {n}")
    x = np.ascontiguousarray(x)  # numpy's syrk path then gives an exactly symmetric gram
    gram = x @ x.T
    sq = np.diag(gram).copy()
    dist = sq[None, :] + sq[:, None]
    dist -= np.multiply(gram, 2.0, out=gram)
    np.sqrt(np.maximum(dist, 0.0, out=dist), out=dist)  # guard tiny negative rounding
    np.fill_diagonal(dist, 0.0)
    mean = np.sum(dist) * (1.0 / (n * (n - 1)))
    if mean == 0.0:
        return np.zeros_like(dist), dist, mean
    return dist / mean, dist, mean


def _rkdd_tap(student: Tensor, teacher: np.ndarray) -> Tensor:
    """One tap's summed Huber term, recorded as one node on the student tap."""
    x = student.data
    ds, dist, mean = _distances(x)
    d = ds - _distances(teacher)[0]
    n = x.shape[0]

    def backward(g: np.ndarray) -> tuple[np.ndarray]:
        if mean == 0.0:  # coincident points: the distances are the constant 0
            return (np.zeros_like(x),)
        g_ds = g * np.clip(d, -1.0, 1.0)  # the Huber slope
        # ds = dist / mean, with mean = sum(dist) / (n (n - 1))
        g_dist = (g_ds - np.sum(g_ds * ds) / (n * (n - 1))) / mean
        # dist = sqrt(|x_i|^2 + |x_j|^2 - 2 x_i.x_j); its derivative at 0 is 0
        g_d2 = np.divide(0.5 * g_dist, dist, out=np.zeros_like(dist), where=dist > 0)
        # numpy mirrors its syrk gram, so dist, and with it g_d2, is exactly
        # symmetric: g_d2 + g_d2.T is g_d2 doubled
        sym = np.add(g_d2, g_d2, out=g_d2)
        return (2.0 * (np.sum(sym, axis=1)[:, None] * x - sym @ x),)

    return record(np.sum(_huber(d)), (student,), backward)


def _tap_pairs(student_taps, teacher_taps, loss_name) -> list[tuple[Tensor, np.ndarray]]:
    """Pair two tap lists of one length as (student tensor, teacher array), tap
    by tap; each pair's two sides, and every tap, have tap 0's row count."""
    if len(student_taps) != len(teacher_taps):
        raise ValueError(
            f"{loss_name}: student has {len(student_taps)} taps but teacher has "
            f"{len(teacher_taps)}"
        )
    if not student_taps:
        raise ValueError(f"{loss_name}: empty tap list")
    pairs = [(s if isinstance(s, Tensor) else Tensor(s),
              t.data if isinstance(t, Tensor) else np.asarray(t, dtype=np.float64))
             for s, t in zip(student_taps, teacher_taps)]
    n = pairs[0][0].data.shape[0]
    for idx, (s, t) in enumerate(pairs):
        rows = s.data.shape[0]
        if rows != t.shape[0]:
            raise ValueError(
                f"{loss_name}: tap {idx} has {rows} student rows and {t.shape[0]} teacher rows"
            )
        if rows != n:
            raise ValueError(f"{loss_name}: tap {idx} has {rows} rows but tap 0 has {n}")
    return pairs


def ikd_loss(student_taps, teacher_taps) -> Tensor:
    """Mean squared L2 distance between paired representations.

    Requires equal widths at every tap; this is the individual KD regime,
    which cannot bridge differently-sized latent spaces.
    """
    pairs = _tap_pairs(student_taps, teacher_taps, "ikd_loss")
    for idx, (s, t) in enumerate(pairs):
        if s.data.shape != t.shape:
            raise ValueError(
                f"ikd_loss: tap {idx} has student shape {s.data.shape} and teacher "
                f"shape {t.shape}; IKD requires identical dimensions at every tap"
            )
    n = pairs[0][0].data.shape[0]
    return _sum_node([_squared_distance(s, t) for s, t in pairs], 1.0 / (n * len(pairs)))


def rkdd_loss(student_taps, teacher_taps) -> Tensor:
    """Distance-wise relational KD over ordered pairs, summed across taps."""
    pairs = _tap_pairs(student_taps, teacher_taps, "rkdd_loss")
    n = pairs[0][0].data.shape[0]
    if n < 2:
        raise ValueError(f"rkdd_loss: need at least 2 examples, got {n}")
    return _sum_node([_rkdd_tap(s, t) for s, t in pairs], 1.0 / (n * (n - 1)))


def gkd_loss(student_graphs, teacher_graphs) -> Tensor:
    """Sum over taps of || A_student - A_teacher ||_F^2 on normalized adjacencies.

    A graph built from a stack of taps holds all of them, so one stacked
    graph per side gives the whole sum in one term.
    """
    if len(student_graphs) != len(teacher_graphs):
        raise ValueError(
            f"gkd_loss: student has {len(student_graphs)} graphs but teacher has "
            f"{len(teacher_graphs)}"
        )
    if not student_graphs:
        raise ValueError("gkd_loss: empty graph list")
    terms = []
    for idx, (sg, tg) in enumerate(zip(student_graphs, teacher_graphs)):
        a_s = sg.adjacency_tensor if sg.adjacency_tensor is not None else Tensor(sg.adjacency)
        a_t = tg.adjacency
        if a_s.data.shape != a_t.shape:
            raise ValueError(
                f"gkd_loss: graph {idx} has student adjacency shape {a_s.data.shape} "
                f"and teacher adjacency shape {a_t.shape}"
            )
        terms.append(_squared_distance(a_s, a_t))
    return terms[0] if len(terms) == 1 else _sum_node(terms)


def _sum_node(terms: list[Tensor], scale: float | None = None) -> Tensor:
    """``(t0 + t1 + ...) * scale`` over 0-d tap terms, as one tape node.

    The values add left to right from the first term, and each term's
    gradient is ``g * scale`` (``g`` with no scale), so values and gradients
    are bitwise equal to ``mul(add(add(t0, t1), ...), scale)``.
    """
    value = terms[0].data
    for term in terms[1:]:
        value = value + term.data
    if scale is None:
        return record(value, terms, lambda g: (g,) * len(terms))
    return record(value * scale, terms, lambda g: (g * scale,) * len(terms))


def _squared_distance(student: Tensor, teacher: np.ndarray) -> Tensor:
    """sum((student - teacher)^2), recorded as one node on ``student``."""
    diff = student.data - teacher
    return record(np.sum(diff * diff), (student,), lambda g: ((2.0 * g) * diff,))


# ---------------------------------------------------------------------------
# per-example attribution (plain arrays; used for loss-concentration analysis)


def per_example_gkd(student: SimilarityGraph, teacher: SimilarityGraph) -> np.ndarray:
    """Row-wise squared adjacency mismatch of two graphs; sums to the per-tap GKD loss."""
    a_s, a_t = student.adjacency, teacher.adjacency
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
    s = student_tap.data if isinstance(student_tap, Tensor) else student_tap
    t = teacher_tap.data if isinstance(teacher_tap, Tensor) else teacher_tap
    ds = _distances(s)[0]
    n = ds.shape[0]
    h = _huber(ds - _distances(t)[0])  # 0 on the diagonal
    return 0.5 * (h.sum(axis=1) + h.sum(axis=0)) / (n * (n - 1))

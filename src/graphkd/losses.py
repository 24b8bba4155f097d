"""Task and distillation losses.

All losses return scalar tensors so a single backward pass covers the
combined objective.  Teacher-side inputs are constants (arrays, tensors
whose values are read, or a graph's ``.adjacency``); only the student side
contributes gradients.  IKD, RKD-D and the training step's GKD take the
student's and the teacher's tap lists in the forward pass's order and pair
them once, in ``_tap_pairs``, which checks that the two lists are one length
and not empty, and that every tap on either side has one row count.

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
  ``gkd_loss`` takes ``SimilarityGraph``s.  A stacked graph carries every
  tap, so the sum over taps is one term, and each graph pair's term is one
  tape node on the student's ``adjacency_tensor``.
* ``gkd_tap_loss`` is GKD from tap lists, as training uses it.  Under the
  dense graph (k = n - 1, p = 1, mask ``all``) a pair whose taps are finite
  and non-negative (ReLU block outputs) has no negative cosine for the clamp
  to remove, so A = V V^T - diag(|v_i|^2) with V = diag(d^-1/2) U: a rank-d
  matrix plus a diagonal.  Such a pair's term then follows from the (n, d)
  taps in O(n d^2) work, and all such pairs are one tape node.  The pairs
  with both widths below n (so it is cheaper) take it together, and only
  when every nonzero degree of their taps is at least 1 (so each diagonal
  entry 1/deg is at most 1, and the subtraction loses only about log2 n
  bits); else none does.  Every other pair (the logits, and any sparse,
  p > 1 or class-masked graph) goes through one stacked
  ``build_similarity_graph`` per side and ``gkd_loss``.
* ``per_example_gkd_taps`` splits each tap's GKD term into per-example rows
  for the loss-concentration analysis.  One rule, ``_factored_route``, picks
  the pairs that it and ``gkd_tap_loss`` factor: those get their rows from
  the same V, Gram and f in O(n d^2), and every other pair gets
  ``per_example_gkd`` on its two graphs, built one tap at a time.
* The sum over taps, with the IKD or RKD-D scale, is one tape node over the
  per-tap terms; so is GKD's sum of its factored and graph terms.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, record
from .graphs import SimilarityGraph, _inv_sqrt, build_similarity_graph


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
    return np.divide(dist, mean, out=gram), dist, mean  # the spent gram buffer


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
    # the terms come first: _distances rejects n < 2 before the scale is formed
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
    return _sum_node(terms)


def gkd_tap_loss(student_taps, teacher_taps, graph, labels) -> Tensor:
    """GKD between two tap lists under ``graph`` (its k, p and mask_mode).

    The pairs that ``_factored_route`` picks take the factored node; the
    rest form one stacked graph per side, whose term is ``gkd_loss``'s.  With
    both kinds the two terms are summed in one node, factored term first.
    """
    pairs = _tap_pairs(student_taps, teacher_taps, "gkd_tap_loss")
    fit, s_side, t_side = _factored_route(pairs, graph)
    terms = [_factored_gkd([pairs[i][0] for i in fit], s_side, t_side)] if fit else []
    rest = [pair for i, pair in enumerate(pairs) if i not in fit]
    if rest:
        s_graph, t_graph = (
            build_similarity_graph(list(taps), k=graph.k, p=graph.p, mask_mode=graph.mask_mode,
                                   labels=labels)
            for taps in zip(*rest)
        )
        terms.append(gkd_loss([s_graph], [t_graph]))
    return _sum_node(terms)


def per_example_gkd_taps(student_taps, teacher_taps, graph, labels) -> np.ndarray:
    """Each tap's per-example GKD under ``graph``, as a (taps, n) array: row i
    of a tap is row i's share of that tap's ``gkd_tap_loss`` term.

    The pairs that ``gkd_tap_loss`` factors get ``_factored_rows``; every
    other pair gets ``per_example_gkd`` of its two graphs, built one tap at a
    time.
    """
    pairs = _tap_pairs(student_taps, teacher_taps, "per_example_gkd_taps")
    fit, s_side, t_side = _factored_route(pairs, graph)
    rows = np.empty((len(pairs), pairs[0][0].data.shape[0]))
    if fit:
        rows[fit] = _factored_rows(s_side, t_side)
    del s_side, t_side  # the factored stacks are not kept while the graphs are built
    for i, (s, t) in enumerate(pairs):
        if i not in fit:
            rows[i] = per_example_gkd(*(
                build_similarity_graph(x, k=graph.k, p=graph.p, mask_mode=graph.mask_mode,
                                       labels=labels)
                for x in (s.data, t)))
    return rows


def _factored_route(pairs, graph) -> tuple[list[int], tuple | None, tuple | None]:
    """(the indices of the pairs that take the factored form, their student and
    teacher ``_unit_stack`` sides), or ``([], None, None)``: under the dense
    graph, the ``_clamp_free`` pairs, all of them or none by ``_degrees_fit``."""
    n = pairs[0][0].data.shape[0]
    if graph.k == n - 1 and graph.p == 1 and graph.mask_mode == "all":
        fit = [i for i, (s, t) in enumerate(pairs) if _clamp_free(s.data, n) and _clamp_free(t, n)]
        if fit:
            s_side = _unit_stack([pairs[i][0].data for i in fit])
            t_side = _unit_stack([pairs[i][1] for i in fit])
            if _degrees_fit(s_side[3]) and _degrees_fit(t_side[3]):
                return fit, s_side, t_side
    return [], None, None


def _clamp_free(x: np.ndarray, n: int) -> bool:
    """Whether an (n, d) tap has d < n and only finite, non-negative entries
    (a NaN fails both comparisons)."""
    return x.ndim == 2 and x.shape[1] < n and x.min() >= 0.0 and x.max() < np.inf


def _degrees_fit(deg: np.ndarray) -> bool:
    """Whether every nonzero degree of a (taps, n) degree stack is at least 1."""
    return bool(np.all((deg == 0.0) | (deg >= 1.0)))


def _unit_stack(taps) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(U, 1/|x|, c, degrees) of non-negative (n, d_i) taps, zero-padded to one
    width: U = x / |x| row-wise (0 for a zero row), c = U^T 1 as a (taps, 1, d)
    stack, and deg = u . (c - u), the row sums of the cosine graph without its
    diagonal.  Each entry of c is a sum of non-negative terms, so c - u >= 0,
    and it is exactly 0 where a row orthogonal to all others is nonzero: such a
    row's degree is exactly 0.
    """
    x = np.zeros((len(taps), taps[0].shape[0], max(t.shape[1] for t in taps)))
    for out, tap in zip(x, taps):
        out[:, : tap.shape[1]] = tap
    inv_norm = _inv_sqrt(_row_dots(x, x))
    unit = x * inv_norm[..., None]
    c = np.einsum("tnd->td", unit)[:, None, :]
    return unit, inv_norm, c, _row_dots(unit, c - unit)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (taps, n, d) stacks, as a (taps, n) stack."""
    return np.einsum("tnd,tnd->tn", a, b)


def _factored_gkd(students: list[Tensor], s_side, t_side) -> Tensor:
    """Sum over taps of ||A_s - A_t||_F^2 on dense graphs of non-negative taps,
    as one node on the student taps; ``s_side`` and ``t_side`` are
    ``_unit_stack``'s.

    With V = diag(s) U, s = deg^-1/2, and f = |v_s|^2 - |v_t|^2 row-wise, the
    term is ||V_s^T V_s||^2 - 2 ||V_t^T V_s||^2 + ||V_t^T V_t||^2 - ||f||^2,
    and its gradient for V_s is 4 (V_s V_s^T V_s - V_t V_t^T V_s - f * V_s).
    Where a cosine is exactly 0 the graph's W > 0 mask gives slope 0 and this
    node the unclamped one; the two differ only on tap entries equal to 0,
    through which the ReLU that made the tap passes no gradient.
    """
    unit, inv_norm, c, _ = s_side
    s, v, v_t, g_ss, g_ts, g_tt, f = _factored_parts(s_side, t_side)
    # numpy's sums, not vdot, whose bits depend on the BLAS thread count
    value = np.sum(g_ss * g_ss) - 2.0 * np.sum(g_ts * g_ts) + np.sum(g_tt * g_tt) - np.sum(f * f)

    def backward(g: np.ndarray) -> list[np.ndarray]:
        g_v = (4.0 * g) * (v @ g_ss - v_t @ g_ts - f[..., None] * v)
        # V = s U, with s = deg^-1/2 (ds/d deg = -s^3 / 2; 0 at deg 0) and
        # deg_i = u_i . c - |u_i|^2 for c = U^T 1
        h = -0.5 * s * s * s * _row_dots(g_v, unit)
        g_u = g_v * s[..., None] + h[..., None] * (c - 2.0 * unit) + h[:, None, :] @ unit
        # U = x / |x| row-wise
        g_x = inv_norm[..., None] * (g_u - unit * _row_dots(g_u, unit)[..., None])
        return [g_x[i, :, : x.data.shape[1]] for i, x in enumerate(students)]

    return record(value, students, backward)


def _factored_parts(s_side, t_side) -> tuple[np.ndarray, ...]:
    """(s, V_s, V_t, G_ss, G_ts, G_tt, f) of two ``_unit_stack`` sides: s =
    deg^-1/2 of the student side, V = diag(deg^-1/2) U per side, the Grams
    G_ab = V_a^T V_b, and f = |v_s|^2 - |v_t|^2 row-wise."""
    s = _inv_sqrt(s_side[3])
    v = s_side[0] * s[..., None]
    v_t = t_side[0] * _inv_sqrt(t_side[3])[..., None]
    vt_t = np.swapaxes(v_t, 1, 2)
    return (s, v, v_t, np.swapaxes(v, 1, 2) @ v, vt_t @ v, vt_t @ v_t,
            _row_dots(v, v) - _row_dots(v_t, v_t))


def _factored_rows(s_side, t_side) -> np.ndarray:
    """The (taps, n) row sums of (A_s - A_t)^2 on dense graphs of non-negative
    taps, from two ``_unit_stack`` sides.

    Row i of A_s - A_t is V_s v_si - V_t v_ti less its diagonal entry f_i, so
    its squared norm is v_si^T G_ss v_si - 2 v_si^T G_st v_ti +
    v_ti^T G_tt v_ti - f_i^2.  Each term is good to a few ulps, so a row small
    beside ss_i + tt_i (a student's graph near its teacher's) loses about
    log2((ss_i + tt_i) / row_i) bits; roundoff below 0 is set to 0.
    """
    _, v, v_t, g_ss, g_ts, g_tt, f = _factored_parts(s_side, t_side)
    rows = _row_dots(v @ g_ss, v) - 2.0 * _row_dots(v_t @ g_ts, v) + _row_dots(v_t @ g_tt, v_t)
    rows -= f * f
    return np.maximum(rows, 0.0, out=rows)


def _sum_node(terms: list[Tensor], scale: float | None = None) -> Tensor:
    """``(t0 + t1 + ...) * scale`` over 0-d tap terms, as one tape node.

    The values add left to right from the first term, and each term's
    gradient is ``g * scale`` (``g`` with no scale), so values and gradients
    are bitwise equal to ``mul(add(add(t0, t1), ...), scale)``.  One term
    with no scale is returned as it is.
    """
    if scale is None and len(terms) == 1:
        return terms[0]
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
    diff *= diff
    return diff.sum(axis=1)


def per_example_rkdd(student_tap, teacher_tap) -> np.ndarray:
    """Per-example RKD-D attribution: each ordered pair's Huber value is split
    half to each endpoint, then scaled by the pair count so the vector sums to
    the per-tap loss."""
    s = student_tap.data if isinstance(student_tap, Tensor) else student_tap
    t = teacher_tap.data if isinstance(teacher_tap, Tensor) else teacher_tap
    h = _distances(s)[0]
    n = h.shape[0]
    h -= _distances(t)[0]
    # _huber in place: c * (d - c / 2), 0 on the diagonal
    c = np.clip(h, -1.0, 1.0)
    h -= c * 0.5
    h *= c
    return 0.5 * (h.sum(axis=1) + h.sum(axis=0)) / (n * (n - 1))

"""Similarity graphs over batch representations, and a small spectral toolkit.

This module is the graph math alone, on arrays and tensors; it reads and
writes no files (``harness`` writes a graph's edge list).

``build_similarity_graph`` is the one graph pipeline.  It runs the private
stages in order, _cosine -> class_mask -> _knn -> _normalize -> _powers, on
plain arrays.  A masked-out entry is 0 even where the input is infinite or
NaN: the class and top-k masks select with ``_select``, which ANDs each
entry's bits with all ones or all zeros, so a kept entry keeps its bits (NaN,
inf and -0.0 included) and a dropped one is +0.0, exactly as
``np.where(mask, x, 0)``.  Every graph is n x n whatever the width of its
representations, so the pipeline also takes a list of taps and runs each
stage once on their (taps, n, n) stack; one batch is the stack of one.
Given tensors, it records one tape node from the representations to A^p.
Its backward is closed form: the k-NN union W = max(kept, kept^T) of an
exactly symmetric cosine stack keeps each entry or zeroes it, so the entries
with W > 0 carry the gradient and every mask (ReLU, diagonal, class, top-k)
is a constant.

The spectral helpers (laplacian / smoothness / symmetric_eig / fiedler_vector)
are plain-array utilities used on frozen graphs.  They share one input check,
``_square``, and the eigensolver is numpy's LAPACK-backed ``eigh``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, record
from .config import MASK_MODES

_SIGN_EPS = 1e-12  # |component| above this counts as nonzero for sign fixing
_MAX_INV_SQRT = float(np.cbrt(np.finfo(np.float64).max))  # cubes to the largest double


@dataclass
class SimilarityGraph:
    """A sparsified similarity graph and its degree-normalized adjacency.

    ``weights`` holds the symmetric k-NN weight matrix W with a zero
    diagonal; ``adjacency`` holds (D^-1/2 W D^-1/2)^p.  Both are (n, n) for
    one batch and (taps, n, n) for a stack of taps.  ``adjacency_tensor``
    carries the same values on the gradient tape when the graph was built
    from tensors, and is None when it was built from arrays.
    """

    weights: np.ndarray
    adjacency: np.ndarray
    adjacency_tensor: Tensor | None = field(repr=False, default=None)


def _inv_sqrt(x: np.ndarray) -> np.ndarray:
    """1/sqrt(x) where x > 0 and 0 elsewhere, so zero rows stay zero."""
    pos = x > 0
    return np.where(pos, 1.0 / np.sqrt(np.where(pos, x, 1.0)), 0.0)


def _set_diagonal(m: np.ndarray, value) -> None:
    """Set the diagonal of every (n, n) slice of ``m`` in place."""
    diag = np.arange(m.shape[-1])
    m[..., diag, diag] = value


def _swap(m: np.ndarray) -> np.ndarray:
    """Transpose every (n, n) slice of a stack."""
    return np.swapaxes(m, -1, -2)


def _select(keep: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``np.where(keep, x, 0.0)`` for a float64 ``x``, byte for byte.

    Each entry's bit pattern is ANDed with all ones where ``keep`` holds and
    with all zeros elsewhere, so a kept NaN, inf or -0.0 keeps its bits and a
    dropped entry is +0.0.  Unlike ``np.where`` it has no branch per entry,
    which a mask in no regular pattern makes several times slower.  A mask
    that broadcasts over a stack is widened once, at its own shape.
    """
    bits = np.negative(keep, dtype=np.int64)  # -1 is all ones
    if bits.shape == x.shape:
        bits &= x.view(np.int64)
    else:
        bits = x.view(np.int64) & bits
    return bits.view(np.float64)


# ---------------------------------------------------------------------------
# pipeline stages of build_similarity_graph.  They work on (taps, n, n)
# stacks, one batch being the stack of one, and also return what its
# backward needs.


def _cosine(batches) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Return (similarity stack, unit rows, inverse row norms) of same-size batches."""
    xs = [np.asarray(x, dtype=np.float64) for x in batches]
    for x in xs:
        if x.ndim != 2:
            raise ValueError(f"build_similarity_graph: expected a 2-d batch, got shape {x.shape}")
        if x.shape[0] < 2:
            raise ValueError(f"build_similarity_graph: need at least 2 rows, got {x.shape[0]}")
        if x.shape[0] != xs[0].shape[0]:
            raise ValueError(
                f"build_similarity_graph: taps have {xs[0].shape[0]} and {x.shape[0]} rows"
            )
    n = xs[0].shape[0]
    sim = np.empty((len(xs), n, n))
    units, inv_norms = [], []
    for x, out in zip(xs, sim):  # one gram per tap: the widths differ
        inv_norm = _inv_sqrt(np.sum(x * x, axis=1))
        unit = x * inv_norm[:, None]
        np.maximum(unit @ unit.T, 0.0, out=out)  # clamp negative cosine to 0
        units.append(unit)
        inv_norms.append(inv_norm)
    _set_diagonal(sim, 0.0)
    return sim, units, inv_norms


def class_mask(sim, labels, mode: str):
    """Zero out same-class ("inter_class") or cross-class ("intra_class") entries.

    Applied before k-NN sparsification; "all" returns the input unchanged.
    ``sim`` is one (n, n) matrix or a (taps, n, n) stack.
    """
    if mode not in MASK_MODES:
        raise ValueError(f"class_mask: unknown mode {mode!r}, expected one of {MASK_MODES}")
    if mode == "all":
        return sim
    sim = np.asarray(sim, dtype=np.float64)
    labels = np.asarray(labels)
    n = sim.shape[-1]
    if labels.shape != (n,):
        raise ValueError(
            f"class_mask: labels shape {labels.shape} does not match graph size {n}"
        )
    same = labels[:, None] == labels[None, :]
    return _select(~same if mode == "inter_class" else same, sim)


def _topk_mask(sim: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of each row's k kept off-diagonal entries (see ``_knn``),
    for k < n - 1.

    A row whose k-th largest entry is 0 keeps only its positive entries:
    the zeros it would keep add nothing to ``_select(mask, sim)``.
    """
    neg = -sim
    _set_diagonal(neg, np.nan)
    # the k-th smallest negated key; partition sorts NaN last, so it is NaN
    # exactly when the row has fewer than k non-NaN candidates
    kth = np.partition(neg, k - 1, axis=-1)[..., k - 1 : k].copy()
    keep = neg <= kth  # NaN and the diagonal compare False
    # a row keeps exactly k entries unless it ties at the k-th place (more
    # than k) or is short of candidates (none); only those rows are redone
    redo = np.count_nonzero(keep, axis=-1) != k
    # fewer than k positive entries (a dead ReLU row, or a row masked to
    # nothing): no tie fix, as the ties are zeros
    zero = redo & (kth[..., 0] == 0)
    if zero.any():
        keep[zero] = neg[zero] < 0
    rows = np.nonzero(redo & ~zero)
    if rows[0].size:
        neg, kth = neg[rows], kth[rows]
        nan = np.isnan(neg)  # NaN entries and the diagonal
        short = np.isnan(kth)
        above = (neg < kth) | (short & ~nan)
        tied = (neg == kth) | (short & nan)
        tied[np.arange(len(tied)), rows[-1]] = False  # the diagonal
        # the tied entries fill the places left, lowest column first
        room = k - np.count_nonzero(above, axis=-1, keepdims=True)
        keep[rows] = above | (tied & (np.cumsum(tied, axis=-1) <= room))
    return keep


def _knn(sim: np.ndarray, k: int) -> np.ndarray:
    """Keep each row's k largest off-diagonal entries of a (taps, n, n) stack
    and symmetrize by union.

    Each row ranks its off-diagonal entries by value, highest first, with NaN
    below every number (``-inf`` included), and keeps the first k; equal
    values (and NaN against NaN) go to the lower column index first.  The
    diagonal is never kept.  The union W = np.maximum(kept, kept^T)
    propagates NaN.  At k = n - 1 the union is ``sim`` itself: ``_cosine``
    (through ``class_mask``) gives a zero diagonal and an exactly symmetric
    stack, because numpy computes U U^T as a symmetric rank-k update and
    mirrors it.
    """
    n = sim.shape[-1]
    k = int(k)
    if not 1 <= k <= n - 1:
        raise ValueError(f"build_similarity_graph: k={k} outside the valid range [1, {n - 1}]")
    if k == n - 1:  # every off-diagonal entry is kept
        return sim
    kept = _select(_topk_mask(sim, k), sim)
    return np.maximum(kept, _swap(kept))


def _normalize(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Return (D^-1/2 W D^-1/2, d^-1/2, W, shift) per slice, for a W already
    known to be symmetric and non-negative.

    A is the same for any scaling of W, so a slice whose largest d^-1/2 would
    overflow when cubed, as the backward cubes it, is normalized as W 2^shift,
    its largest degree in [0.5, 1); its d^-1/2 and W are returned scaled, and
    a gradient for W is 2^shift times one for the scaled W.  ``shift`` is None
    when no slice is.
    """
    deg = np.sum(w, axis=-1)
    inv_sqrt, shift = _inv_sqrt(deg), None
    if inv_sqrt.max(initial=0.0) > _MAX_INV_SQRT:
        over = inv_sqrt.max(axis=-1) > _MAX_INV_SQRT
        shift = np.where(over, -np.frexp(deg.max(axis=-1))[1], 0)[..., None, None]
        w = np.ldexp(w, shift)  # a power of two: no rounding in the normal range
        inv_sqrt = _inv_sqrt(np.sum(w, axis=-1))
    # scaling by the outer product, not by rows then columns, keeps A exactly
    # symmetric; einsum builds it with the broadcast multiply's bits, faster
    a = np.einsum("...i,...j->...ij", inv_sqrt, inv_sqrt)
    # W's diagonal is +0, so this changes no finite A; a d^-1/2 whose square
    # overflows (a subnormal degree beside normal ones) would make it inf * 0
    _set_diagonal(a, 0.0)
    a *= w
    return a, inv_sqrt, w, shift


def _powers(adjacency: np.ndarray, p: int) -> list[np.ndarray]:
    """Return [A, A^2, ..., A^p], each power the previous one times A."""
    p = int(p)
    if p < 1:
        raise ValueError(f"build_similarity_graph: p must be a positive integer, got {p}")
    powers = [adjacency]
    for _ in range(p - 1):
        powers.append(powers[-1] @ adjacency)
    return powers


def build_similarity_graph(
    reps,
    k: int,
    p: int = 1,
    mask_mode: str = "all",
    labels=None,
) -> SimilarityGraph:
    """Run the full pipeline on one (n, d) batch or on a stack of taps.

    ``reps`` is one batch, or a list or tuple of (n, d_i) taps of the same n
    whose graphs come back stacked: ``weights`` and ``adjacency`` are then
    (taps, n, n).  Each stage runs once per stack.  If any input is a tensor,
    ``adjacency_tensor`` is a single tape node from the inputs to A^p;
    otherwise it is None.
    """
    if mask_mode != "all" and labels is None:
        raise ValueError(f"build_similarity_graph: mask_mode={mask_mode!r} requires labels")
    stacked = isinstance(reps, (list, tuple))
    taps = list(reps) if stacked else [reps]
    if not taps:
        raise ValueError("build_similarity_graph: empty tap list")
    taped = any(isinstance(t, Tensor) for t in taps)
    sim, units, inv_norms = _cosine([t.data if isinstance(t, Tensor) else t for t in taps])
    sim = class_mask(sim, labels, mask_mode)
    w = _knn(sim, k)
    del sim  # the backward does not read it
    a, inv_sqrt, w_scaled, shift = _normalize(w)
    powers = _powers(a, p)
    graph = SimilarityGraph(
        weights=w if stacked else w[0],
        adjacency=powers[-1] if stacked else powers[-1][0],
    )
    if not taped:
        return graph
    parents = [t if isinstance(t, Tensor) else Tensor(t) for t in taps]

    def backward(g: np.ndarray) -> list[np.ndarray]:
        g = g.reshape(w.shape)  # one batch is the stack of one
        # the (taps, n, n) temporaries are updated in place, so that few are
        # alive at once (each is 128 KiB a tap at batch 128); g is never written
        # A^p: A is symmetric, so dA = sum over i of A^i G A^(p-1-i)
        lefts = [None, *powers[:-1]]  # A^0 (None) .. A^(p-1)
        g_a = None
        for left, right in zip(lefts, reversed(lefts)):
            term = g if left is None else left @ g
            term = term if right is None else term @ right
            # the first term is g itself only at p = 1, which has no second
            g_a = term if g_a is None else np.add(g_a, term, out=g_a)
        # A = W * s s^T with s = (W 1)^-1/2, and ds/d(W 1) = -s^3 / 2
        spare = g_a * w_scaled
        g_s = (spare @ inv_sqrt[..., None])[..., 0] + (inv_sqrt[..., None, :] @ spare)[..., 0, :]
        g_w = np.einsum("...i,...j->...ij", inv_sqrt, inv_sqrt, out=spare)
        g_w *= g_a
        del g_a  # at p > 1, a temporary no longer needed
        g_w += (-0.5 * inv_sqrt * inv_sqrt * inv_sqrt * g_s)[..., None]
        # W is the cosine where W > 0, which holds exactly where the ReLU,
        # diagonal, class and top-k (of either endpoint) masks all pass it
        np.multiply(g_w, w > 0, out=g_w)
        if shift is not None:  # the gradient with respect to the unscaled W
            np.ldexp(g_w, shift, out=g_w)
        g_cos = g_w + _swap(g_w)
        # cosine = U U^T with U = x / |x| row-wise, per tap
        grads = []
        for g_tap, unit, inv_norm in zip(g_cos, units, inv_norms):
            g_unit = g_tap @ unit
            radial = np.sum(g_unit * unit, axis=1, keepdims=True)
            grads.append(inv_norm[:, None] * (g_unit - unit * radial))
        return grads

    graph.adjacency_tensor = record(graph.adjacency, parents, backward)
    return graph


# ---------------------------------------------------------------------------
# spectral toolkit (plain arrays)


def _square(m, who: str, symmetric: bool = False) -> np.ndarray:
    """``m`` as a float64 square matrix, else a ValueError naming ``who``; with
    ``symmetric``, also symmetric within 1e-12."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{who}: expected a square matrix, got shape {m.shape}")
    if symmetric and np.max(np.abs(m - m.T), initial=0.0) > 1e-12:
        raise ValueError(f"{who}: matrix is asymmetric beyond 1e-12")
    return m


def laplacian(weights) -> np.ndarray:
    """Combinatorial graph Laplacian L = D - W."""
    w = _square(weights, "laplacian", symmetric=True)
    if np.any(w < 0):
        raise ValueError("laplacian: weight matrix has negative entries")
    return np.diag(w.sum(axis=1)) - w


def smoothness(lap, signal) -> float:
    """Quadratic form s^T L s of an array s, as the edge sum sum_{i<j} W_ij (s_i - s_j)^2.

    The edge-sum form is algebraically identical for a combinatorial
    Laplacian and returns exactly 0.0 for constant signals.
    """
    lap = _square(lap, "smoothness")
    s = np.asarray(signal, dtype=np.float64)
    n = lap.shape[0]
    if s.shape != (n,):
        raise ValueError(f"smoothness: signal shape {s.shape} does not match graph size {n}")
    w_off = -lap.copy()
    np.fill_diagonal(w_off, 0.0)
    diff = s[:, None] - s[None, :]
    return 0.5 * float(np.sum(w_off * diff * diff))


def symmetric_eig(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix by numpy's ``eigh`` (LAPACK).

    Returns (eigenvalues, eigenvectors) with eigenvalues ascending and
    eigenvectors in the matching columns.
    """
    return np.linalg.eigh(_square(matrix, "symmetric_eig", symmetric=True))


def fiedler_vector(lap) -> np.ndarray:
    """Unit eigenvector for the second-smallest Laplacian eigenvalue.

    The sign is fixed so the first component larger than 1e-12 in magnitude
    is positive.  For disconnected graphs the eigenvalue is degenerate and
    the eigensolver's deterministic choice is returned as-is.
    """
    lap = _square(lap, "fiedler_vector")  # symmetric_eig checks the symmetry
    if lap.shape[0] < 2:
        raise ValueError(f"fiedler_vector: need at least 2 nodes, got {lap.shape[0]}")
    _, vecs = symmetric_eig(lap)
    vec = vecs[:, 1].copy()
    vec /= np.linalg.norm(vec)
    for component in vec:
        if abs(component) > _SIGN_EPS:
            if component < 0:
                vec = -vec
            break
    return vec

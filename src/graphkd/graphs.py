"""Similarity graphs over batch representations, and a small spectral toolkit.

Pipeline (in order): cosine_similarity_matrix -> class_mask -> knn_sparsify
-> degree_normalize -> adjacency_power.  The pipeline functions accept either
plain arrays or :class:`~graphkd.autodiff.Tensor` inputs and return the same
kind; with a tensor input the graph weights stay on the gradient tape, while
discrete choices (k-NN topology, class masks, tie-breaks) are always treated
as constants during backward.  Masks are applied with ``autodiff.where``, so
a masked-out entry is 0 even where the input is infinite or NaN.

The spectral helpers (laplacian / smoothness / symmetric_eig / fiedler_vector)
are plain-array utilities used on frozen graphs; the eigensolver is numpy's
LAPACK-backed ``eigh``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    Tensor,
    div,
    matmul,
    mul,
    relu,
    sqrt,
    square,
    transpose,
    where,
)

__all__ = [
    "GraphParams",
    "GraphSignal",
    "SimilarityGraph",
    "MASK_MODES",
    "cosine_similarity_matrix",
    "class_mask",
    "knn_sparsify",
    "degree_normalize",
    "adjacency_power",
    "build_similarity_graph",
    "laplacian",
    "smoothness",
    "symmetric_eig",
    "fiedler_vector",
    "dump_graph_csv",
]

MASK_MODES = ("all", "inter_class", "intra_class")

_SIGN_EPS = 1e-12  # |component| above this counts as nonzero for sign fixing


@dataclass(frozen=True)
class GraphParams:
    """Construction parameters of a similarity graph."""

    k: int
    p: int = 1
    mask_mode: str = "all"


@dataclass
class GraphSignal:
    """A real-valued signal on graph nodes."""

    s: np.ndarray
    name: str = "signal"


@dataclass
class SimilarityGraph:
    """A sparsified similarity graph and its degree-normalized adjacency.

    ``weights`` holds the symmetric k-NN weight matrix W with a zero
    diagonal; ``adjacency`` holds (D^-1/2 W D^-1/2)^p.  ``adjacency_tensor``
    carries the same values and stays on the gradient tape when the graph was
    built from representations that require gradients.
    """

    n: int
    weights: np.ndarray
    adjacency: np.ndarray
    params: GraphParams
    adjacency_tensor: Tensor = field(repr=False, default=None)


def _as_tensor(x) -> tuple[Tensor, bool]:
    if isinstance(x, Tensor):
        return x, False
    return Tensor(np.asarray(x, dtype=np.float64)), True


def _maybe_data(t: Tensor, want_array: bool):
    return t.data if want_array else t


def _inv_sqrt(x: Tensor) -> Tensor:
    """1/sqrt(x) where x > 0 and 0 elsewhere, so zero rows stay zero."""
    pos = x.data > 0
    return where(pos, div(1.0, sqrt(where(pos, x, 1.0))), 0.0)


# ---------------------------------------------------------------------------
# pipeline stages


def cosine_similarity_matrix(reps):
    """Pairwise cosine similarity with negatives clamped to 0 and a zero diagonal.

    Rows with zero norm get similarity 0 against everything.
    """
    t, want_array = _as_tensor(reps)
    if t.data.ndim != 2:
        raise ValueError(f"cosine_similarity_matrix: expected a 2-d batch, got shape {t.data.shape}")
    n = t.data.shape[0]
    if n < 2:
        raise ValueError(f"cosine_similarity_matrix: need at least 2 rows, got {n}")

    unit = mul(t, _inv_sqrt(square(t).sum(axis=1)).reshape((n, 1)))
    sim = relu(matmul(unit, transpose(unit)))  # clamp negative cosine to 0
    return _maybe_data(where(~np.eye(n, dtype=bool), sim, 0.0), want_array)


def class_mask(sim, labels, mode: str):
    """Zero out same-class ("inter_class") or cross-class ("intra_class") entries.

    Applied before k-NN sparsification; "all" returns the input unchanged.
    """
    if mode not in MASK_MODES:
        raise ValueError(f"class_mask: unknown mode {mode!r}, expected one of {MASK_MODES}")
    if mode == "all":
        return sim
    t, want_array = _as_tensor(sim)
    labels = np.asarray(labels)
    n = t.data.shape[0]
    if labels.shape != (n,):
        raise ValueError(
            f"class_mask: labels shape {labels.shape} does not match graph size {n}"
        )
    same = labels[:, None] == labels[None, :]
    keep = ~same if mode == "inter_class" else same
    return _maybe_data(where(keep, t, 0.0), want_array)


def _topk_mask(sim: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of each row's k kept off-diagonal entries (see knn_sparsify)."""
    n = sim.shape[0]
    if k == n - 1:
        return ~np.eye(n, dtype=bool)
    neg = -sim
    np.fill_diagonal(neg, np.nan)
    nan = np.isnan(neg)  # NaN entries and the diagonal
    # the k-th smallest negated key; partition sorts NaN last, so it is NaN
    # exactly when the row has fewer than k non-NaN candidates
    kth = np.partition(neg, k - 1, axis=1)[:, k - 1 : k]
    short = np.isnan(kth)
    above = (neg < kth) | (short & ~nan)
    tied = (neg == kth) | (short & nan)
    np.fill_diagonal(tied, False)
    # rows with more tied entries than places left keep the lowest columns
    room = k - np.count_nonzero(above, axis=1)
    over = np.flatnonzero(np.count_nonzero(tied, axis=1) > room)
    tied[over] &= np.cumsum(tied[over], axis=1) <= room[over, None]
    return above | tied


def knn_sparsify(sim, k: int):
    """Keep each row's k largest off-diagonal entries and symmetrize by union.

    Each row ranks its off-diagonal entries by value, highest first, with NaN
    below every number (``-inf`` included), and keeps the first k; equal
    values (and NaN against NaN) go to the lower column index first.  The
    diagonal is never kept.  The union W = max(kept, kept^T) propagates NaN
    like ``np.maximum``; when the input and the kept topology are both
    exactly symmetric, it is the kept matrix itself.  The kept topology is a
    constant on the tape: gradients flow only through the surviving weights.
    """
    t, want_array = _as_tensor(sim)
    n = t.data.shape[0]
    if t.data.ndim != 2 or t.data.shape[1] != n:
        raise ValueError(f"knn_sparsify: expected a square matrix, got shape {t.data.shape}")
    k = int(k)
    if not 1 <= k <= n - 1:
        raise ValueError(f"knn_sparsify: k={k} outside the valid range [1, {n - 1}]")

    mask = _topk_mask(t.data, k)
    kept = where(mask, t, 0.0)
    if np.array_equal(mask, mask.T) and np.array_equal(t.data, t.data.T):
        return _maybe_data(kept, want_array)
    # the selector is a constant, so the gradient flows through the winner
    choose = (kept.data >= kept.data.T) | np.isnan(kept.data)
    w = where(choose, kept, transpose(kept))
    return _maybe_data(w, want_array)


def degree_normalize(weights):
    """Return A = D^-1/2 W D^-1/2; zero-degree nodes map to all-zero rows/columns."""
    t, want_array = _as_tensor(weights)
    n = _weights_array(t).shape[0]
    inv_sqrt = _inv_sqrt(t.sum(axis=1))
    # scaling by the outer product, not by rows then columns, keeps A exactly symmetric
    scale = mul(inv_sqrt.reshape((n, 1)), inv_sqrt.reshape((1, n)))
    return _maybe_data(mul(t, scale), want_array)


def adjacency_power(adjacency, p: int):
    """Left-associated matrix power A^p; p=1 returns the input unchanged."""
    p = int(p)
    if p < 1:
        raise ValueError(f"adjacency_power: p must be a positive integer, got {p}")
    if p == 1:
        return adjacency
    t, want_array = _as_tensor(adjacency)
    n = t.data.shape[0]
    if t.data.ndim != 2 or t.data.shape[1] != n:
        raise ValueError(f"adjacency_power: expected a square matrix, got shape {t.data.shape}")
    out = t
    for _ in range(p - 1):
        out = matmul(out, t)
    return _maybe_data(out, want_array)


def build_similarity_graph(
    reps,
    k: int,
    p: int = 1,
    mask_mode: str = "all",
    labels=None,
) -> SimilarityGraph:
    """Run the full pipeline on a batch of representations."""
    t, _ = _as_tensor(reps)
    n = t.data.shape[0]
    if mask_mode != "all" and labels is None:
        raise ValueError(f"build_similarity_graph: mask_mode={mask_mode!r} requires labels")
    sim = cosine_similarity_matrix(t)
    sim = class_mask(sim, labels, mask_mode)
    w = knn_sparsify(sim, k)
    a = degree_normalize(w)
    a_p = adjacency_power(a, p)
    return SimilarityGraph(
        n=n,
        weights=w.data,
        adjacency=a_p.data,
        params=GraphParams(k=int(k), p=int(p), mask_mode=mask_mode),
        adjacency_tensor=a_p,
    )


# ---------------------------------------------------------------------------
# spectral toolkit (plain arrays)


def _weights_array(w) -> np.ndarray:
    w = w.data if isinstance(w, Tensor) else np.asarray(w, dtype=np.float64)
    n = w.shape[0]
    if w.ndim != 2 or w.shape[1] != n:
        raise ValueError(f"expected a square weight matrix, got shape {w.shape}")
    if np.max(np.abs(w - w.T), initial=0.0) > 1e-12:
        raise ValueError("weight matrix is not symmetric")
    if np.any(w < 0):
        raise ValueError("weight matrix has negative entries")
    return w


def laplacian(weights) -> np.ndarray:
    """Combinatorial graph Laplacian L = D - W."""
    w = _weights_array(weights)
    return np.diag(w.sum(axis=1)) - w


def smoothness(lap, signal) -> float:
    """Quadratic form s^T L s, evaluated as the edge sum sum_{i<j} W_ij (s_i - s_j)^2.

    The edge-sum form is algebraically identical for a combinatorial
    Laplacian and returns exactly 0.0 for constant signals.
    """
    lap = np.asarray(lap, dtype=np.float64)
    s = signal.s if isinstance(signal, GraphSignal) else np.asarray(signal, dtype=np.float64)
    n = lap.shape[0]
    if lap.ndim != 2 or lap.shape[1] != n:
        raise ValueError(f"smoothness: expected a square Laplacian, got shape {lap.shape}")
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
    m = np.asarray(matrix, dtype=np.float64)
    n = m.shape[0]
    if m.ndim != 2 or m.shape[1] != n:
        raise ValueError(f"symmetric_eig: expected a square matrix, got shape {m.shape}")
    if np.max(np.abs(m - m.T), initial=0.0) > 1e-12:
        raise ValueError("symmetric_eig: matrix is asymmetric beyond 1e-12")
    return np.linalg.eigh(m)


def fiedler_vector(lap) -> GraphSignal:
    """Unit eigenvector for the second-smallest Laplacian eigenvalue.

    The sign is fixed so the first component larger than 1e-12 in magnitude
    is positive.  For disconnected graphs the eigenvalue is degenerate and
    the eigensolver's deterministic choice is returned as-is.
    """
    lap = np.asarray(lap, dtype=np.float64)
    n = lap.shape[0]
    if n < 2:
        raise ValueError(f"fiedler_vector: need at least 2 nodes, got {n}")
    _, vecs = symmetric_eig(lap)
    vec = vecs[:, 1].copy()
    vec /= np.linalg.norm(vec)
    for component in vec:
        if abs(component) > _SIGN_EPS:
            if component < 0:
                vec = -vec
            break
    return GraphSignal(s=vec, name="fiedler")


# ---------------------------------------------------------------------------
# serialization


def dump_graph_csv(graph: SimilarityGraph, edges_path, params_path) -> None:
    """Write the upper-triangle edge list (i,j,weight) plus a JSON param sidecar.

    Each file appears only once complete (see ``models.atomic_open``).
    """
    from .models import atomic_open  # models imports config, which imports this module

    w = graph.weights
    with atomic_open(edges_path) as fh, io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
        writer = csv.writer(text)
        writer.writerow(["i", "j", "weight"])
        for i in range(graph.n):
            for j in range(i + 1, graph.n):
                if w[i, j] != 0.0:
                    writer.writerow([i, j, repr(float(w[i, j]))])
    sidecar = {
        "n": graph.n,
        "k": graph.params.k,
        "p": graph.params.p,
        "mask_mode": graph.params.mask_mode,
    }
    with atomic_open(params_path) as fh:
        fh.write((json.dumps(sidecar, indent=2, sort_keys=True) + "\n").encode("utf-8"))

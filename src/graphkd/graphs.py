"""Similarity graphs over batch representations, and a small spectral toolkit.

Pipeline (in order): cosine_similarity_matrix -> class_mask -> knn_sparsify
-> degree_normalize -> adjacency_power.  The pipeline functions accept either
plain arrays or :class:`~graphkd.autodiff.Tensor` inputs and return the same
kind; with a tensor input the graph weights stay on the gradient tape, while
discrete choices (k-NN topology, class masks, tie-breaks) are always treated
as constants during backward.

The spectral helpers (laplacian / smoothness / symmetric_eig / fiedler_vector)
are plain-array utilities used on frozen graphs; the eigensolver is numpy's
LAPACK-backed ``eigh``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import (
    Tensor,
    add,
    div,
    matmul,
    mul,
    relu,
    sqrt,
    square,
    transpose,
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


# ---------------------------------------------------------------------------
# pipeline stages


def cosine_similarity_matrix(reps):
    """Pairwise cosine similarity with negatives clamped to 0 and a zero diagonal.

    Rows with zero norm get similarity 0 against everything.
    """
    t, want_array = _as_tensor(reps)
    if t.data.ndim != 2:
        raise ValueError(f"cosine_similarity_matrix: expected a 2-d batch, got shape {t.data.shape}")
    n, d = t.data.shape
    if n < 2:
        raise ValueError(f"cosine_similarity_matrix: need at least 2 rows, got {n}")

    sq_norms = square(t).sum(axis=1)
    pos = (sq_norms.data > 0).astype(np.float64)
    # 1/||r_i|| where the norm is positive, 0 for all-zero rows; the +(1-pos)
    # shift keeps the division finite and is masked back out afterwards.
    safe = add(sq_norms, Tensor(1.0 - pos))
    inv_norm = mul(div(1.0, sqrt(safe)), Tensor(pos))
    scale = matmul(inv_norm.reshape((n, 1)), Tensor(np.ones((1, d))))
    unit = mul(t, scale)
    sim = matmul(unit, transpose(unit))
    sim = relu(sim)  # clamp negative cosine to 0
    sim = mul(sim, Tensor(1.0 - np.eye(n)))
    return _maybe_data(sim, want_array)


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
    keep = (~same if mode == "inter_class" else same).astype(np.float64)
    return _maybe_data(mul(t, Tensor(keep)), want_array)


def knn_sparsify(sim, k: int):
    """Keep each row's k largest off-diagonal entries and symmetrize by union.

    Ties are broken toward the lower column index.  The kept topology is a
    constant on the tape: gradients flow only through the surviving weights.
    """
    t, want_array = _as_tensor(sim)
    n = t.data.shape[0]
    if t.data.ndim != 2 or t.data.shape[1] != n:
        raise ValueError(f"knn_sparsify: expected a square matrix, got shape {t.data.shape}")
    k = int(k)
    if not 1 <= k <= n - 1:
        raise ValueError(f"knn_sparsify: k={k} outside the valid range [1, {n - 1}]")

    keyed = t.data.copy()
    np.fill_diagonal(keyed, -np.inf)
    # stable argsort of the negated row keeps the lower index first on ties
    order = np.argsort(-keyed, axis=1, kind="stable")
    kept_mask = np.zeros((n, n))
    np.put_along_axis(kept_mask, order[:, :k], 1.0, axis=1)

    kept = mul(t, Tensor(kept_mask))
    # union-symmetrize: W = max(kept, kept^T), realized with a constant
    # selector so it stays differentiable through the winning entry
    choose = (kept.data >= kept.data.T).astype(np.float64)
    w = add(mul(kept, Tensor(choose)), mul(transpose(kept), Tensor(1.0 - choose)))
    return _maybe_data(w, want_array)


def degree_normalize(weights):
    """Return A = D^-1/2 W D^-1/2; zero-degree nodes map to all-zero rows/columns."""
    t, want_array = _as_tensor(weights)
    n = _weights_array(t).shape[0]
    deg = t.sum(axis=1)
    pos = (deg.data > 0).astype(np.float64)
    safe = add(deg, Tensor(1.0 - pos))
    inv_sqrt = mul(div(1.0, sqrt(safe)), Tensor(pos))
    scale = matmul(inv_sqrt.reshape((n, 1)), inv_sqrt.reshape((1, n)))
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
    """Write the upper-triangle edge list (i,j,weight) plus a JSON param sidecar."""
    edges_path = Path(edges_path)
    params_path = Path(params_path)
    w = graph.weights
    with edges_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
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
    params_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")

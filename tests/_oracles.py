"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the slow, obvious way (explicit
loops, per-pair arithmetic) so it shares no code path with the package.
The one exception is ``broadcast_degree_normalize``, a bitwise reference:
the form that ``graphs._normalize`` had before its outer product became an
einsum.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# finite differences


def fd_gradient(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        hi = x.copy()
        lo = x.copy()
        hi[idx] += step
        lo[idx] -= step
        grad[idx] = (f(hi) - f(lo)) / (2.0 * step)
    return grad


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray, rtol=1e-4, atol=1e-7):
    """Relative comparison with a small absolute floor for near-zero entries."""
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


# ---------------------------------------------------------------------------
# brute-force similarity-graph pipeline


def oracle_cosine(reps: np.ndarray) -> np.ndarray:
    reps = np.asarray(reps, dtype=np.float64)
    n = reps.shape[0]
    sim = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            ni = np.linalg.norm(reps[i])
            nj = np.linalg.norm(reps[j])
            if ni == 0.0 or nj == 0.0:
                continue
            value = float(np.dot(reps[i], reps[j]) / (ni * nj))
            sim[i, j] = max(value, 0.0)
    return sim


def oracle_class_mask(sim: np.ndarray, labels, mode: str) -> np.ndarray:
    if mode == "all":
        return sim.copy()
    labels = np.asarray(labels)
    out = sim.copy()
    n = sim.shape[0]
    for i in range(n):
        for j in range(n):
            same = labels[i] == labels[j]
            if (mode == "inter_class" and same) or (mode == "intra_class" and not same):
                out[i, j] = 0.0
    return out


def oracle_topk_union(sim: np.ndarray, k: int) -> np.ndarray:
    n = sim.shape[0]
    kept = np.zeros_like(sim)
    for i in range(n):
        candidates = [j for j in range(n) if j != i]
        candidates.sort(key=lambda j: (-sim[i, j], j))
        for j in candidates[:k]:
            kept[i, j] = sim[i, j]
    return np.maximum(kept, kept.T)


def oracle_degree_normalize(w: np.ndarray) -> np.ndarray:
    n = w.shape[0]
    deg = w.sum(axis=1)
    out = np.zeros_like(w)
    for i in range(n):
        for j in range(n):
            if deg[i] > 0 and deg[j] > 0:
                out[i, j] = w[i, j] / np.sqrt(deg[i] * deg[j])
    return out


def broadcast_degree_normalize(w: np.ndarray) -> np.ndarray:
    """D^-1/2 W D^-1/2 of an (n, n) W or a (taps, n, n) stack, with the degree
    outer product as a broadcast multiply; zero-degree rows stay zero."""
    deg = np.sum(w, axis=-1)
    pos = deg > 0
    s = np.where(pos, 1.0 / np.sqrt(np.where(pos, deg, 1.0)), 0.0)
    a = s[..., :, None] * s[..., None, :]
    a *= w
    return a


def oracle_power(a: np.ndarray, p: int) -> np.ndarray:
    out = a.copy()
    for _ in range(p - 1):
        out = out @ a
    return out


def oracle_pipeline(reps, k, p=1, mask_mode="all", labels=None):
    sim = oracle_cosine(reps)
    sim = oracle_class_mask(sim, labels, mask_mode)
    w = oracle_topk_union(sim, k)
    return w, oracle_power(oracle_degree_normalize(w), p)


# ---------------------------------------------------------------------------
# loss references


def oracle_huber(x: float, y: float) -> float:
    d = abs(x - y)
    return 0.5 * d * d if d <= 1.0 else d - 0.5


def oracle_normalized_distances(reps: np.ndarray) -> np.ndarray:
    reps = np.asarray(reps, dtype=np.float64)
    n = reps.shape[0]
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                dist[i, j] = np.linalg.norm(reps[i] - reps[j])
    mean = dist.sum() / (n * (n - 1))
    if mean == 0.0:
        return np.zeros((n, n))
    return dist / mean


def oracle_rkdd(student_taps, teacher_taps) -> float:
    n = np.asarray(student_taps[0]).shape[0]
    total = 0.0
    for s, t in zip(student_taps, teacher_taps):
        ds = oracle_normalized_distances(np.asarray(s, dtype=np.float64))
        dt = oracle_normalized_distances(np.asarray(t, dtype=np.float64))
        for i in range(n):
            for j in range(n):
                if i != j:
                    total += oracle_huber(ds[i, j], dt[i, j])
    return total / (n * (n - 1))


def oracle_ikd(student_taps, teacher_taps) -> float:
    total = 0.0
    n = np.asarray(student_taps[0]).shape[0]
    for s, t in zip(student_taps, teacher_taps):
        diff = np.asarray(s, dtype=np.float64) - np.asarray(t, dtype=np.float64)
        total += float((diff * diff).sum())
    return total / (n * len(student_taps))


def oracle_distances(reps: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The pairwise-distance formula as ``losses._distances`` first wrote it,
    one new array per step; the in-place version must match it bit for bit."""
    x = np.asarray(reps, dtype=np.float64)
    n = x.shape[0]
    gram = x @ x.T
    sq = np.diag(gram)
    d2 = (sq[None, :] + sq[:, None]) - gram * 2.0
    dist = np.sqrt(np.maximum(d2, 0.0))
    np.fill_diagonal(dist, 0.0)
    mean = np.sum(dist) * (1.0 / (n * (n - 1)))
    if mean == 0.0:
        return np.zeros_like(dist), dist, mean
    return dist / mean, dist, mean


def oracle_task_loss(logits: np.ndarray, labels) -> float:
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    total = 0.0
    for row, label in zip(logits, labels):
        shifted = row - row.max()
        total -= shifted[label] - np.log(np.exp(shifted).sum())
    return total / len(labels)


# ---------------------------------------------------------------------------
# probe reference


def oracle_probe_fit(features, labels, num_classes, iterations=500, learning_rate=0.1):
    """One logistic probe fit on its own, in the (n, C) layout: the loop that
    ``LogisticProbe.fit`` ran before probes were fit in lockstep.
    Returns (weights, bias)."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n, dim = x.shape
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), y] = 1.0
    w = np.zeros((dim, num_classes))
    b = np.zeros(num_classes)
    for iteration in range(iterations):
        z = x @ w + b
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        probs = e / e.sum(axis=1, keepdims=True)
        eps_loss = -np.mean(np.log(probs[np.arange(n), y] + 1e-300))
        if not np.isfinite(eps_loss):
            raise RuntimeError(
                f"probe diverged at iteration {iteration}: loss={eps_loss}, "
                f"max|w|={np.abs(w).max()}"
            )
        resid = (probs - onehot) / n
        w = w - learning_rate * (x.T @ resid)
        b = b - learning_rate * resid.sum(axis=0)
    return w, b


# ---------------------------------------------------------------------------
# random instances with stable discrete structure


def separated_reps(
    rng: np.random.Generator,
    n: int,
    d: int,
    k: int,
    margin: float = 1e-3,
    max_tries: int = 500,
) -> np.ndarray:
    """Random representations whose k-NN topology is stable under FD probes.

    Rejects draws with near-tied top-k boundaries, near-zero cosine entries
    (the clamp kink), or off-diagonal cosine ties.
    """
    for _ in range(max_tries):
        reps = rng.uniform(-2.0, 2.0, size=(n, d))
        norms = np.linalg.norm(reps, axis=1)
        if norms.min() < 0.3:
            continue
        sim = oracle_cosine(reps)
        raw = (reps / norms[:, None]) @ (reps / norms[:, None]).T
        np.fill_diagonal(raw, 0.0)
        if np.min(np.abs(raw[~np.eye(n, dtype=bool)])) < margin:
            continue  # too close to the clamp boundary at 0
        stable = True
        for i in range(n):
            row = np.sort(sim[i][np.arange(n) != i])[::-1]
            # a boundary tie only destabilizes the graph when the kept value
            # is nonzero; edges clamped to 0 carry no weight either way
            if k < n - 1 and row[k - 1] > 0.0 and row[k - 1] - row[k] < margin:
                stable = False
                break
        if not stable:
            continue
        upper = sim[np.triu_indices(n, k=1)]
        pos = upper[upper > 0.0]
        diffs = np.abs(pos[:, None] - pos[None, :])
        np.fill_diagonal(diffs, np.inf)
        if diffs.size and diffs.min() < 1e-9:
            continue  # ties among distinct kept weights would be FD-unstable
        return reps
    raise RuntimeError("could not draw a separated representation batch")

"""RKD-D's Huber branch as the package first wrote it: the bitwise references
for ``losses._huber``, ``losses._rkdd_tap`` and ``losses.per_example_rkdd``.

The package states the Huber branch once, as ``c = clip(d, -1, 1)``: the
penalty is ``c * (d - c / 2)`` and the slope is ``c``.  The forms here
write it twice, the penalty as ``where(|d| <= 1, d^2 / 2, |d| - 1/2)`` and
the slope as ``where(|d| <= 1, d, sign(d))``, and the node's backward
symmetrizes with ``g + g.T`` where the package doubles.  The tests compare
the package's values and gradients against them, bit for bit.  They build on
the package's ``record`` and ``_distances`` alone.
"""

from __future__ import annotations

import numpy as np

from graphkd.autodiff import Tensor, record
from graphkd.losses import _distances


def huber(d: np.ndarray) -> np.ndarray:
    return np.where(np.abs(d) <= 1.0, (d * d) * 0.5, np.abs(d) - 0.5)


def huber_slope(d: np.ndarray) -> np.ndarray:
    return np.where(np.abs(d) <= 1.0, d, np.sign(d))


def rkdd_tap(student: Tensor, teacher: np.ndarray) -> Tensor:
    x = student.data
    ds, dist, mean = _distances(x)
    d = ds - _distances(teacher)[0]
    n = x.shape[0]

    def backward(g: np.ndarray) -> tuple[np.ndarray]:
        if mean == 0.0:
            return (np.zeros_like(x),)
        g_ds = g * huber_slope(d)
        g_dist = (g_ds - np.sum(g_ds * ds) / (n * (n - 1))) / mean
        g_d2 = np.divide(0.5 * g_dist, dist, out=np.zeros_like(dist), where=dist > 0)
        sym = g_d2 + g_d2.T
        return (2.0 * (np.sum(sym, axis=1)[:, None] * x - sym @ x),)

    return record(np.sum(huber(d)), (student,), backward)


def per_example_rkdd(student: np.ndarray, teacher: np.ndarray) -> np.ndarray:
    ds = _distances(student)[0]
    n = ds.shape[0]
    h = huber(ds - _distances(teacher)[0])
    return 0.5 * (h.sum(axis=1) + h.sum(axis=0)) / (n * (n - 1))

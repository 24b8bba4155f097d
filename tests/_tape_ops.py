"""The generic tape ops: the bitwise references for the package's fused nodes.

Each model layer, the task loss, each KD term, the KD sum over taps and the
training step's total loss are one hand-written ``record`` node in the
package.  The ops here are the generic chains those nodes were fused from,
and the tests compare the nodes' values and gradients against them, bit for
bit.  They build on the package's ``record`` alone.

The elementwise ops (add, sub, mul, where) broadcast their operands by
numpy's rules, and each operand's gradient is summed back over the axes it
was broadcast along; ``matmul`` stays rank-2.  Masking is ``where`` with a
constant boolean mask, never a multiply by 0/1.  ``total`` is the sum of a
tensor's entries, or of one axis.
"""

from __future__ import annotations

import numpy as np

from graphkd.autodiff import Tensor, record


def _coerce(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def total(t: Tensor, axis: int | None = None) -> Tensor:
    if axis is not None and not 0 <= axis < t.data.ndim:
        raise ValueError(f"sum: axis {axis} out of range for rank {t.data.ndim}")
    shape = t.data.shape

    def bw(g: np.ndarray):
        return (np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape),)

    return record(np.sum(t.data, axis=axis), (t,), bw)


def _check_elementwise(a: Tensor, b: Tensor, op: str) -> tuple[int, ...]:
    """Return the broadcast shape of two operands, or raise naming both shapes."""
    if a.data.shape == b.data.shape or b.data.ndim == 0:
        return a.data.shape  # the common cases, without broadcast_shapes' cost
    try:
        return np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ValueError(
            f"{op}: shapes {a.data.shape} and {b.data.shape} do not broadcast"
        ) from None


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back onto an operand's shape."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, n in enumerate(shape) if n == 1 and g.shape[lead + i] != 1
    )
    return np.sum(g, axis=axes).reshape(shape)


# ---------------------------------------------------------------------------
# operations


def _binary(a: Tensor, b: Tensor, data: np.ndarray, da, db) -> Tensor:
    """Record a two-operand op; ``da``/``db`` map the output gradient to each
    operand's, and run only for an operand that requires a gradient."""

    def bw(g: np.ndarray):
        return (
            _reduce_to(da(g), a.data.shape) if a.requires_grad else None,
            _reduce_to(db(g), b.data.shape) if b.requires_grad else None,
        )

    return record(data, (a, b), bw)


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _check_elementwise(a, b, "add")
    return _binary(a, b, a.data + b.data, lambda g: g, lambda g: g)


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _check_elementwise(a, b, "sub")
    return _binary(a, b, a.data - b.data, lambda g: g, lambda g: -g)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _check_elementwise(a, b, "mul")
    return _binary(a, b, a.data * b.data, lambda g: g * b.data, lambda g: g * a.data)


def relu(t) -> Tensor:
    a = _coerce(t)
    mask = a.data > 0  # subgradient at 0 is 0
    return record(np.maximum(a.data, 0.0), (a,), lambda g: (g * mask,))


def square(t) -> Tensor:
    a = _coerce(t)
    return record(a.data * a.data, (a,), lambda g: (g * (2.0 * a.data),))


def where(cond, a, b) -> Tensor:
    """Take ``a`` where the constant mask ``cond`` holds and ``b`` elsewhere.

    ``a`` and ``b`` broadcast against each other; ``cond`` must have the
    result's shape.  Unlike masking by multiplication, an unselected infinite
    entry does not turn into NaN.
    """
    a, b = _coerce(a), _coerce(b)
    shape = _check_elementwise(a, b, "where")
    cond = np.asarray(cond, dtype=bool)
    if cond.shape != shape:
        raise ValueError(f"where: mask shape {cond.shape} does not match operands {shape}")
    return _binary(
        a, b, np.where(cond, a.data, b.data), lambda g: g * cond, lambda g: g * ~cond
    )


def matmul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(
            f"matmul: expected rank-2 operands, got shapes {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(
            f"matmul: inner dimensions disagree: {a.data.shape} @ {b.data.shape}"
        )

    return _binary(a, b, a.data @ b.data, lambda g: g @ b.data.T, lambda g: a.data.T @ g)


def log_softmax(t) -> Tensor:
    """Row-wise log-softmax of a rank-2 tensor (numerically stabilized)."""
    a = _coerce(t)
    if a.data.ndim != 2:
        raise ValueError(f"log_softmax: expected a rank-2 tensor, got shape {a.data.shape}")
    z = a.data - np.max(a.data, axis=1, keepdims=True)
    out_data = z - np.log(np.sum(np.exp(z), axis=1, keepdims=True))

    def bw(g: np.ndarray):
        return (g - np.exp(out_data) * np.sum(g, axis=1, keepdims=True),)

    return record(out_data, (a,), bw)

"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine keeps a dynamic tape: every operation whose inputs require
gradients records a backward rule, and ``backward`` replays those rules in
reverse topological order.  The elementwise ops (add, sub, mul, div, where)
broadcast their operands by numpy's rules, and each operand's gradient is
summed back over the axes it was broadcast along; ``matmul`` stays rank-2.
Masking is ``where`` with a constant boolean mask, never a multiply by 0/1.

A tape (and the tensors recorded on it) belongs to a single thread.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "Tensor",
    "add",
    "sub",
    "mul",
    "div",
    "matmul",
    "transpose",
    "reshape",
    "relu",
    "square",
    "sqrt",
    "clamp_min",
    "where",
    "exp",
    "log",
    "log_softmax",
    "backward",
    "zero_grads",
]


class Tensor:
    """A float64 array plus an optional slot on the gradient tape.

    Leaf tensors created with ``requires_grad=True`` start with a zero
    ``grad`` so that "loss does not depend on x" reads as a zero gradient
    rather than a missing one.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = (
            np.zeros_like(self.data) if self.requires_grad else None
        )
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- introspection -------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # -- operator sugar ------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

    def sum(self, axis: int | None = None) -> "Tensor":
        _check_axis(self, axis, "sum")
        a = self

        def bw(g: np.ndarray) -> None:
            _accumulate(a, _spread(g, a.data.shape, axis))

        return _make(np.sum(a.data, axis=axis), (a,), bw)

    def mean(self, axis: int | None = None) -> "Tensor":
        _check_axis(self, axis, "mean")
        a = self
        extent = a.data.size if axis is None else a.data.shape[axis]

        def bw(g: np.ndarray) -> None:
            _accumulate(a, _spread(g, a.data.shape, axis) / extent)

        return _make(np.mean(a.data, axis=axis), (a,), bw)

    def max(self, axis: int | None = None) -> "Tensor":
        """Reduce by maximum; the gradient flows to the first maximal entry."""
        _check_axis(self, axis, "max")
        a = self

        def bw(g: np.ndarray) -> None:
            gx = np.zeros_like(a.data)
            if axis is None:
                idx = np.unravel_index(np.argmax(a.data), a.data.shape)
                gx[idx] = np.asarray(g).reshape(())
            else:
                idx = np.expand_dims(np.argmax(a.data, axis=axis), axis)
                np.put_along_axis(gx, idx, np.expand_dims(g, axis), axis)
            _accumulate(a, gx)

        return _make(np.max(a.data, axis=axis), (a,), bw)

    def backward(self) -> None:
        backward(self)


# ---------------------------------------------------------------------------
# tape plumbing


def _coerce(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _make(
    data: np.ndarray,
    parents: tuple[Tensor, ...],
    bw: Callable[[np.ndarray], None],
) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.grad = None  # filled during backward
        out._parents = parents
        out._backward = bw
    return out

def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad = t.grad + g


def _check_axis(t: Tensor, axis: int | None, op: str) -> None:
    if axis is not None and not 0 <= axis < t.data.ndim:
        raise ValueError(f"{op}: axis {axis} out of range for rank {t.data.ndim}")


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


def _spread(g: np.ndarray, shape: tuple[int, ...], axis: int | None) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape)
    return np.broadcast_to(np.expand_dims(g, axis), shape)


# ---------------------------------------------------------------------------
# elementwise operations


def _binary(a: Tensor, b: Tensor, data: np.ndarray, da, db) -> Tensor:
    """Record a two-operand op; ``da``/``db`` map the output gradient to each
    operand's, and run only for an operand that requires a gradient."""

    def bw(g: np.ndarray) -> None:
        for t, d in ((a, da), (b, db)):
            if t.requires_grad:
                _accumulate(t, _reduce_to(d(g), t.data.shape))

    return _make(data, (a, b), bw)


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


def div(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _check_elementwise(a, b, "div")
    return _binary(
        a,
        b,
        a.data / b.data,
        lambda g: g / b.data,
        lambda g: -g * a.data / (b.data * b.data),
    )


def relu(t) -> Tensor:
    a = _coerce(t)
    mask = a.data > 0  # subgradient at 0 is 0

    def bw(g: np.ndarray) -> None:
        _accumulate(a, g * mask)

    return _make(np.maximum(a.data, 0.0), (a,), bw)


def square(t) -> Tensor:
    a = _coerce(t)

    def bw(g: np.ndarray) -> None:
        _accumulate(a, g * (2.0 * a.data))

    return _make(a.data * a.data, (a,), bw)


def sqrt(t) -> Tensor:
    """Elementwise square root; the derivative at 0 is defined as 0."""
    a = _coerce(t)
    out_data = np.sqrt(a.data)

    def bw(g: np.ndarray) -> None:
        d = np.divide(
            0.5, out_data, out=np.zeros_like(out_data), where=out_data > 0
        )
        _accumulate(a, g * d)

    return _make(out_data, (a,), bw)


def clamp_min(t, lo: float) -> Tensor:
    a = _coerce(t)
    lo = float(lo)
    mask = a.data > lo

    def bw(g: np.ndarray) -> None:
        _accumulate(a, g * mask)

    return _make(np.maximum(a.data, lo), (a,), bw)


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


def exp(t) -> Tensor:
    a = _coerce(t)
    out_data = np.exp(a.data)

    def bw(g: np.ndarray) -> None:
        _accumulate(a, g * out_data)

    return _make(out_data, (a,), bw)


def log(t) -> Tensor:
    a = _coerce(t)

    def bw(g: np.ndarray) -> None:
        _accumulate(a, g / a.data)

    return _make(np.log(a.data), (a,), bw)


# ---------------------------------------------------------------------------
# structural operations


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


def transpose(t) -> Tensor:
    a = _coerce(t)
    if a.data.ndim != 2:
        raise ValueError(f"transpose: expected a rank-2 tensor, got shape {a.data.shape}")

    def bw(g: np.ndarray) -> None:
        _accumulate(a, g.T)

    return _make(a.data.T, (a,), bw)


def reshape(t, shape) -> Tensor:
    a = _coerce(t)
    shape = tuple(int(s) for s in shape)

    def bw(g: np.ndarray) -> None:
        _accumulate(a, g.reshape(a.data.shape))

    return _make(a.data.reshape(shape), (a,), bw)


def log_softmax(t) -> Tensor:
    """Row-wise log-softmax of a rank-2 tensor (numerically stabilized)."""
    a = _coerce(t)
    if a.data.ndim != 2:
        raise ValueError(f"log_softmax: expected a rank-2 tensor, got shape {a.data.shape}")
    z = a.data - np.max(a.data, axis=1, keepdims=True)
    out_data = z - np.log(np.sum(np.exp(z), axis=1, keepdims=True))

    def bw(g: np.ndarray) -> None:
        _accumulate(a, g - np.exp(out_data) * np.sum(g, axis=1, keepdims=True))

    return _make(out_data, (a,), bw)


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss: Tensor) -> None:
    """Populate ``.grad`` for every tape ancestor of a scalar loss.

    The tape is consumed: backward rules are dropped as they run, so a
    second call on the same graph is a no-op.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        nid = id(node)
        if nid in seen:
            continue
        seen.add(nid)
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    _accumulate(loss, np.ones_like(loss.data))
    for node in reversed(topo):
        bw = node._backward
        if bw is not None and node.grad is not None:
            bw(node.grad)
        node._parents = ()
        node._backward = None


def zero_grads(params) -> None:
    for p in params:
        p.grad = np.zeros_like(p.data)

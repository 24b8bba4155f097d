"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine keeps a dynamic tape: every operation whose inputs require
gradients records a backward rule, and ``backward`` replays those rules in
reverse topological order.  The elementwise ops (add, sub, mul, where)
broadcast their operands by numpy's rules, and each operand's gradient is
summed back over the axes it was broadcast along; ``matmul`` stays rank-2.
Masking is ``where`` with a constant boolean mask, never a multiply by 0/1.
``record`` puts a hand-written function on the tape: each model layer, the
task loss, the graph builder and the KD losses use it to record their work
as one node with a closed-form backward.  The training step itself uses
only ``add`` and ``mul`` of the generic ops; the others are the reference
that the fused nodes are tested against, bit for bit.

``backward`` is the one writer of ``.grad``: it replaces the gradient of
every tensor it reaches, so a training step needs no zeroing call.  It keeps
a tensor's first gradient as the backward rule gave it, with no copy, and
adds any later ones out of place; a gradient may therefore be shared between
tensors or be a read-only view, and no code may write into one (see
``record``).

A tape (and the tensors recorded on it) belongs to a single thread.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "record",
    "add",
    "sub",
    "mul",
    "matmul",
    "relu",
    "square",
    "where",
    "log_softmax",
    "backward",
]


class Tensor:
    """A float64 array plus an optional slot on the gradient tape.

    Leaf tensors created with ``requires_grad=True`` start with a zero
    ``grad`` so that "loss does not depend on x" reads as a zero gradient
    rather than a missing one.  Only ``backward`` sets ``grad`` after that;
    treat it as read-only.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = (
            np.zeros_like(self.data) if self.requires_grad else None
        )
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], Sequence] | None = None

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

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis: int | None = None) -> "Tensor":
        if axis is not None and not 0 <= axis < self.data.ndim:
            raise ValueError(f"sum: axis {axis} out of range for rank {self.data.ndim}")
        shape = self.data.shape

        def bw(g: np.ndarray):
            return (np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape),)

        return record(np.sum(self.data, axis=axis), (self,), bw)


# ---------------------------------------------------------------------------
# tape plumbing


def _coerce(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def record(
    data,
    parents: Sequence[Tensor],
    backward: Callable[[np.ndarray], Sequence[np.ndarray | None]],
) -> Tensor:
    """Return a tensor holding ``data``, recorded on the tape as a function of ``parents``.

    ``backward(g)`` maps the gradient of the output to one gradient per
    parent, in order, each of that parent's shape; it may give None for a
    parent that does not require a gradient.  Nothing is recorded when no
    parent requires a gradient.

    ``backward`` stores the arrays it returns without copying them, so a rule
    must not write into ``g`` or into an array it has returned, and may
    return ``g`` itself, a view of it, or one array for several parents.
    """
    out = Tensor(data)
    parents = tuple(parents)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g  # no copy: see record's contract
    else:
        t.grad = t.grad + g


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


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss: Tensor) -> None:
    """Set ``.grad`` of every tape ancestor of a scalar loss to its gradient.

    The gradients of the tensors reached replace what they held before; a
    tensor the loss does not reach keeps its ``.grad``.  The tape is
    consumed: backward rules are dropped as they run, so a second call on
    the same graph leaves the gradients as they are.
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
        if node.requires_grad:
            node.grad = None
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            for parent, g in zip(node._parents, node._backward(node.grad)):
                if g is not None:
                    _accumulate(parent, g)
        node._parents = ()
        node._backward = None

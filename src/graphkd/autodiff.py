"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is a dynamic tape of three names.  ``Tensor`` holds a float64
array and its slot on the tape; ``record`` is the one way onto the tape: it
puts a hand-written function with a closed-form backward there as one node;
``backward`` replays the recorded rules in reverse topological order.  Each
model layer, the task loss, the graph builder, each KD term, the KD sum over
taps and the training step's total loss are one ``record`` node each.  The
generic ops they were fused from (add, mul, matmul, where, log_softmax and
the rest) live with the tests, as the bitwise references for those nodes.

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


# ---------------------------------------------------------------------------
# tape plumbing


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

"""Tests for the reverse-mode tape and the generic reference ops: op
semantics, gradients, tape mechanics."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from graphkd.autodiff import Tensor, backward, record
from graphkd.models import _layer

from _oracles import fd_gradient
from _tape_ops import add, log_softmax, matmul, mul, relu, square, sub, total, where


def leaf(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def const(data):
    return Tensor(np.asarray(data, dtype=np.float64))


class TestForward:
    def test_matmul_known_product(self):
        out = matmul(const([[1.0, 2.0], [3.0, 4.0]]), const([[5.0], [6.0]]))
        assert_array_equal(out.data, [[17.0], [39.0]])

    def test_matmul_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(const(np.ones((2, 3))), const(np.ones((2, 3))))

    def test_matmul_requires_rank_two(self):
        with pytest.raises(ValueError):
            matmul(const(np.ones(3)), const(np.ones((3, 2))))

    def test_elementwise_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            add(const(np.ones((2, 2))), const(np.ones((2, 3))))

    def test_scalar_broadcast_allowed(self):
        out = mul(const([[1.0, 2.0]]), const(3.0))
        assert_array_equal(out.data, [[3.0, 6.0]])

    def test_row_and_column_broadcast(self):
        out = add(const([[1.0], [2.0]]), const([[10.0, 20.0, 30.0]]))
        assert_array_equal(out.data, [[11.0, 21.0, 31.0], [12.0, 22.0, 32.0]])
        with pytest.raises(ValueError, match=r"\(2, 2\).*\(3,\)"):
            mul(const(np.ones((2, 2))), const(np.ones(3)))

    def test_relu(self):
        out = relu(leaf([-1.0, 0.0, 2.0]))
        assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_where_leaves_unselected_infinities_out(self):
        out = where([[True, False]], const([[1.0, -np.inf]]), const(0.0))
        assert_array_equal(out.data, [[1.0, 0.0]])

    def test_where_mask_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mask shape"):
            where(np.ones(3, dtype=bool), const(np.ones((1, 3))), const(0.0))

    def test_reductions(self):
        x = const([[1.0, 2.0], [3.0, 4.0]])
        assert total(x).data == 10.0
        assert_array_equal(total(x, axis=0).data, [4.0, 6.0])
        assert_array_equal(total(x, axis=1).data, [3.0, 7.0])
        with pytest.raises(ValueError, match="axis 2"):
            total(x, axis=2)

    def test_log_softmax_rows_normalize(self):
        x = const(np.random.default_rng(0).normal(size=(4, 3)) * 50)
        out = log_softmax(x)
        assert_allclose(np.exp(out.data).sum(axis=1), np.ones(4), rtol=1e-12)

    def test_log_softmax_is_shift_stable(self):
        x = np.array([[1000.0, 1001.0, 1002.0]])
        out = log_softmax(const(x))
        assert np.isfinite(out.data).all()
        assert_allclose(out.data, log_softmax(const(x - 1000.0)).data, atol=1e-12)


class TestBackwardMechanics:
    def test_backward_rejects_non_scalar(self):
        x = leaf([[1.0, 2.0]])
        with pytest.raises(ValueError):
            backward(add(x, x))

    def test_leaf_not_on_tape_keeps_zero_grad(self):
        """A leaf the loss never touches must end with an all-zero gradient."""
        x = leaf([[1.0, 2.0]])
        unused = leaf([[5.0, 5.0]])
        backward(total(mul(x, x)))
        assert_array_equal(unused.grad, np.zeros((1, 2)))

    def test_gradient_accumulates_across_uses(self):
        x = leaf([2.0])
        y = total(add(mul(x, x), x))  # dy/dx = 2x + 1 = 5
        backward(y)
        assert_allclose(x.grad, [5.0])

    def test_tape_consumed_after_backward(self):
        x = leaf([1.0, 2.0])
        loss = total(mul(x, x))
        backward(loss)
        first = x.grad.copy()
        backward(loss)  # tape gone: must not double-accumulate
        assert_array_equal(x.grad, first)

    def test_second_backward_replaces_leaf_grad(self):
        """A new loss through the same leaf sets its gradient, not adds to it."""
        x = leaf([1.0, 2.0])
        backward(total(mul(x, x)))
        backward(total(mul(x, const([3.0, 5.0]))))
        assert_array_equal(x.grad, [3.0, 5.0])

    def test_shared_add_gradient_is_not_written(self):
        """add hands its gradient array to both parents; a later contribution
        to one of them must leave the other's (and add's own) unchanged."""
        b = leaf([1.0, 2.0])
        a = mul(b, const([10.0, 20.0]))  # runs after s's rule, as a is s's parent
        s = add(a, b)
        backward(total(mul(s, const([2.0, 3.0]))))
        assert_array_equal(b.grad, [22.0, 63.0])
        assert_array_equal(a.grad, [2.0, 3.0])
        assert_array_equal(s.grad, [2.0, 3.0])

    def test_backward_is_linear_in_seed(self):
        """grad of (3 * loss) equals 3 * grad of loss."""
        rng = np.random.default_rng(7)
        data = rng.normal(size=(3, 3))
        x1 = leaf(data)
        backward(mul(total(mul(x1, x1)), const(3.0)))
        x2 = leaf(data)
        backward(total(mul(x2, x2)))
        assert_allclose(x1.grad, 3.0 * x2.grad, rtol=1e-12)

    def test_intermediates_receive_grads(self):
        x = leaf([[1.0, -2.0]])
        h = relu(x)
        backward(total(h))
        assert h.grad is not None
        assert_array_equal(h.grad, [[1.0, 1.0]])

    def test_relu_subgradient_at_zero_is_zero(self):
        x = leaf([0.0, -1.0, 1.0])
        backward(total(relu(x)))
        assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_record_hand_written_backward(self):
        """A recorded node's backward returns one gradient per parent, None to skip."""
        x, c = leaf([[1.0, -2.0]]), const([[3.0, 4.0]])
        cube = record(x.data**3 * c.data, (x, c), lambda g: (g * 3.0 * x.data**2 * c.data, None))
        backward(total(cube))
        assert_array_equal(x.grad, [[9.0, 48.0]])
        assert c.grad is None
        untaped = record(c.data, (c,), lambda g: (g,))
        assert not untaped.requires_grad and untaped._parents == ()

    def test_deep_chain_does_not_hit_recursion_limit(self):
        x = leaf([[1.0]])
        out = x
        for _ in range(5000):
            out = add(out, const([[0.0]]))
        backward(total(out))
        assert_array_equal(x.grad, [[1.0]])


# Finite-difference sweep: every differentiable op, random instances.
# Inputs are kept away from kinks (relu boundaries) so the central
# difference is valid at step 1e-6.

def _fd_case(build, x0):
    x = leaf(x0)
    backward(build(x))
    numeric = fd_gradient(lambda arr: build(Tensor(arr)).data.item(), x0)
    assert_allclose(x.grad, numeric, rtol=1e-4, atol=1e-7)


def _safe(rng, shape, keep_away=0.25):
    x = rng.uniform(-2.0, 2.0, size=shape)
    small = np.abs(x) < keep_away
    x[small] += np.sign(x[small] + 0.5) * keep_away
    return x


_GRID = np.linspace(-1.5, 2.0, 12).reshape(3, 4)

BROADCAST_LEAF_SHAPES = {
    "add_col_broadcast": (3, 1),
    "sub_row_broadcast": (1, 4),
    "mul_row_broadcast": (1, 4),
    "mul_rank1_broadcast": (4,),
    "where_row_broadcast": (1, 4),
    "layer_b": (1, 4),
}

# constants of the fused-layer cases, sized so that no pre-activation comes
# near the ReLU's kink: a large bias of fixed sign, or a small h @ w
_LAYER_W = np.linspace(-0.5, 0.5, 8).reshape(4, 2)
_LAYER_B = np.array([[5.0, -5.0]])
_LAYER_H = np.linspace(-0.3, 0.3, 6).reshape(2, 3)
_SMALL_H = np.linspace(-0.05, 0.05, 9).reshape(3, 3)
_SMALL_W = np.linspace(-0.2, 0.2, 12).reshape(3, 4)

OP_CASES = {
    "add": lambda x: total(add(x, const(np.full(x.data.shape, 0.7)))),
    "sub": lambda x: total(sub(const(np.full(x.data.shape, 0.3)), x)),
    "mul": lambda x: total(mul(x, x)),
    "scalar_mul": lambda x: total(mul(x, const(1.7))),
    "matmul_left": lambda x: total(matmul(x, const(np.linspace(0.1, 1.0, x.data.shape[1] * 2).reshape(x.data.shape[1], 2)))),
    "matmul_right": lambda x: total(matmul(const(np.linspace(-1.0, 1.0, 2 * x.data.shape[0]).reshape(2, x.data.shape[0])), x)),
    "relu": lambda x: total(relu(x)),
    "square": lambda x: total(square(x)),
    "where": lambda x: total(where(np.indices(x.data.shape).sum(axis=0) % 2 == 0, square(x), mul(x, const(-1.5)))),
    "sum_axis1": lambda x: total(square(total(x, axis=1))),
    "log_softmax": lambda x: total(mul(log_softmax(x), const(np.linspace(-1, 1, x.data.size).reshape(x.data.shape)))),
    # the leaf is the broadcast operand, so its gradient is summed over the
    # broadcast axes (shapes in BROADCAST_LEAF_SHAPES)
    "add_col_broadcast": lambda x: total(square(add(x, const(_GRID)))),
    "sub_row_broadcast": lambda x: total(square(sub(const(_GRID), x))),
    "mul_row_broadcast": lambda x: total(mul(const(_GRID), x)),
    "mul_rank1_broadcast": lambda x: total(square(mul(x, const(_GRID)))),
    "where_row_broadcast": lambda x: total(where(_GRID > 0, square(x), const(_GRID))),
    # one fused affine+ReLU layer (models._layer), its gradient for h, w and b,
    # and the affine head
    "layer_h": lambda x: total(square(_layer(x, const(_LAYER_W), const(_LAYER_B), relu=True))),
    "layer_w": lambda x: total(square(
        _layer(const(_LAYER_H), x, const(np.array([[4.0, -4.0, 4.0, -4.0]])), relu=True)
    )),
    "layer_b": lambda x: total(square(_layer(const(_SMALL_H), const(_SMALL_W), x, relu=True))),
    "layer_head": lambda x: total(square(_layer(x, const(_LAYER_W), const(_LAYER_B), relu=False))),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_fd_gradient_per_op(name):
    rng = np.random.default_rng(abs(hash(name)) % (2**32))
    for _ in range(4):
        x0 = _safe(rng, BROADCAST_LEAF_SHAPES.get(name, (3, 4)))
        _fd_case(OP_CASES[name], x0)


def test_fd_gradient_composite_expression():
    """A realistic mixed expression exercises grad accumulation across ops."""
    rng = np.random.default_rng(99)
    x0 = _safe(rng, (4, 3))
    w = np.linspace(-0.8, 0.9, 9).reshape(3, 3)

    def build(x):
        h = relu(matmul(x, const(w)))
        z = sub(total(square(h), axis=1), mul(total(x, axis=1), const(0.5)))
        picked = where(np.eye(4, 3, dtype=bool), log_softmax(x), 0.0)
        return add(mul(total(square(z)), const(0.1)), total(picked))

    _fd_case(build, x0)


def test_forward_is_deterministic():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(6, 6)), rng.normal(size=(6, 6))
    r1 = log_softmax(matmul(const(a), const(b))).data
    r2 = log_softmax(matmul(const(a), const(b))).data
    assert_array_equal(r1, r2)

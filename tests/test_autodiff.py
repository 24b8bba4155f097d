"""Tests for the reverse-mode tape: op semantics, gradients, tape mechanics."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from graphkd import autodiff as ad
from graphkd.autodiff import Tensor, backward, zero_grads

from _oracles import fd_gradient


def leaf(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def const(data):
    return Tensor(np.asarray(data, dtype=np.float64))


class TestForward:
    def test_matmul_known_product(self):
        out = const([[1.0, 2.0], [3.0, 4.0]]) @ const([[5.0], [6.0]])
        assert_array_equal(out.data, [[17.0], [39.0]])

    def test_matmul_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            const(np.ones((2, 3))) @ const(np.ones((2, 3)))

    def test_matmul_requires_rank_two(self):
        with pytest.raises(ValueError):
            const(np.ones(3)) @ const(np.ones((3, 2)))

    def test_elementwise_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            const(np.ones((2, 2))) + const(np.ones((2, 3)))

    def test_scalar_broadcast_allowed(self):
        out = const([[1.0, 2.0]]) * const(3.0)
        assert_array_equal(out.data, [[3.0, 6.0]])

    def test_relu(self):
        out = ad.relu(leaf([-1.0, 0.0, 2.0]))
        assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_clamp_min(self):
        out = ad.clamp_min(leaf([-2.0, 0.5]), 0.0)
        assert_array_equal(out.data, [0.0, 0.5])

    def test_where_leaves_unselected_infinities_out(self):
        out = ad.where([[True, False]], const([[1.0, -np.inf]]), const(0.0))
        assert_array_equal(out.data, [[1.0, 0.0]])

    def test_where_mask_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mask shape"):
            ad.where(np.ones(3, dtype=bool), const(np.ones((1, 3))), const(0.0))

    def test_reductions(self):
        x = const([[1.0, 2.0], [3.0, 4.0]])
        assert x.sum().data == 10.0
        assert x.mean().data == 2.5
        assert x.max().data == 4.0
        assert_array_equal(x.sum(axis=0).data, [4.0, 6.0])
        assert_array_equal(x.mean(axis=1).data, [1.5, 3.5])
        assert_array_equal(x.max(axis=1).data, [2.0, 4.0])

    def test_log_softmax_rows_normalize(self):
        x = const(np.random.default_rng(0).normal(size=(4, 3)) * 50)
        out = ad.log_softmax(x)
        assert_allclose(np.exp(out.data).sum(axis=1), np.ones(4), rtol=1e-12)

    def test_log_softmax_is_shift_stable(self):
        x = np.array([[1000.0, 1001.0, 1002.0]])
        out = ad.log_softmax(const(x))
        assert np.isfinite(out.data).all()
        assert_allclose(out.data, ad.log_softmax(const(x - 1000.0)).data, atol=1e-12)


class TestBackwardMechanics:
    def test_backward_rejects_non_scalar(self):
        x = leaf([[1.0, 2.0]])
        with pytest.raises(ValueError):
            backward(x + x)

    def test_leaf_not_on_tape_keeps_zero_grad(self):
        """A leaf the loss never touches must end with an all-zero gradient."""
        x = leaf([[1.0, 2.0]])
        unused = leaf([[5.0, 5.0]])
        backward((x * x).sum())
        assert_array_equal(unused.grad, np.zeros((1, 2)))

    def test_gradient_accumulates_across_uses(self):
        x = leaf([2.0])
        y = (x * x + x).sum()  # dy/dx = 2x + 1 = 5
        backward(y)
        assert_allclose(x.grad, [5.0])

    def test_tape_consumed_after_backward(self):
        x = leaf([1.0, 2.0])
        loss = (x * x).sum()
        backward(loss)
        first = x.grad.copy()
        backward(loss)  # tape gone: must not double-accumulate
        assert_array_equal(x.grad, first)

    def test_zero_grads_resets(self):
        x = leaf([1.0, 2.0])
        backward((x * x).sum())
        zero_grads([x])
        assert_array_equal(x.grad, np.zeros(2))

    def test_backward_is_linear_in_seed(self):
        """grad of (3 * loss) equals 3 * grad of loss."""
        rng = np.random.default_rng(7)
        data = rng.normal(size=(3, 3))
        x1 = leaf(data)
        backward((x1 * x1).sum() * const(3.0))
        x2 = leaf(data)
        backward((x2 * x2).sum())
        assert_allclose(x1.grad, 3.0 * x2.grad, rtol=1e-12)

    def test_intermediates_receive_grads(self):
        x = leaf([[1.0, -2.0]])
        h = ad.relu(x)
        backward(h.sum())
        assert h.grad is not None
        assert_array_equal(h.grad, [[1.0, 1.0]])

    def test_relu_subgradient_at_zero_is_zero(self):
        x = leaf([0.0, -1.0, 1.0])
        backward(ad.relu(x).sum())
        assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_sqrt_gradient_at_zero_is_zero(self):
        x = leaf([0.0, 4.0])
        backward(ad.sqrt(x).sum())
        assert_array_equal(x.grad, [0.0, 0.25])

    def test_max_gradient_goes_to_first_argmax(self):
        x = leaf([[1.0, 3.0, 3.0]])
        backward(x.max())
        assert_array_equal(x.grad, [[0.0, 1.0, 0.0]])

    def test_deep_chain_does_not_hit_recursion_limit(self):
        x = leaf([[1.0]])
        out = x
        for _ in range(5000):
            out = out + const([[0.0]])
        backward(out.sum())
        assert_array_equal(x.grad, [[1.0]])


# Finite-difference sweep: every differentiable op, random instances.
# Inputs are kept away from kinks (relu/clamp/max boundaries) so the central
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


OP_CASES = {
    "add": lambda x: (x + const(np.full(x.data.shape, 0.7))).sum(),
    "sub": lambda x: (const(np.full(x.data.shape, 0.3)) - x).sum(),
    "mul": lambda x: (x * x).sum(),
    "div": lambda x: (const(np.ones(x.data.shape)) / x).sum(),
    "scalar_mul": lambda x: (x * const(1.7)).sum(),
    "matmul_left": lambda x: (x @ const(np.linspace(0.1, 1.0, x.data.shape[1] * 2).reshape(x.data.shape[1], 2))).sum(),
    "matmul_right": lambda x: (const(np.linspace(-1.0, 1.0, 2 * x.data.shape[0]).reshape(2, x.data.shape[0])) @ x).sum(),
    "transpose": lambda x: (x.T * x.T).sum(),
    "reshape": lambda x: (x.reshape((x.data.size, 1)) * const(np.linspace(0.5, 1.5, x.data.size).reshape(-1, 1))).sum(),
    "relu": lambda x: ad.relu(x).sum(),
    "square": lambda x: ad.square(x).sum(),
    "sqrt": lambda x: ad.sqrt(ad.square(x) + const(np.full(x.data.shape, 0.5))).sum(),
    "clamp_min": lambda x: ad.clamp_min(x, -0.1).sum(),
    "where": lambda x: ad.where(np.indices(x.data.shape).sum(axis=0) % 2 == 0, ad.square(x), x * const(-1.5)).sum(),
    "exp": lambda x: ad.exp(x).sum(),
    "log": lambda x: ad.log(ad.square(x) + const(np.full(x.data.shape, 0.5))).sum(),
    "mean": lambda x: x.mean() * const(3.0),
    "mean_axis0": lambda x: ad.square(x.mean(axis=0)).sum(),
    "sum_axis1": lambda x: ad.square(x.sum(axis=1)).sum(),
    "max_axis1": lambda x: x.max(axis=1).sum(),
    "log_softmax": lambda x: (ad.log_softmax(x) * const(np.linspace(-1, 1, x.data.size).reshape(x.data.shape))).sum(),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_fd_gradient_per_op(name):
    rng = np.random.default_rng(abs(hash(name)) % (2**32))
    for trial in range(4):
        x0 = _safe(rng, (3, 4))
        if name == "max_axis1":
            # separate the per-row maxima so FD stays on one branch
            x0[np.arange(3), trial % 4] += 3.0
        _fd_case(OP_CASES[name], x0)


def test_fd_gradient_composite_expression():
    """A realistic mixed expression exercises grad accumulation across ops."""
    rng = np.random.default_rng(99)
    x0 = _safe(rng, (4, 3))
    w = np.linspace(-0.8, 0.9, 9).reshape(3, 3)

    def build(x):
        h = ad.relu(x @ const(w))
        z = ad.sqrt(ad.clamp_min(ad.square(h).sum(axis=1), 0.05))
        return z.mean() + (ad.exp(x).sum() * const(0.01))

    _fd_case(build, x0)


def test_forward_is_deterministic():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(6, 6)), rng.normal(size=(6, 6))
    r1 = ad.log_softmax(const(a) @ const(b)).data
    r2 = ad.log_softmax(const(a) @ const(b)).data
    assert_array_equal(r1, r2)

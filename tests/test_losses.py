"""Loss definitions: frozen hand-worked values, reference enumerations, FD grads."""

import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import graphkd
from graphkd import losses
from graphkd.autodiff import Tensor, backward
from graphkd.config import GraphParams
from graphkd.graphs import SimilarityGraph, _cosine, build_similarity_graph
from graphkd.losses import (
    _distances,
    _huber,
    _rkdd_tap,
    _squared_distance,
    _sum_node,
    _unit_stack,
    gkd_loss,
    gkd_tap_loss,
    ikd_loss,
    per_example_gkd,
    per_example_gkd_taps,
    per_example_rkdd,
    rkdd_loss,
    task_loss,
)

from conftest import tape
from _oracles import (
    fd_gradient,
    oracle_distances,
    oracle_ikd,
    oracle_rkdd,
    oracle_task_loss,
    separated_reps,
)
from _tape_ops import add, log_softmax, mul, square, sub, total, where
import _rkdd_ops


def leaf(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


class TestTaskLoss:
    def test_two_class_example(self):
        # -log softmax([1, 0])[1] = log(1 + e) - 0 = 1.31326...
        loss = task_loss(Tensor(np.array([[1.0, 0.0]])), np.array([1]))
        assert_allclose(loss.data, 1.3132616875182228, atol=1e-12)

    def test_uniform_logits_give_log_two(self):
        loss = task_loss(Tensor(np.zeros((5, 2))), np.zeros(5, dtype=np.int64))
        assert_allclose(loss.data, np.log(2.0), atol=1e-15)

    def test_matches_reference_on_random_batches(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            logits = rng.normal(size=(7, 4)) * 3
            labels = rng.integers(0, 4, size=7)
            assert_allclose(
                task_loss(Tensor(logits), labels).data,
                oracle_task_loss(logits, labels),
                rtol=1e-12,
            )

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            task_loss(Tensor(np.zeros((2, 3))), np.array([0, 3]))
        with pytest.raises(ValueError):
            task_loss(Tensor(np.zeros((2, 3))), np.array([-1, 0]))

    def test_shape_and_rank_checks(self):
        with pytest.raises(ValueError, match="labels shape"):
            task_loss(Tensor(np.zeros((2, 3))), np.array([0, 1, 2]))
        with pytest.raises(ValueError, match="2-d"):
            task_loss(Tensor(np.zeros(3)), np.array([0]))

    def test_one_tape_node_equal_to_the_generic_ops(self):
        rng = np.random.default_rng(3)
        logits0, labels = rng.normal(size=(7, 4)) * 3, rng.integers(0, 4, size=7)
        x = leaf(logits0)
        loss = task_loss(x, labels)
        assert loss._parents == (x,)
        backward(mul(loss, 0.3))
        ref_x = leaf(logits0)
        onehot = np.arange(4) == labels[:, None]
        ref = mul(total(where(onehot, log_softmax(ref_x), 0.0)), -1.0 / 7)
        backward(mul(ref, 0.3))
        assert loss.data.tobytes() == ref.data.tobytes()
        assert x.grad.tobytes() == ref_x.grad.tobytes()

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(1)
        logits0 = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        x = leaf(logits0)
        backward(task_loss(x, labels))
        numeric = fd_gradient(lambda arr: task_loss(Tensor(arr), labels).data.item(), logits0)
        assert_allclose(x.grad, numeric, rtol=1e-4, atol=1e-7)

    def test_gradient_rows_sum_to_zero(self):
        x = leaf(np.random.default_rng(2).normal(size=(4, 5)))
        backward(task_loss(x, np.array([0, 1, 2, 3])))
        assert_allclose(x.grad.sum(axis=1), np.zeros(4), atol=1e-12)


def huber(x: float, y: float):
    """RKD-D's elementwise penalty on the one difference x - y."""
    return _huber(np.float64(x) - y)


class TestHuber:
    def test_quadratic_branch(self):
        assert huber(0.0, 0.5) == 0.125

    def test_linear_branch(self):
        assert huber(0.0, 3.0) == 2.5

    def test_continuous_at_transition(self):
        assert_allclose(huber(0.0, 1.0), 0.5, atol=1e-15)
        assert_allclose(huber(0.0, 1.0 + 1e-9), 0.5 + 1e-9, atol=1e-12)

    def test_symmetry(self):
        assert huber(2.0, 5.0) == huber(5.0, 2.0)

    ONE = np.float64(1.0)
    # the branch point and its neighbours, zeros, NaN, infinities, and a d
    # whose square is subnormal
    EDGES = {
        "one": ONE,
        "one_up": np.nextafter(ONE, 2.0),
        "one_down": np.nextafter(ONE, 0.0),
        "zero": 0.0,
        "nan": np.nan,
        "inf": np.inf,
        "subnormal_square": 1e-160,
    }

    @pytest.mark.parametrize("name", list(EDGES))
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_clip_form_is_bit_equal_to_the_where_form(self, name, sign):
        d = np.copysign([self.EDGES[name]], sign)
        assert np.clip(d, -1.0, 1.0).tobytes() == _rkdd_ops.huber_slope(d).tobytes()
        if (name, sign) not in (("zero", -1.0), ("nan", -1.0)):  # see the exceptions
            assert _huber(d).tobytes() == _rkdd_ops.huber(d).tobytes()

    def test_exceptions_to_bit_equality(self):
        # d = -0.0: the clip form's penalty is -0.0 and the where form's +0.0.
        # RKD-D never meets it: d is a difference of distances, which are
        # never -0.0.
        d = np.array([-0.0])
        assert np.signbit(_huber(d)[0]) and not np.signbit(_rkdd_ops.huber(d)[0])
        # a NaN with its sign bit set: both penalties are NaN, but the where
        # form's |d| clears the sign bit, which the clip form may keep
        d = np.copysign([np.nan], -1.0)
        assert np.isnan(_huber(d)[0]) and np.isnan(_rkdd_ops.huber(d)[0])
        # a square in the subnormal range: the where form rounds d * d and
        # then halves it, two roundings; d * (d / 2) rounds once, to the
        # nearest double of the exact d^2 / 2, one subnormal step away here
        d = np.array([1.1e-160, -1.1e-160])
        exact = float(Fraction(1.1e-160) ** 2 / 2)  # correctly rounded
        assert_array_equal(_huber(d), [exact, exact])
        assert_array_equal(np.abs(_rkdd_ops.huber(d) - exact), [5e-324, 5e-324])


class TestPairwiseDistances:
    def test_mean_of_offdiagonal_is_one(self):
        rng = np.random.default_rng(3)
        d = _distances(rng.normal(size=(6, 4)))[0]
        n = 6
        assert_allclose(d.sum() / (n * (n - 1)), 1.0, rtol=1e-12)
        assert_array_equal(np.diag(d), np.zeros(n))

    def test_identical_points_collapse_to_zero(self):
        d = _distances(np.ones((4, 3)))[0]
        assert_array_equal(d, np.zeros((4, 4)))

    def test_global_scale_invariance(self):
        rng = np.random.default_rng(4)
        reps = rng.normal(size=(5, 3))
        d1 = _distances(reps)[0]
        d2 = _distances(reps * 7.3)[0]
        assert_allclose(d1, d2, atol=1e-9)


def distance_batch(kind: str) -> np.ndarray:
    rng = np.random.default_rng(5)
    x = rng.normal(size=(16, 8))
    if kind == "duplicates":  # half the rows again, stretched by 1e-12
        return np.vstack([x, x[:8] * (1.0 + 1e-12)])
    if kind == "coincident":
        return np.tile(x[:1], (6, 1))
    return x


class TestInPlaceDistances:
    @pytest.mark.parametrize("kind", ["random", "duplicates", "coincident"])
    def test_bit_equal_to_the_allocating_formula(self, kind):
        x = distance_batch(kind)
        got, want = _distances(x), oracle_distances(x)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2] == want[2]

    def test_duplicates_hit_the_negative_rounding_guard(self):
        x = distance_batch("duplicates")
        gram = x @ x.T
        sq = np.diag(gram)
        assert np.any(sq[None, :] + sq[:, None] - gram * 2.0 < 0.0)

    def test_coincident_points_have_mean_zero(self):
        assert _distances(distance_batch("coincident"))[2] == 0.0


class TestExactSymmetry:
    """RKD-D's backward doubles a matrix where it would add its transpose, and
    ``_knn``'s k = n - 1 shortcut keeps the cosine stack as it is.  Both rely
    on numpy's syrk gram, which mirrors one triangle; a gemm gram would not."""

    @pytest.mark.parametrize("d", [1, 2, 8, 64])
    @pytest.mark.parametrize("n", [2, 3, 17, 100, 129, 256])
    def test_gram_matrices_equal_their_transposes(self, n, d):
        x = np.random.default_rng(1000 * n + d).normal(size=(n, d))
        for m in (_distances(x)[1], _cosine([x])[0][0]):
            assert m.tobytes() == m.T.tobytes()

    def test_strided_tap(self):
        x = np.random.default_rng(24).normal(size=(2 * 129, 3 * 64))[::2, ::3]
        assert not x.flags.c_contiguous
        for m in (_distances(x)[1], _cosine([x])[0][0]):
            assert m.tobytes() == m.T.tobytes()


class TestIkd:
    def test_single_difference(self):
        # one tap, one example, difference [1, 1] -> squared norm 2
        s = [Tensor(np.array([[1.0, 1.0]]))]
        t = [Tensor(np.array([[0.0, 0.0]]))]
        assert_allclose(ikd_loss(s, t).data, 2.0, atol=1e-15)

    def test_matches_reference(self):
        rng = np.random.default_rng(5)
        s = [rng.normal(size=(6, 3)), rng.normal(size=(6, 5))]
        t = [rng.normal(size=(6, 3)), rng.normal(size=(6, 5))]
        got = ikd_loss([Tensor(a) for a in s], [Tensor(a) for a in t]).data
        assert_allclose(got, oracle_ikd(s, t), rtol=1e-12)

    def test_one_tape_node_per_tap_equal_to_the_generic_ops(self):
        rng = np.random.default_rng(6)
        s = [rng.normal(size=(6, 3)), rng.normal(size=(6, 5))]
        t = [rng.normal(size=(6, 3)), rng.normal(size=(6, 5))]
        taps = [leaf(a) for a in s]
        loss = ikd_loss(taps, t)
        for tap in taps:
            children = [node for node in tape(loss) if any(p is tap for p in node._parents)]
            assert len(children) == 1 and children[0]._parents == (tap,)
        backward(mul(loss, 0.7))
        ref_taps = [leaf(a) for a in s]
        terms = [total(square(sub(x, Tensor(b)))) for x, b in zip(ref_taps, t)]
        ref = mul(add(terms[0], terms[1]), 1.0 / (6 * 2))
        backward(mul(ref, 0.7))
        assert loss.data.tobytes() == ref.data.tobytes()
        for tap, ref_tap in zip(taps, ref_taps):
            assert tap.grad.tobytes() == ref_tap.grad.tobytes()

    def test_dimension_mismatch_names_requirement(self):
        s = [Tensor(np.zeros((3, 4)))]
        t = [Tensor(np.zeros((3, 2)))]
        with pytest.raises(ValueError, match=r"\(3, 4\).*\(3, 2\)"):
            ikd_loss(s, t)


class TestRkdd:
    def test_hand_worked_three_points(self):
        # teacher at 0,1,2; student at 0,1,3 on a line.
        # normalized teacher dists: (.75, 1.5, .75); student: (.5, 1.5, 1.0)
        # huber gaps: .03125, 0, .03125 per unordered pair -> sum over
        # ordered pairs 0.125 -> / 6
        s = [Tensor(np.array([[0.0], [1.0], [3.0]]))]
        t = [Tensor(np.array([[0.0], [1.0], [2.0]]))]
        assert_allclose(rkdd_loss(s, t).data, 0.125 / 6.0, atol=1e-14)

    def test_matches_reference(self):
        rng = np.random.default_rng(7)
        s = [rng.normal(size=(6, 4)), rng.normal(size=(6, 2))]
        t = [rng.normal(size=(6, 3)), rng.normal(size=(6, 2))]
        got = rkdd_loss([Tensor(a) for a in s], [Tensor(a) for a in t]).data
        assert_allclose(got, oracle_rkdd(s, t), rtol=1e-12)

    def test_degenerate_student_batch(self):
        # all student points identical: normalized distances all zero,
        # loss reduces to huber(0, teacher distances)
        s = [Tensor(np.ones((3, 2)))]
        t = [Tensor(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))]
        expected = oracle_rkdd([np.ones((3, 2))], [t[0].data])
        assert_allclose(rkdd_loss(s, t).data, expected, rtol=1e-12)

    def test_global_per_tap_rescale_invariance(self):
        rng = np.random.default_rng(8)
        s = [rng.normal(size=(5, 3)), rng.normal(size=(5, 4))]
        t = [rng.normal(size=(5, 3)), rng.normal(size=(5, 4))]
        base = rkdd_loss([Tensor(a) for a in s], [Tensor(a) for a in t]).data
        scaled = rkdd_loss(
            [Tensor(s[0] * 3.0), Tensor(s[1] * 0.2)],
            [Tensor(a) for a in t],
        ).data
        assert_allclose(scaled, base, atol=1e-9)

    def test_per_example_sums_to_loss(self):
        rng = np.random.default_rng(9)
        s, t = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        per = per_example_rkdd(s, t)
        loss = rkdd_loss([Tensor(s)], [Tensor(t)]).data
        assert_allclose(per.sum(), loss, rtol=1e-9)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(10)
        random = (rng.normal(size=(5, 3)), rng.normal(size=(5, 3)))
        # coincident points: the mean distance is 0 on both sides, so the
        # loss and its gradient are 0 (a probe moves one point, and by
        # symmetry the central difference is 0 too)
        coincident = (np.zeros((5, 3)), np.ones((5, 3)))
        for name, (s0, t0) in (("random", random), ("coincident", coincident)):
            t = [Tensor(t0)]

            def value(arr):
                return rkdd_loss([Tensor(arr)], t).data.item()

            x = leaf(s0)
            loss = rkdd_loss([x], t)
            backward(loss)
            assert_allclose(x.grad, fd_gradient(value, s0), rtol=1e-4, atol=1e-7, err_msg=name)
            if name == "coincident":
                assert loss.data == 0.0
                assert_array_equal(x.grad, np.zeros((5, 3)))

    @staticmethod
    def reference_pairs():
        """(name, student, teacher) taps: random widths and sizes, an outlier
        that puts pairs on the linear branch, strided taps, duplicates and a
        coincident student."""
        rng = np.random.default_rng(23)
        for i, (n, ds, dt) in enumerate([(2, 1, 3), (3, 2, 2), (17, 8, 5), (64, 8, 16),
                                         (128, 16, 64)]):
            yield f"random{i}", rng.normal(size=(n, ds)), rng.normal(size=(n, dt))
        teacher = rng.normal(size=(12, 4))
        teacher[0] *= 40.0
        yield "outlier", rng.normal(size=(12, 3)), teacher
        wide = rng.normal(size=(2 * 20, 3 * 6))
        yield "strided", wide[::2, ::3], rng.normal(size=(40, 9))[::2, 1::2]
        yield "duplicates", distance_batch("duplicates"), rng.normal(size=(24, 5))
        yield "coincident", distance_batch("coincident"), rng.normal(size=(6, 2))

    def test_node_bit_equal_to_the_where_form(self):
        branches = set()
        for name, s0, t in self.reference_pairs():
            x, ref_x = leaf(s0), leaf(s0)
            node, ref = _rkdd_tap(x, t), _rkdd_ops.rkdd_tap(ref_x, t)
            backward(mul(node, 0.7))
            backward(mul(ref, 0.7))
            assert node.data.tobytes() == ref.data.tobytes(), name
            assert x.grad.tobytes() == ref_x.grad.tobytes(), name
            d = np.abs(_distances(s0)[0] - _distances(t)[0])
            branches |= {bool(v) for v in np.unique(d > 1.0)}
        assert branches == {True, False}  # both Huber branches were met

    def test_per_example_bit_equal_to_the_where_form(self):
        for name, s0, t in self.reference_pairs():
            got, want = per_example_rkdd(s0, t), _rkdd_ops.per_example_rkdd(s0, t)
            assert got.tobytes() == want.tobytes(), name

    def test_one_tape_node_per_tap(self):
        rng = np.random.default_rng(18)
        taps = [leaf(rng.normal(size=(6, 3))), leaf(rng.normal(size=(6, 2)))]
        loss = rkdd_loss(taps, [rng.normal(size=(6, 4)), rng.normal(size=(6, 2))])
        for tap in taps:
            children = [node for node in tape(loss) if any(p is tap for p in node._parents)]
            assert len(children) == 1
            assert children[0]._parents == (tap,)


# (loss, student tap shapes, teacher tap shapes, the whole error message)
TAP_LIST_ERRORS = {
    "ikd_count": (ikd_loss, [(3, 2), (3, 2)], [(3, 2)],
                  "ikd_loss: student has 2 taps but teacher has 1"),
    "rkdd_count": (rkdd_loss, [(3, 2)], [(3, 2), (3, 2)],
                   "rkdd_loss: student has 1 taps but teacher has 2"),
    "ikd_empty": (ikd_loss, [], [], "ikd_loss: empty tap list"),
    "rkdd_empty": (rkdd_loss, [], [], "rkdd_loss: empty tap list"),
    "ikd_shape_at_tap1": (ikd_loss, [(3, 2), (3, 4)], [(3, 2), (3, 5)],
                          "ikd_loss: tap 1 has student shape (3, 4) and teacher shape (3, 5); "
                          "IKD requires identical dimensions at every tap"),
    "rkdd_rows": (rkdd_loss, [(3, 2), (3, 2)], [(3, 4), (4, 2)],
                  "rkdd_loss: tap 1 has 3 student rows and 4 teacher rows"),
    "rkdd_one_row": (rkdd_loss, [(1, 2), (1, 3)], [(1, 4), (1, 3)],
                     "pairwise distances: need at least 2 rows, got 1"),
    # taps of one list with different row counts, matched on the other side
    "ikd_rows_across_taps": (ikd_loss, [(3, 2), (5, 2)], [(3, 2), (5, 2)],
                             "ikd_loss: tap 1 has 5 rows but tap 0 has 3"),
    "rkdd_rows_across_taps": (rkdd_loss, [(3, 2), (5, 2)], [(3, 2), (5, 2)],
                              "rkdd_loss: tap 1 has 5 rows but tap 0 has 3"),
    "ikd_rows": (ikd_loss, [(3, 2)], [(4, 2)],
                 "ikd_loss: tap 0 has 3 student rows and 4 teacher rows"),
}


@pytest.mark.parametrize("case", list(TAP_LIST_ERRORS))
def test_tap_list_errors(case):
    loss, s_shapes, t_shapes, message = TAP_LIST_ERRORS[case]
    rng = np.random.default_rng(19)
    s = [Tensor(rng.normal(size=shape)) for shape in s_shapes]
    t = [rng.normal(size=shape) for shape in t_shapes]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        loss(s, t)


class TestGkd:
    def test_two_node_example(self):
        # adjacencies differ by 0.1 in both off-diagonal slots -> 2 * 0.01
        g_s, g_t = (SimilarityGraph(weights=a, adjacency=a) for a in (
            np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0, 0.9], [0.9, 0.0]])))
        assert_allclose(gkd_loss([g_s], [g_t]).data, 0.02, atol=1e-15)

    def test_identical_graphs_give_zero(self):
        rng = np.random.default_rng(11)
        reps = rng.normal(size=(8, 4))
        g = build_similarity_graph(reps, k=3)
        assert gkd_loss([g], [g]).data == 0.0

    def test_sums_over_taps(self):
        rng = np.random.default_rng(12)
        gs = [build_similarity_graph(rng.normal(size=(6, 3)), k=2) for _ in range(3)]
        gt = [build_similarity_graph(rng.normal(size=(6, 3)), k=2) for _ in range(3)]
        total = gkd_loss(gs, gt).data
        parts = sum(gkd_loss([a], [b]).data for a, b in zip(gs, gt))
        assert_allclose(total, parts, rtol=1e-12)

    def test_node_count_mismatch_rejected(self):
        g_s = build_similarity_graph(np.eye(4), k=1)
        g_t = build_similarity_graph(np.eye(5), k=1)
        with pytest.raises(ValueError):
            gkd_loss([g_s], [g_t])

    def test_stack_shape_mismatch_rejected(self):
        rng = np.random.default_rng(19)
        one = build_similarity_graph([rng.normal(size=(5, 3))], k=2)  # a (1, 5, 5) stack
        single = build_similarity_graph(rng.normal(size=(5, 3)), k=2)
        with pytest.raises(ValueError, match=r"gkd_loss: graph 0 .*\(1, 5, 5\).*\(5, 5\)"):
            gkd_loss([one], [single])
        small = build_similarity_graph([rng.normal(size=(5, 3))] * 2, k=2)
        large = build_similarity_graph([rng.normal(size=(6, 3))] * 2, k=2)
        with pytest.raises(ValueError, match=r"gkd_loss: graph 0 .*\(2, 5, 5\).*\(2, 6, 6\)"):
            gkd_loss([small], [large])

    def test_stacked_loss_equals_per_tap_loss(self):
        rng = np.random.default_rng(20)
        s = [rng.normal(size=(8, d)) for d in (3, 5, 2)]
        t = [rng.normal(size=(8, 6)) for _ in s]
        stacked = gkd_loss(
            [build_similarity_graph(s, k=3, p=2)], [build_similarity_graph(t, k=3, p=2)]
        )
        per_tap = gkd_loss(
            [build_similarity_graph(x, k=3, p=2) for x in s],
            [build_similarity_graph(x, k=3, p=2) for x in t],
        )
        assert_allclose(stacked.data, per_tap.data, rtol=1e-14)

    def test_stacked_term_is_one_tape_node(self):
        rng = np.random.default_rng(21)
        xs = [Tensor(rng.normal(size=(8, d)), requires_grad=True) for d in (3, 5)]
        student = build_similarity_graph(xs, k=3, p=2)
        teacher = build_similarity_graph([rng.normal(size=(8, 6)) for _ in xs], k=3, p=2)
        a_s = student.adjacency_tensor
        loss = gkd_loss([student], [teacher])
        assert loss._parents == (a_s,)
        assert len(tape(loss)) == len(tape(a_s)) + 1
        backward(mul(loss, 0.3))
        # the same term through the generic ops, on a leaf holding A_student
        ref_leaf = Tensor(a_s.data, requires_grad=True)
        ref = total(square(sub(ref_leaf, Tensor(teacher.adjacency))))
        backward(mul(ref, 0.3))
        assert loss.data.tobytes() == ref.data.tobytes()
        assert a_s.grad.tobytes() == ref_leaf.grad.tobytes()

    def test_per_example_sums_to_loss(self):
        rng = np.random.default_rng(13)
        g_s = build_similarity_graph(rng.normal(size=(7, 3)), k=3)
        g_t = build_similarity_graph(rng.normal(size=(7, 3)), k=3)
        per = per_example_gkd(g_s, g_t)
        assert per.shape == (7,)
        assert_allclose(per.sum(), gkd_loss([g_s], [g_t]).data, rtol=1e-12)

    def test_per_row_rescale_invariance(self):
        """Cosine kills per-example positive scaling, so the loss must too."""
        rng = np.random.default_rng(14)
        reps = separated_reps(rng, 8, 4, 3)
        teacher = build_similarity_graph(rng.normal(size=(8, 4)), k=3)
        scales = rng.uniform(0.5, 2.0, size=(8, 1))
        base = gkd_loss([build_similarity_graph(reps, k=3)], [teacher]).data
        scaled = gkd_loss([build_similarity_graph(reps * scales, k=3)], [teacher]).data
        assert abs(base - scaled) < 1e-9

    # (k, p, mask_mode, zero row?) for 6 nodes: the masks, p = 3, k at both
    # bounds (n - 1 is the dense path, 1 the asymmetric union) and a
    # zero-degree node
    FD_CASES = {
        "k2": (2, 1, "all", False),
        "inter_class": (2, 1, "inter_class", False),
        "intra_class": (3, 1, "intra_class", False),
        "p3": (2, 3, "all", False),
        "dense_k": (5, 2, "all", False),
        "k1_union": (1, 1, "all", False),
        "zero_row": (2, 2, "all", True),
    }
    LABELS = np.array([0, 1, 0, 1, 1, 0])

    def test_gradient_matches_fd(self):
        for seed, (name, (k, p, mode, zero_row)) in enumerate(self.FD_CASES.items(), start=15):
            rng = np.random.default_rng(seed)
            s0 = separated_reps(rng, 6, 3, k)
            if zero_row:
                s0[2] = 0.0
            # a dense teacher graph shares an edge with every student graph
            g_t = build_similarity_graph(
                rng.normal(size=(6, 3)), k=5, p=p, mask_mode=mode, labels=self.LABELS
            )
            # the cosine of a zero row jumps under any probe, so probe the others
            rows = np.flatnonzero(np.any(s0 != 0.0, axis=1))

            def value(sub):
                arr = s0.copy()
                arr[rows] = sub
                graph = build_similarity_graph(arr, k=k, p=p, mask_mode=mode, labels=self.LABELS)
                return gkd_loss([graph], [g_t]).data.item()

            x = Tensor(s0, requires_grad=True)
            graph = build_similarity_graph(x, k=k, p=p, mask_mode=mode, labels=self.LABELS)
            backward(gkd_loss([graph], [g_t]))
            numeric = fd_gradient(value, s0[rows])
            assert_allclose(x.grad[rows], numeric, rtol=1e-4, atol=1e-7, err_msg=name)
            assert np.abs(numeric).max() > 1e-3, name  # the case is not flat
            assert_array_equal(np.delete(x.grad, rows, axis=0), 0.0)

    def test_stacked_gradient_matches_fd(self):
        # two taps of unequal widths, one with a zero row, share every stage
        # of one stack but the gram
        rng = np.random.default_rng(22)
        k, p, mode = 2, 2, "all"
        s0 = [separated_reps(rng, 6, 3, k), separated_reps(rng, 6, 4, k)]
        s0[1][3] = 0.0
        teacher = build_similarity_graph(
            [rng.normal(size=(6, 4)) for _ in s0], k=5, p=p, mask_mode=mode, labels=self.LABELS
        )
        xs = [Tensor(x, requires_grad=True) for x in s0]
        graph = build_similarity_graph(xs, k=k, p=p, mask_mode=mode, labels=self.LABELS)
        backward(gkd_loss([graph], [teacher]))
        for i, x in enumerate(xs):
            rows = np.flatnonzero(np.any(s0[i] != 0.0, axis=1))

            def value(sub):
                taps = [arr.copy() for arr in s0]
                taps[i][rows] = sub
                built = build_similarity_graph(taps, k=k, p=p, mask_mode=mode, labels=self.LABELS)
                return gkd_loss([built], [teacher]).data.item()

            numeric = fd_gradient(value, s0[i][rows])
            assert_allclose(x.grad[rows], numeric, rtol=1e-4, atol=1e-7, err_msg=f"tap {i}")
            assert np.abs(numeric).max() > 1e-3
            assert_array_equal(np.delete(x.grad, rows, axis=0), 0.0)


def graph_gkd(s, t, labels=None, **graph):
    """(value, input gradients) of ``gkd_loss`` over one stacked graph per side."""
    xs = [leaf(a) for a in s]
    loss = gkd_loss([build_similarity_graph(xs, labels=labels, **graph)],
                    [build_similarity_graph(list(t), labels=labels, **graph)])
    backward(loss)
    return loss, [x.grad for x in xs]


def tap_gkd(s, t, labels=None, **graph):
    """(value, input gradients, whether the factored node took every pair) of
    ``gkd_tap_loss`` on the same taps."""
    xs = [leaf(a) for a in s]
    loss = gkd_tap_loss(xs, list(t), GraphParams(**graph), labels)
    factored = loss._parents == tuple(xs)  # read before backward consumes the tape
    backward(loss)
    return loss, [x.grad for x in xs], factored


def relu_taps(rng, n, widths):
    return [np.maximum(rng.normal(size=(n, d)), 0.0) for d in widths]


class TestFactoredGkd:
    """Dense GKD on non-negative taps as one node, against the graph pair."""

    def check(self, s, t):
        n = s[0].shape[0]
        got, got_grads, factored = tap_gkd(s, t, k=n - 1)
        assert factored
        ref, ref_grads = graph_gkd(s, t, k=n - 1)
        assert_allclose(got.data, ref.data, rtol=1e-12)
        for tap, g, g_ref in zip(s, got_grads, ref_grads):
            assert g.shape == tap.shape
            # off the support the graph's W > 0 mask gives slope 0 at an exactly
            # zero cosine; a ReLU passes no gradient there
            on = tap > 0
            assert np.abs(g - g_ref)[on].max(initial=0.0) <= 1e-12 * np.abs(g_ref).max()
        return got

    def test_unequal_widths_on_one_side(self):
        rng = np.random.default_rng(60)
        self.check(relu_taps(rng, 16, (3, 5, 2)), relu_taps(rng, 16, (6, 6, 6)))
        self.check(relu_taps(rng, 16, (4, 4)), relu_taps(rng, 16, (9, 3)))

    def test_dead_row(self):
        rng = np.random.default_rng(61)
        s, t = relu_taps(rng, 16, (4, 5)), relu_taps(rng, 16, (6, 6))
        s[1][3] = 0.0
        t[0][7] = 0.0
        self.check(s, t)

    def test_row_orthogonal_to_all_others(self):
        rng = np.random.default_rng(62)
        s, t = relu_taps(rng, 10, (4,)), relu_taps(rng, 10, (5,))
        s[0][1:, 0] = 0.0
        s[0][0] = [2.0, 0.0, 0.0, 0.0]
        assert _unit_stack(s)[3][0, 0] == 0.0  # exactly, not by roundoff
        self.check(s, t)

    def test_two_nodes(self):
        # A is [[0, 1], [1, 0]], or 0 with a dead row: constant on the support
        got = self.check([np.array([[1.0], [2.0]])], [np.array([[0.0], [3.0]])])
        assert got.data == 2.0

    def test_gradient_matches_fd(self):
        # strictly positive taps: no cosine sits at the clamp
        rng = np.random.default_rng(63)
        s0 = [rng.uniform(0.1, 1.0, size=(7, d)) for d in (3, 4)]
        t = [rng.uniform(0.1, 1.0, size=(7, 5)) for _ in s0]
        _, grads, factored = tap_gkd(s0, t, k=6)
        assert factored
        for i in range(len(s0)):

            def value(arr, i=i):
                taps = [arr if j == i else a for j, a in enumerate(s0)]
                loss = gkd_tap_loss([Tensor(a) for a in taps], t, GraphParams(k=6), None)
                return loss.data.item()

            numeric = fd_gradient(value, s0[i])
            assert_allclose(grads[i], numeric, rtol=1e-4, atol=1e-7, err_msg=f"tap {i}")
            assert np.abs(numeric).max() > 1e-3


# one dense GKD value through the factored node, on the block taps of a
# workload-sized step: the teacher's Gram stack has 3 x 64 x 64 = 12288
# entries, past the length at which OpenBLAS splits a dot product over threads
FACTORED_VALUE = """
import numpy as np
from graphkd.autodiff import Tensor
from graphkd.config import GraphParams
from graphkd.losses import gkd_tap_loss

rng = np.random.default_rng(80)
s = [Tensor(np.maximum(rng.normal(size=(128, 8)), 0.0), requires_grad=True) for _ in range(3)]
t = [np.maximum(rng.normal(size=(128, 64)), 0.0) for _ in range(3)]
loss = gkd_tap_loss(s, t, GraphParams(k=127), None)
print(loss._parents == tuple(s), repr(loss.data.item()))
"""


def test_factored_value_does_not_depend_on_the_blas_thread_count():
    env = dict(os.environ, PYTHONPATH=str(Path(graphkd.__file__).parents[1]))
    lines = [subprocess.run([sys.executable, "-c", FACTORED_VALUE], capture_output=True,
                            text=True, check=True,
                            env=dict(env, OPENBLAS_NUM_THREADS=threads)).stdout
             for threads in ("1", "2")]
    assert lines[0].startswith("True ")  # the factored node took every pair
    assert lines[0] == lines[1]


class TestGkdTapRouting:
    """A pair the factored node cannot take exactly, or a graph it does not
    cover, gives the stacked graph pair's term bit for bit."""

    N = 8
    LABELS = np.array([0, 1, 0, 1, 1, 0, 0, 1])

    def pair(self, case):
        rng = np.random.default_rng(70)
        s, t = relu_taps(rng, self.N, (3,)), relu_taps(rng, self.N, (5,))
        graph = {"k": self.N - 1}
        if case == "negative":
            s[0][2, 1] = -0.25
        elif case == "nan":
            t[0][4, 0] = np.nan
        elif case == "inf":
            s[0][1, 2] = np.inf
        elif case == "degree_below_one":
            # row 0 all but orthogonal to the others: its degree is about 0.05
            t[0][:, 0] = 0.0
            t[0][0] = [1.0, 0.01, 0.0, 0.0, 0.0]
            t[0][1:, 1:] += 0.5
        elif case == "width_n":
            s = relu_taps(rng, self.N, (self.N,))
        elif case == "sparse":
            graph = {"k": 3}
        elif case == "p2":
            graph = {"k": self.N - 1, "p": 2}
        elif case in ("inter_class", "intra_class"):
            graph = {"k": self.N - 1, "mask_mode": case}
        return s, t, graph

    @pytest.mark.parametrize("case", ["negative", "nan", "inf", "degree_below_one", "width_n",
                                      "sparse", "p2", "inter_class", "intra_class"])
    def test_term_is_the_graph_pair_bit_for_bit(self, case):
        s, t, graph = self.pair(case)
        if case == "degree_below_one":
            deg = _unit_stack(t)[3]
            assert 0.0 < deg.min() < 1.0
        with np.errstate(all="ignore"):  # NaN and inf flow through the graph pipeline
            got, got_grads, factored = tap_gkd(s, t, labels=self.LABELS, **graph)
            ref, ref_grads = graph_gkd(s, t, labels=self.LABELS, **graph)
        assert not factored
        assert got.data.tobytes() == ref.data.tobytes()
        for g, g_ref in zip(got_grads, ref_grads):
            assert g.tobytes() == g_ref.tobytes()

    def test_unaltered_pair_takes_the_factored_node(self):
        # the control for the cases above
        s, t, graph = self.pair("unaltered")
        assert tap_gkd(s, t, **graph)[2]

    def test_a_pair_beside_an_unfit_one_takes_the_graph_pair(self):
        # the route is decided once per call: the unaltered pair beside the
        # degree_below_one pair is not factored either
        s, t, graph = self.pair("unaltered")
        s2, t2, _ = self.pair("degree_below_one")
        got, got_grads, factored = tap_gkd(s + s2, t + t2, **graph)
        ref, ref_grads = graph_gkd(s + s2, t + t2, **graph)
        assert not factored
        assert got.data.tobytes() == ref.data.tobytes()
        for g, g_ref in zip(got_grads, ref_grads):
            assert g.tobytes() == g_ref.tobytes()


def graph_rows(s, t, labels=None, **graph):
    """``per_example_gkd`` of each pair's two graphs, built one tap at a time."""
    return np.stack([per_example_gkd(build_similarity_graph(a, labels=labels, **graph),
                                     build_similarity_graph(b, labels=labels, **graph))
                     for a, b in zip(s, t)])


class TestPerExampleGkdTaps:
    """Per-example GKD from taps: the factored rows against rows of built
    graphs, and every other pair's rows as ``per_example_gkd``'s, byte for byte."""

    N = 16

    def factored_rows(self, monkeypatch, s, t, **graph):
        """``per_example_gkd_taps``'s rows, checked to come from the factored form."""
        calls, rows = [], losses._factored_rows
        monkeypatch.setattr(losses, "_factored_rows", lambda *a: calls.append(a) or rows(*a))
        got = per_example_gkd_taps([leaf(a) for a in s], t, GraphParams(**graph), None)
        assert len(calls) == 1
        return got

    @pytest.mark.parametrize("case", ["unequal_widths", "dead_row", "orthogonal_row"])
    def test_factored_rows_match_built_graphs(self, monkeypatch, case):
        rng = np.random.default_rng(90)
        s, t = relu_taps(rng, self.N, (3, 5, 2)), relu_taps(rng, self.N, (6, 9, 4))
        if case == "dead_row":
            s[1][3] = 0.0
            t[0][7] = 0.0
        elif case == "orthogonal_row":
            s[0][1:, 0] = 0.0
            s[0][0] = [2.0, 0.0, 0.0]
            assert _unit_stack(s)[3][0, 0] == 0.0
        got = self.factored_rows(monkeypatch, s, t, k=self.N - 1)
        assert got.shape == (3, self.N)
        assert_allclose(got, graph_rows(s, t, k=self.N - 1), rtol=1e-12, atol=0.0)

    def test_near_match_stays_within_the_error_of_its_terms(self, monkeypatch):
        # the cancellation case: a student within 0.1% of its teacher has rows
        # below 1e-5 of the Gram terms they are the difference of.  Each row is
        # then good to a few ulps of those terms, ss_i + tt_i, which built
        # graphs give as |A_i|^2 + 1/deg_i^2 per side (v_i = u_i / sqrt(deg_i))
        rng = np.random.default_rng(91)
        t = [rng.uniform(0.1, 1.0, size=(self.N, d)) for d in (4, 7)]
        s = [a * (1.0 + 1e-3 * rng.normal(size=a.shape)) for a in t]
        got = self.factored_rows(monkeypatch, s, t, k=self.N - 1)
        ref = graph_rows(s, t, k=self.N - 1)
        scale = sum(np.stack([(g.adjacency ** 2).sum(axis=1) + g.weights.sum(axis=1) ** -2.0
                              for g in (build_similarity_graph(a, k=self.N - 1) for a in side)])
                    for side in (s, t))
        assert (ref / scale).max() < 1e-5
        assert np.all(np.abs(got - ref) <= 1e-14 * scale)
        assert_allclose(got, ref, rtol=1e-7, atol=0.0)

    def test_identical_taps_give_zero_rows(self, monkeypatch):
        rng = np.random.default_rng(92)
        t = relu_taps(rng, self.N, (5, 3))
        got = self.factored_rows(monkeypatch, [a.copy() for a in t], t, k=self.N - 1)
        assert_array_equal(got, 0.0)

    def test_roundoff_takes_no_row_below_zero(self, monkeypatch):
        # within 1e-8 of its teacher a row is below the roundoff of its terms,
        # which would take some rows below 0
        rng = np.random.default_rng(91)
        t = [rng.uniform(0.1, 1.0, size=(self.N, d)) for d in (4, 7)]
        s = [a * (1.0 + 1e-8 * rng.normal(size=a.shape)) for a in t]
        assert self.factored_rows(monkeypatch, s, t, k=self.N - 1).min() == 0.0

    def test_rows_sum_to_the_tap_loss(self):
        # block taps beside a signed logits tap: both routes in one call
        rng = np.random.default_rng(93)
        s = [*relu_taps(rng, self.N, (3, 5)), rng.normal(size=(self.N, 2))]
        t = [*relu_taps(rng, self.N, (6, 6)), rng.normal(size=(self.N, 2))]
        graph = GraphParams(k=self.N - 1)
        loss = gkd_tap_loss([leaf(a) for a in s], t, graph, None)
        assert loss.data != 0.0
        assert_allclose(per_example_gkd_taps(s, t, graph, None).sum(), loss.data, rtol=1e-12)

    @pytest.mark.parametrize("case", ["logits", "nan", "sparse", "p2", "inter_class"])
    def test_other_pairs_give_per_example_gkd_bytes(self, case):
        rng = np.random.default_rng(94)
        labels = rng.integers(0, 2, size=self.N)
        s, t = relu_taps(rng, self.N, (3, 5)), relu_taps(rng, self.N, (6, 6))
        graph, graph_taps = {"k": self.N - 1}, [0, 1]
        if case == "logits":
            s, t = s + [rng.normal(size=(self.N, 2))], t + [rng.normal(size=(self.N, 2))]
            graph_taps = [2]
        elif case == "nan":
            t[1][4, 0] = np.nan
            graph_taps = [1]
        elif case == "sparse":
            graph = {"k": 5}
        elif case == "p2":
            graph = {"k": self.N - 1, "p": 2}
        elif case == "inter_class":
            graph = {"k": self.N - 1, "mask_mode": case}
        with np.errstate(all="ignore"):  # NaN flows through the graph pipeline
            got = per_example_gkd_taps(s, t, GraphParams(**graph), labels)
            ref = graph_rows(s, t, labels=labels, **graph)
        for i in graph_taps:
            assert got[i].tobytes() == ref[i].tobytes()
        assert_allclose(got, ref, rtol=1e-12, atol=0.0)  # any factored tap, to roundoff

    def test_the_tap_loss_and_the_rows_share_one_route(self, monkeypatch):
        seen, route = [], losses._factored_route
        monkeypatch.setattr(losses, "_factored_route",
                            lambda pairs, graph: seen.append(len(pairs)) or route(pairs, graph))
        rng = np.random.default_rng(95)
        s, t = relu_taps(rng, self.N, (3, 5)), relu_taps(rng, self.N, (6, 6))
        graph = GraphParams(k=self.N - 1)
        gkd_tap_loss([leaf(a) for a in s], t, graph, None)
        per_example_gkd_taps(s, t, graph, None)
        assert seen == [2, 2]


class TestSumNode:
    """The sum over taps (or graphs) is one tape node over the per-tap terms,
    bitwise equal to the add chain and, for IKD and RKD-D, the scale's mul."""

    N = 8
    WIDTHS = (3, 5, 2, 4)

    def terms(self, loss, xs, teacher):
        if loss == "gkd":
            return [_squared_distance(build_similarity_graph(x, k=3, p=2).adjacency_tensor,
                                      t.adjacency) for x, t in zip(xs, teacher)]
        tap_term = _squared_distance if loss == "ikd" else _rkdd_tap
        return [tap_term(x, t) for x, t in zip(xs, teacher)]

    @pytest.mark.parametrize("taps", [1, 2, 4])
    @pytest.mark.parametrize("loss", ["ikd", "rkdd", "gkd"])
    def test_values_and_gradients_equal_the_add_chain(self, loss, taps):
        rng = np.random.default_rng(40 + taps)
        n, widths = self.N, self.WIDTHS[:taps]
        s = [rng.normal(size=(n, d)) for d in widths]
        t = [rng.normal(size=(n, d if loss == "ikd" else 6)) for d in widths]
        xs = [leaf(a) for a in s]
        if loss == "gkd":
            teacher = [build_similarity_graph(x, k=3, p=2) for x in t]
            got = gkd_loss([build_similarity_graph(x, k=3, p=2) for x in xs], teacher)
            scale = None
        elif loss == "ikd":
            teacher, got, scale = t, ikd_loss(xs, t), 1.0 / (n * taps)
        else:
            teacher, got, scale = t, rkdd_loss(xs, t), 1.0 / (n * (n - 1))
        if taps > 1 or scale is not None:
            # one node whose parents are the per-tap terms, one node each
            assert len(got._parents) == taps
            assert all(len(term._parents) == 1 for term in got._parents)
        else:  # one unscaled term is its own sum
            assert _sum_node([got]) is got
        backward(mul(got, 0.7))
        ref_xs = [leaf(a) for a in s]
        terms = self.terms(loss, ref_xs, teacher)
        ref = terms[0]
        for term in terms[1:]:
            ref = add(ref, term)
        if scale is not None:
            ref = mul(ref, scale)
        backward(mul(ref, 0.7))
        assert got.data.tobytes() == ref.data.tobytes()
        for x, ref_x in zip(xs, ref_xs):
            assert x.grad.tobytes() == ref_x.grad.tobytes()


class TestPermutationInvariance:
    def test_rkdd_invariant_under_joint_permutation(self):
        rng = np.random.default_rng(16)
        s = rng.normal(size=(6, 3))
        t = rng.normal(size=(6, 3))
        perm = rng.permutation(6)
        base = rkdd_loss([Tensor(s)], [Tensor(t)]).data
        permuted = rkdd_loss([Tensor(s[perm])], [Tensor(t[perm])]).data
        assert_allclose(permuted, base, atol=1e-12)

    def test_gkd_invariant_under_joint_permutation(self):
        rng = np.random.default_rng(17)
        s = separated_reps(rng, 7, 3, 2)
        t = separated_reps(rng, 7, 3, 2)
        perm = rng.permutation(7)
        base = gkd_loss(
            [build_similarity_graph(s, k=2)], [build_similarity_graph(t, k=2)]
        ).data
        permuted = gkd_loss(
            [build_similarity_graph(s[perm], k=2)],
            [build_similarity_graph(t[perm], k=2)],
        ).data
        assert_allclose(permuted, base, atol=1e-12)

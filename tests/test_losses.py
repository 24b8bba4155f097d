"""Loss definitions: frozen hand-worked values, reference enumerations, FD grads."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from graphkd.autodiff import Tensor, backward
from graphkd.graphs import build_similarity_graph
from graphkd.losses import (
    gkd_loss,
    huber,
    ikd_loss,
    normalized_pairwise_distances,
    per_example_gkd,
    per_example_rkdd,
    rkdd_loss,
    task_loss,
)

from _oracles import (
    fd_gradient,
    oracle_ikd,
    oracle_rkdd,
    oracle_task_loss,
    separated_reps,
)


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


class TestPairwiseDistances:
    def test_mean_of_offdiagonal_is_one(self):
        rng = np.random.default_rng(3)
        d = normalized_pairwise_distances(Tensor(rng.normal(size=(6, 4)))).data
        n = 6
        assert_allclose(d.sum() / (n * (n - 1)), 1.0, rtol=1e-12)
        assert_array_equal(np.diag(d), np.zeros(n))

    def test_identical_points_collapse_to_zero(self):
        d = normalized_pairwise_distances(Tensor(np.ones((4, 3)))).data
        assert_array_equal(d, np.zeros((4, 4)))

    def test_global_scale_invariance(self):
        rng = np.random.default_rng(4)
        reps = rng.normal(size=(5, 3))
        d1 = normalized_pairwise_distances(Tensor(reps)).data
        d2 = normalized_pairwise_distances(Tensor(reps * 7.3)).data
        assert_allclose(d1, d2, atol=1e-9)


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
        s0 = rng.normal(size=(5, 3))
        t = [Tensor(rng.normal(size=(5, 3)))]

        def value(arr):
            return rkdd_loss([Tensor(arr)], t).data.item()

        x = leaf(s0)
        backward(rkdd_loss([x], t))
        assert_allclose(x.grad, fd_gradient(value, s0), rtol=1e-4, atol=1e-7)


class TestGkd:
    def test_two_node_example(self):
        # adjacencies differ by 0.1 in both off-diagonal slots -> 2 * 0.01
        g_s = Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]))
        g_t = Tensor(np.array([[0.0, 0.9], [0.9, 0.0]]))
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

    def test_per_example_sums_to_loss(self):
        rng = np.random.default_rng(13)
        g_s = build_similarity_graph(rng.normal(size=(7, 3)), k=3)
        g_t = build_similarity_graph(rng.normal(size=(7, 3)), k=3)
        per = per_example_gkd(g_s.adjacency, g_t.adjacency)
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

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(15)
        s0 = separated_reps(rng, 6, 3, 2)
        g_t = build_similarity_graph(rng.normal(size=(6, 3)), k=2)

        def value(arr):
            return gkd_loss([build_similarity_graph(arr, k=2)], [g_t]).data.item()

        x = Tensor(s0, requires_grad=True)
        backward(gkd_loss([build_similarity_graph(x, k=2)], [g_t]))
        assert_allclose(x.grad, fd_gradient(value, s0), rtol=1e-4, atol=1e-7)


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

"""Graph-construction pipeline and spectral toolkit tests.

The pipeline is checked two ways: frozen hand-worked values on tiny inputs,
and equivalence with the loop-based reference in ``_oracles`` on random
batches.  Its stages are private helpers of ``build_similarity_graph``;
the stage tests call them on one (n, n) matrix through the wrappers below.
"""

import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from graphkd.autodiff import Tensor, backward, record
from graphkd.config import GraphParams
from graphkd.graphs import (
    _cosine,
    _knn,
    _normalize,
    _powers,
    _select,
    build_similarity_graph,
    class_mask,
    fiedler_vector,
    laplacian,
    smoothness,
    symmetric_eig,
)
from graphkd.losses import gkd_loss

from _oracles import (
    broadcast_degree_normalize,
    oracle_cosine,
    oracle_pipeline,
    oracle_topk_union,
    separated_reps,
)
from _tape_ops import mul, total

PATH_W = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
PATH_L = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])


def cosine(reps):
    """The cosine stage on one batch."""
    return _cosine([reps])[0][0]


def knn(sim, k):
    """The k-NN stage on one matrix."""
    return _knn(np.asarray(sim, dtype=np.float64)[None], k)[0]


def normalize(w):
    """The degree-normalization stage on one W."""
    return _normalize(np.asarray(w, dtype=np.float64))[0]


class TestCosine:
    def test_known_pair(self):
        sim = cosine(np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert_allclose(sim[0, 1], 0.7071067811865475, atol=1e-12)
        assert sim[0, 1] == sim[1, 0]

    def test_diagonal_is_zero(self):
        sim = cosine(np.random.default_rng(0).normal(size=(5, 3)))
        assert_array_equal(np.diag(sim), np.zeros(5))

    def test_negative_similarity_clamped(self):
        sim = cosine(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert sim[0, 1] == 0.0

    def test_zero_row_gets_zero_similarity(self):
        sim = cosine(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]))
        assert_array_equal(sim[0], np.zeros(3))
        assert_array_equal(sim[:, 0], np.zeros(3))
        assert sim[1, 2] > 0

    def test_exactly_symmetric(self):
        # the pipeline takes the cosine stage's symmetry as given at dense k
        rng = np.random.default_rng(8)
        for n, d in ((5, 1), (128, 2), (128, 8), (128, 64), (256, 8)):
            sim = cosine(rng.normal(size=(n, d)))
            assert_array_equal(sim, sim.T)
            graph = build_similarity_graph([rng.normal(size=(n, d))] * 2, k=n - 1)
            assert_array_equal(graph.weights, np.swapaxes(graph.weights, -1, -2))

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(3)
        reps = rng.normal(size=(8, 4))
        assert_allclose(cosine(reps), oracle_cosine(reps), atol=1e-13)


class TestClassMask:
    LABELS = np.array([0, 0, 1])

    def test_inter_class_keeps_only_cross_edges(self):
        sim = np.ones((3, 3)) - np.eye(3)
        out = class_mask(sim, self.LABELS, "inter_class")
        expected = np.array([[0, 0, 1], [0, 0, 1], [1, 1, 0]], dtype=float)
        assert_array_equal(out, expected)

    def test_intra_class_keeps_only_same_label_edges(self):
        sim = np.ones((3, 3)) - np.eye(3)
        out = class_mask(sim, self.LABELS, "intra_class")
        expected = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
        assert_array_equal(out, expected)

    def test_masked_out_infinities_become_zero(self):
        out = class_mask(np.full((3, 3), -np.inf), self.LABELS, "inter_class")
        cross = np.array([[0, 0, 1], [0, 0, 1], [1, 1, 0]], dtype=bool)
        assert_array_equal(out, np.where(cross, -np.inf, 0.0))

    def test_all_mode_is_identity(self):
        sim = np.random.default_rng(1).uniform(size=(4, 4))
        out = class_mask(sim, None, "all")
        assert_array_equal(out, sim)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mask"):
            class_mask(np.zeros((2, 2)), np.array([0, 1]), "between")


class TestSelect:
    """``_select`` must give ``np.where(keep, x, 0.0)``'s bytes for every value."""

    SPECIAL = [np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324,
               2.2250738585072014e-308 / 3, 1.0, -1.5]

    @staticmethod
    def assert_same_bytes(keep, x):
        expected = np.where(keep, x, 0.0)
        got = _select(keep, x)
        assert got.shape == expected.shape and got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()

    def test_special_values_kept_and_dropped(self):
        x = np.array(self.SPECIAL * 2)
        keep = np.repeat([True, False], len(self.SPECIAL))
        self.assert_same_bytes(keep, x)
        got = _select(keep, x)
        assert np.signbit(got[4])  # a kept -0.0 stays -0.0
        assert not np.signbit(got[~keep]).any()  # a dropped -nan or -inf is +0.0

    def test_random_mask_with_special_values(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 40))
        x.flat[rng.choice(x.size, size=200, replace=False)] = rng.choice(self.SPECIAL, size=200)
        self.assert_same_bytes(rng.random((40, 40)) < 0.5, x)

    def test_mask_broadcast_over_a_stack(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 16, 16))
        x[1, 2, :5] = [np.nan, np.inf, -np.inf, -0.0, 5e-324]
        self.assert_same_bytes(rng.random((16, 16)) < 0.3, x)

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(3, 20, 30))
        base[:, ::3, ::4] = np.nan
        x = np.swapaxes(base, -1, -2)[:, ::2, 1:]
        assert not x.flags.c_contiguous
        self.assert_same_bytes(rng.random(x.shape[-2:]) < 0.5, x)

    def test_input_is_left_unchanged(self):
        x = np.array([[np.nan, -0.0], [2.0, -np.inf]])
        before = x.tobytes()
        _select(np.array([[False, True], [True, False]]), x)
        assert x.tobytes() == before


class TestKnn:
    def test_tie_prefers_lower_index(self):
        # node 0 sees identical similarity to 1 and 2; with k=1 it must keep 1
        sim = np.array(
            [
                [0.0, 0.5, 0.5, 0.1],
                [0.5, 0.0, 0.2, 0.1],
                [0.5, 0.2, 0.0, 0.1],
                [0.1, 0.1, 0.1, 0.0],
            ]
        )
        w = knn(sim, k=1)
        assert w[0, 1] == 0.5
        # the 0->2 direction is dropped, but 2 keeps 0 as ITS neighbour, and
        # the union makes the edge symmetric again
        assert w[0, 2] == 0.5

    def test_union_symmetrizes(self):
        sim = np.array(
            [
                [0.0, 0.9, 0.1],
                [0.9, 0.0, 0.8],
                [0.1, 0.8, 0.0],
            ]
        )
        w = knn(sim, k=1)
        # node 2 keeps edge to 1; node 1 keeps only 0; union keeps both
        assert w[1, 2] == 0.8 and w[2, 1] == 0.8
        assert_array_equal(w, w.T)

    def test_k_bounds(self):
        sim = np.zeros((4, 4))
        with pytest.raises(ValueError):
            knn(sim, 0)
        with pytest.raises(ValueError):
            knn(sim, 4)

    def test_full_k_keeps_everything(self):
        rng = np.random.default_rng(2)
        sim = oracle_cosine(rng.normal(size=(6, 3)))
        w = knn(sim, k=5)
        assert_array_equal(w, sim)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(11)
        for k in (1, 2, 4):
            reps = separated_reps(rng, 7, 3, k)
            sim = oracle_cosine(reps)
            assert_allclose(knn(sim, k), oracle_topk_union(sim, k), atol=0)


def _assert_matches_oracle_for_every_k(sim, dense=True):
    """Every k from 1 to n - 1; without ``dense``, up to n - 2, for a ``sim``
    that does not come from the cosine stage (its k = n - 1 returns ``sim``)."""
    for k in range(1, sim.shape[0] - (0 if dense else 1)):
        assert_allclose(knn(sim, k), oracle_topk_union(sim, k), atol=0)


class TestKnnProperties:
    """Edge cases of the top-k selection, every k from 1 to n-1, against the oracle."""

    def test_duplicated_rows_tie(self):
        rng = np.random.default_rng(71)
        reps = rng.normal(size=(5, 3))
        reps = reps[[0, 1, 0, 2, 1, 3, 4, 0]]  # rows 0, 2, 7 and 1, 4 coincide
        _assert_matches_oracle_for_every_k(cosine(reps))

    def test_equal_similarities_tie(self):
        rng = np.random.default_rng(72)
        for _ in range(20):
            sim = rng.integers(0, 3, size=(7, 7)) / 2.0
            _assert_matches_oracle_for_every_k(sim, dense=False)  # asymmetric
            _assert_matches_oracle_for_every_k(np.maximum(sim, sim.T), dense=False)

    def test_all_zero_rows(self):
        sim = cosine(np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [2.0, 0.5]]))
        assert_array_equal(sim[0], np.zeros(4))
        _assert_matches_oracle_for_every_k(sim)

    def test_single_class_inter_class_mask_gives_empty_graph(self):
        sim = cosine(np.random.default_rng(73).normal(size=(6, 3)))
        masked = class_mask(sim, np.zeros(6, dtype=int), "inter_class")
        _assert_matches_oracle_for_every_k(masked)
        assert_array_equal(knn(masked, 2), np.zeros((6, 6)))

    def test_rows_whose_kth_key_is_zero(self):
        # dead-ReLU rows, and a single-class batch under the inter_class mask:
        # rows with fewer than k positive entries keep only those, which
        # gives the oracle's W on the pipeline's stacked path
        rng = np.random.default_rng(76)
        n = 10
        reps = np.maximum(rng.normal(size=(n, 3)), 0.0)
        reps[[1, 4, 7]] = 0.0
        two_class = (np.arange(n) >= 7).astype(int)
        for labels in (np.zeros(n, dtype=int), two_class):
            sim = class_mask(cosine(reps), labels, "inter_class")
            off = sim[~np.eye(n, dtype=bool)].reshape(n, n - 1)
            for k in range(1, n - 1):
                kth = -np.sort(-off, axis=1)[:, k - 1]
                assert np.any((kth == 0) & (np.count_nonzero(off == 0, axis=1) > 1))
                x = Tensor(reps, requires_grad=True)
                graph = build_similarity_graph(
                    [x, reps[::-1]], k=k, p=2, mask_mode="inter_class", labels=labels
                )
                assert_allclose(graph.weights[0], oracle_topk_union(sim, k), atol=0)
                w_ref, a_ref = oracle_pipeline(reps, k, 2, "inter_class", labels)
                assert_allclose(graph.weights[0], w_ref, atol=1e-12)
                assert_allclose(graph.adjacency[0], a_ref, atol=1e-12)
                backward(total(mul(graph.adjacency_tensor, graph.adjacency_tensor)))
                assert np.all(np.isfinite(x.grad))
                assert_array_equal(x.grad[[1, 4, 7]], 0.0)

    def test_negative_infinity_entries(self):
        rng = np.random.default_rng(75)
        for _ in range(20):
            sim = rng.uniform(size=(6, 6))
            sim[rng.uniform(size=(6, 6)) < 0.4] = -np.inf
            sim[0, 1:] = -np.inf  # one row with no finite candidate
            _assert_matches_oracle_for_every_k(sim, dense=False)
            _assert_matches_oracle_for_every_k(np.maximum(sim, sim.T), dense=False)

    def test_diagonal_is_never_kept(self):
        sim = np.full((4, 4), -np.inf)
        np.fill_diagonal(sim, 5.0)
        for k in (1, 2):
            w = knn(sim, k)
            assert_array_equal(np.diag(w), np.zeros(4))
            assert_array_equal(w, oracle_topk_union(sim, k))

    def test_nan_ranks_below_every_number(self):
        nan = np.nan
        sim = np.array(
            [
                [0.0, nan, 0.3, nan],  # one number: keep it, then the first NaN
                [0.2, 0.0, 0.1, 0.4],
                [0.3, 0.1, 0.0, 0.1],
                [nan, 0.4, -np.inf, 0.0],  # -inf still outranks NaN
            ]
        )
        expected = np.array(
            [
                [0.0, nan, 0.3, 0.0],
                [nan, 0.0, 0.1, 0.4],
                [0.3, 0.1, 0.0, 0.0],
                [0.0, 0.4, 0.0, 0.0],
            ]
        )
        assert_array_equal(knn(sim, 2), expected)


class TestNormalize:
    def test_triangle_graph(self):
        w = np.ones((3, 3)) - np.eye(3)
        a = normalize(w)
        assert_allclose(a, (np.ones((3, 3)) - np.eye(3)) / 2.0, atol=1e-15)
        vals, _ = symmetric_eig(a)
        assert_allclose(sorted(vals), [-0.5, -0.5, 1.0], atol=1e-10)

    def test_two_node_graph_power_two_is_identity(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        a = normalize(w)
        assert_array_equal(a, w)
        a2 = _powers(a, 2)[-1]
        assert_allclose(a2, np.eye(2), atol=1e-15)

    def test_isolated_node_row_stays_zero(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 2.0
        a = normalize(w)
        assert_array_equal(a[2], np.zeros(3))
        assert_array_equal(a[:, 2], np.zeros(3))
        assert_allclose(a[0, 1], 1.0)

    @pytest.mark.parametrize("n", [2, 17, 128])
    def test_outer_product_matches_the_broadcast_form_bitwise(self, n):
        rng = np.random.default_rng(n)
        w = rng.uniform(size=(3, n, n)) * (rng.uniform(size=(3, n, n)) < 0.6)
        w[(w > 0) & (w < 0.05)] = 5e-324  # subnormal weights in rows of normal degree
        w = np.maximum(w, np.swapaxes(w, -1, -2))
        diag = np.arange(n)
        w[:, diag, diag] = 0.0
        for tap, row in enumerate(rng.integers(0, n, size=3)):
            w[tap, row, :] = w[tap, :, row] = 0.0  # a zero-degree row per slice
        a = _normalize(w)[0]
        assert a.tobytes() == broadcast_degree_normalize(w).tobytes()
        assert_array_equal(a, np.swapaxes(a, -1, -2))

    def test_tiny_degrees_are_rescaled_not_overflowed(self):
        # the cosine is 2e-310, so d^-1/2 ~ 7e154 squares past the largest
        # double; A does not change when W is scaled.  pytest's config turns
        # a RuntimeWarning into an error
        x = Tensor(np.array([[1.0, 1e-310], [1e-310, 1.0]]), requires_grad=True)
        graph = build_similarity_graph(x, k=1)
        assert_allclose(graph.adjacency, [[0.0, 1.0], [1.0, 0.0]], rtol=0, atol=1e-15)
        assert_array_equal(graph.weights, [[0.0, 2e-310], [2e-310, 0.0]])
        backward(total(graph.adjacency_tensor))
        assert np.isfinite(x.grad).all()

    @pytest.mark.parametrize("s", [1e-210, 1e-250])
    def test_degrees_whose_cubed_inverse_root_overflows_are_rescaled(self, s):
        # d^-1/2 ~ 7e104 and 7e124 square to a finite double, but the backward
        # cubes it past the largest one; a gkd loss reaches that backward
        x = Tensor(np.array([[1.0, s], [s, 1.0]]), requires_grad=True)
        graph = build_similarity_graph(x, k=1)
        assert_array_equal(graph.weights, [[0.0, 2 * s], [2 * s, 0.0]])
        assert_allclose(graph.adjacency, [[0.0, 1.0], [1.0, 0.0]], rtol=0, atol=1e-15)
        teacher = build_similarity_graph(np.array([[1.0, 0.5], [0.5, 1.0]]), k=1)
        backward(gkd_loss([graph], [teacher]))
        assert np.isfinite(x.grad).all()

    def test_subnormal_degree_beside_normal_ones_gives_a_finite_adjacency(self):
        # node 2's degree is subnormal, so its d^-1/2 ~ 7e154 squares to inf;
        # the largest degree is about 1, so rescaling W cannot help, but the
        # squared term only ever meets W's zero diagonal
        graph = build_similarity_graph(
            np.array([[1.0, 0.0, 0.0], [1.0, 0.1, 0.0], [1e-310, 0.0, 1.0]]), k=2
        )
        assert np.isfinite(graph.adjacency).all()
        assert graph.adjacency[2, 2] == 0.0

    def test_rescaled_slice_leaves_its_stack_neighbours_bits(self):
        rng = np.random.default_rng(5)
        w = rng.uniform(size=(3, 6, 6))
        w = np.maximum(w, np.swapaxes(w, -1, -2))
        w[:, np.arange(6), np.arange(6)] = 0.0
        w[1] *= 1e-310
        a = _normalize(w)[0]
        for tap in (0, 2):
            assert a[tap].tobytes() == broadcast_degree_normalize(w[tap]).tobytes()
        assert_allclose(a[1], broadcast_degree_normalize(w[1] * 1e300), rtol=1e-14)

    def test_spectrum_lies_in_unit_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            reps = rng.normal(size=(10, 4))
            g = build_similarity_graph(reps, k=3)  # p = 1: the adjacency is A itself
            assert_array_equal(g.adjacency, normalize(g.weights))
            vals, _ = symmetric_eig(g.adjacency)
            assert vals.min() >= -1.0 - 1e-10
            assert vals.max() <= 1.0 + 1e-10


class TestPower:
    def test_p_one_returns_input_unchanged(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        powers = _powers(a, 1)
        assert len(powers) == 1 and powers[0] is a

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError, match="build_similarity_graph: p must be"):
            _powers(np.eye(2), 0)

    def test_left_associated_power(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(4, 4))
        m = (m + m.T) / 2
        powers = _powers(m, 3)
        assert_array_equal(powers[1], m @ m)
        assert_array_equal(powers[2], (m @ m) @ m)


class TestPipeline:
    def test_matches_reference_with_masks(self):
        rng = np.random.default_rng(21)
        labels = np.array([0, 0, 1, 1, 2, 2, 0, 1])
        for mode in ("all", "inter_class", "intra_class"):
            for k, p in ((2, 1), (3, 2), (1, 3)):
                reps = separated_reps(rng, 8, 4, k)
                g = build_similarity_graph(reps, k=k, p=p, mask_mode=mode, labels=labels)
                w_ref, a_ref = oracle_pipeline(reps, k, p, mode, labels)
                assert_allclose(g.weights, w_ref, atol=1e-12)
                assert_allclose(g.adjacency, a_ref, atol=1e-12)

    def test_mask_without_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            build_similarity_graph(np.eye(3), k=1, mask_mode="inter_class")

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(31)
        reps = separated_reps(rng, 9, 3, 3)
        perm = rng.permutation(9)
        g = build_similarity_graph(reps, k=3, p=2)
        gp = build_similarity_graph(reps[perm], k=3, p=2)
        assert_allclose(gp.adjacency, g.adjacency[np.ix_(perm, perm)], atol=1e-12)

    def test_per_row_rescaling_leaves_graph_unchanged(self):
        rng = np.random.default_rng(41)
        reps = separated_reps(rng, 8, 4, 3)
        scales = rng.uniform(0.5, 3.0, size=(8, 1))
        g = build_similarity_graph(reps, k=3)
        gs = build_similarity_graph(reps * scales, k=3)
        assert_allclose(gs.weights, g.weights, atol=1e-9)
        assert_allclose(gs.adjacency, g.adjacency, atol=1e-9)

    def test_tensor_input_records_one_tape_node(self):
        rng = np.random.default_rng(52)
        labels = np.array([0, 1, 0, 1, 1, 0, 0])
        for k, p, mode in ((6, 1, "all"), (2, 3, "inter_class"), (1, 2, "intra_class")):
            reps = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
            g = build_similarity_graph(reps, k=k, p=p, mask_mode=mode, labels=labels)
            assert g.adjacency_tensor._parents == (reps,)
            assert_array_equal(g.adjacency_tensor.data, g.adjacency)
        assert build_similarity_graph(rng.normal(size=(7, 3)), k=2).adjacency_tensor is None

    def test_gradient_flows_through_adjacency(self):
        rng = np.random.default_rng(51)
        reps = Tensor(separated_reps(rng, 6, 3, 2), requires_grad=True)
        g = build_similarity_graph(reps, k=2)
        backward(total(mul(g.adjacency_tensor, g.adjacency_tensor)))
        assert np.any(reps.grad != 0.0)
        assert np.all(np.isfinite(reps.grad))


class TestBackwardBytes:
    """The graph node's input gradients under a fixed upstream gradient, pinned
    by sha256 digest, so that a rewrite of its backward must reproduce them
    bit for bit.  The upstream gradient reaches the node read-only: the
    backward may not write it (``record``'s contract).  The digests are those
    of this numpy and BLAS build; one that rounds matmuls differently needs
    them recomputed from the code they were first taken on."""

    N = 12
    LABELS = np.arange(12) % 3
    DIGESTS = {
        "dense": "9bdbfd07778503b9a22f683add4416fd869eb9910d5f54c61812f373e1ce9809",
        "sparse_inter_class": "246b917d921727c3874c4d68f8c25ce1647c693e68c458e9c06a5eab2ca306c9",
        "three_tap_stack": "7d4278d2dc112e2077c5f4fdf073d5346e715c672f04c1209ce27f360e28950e",
    }

    @staticmethod
    def input_gradients(taps, upstream, **graph):
        """The gradients of ``taps``' tensors when ``upstream`` is the graph
        node's upstream gradient."""
        leaves = [Tensor(t, requires_grad=True) for t in taps]
        adj = build_similarity_graph(leaves if len(leaves) > 1 else leaves[0], **graph)
        frozen = upstream.reshape(adj.adjacency_tensor.data.shape).copy()
        frozen.flags.writeable = False
        backward(record(np.sum(adj.adjacency * frozen), (adj.adjacency_tensor,),
                        lambda g: (frozen,)))
        return [x.grad for x in leaves]

    def case(self, name):
        rng = np.random.default_rng(91)
        n = self.N
        relu = np.maximum(rng.normal(size=(n, 6)), 0.0)
        relu[5] = 0.0  # a dead row
        if name == "dense":
            taps, graph = [rng.normal(size=(n, 4))], dict(k=n - 1, p=1)
        elif name == "sparse_inter_class":
            taps = [relu]
            graph = dict(k=3, p=2, mask_mode="inter_class", labels=self.LABELS)
        else:
            taps = [rng.normal(size=(n, 3)), relu, rng.normal(size=(n, 8))]
            graph = dict(k=5, p=3)
        upstream = rng.normal(size=(len(taps), n, n))  # not symmetric
        return self.input_gradients(taps, upstream, **graph)

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_gradient_bytes_are_pinned(self, name):
        grads = self.case(name)
        assert all(np.isfinite(g).all() and np.any(g != 0.0) for g in grads)
        digest = hashlib.sha256(b"".join(g.tobytes() for g in grads)).hexdigest()
        assert digest == self.DIGESTS[name]


def clustered_reps(rng, n, size):
    """Clusters of ``size`` near-parallel rows along orthogonal axes: each
    row's size - 1 nearest neighbours are its cluster, a symmetric topology."""
    clusters = n // size
    reps = 0.01 * rng.uniform(size=(n, clusters))
    reps[np.arange(n), np.arange(n) // size] += rng.uniform(1.0, 2.0, size=n)
    return reps


class TestStack:
    N = 18
    LABELS = np.arange(18) % 3

    def taps(self, rng, k):
        """Taps of unequal widths: a zero row, and one asymmetric slice placed
        between two slices whose k-NN topology is symmetric."""
        zero_row = rng.normal(size=(self.N, 5))
        zero_row[4] = 0.0
        return [
            clustered_reps(rng, self.N, k + 1),
            rng.normal(size=(self.N, 3)),
            clustered_reps(rng, self.N, k + 1)
            @ rng.uniform(0.5, 1.0, size=(self.N // (k + 1),) * 2),
            zero_row,
        ]

    def test_stack_equals_per_tap_builds(self):
        rng = np.random.default_rng(61)
        for k in (1, 8, self.N - 1):
            for mode in ("all", "inter_class", "intra_class"):
                for p in (1, 2, 3):
                    taps = self.taps(rng, k)
                    stack = build_similarity_graph(
                        taps, k=k, p=p, mask_mode=mode, labels=self.LABELS
                    )
                    assert stack.weights.shape == stack.adjacency.shape == (4, self.N, self.N)
                    for i, tap in enumerate(taps):
                        one = build_similarity_graph(
                            tap, k=k, p=p, mask_mode=mode, labels=self.LABELS
                        )
                        assert_array_equal(stack.weights[i], one.weights)
                        assert_array_equal(stack.adjacency[i], one.adjacency)

    def test_union_runs_on_the_asymmetric_slice_only(self):
        rng = np.random.default_rng(62)
        for k in (1, 8):
            w = build_similarity_graph(self.taps(rng, k), k=k).weights
            degrees = np.count_nonzero(w, axis=-1)
            assert np.all(degrees[[0, 2]] == k)  # symmetric: W is the kept matrix
            assert np.any(degrees[1] > k)  # the union added edges

    def test_tied_plain_and_short_rows_in_one_stack(self):
        # only rows that tie at the k-th place or are short of candidates take
        # the tie fix; each slice must still match its single-slice selection
        rng = np.random.default_rng(65)
        n, k = 10, 3
        tied_rows = 0
        for _ in range(20):
            tied = rng.integers(1, 4, size=(n, n)) / 4.0  # positive ties at every rank
            plain = (rng.permutation(n * n).reshape(n, n) + 1.0) / (n * n)  # no ties
            mixed = np.where((np.arange(n) % 2 == 0)[:, None], tied, plain)
            short = plain.copy()
            # rows 0, 3, 6 and 9 keep fewer than k numbers, in their lowest
            # columns, then NaN (the order oracle_topk_union's sort needs)
            for row in range(0, n, 3):
                short[row, rng.integers(0, k) :] = np.nan
            stack = np.stack([mixed, plain, short])
            w = _knn(stack, k)
            for sim, w_slice in zip(stack, w):
                assert_array_equal(w_slice, knn(sim, k))
                assert_allclose(w_slice, oracle_topk_union(sim, k), atol=0)
            off = mixed[~np.eye(n, dtype=bool)].reshape(n, n - 1)
            kth = -np.sort(-off, axis=1)[:, k - 1 : k]
            tied_rows += np.count_nonzero(np.count_nonzero(off >= kth, axis=1) > k)
        assert tied_rows > 0

        # taps with duplicated rows tie at the k-th place after the ReLU
        relu = np.maximum(rng.normal(size=(n, 4)), 0.0)
        taps = [relu[rng.integers(0, 4, size=n)], rng.normal(size=(n, 3)), relu]
        stack = build_similarity_graph(taps, k=k, p=2)
        for i, tap in enumerate(taps):
            one = build_similarity_graph(tap, k=k, p=2)
            assert_array_equal(stack.weights[i], one.weights)
            assert_array_equal(stack.adjacency[i], one.adjacency)

    def test_stacked_gradients_equal_single_tap_gradients(self):
        rng = np.random.default_rng(63)
        for k, p, mode in ((1, 1, "all"), (8, 2, "inter_class"), (17, 3, "intra_class")):
            taps = self.taps(rng, k)
            upstream = rng.normal(size=(len(taps), self.N, self.N))
            stacked = [Tensor(t, requires_grad=True) for t in taps]
            graph = build_similarity_graph(stacked, k=k, p=p, mask_mode=mode, labels=self.LABELS)
            assert graph.adjacency_tensor._parents == tuple(stacked)
            backward(total(mul(graph.adjacency_tensor, upstream)))
            for tap, x, up in zip(taps, stacked, upstream):
                single = Tensor(tap, requires_grad=True)
                one = build_similarity_graph(single, k=k, p=p, mask_mode=mode, labels=self.LABELS)
                backward(total(mul(one.adjacency_tensor, up)))
                assert_array_equal(x.grad, single.grad)

    def test_taps_must_share_the_batch(self):
        with pytest.raises(ValueError, match="rows"):
            build_similarity_graph([np.eye(4), np.eye(5)], k=1)
        with pytest.raises(ValueError, match="empty"):
            build_similarity_graph([], k=1)


class TestSpectral:
    def test_path_laplacian_matrix(self):
        assert_array_equal(laplacian(PATH_W), PATH_L)

    def test_path_eigenvalues(self):
        vals, _ = symmetric_eig(PATH_L)
        assert_allclose(vals, [0.0, 1.0, 3.0], atol=1e-10)

    def test_path_fiedler_vector(self):
        vec = fiedler_vector(PATH_L)
        assert_allclose(vec, np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0), atol=1e-8)

    def test_path_smoothness(self):
        assert_allclose(smoothness(PATH_L, np.array([1.0, 0.0, -1.0])), 2.0, atol=1e-12)

    def test_two_by_two_eigenvalues(self):
        vals, vecs = symmetric_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert_allclose(vals, [1.0, 3.0], atol=1e-12)
        assert_allclose(vecs @ vecs.T, np.eye(2), atol=1e-12)

    def test_constant_signal_smoothness_is_exactly_zero(self):
        rng = np.random.default_rng(6)
        reps = rng.normal(size=(12, 4))
        g = build_similarity_graph(reps, k=4)
        lap = laplacian(g.weights)
        assert smoothness(lap, np.full(12, 3.7)) == 0.0

    def test_smoothness_quadratic_and_edge_forms_agree(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            reps = rng.normal(size=(10, 3))
            g = build_similarity_graph(reps, k=4)
            lap = laplacian(g.weights)
            s = rng.normal(size=10)
            assert_allclose(smoothness(lap, s), float(s @ lap @ s), atol=1e-9)

    def test_eigendecomposition_reconstructs_matrix(self):
        rng = np.random.default_rng(26)
        for n in (2, 5, 17):
            m = rng.normal(size=(n, n))
            m = (m + m.T) / 2
            vals, vecs = symmetric_eig(m)
            assert_allclose(vecs @ np.diag(vals) @ vecs.T, m, atol=1e-9)
            assert_allclose(vecs.T @ vecs, np.eye(n), atol=1e-10)
            assert np.all(np.diff(vals) >= -1e-12)

    def test_eig_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            symmetric_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_laplacian_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            laplacian(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_laplacian_rejects_asymmetric_weights(self):
        with pytest.raises(ValueError, match="laplacian: matrix is asymmetric"):
            laplacian(np.array([[0.0, 1.0], [0.5, 0.0]]))

    # every spectral function takes one square matrix, and names itself when
    # it gets another shape
    SPECTRAL = {
        "laplacian": laplacian,
        "smoothness": lambda m: smoothness(m, np.zeros(2)),
        "symmetric_eig": symmetric_eig,
        "fiedler_vector": fiedler_vector,
    }

    @pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2), (2, 3)], ids=["0d", "1d", "3d", "2x3"])
    @pytest.mark.parametrize("name", list(SPECTRAL))
    def test_non_square_input_rejected(self, name, shape):
        with pytest.raises(ValueError, match=f"^{name}: expected a square matrix"):
            self.SPECTRAL[name](np.zeros(shape))

    def test_fiedler_sign_convention(self):
        vec = fiedler_vector(PATH_L)
        for component in vec:
            if abs(component) > 1e-12:
                assert component > 0
                break

    def test_disconnected_graph_degenerate_fiedler_is_still_an_eigenvector(self):
        # two separate unit edges: lambda_2 = 0 with multiplicity two; the
        # solver's deterministic choice must still be a unit nullspace vector
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        lap = laplacian(w)
        vec = fiedler_vector(lap)
        assert_allclose(np.linalg.norm(vec), 1.0, atol=1e-12)
        assert_allclose(lap @ vec, np.zeros(4), atol=1e-8)


"""Graph-construction pipeline and spectral toolkit tests.

The pipeline is checked two ways: frozen hand-worked values on tiny inputs,
and equivalence with the loop-based reference in ``_oracles`` on random
batches.
"""

import csv
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from graphkd.autodiff import Tensor, backward
from graphkd.graphs import (
    GraphParams,
    adjacency_power,
    build_similarity_graph,
    class_mask,
    cosine_similarity_matrix,
    degree_normalize,
    dump_graph_csv,
    fiedler_vector,
    knn_sparsify,
    laplacian,
    smoothness,
    symmetric_eig,
)

from _oracles import (
    oracle_cosine,
    oracle_pipeline,
    oracle_topk_union,
    separated_reps,
)

PATH_W = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
PATH_L = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])


class TestCosine:
    def test_known_pair(self):
        sim = cosine_similarity_matrix(np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert_allclose(sim[0, 1], 0.7071067811865475, atol=1e-12)
        assert sim[0, 1] == sim[1, 0]

    def test_diagonal_is_zero(self):
        sim = cosine_similarity_matrix(np.random.default_rng(0).normal(size=(5, 3)))
        assert_array_equal(np.diag(sim), np.zeros(5))

    def test_negative_similarity_clamped(self):
        sim = cosine_similarity_matrix(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert sim[0, 1] == 0.0

    def test_zero_row_gets_zero_similarity(self):
        sim = cosine_similarity_matrix(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]))
        assert_array_equal(sim[0], np.zeros(3))
        assert_array_equal(sim[:, 0], np.zeros(3))
        assert sim[1, 2] > 0

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(3)
        reps = rng.normal(size=(8, 4))
        assert_allclose(cosine_similarity_matrix(reps), oracle_cosine(reps), atol=1e-13)


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
        w = knn_sparsify(sim, k=1)
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
        w = knn_sparsify(sim, k=1)
        # node 2 keeps edge to 1; node 1 keeps only 0; union keeps both
        assert w[1, 2] == 0.8 and w[2, 1] == 0.8
        assert_array_equal(w, w.T)

    def test_k_bounds(self):
        sim = np.zeros((4, 4))
        with pytest.raises(ValueError):
            knn_sparsify(sim, 0)
        with pytest.raises(ValueError):
            knn_sparsify(sim, 4)

    def test_full_k_keeps_everything(self):
        rng = np.random.default_rng(2)
        sim = oracle_cosine(rng.normal(size=(6, 3)))
        w = knn_sparsify(sim, k=5)
        assert_array_equal(w, sim)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(11)
        for k in (1, 2, 4):
            reps = separated_reps(rng, 7, 3, k)
            sim = oracle_cosine(reps)
            assert_allclose(knn_sparsify(sim, k), oracle_topk_union(sim, k), atol=0)


def _assert_matches_oracle_for_every_k(sim):
    for k in range(1, sim.shape[0]):
        assert_allclose(knn_sparsify(sim, k), oracle_topk_union(sim, k), atol=0)


class TestKnnProperties:
    """Edge cases of the top-k selection, every k from 1 to n-1, against the oracle."""

    def test_duplicated_rows_tie(self):
        rng = np.random.default_rng(71)
        reps = rng.normal(size=(5, 3))
        reps = reps[[0, 1, 0, 2, 1, 3, 4, 0]]  # rows 0, 2, 7 and 1, 4 coincide
        _assert_matches_oracle_for_every_k(cosine_similarity_matrix(reps))

    def test_equal_similarities_tie(self):
        rng = np.random.default_rng(72)
        for _ in range(20):
            sim = rng.integers(0, 3, size=(7, 7)) / 2.0
            _assert_matches_oracle_for_every_k(sim)  # asymmetric
            _assert_matches_oracle_for_every_k(np.maximum(sim, sim.T))

    def test_all_zero_rows(self):
        sim = cosine_similarity_matrix(np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [2.0, 0.5]]))
        assert_array_equal(sim[0], np.zeros(4))
        _assert_matches_oracle_for_every_k(sim)

    def test_single_class_inter_class_mask_gives_empty_graph(self):
        sim = cosine_similarity_matrix(np.random.default_rng(73).normal(size=(6, 3)))
        masked = class_mask(sim, np.zeros(6, dtype=int), "inter_class")
        _assert_matches_oracle_for_every_k(masked)
        assert_array_equal(knn_sparsify(masked, 2), np.zeros((6, 6)))

    def test_asymmetric_input_at_dense_k_is_union_symmetrized(self):
        rng = np.random.default_rng(74)
        sim = rng.uniform(size=(6, 6))
        w = knn_sparsify(sim, 5)
        expected = np.maximum(sim, sim.T)
        np.fill_diagonal(expected, 0.0)
        assert_array_equal(w, expected)
        assert_array_equal(w, oracle_topk_union(sim, 5))

    def test_negative_infinity_entries(self):
        rng = np.random.default_rng(75)
        for _ in range(20):
            sim = rng.uniform(size=(6, 6))
            sim[rng.uniform(size=(6, 6)) < 0.4] = -np.inf
            sim[0, 1:] = -np.inf  # one row with no finite candidate
            _assert_matches_oracle_for_every_k(sim)
            _assert_matches_oracle_for_every_k(np.maximum(sim, sim.T))

    def test_diagonal_is_never_kept(self):
        sim = np.full((4, 4), -np.inf)
        np.fill_diagonal(sim, 5.0)
        for k in (1, 2, 3):
            w = knn_sparsify(sim, k)
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
        assert_array_equal(knn_sparsify(sim, 2), expected)


class TestNormalize:
    def test_triangle_graph(self):
        w = np.ones((3, 3)) - np.eye(3)
        a = degree_normalize(w)
        assert_allclose(a, (np.ones((3, 3)) - np.eye(3)) / 2.0, atol=1e-15)
        vals, _ = symmetric_eig(a)
        assert_allclose(sorted(vals), [-0.5, -0.5, 1.0], atol=1e-10)

    def test_two_node_graph_power_two_is_identity(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        a = degree_normalize(w)
        assert_array_equal(a, w)
        a2 = adjacency_power(a, 2)
        assert_allclose(a2, np.eye(2), atol=1e-15)

    def test_isolated_node_row_stays_zero(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 2.0
        a = degree_normalize(w)
        assert_array_equal(a[2], np.zeros(3))
        assert_array_equal(a[:, 2], np.zeros(3))
        assert_allclose(a[0, 1], 1.0)

    def test_rejects_asymmetric(self):
        w = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            degree_normalize(w)

    def test_rejects_negative(self):
        w = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            degree_normalize(w)

    def test_spectrum_lies_in_unit_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            reps = rng.normal(size=(10, 4))
            g = build_similarity_graph(reps, k=3)
            vals, _ = symmetric_eig(degree_normalize(g.weights))
            assert vals.min() >= -1.0 - 1e-10
            assert vals.max() <= 1.0 + 1e-10


class TestPower:
    def test_p_one_returns_input_unchanged(self):
        a = Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert adjacency_power(a, 1) is a

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            adjacency_power(np.eye(2), 0)

    def test_left_associated_power(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(4, 4))
        m = (m + m.T) / 2
        assert_allclose(adjacency_power(m, 3), m @ m @ m, atol=1e-12)


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

    def test_gradient_flows_through_adjacency(self):
        rng = np.random.default_rng(51)
        reps = Tensor(separated_reps(rng, 6, 3, 2), requires_grad=True)
        g = build_similarity_graph(reps, k=2)
        backward((g.adjacency_tensor * g.adjacency_tensor).sum())
        assert np.any(reps.grad != 0.0)
        assert np.all(np.isfinite(reps.grad))


class TestSpectral:
    def test_path_laplacian_matrix(self):
        assert_array_equal(laplacian(PATH_W), PATH_L)

    def test_path_eigenvalues(self):
        vals, _ = symmetric_eig(PATH_L)
        assert_allclose(vals, [0.0, 1.0, 3.0], atol=1e-10)

    def test_path_fiedler_vector(self):
        vec = fiedler_vector(PATH_L).s
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

    def test_fiedler_sign_convention(self):
        vec = fiedler_vector(PATH_L).s
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
        vec = fiedler_vector(lap).s
        assert_allclose(np.linalg.norm(vec), 1.0, atol=1e-12)
        assert_allclose(lap @ vec, np.zeros(4), atol=1e-8)


class TestDump:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(61)
        reps = rng.normal(size=(7, 3))
        g = build_similarity_graph(reps, k=2, p=2, mask_mode="all")
        edges = tmp_path / "edges.csv"
        params = tmp_path / "params.json"
        dump_graph_csv(g, edges, params)

        rebuilt = np.zeros((7, 7))
        with edges.open() as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            i, j = int(row["i"]), int(row["j"])
            assert i < j
            rebuilt[i, j] = rebuilt[j, i] = float(row["weight"])
        assert_array_equal(rebuilt, g.weights)

        sidecar = json.loads(params.read_text())
        assert sidecar == {"n": 7, "k": 2, "p": 2, "mask_mode": "all"}

    def test_write_failing_midway_leaves_no_file(self, tmp_path):
        g = build_similarity_graph(np.random.default_rng(62).normal(size=(7, 3)), k=6)
        g.weights = g.weights.astype(object)
        g.weights[3, 5] = "not a number"  # fails after rows 0-2 are written
        with pytest.raises(ValueError):
            dump_graph_csv(g, tmp_path / "edges.csv", tmp_path / "params.json")
        assert list(tmp_path.iterdir()) == []

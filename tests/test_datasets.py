"""Synthetic generators, IDX loading, and deterministic splitting."""

import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from graphkd.datasets import (
    Dataset,
    gen_gaussian_mixture,
    gen_two_arcs,
    load_idx,
    minibatch_indices,
    split_dataset,
)


def write_idx_pair(tmp_path, images, labels):
    """Serialize uint8 images (n, r, c) and labels (n,) in IDX format."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    img_path.write_bytes(
        struct.pack(">IIII", 0x803, n, rows, cols) + images.tobytes()
    )
    lbl_path.write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())
    return img_path, lbl_path


class TestTwoArcs:
    def test_balanced_labels(self):
        ds = gen_two_arcs(200, noise=0.1, seed=0)
        assert ds.features.shape == (200, 2)
        assert np.bincount(ds.labels).tolist() == [100, 100]
        assert ds.num_classes == 2

    def test_noiseless_class_zero_sits_on_unit_circle(self):
        ds = gen_two_arcs(100, noise=0.0, seed=0)
        arc = ds.features[ds.labels == 0]
        assert_allclose(np.linalg.norm(arc, axis=1), np.ones(50), atol=1e-12)
        assert np.all(arc[:, 1] >= -1e-12)

    def test_noiseless_class_one_is_reflected_and_offset(self):
        ds = gen_two_arcs(100, noise=0.0, seed=0)
        arc = ds.features[ds.labels == 1]
        # 1 - x back on the circle after undoing the 0.5 downward shift
        restored = np.column_stack([1.0 - arc[:, 0], 0.5 - arc[:, 1]])
        assert_allclose(np.linalg.norm(restored, axis=1), np.ones(50), atol=1e-12)

    def test_deterministic_in_seed(self):
        a = gen_two_arcs(80, noise=0.2, seed=3)
        b = gen_two_arcs(80, noise=0.2, seed=3)
        assert_array_equal(a.features, b.features)
        assert_array_equal(a.labels, b.labels)
        c = gen_two_arcs(80, noise=0.2, seed=4)
        assert not np.array_equal(a.features, c.features)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError, match="even"):
            gen_two_arcs(101, noise=0.1, seed=0)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            gen_two_arcs(10, noise=-0.1, seed=0)


class TestGaussianMixture:
    def test_balanced_and_shaped(self):
        ds = gen_gaussian_mixture(n=300, classes=3, dim=5, separation=6.0, seed=0)
        assert ds.features.shape == (300, 5)
        assert np.bincount(ds.labels).tolist() == [100, 100, 100]
        assert ds.num_classes == 3

    def test_class_means_are_equidistant_at_separation(self):
        """Empirical class means must sit near a regular simplex with the
        requested pairwise separation."""
        ds = gen_gaussian_mixture(n=30000, classes=4, dim=6, separation=9.0, seed=1)
        means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(4)])
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(np.linalg.norm(means[i] - means[j]) - 9.0) < 0.15

    def test_zero_separation_collapses_means(self):
        ds = gen_gaussian_mixture(n=20000, classes=2, dim=3, separation=0.0, seed=2)
        m0 = ds.features[ds.labels == 0].mean(axis=0)
        m1 = ds.features[ds.labels == 1].mean(axis=0)
        assert np.linalg.norm(m0 - m1) < 0.1

    def test_unit_noise_around_means(self):
        ds = gen_gaussian_mixture(n=30000, classes=2, dim=4, separation=20.0, seed=3)
        spread = ds.features[ds.labels == 0].std(axis=0)
        assert_allclose(spread, np.ones(4), atol=0.05)

    def test_dimension_must_fit_simplex(self):
        with pytest.raises(ValueError, match="dim"):
            gen_gaussian_mixture(n=30, classes=5, dim=3, separation=1.0, seed=0)

    def test_n_must_divide_evenly(self):
        with pytest.raises(ValueError):
            gen_gaussian_mixture(n=31, classes=3, dim=4, separation=1.0, seed=0)

    def test_at_least_two_classes(self):
        with pytest.raises(ValueError):
            gen_gaussian_mixture(n=30, classes=1, dim=4, separation=1.0, seed=0)

    def test_deterministic_in_seed(self):
        a = gen_gaussian_mixture(n=60, classes=3, dim=4, separation=2.0, seed=9)
        b = gen_gaussian_mixture(n=60, classes=3, dim=4, separation=2.0, seed=9)
        assert_array_equal(a.features, b.features)


class TestIdx:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(10, 4, 3), dtype=np.uint8)
        labels = rng.integers(0, 10, size=10, dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        ds = load_idx(img, lbl, None)
        assert ds.features.shape == (10, 12)
        assert_allclose(ds.features, images.reshape(10, 12) / 255.0, atol=1e-15)
        assert_array_equal(ds.labels, labels)
        assert ds.num_classes == 10

    def test_values_land_in_unit_interval(self, tmp_path):
        images = np.full((2, 2, 2), 255, dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, np.zeros(2, dtype=np.uint8))
        ds = load_idx(img, lbl, None)
        assert ds.features.max() == 1.0

    def test_limit_truncates(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(8, 2, 2), dtype=np.uint8)
        labels = rng.integers(0, 10, size=8, dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        ds = load_idx(img, lbl, limit=3)
        assert ds.features.shape == (3, 4)
        assert_array_equal(ds.labels, labels[:3])
        big = load_idx(img, lbl, limit=100)
        assert big.features.shape == (8, 4)

    def test_wrong_magic_rejected(self, tmp_path):
        img, lbl = write_idx_pair(
            tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), np.zeros(2, dtype=np.uint8)
        )
        with pytest.raises(ValueError, match="magic"):
            load_idx(lbl, lbl, None)

    def test_truncated_payload_reports_byte_counts(self, tmp_path):
        img, lbl = write_idx_pair(
            tmp_path, np.zeros((4, 3, 3), dtype=np.uint8), np.zeros(4, dtype=np.uint8)
        )
        raw = img.read_bytes()
        img.write_bytes(raw[:-5])
        # 16 header bytes + 4*3*3 pixels = 52 expected; 5 were cut off
        with pytest.raises(ValueError, match=r"expected 52 bytes, got 47"):
            load_idx(img, lbl, None)

    def test_count_mismatch_rejected(self, tmp_path):
        img, _ = write_idx_pair(
            tmp_path, np.zeros((3, 2, 2), dtype=np.uint8), np.zeros(3, dtype=np.uint8)
        )
        lbl = tmp_path / "short.idx"
        lbl.write_bytes(struct.pack(">II", 0x801, 2) + b"\x00\x00")
        with pytest.raises(ValueError, match="3.*2"):
            load_idx(img, lbl, None)

    def test_provenance_is_a_content_digest(self, tmp_path):
        img, lbl = write_idx_pair(
            tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), np.zeros(2, dtype=np.uint8)
        )
        a = load_idx(img, lbl, None).provenance
        b = load_idx(img, lbl, None).provenance
        assert a == b and "sha256" in a
        # flipping one pixel must change the recorded digest
        raw = bytearray(img.read_bytes())
        raw[-1] ^= 0xFF
        img.write_bytes(bytes(raw))
        assert load_idx(img, lbl, None).provenance != a


class TestSplit:
    def test_disjoint_and_exhaustive(self):
        ds = gen_two_arcs(100, noise=0.1, seed=0)
        split = split_dataset(ds, test_fraction=0.25, seed=5)
        assert split.train.features.shape[0] == 75
        assert split.test.features.shape[0] == 25
        combined = np.vstack([split.train.features, split.test.features])
        # every original row appears exactly once across the two splits
        original = ds.features[np.lexsort(ds.features.T)]
        recombined = combined[np.lexsort(combined.T)]
        assert_array_equal(original, recombined)

    def test_labels_track_features(self):
        ds = gen_gaussian_mixture(n=60, classes=3, dim=4, separation=8.0, seed=1)
        split = split_dataset(ds, test_fraction=0.5, seed=2)
        means = {c: ds.features[ds.labels == c].mean(axis=0) for c in range(3)}
        for part in (split.train, split.test):
            for x, y in zip(part.features, part.labels):
                nearest = min(means, key=lambda c: np.linalg.norm(x - means[c]))
                assert nearest == y

    def test_deterministic_in_seed(self):
        ds = gen_two_arcs(50, noise=0.1, seed=0)
        a = split_dataset(ds, 0.2, seed=1)
        b = split_dataset(ds, 0.2, seed=1)
        assert_array_equal(a.train.features, b.train.features)
        c = split_dataset(ds, 0.2, seed=2)
        assert not np.array_equal(a.train.features, c.train.features)

    def test_fraction_bounds(self):
        ds = gen_two_arcs(20, noise=0.1, seed=0)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                split_dataset(ds, bad, seed=0)

    def test_split_names_carry_through(self):
        ds = gen_two_arcs(20, noise=0.1, seed=0)
        split = split_dataset(ds, 0.5, seed=0)
        assert split.train.provenance.endswith(",train)")
        assert split.test.provenance.endswith(",test)")


class TestMinibatches:
    def test_drop_last_partial_batch(self):
        rng = np.random.default_rng(0)
        batches = minibatch_indices(10, 3, rng)
        assert len(batches) == 3
        assert all(len(b) == 3 for b in batches)
        flat = np.concatenate(batches)
        assert len(set(flat.tolist())) == 9

    def test_exact_division_keeps_everything(self):
        rng = np.random.default_rng(1)
        batches = minibatch_indices(12, 4, rng)
        assert sorted(np.concatenate(batches).tolist()) == list(range(12))

    def test_batch_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            minibatch_indices(5, 6, np.random.default_rng(0))


class TestDatasetValidation:
    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Dataset(
                features=np.zeros((2, 2)),
                labels=np.array([0, 2]),
                num_classes=2,
                provenance="test",
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(
                features=np.zeros((3, 2)),
                labels=np.zeros(2, dtype=np.int64),
                num_classes=2,
                provenance="test",
            )

    def test_entirely_non_finite_row_rejected(self):
        feats = np.zeros((2, 2))
        feats[1, :] = np.nan
        with pytest.raises(ValueError):
            Dataset(
                features=feats,
                labels=np.zeros(2, dtype=np.int64),
                num_classes=2,
                provenance="test",
            )

"""Synthetic dataset generators, IDX loading, and train/test splitting."""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    """Feature matrix with integer labels and a provenance string."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    provenance: str = ""

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError(
                f"labels shape {self.labels.shape} does not match "
                f"{self.features.shape[0]} feature rows"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError(
                f"labels must lie in [0, {self.num_classes}), got range "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )
        finite_rows = np.isfinite(self.features).any(axis=1)
        if self.features.shape[0] and not finite_rows.all():
            raise ValueError("dataset contains feature rows with no finite entries")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class DataSplit:
    train: Dataset
    test: Dataset


def gen_two_arcs(n: int, noise: float, seed: int) -> Dataset:
    """Two interleaved half-circle classes with isotropic Gaussian noise.

    Class 0 sits on the upper unit half-circle; class 1 on an offset,
    reflected half-circle threading underneath it.  ``n`` must be even so
    the label histogram is exactly balanced.
    """
    n = int(n)
    if n < 2 or n % 2:
        raise ValueError(f"gen_two_arcs: n must be a positive even number, got {n}")
    if noise < 0:
        raise ValueError(f"gen_two_arcs: noise must be nonnegative, got {noise}")
    half = n // 2
    theta = np.linspace(0.0, np.pi, half)
    upper = np.column_stack([np.cos(theta), np.sin(theta)])
    lower = np.column_stack([1.0 - np.cos(theta), 0.5 - np.sin(theta)])
    features = np.vstack([upper, lower])
    rng = np.random.default_rng(seed)
    if noise > 0:
        features = features + rng.normal(0.0, noise, size=features.shape)
    labels = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(half, dtype=np.int64)])
    return Dataset(
        features=features,
        labels=labels,
        num_classes=2,
        provenance=f"two_arcs(n={n},noise={noise},seed={seed})",
    )


def _simplex_means(classes: int, dim: int, separation: float) -> np.ndarray:
    """Centered regular-simplex vertices with pairwise distance ``separation``."""
    centered = np.eye(classes) - 1.0 / classes  # pairwise distance sqrt(2)
    q, _ = np.linalg.qr(centered.T)
    coords = centered @ q[:, : classes - 1]
    coords *= separation / np.sqrt(2.0)
    means = np.zeros((classes, dim))
    means[:, : classes - 1] = coords
    return means


def gen_gaussian_mixture(
    n: int, classes: int, dim: int, separation: float, seed: int
) -> Dataset:
    """Equal-prior unit-variance spherical Gaussians with equally spaced means.

    The class means form a regular simplex with pairwise distance
    ``separation``, which requires ``dim >= classes - 1``.  ``n`` must be a
    multiple of ``classes`` so the labels balance exactly.
    """
    n, classes, dim = int(n), int(classes), int(dim)
    if classes < 2:
        raise ValueError(f"gen_gaussian_mixture: need classes >= 2, got {classes}")
    if dim < 2:
        raise ValueError(f"gen_gaussian_mixture: need dim >= 2, got {dim}")
    if dim < classes - 1:
        raise ValueError(
            f"gen_gaussian_mixture: equally separated means need dim >= classes - 1, "
            f"got dim={dim} for {classes} classes"
        )
    if separation < 0:
        raise ValueError(f"gen_gaussian_mixture: separation must be nonnegative, got {separation}")
    if n < classes or n % classes:
        raise ValueError(
            f"gen_gaussian_mixture: n must be a positive multiple of classes, "
            f"got n={n}, classes={classes}"
        )
    rng = np.random.default_rng(seed)
    means = _simplex_means(classes, dim, separation)
    labels = np.repeat(np.arange(classes, dtype=np.int64), n // classes)
    features = means[labels] + rng.standard_normal((n, dim))
    return Dataset(
        features=features,
        labels=labels,
        num_classes=classes,
        provenance=(
            f"gaussian_mixture(n={n},classes={classes},dim={dim},"
            f"separation={separation},seed={seed})"
        ),
    )


def _read_idx(
    path: Path, expected_magic: int, what: str
) -> tuple[np.ndarray, tuple[int, ...], str]:
    """Return an IDX file's data, its dimensions and a sha256 prefix of its bytes."""
    raw = path.read_bytes()
    if len(raw) < 4:
        raise ValueError(f"{what} file {path}: too short for an IDX magic number")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic != expected_magic:
        raise ValueError(
            f"{what} file {path}: bad magic 0x{magic:08x}, expected 0x{expected_magic:08x}"
        )
    ndim = magic & 0xFF
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise ValueError(f"{what} file {path}: truncated dimension header")
    dims = struct.unpack(">" + "I" * ndim, raw[4:header])
    expected_bytes = header + int(np.prod(dims))
    if len(raw) != expected_bytes:
        raise ValueError(
            f"{what} file {path}: expected {expected_bytes} bytes, got {len(raw)}"
        )
    data = np.frombuffer(raw, dtype=np.uint8, offset=header)
    return data, dims, hashlib.sha256(raw).hexdigest()[:16]


def load_idx(images_path, labels_path, limit: int | None) -> Dataset:
    """Load an IDX image/label pair, scaled to [0, 1] and flattened row-major."""
    pixels, image_dims, digest_i = _read_idx(Path(images_path), IDX_IMAGE_MAGIC, "images")
    label_bytes, label_dims, digest_l = _read_idx(Path(labels_path), IDX_LABEL_MAGIC, "labels")
    count, rows, cols = image_dims
    if label_dims[0] != count:
        raise ValueError(
            f"images file has {count} examples but labels file has {label_dims[0]}"
        )
    if limit is not None:
        if limit < 1:
            raise ValueError(f"load_idx: limit must be positive, got {limit}")
        count = min(count, int(limit))
    features = pixels.reshape(image_dims)[:count].reshape(count, rows * cols) / 255.0
    labels = label_bytes[:count].astype(np.int64)
    return Dataset(
        features=features.astype(np.float64),
        labels=labels,
        num_classes=10,
        provenance=f"idx(images=sha256:{digest_i},labels=sha256:{digest_l},count={count})",
    )


def split_dataset(ds: Dataset, test_fraction: float, seed: int) -> DataSplit:
    """Shuffle deterministically and partition into disjoint train/test sets."""
    if not 0 < test_fraction < 1:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    n = len(ds)
    n_test = int(round(n * test_fraction))
    if n_test < 1 or n_test >= n:
        raise ValueError(
            f"test_fraction {test_fraction} leaves an empty split for {n} examples"
        )
    perm = np.random.default_rng([int(seed), 1]).permutation(n)
    test_idx, train_idx = perm[:n_test], perm[n_test:]

    def subset(idx: np.ndarray, tag: str) -> Dataset:
        return Dataset(
            features=ds.features[idx],
            labels=ds.labels[idx],
            num_classes=ds.num_classes,
            provenance=f"{ds.provenance}|split(test_fraction={test_fraction},seed={seed},{tag})",
        )

    return DataSplit(train=subset(train_idx, "train"), test=subset(test_idx, "test"))


def minibatch_indices(n: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Shuffled minibatch index arrays; a trailing partial batch is dropped."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    if n < batch_size:
        raise ValueError(f"dataset of {n} examples is smaller than batch_size {batch_size}")
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n - batch_size + 1, batch_size)]

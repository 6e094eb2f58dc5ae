"""Tests for the dataset containers and the synthetic MNIST / RS130 generators."""

import hashlib

import numpy as np
import pytest

from repro.datasets.base import Dataset, DatasetSplits, iterate_minibatches, train_test_split
from repro.datasets.registry import DATASET_REGISTRY, dataset_summary, load_dataset
from repro.datasets.synthetic_mnist import (
    _DIGIT_STROKES,
    IMAGE_SIZE,
    SyntheticMnistConfig,
    _rasterize_strokes,
    generate_synthetic_mnist,
)
from repro.datasets.synthetic_rs130 import (
    FEATURE_COUNT,
    SyntheticRs130Config,
    generate_synthetic_rs130,
    reshape_to_grid,
)


# --------------------------------------------------------------- containers
def test_dataset_validation_and_accessors():
    features = np.random.default_rng(0).random((10, 5))
    labels = np.arange(10) % 3
    dataset = Dataset(features, labels, num_classes=3)
    assert dataset.sample_count == 10
    assert dataset.feature_count == 5
    assert list(dataset.class_counts()) == [4, 3, 3]
    subset = dataset.subset(np.array([0, 1]))
    assert subset.sample_count == 2
    assert dataset.take(3).sample_count == 3
    with pytest.raises(ValueError):
        Dataset(features, labels[:5], num_classes=3)
    with pytest.raises(ValueError):
        Dataset(features, labels, num_classes=2)  # labels contain class 2
    with pytest.raises(ValueError):
        Dataset(features.ravel(), labels, num_classes=3)
    with pytest.raises(ValueError):
        dataset.take(0)


def test_splits_validation():
    features = np.random.default_rng(0).random((10, 5))
    labels = np.zeros(10, dtype=int)
    train = Dataset(features, labels, num_classes=2)
    bad_test = Dataset(features[:, :3], labels, num_classes=2)
    with pytest.raises(ValueError):
        DatasetSplits(train=train, test=bad_test)


def test_train_test_split_partitions_all_samples():
    features = np.random.default_rng(0).random((50, 4))
    labels = np.zeros(50, dtype=int)
    dataset = Dataset(features, labels, num_classes=2)
    splits = train_test_split(dataset, test_fraction=0.2, rng=0)
    assert splits.train.sample_count + splits.test.sample_count == 50
    assert splits.test.sample_count == 10
    with pytest.raises(ValueError):
        train_test_split(dataset, test_fraction=1.5)


def test_iterate_minibatches_covers_dataset_once():
    features = np.arange(20, dtype=float).reshape(10, 2) / 20.0
    labels = np.arange(10) % 2
    dataset = Dataset(features, labels, num_classes=2)
    batches = list(iterate_minibatches(dataset, batch_size=3, rng=0))
    assert sum(batch[0].shape[0] for batch in batches) == 10
    with pytest.raises(ValueError):
        list(iterate_minibatches(dataset, batch_size=0))


# --------------------------------------------------------------- MNIST stand-in
def test_synthetic_mnist_shapes_and_ranges():
    config = SyntheticMnistConfig(train_size=40, test_size=20, seed=0)
    splits = generate_synthetic_mnist(config)
    assert splits.train.feature_count == 784
    assert splits.train.sample_count == 40
    assert splits.test.sample_count == 20
    assert splits.num_classes == 10
    assert splits.train.image_shape == (28, 28)
    assert splits.train.features.min() >= 0.0
    assert splits.train.features.max() <= 1.0


def test_synthetic_mnist_pixels_are_mostly_saturated():
    # The paper's analysis relies on near-binary pixel intensities (so input
    # spike sampling adds little variance); check the generator delivers that.
    splits = generate_synthetic_mnist(SyntheticMnistConfig(train_size=30, test_size=10, seed=1))
    pixels = splits.train.features.ravel()
    mid = np.mean((pixels > 0.2) & (pixels < 0.8))
    assert mid < 0.15


def test_synthetic_mnist_deterministic_and_seed_sensitive():
    config = SyntheticMnistConfig(train_size=10, test_size=5, seed=3)
    a = generate_synthetic_mnist(config)
    b = generate_synthetic_mnist(config)
    assert np.array_equal(a.train.features, b.train.features)
    assert np.array_equal(a.train.labels, b.train.labels)
    c = generate_synthetic_mnist(SyntheticMnistConfig(train_size=10, test_size=5, seed=4))
    assert not np.array_equal(a.train.features, c.train.features)


def test_synthetic_mnist_all_classes_present():
    splits = generate_synthetic_mnist(SyntheticMnistConfig(train_size=200, test_size=50, seed=0))
    assert set(np.unique(splits.train.labels)) == set(range(10))


def test_synthetic_mnist_config_validation():
    with pytest.raises(ValueError):
        SyntheticMnistConfig(train_size=0)
    with pytest.raises(ValueError):
        SyntheticMnistConfig(salt_noise=1.5)
    with pytest.raises(ValueError):
        SyntheticMnistConfig(sharpness=0.0)
    with pytest.raises(ValueError):
        SyntheticMnistConfig(scale_range=(1.2, 0.8))


def _rasterize_strokes_per_point(strokes, shift, rotation, scale, thickness):
    """The per-point splat loop that ``_rasterize_strokes`` replaced: the oracle."""
    size = IMAGE_SIZE
    image = np.zeros((size, size))
    yy, xx = np.mgrid[0:size, 0:size]
    cos_r, sin_r = np.cos(rotation), np.sin(rotation)
    center = (size - 1) / 2.0
    for stroke in strokes:
        points = np.asarray(stroke, dtype=float) * (size - 1)
        points = (points - center) * scale
        rotated = np.empty_like(points)
        rotated[:, 0] = cos_r * points[:, 0] - sin_r * points[:, 1]
        rotated[:, 1] = sin_r * points[:, 0] + cos_r * points[:, 1]
        points = rotated + center + np.asarray(shift)
        for start, end in zip(points[:-1], points[1:]):
            length = float(np.hypot(*(end - start)))
            steps = max(2, int(length * 2))
            for t in np.linspace(0.0, 1.0, steps):
                px, py = start + t * (end - start)
                dist_sq = (xx - px) ** 2 + (yy - py) ** 2
                splat = np.exp(-dist_sq / (2.0 * thickness**2))
                image = np.maximum(image, splat)
    return image


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rasterizer_is_bit_identical_to_the_per_point_loop(seed):
    # Shifts up to 80 px put splats on the canvas, off it, at distances whose
    # Gaussian is subnormal, and where it underflows to 0.  Rotations reach
    # +-max_rotation and thickness both ends of the range _render_sample draws.
    config = SyntheticMnistConfig()
    rng = np.random.default_rng(seed)
    thin, thick = config.thickness * 0.85, config.thickness * 1.2
    jitter = config.vertex_jitter
    for template in _DIGIT_STROKES.values():
        strokes = [
            [
                (x + rng.uniform(-jitter, jitter), y + rng.uniform(-jitter, jitter))
                for x, y in line
            ]
            for line in template
        ]
        in_range = (
            tuple(rng.uniform(-config.max_shift, config.max_shift, size=2)),
            rng.uniform(-config.max_rotation, config.max_rotation),
            rng.uniform(thin, thick),
        )
        for shift, rotation, thickness in (
            in_range,
            (tuple(rng.uniform(-20.0, 20.0, size=2)), config.max_rotation, thin),
            (tuple(rng.uniform(-80.0, 80.0, size=2)), -config.max_rotation, thick),
        ):
            scale = rng.uniform(*config.scale_range)
            args = (strokes, shift, rotation, scale, thickness)
            got = _rasterize_strokes(*args)
            want = _rasterize_strokes_per_point(*args)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


#: sha256 over (train features, train labels, test features, test labels) of
#: whole splits, as the per-point rasterizer generated them.  The goldens and
#: the end-to-end benchmark's canaries depend on these pixels.
_SPLIT_DIGESTS = {
    (30, 20, 0): "d17eb2c043b4fdee066a2c3b0f46ba621a814c701f21140db90a6f86edffe0f6",
    (30, 20, 1): "2ab58ed34f2faf7c23b5006e67e35cf1791fc270c61e314ee92d4dddab5b3355",
    (30, 20, 7): "b3f1d81c3f96a2fc9ab2f218879b6778a9d2030e6ff6a8c23d46bfc05c97fb01",
    (30, 20, 42): "6c1551c634254be0d39ca6fce6b6c4b96fda54ac87ee47799565e300ba292444",
    (200, 250, 0): "ec4488b488fc039305395c80a7446cd25cd78c0150c2dead2fe255866b1f9025",
    (200, 250, 1): "695b3af7e49670d2297bfea275bf88da9f7c2d5263f4f5f75fc45dc75d0c012b",
    (200, 250, 7): "22717639493529cb3750bd6761a16bb2c1b87787055a6d34407d5fce4714708a",
    (200, 250, 42): "90fbdb9b7af1c1e63b0d9e2d56d552e7dce19261d2543acb6a728964eb75855c",
}


@pytest.mark.parametrize("train_size, test_size, seed", sorted(_SPLIT_DIGESTS))
def test_synthetic_mnist_split_bytes_are_pinned(train_size, test_size, seed):
    config = SyntheticMnistConfig(train_size=train_size, test_size=test_size, seed=seed)
    splits = generate_synthetic_mnist(config)
    digest = hashlib.sha256()
    for dataset in (splits.train, splits.test):
        assert dataset.features.dtype == np.float64
        assert dataset.labels.dtype == np.int64
        digest.update(dataset.features.tobytes())
        digest.update(dataset.labels.tobytes())
    assert digest.hexdigest() == _SPLIT_DIGESTS[(train_size, test_size, seed)]


# --------------------------------------------------------------- RS130 stand-in
def test_synthetic_rs130_shapes_and_classes():
    config = SyntheticRs130Config(train_size=60, test_size=30, seed=0)
    splits = generate_synthetic_rs130(config)
    assert splits.train.feature_count == FEATURE_COUNT == 357
    assert splits.num_classes == 3
    assert splits.train.sample_count == 60
    assert splits.train.features.min() >= 0.0
    assert splits.train.features.max() <= 1.0
    assert set(np.unique(splits.train.labels)) == {0, 1, 2}


def test_synthetic_rs130_classes_are_separable_above_chance():
    # A trivial nearest-class-mean classifier should beat chance, proving the
    # class-conditional signal exists without requiring high accuracy.
    splits = generate_synthetic_rs130(SyntheticRs130Config(train_size=300, test_size=150, seed=0))
    means = np.stack(
        [splits.train.features[splits.train.labels == c].mean(axis=0) for c in range(3)]
    )
    distances = ((splits.test.features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    predictions = distances.argmin(axis=1)
    accuracy = (predictions == splits.test.labels).mean()
    assert accuracy > 0.45  # chance is 1/3


def test_synthetic_rs130_deterministic():
    config = SyntheticRs130Config(train_size=20, test_size=10, seed=5)
    a = generate_synthetic_rs130(config)
    b = generate_synthetic_rs130(config)
    assert np.array_equal(a.train.features, b.train.features)


def test_reshape_to_grid_pads_to_19x19():
    features = np.random.default_rng(0).random((4, 357))
    grid = reshape_to_grid(features, grid_size=19)
    assert grid.shape == (4, 361)
    assert np.allclose(grid[:, :357], features)
    assert np.all(grid[:, 357:] == 0.0)
    single = reshape_to_grid(features[0], grid_size=19)
    assert single.shape == (1, 361)
    with pytest.raises(ValueError):
        reshape_to_grid(np.zeros((2, 400)), grid_size=19)


def test_synthetic_rs130_config_validation():
    with pytest.raises(ValueError):
        SyntheticRs130Config(train_size=0)
    with pytest.raises(ValueError):
        SyntheticRs130Config(signal_strength=0.0)
    with pytest.raises(ValueError):
        SyntheticRs130Config(noise_scale=0.0)


# --------------------------------------------------------------- registry
def test_registry_contains_paper_datasets():
    assert set(DATASET_REGISTRY) == {"mnist", "rs130"}
    info = DATASET_REGISTRY["mnist"]
    assert info.paper_train_size == 60000
    assert info.paper_test_size == 10000
    assert info.feature_count == 784
    assert DATASET_REGISTRY["rs130"].num_classes == 3


def test_load_dataset_and_summary():
    splits = load_dataset("mnist", train_size=30, test_size=10, seed=0)
    assert splits.train.sample_count == 30
    row = dataset_summary("mnist", splits)
    assert row["dataset"] == "MNIST"
    assert row["generated_training_size"] == 30
    assert row["paper_training_size"] == 60000
    rs = load_dataset("RS130", train_size=20, test_size=10)
    assert rs.train.feature_count == 357
    with pytest.raises(KeyError):
        load_dataset("cifar")

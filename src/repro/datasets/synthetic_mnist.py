"""Synthetic handwritten-digit dataset (MNIST stand-in).

Images are produced by rasterizing per-digit stroke templates (polylines on a
28x28 canvas) and perturbing them per sample with random vertex jitter,
translation, rotation, scaling, and stroke thickness, followed by a contrast
sharpening step and sparse salt noise.  The design targets two properties of
real MNIST that the paper's analysis depends on:

* pixels are close to binary (strokes saturate to 1, background stays at 0),
  so the stochastic spike encoding of the inputs introduces little variance
  and the deployment error is dominated by the synaptic sampling the paper's
  method addresses;
* class difficulty comes from geometric variability (jittered, rotated,
  shifted glyphs), so trained models have realistic decision margins and the
  deployment variance visibly costs accuracy at low duplication levels.

The generator is fully self-contained and deterministic given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.datasets.base import Dataset, DatasetSplits
from repro.utils.rng import RngLike, new_rng

#: Canvas edge length (MNIST uses 28x28 images).
IMAGE_SIZE = 28

# Stroke templates per digit: lists of polylines with vertices in a unit
# square ((0,0) = top-left, (1,1) = bottom-right).  The glyphs are deliberately
# simple; class separability comes from their distinct topologies.
_DIGIT_STROKES: Dict[int, List[List[Tuple[float, float]]]] = {
    0: [[(0.5, 0.15), (0.75, 0.3), (0.75, 0.7), (0.5, 0.85), (0.25, 0.7), (0.25, 0.3), (0.5, 0.15)]],
    1: [[(0.45, 0.2), (0.55, 0.15), (0.55, 0.85)], [(0.4, 0.85), (0.7, 0.85)]],
    2: [[(0.3, 0.3), (0.5, 0.15), (0.7, 0.3), (0.7, 0.45), (0.3, 0.85), (0.7, 0.85)]],
    3: [[(0.3, 0.2), (0.7, 0.2), (0.5, 0.5), (0.7, 0.65), (0.6, 0.85), (0.3, 0.8)]],
    4: [[(0.65, 0.85), (0.65, 0.15), (0.3, 0.6), (0.75, 0.6)]],
    5: [[(0.7, 0.15), (0.35, 0.15), (0.35, 0.5), (0.65, 0.5), (0.7, 0.7), (0.55, 0.85), (0.3, 0.8)]],
    6: [[(0.65, 0.15), (0.4, 0.4), (0.3, 0.65), (0.45, 0.85), (0.65, 0.75), (0.65, 0.55), (0.35, 0.55)]],
    7: [[(0.3, 0.15), (0.7, 0.15), (0.45, 0.85)], [(0.4, 0.5), (0.65, 0.5)]],
    8: [[(0.5, 0.15), (0.7, 0.3), (0.5, 0.5), (0.3, 0.3), (0.5, 0.15)],
        [(0.5, 0.5), (0.7, 0.68), (0.5, 0.85), (0.3, 0.68), (0.5, 0.5)]],
    9: [[(0.65, 0.45), (0.45, 0.45), (0.35, 0.3), (0.5, 0.15), (0.65, 0.25), (0.65, 0.45), (0.6, 0.85)]],
}


@dataclass(frozen=True)
class SyntheticMnistConfig:
    """Generation parameters for the synthetic digit dataset.

    Attributes:
        train_size: number of training samples.
        test_size: number of test samples.
        vertex_jitter: per-vertex positional jitter (in unit-square units)
            applied to the glyph templates — the main source of within-class
            variability.
        max_shift: maximum translation in pixels (per axis).
        max_rotation: maximum rotation in radians.
        scale_range: (low, high) uniform range of the glyph scale factor.
        thickness: nominal Gaussian stroke radius in pixels.
        salt_noise: probability of flipping a pixel's intensity (salt/pepper).
        sharpness: slope of the logistic contrast sharpening; larger values
            produce more nearly binary pixels.
        seed: root seed.
    """

    train_size: int = 2500
    test_size: int = 500
    vertex_jitter: float = 0.03
    max_shift: float = 2.5
    max_rotation: float = 0.4
    scale_range: Tuple[float, float] = (0.75, 1.15)
    thickness: float = 1.2
    salt_noise: float = 0.015
    sharpness: float = 14.0
    seed: int = 0

    def __post_init__(self):
        if self.train_size <= 0 or self.test_size <= 0:
            raise ValueError("train_size and test_size must be positive")
        if self.vertex_jitter < 0:
            raise ValueError("vertex_jitter must be non-negative")
        if not (0.0 <= self.salt_noise < 1.0):
            raise ValueError("salt_noise must lie in [0, 1)")
        if self.thickness <= 0:
            raise ValueError("thickness must be positive")
        if self.sharpness <= 0:
            raise ValueError("sharpness must be positive")
        if not (0 < self.scale_range[0] <= self.scale_range[1]):
            raise ValueError("scale_range must be positive and ordered")


def _splat_centres(
    strokes: Sequence[Sequence[Tuple[float, float]]],
    shift: Tuple[float, float],
    rotation: float,
    scale: float,
) -> np.ndarray:
    """Every Gaussian splat centre of a glyph, as a ``(P, 2)`` array of (x, y)."""
    size = IMAGE_SIZE
    cos_r, sin_r = np.cos(rotation), np.sin(rotation)
    center = (size - 1) / 2.0
    centres = []
    for stroke in strokes:
        points = np.asarray(stroke, dtype=float) * (size - 1)
        # Apply scale and rotation about the canvas center, then shift.
        points = (points - center) * scale
        rotated = np.empty_like(points)
        rotated[:, 0] = cos_r * points[:, 0] - sin_r * points[:, 1]
        rotated[:, 1] = sin_r * points[:, 0] + cos_r * points[:, 1]
        points = rotated + center + np.asarray(shift)
        # Sample points densely along each segment.
        for start, end in zip(points[:-1], points[1:]):
            length = float(np.hypot(*(end - start)))
            steps = max(2, int(length * 2))
            t = np.linspace(0.0, 1.0, steps)
            centres.append(start + t[:, None] * (end - start))
    return np.concatenate(centres)


def _rasterize_strokes(
    strokes: Sequence[Sequence[Tuple[float, float]]],
    shift: Tuple[float, float],
    rotation: float,
    scale: float,
    thickness: float,
) -> np.ndarray:
    """Render a glyph's strokes to a 28x28 intensity image in [0, 1].

    Each splat centre adds a Gaussian of radius ``thickness`` over the whole
    canvas, and a pixel's intensity is the max over the splats.  All splats
    of a glyph are evaluated in one ``(P, 28, 28)`` broadcast.  Each pixel
    goes through the same IEEE operations as splatting one point at a time:
    the squared distance is the column term plus the row term, dividing by
    ``-(2 sigma^2)`` equals negating and then dividing, and max is exact in
    any order.  So the pixels are bit-identical to a per-point loop.
    Multiplying by a reciprocal changes them.  Taking one ``exp`` of the
    nearest distance would rely on ``np.exp`` being monotone, which numpy
    does not promise.
    """
    centres = _splat_centres(strokes, shift, rotation, scale)
    grid = np.arange(IMAGE_SIZE, dtype=float)
    col_sq = (grid - centres[:, :1]) ** 2
    row_sq = (grid - centres[:, 1:]) ** 2
    dist_sq = col_sq[:, None, :] + row_sq[:, :, None]
    dist_sq /= -(2.0 * thickness**2)
    np.exp(dist_sq, out=dist_sq)
    return dist_sq.max(axis=0)


def _render_sample(
    digit: int, config: SyntheticMnistConfig, rng: np.random.Generator
) -> np.ndarray:
    """Render one perturbed, sharpened digit image (flattened)."""
    jitter = config.vertex_jitter
    strokes = [
        [
            (x + rng.uniform(-jitter, jitter), y + rng.uniform(-jitter, jitter))
            for x, y in polyline
        ]
        for polyline in _DIGIT_STROKES[digit]
    ]
    shift = tuple(rng.uniform(-config.max_shift, config.max_shift, size=2))
    rotation = rng.uniform(-config.max_rotation, config.max_rotation)
    scale = rng.uniform(*config.scale_range)
    thickness = config.thickness * rng.uniform(0.85, 1.2)
    image = _rasterize_strokes(strokes, shift, rotation, scale, thickness)
    # Contrast sharpening pushes stroke pixels toward 1 and background toward 0.
    image = 1.0 / (1.0 + np.exp(-config.sharpness * (image - 0.5)))
    if config.salt_noise > 0:
        flip = rng.random(image.shape) < config.salt_noise
        image = np.where(flip, 1.0 - image, image)
    return np.clip(image, 0.0, 1.0).ravel()


def _generate_split(
    count: int, config: SyntheticMnistConfig, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    features = np.zeros((count, IMAGE_SIZE * IMAGE_SIZE))
    labels = rng.integers(0, 10, size=count)
    for i in range(count):
        features[i] = _render_sample(int(labels[i]), config, rng)
    return features, labels


def generate_synthetic_mnist(
    config: SyntheticMnistConfig = SyntheticMnistConfig(), rng: RngLike = None
) -> DatasetSplits:
    """Generate train/test splits of the synthetic digit dataset.

    The function is deterministic given ``config.seed`` (or an explicit
    ``rng``): the same configuration always produces the same pixels.
    """
    rng = new_rng(config.seed if rng is None else rng)
    train_features, train_labels = _generate_split(config.train_size, config, rng)
    test_features, test_labels = _generate_split(config.test_size, config, rng)
    image_shape = (IMAGE_SIZE, IMAGE_SIZE)
    return DatasetSplits(
        train=Dataset(
            features=train_features,
            labels=train_labels,
            num_classes=10,
            name="synthetic-mnist-train",
            image_shape=image_shape,
        ),
        test=Dataset(
            features=test_features,
            labels=test_labels,
            num_classes=10,
            name="synthetic-mnist-test",
            image_shape=image_shape,
        ),
    )

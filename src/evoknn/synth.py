"""Synthetic planted-feature datasets for verifiable selection experiments.

Class identity is carried only by a small known set of informative features:
each class mean is a distinct lattice point on those coordinates (scaled by
the separation) and zero elsewhere, with shared Gaussian noise on every
feature.  The planted set is therefore necessary and sufficient for
classification, which makes selection-quality assertions sharp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import ConfigError, Dataset


@dataclass(frozen=True)
class SynthSpec:
    """A planted problem's parameters; ``seed`` drives every draw and the
    pool split, and must be non-negative, as numpy's generator takes it.  A
    refused value is a ``ConfigError`` naming its field."""

    n_classes: int = 14
    n_features: int = 117
    informative: tuple[int, ...] = (70, 101, 112)
    class_separation: float = 10.0
    noise_sd: float = 1.0
    train_per_class: int = 10
    test_per_class: int = 5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "informative", tuple(self.informative))
        if self.n_classes < 1 or self.n_features < 1:
            raise ConfigError("n_classes and n_features must be positive")
        if not self.informative:
            raise ConfigError("informative feature set must be non-empty")
        if len(set(self.informative)) != len(self.informative):
            raise ConfigError("informative feature indices must be distinct")
        if any(not 0 <= i < self.n_features for i in self.informative):
            raise ConfigError(f"informative {self.informative} outside 0..{self.n_features - 1}")
        for name in ("class_separation", "noise_sd"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value!r}")
        if self.train_per_class < 1 or self.test_per_class < 1:
            raise ConfigError("per-class sample counts must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


def _standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    # Box-Muller on the generator's uniform stream; only rng.random() is
    # consumed, so draws replay bit-identically across library versions.
    # ``shape`` is a count or (rows, count); each row takes its ``pairs``
    # radius uniforms, then its ``pairs`` angle uniforms, as if drawn alone
    *rows, count = np.atleast_1d(shape)
    pairs = (count + 1) // 2
    u = rng.random((*rows, 2, pairs))
    radius = np.sqrt(-2.0 * np.log(1.0 - u[..., 0, :]))  # 1 - u in (0, 1]: log finite
    out = np.empty((*rows, 2 * pairs))
    out[..., 0::2] = radius * np.cos(2.0 * np.pi * u[..., 1, :])
    out[..., 1::2] = radius * np.sin(2.0 * np.pi * u[..., 1, :])
    return out[..., :count]


def class_means(spec: SynthSpec) -> np.ndarray:
    """Planted mean vectors, one row per class.

    Informative coordinates hold the class index written in the smallest
    base whose digit tuples cover all classes, scaled by the separation, so
    distinct classes always differ by at least one separation step on at
    least one informative feature.  All other coordinates are zero.
    """
    m = len(spec.informative)
    base = 1
    while base**m < spec.n_classes:
        base += 1
    means = np.zeros((spec.n_classes, spec.n_features))
    value = np.arange(spec.n_classes)
    with np.errstate(over="ignore"):  # refused below, by the field's name
        for feature in reversed(spec.informative):  # the last holds the lowest digit
            means[:, feature] = value % base * spec.class_separation
            value //= base
    if not np.isfinite(means).all():
        raise ConfigError(f"class_separation {spec.class_separation!r} puts a class mean "
                          "past the largest double")
    return means


def _sample_block(
    means: np.ndarray, counts: Sequence[int], spec: SynthSpec, rng: np.random.Generator
) -> Dataset:
    # draw order: classes in id order, samples within class, one noise
    # vector per sample
    labels = np.repeat(np.arange(spec.n_classes), counts)
    noise = _standard_normal(rng, (labels.size, spec.n_features))
    with np.errstate(over="ignore"):  # refused below, by the fields' names
        features = means[labels] + spec.noise_sd * noise
    if not np.isfinite(features).all():
        raise ConfigError(f"noise_sd {spec.noise_sd!r} with class_separation "
                          f"{spec.class_separation!r} draws a feature past the largest double")
    classes = tuple(f"c{c}" for c in range(spec.n_classes))
    return Dataset(features, labels, classes)


def generate(spec: SynthSpec) -> tuple[Dataset, Dataset]:
    """Seed-deterministic (train, test) pair with exact per-class counts.

    All training samples are drawn first, then all test samples, from one
    generator seeded with ``spec.seed``.
    """
    rng = np.random.default_rng(spec.seed)
    means = class_means(spec)
    train = _sample_block(means, [spec.train_per_class] * spec.n_classes, spec, rng)
    test = _sample_block(means, [spec.test_per_class] * spec.n_classes, spec, rng)
    return train, test


def generate_pool(spec: SynthSpec, class_counts: Sequence[int]) -> Dataset:
    """One dataset with ``class_counts[c]`` samples of class c.

    Supports uneven per-class sizes (e.g. a pool that is randomly split
    afterwards); the per-class train/test counts in ``spec`` are ignored.
    """
    if len(class_counts) != spec.n_classes:
        raise ConfigError(f"{len(class_counts)} class counts for {spec.n_classes} classes")
    if any(n < 1 for n in class_counts):
        raise ConfigError("class counts must be positive")
    rng = np.random.default_rng(spec.seed)
    return _sample_block(class_means(spec), list(class_counts), spec, rng)

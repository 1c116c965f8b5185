"""Planted-feature data generation: determinism, structure, recoverability."""

import re
import warnings

import numpy as np
import pytest

from evoknn.dataset import ConfigError
from evoknn.knn import FeatureMask
from evoknn.knn import recognition_rate
from evoknn.synth import SynthSpec, _standard_normal, class_means, generate, generate_pool


def test_spec_validation():
    for bad in (
        dict(n_classes=0),
        dict(n_features=0),
        dict(informative=()),
        dict(informative=(1, 1)),
        dict(informative=(200,)),
        dict(class_separation=0.0),
        dict(noise_sd=-1.0),
        dict(train_per_class=0),
        dict(test_per_class=0),
        dict(seed=-1),
    ):
        with pytest.raises(ConfigError):
            SynthSpec(**bad)


@pytest.mark.parametrize("field", ["class_separation", "noise_sd"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_spec_refuses_a_non_finite_scale_by_field_name(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be positive and finite"):
        SynthSpec(**{field: value})


@pytest.mark.parametrize("spec, named", [
    (SynthSpec(class_separation=1e308), "class_separation 1e+308 puts a class mean"),
    (SynthSpec(noise_sd=1e308), "noise_sd 1e+308 with class_separation 10.0 draws"),
    (SynthSpec(n_classes=2, informative=(0,), class_separation=1e308, noise_sd=1e308),
     "noise_sd 1e+308"),
])
def test_a_finite_scale_that_overflows_is_refused_by_name_without_a_warning(spec, named):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow RuntimeWarning would raise
        with pytest.raises(ConfigError, match=re.escape(named)):
            generate(spec)
        with pytest.raises(ConfigError, match=re.escape(named)):
            generate_pool(spec, [3] * spec.n_classes)


def test_class_means_live_on_the_planted_lattice():
    spec = SynthSpec(n_classes=14, n_features=117, informative=(70, 101, 112),
                     class_separation=10.0)
    means = class_means(spec)
    assert means.shape == (14, 117)
    inactive = np.setdiff1d(np.arange(117), [70, 101, 112])
    assert not means[:, inactive].any()
    # 14 classes over 3 digits need base 3; coordinates are multiples of 10
    on_lattice = means[:, [70, 101, 112]] / 10.0
    assert set(np.unique(on_lattice)) <= {0.0, 1.0, 2.0}
    # all rows distinct: the planted features separate every class pair
    assert len({tuple(row) for row in on_lattice}) == 14


def test_class_means_single_informative_feature():
    spec = SynthSpec(n_classes=5, n_features=4, informative=(2,),
                     class_separation=2.0)
    means = class_means(spec)
    assert means[:, 2].tolist() == [0.0, 2.0, 4.0, 6.0, 8.0]


def test_generate_is_deterministic_and_counts_match():
    spec = SynthSpec(n_classes=6, n_features=20, informative=(3, 11),
                     train_per_class=7, test_per_class=2, seed=123)
    train1, test1 = generate(spec)
    train2, test2 = generate(spec)
    assert np.array_equal(train1.features, train2.features)
    assert np.array_equal(test1.features, test2.features)
    assert train1.n_samples == 42 and test1.n_samples == 12
    assert np.bincount(train1.labels).tolist() == [7] * 6
    assert np.bincount(test1.labels).tolist() == [2] * 6
    assert train1.classes == tuple(f"c{i}" for i in range(6))

    other = generate(SynthSpec(n_classes=6, n_features=20, informative=(3, 11),
                               train_per_class=7, test_per_class=2, seed=124))
    assert not np.array_equal(other[0].features, train1.features)


def test_generate_pool_uneven_counts():
    spec = SynthSpec(n_classes=4, n_features=8, informative=(1, 5), seed=3)
    pool = generate_pool(spec, (5, 2, 9, 1))
    assert pool.n_samples == 17
    assert np.bincount(pool.labels).tolist() == [5, 2, 9, 1]
    with pytest.raises(ConfigError):
        generate_pool(spec, (5, 2, 9))
    with pytest.raises(ConfigError):
        generate_pool(spec, (5, 2, 9, 0))


def test_planted_features_are_sufficient_for_perfect_recognition():
    spec = SynthSpec(n_classes=8, n_features=30, informative=(4, 17, 26),
                     class_separation=10.0, noise_sd=1.0,
                     train_per_class=10, test_per_class=6, seed=42)
    train, test = generate(spec)
    planted = FeatureMask.from_indices([4, 17, 26], 30)
    hits, rate, _ = recognition_rate(train, test, 1, planted)
    assert rate == 1.0


def test_noise_only_features_carry_no_class_signal():
    spec = SynthSpec(n_classes=4, n_features=30, informative=(4, 17, 26),
                     class_separation=10.0, noise_sd=1.0,
                     train_per_class=25, test_per_class=50, seed=7)
    train, test = generate(spec)
    noise_only = FeatureMask.from_indices([0, 1, 2, 3, 5, 6, 7, 8], 30)
    hits, rate, _ = recognition_rate(train, test, 1, noise_only)
    # 200 test samples, 4 balanced classes: chance level is 0.25
    assert 0.05 < rate < 0.50


def test_mean_structure_is_recovered_empirically():
    spec = SynthSpec(n_classes=3, n_features=5, informative=(0, 3),
                     class_separation=8.0, noise_sd=1.0,
                     train_per_class=400, test_per_class=1, seed=11)
    train, _ = generate(spec)
    means = class_means(spec)
    for c in range(3):
        sample_mean = train.features[train.labels == c].mean(axis=0)
        assert sample_mean == pytest.approx(means[c], abs=0.2)


def test_standard_normal_statistics_and_replay():
    rng = np.random.default_rng(55)
    draws = _standard_normal(rng, 20001)  # odd count exercises the tail trim
    assert draws.shape == (20001,)
    assert abs(draws.mean()) < 0.03
    assert abs(draws.std() - 1.0) < 0.03
    assert abs((draws < 0).mean() - 0.5) < 0.02
    replay = _standard_normal(np.random.default_rng(55), 20001)
    assert np.array_equal(draws, replay)


@pytest.mark.parametrize("count", [1, 6, 7, 117])
def test_standard_normal_block_rows_equal_rows_drawn_alone(count):
    # a (rows, count) block reads the stream as one draw per row would, odd
    # counts included, whose last angle's sine is drawn and dropped
    block = _standard_normal(np.random.default_rng(21), (5, count))
    rng = np.random.default_rng(21)
    alone = [_standard_normal(rng, count) for _ in range(5)]
    assert block.shape == (5, count)
    assert all(np.array_equal(row, want) for row, want in zip(block, alone))

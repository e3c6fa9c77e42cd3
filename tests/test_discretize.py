"""Threshold fitting and the strictly-greater binarization rule."""

import numpy as np
import pytest

from conftest import real_dataset
from interconv import discretize
from interconv import (
    ConfigError,
    DataError,
    Discretizer,
    RealDataset,
    apply_discretizer,
    fit_discretizer,
)


def test_global_rule_is_strictly_greater():
    data = RealDataset(np.array([[0.4], [0.5], [0.6]]), np.array([0, 0, 1]))
    disc = fit_discretizer(data, "global:0.5")
    out = apply_discretizer(disc, data)
    # the threshold value itself maps to level 0
    assert out.features.ravel().tolist() == [0, 0, 1]
    assert out.level_counts.tolist() == [2]


def test_median_thresholds_per_column():
    x = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0]])
    data = RealDataset(x, np.array([0, 1, 0, 1]))
    disc = fit_discretizer(data, "median")
    assert disc.thresholds.tolist() == [2.5, 25.0]
    out = apply_discretizer(disc, data)
    assert out.features.tolist() == [[0, 0], [0, 0], [1, 1], [1, 1]]


def test_median_of_binary_column_can_erase_it():
    # a mostly-one binary column has median 1, and `> 1` is never true;
    # this is why binary sources should use a global cut instead
    x = np.array([[1.0], [1.0], [1.0], [0.0]])
    data = RealDataset(x, np.array([0, 1, 0, 1]))
    out = apply_discretizer(fit_discretizer(data, "median"), data)
    assert not out.features.any()


def test_quantile_rule():
    x = np.linspace(0.0, 1.0, 11)[:, np.newaxis]
    data = RealDataset(x, np.array([0, 1] * 5 + [0]))
    disc = fit_discretizer(data, "quantile:0.8")
    assert disc.thresholds[0] == pytest.approx(0.8)
    out = apply_discretizer(disc, data)
    assert out.features.sum() == 2  # 0.9 and 1.0


def test_thresholds_are_reused_not_refit():
    train = real_dataset(50, 3, seed=1)
    other = real_dataset(50, 3, seed=2)
    disc = fit_discretizer(train, "median")
    out = apply_discretizer(disc, other)
    expected = (other.features > disc.thresholds).astype(int)
    assert np.array_equal(out.features, expected)


def test_width_mismatch_rejected():
    disc = fit_discretizer(real_dataset(20, 3), "median")
    with pytest.raises(DataError):
        apply_discretizer(disc, real_dataset(20, 4))


def test_bad_parameters_rejected():
    data = real_dataset(10, 2)
    with pytest.raises(ConfigError):
        fit_discretizer(data, "global")
    with pytest.raises(ConfigError):
        fit_discretizer(data, "quantile:1.5")
    with pytest.raises(ConfigError):
        fit_discretizer(data, "nearest")
    with pytest.raises(ConfigError):
        Discretizer("median", np.zeros((2, 2)))


def test_discretizer_record_is_frozen():
    disc = fit_discretizer(real_dataset(10, 2), "median")
    with pytest.raises(ValueError):
        disc.thresholds[0] = 0.0


@pytest.mark.parametrize("block", [1, 50, discretize.GATHER_LIMIT])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 61, 200, 201])
def test_median_thresholds_are_bitwise_numpy_medians(monkeypatch, n, block):
    monkeypatch.setattr(discretize, "GATHER_LIMIT", block)  # 1: one column per block
    gen = np.random.default_rng(n)
    x = gen.random((n, 9))
    x[:, 1] = 0.25  # one value throughout
    x[:, 2] = gen.integers(0, 3, size=n) / 2  # many ties
    x[:, 3] = gen.choice([-0.0, 0.0], size=n)  # ties of signed zeros
    x[:, 4] = gen.choice([-0.0, 0.0, 1.0, -1.0], size=n)
    x[:, 5] = x[:, 0]
    x[:, 6] = -x[:, 0]
    x[:, 7] = gen.choice([5e-324, -5e-324, 0.0], size=n)  # halves round to signed zeros
    x[:, 8] = gen.choice([8e307, -8e307, 6e307], size=n)  # sums near the float limit
    thresholds = fit_discretizer(RealDataset(x, np.arange(n) % 2), "median").thresholds
    assert thresholds.tobytes() == np.median(x, axis=0).tobytes()


@pytest.mark.parametrize("spec", ["median", "global:0.5", "quantile:0.3"])
def test_levels_are_uint8_with_two_levels_per_column(spec):
    data = real_dataset(30, 4, seed=3)
    out = apply_discretizer(fit_discretizer(data, spec), data)
    assert out.features.dtype == np.uint8
    assert out.level_counts.dtype == np.int64 and out.level_counts.tolist() == [2] * 4
    expected = data.features > fit_discretizer(data, spec).thresholds
    assert np.array_equal(out.features, expected)

"""Parity mixture generator: shapes, label law, and the no-marginal-signal
property that makes the benchmark hard for main-effect methods."""

import re

import numpy as np
import pytest

from interconv import (
    ConfigError,
    DiscreteDataset,
    ParityModelSpec,
    auc,
    generate,
    influence_score,
    theoretical_rate,
)


def test_default_shapes():
    train, test = generate(ParityModelSpec(seed=0))
    assert train.features.shape == (500, 36)
    assert test.features.shape == (10_000, 36)
    assert train.level_counts.tolist() == [2] * 36
    assert set(np.unique(train.features)) <= {0, 1}


def test_labels_come_from_one_of_the_modules():
    train, test = generate(ParityModelSpec(seed=3))
    for data in (train, test):
        p1 = data.features[:, [0, 1]].sum(axis=1) % 2
        p2 = data.features[:, [2, 3, 4]].sum(axis=1) % 2
        matches = (data.response == p1) | (data.response == p2)
        assert matches.all()


def test_module_agreement_rate():
    # P(Y == module parity) = mix + (1 - mix)/2 = 0.75 for a 50/50 mixture
    _, test = generate(ParityModelSpec(seed=11))
    p1 = test.features[:, [0, 1]].sum(axis=1) % 2
    assert abs((test.response == p1).mean() - 0.75) < 0.02


def test_no_marginal_signal():
    _, test = generate(ParityModelSpec(seed=5))
    y = test.response
    for j in range(36):
        assert abs(auc(y, test.features[:, j]) - 0.5) < 0.02
    # partial modules are equally blind
    assert influence_score(test, (0,)).standardized < 3.0
    assert influence_score(test, (2, 3)).standardized < 3.0
    # full modules at n=10,000: cell means sit near 0.25/0.75, so the
    # standardized score lands around 625 for the pair and 312 for the triple
    assert influence_score(test, (0, 1)).standardized > 400.0
    assert influence_score(test, (2, 3, 4)).standardized > 200.0


def test_seed_determinism_and_stream_order():
    a_train, a_test = generate(ParityModelSpec(seed=42))
    b_train, b_test = generate(ParityModelSpec(seed=42))
    assert np.array_equal(a_train.features, b_train.features)
    assert np.array_equal(a_test.response, b_test.response)
    c_train, _ = generate(ParityModelSpec(seed=43))
    assert not np.array_equal(a_train.features, c_train.features)
    # train draws first from the single stream, so the train block is
    # unchanged when only n_test differs
    d_train, d_test = generate(ParityModelSpec(seed=42, n_test=100))
    assert np.array_equal(a_train.features, d_train.features)
    assert d_test.n == 100


def test_levels_are_bool_draws_of_the_int64_stream():
    spec = ParityModelSpec(n_train=300, n_test=200, seed=7)
    # the reference draw: int64 levels and module choices from one PCG64 stream
    rng = np.random.default_rng(spec.seed)
    for data in generate(spec):
        x = rng.integers(0, 2, size=(data.n, spec.n_features), dtype=np.int64)
        chosen = rng.choice(len(spec.modules), size=data.n, p=spec.mixture)
        y = np.where(chosen == 0, x[:, [0, 1]].sum(axis=1) % 2, x[:, [2, 3, 4]].sum(axis=1) % 2)
        assert data.features.dtype == np.uint8
        assert np.array_equal(data.features, x)
        assert np.array_equal(data.response, y)


def test_zero_test_rows():
    train, test = generate(ParityModelSpec(seed=1, n_test=0))
    assert isinstance(train, DiscreteDataset)
    assert test is None


def test_theoretical_rates():
    spec = ParityModelSpec()
    assert theoretical_rate(spec, 0) == pytest.approx(0.75)
    assert theoretical_rate(spec, 1) == pytest.approx(0.75)
    lopsided = ParityModelSpec(modules=(((0, 1), 0.9), ((2, 3, 4), 0.1)))
    assert theoretical_rate(lopsided, 0) == pytest.approx(0.95)
    assert theoretical_rate(lopsided, 1) == pytest.approx(0.55)
    with pytest.raises(ConfigError):
        theoretical_rate(spec, 2)


def test_single_module_spec():
    spec = ParityModelSpec(n_features=6, modules=(((1, 3), 1.0),), n_train=200, n_test=0)
    train, _ = generate(spec)
    parity = train.features[:, [1, 3]].sum(axis=1) % 2
    assert np.array_equal(train.response, parity)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"modules": ()},
        {"modules": (((0, 1), 0.4), ((2, 3), 0.4))},
        {"modules": (((0, 0), 1.0),)},
        {"modules": (((0, 40), 1.0),)},
        {"modules": (((0, 1), -0.5), ((2,), 1.5))},
        {"n_train": 0},
        {"modules": (((0, 1), np.nan), ((2, 3), 1.0))},
    ],
)
def test_bad_specs_rejected(kwargs):
    with pytest.raises(ConfigError):
        ParityModelSpec(**kwargs)


@pytest.mark.parametrize(
    "size, value",
    [("n_features", 0), ("n_train", -5), ("n_test", -1)],
)
def test_parity_spec_names_the_size_it_refuses(size, value):
    least = 0 if size == "n_test" else 1
    with pytest.raises(ConfigError, match=re.escape(f"{size} must be >= {least}, got {value}")):
        ParityModelSpec(**{size: value})


def test_parity_spec_refuses_a_split_no_array_can_hold():
    """n x n_features int64 values past the largest array, at the exact edge."""
    most, one = np.iinfo(np.intp).max // 8, (((0,), 1.0),)
    ParityModelSpec(n_features=1, n_train=most, n_test=most, modules=one)  # only checked, never drawn
    message = f"n_test must fit one int64 array with n_features, got {most + 1} x 1"
    with pytest.raises(ConfigError, match=re.escape(message)):
        ParityModelSpec(n_features=1, n_test=most + 1, modules=one)

"""Influence score against a dictionary-grouping oracle and hand arithmetic."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import decode_cell, naive_influence

from conftest import binary_dataset
from interconv import (
    DataError,
    DiscreteDataset,
    encode_cells,
    influence_score,
    partition_stats,
)
from interconv.iscore import MAX_SUBSET, cell_radix


def test_hand_computed_xor_pattern():
    # four cells of two rows each, cell means alternating 1/0 around ybar=0.5:
    #   raw = 4 cells * 2^2 * 0.5^2 = 4,  standardized = 4 / (8 * 0.25) = 2
    x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 2)
    y = np.array([1, 0, 0, 1, 1, 0, 0, 1])
    score = influence_score(DiscreteDataset(x, y), (0, 1))
    assert score.raw == pytest.approx(4.0, abs=1e-12)
    assert score.standardized == pytest.approx(2.0, abs=1e-12)
    assert score.n == 8
    assert score.response_variance == pytest.approx(0.25)


def test_hand_computed_single_column():
    # cells {0,1} with means 2/3 and 1/3 around ybar=0.5:
    #   raw = 9*(1/6)^2 + 9*(1/6)^2 = 0.5,  standardized = 0.5 / (6 * 0.25) = 1/3
    x = np.array([[0], [0], [0], [1], [1], [1]])
    y = np.array([1, 1, 0, 1, 0, 0])
    score = influence_score(DiscreteDataset(x, y), (0,))
    assert score.raw == pytest.approx(0.5, abs=1e-12)
    assert score.standardized == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_marginal_of_xor_is_zero():
    x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 2)
    y = x.sum(axis=1) % 2
    for j in (0, 1):
        assert influence_score(DiscreteDataset(x, y), (j,)).raw == 0.0


def test_constant_response_scores_zero():
    data = DiscreteDataset(np.array([[0], [1], [0]]), np.array([1, 1, 1]))
    score = influence_score(data, (0,))
    assert score.raw == 0.0
    assert score.standardized == 0.0
    assert score.response_variance == 0.0


def test_agrees_with_naive_oracle(rng):
    for _ in range(40):
        n = int(rng.integers(5, 120))
        p = int(rng.integers(2, 8))
        levels = rng.integers(2, 4, size=p)
        x = np.column_stack([rng.integers(0, k, size=n) for k in levels])
        y = rng.integers(0, 2, size=n)
        data = DiscreteDataset(x, y, levels.astype(np.int64))
        size = int(rng.integers(1, p + 1))
        subset = tuple(int(v) for v in rng.choice(p, size=size, replace=False))
        raw, std = naive_influence(x, y, subset)
        score = influence_score(data, subset)
        assert score.raw == pytest.approx(raw, rel=1e-12, abs=1e-12)
        assert score.standardized == pytest.approx(std, rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_subset_order_is_irrelevant(data_strategy):
    n = data_strategy.draw(st.integers(4, 40))
    seed = data_strategy.draw(st.integers(0, 2**16))
    gen = np.random.default_rng(seed)
    x = gen.integers(0, 2, size=(n, 5))
    y = gen.integers(0, 2, size=n)
    data = DiscreteDataset(x, y)
    subset = (0, 2, 4)
    base = influence_score(data, subset)
    for perm in [(2, 0, 4), (4, 2, 0), (0, 4, 2)]:
        other = influence_score(data, perm)
        assert other.raw == pytest.approx(base.raw, rel=1e-12, abs=1e-12)
        assert other.standardized == pytest.approx(base.standardized, rel=1e-12, abs=1e-12)


def test_null_mean_below_one():
    # standardized scores of pure-noise subsets average strictly below 1
    gen = np.random.default_rng(99)
    total = 0.0
    runs = 200
    for _ in range(runs):
        x = gen.integers(0, 2, size=(200, 4))
        y = gen.integers(0, 2, size=200)
        total += influence_score(DiscreteDataset(x, y), (0, 1, 2, 3)).standardized
    assert 0.80 < total / runs < 1.05


def test_cell_radix_mixed_levels():
    levels = np.array([2, 3, 2, 5], dtype=np.int64)
    assert cell_radix(levels, (0, 1, 3)).tolist() == [1, 2, 6]
    assert cell_radix(levels, (3, 1, 0)).tolist() == [1, 5, 15]
    empty = cell_radix(levels, ())
    assert (empty.shape, empty.dtype) == ((0,), np.int64)


def test_encode_decode_round_trip(rng):
    levels = np.array([2, 3, 4, 2], dtype=np.int64)
    x = np.column_stack([rng.integers(0, k, size=60) for k in levels])
    subset = (2, 0, 3)
    keys = encode_cells(x, subset, levels)
    for i in range(60):
        assert decode_cell(int(keys[i]), subset, levels) == tuple(x[i, list(subset)])


def test_decode_rejects_out_of_range_key():
    levels = np.array([2, 2], dtype=np.int64)
    with pytest.raises(ValueError):
        decode_cell(4, (0, 1), levels)


def test_partition_stats_counts_and_sums():
    x = np.array([[0], [0], [1], [1], [1]])
    y = np.array([1, 0, 1, 1, 0])
    stats = partition_stats(DiscreteDataset(x, y), (0,))
    assert stats.keys.tolist() == [0, 1]
    assert stats.counts.tolist() == [2, 3]
    assert stats.sums.tolist() == [1.0, 2.0]
    assert stats.keys[stats.row_cells].tolist() == [0, 0, 1, 1, 1]


def test_subset_validation():
    data = binary_dataset(10, 4)
    with pytest.raises(DataError):
        influence_score(data, ())
    with pytest.raises(DataError):
        influence_score(data, (0, 0))
    with pytest.raises(DataError):
        influence_score(data, (4,))
    with pytest.raises(DataError):
        influence_score(data, tuple(range(MAX_SUBSET + 1)))


def test_radix_overflow_guard():
    # 2^63 cells cannot be keyed in int64
    levels = np.full(63, 2, dtype=np.int64)
    with pytest.raises(DataError, match=re.escape("overflows 64-bit cell keys: more than 2**62 cells")):
        cell_radix(levels, tuple(range(63)))

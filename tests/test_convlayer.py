"""Window-layer fitting and transformation.

The central oracle: an engineered value must equal the training-set mean of
the response over rows sharing the same selected-cell membership, recomputed
here with plain dictionaries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import naive_influence, reference_window_feature

from conftest import binary_dataset
from interconv import convlayer
from interconv import (
    DataError,
    DiscreteDataset,
    GridShape,
    WindowSpec,
    enumerate_windows,
    fit_layer,
    stack_layers,
    stack_outputs,
    transform,
    transform_stack,
)


def cell_mean_oracle(train, subset, rows):
    """Training mean per cell tuple, grand mean for unseen cells."""
    groups = {}
    for i in range(train.n):
        key = tuple(train.features[i, list(subset)])
        groups.setdefault(key, []).append(train.response[i])
    grand = train.response.mean()
    out = []
    for i in range(rows.shape[0]):
        key = tuple(rows[i, list(subset)])
        out.append(np.mean(groups[key]) if key in groups else grand)
    return np.array(out)


def test_three_by_three_layer_shape():
    data = binary_dataset(80, 9, seed=0)
    layer = fit_layer(data, GridShape(3, 3), WindowSpec(window=2, stride=1))
    assert layer.n_windows == 4
    assert (layer.output_grid.rows, layer.output_grid.cols) == (2, 2)
    for b, feature in enumerate(layer.features, start=1):
        assert feature.window_index == b
    windows = enumerate_windows(GridShape(3, 3), WindowSpec(window=2, stride=1))
    for feature, window in zip(layer.features, windows):
        assert set(feature.selected_subset) <= set(window)
        assert 1 <= len(feature.selected_subset) <= 4


def test_transform_equals_training_cell_means():
    train = binary_dataset(60, 9, seed=1)
    layer = fit_layer(train, GridShape(3, 3), WindowSpec(window=2, stride=1))
    out = transform(layer, train)
    assert out.features.shape == (60, 4)
    for j, feature in enumerate(layer.features):
        expected = cell_mean_oracle(train, feature.selected_subset, train.features)
        assert out.features[:, j] == pytest.approx(expected, abs=1e-12)


def test_transform_of_new_data_uses_training_state():
    train = binary_dataset(50, 9, seed=2)
    fresh = binary_dataset(70, 9, seed=3)
    layer = fit_layer(train, GridShape(3, 3), WindowSpec(window=2, stride=1))
    out = transform(layer, fresh)
    for j, feature in enumerate(layer.features):
        expected = cell_mean_oracle(train, feature.selected_subset, fresh.features)
        assert out.features[:, j] == pytest.approx(expected, abs=1e-12)


def test_values_stay_in_unit_interval():
    train = binary_dataset(40, 36, seed=4)
    layer = fit_layer(train, GridShape(6, 6), WindowSpec(window=2, stride=1))
    out = transform(layer, binary_dataset(200, 36, seed=5))
    assert out.features.min() >= 0.0
    assert out.features.max() <= 1.0


def test_unseen_cell_falls_back_to_grand_mean():
    # training never contains the all-ones corner cell
    x = np.zeros((20, 4), dtype=np.int64)
    x[10:, 0] = 1
    y = np.array([0] * 10 + [1] * 10)
    train = DiscreteDataset(x, y, np.full(4, 2, dtype=np.int64))
    layer = fit_layer(train, GridShape(2, 2), WindowSpec(window=2, stride=1))
    feature = layer.features[0]
    probe = DiscreteDataset(np.ones((1, 4), dtype=np.int64), np.array([1]))
    value = transform(layer, probe).features[0, 0]
    if len(feature.selected_subset) == 1 and feature.selected_subset == (0,):
        # the selected single column has both levels in training
        assert value in (0.0, 1.0)
    else:
        assert value == pytest.approx(train.response.mean())


def test_planted_signal_window_dominates():
    train = binary_dataset(500, 36, seed=6, signal=(0, 1))
    layer = fit_layer(train, GridShape(6, 6), WindowSpec(window=2, stride=1))
    assert layer.n_windows == 25
    first = layer.features[0]
    assert first.selected_subset == (0, 1)
    scores = [f.iscore for f in layer.features]
    assert np.argmax(scores) == 0
    assert first.train_auc == 1.0  # exact parity separates training perfectly
    others = [f.train_auc for f in layer.features[1:]]
    assert max(others) < 0.95


def test_iscore_matches_direct_computation():
    train = binary_dataset(80, 9, seed=7)
    layer = fit_layer(train, GridShape(3, 3), WindowSpec(window=2, stride=1))
    for feature in layer.features:
        _, std = naive_influence(train.features, train.response, feature.selected_subset)
        assert feature.iscore == pytest.approx(std, rel=1e-12, abs=1e-12)


def test_constant_response_gives_nan_auc_and_zero_scores():
    x = np.random.default_rng(8).integers(0, 2, size=(30, 4))
    train = DiscreteDataset(x, np.zeros(30, dtype=np.int64))
    layer = fit_layer(train, GridShape(2, 2), WindowSpec(window=2, stride=1))
    feature = layer.features[0]
    assert feature.iscore == 0.0
    assert np.isnan(feature.train_auc)
    out = transform(layer, train)
    assert not out.features.any()  # all cell means are zero


def test_worker_count_does_not_change_the_fit():
    train = binary_dataset(150, 36, seed=9)
    serial = fit_layer(train, GridShape(6, 6), WindowSpec(window=2, stride=1), workers=1)
    pooled = fit_layer(train, GridShape(6, 6), WindowSpec(window=2, stride=1), workers=4)
    assert serial.n_windows == pooled.n_windows
    for a, b in zip(serial.features, pooled.features):
        assert a.selected_subset == b.selected_subset
        assert np.array_equal(a.cell_keys, b.cell_keys)
        assert np.array_equal(a.cell_means, b.cell_means)
        assert a.iscore == b.iscore


def test_stack_geometry_and_output_shapes():
    train = binary_dataset(120, 36, seed=11)
    specs = [WindowSpec(window=2, stride=1), WindowSpec(window=2, stride=1)]
    stack, fit_outputs = stack_layers(train, GridShape(6, 6), specs)
    assert len(stack.layers) == 2
    assert len(stack.rediscretizers) == 1
    assert (stack.layers[0].output_grid.rows, stack.layers[0].output_grid.cols) == (5, 5)
    assert (stack.output_grid.rows, stack.output_grid.cols) == (4, 4)
    outputs = stack_outputs(stack, train)
    assert [o.width for o in outputs] == [25, 16]
    for fitted, replayed in zip(fit_outputs, outputs, strict=True):
        assert np.array_equal(fitted.features, replayed.features)
    last = transform_stack(stack, train, mode="last")
    assert last.width == 16
    joined = transform_stack(stack, train, mode="concat")
    assert joined.width == 41
    assert np.array_equal(joined.features[:, :25], outputs[0].features)
    assert np.array_equal(joined.features[:, 25:], outputs[1].features)


def test_stack_second_layer_sees_rebinarized_features():
    train = binary_dataset(120, 36, seed=12)
    specs = [WindowSpec(window=2, stride=1), WindowSpec(window=2, stride=1)]
    stack, _ = stack_layers(train, GridShape(6, 6), specs)
    disc = stack.rediscretizers[0]
    assert disc.width == 25
    # replaying the recorded thresholds reproduces the second layer's input
    first_out = transform(stack.layers[0], train)
    levels = (first_out.features > disc.thresholds).astype(int)
    assert set(np.unique(levels)) <= {0, 1}
    # and the second layer's subsets index into those 25 columns
    for feature in stack.layers[1].features:
        assert all(0 <= j < 25 for j in feature.selected_subset)


def test_transform_stack_modes_validated():
    train = binary_dataset(50, 9, seed=13)
    stack, _ = stack_layers(train, GridShape(3, 3), [WindowSpec(window=2, stride=1)])
    with pytest.raises(DataError):
        transform_stack(stack, train, mode="sum")


def test_fit_rejects_wrong_width():
    train = binary_dataset(30, 10, seed=15)
    with pytest.raises(DataError):
        fit_layer(train, GridShape(3, 3), WindowSpec(window=2, stride=1))


def test_transform_rejects_extra_levels():
    train = binary_dataset(30, 9, seed=16)
    layer = fit_layer(train, GridShape(3, 3), WindowSpec(window=2, stride=1))
    wide = DiscreteDataset(
        np.full((5, 9), 2, dtype=np.int64), np.zeros(5, dtype=np.int64)
    )
    with pytest.raises(DataError):
        transform(layer, wide)


def assert_matches_reference(data, grid, spec):
    """Every field of every fitted window equals the per-window reference."""
    layer = fit_layer(data, grid, spec)
    windows = enumerate_windows(grid, spec)
    assert layer.n_windows == len(windows)
    for b, (feature, window) in enumerate(zip(layer.features, windows), start=1):
        subset, iscore, keys, means, fallback, train_auc = reference_window_feature(data, window)
        assert feature.window_index == b
        assert feature.selected_subset == subset
        assert np.float64(feature.iscore).tobytes() == np.float64(iscore).tobytes()
        assert feature.cell_keys.dtype == keys.dtype
        assert np.array_equal(feature.cell_keys, keys)
        assert feature.cell_means.tobytes() == means.tobytes()
        assert np.float64(feature.fallback_mean).tobytes() == np.float64(fallback).tobytes()
        assert np.float64(feature.train_auc).tobytes() == np.float64(train_auc).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(1, 5),
    st.integers(1, 2),
    st.integers(2, 3),
    st.integers(1, 40),
    st.sampled_from(["random", "zeros", "ones", "parity"]),
    st.booleans(),
    st.booleans(),
)
def test_lockstep_fit_equals_per_window_reference(
    seed, rows, cols, window, stride, levels, n, response, duplicate, constant
):
    """Random grids with planted exact ties: duplicate and constant columns
    tie candidate drops within a stage and subsets across the trajectory."""
    window = min(window, rows, cols)
    gen = np.random.default_rng(seed)
    x = gen.integers(0, levels, size=(n, rows * cols))
    if duplicate and rows * cols > 1:
        x[:, 1] = x[:, 0]
        x[:, -1] = x[:, rows * cols // 2]
    if constant:
        x[:, gen.integers(0, rows * cols)] = gen.integers(0, levels)
    if response == "random":
        y = gen.integers(0, 2, size=n)
    elif response == "parity":
        y = x[:, : min(2, rows * cols)].sum(axis=1) % 2
    else:
        y = np.full(n, int(response == "ones"))
    data = DiscreteDataset(x, y, np.full(rows * cols, levels))
    assert_matches_reference(data, GridShape(rows, cols), WindowSpec(window=window, stride=stride))


def test_lockstep_fit_equals_reference_on_a_five_by_five_window():
    # 25 pixels at 3 levels: 3**25 possible cells, the largest window allowed
    gen = np.random.default_rng(17)
    x = gen.integers(0, 3, size=(60, 30))
    x[:, 7] = x[:, 3]
    y = (x[:, 0] + x[:, 6]) % 2
    data = DiscreteDataset(x, y, np.full(30, 3))
    assert_matches_reference(data, GridShape(5, 6), WindowSpec(window=5, stride=1))


def test_lockstep_fit_is_the_same_in_any_chunking(monkeypatch):
    train = binary_dataset(90, 64, seed=18)
    whole = fit_layer(train, GridShape(8, 8), WindowSpec(window=3, stride=1))
    monkeypatch.setattr(convlayer, "GATHER_LIMIT", 1)  # one window per chunk
    single = fit_layer(train, GridShape(8, 8), WindowSpec(window=3, stride=1))
    for a, b in zip(whole.features, single.features):
        assert a.window_index == b.window_index
        assert a.selected_subset == b.selected_subset
        assert a.iscore == b.iscore
        assert a.cell_keys.tobytes() == b.cell_keys.tobytes()
        assert a.cell_means.tobytes() == b.cell_means.tobytes()
        assert a.train_auc == b.train_auc


def test_fit_rejects_windows_over_the_subset_limit_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("windows were fitted")

    monkeypatch.setattr(convlayer, "_fit_chunk", no_work)
    train = binary_dataset(20, 36, seed=19)
    with pytest.raises(DataError, match="exceeds the limit of 25"):
        fit_layer(train, GridShape(6, 6), WindowSpec(window=6, stride=1))


def test_fit_rejects_cell_keys_that_overflow_64_bits():
    # the first window fits in 64-bit keys; the second window's columns
    # 1, 2, 4, 5 have 2**16 levels each, 2**64 possible cells
    x = np.random.default_rng(20).integers(0, 2, size=(10, 6))
    counts = np.array([2, 2**16, 2**16, 2, 2**16, 2**16])
    train = DiscreteDataset(x, np.arange(10) % 2, counts)
    assert fit_layer(train, GridShape(2, 3), WindowSpec(window=1, stride=1)).n_windows == 6
    with pytest.raises(DataError, match=r"partition of subset \(1, 2, 4, 5\) overflows 64-bit"):
        fit_layer(train, GridShape(2, 3), WindowSpec(window=2, stride=1))

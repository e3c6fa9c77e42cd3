"""ROC curve and AUC against the independent pairwise-concordance oracle.

The oracle never builds a curve: AUC equals the probability that a random
positive outscores a random negative, ties counting half. Every curve-based
value must agree with it to float precision.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import pairwise_auc

from interconv import (
    RocCurve,
    UndefinedMetricError,
    auc,
    roc_curve,
    sensitivity,
    specificity,
    write_roc_csv,
)
from interconv.metrics import grouped_auc, segment_sums


def test_worked_example_perfect_separation():
    y = [0, 0, 1, 1]
    s = [0.0, 0.2, 0.4, 0.8]
    assert auc(y, s) == pytest.approx(1.0, abs=1e-12)
    assert pairwise_auc(y, s) == 1.0


def test_worked_example_with_tie():
    # one positive ties one negative at 0.2: (3 + 0.5) / 4
    y = [0, 0, 1, 1]
    s = [0.0, 0.2, 0.2, 0.8]
    assert pairwise_auc(y, s) == 0.875
    assert auc(y, s) == pytest.approx(0.875, abs=1e-12)


def test_reversed_scores_give_zero():
    y = [0, 0, 1, 1]
    s = [0.9, 0.8, 0.2, 0.1]
    assert auc(y, s) == pytest.approx(0.0, abs=1e-12)


def test_constant_scores_give_half():
    assert auc([0, 1, 0, 1], [0.3, 0.3, 0.3, 0.3]) == pytest.approx(0.5)


def test_agrees_with_pairwise_oracle_on_random_data(rng):
    for _ in range(300):
        n = int(rng.integers(2, 40))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        # coarse grid forces plenty of tied scores
        s = rng.integers(0, 5, size=n) / 4.0
        assert auc(y, s) == pytest.approx(pairwise_auc(y, s), abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.booleans(), min_size=2, max_size=25).filter(
        lambda v: any(v) and not all(v)
    ),
    st.data(),
)
def test_pairwise_equivalence_property(labels, data):
    y = np.array(labels, dtype=int)
    s = np.array(
        data.draw(
            st.lists(
                st.integers(0, 6), min_size=len(labels), max_size=len(labels)
            )
        ),
        dtype=float,
    )
    assert auc(y, s) == pytest.approx(pairwise_auc(y, s), abs=1e-9)


def test_complement_symmetry(rng):
    # flipping score order flips concordance around 1/2
    for _ in range(50):
        y = rng.integers(0, 2, size=30)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        s = rng.integers(0, 8, size=30) / 7.0
        assert auc(y, s) + auc(y, -s) == pytest.approx(1.0, abs=1e-9)


def test_curve_thresholds_descend_with_sentinels():
    curve = roc_curve([0, 1, 0, 1], [0.1, 0.4, 0.4, 0.9])
    assert curve.thresholds[0] == np.inf
    assert curve.thresholds[-1] == -np.inf
    assert np.all(np.diff(curve.thresholds) < 0)
    # distinct scores only, each appearing once between the sentinels
    assert list(curve.thresholds[1:-1]) == [0.9, 0.4, 0.1]


def test_curve_endpoints():
    curve = roc_curve([0, 1, 1], [0.2, 0.5, 0.7])
    assert curve.sens[0] == 0.0 and curve.spec[0] == 1.0
    assert curve.sens[-1] == 1.0 and curve.spec[-1] == 0.0


def test_rule_is_strictly_greater():
    # at threshold 0.5 the score 0.5 itself is classified negative
    y = [1, 0]
    s = [0.5, 0.1]
    assert sensitivity(y, s, 0.5) == 0.0
    assert specificity(y, s, 0.5) == 1.0
    assert sensitivity(y, s, 0.4) == 1.0


def test_sensitivity_requires_a_positive():
    with pytest.raises(UndefinedMetricError):
        sensitivity([0, 0], [0.1, 0.9], 0.5)


def test_specificity_requires_a_negative():
    with pytest.raises(UndefinedMetricError):
        specificity([1, 1], [0.1, 0.9], 0.5)


def test_auc_requires_both_classes():
    with pytest.raises(UndefinedMetricError):
        auc([1, 1, 1], [0.1, 0.5, 0.9])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "metric",
    [auc, roc_curve, lambda y, s: sensitivity(y, s, 0.5), lambda y, s: specificity(y, s, 0.5)],
    ids=["auc", "roc_curve", "sensitivity", "specificity"],
)
def test_metrics_refuse_non_finite_scores(metric, bad):
    with pytest.raises(UndefinedMetricError, match="scores must be finite"):
        metric([0, 1, 0, 1], [bad, 0.9, 0.2, 0.8])


def test_curve_matches_pointwise_metrics(rng):
    y = rng.integers(0, 2, size=50)
    y[:2] = [0, 1]
    s = rng.integers(0, 10, size=50) / 9.0
    curve = roc_curve(y, s)
    for t, se, sp in zip(curve.thresholds[1:-1], curve.sens[1:-1], curve.spec[1:-1]):
        assert se == pytest.approx(sensitivity(y, s, t))
        assert sp == pytest.approx(specificity(y, s, t))


def test_roc_csv_round_trips(tmp_path):
    curve = roc_curve([0, 1, 0, 1], [0.2, 0.8, 0.5, 0.5])
    path = tmp_path / "roc.csv"
    write_roc_csv(path, curve)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "threshold,sensitivity,specificity"
    assert len(rows) == 1 + len(curve.thresholds)
    got = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert np.array_equal(got[:, 1], curve.sens)
    assert np.array_equal(got[:, 2], curve.spec)


def test_curve_is_a_frozen_record():
    curve = roc_curve([0, 1], [0.1, 0.9])
    assert isinstance(curve, RocCurve)
    with pytest.raises(AttributeError):
        curve.auc = 0.0


def expanded_auc(scores, positives, counts):
    """`auc` on the bins written out as rows, NaN for one class."""
    y = np.concatenate([[1] * p + [0] * (c - p) for p, c in zip(positives, counts)])
    s = np.repeat(scores, counts)
    try:
        return auc(y, s)
    except UndefinedMetricError:
        return float("nan")


def assert_grouped_auc_is_bitwise(groups, scores, positives, counts, n_groups):
    got = grouped_auc(groups, scores, positives, counts, n_groups)
    for g in range(n_groups):
        mine = groups == g
        want = expanded_auc(scores[mine], positives[mine], counts[mine])
        assert np.float64(got[g]).tobytes() == np.float64(want).tobytes()


def test_grouped_auc_merges_cells_with_equal_means():
    # cells 1/2 and 2/4 both score 0.5 and must form one step of the curve
    positives = np.array([1, 2, 3, 0, 1, 2])
    counts = np.array([2, 4, 3, 5, 3, 6])
    scores = positives / counts
    assert_grouped_auc_is_bitwise(np.zeros(6, dtype=np.int64), scores, positives, counts, 1)


def test_grouped_auc_single_class_and_single_bin_groups():
    groups = np.array([0, 0, 1, 2, 2])
    positives = np.array([0, 0, 3, 2, 2])
    counts = np.array([3, 1, 5, 4, 2])
    got = grouped_auc(groups, positives / counts, positives, counts, 3)
    assert np.isnan(got[0])  # no positives
    assert got[1] == 0.5  # one bin of mixed labels: a single score
    assert got[2] == 0.75  # positives at 0.5 and 1.0, negatives at 0.5
    assert_grouped_auc_is_bitwise(groups, positives / counts, positives, counts, 3)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 30), st.integers(1, 8))
def test_grouped_auc_equals_auc_bitwise_under_heavy_ties(seed, n_groups, n_bins, max_count):
    gen = np.random.default_rng(seed)
    groups = np.sort(np.concatenate([np.arange(n_groups), gen.integers(0, n_groups, n_bins)]))
    counts = gen.integers(1, max_count + 1, size=len(groups))
    positives = gen.integers(0, counts + 1)
    # cell means (equal ratios collide) or a handful of shared scores
    if seed % 2:
        scores = positives / counts
    else:
        scores = gen.integers(0, 3, size=len(groups)) / 3.0
    assert_grouped_auc_is_bitwise(groups, scores, positives, counts, n_groups)


def test_segment_sums_equal_per_segment_sums_bitwise():
    gen = np.random.default_rng(21)
    lengths = gen.choice([1, 2, 7, 8, 9, 127, 129, 1000, 9000], size=40)
    values = gen.random(lengths.sum()) * gen.choice([1e-9, 1.0, 1e9], size=lengths.sum())
    got = segment_sums(values, lengths)
    bounds = np.cumsum(lengths)[:-1]
    want = np.array([np.sum(v) for v in np.split(values, bounds)])
    assert got.tobytes() == want.tobytes()

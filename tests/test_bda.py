"""Backward dropping against brute force and per-stage greedy re-derivation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_force_best_subset, naive_influence

from conftest import binary_dataset
from interconv import DiscreteDataset, backward_drop, influence_score, trace_report


def test_trace_structure(rng):
    data = binary_dataset(80, 6, seed=1)
    initial = (5, 0, 3, 2)
    trace = backward_drop(data, initial)
    assert len(trace.steps) == 4
    assert trace.steps[0].dropped is None
    assert set(trace.steps[0].subset) == set(initial)
    for prev, step in zip(trace.steps, trace.steps[1:]):
        assert step.dropped in prev.subset
        assert step.subset == tuple(j for j in prev.subset if j != step.dropped)
    assert len(trace.steps[-1].subset) == 1
    scores = [s.score for s in trace.steps]
    assert trace.best_score == max(scores)
    assert trace.best_subset in [s.subset for s in trace.steps]


def test_each_stage_is_the_greedy_argmax(rng):
    """Re-derive every stage with the naive score: the dropped variable must
    maximize the post-drop score, lowest index on ties."""
    for seed in range(15):
        data = binary_dataset(60, 7, seed=seed)
        trace = backward_drop(data, tuple(range(7)))
        for prev, step in zip(trace.steps, trace.steps[1:]):
            outcomes = {}
            for v in prev.subset:
                candidate = tuple(j for j in prev.subset if j != v)
                outcomes[v] = naive_influence(data.features, data.response, candidate)[1]
            top = max(outcomes.values())
            assert step.score == pytest.approx(top, rel=1e-12, abs=1e-12)
            winners = [v for v, s in outcomes.items() if s == top]
            assert step.dropped == min(winners)


def test_recovers_planted_pair():
    data = binary_dataset(500, 36, seed=0, signal=(0, 1))
    trace = backward_drop(data, (0, 1, 6, 7))
    assert trace.best_subset == (0, 1)
    # exact parity: cell means are 0/1, so the standardized score is about
    # sum(n_j^2)/n ~ n/4 for the pair and ~n/16 at the start
    assert trace.best_score == pytest.approx(125.0, rel=0.15)
    assert trace.best_score > 3.0 * trace.steps[0].score


def test_trajectory_tie_keeps_the_larger_subset():
    # column 2 is constant, so {0,1,2} and {0,1} induce identical partitions
    # and identical scores; the earlier (larger) subset must win
    gen = np.random.default_rng(8)
    x = gen.integers(0, 2, size=(40, 3))
    x[:, 2] = 0
    y = (x[:, 0] + x[:, 1]) % 2
    trace = backward_drop(DiscreteDataset(x, y), (0, 1, 2))
    assert trace.steps[1].subset == (0, 1)
    assert trace.steps[1].score == trace.steps[0].score
    assert trace.best_subset == (0, 1, 2)


def test_stage_tie_drops_lowest_index():
    # identical columns 0 and 1: removing either leaves the same partition
    gen = np.random.default_rng(5)
    x = gen.integers(0, 2, size=(50, 3))
    x[:, 1] = x[:, 0]
    y = gen.integers(0, 2, size=50)
    trace = backward_drop(DiscreteDataset(x, y), (0, 1, 2))
    assert trace.steps[1].dropped == 0


def test_greedy_never_beats_brute_force(rng):
    for seed in range(20):
        data = binary_dataset(40, 6, seed=100 + seed)
        initial = tuple(range(6))
        trace = backward_drop(data, initial)
        _, score = brute_force_best_subset(data.features, data.response, initial)
        assert trace.best_score <= score + 1e-12


def test_greedy_finds_global_best_with_clear_signal():
    data = binary_dataset(400, 8, seed=2, signal=(2, 5))
    initial = (1, 2, 5, 6)
    trace = backward_drop(data, initial)
    subset, score = brute_force_best_subset(data.features, data.response, initial)
    assert trace.best_subset == subset == (2, 5)
    assert trace.best_score == pytest.approx(score, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**16), st.integers(2, 5), st.integers(8, 50))
def test_greedy_bounded_by_exhaustive_property(seed, width, n):
    gen = np.random.default_rng(seed)
    data = DiscreteDataset(
        gen.integers(0, 2, size=(n, width)), gen.integers(0, 2, size=n)
    )
    initial = tuple(range(width))
    trace = backward_drop(data, initial)
    _, score = brute_force_best_subset(data.features, data.response, initial)
    assert trace.best_score <= score + 1e-12
    assert all(s.score >= 0.0 for s in trace.steps)


def test_single_variable_start():
    data = binary_dataset(30, 3, seed=9)
    trace = backward_drop(data, (2,))
    assert len(trace.steps) == 1
    assert trace.best_subset == (2,)
    assert trace.best_score == influence_score(data, (2,)).standardized


def test_trace_report_uses_one_based_names():
    data = binary_dataset(50, 4, seed=3, signal=(0, 1))
    text = trace_report(backward_drop(data, (0, 1, 2, 3)))
    assert "X1 X2" in text
    assert "best:" in text
    assert text.count("\n") == 5  # header + 4 steps + best line

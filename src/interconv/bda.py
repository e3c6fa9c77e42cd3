"""Backward dropping: greedy variable selection by standardized influence score.

Starting from an initial subset of size k, each stage tentatively removes one
surviving variable at a time, keeps the removal with the highest standardized
influence score, and repeats down to a single variable. The returned subset is
the trajectory-wide argmax, which may be the untouched initial subset (step 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DiscreteDataset
from .iscore import influence_score


@dataclass(frozen=True)
class BdaStep:
    """One trajectory stage: the variable just dropped (None for the start),
    the surviving subset, and its standardized influence score."""

    dropped: int | None
    subset: tuple[int, ...]
    score: float


@dataclass(frozen=True)
class BdaTrace:
    steps: tuple[BdaStep, ...]
    best_subset: tuple[int, ...]
    best_score: float


def _score(data: DiscreteDataset, subset: tuple[int, ...]) -> float:
    return influence_score(data, subset).standardized


def backward_drop(data: DiscreteDataset, initial_subset: tuple[int, ...]) -> BdaTrace:
    """Run the greedy drop trajectory from `initial_subset`.

    Ties at a stage are broken by dropping the lowest feature index; ties in
    the trajectory argmax keep the earliest (largest) subset. Deterministic:
    no randomness anywhere.
    """
    current = tuple(initial_subset)
    steps = [BdaStep(None, current, _score(data, current))]
    while len(current) > 1:
        best_drop = None
        best_score = -np.inf
        # ascending candidate order + strict > drops the lowest index on ties
        for v in sorted(current):
            candidate = tuple(j for j in current if j != v)
            s = _score(data, candidate)
            if s > best_score:
                best_drop, best_score = v, s
        current = tuple(j for j in current if j != best_drop)
        steps.append(BdaStep(best_drop, current, best_score))
    best = steps[0]
    for step in steps[1:]:
        if step.score > best.score:
            best = step
    return BdaTrace(steps=tuple(steps), best_subset=best.subset, best_score=best.score)


def trace_report(trace: BdaTrace) -> str:
    """Plain-text trajectory table with 1-based variable names."""
    lines = [f"{'step':>4}  {'dropped':>8}  {'score':>12}  surviving"]
    for i, step in enumerate(trace.steps):
        dropped = "-" if step.dropped is None else f"X{step.dropped + 1}"
        names = " ".join(f"X{j + 1}" for j in step.subset)
        lines.append(f"{i:>4}  {dropped:>8}  {step.score:>12.4f}  {names}")
    best = " ".join(f"X{j + 1}" for j in trace.best_subset)
    lines.append(f"best: {best} (score {trace.best_score:.4f})")
    return "\n".join(lines)

"""Influence score of a variable subset on a binary response.

A subset S of discrete columns partitions the rows into cells, one per
observed level combination. With n_j rows and local response mean ybar_j in
cell j, and grand mean ybar over all n rows, the raw score is

    I = sum_j  n_j^2 (ybar_j - ybar)^2

and the standardized score divides by n * sigma^2, where sigma^2 is the
population (divide-by-n) variance of the response. Under a null response the
standardized score is a weighted sum of chi-square(1) terms whose weights sum
to less than one, so values near or below 1 mean "noise" and large values
mean the cell means genuinely separate.

Cells are keyed mixed-radix: key = sum_m level_m * radix_m with radix_m the
running product of the level counts of the earlier subset columns. Only
occupied cells are stored. This module owns that key arithmetic, for `convlayer`
too, and its one bound: a partition of more than 2**62 cells is refused.

Backward dropping searches greedily on the standardized score: from an
initial subset, each stage removes the variable whose removal scores highest,
down to one variable; the result is the trajectory-wide argmax, which may be
the initial subset. This module works one window at a time and is the
reference that the lockstep fit in `convlayer` is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DiscreteDataset
from .errors import DataError

MAX_SUBSET = 25  # cell keys must fit comfortably in signed 64-bit


def _cell_counts(level_counts: np.ndarray, flat: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Exact cell count of each subset laid end to end in `flat`, refusing one
    over 2**62 so that int64 cell keys and table sizes cannot overflow."""
    starts = np.cumsum(lengths) - lengths
    cells = np.multiply.reduceat(level_counts[flat].astype(object), starts)
    over = np.flatnonzero(cells > 2**62)
    if over.size:
        first = starts[over[0]]
        subset = tuple(flat[first : first + lengths[over[0]]].tolist())
        raise DataError(f"partition of subset {subset} overflows 64-bit cell keys: more than 2**62 cells")
    return cells


def _place_values(sizes: np.ndarray) -> np.ndarray:
    """Mixed-radix place value of every position of each row of level counts
    `sizes`: the product of the counts before it in its row."""
    radix = np.ones_like(sizes)
    np.multiply.accumulate(sizes[:, :-1], axis=1, out=radix[:, 1:])
    return radix


def encode_cells(
    features: np.ndarray, subset: tuple[int, ...], level_counts: np.ndarray
) -> np.ndarray:
    """Cell key of every row under the partition induced by `subset`."""
    if len(subset):
        _cell_counts(level_counts, np.array(subset), np.array([len(subset)]))
    radix = _place_values(level_counts[list(subset)].astype(np.int64)[np.newaxis])[0]
    return features[:, list(subset)] @ radix


@dataclass(frozen=True, eq=False)
class CellStats:
    """Occupied cells of one partition: sorted keys, row counts, response sums.

    `row_cells[i]` is the position in `keys` of row i's cell.
    """

    keys: np.ndarray
    counts: np.ndarray
    sums: np.ndarray
    row_cells: np.ndarray


def partition_stats(data: DiscreteDataset, subset: tuple[int, ...]) -> CellStats:
    """Group rows by their cell under `subset` and accumulate response stats."""
    if len(subset) == 0:
        raise DataError("subset must not be empty")
    if len(subset) > MAX_SUBSET:
        raise DataError(f"subset size {len(subset)} exceeds the limit of {MAX_SUBSET}")
    if len(set(subset)) != len(subset):
        raise DataError(f"subset has repeated indices: {subset}")
    for j in subset:
        if not (0 <= j < data.width):
            raise DataError(f"feature index {j} out of range for width {data.width}")
    raw_keys = encode_cells(data.features, subset, data.level_counts)
    keys, row_cells = np.unique(raw_keys, return_inverse=True)
    counts = np.bincount(row_cells, minlength=len(keys))
    sums = np.bincount(row_cells, weights=data.response.astype(np.float64), minlength=len(keys))
    return CellStats(keys=keys, counts=counts, sums=sums, row_cells=row_cells)


@dataclass(frozen=True)
class InfluenceScore:
    raw: float
    standardized: float
    n: int
    response_variance: float


def influence_score(data: DiscreteDataset, subset: tuple[int, ...]) -> InfluenceScore:
    """Raw and standardized influence score of `subset` on the response.

    A constant response has sigma^2 = 0 and scores 0 in both forms.
    """
    stats = partition_stats(data, subset)
    y = data.response.astype(np.float64)
    n = y.shape[0]
    ybar = y.mean()
    sigma2 = float(y.var())
    local_means = stats.sums / stats.counts
    raw = float(np.sum(stats.counts.astype(np.float64) ** 2 * (local_means - ybar) ** 2))
    standardized = raw / (n * sigma2) if sigma2 > 0.0 else 0.0
    return InfluenceScore(raw=raw, standardized=standardized, n=n, response_variance=sigma2)


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


def backward_drop(data: DiscreteDataset, initial_subset: tuple[int, ...]) -> BdaTrace:
    """Run the greedy drop trajectory from `initial_subset`.

    Ties at a stage are broken by dropping the lowest feature index; ties in
    the trajectory argmax keep the earliest (largest) subset. Deterministic:
    no randomness anywhere.
    """
    current = tuple(initial_subset)
    steps = [BdaStep(None, current, influence_score(data, current).standardized)]
    while len(current) > 1:
        best_drop = None
        best_score = -np.inf
        # ascending candidate order + strict > drops the lowest index on ties
        for v in sorted(current):
            candidate = tuple(j for j in current if j != v)
            s = influence_score(data, candidate).standardized
            if s > best_score:
                best_drop, best_score = v, s
        current = tuple(j for j in current if j != best_drop)
        steps.append(BdaStep(best_drop, current, best_score))
    best = steps[0]
    for step in steps[1:]:
        if step.score > best.score:
            best = step
    return BdaTrace(steps=tuple(steps), best_subset=best.subset, best_score=best.score)

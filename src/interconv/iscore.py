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
occupied cells are stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DiscreteDataset
from .errors import DataError

MAX_SUBSET = 25  # cell keys must fit comfortably in signed 64-bit


def _check_subset(data: DiscreteDataset, subset: tuple[int, ...]) -> None:
    if len(subset) == 0:
        raise DataError("subset must not be empty")
    if len(subset) > MAX_SUBSET:
        raise DataError(f"subset size {len(subset)} exceeds the limit of {MAX_SUBSET}")
    if len(set(subset)) != len(subset):
        raise DataError(f"subset has repeated indices: {subset}")
    for j in subset:
        if not (0 <= j < data.width):
            raise DataError(f"feature index {j} out of range for width {data.width}")


def cell_radix(level_counts: np.ndarray, subset: tuple[int, ...]) -> np.ndarray:
    """Mixed-radix place values for the columns of `subset`, in subset order."""
    sizes = level_counts[list(subset)]
    total = 1
    for s in sizes.tolist():
        total *= int(s)
    if total > 2**62:
        raise DataError(f"partition of subset {subset} overflows 64-bit cell keys")
    radix = np.ones(len(subset), dtype=np.int64)
    if len(subset) > 1:
        radix[1:] = np.cumprod(sizes[:-1])
    return radix


def encode_cells(
    features: np.ndarray, subset: tuple[int, ...], level_counts: np.ndarray
) -> np.ndarray:
    """Cell key of every row under the partition induced by `subset`."""
    radix = cell_radix(level_counts, subset)
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
    _check_subset(data, subset)
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

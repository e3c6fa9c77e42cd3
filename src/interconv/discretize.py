"""Binarization of real-valued features.

Three threshold rules, all applied as `level = 1 if value > threshold else 0`
(ties go to 0):

* ``global``   -- one fixed cut for every column;
* ``median``   -- per-column median of the fitted data;
* ``quantile`` -- per-column q-quantile of the fitted data.

Thresholds are fit once (on training data) and reused; `apply_discretizer`
never looks at the data it is given beyond the feature values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GATHER_LIMIT, DiscreteDataset, RealDataset, _freeze
from .errors import ConfigError, DataError

METHODS = ("global", "median", "quantile")


@dataclass(frozen=True, eq=False)
class Discretizer:
    """Fitted per-column thresholds plus the rule that produced them."""

    method: str
    thresholds: np.ndarray
    param: float | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(f"unknown discretizer method {self.method!r}")
        thr = np.asarray(self.thresholds, dtype=np.float64)
        if thr.ndim != 1:
            raise ConfigError("thresholds must be a 1-d array")
        if not np.isfinite(thr).all():
            raise ConfigError("discretizer thresholds must be finite")
        if self.param is not None and not math.isfinite(self.param):
            raise ConfigError(f"discretizer parameter must be finite, got {self.param}")
        object.__setattr__(self, "thresholds", _freeze(thr))

    @property
    def width(self) -> int:
        return self.thresholds.shape[0]


def parse_discretizer_spec(text: str) -> tuple[str, float | None]:
    """Parse 'median', 'global:<cut>', or 'quantile:<q>'."""
    method, _, arg = text.strip().partition(":")
    if method == "median":
        if arg:
            raise ConfigError("median discretizer takes no parameter")
        return "median", None
    if method in ("global", "quantile"):
        if not arg:
            raise ConfigError(f"{method} discretizer needs a parameter, e.g. {method}:0.5")
        try:
            value = float(arg)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ConfigError(f"{method} discretizer parameter must be a finite number, got {arg!r}")
        if method == "quantile" and not (0.0 < value < 1.0):
            raise ConfigError(f"quantile must lie in (0, 1), got {value}")
        return method, value
    raise ConfigError(f"unknown discretizer {text!r}")


def fit_discretizer(data: RealDataset, spec: str = "median") -> Discretizer:
    """Learn per-column cut points on `data` by the rule `spec` names (see
    `parse_discretizer_spec`); the quantile q lies in the open interval (0, 1)."""
    method, param = parse_discretizer_spec(spec)
    x = data.features
    if method == "global":
        cuts = np.full(x.shape[1], param)
    elif method == "quantile":
        cuts = np.quantile(x, param, axis=0)
    else:
        cuts = _column_medians(x)
    return Discretizer(method, cuts, param)


def _column_medians(x: np.ndarray) -> np.ndarray:
    """`np.median(x, axis=0)`, bitwise, from sorted copies of transposed
    blocks of columns; a block of at most `GATHER_LIMIT` values keeps the
    copy small.

    Like `np.median`, it averages the middle values with a sum that starts
    at 0.0, so a median of -0.0 comes out as 0.0, whichever of two tied
    signed zeros the sort puts in the middle.
    """
    n, width = x.shape
    middle = [n // 2] if n % 2 else [n // 2 - 1, n // 2]
    out = np.empty(width)
    step = max(1, GATHER_LIMIT // n)
    for lo in range(0, width, step):
        block = np.sort(x[:, lo : lo + step].T, axis=1)
        out[lo : lo + step] = sum((block[:, j] for j in middle), 0.0) / len(middle)
    return out


def apply_discretizer(disc: Discretizer, data: RealDataset) -> DiscreteDataset:
    """Binarize `data` with previously fitted thresholds; the levels are
    stored as uint8 (see `DiscreteDataset`)."""
    if data.width != disc.width:
        raise DataError(
            f"discretizer was fit on {disc.width} columns, data has {data.width}"
        )
    levels = data.features > disc.thresholds[np.newaxis, :]
    return DiscreteDataset(levels, data.response, np.full(data.width, 2, dtype=np.int64))

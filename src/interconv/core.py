"""Grids, sliding windows, the two dataset value types, one CSV writer and one text and CSV reader.

Conventions used throughout the package:

* grid pixels are stored row-major, flattened to feature columns;
* feature indices are 0-based internally, 1-based in reports and CLI output;
* window placement is written (window w, stride l, start p) with a 1-based
  start pixel, so the first window covers rows/cols p .. p+w-1.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, GeometryError

# Most elements one working array may hold: the median fit sorts, the
# lockstep fit groups or regroups, `transform` codes, and a whole-matrix
# check tests at most that many.
GATHER_LIMIT = 2**17


@dataclass(frozen=True)
class GridShape:
    """Rectangular pixel grid, rows x cols."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise GeometryError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")

    @property
    def size(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class WindowSpec:
    """Square sliding window: side length, stride, and 1-based start pixel."""

    window: int
    stride: int
    start: int = 1

    def __post_init__(self) -> None:
        if self.window < 1:
            raise GeometryError(f"window must be >= 1, got {self.window}")
        if self.stride < 1:
            raise GeometryError(f"stride must be >= 1, got {self.stride}")
        if self.start < 1:
            raise GeometryError(f"start is 1-based and must be >= 1, got {self.start}")


def output_dim(size: int, spec: WindowSpec) -> int:
    """Number of window positions along one axis of length `size`.

    floor((size - start - window + 1) / stride) + 1, requiring that the
    first window fits entirely inside the axis.
    """
    span = size - spec.start - spec.window + 1
    if span < 0:
        raise GeometryError(
            f"window {spec.window} starting at {spec.start} does not fit in axis of {size}"
        )
    return span // spec.stride + 1


def output_grid(grid: GridShape, spec: WindowSpec) -> GridShape:
    """Grid of window positions produced by sliding `spec` over `grid`."""
    return GridShape(output_dim(grid.rows, spec), output_dim(grid.cols, spec))


def window_pixels(grid: GridShape, spec: WindowSpec) -> np.ndarray:
    """Flattened pixel indices of every window position (windows x pixels),
    in the order `enumerate_windows` lists them."""
    out = output_grid(grid, spec)
    first = spec.start - 1  # 0-based corner of the first window
    # a stride multiplies only where an axis has two windows, and then lies below its length
    corner_rows = first + min(spec.stride, grid.rows) * np.arange(out.rows, dtype=np.int64)
    corner_cols = first + min(spec.stride, grid.cols) * np.arange(out.cols, dtype=np.int64)
    corners = corner_rows[:, np.newaxis] * grid.cols + corner_cols
    offsets = np.arange(spec.window)[:, np.newaxis] * grid.cols + np.arange(spec.window)
    return corners.reshape(-1, 1) + offsets.reshape(1, -1)


def enumerate_windows(grid: GridShape, spec: WindowSpec) -> list[tuple[int, ...]]:
    """Flattened pixel indices of every window position, row-major.

    Windows are emitted in row-major order of their top-left corner, and the
    indices inside each window are themselves row-major, so window b (1-based)
    lands at output position (ceil(b / out_cols), ((b-1) mod out_cols) + 1).
    """
    return [tuple(w) for w in window_pixels(grid, spec).tolist()]


def _column_names(indices) -> list[str]:
    """The 1-based names X1, X2, ... of 0-based feature columns, as dataset headers and reports write them."""
    return [f"X{j + 1}" for j in indices]


def _write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write one table; `csv` writes each float by its shortest repr, so it reads back exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_text(path: str | Path, what: str, error: type[Exception] = DataError) -> str:
    """A file the user wrote, as UTF-8 text without a leading BOM and with line ends as written."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what}: {exc}") from exc


def _csv_records(path: str | Path, what: str):
    """Non-empty CSV records of a user's file with their 1-based record numbers; the first is the header."""
    for lineno, rec in enumerate(csv.reader(io.StringIO(_read_text(path, what), newline="")), start=1):
        if rec:
            yield lineno, rec


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.flags.writeable = False
    return out


def _is_binary(values: np.ndarray) -> bool:
    """Whether every value is 0 or 1, compared before any cast."""
    return bool(((values == 0) | (values == 1)).all())


def _holds(matrix: np.ndarray, test) -> bool:
    """Whether `test(block)` is true everywhere, for every block of rows of a matrix with columns:
    blocks of at most `GATHER_LIMIT` elements (or one row), so a check's temporaries stay bounded
    as rows grow. A matrix of at most `GATHER_LIMIT` elements, such as one image row, is one call."""
    if matrix.size <= GATHER_LIMIT:
        return test(matrix).all()
    step = max(1, GATHER_LIMIT // matrix.shape[1])
    return all(test(matrix[lo : lo + step]).all() for lo in range(0, len(matrix), step))


def _check_response(response: np.ndarray, n: int) -> np.ndarray:
    response = np.asarray(response)
    if response.shape != (n,):
        raise DataError(f"response shape {response.shape} does not match {n} rows")
    if not _is_binary(response):
        raise DataError("response must contain only 0 and 1")
    return response.astype(np.int64, copy=False)


def _matrix(features, dtype=None, *, finite: bool = False) -> np.ndarray:
    """`features` as a non-empty 2-d array, the shape rule of both dataset
    types; `finite` adds `RealDataset`'s rule."""
    feats = np.asarray(features, dtype=dtype)
    if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
        raise DataError(f"features must be a non-empty 2-d array, got shape {feats.shape}")
    if finite and not _holds(feats, np.isfinite):
        raise DataError("features must be finite")
    return feats


@dataclass(frozen=True, eq=False)
class _Dataset:
    """The fields both dataset types share, `n` and `width`."""

    features: np.ndarray
    response: np.ndarray

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def width(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True, eq=False)
class DiscreteDataset(_Dataset):
    """Rows of small non-negative integer levels with a binary response.

    `level_counts[j]` is the number of admissible levels of column j; values
    in column j must lie in [0, level_counts[j]). Bool levels, 0 or 1 by
    their type, are stored as a uint8 view and not scanned; every other
    input is stored as int64 and fully checked. Arrays are frozen after
    construction; a bool or C-contiguous int64 input is shared and frozen in
    place, not copied.
    """

    level_counts: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        feats = _matrix(self.features)
        narrow = feats.dtype == np.bool_
        if not narrow:
            if not np.issubdtype(feats.dtype, np.integer):
                if not _holds(feats, np.isfinite):
                    raise DataError("discrete features must be finite")
                if not _holds(feats, lambda b: b == np.floor(b)):
                    raise DataError("discrete features must be integer-valued")
            feats = feats.astype(np.int64, copy=False)
            if feats.min() < 0:
                raise DataError("discrete features must be non-negative")
        n, p = feats.shape
        resp = _check_response(self.response, n)
        if self.level_counts is None:
            counts = np.maximum(feats.max(axis=0).astype(np.int64) + 1, 2)
        else:
            counts = np.asarray(self.level_counts, dtype=np.int64)
            if counts.shape != (p,):
                raise DataError(f"level_counts shape {counts.shape} does not match {p} columns")
            # bool levels lie in [0, 2) by their type
            if (counts < 2).any() or (not narrow and not _holds(feats, lambda b: b < counts)):
                raise DataError("feature levels must lie in [0, level_counts) with >= 2 levels")
        # a bool input is frozen itself, so no write to it can reach the view
        feats = _freeze(feats)
        object.__setattr__(self, "features", feats.view(np.uint8) if narrow else feats)
        object.__setattr__(self, "response", _freeze(resp))
        object.__setattr__(self, "level_counts", _freeze(counts))


@dataclass(frozen=True, eq=False)
class RealDataset(_Dataset):
    """Rows of real-valued features with a binary response.

    Arrays are frozen after construction; an input that is already
    C-contiguous float64 is shared and frozen in place, not copied.
    """

    def __post_init__(self) -> None:
        feats = _matrix(self.features, np.float64, finite=True)
        resp = _check_response(self.response, feats.shape[0])
        object.__setattr__(self, "features", _freeze(feats))
        object.__setattr__(self, "response", _freeze(resp))

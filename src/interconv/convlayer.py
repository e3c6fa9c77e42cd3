"""Sliding-window feature engineering driven by influence-score selection.

For every window position, backward dropping picks the strongest variable
subset inside the window, and the engineered feature value of a row is the
*training* local response mean of the cell that row falls into. Rows landing
in cells never seen during fitting fall back to the training grand mean, so
transformed values always stay inside [0, 1].

Fitting runs backward dropping in lockstep over chunks of windows. The
first stage groups the training rows into each window's occupied cells;
every later stage derives the cells of each one-smaller candidate from the
cells of the subset picked one stage before, by removing one digit of their
mixed-radix keys and adding the counts of the cells that meet, so only the
first stage reads rows.

Serving walks a plan of stages, on arrays checked once before the first.
A plan names the windows each layer codes (all of them, or for a "last"
bundle only those the next layer's coded windows read) and builds each
layer's stage from its flat arrays for exactly those windows: a dense
lookup table where window w owns the slice [offset_w, offset_w + space_w),
space_w being the product of its subset's level counts, holding its cell
means at their mixed-radix keys (as `encode_cells` keys them) and its
fallback everywhere else. Rows are coded in fixed-width slot planes, at most
`GATHER_LIMIT` slots a chunk: subsets are padded to the longest, slot s of
each window reads one pixel's level times the slot's place value (0 on
padding), and a row's value for window w is one gather at offset_w plus its
slot sum, in int32, as `TABLE_LIMIT` holds tables far under 2**31. A stage
whose table would pass that cap keeps a per-window `searchsorted` over the
occupied keys; the cap is met per plan, and a stack caches both plans. A
"last" plan merges consecutive dense stages into one while its tables fit
the cap (`_merge`), so a row can reach the last layer in one gather.

Stacking layers re-binarizes the engineered features (per-feature median by
default) before the next layer is fit; the thresholds fitted between layers
travel with the stack so new data can be pushed through identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    GATHER_LIMIT, DiscreteDataset, GridShape, RealDataset, WindowSpec, _freeze, output_grid, window_pixels,
)
from .discretize import Discretizer, apply_discretizer, fit_discretizer
from .errors import DataError
from .iscore import MAX_SUBSET, _cell_counts, _place_values
from .metrics import grouped_auc, segment_sums


@dataclass(frozen=True, eq=False)
class WindowFeature:
    """One fitted window: 1-based position index, the selected subset
    (0-based flattened pixel indices), sorted occupied cell keys with their
    training means, the training grand mean as fallback, and the subset's
    standardized influence score plus its single-feature training AUC
    (NaN when the training response is single-class)."""

    window_index: int
    selected_subset: tuple[int, ...]
    cell_keys: np.ndarray
    cell_means: np.ndarray
    fallback_mean: float
    iscore: float
    train_auc: float


# A fitted layer's arrays, in the order the bundle stores them: per input
# column its level count; per window its subset length, number of occupied
# cells, fallback mean, I-score and training AUC; every window's subset and
# cells laid end to end in window order.
LAYER_ARRAYS = (
    "level_counts", "subset_len", "subset_flat", "ncells",
    "cell_keys", "cell_means", "fallback", "iscore", "auc",
)


@dataclass(frozen=True, eq=False)
class FittedConvLayer:
    input_grid: GridShape
    spec: WindowSpec
    level_counts: np.ndarray
    subset_len: np.ndarray
    subset_flat: np.ndarray
    ncells: np.ndarray
    cell_keys: np.ndarray
    cell_means: np.ndarray
    fallback: np.ndarray
    iscore: np.ndarray
    auc: np.ndarray

    def __post_init__(self) -> None:
        """Refuse arrays that `transform` could not serve, then freeze them."""
        for name in LAYER_ARRAYS:
            arr = getattr(self, name)
            kind = "f" if name in ("cell_means", "fallback", "iscore", "auc") else "i"
            if arr.ndim != 1 or arr.dtype.kind != kind:
                raise DataError(f"array {name} is not 1-d of kind {kind!r}")
        n, size, window_size = self.n_windows, self.input_grid.size, self.spec.window**2
        if {len(self.ncells), len(self.fallback), len(self.iscore), len(self.auc)} != {n}:
            raise DataError("per-window arrays differ in length")
        if ((self.subset_len < 1) | (self.subset_len > window_size)).any():
            raise DataError(f"a subset length lies outside 1..{window_size}")
        if self.subset_len.sum() != len(self.subset_flat):
            raise DataError("subset lengths do not add up to the subset array")
        if (self.ncells < 1).any() or not self.ncells.sum() == len(self.cell_keys) == len(self.cell_means):
            raise DataError("cell counts do not add up to the cell arrays")
        if n != self.output_grid.size:
            raise DataError(f"{n} windows where its geometry gives {self.output_grid.size}")
        if ((self.subset_flat < 0) | (self.subset_flat >= size)).any():
            raise DataError(f"a subset index lies outside [0, {size})")
        owner = np.repeat(np.arange(n), self.subset_len)  # a repeat would read one column twice
        if not ((np.diff(self.subset_flat) > 0) | (np.diff(owner) > 0)).all():
            raise DataError("subset indices are not strictly ascending within a window")
        if len(self.level_counts) != size:
            raise DataError(f"{len(self.level_counts)} level counts for {size} columns")
        if (self.level_counts < 2).any():
            raise DataError("a level count is below 2")
        cells = _cell_counts(self.level_counts, self.subset_flat, self.subset_len)
        keys, window = self.cell_keys, np.repeat(np.arange(n), self.ncells)
        if ((keys < 0) | (keys >= cells.astype(np.int64)[window])).any():
            raise DataError("a cell key lies outside its subset's cell range")
        if not ((np.diff(keys) > 0) | (np.diff(window) > 0)).all():
            raise DataError("cell keys are not strictly ascending within a window")
        means = np.concatenate([self.cell_means, self.fallback])
        if not ((means >= 0.0) & (means <= 1.0)).all():
            raise DataError("a cell mean or fallback is not a finite value in [0, 1]")
        # frozen, so no write can leave the checks or a stack's cached plans stale
        for name in LAYER_ARRAYS:
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    @property
    def output_grid(self) -> GridShape:
        return output_grid(self.input_grid, self.spec)

    @property
    def n_windows(self) -> int:
        return len(self.subset_len)

    @cached_property
    def features(self) -> tuple[WindowFeature, ...]:
        """One record per window; its arrays are views into the layer's."""
        subsets = self.subset_flat.tolist()
        per_window = zip(
            self.subset_len.tolist(), np.cumsum(self.subset_len).tolist(),
            self.ncells.tolist(), np.cumsum(self.ncells).tolist(),
            self.fallback.tolist(), self.iscore.tolist(), self.auc.tolist(),
        )
        return tuple(
            WindowFeature(
                b, tuple(subsets[s_end - s_n : s_end]), self.cell_keys[c_end - c_n : c_end],
                self.cell_means[c_end - c_n : c_end], fallback, iscore, train_auc,
            )
            for b, (s_n, s_end, c_n, c_end, fallback, iscore, train_auc) in enumerate(per_window, start=1)
        )


# Most entries (8 bytes each) a layer's dense lookup table may hold.
TABLE_LIMIT = 2**20


def _drop_one(size: int) -> np.ndarray:
    """Row d lists the positions 0..size-1 without d."""
    j = np.arange(size - 1)
    return j + (j >= np.arange(size)[:, np.newaxis])


def _run_starts(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions where a run of equal values starts in the rows of the
    row-sorted `keys`, and each row's number of runs."""
    new = np.ones(keys.shape, dtype=bool)
    np.not_equal(keys[:, 1:], keys[:, :-1], out=new[:, 1:])
    return np.flatnonzero(new), new.sum(axis=1)


def _group_cells(
    data: DiscreteDataset, windows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Occupied cells of every row of `windows` (column indices, keyed as
    `encode_cells` keys them) over the rows of `data`: ascending keys, row
    counts and positive counts, flat in window order, plus each window's
    number of cells. The only step of a fit that reads rows."""
    radix = _place_values(data.level_counts[windows])
    # widened here, where keys are built: levels may be stored as uint8, and
    # `keys +=` cannot cast into uint8; the products below promote by themselves
    keys = np.take(data.features, windows[:, 0], axis=1).astype(np.int64, copy=False)
    for j in range(1, windows.shape[1]):
        keys += np.take(data.features, windows[:, j], axis=1) * radix[:, j]
    # the response rides in the low bit (keys stay below 2**62), so one sort
    # groups the cells and carries each row's label along
    keys <<= 1
    keys |= data.response[:, np.newaxis]
    keys = np.ascontiguousarray(keys.T)  # one row per window
    keys.sort(axis=1)
    cells = keys >> 1
    starts, lengths = _run_starts(cells)
    counts = np.diff(starts, append=keys.size)
    positives = np.add.reduceat(keys.ravel() & 1, starts)
    return cells.ravel()[starts], counts, positives, lengths


def _drop_cells(
    keys: np.ndarray, counts: np.ndarray, positives: np.ndarray, lengths: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Occupied cells of every subset one position shorter than the given
    ones, as `_group_cells` returns them: by subset, then by the dropped
    position in ascending order.

    The given subsets' cells lie end to end in runs of `lengths`; `sizes`
    holds the level counts of their positions (subsets x positions).
    Dropping a position of place value r and level count s maps a key to
    key % r + key // (r * s) * r, the key `encode_cells` gives the shorter
    subset, and the cells that meet there add their counts, so no row is
    read.
    """
    n_sub, size = sizes.shape
    radix = _place_values(sizes)
    # each subset's cells padded to one width by repeating its last cell; the
    # padding reads its counts from a zero cell appended past the end, so it
    # adds nothing to the run it joins
    width = np.arange(lengths.max())
    last = lengths[:, np.newaxis] - 1
    at = np.minimum(width, last) + (np.cumsum(lengths) - lengths)[:, np.newaxis]
    source = np.repeat(np.where(width > last, len(keys), at), size, axis=0)
    # with q = key // r and key // (r * s) = q' (the next position's q, 0
    # after the last), the shorter key is key - (q - q') * r
    parent = keys[at][:, np.newaxis, :]
    r = radix[:, :, np.newaxis]
    q = parent // r
    q[:, :-1] -= q[:, 1:]
    child = (parent - q * r).reshape(n_sub * size, -1)
    # one sort per shorter subset: the flat positions of its keys, ascending
    order = child.argsort(axis=1) + np.arange(0, child.size, child.shape[1])[:, np.newaxis]
    child = child.ravel()[order]
    starts, child_lengths = _run_starts(child)
    source = source.ravel()[order].ravel()
    return (
        child.ravel()[starts],
        np.add.reduceat(np.append(counts, 0)[source], starts),
        np.add.reduceat(np.append(positives, 0)[source], starts),
        child_lengths,
    )


def _take(arrays: tuple[np.ndarray, ...], lengths: np.ndarray, picks: np.ndarray):
    """The runs `picks` of flat arrays split into runs of `lengths`."""
    first = (np.cumsum(lengths) - lengths)[picks]
    taken = lengths[picks]
    idx = np.repeat(first - (np.cumsum(taken) - taken), taken) + np.arange(taken.sum())
    return tuple(a[idx] for a in arrays), taken


def _fit_chunk(
    data: DiscreteDataset, windows: np.ndarray, ybar: float, denom: float
) -> dict[str, np.ndarray]:
    """Backward dropping on every window of `windows` at once; returns the
    chunk's per-window arrays of `LAYER_ARRAYS` (all but level_counts and
    fallback).

    Stage 0 groups the rows into each window's cells (`_group_cells`); each
    later stage derives the cells of every candidate drop from the cells of
    the subset picked one stage before (`_drop_cells`). Each stage scores
    the candidate drops of every window together with the float ops of
    `influence_score`; `argmax` over candidates in ascending position order
    drops the lowest index on ties, and a stage replaces the trajectory best
    only when it scores strictly higher.
    """
    c, k = windows.shape
    rows = np.arange(c)
    best = np.full(c, -np.inf)
    best_stage = np.zeros(c, dtype=np.int64)
    # each window's best subset so far; stage t keeps its first k - t entries
    best_subset = np.empty_like(windows)
    # per stage: the cells of each window's surviving subset
    cells, n_cells = [], []
    cand = windows[:, np.newaxis, :]
    keys, counts, positives, lengths = _group_cells(data, windows)
    while True:
        n_cand, size = cand.shape[1:]
        terms = counts.astype(np.float64) ** 2 * (positives / counts - ybar) ** 2
        raw = segment_sums(terms, lengths)
        scores = (raw / denom if denom > 0.0 else np.zeros_like(raw)).reshape(c, n_cand)
        pick = scores.argmax(axis=1)
        score = scores[rows, pick]
        subset = cand[rows, pick]
        stage_cells, stage_lengths = _take((keys, counts, positives), lengths, rows * n_cand + pick)
        cells.append(stage_cells)
        n_cells.append(stage_lengths)
        improved = score > best
        best[improved] = score[improved]
        best_stage[improved] = len(cells) - 1
        best_subset[improved, :size] = subset[improved]
        if size == 1:
            break
        cand = subset[:, _drop_one(size)]
        keys, counts, positives, lengths = _drop_cells(*stage_cells, stage_lengths, data.level_counts[subset])

    stacked = tuple(np.concatenate(a) for a in zip(*cells))
    (keys, counts, positives), lengths = _take(stacked, np.concatenate(n_cells), best_stage * c + rows)
    means = positives / counts
    subset_len = k - best_stage
    return {
        "subset_len": subset_len,
        "subset_flat": best_subset[np.arange(k) < subset_len[:, np.newaxis]],
        "ncells": lengths,
        "cell_keys": keys,
        "cell_means": means,
        "iscore": best,
        "auc": grouped_auc(np.repeat(rows, lengths), means, positives, counts, c),
    }


def fit_layer(
    data: DiscreteDataset,
    grid: GridShape,
    spec: WindowSpec,
    *,
    workers: int | None = None,
) -> FittedConvLayer:
    """Fit every window position of `spec` over `grid` on training data.

    Every window has the same size k, so backward dropping runs in lockstep
    over chunks of windows, sized so that no working array holds more than
    `GATHER_LIMIT` elements: the first stage's keys (windows x rows) and the
    later stages' padded cells (windows x candidates x at most min(rows,
    cells per window)). Only the first stage reads rows. Subsets, I-scores,
    cells and training AUCs are bitwise those of `backward_drop`,
    `partition_stats` and `auc` run window by window.
    `workers` is accepted for compatibility and has no effect.
    """
    if data.width != grid.size:
        raise DataError(f"grid {grid.rows}x{grid.cols} needs {grid.size} columns, data has {data.width}")
    windows = window_pixels(grid, spec)
    k = windows.shape[1]
    if k > MAX_SUBSET:
        raise DataError(f"subset size {k} exceeds the limit of {MAX_SUBSET}")
    # candidates in ascending position order are what backward_drop visits
    assert (np.diff(windows, axis=1) > 0).all(), "window pixels must be ascending"
    cells_per_window = _cell_counts(data.level_counts, windows.ravel(), np.full(len(windows), k))

    y = data.response.astype(np.float64)
    ybar = y.mean()
    denom = data.n * float(y.var())
    widest = min(data.n, int(cells_per_window.max()))
    chunk = max(1, GATHER_LIMIT // max(data.n, k * widest))
    chunks = [
        _fit_chunk(data, windows[lo : lo + chunk], ybar, denom) for lo in range(0, len(windows), chunk)
    ]
    return FittedConvLayer(
        input_grid=grid,
        spec=spec,
        level_counts=data.level_counts,
        fallback=np.full(len(windows), float(data.response.mean())),
        **{name: np.concatenate([c[name] for c in chunks]) for name in chunks[0]},
    )


def transform(layer: FittedConvLayer, data: DiscreteDataset) -> RealDataset:
    """Engineered features for `data`, one column per window position, from
    training-time state only: cell means, and fallbacks for unseen cells."""
    return stack_outputs(ConvStack((layer,), ()), data)[0]


def _padded(lengths: np.ndarray, pixels: np.ndarray, sizes: np.ndarray):
    """Subsets laid end to end in `pixels`, of level counts `sizes`, padded: each slot's pixel and
    level count (0 and 1 on padding), and each window's space as a float64, exact far past `TABLE_LIMIT`."""
    held = np.arange(lengths.max()) < lengths[:, np.newaxis]
    at, levels = np.zeros(held.shape, dtype=np.int64), np.ones(held.shape, dtype=np.int64)
    at[held], levels[held] = pixels, sizes
    with np.errstate(over="ignore"):  # inf past 2**1024, which the cap refuses alike
        return at, levels, levels.prod(axis=1, dtype=np.float64)


def _planes(pixels: np.ndarray, radix: np.ndarray, space: np.ndarray):
    """A dense stage's pixels and int32 place values slot-major, and its int32 window offsets."""
    offset = (np.cumsum(space) - space).astype(np.int32)[:, np.newaxis]
    return np.ascontiguousarray(pixels.T), radix.T.astype(np.int32, order="C")[..., np.newaxis], offset


def _coder(layer: FittedConvLayer, keep: np.ndarray, cols: np.ndarray):
    """The stage that codes windows `keep` of `layer` from input columns `cols`
    (ascending), from the layer's flat arrays at those windows only. Subsets
    are padded to kmax slots: `pixels` (kmax x W) is the position in `cols`
    each slot reads and `radix` (kmax x W x 1) its place value, both 0 on
    padding; a row's code for window w is its slot sum of level * radix plus
    offset[w], and `table` there holds its value. A table past `TABLE_LIMIT`
    gives way to each window's padded pixels and place values, cells and fallback.
    """
    (subset,), lengths = _take((layer.subset_flat,), layer.subset_len, keep)
    (keys, means), ncells = _take((layer.cell_keys, layer.cell_means), layer.ncells, keep)
    fallback = layer.fallback[keep]
    at = np.zeros(layer.input_grid.size, dtype=np.int64)
    at[cols] = np.arange(len(cols))
    pixels, levels, space = _padded(lengths, at[subset], layer.level_counts[subset])
    radix = _place_values(levels) * (levels > 1)  # a level count is 1 only on padding
    if space.sum() > TABLE_LIMIT:
        ends = np.cumsum(ncells)[:-1]
        return None, list(zip(pixels, radix, np.split(keys, ends), np.split(means, ends), fallback))
    space = space.astype(np.int64)
    pixels, radix, offset = _planes(pixels, radix, space)
    table = np.repeat(fallback, space)
    table[np.repeat(offset[:, 0], ncells) + keys] = means
    return (pixels, radix, offset, table), ()


def _merge(first, between: np.ndarray, second, sizes: np.ndarray):
    """One dense stage in place of dense stages `first`, re-binarized by
    `between`, and `second`; None past `TABLE_LIMIT`. Window j reads the union
    of `first`'s input positions (of level counts `sizes`) that the windows in
    its live slots read; its table holds, per level combination of them, the
    staged walk's value. Chunks of windows hold at most `GATHER_LIMIT` codes, or one window."""
    pixels0, radix0, offset0, table0 = first
    pixels1, radix1, offset1, table1 = second
    k1, n_windows = pixels1.shape
    # read (s0, s1, j): slot s0 of the window in slot s1 of window j, where both slots are live
    place = radix0[:, pixels1, 0]
    live = (place != 0) & (radix1[:, :, 0] != 0)
    reads = pixels0[:, pixels1] + np.arange(n_windows) * len(sizes)
    pairs, inverse = np.unique(reads[live], return_inverse=True)
    window, column = np.divmod(pairs, len(sizes))
    lengths = np.bincount(window, minlength=n_windows)
    pixels, levels, space = _padded(lengths, column, sizes[column])
    if space.sum() > TABLE_LIMIT:
        return None
    # weight[c, j, s1]: the place value that slot s1's window gives column c of window j
    weight = np.zeros((levels.shape[1], n_windows, k1), dtype=np.int32)
    slot1 = np.broadcast_to(np.arange(k1)[:, np.newaxis], live.shape)[live]
    weight[inverse - (np.cumsum(lengths) - lengths)[window[inverse]], window[inverse], slot1] = place[live]
    above = (table0 > np.repeat(between, np.diff(offset0[:, 0], append=len(table0)))).view(np.uint8)
    pixels, radix, offset = _planes(pixels, _place_values(levels) * (levels > 1), space)
    ends, table, lo = np.cumsum(space), [], 0
    while lo < n_windows:
        hi = max(lo + 1, int(np.searchsorted(ends, offset[lo, 0] + GATHER_LIMIT // k1, side="right")))
        # top down: a block of entries sharing their higher digits splits into one per level of the next
        codes, blocks = offset0[pixels1[:, lo:hi].T, 0], np.ones(hi - lo, dtype=np.int64)
        for c in range(levels.shape[1] - 1, -1, -1):
            count = np.repeat(levels[lo:hi, c], blocks)
            blocks *= levels[lo:hi, c]
            codes = np.repeat(codes, count, axis=0)
            step = np.repeat(weight[c, lo:hi], blocks, axis=0)
            step *= (np.arange(len(codes)) - np.repeat(np.cumsum(count) - count, count)).astype(np.int32)[:, np.newaxis]
            codes += step
        codes = np.einsum("es,es->e", above.take(codes), np.repeat(radix1[:, lo:hi, 0].T, blocks, axis=0))
        table.append(table1.take(codes + np.repeat(offset1[lo:hi, 0], blocks)))
        lo = hi
    return pixels, radix, offset, np.concatenate(table)


def _engineered(lookup, windows, levels: np.ndarray) -> np.ndarray:
    """The serving kernel, unchecked: one `_coder` stage's windows for `levels`, dense or per window."""
    cols = np.empty((levels.shape[0], len(windows) if lookup is None else lookup[0].shape[1]), dtype=np.float64)
    if lookup is not None:
        pixels, radix, offset, table = lookup
        step = max(1, GATHER_LIMIT // pixels.size)
        for lo in range(0, levels.shape[0], step):
            slots = levels[lo : lo + step].T.take(pixels, axis=0)  # slots x windows x rows
            codes = np.add.reduce(slots * radix, axis=0, dtype=np.int32)
            codes += offset
            cols[lo : lo + step] = table.take(codes).T
        return cols
    for j, (at, radix, cell_keys, cell_means, fallback) in enumerate(windows):
        keys = levels[:, at] @ radix
        pos = np.minimum(np.searchsorted(cell_keys, keys), len(cell_keys) - 1)
        cols[:, j] = np.where(cell_keys[pos] == keys, cell_means[pos], fallback)
    return cols


@dataclass(frozen=True, eq=False)
class ConvStack:
    """Fitted layers in order plus the re-binarizers fitted between them: layer
    k reads layer k-1's output grid, re-binarized with one threshold per window."""

    layers: tuple[FittedConvLayer, ...]
    rediscretizers: tuple[Discretizer, ...]

    def __post_init__(self) -> None:
        """Refuse layers that do not chain, whether fitted, loaded or built by hand."""
        if not self.layers:
            raise DataError("window stack with no layers")
        if len(self.rediscretizers) != len(self.layers) - 1:
            raise DataError(f"{len(self.layers)} window layers with {len(self.rediscretizers)} re-binarizers")
        for k, disc in enumerate(self.rediscretizers, start=1):
            if disc.width != self.layers[k - 1].n_windows:
                raise DataError(f"the discretizer before layer {k} has {disc.width} thresholds")
            have, want = self.layers[k].input_grid, self.layers[k - 1].output_grid
            if have != want:
                raise DataError(
                    f"layer {k}'s input grid {have.rows}x{have.cols} is not "
                    f"layer {k - 1}'s output grid {want.rows}x{want.cols}"
                )

    # how `_walk` serves the stack (see `_plan`): every window, or those read; built on first use, never saved
    @cached_property
    def _full_plan(self):
        return _plan(self, every_window=True)

    @cached_property
    def _read_plan(self):
        return _plan(self, every_window=False)


def stack_layers(
    data: DiscreteDataset,
    grid: GridShape,
    specs: list[WindowSpec],
    *,
    rediscretize: str = "median",
) -> tuple[ConvStack, list[RealDataset]]:
    """Fit a chain of layers, re-binarizing engineered features between them.

    Also returns every layer's engineered features for `data`, as
    `stack_outputs` would compute them.
    """
    layers: list[FittedConvLayer] = []
    rediscretizers: list[Discretizer] = []
    outputs: list[RealDataset] = []
    current = data
    current_grid = grid
    for i, spec in enumerate(specs):
        layer = fit_layer(current, current_grid, spec)
        layers.append(layer)
        outputs.append(transform(layer, current))
        if i + 1 < len(specs):
            disc = fit_discretizer(outputs[-1], rediscretize)
            rediscretizers.append(disc)
            current = apply_discretizer(disc, outputs[-1])
            current_grid = layer.output_grid
    return ConvStack(layers=tuple(layers), rediscretizers=tuple(rediscretizers)), outputs


def _plan(stack: ConvStack, every_window: bool):
    """How `_walk` serves `stack`: its stages, a `_coder` per layer built for the
    windows it codes (so `TABLE_LIMIT` is met per plan), and the thresholds that
    re-binarize each stage's windows for the next. Unless `every_window`, a layer
    before the last codes only the windows that the next layer's coded windows
    read in their subsets (no other window can move the last layer's output),
    and consecutive dense stages fold left to right into one while it fits."""
    layers = stack.layers
    keeps = [np.arange(layer.n_windows) for layer in layers]
    for k in [] if every_window else range(len(layers) - 1, 0, -1):
        (read,), _ = _take((layers[k].subset_flat,), layers[k].subset_len, keeps[k])
        # the sorted set, by counts: `np.unique` would import `numpy.ma` on a fresh process's first call
        keeps[k - 1] = np.flatnonzero(np.bincount(read, minlength=layers[k - 1].n_windows))
    cols = [np.arange(layers[0].input_grid.size), *keeps]  # layer k reads layer k-1's kept windows
    stages = [_coder(layer, keep, c) for layer, keep, c in zip(layers, keeps, cols)]
    served, between, start = stages[:1], [], 0  # start: the layer whose input the last stage reads
    for k, (disc, keep) in enumerate(zip(stack.rediscretizers, keeps), start=1):
        (first, _), (second, _), thresholds = served[-1], stages[k], disc.thresholds[keep]
        dense = not every_window and first is not None and second is not None
        merged = _merge(first, thresholds, second, layers[start].level_counts[cols[start]]) if dense else None
        if merged is None:
            served.append(stages[k])
            between.append(thresholds)
            start = k
        else:
            served[-1] = merged, ()
    return served, between


def _walk(plan, levels: np.ndarray) -> list[np.ndarray]:
    """Each stage's features at the windows `plan` codes (a stack's `_read_plan`:
    those the next stage reads; its `_full_plan`: all, a stage per layer), for
    the first stage's levels, unchecked: later levels are binary, and no layer has under 2."""
    coders, thresholds = plan
    outputs = [_engineered(*coders[0], levels)]
    for coder, between in zip(coders[1:], thresholds):
        outputs.append(_engineered(*coder, (outputs[-1] > between).view(np.uint8)))
    return outputs


def stack_outputs(stack: ConvStack, data: DiscreteDataset) -> list[RealDataset]:
    """Engineered features of every layer for `data`, in layer order."""
    if data.width != stack.layers[0].input_grid.size:
        raise DataError(f"layer expects {stack.layers[0].input_grid.size} columns, data has {data.width}")
    # also what keeps a dense code inside its own window's slice of the table
    if (data.level_counts > stack.layers[0].level_counts).any():
        raise DataError("data has more levels per column than the layer was fit on")
    return [RealDataset(out, data.response) for out in _walk(stack._full_plan, data.features)]


FEATURE_MODES = ("last", "concat")


def _output_width(n_windows: list[int], mode: str) -> int:
    """Columns of a stack's output, from each layer's window count: the last layer's, or their sum under concat."""
    return sum(n_windows) if mode == "concat" else n_windows[-1]


def _join_outputs(outputs: list[np.ndarray], mode: str) -> np.ndarray:
    if mode == "last":
        return outputs[-1]
    if mode == "concat":
        return np.concatenate(outputs, axis=1)
    raise DataError(f"unknown feature mode {mode!r}")


def transform_stack(
    stack: ConvStack, data: DiscreteDataset, *, mode: str = "last"
) -> RealDataset:
    """Final feature matrix of the stack.

    mode "last" keeps the deepest layer's features; "concat" joins every
    layer's features left to right (shallow first).
    """
    return RealDataset(_join_outputs([o.features for o in stack_outputs(stack, data)], mode), data.response)

"""Binary classification metrics: sensitivity, specificity, ROC, AUC.

The classification rule everywhere is `predicted positive iff score > t`,
so ties at the threshold fall on the negative side.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import _is_binary, _write_csv
from .errors import ConfigError, UndefinedMetricError


def _checked(y_true, scores, threshold: float = 0.0):
    """Labels and scores as arrays; ±inf thresholds stay allowed as `roc_curve`'s sentinel cuts."""
    if np.isnan(threshold):
        raise ConfigError(f"threshold must be a number, got {threshold}")
    y = np.asarray(y_true).ravel()
    s = np.asarray(scores, dtype=np.float64).ravel()
    if y.shape != s.shape:
        raise UndefinedMetricError(f"labels {y.shape} and scores {s.shape} differ in length")
    if y.size == 0 or not _is_binary(y):
        raise UndefinedMetricError("labels must be a non-empty 0/1 vector")
    if not np.isfinite(s).all():
        raise UndefinedMetricError("scores must be finite")
    return y.astype(np.int64, copy=False), s


def sensitivity(y_true, scores, threshold: float) -> float:
    """True-positive rate at `threshold`. Errors when there are no positives."""
    y, s = _checked(y_true, scores, threshold)
    positives = int((y == 1).sum())
    if positives == 0:
        raise UndefinedMetricError("sensitivity is undefined without positive labels")
    return float(((s > threshold) & (y == 1)).sum() / positives)


def specificity(y_true, scores, threshold: float) -> float:
    """True-negative rate at `threshold`. Errors when there are no negatives."""
    y, s = _checked(y_true, scores, threshold)
    negatives = int((y == 0).sum())
    if negatives == 0:
        raise UndefinedMetricError("specificity is undefined without negative labels")
    return float(((s <= threshold) & (y == 0)).sum() / negatives)


@dataclass(frozen=True)
class RocCurve:
    """Step ROC: one (threshold, sensitivity, specificity) row per cut.

    Thresholds are strictly decreasing: a sentinel above the top score, every
    distinct score, and a sentinel below the bottom score.
    """

    thresholds: np.ndarray
    sens: np.ndarray
    spec: np.ndarray
    auc: float


def roc_curve(y_true, scores) -> RocCurve:
    """Exact ROC over all distinct score cuts; needs both classes present."""
    y, s = _checked(y_true, scores)
    pos = int((y == 1).sum())
    neg = int((y == 0).sum())
    if pos == 0 or neg == 0:
        raise UndefinedMetricError("ROC needs at least one positive and one negative")

    order = np.argsort(-s, kind="stable")
    s_desc = s[order]
    y_desc = y[order]
    # last position of each run of equal scores
    run_end = np.flatnonzero(np.diff(s_desc) != 0)
    distinct = s_desc[np.concatenate([run_end, [len(s_desc) - 1]])]
    tp_cum = np.cumsum(y_desc)
    fp_cum = np.cumsum(1 - y_desc)
    # rule is score > t, so counts at threshold distinct[k] exclude its own run
    above_end = np.concatenate([[0], tp_cum[run_end], [tp_cum[-1]]])
    above_fp = np.concatenate([[0], fp_cum[run_end], [fp_cum[-1]]])

    thresholds = np.concatenate([[np.inf], distinct, [-np.inf]])
    tp = np.concatenate([[0], above_end])
    fp = np.concatenate([[0], above_fp])
    sens = tp / pos
    spec = 1.0 - fp / neg

    x = 1.0 - spec
    area = float(np.sum(np.diff(x) * (sens[:-1] + sens[1:]) / 2.0))
    return RocCurve(thresholds=thresholds, sens=sens, spec=spec, auc=area)


def auc(y_true, scores) -> float:
    """Area under the ROC curve (trapezoidal over the exact step curve)."""
    return roc_curve(y_true, scores).auc


def segment_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """`np.sum` of each run of `lengths[i]` consecutive `values`, bitwise as
    if every run were summed on its own.

    np.sum blocks its pairwise sum by length, so zero padding would change
    the last bits; runs of one length are summed as rows of one C-ordered
    block instead.
    """
    out = np.empty(len(lengths), dtype=np.float64)
    first = np.cumsum(lengths) - lengths
    for length in np.unique(lengths):
        rows = np.flatnonzero(lengths == length)
        out[rows] = values[first[rows, np.newaxis] + np.arange(length)].sum(axis=1)
    return out


def grouped_auc(
    groups: np.ndarray, scores: np.ndarray, positives: np.ndarray, counts: np.ndarray, n_groups: int
) -> np.ndarray:
    """`auc` of every group of score bins, from per-bin class counts alone.

    Bin i stands for `counts[i]` rows of group `groups[i]` that all score
    `scores[i]`, `positives[i]` of them labelled 1. Each group's value is
    bitwise what `auc` returns on its rows written out, or NaN where the
    group lacks a class. Bins of one group may share a score (1/2 and 2/4);
    every group needs at least one bin.
    """
    order = np.lexsort((-scores, groups))
    g = groups[order]
    s = scores[order]
    tp_bin = positives[order]
    fp_bin = counts[order] - tp_bin
    # runs of one distinct score per group, in descending score order
    new = np.ones(len(g), dtype=bool)
    new[1:] = (g[1:] != g[:-1]) | (s[1:] != s[:-1])
    starts = np.flatnonzero(new)
    run_group = g[starts]
    runs = np.bincount(run_group, minlength=n_groups)
    tp = np.cumsum(np.add.reduceat(tp_bin, starts))
    fp = np.cumsum(np.add.reduceat(fp_bin, starts))
    last = np.cumsum(runs) - 1
    tp -= np.repeat(np.concatenate([[0], tp[last[:-1]]]), runs)
    fp -= np.repeat(np.concatenate([[0], fp[last[:-1]]]), runs)
    pos, neg = tp[last], fp[last]

    # roc_curve's cut points per group: [0, 0, cumulative count per run]
    width = runs + 2
    slots = np.arange(len(starts)) + 2 * (run_group + 1)
    tp_cut = np.zeros(width.sum(), dtype=np.int64)
    fp_cut = np.zeros(width.sum(), dtype=np.int64)
    tp_cut[slots] = tp
    fp_cut[slots] = fp
    valid = (pos > 0) & (neg > 0)
    # a one-class group divides by 1 here and is set to NaN below
    sens = tp_cut / np.repeat(np.where(valid, pos, 1), width)
    spec = 1.0 - fp_cut / np.repeat(np.where(valid, neg, 1), width)
    x = 1.0 - spec
    terms = np.diff(x) * (sens[:-1] + sens[1:]) / 2.0
    # drop the pairs that straddle two groups
    keep = np.ones(len(terms), dtype=bool)
    keep[(np.cumsum(width) - 1)[:-1]] = False
    area = segment_sums(terms[keep], runs + 1)
    out = np.full(n_groups, np.nan)
    out[valid] = area[valid]
    return out


def write_roc_csv(path: str | Path, curve: RocCurve) -> None:
    rows = zip(curve.thresholds, curve.sens, curve.spec)
    _write_csv(path, ["threshold", "sensitivity", "specificity"], rows)

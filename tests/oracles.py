"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way on purpose: plain loops
and dictionaries, no shared code with interconv. If a fast path and its
oracle agree, both would have to be wrong in the same way to hide a bug.
The exceptions are `reference_window_feature`, which composes the package's
own per-window reference functions to pin the lockstep layer fit, and
`preset_architecture`, which reads the package's presets and geometry.
`with_manifest` rewrites a saved bundle's manifest, parsing the file
format by hand.
"""

import itertools
import struct
import zlib

import numpy as np

from interconv import (
    GridShape,
    MlpArchitecture,
    UndefinedMetricError,
    auc,
    backward_drop,
    partition_stats,
    preset_config,
)
from interconv.pipeline import geometry_chain


def pairwise_auc(y_true, scores):
    """AUC as raw concordance: P(pos score > neg score), ties count half."""
    y = np.asarray(y_true)
    s = np.asarray(scores, dtype=float)
    pos = s[y == 1]
    neg = s[y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def naive_influence(features, response, subset):
    """Raw and standardized influence score via dictionary grouping.

    Cells are the exact joint level tuples; no integer encoding involved.
    """
    x = np.asarray(features)
    y = np.asarray(response, dtype=float)
    n = len(y)
    groups = {}
    for i in range(n):
        key = tuple(int(x[i, j]) for j in subset)
        groups.setdefault(key, []).append(y[i])
    ybar = y.mean()
    raw = 0.0
    for values in groups.values():
        nj = len(values)
        raw += nj * nj * (np.mean(values) - ybar) ** 2
    var = np.mean((y - ybar) ** 2)
    standardized = raw / (n * var) if var > 0 else 0.0
    return raw, standardized


def brute_force_best_subset(features, response, initial):
    """Best non-empty subset of `initial` by standardized influence score.

    Ties break toward the lexicographically smallest index tuple. Only
    usable for small windows; cost is 2^len(initial).
    """
    best = None
    for r in range(1, len(initial) + 1):
        for combo in itertools.combinations(sorted(initial), r):
            _, score = naive_influence(features, response, combo)
            if best is None or score > best[1] or (score == best[1] and combo < best[0]):
                best = (combo, score)
    return best


def decode_cell(key, subset, level_counts):
    """Invert a mixed-radix cell key to one level per subset column, the
    first column varying fastest. Raises ValueError for a key past the
    last cell."""
    levels = []
    rem = int(key)
    for j in subset:
        size = int(level_counts[j])
        levels.append(rem % size)
        rem //= size
    if rem != 0:
        raise ValueError(f"cell key {key} out of range for subset {subset}")
    return tuple(levels)


def finite_difference_grads(loss_of_weights, weights, h=1e-6):
    """Central-difference gradient of a scalar loss over a weight tuple."""
    grads = []
    for wi, w in enumerate(weights):
        g = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            bumped = [v.copy() for v in weights]
            bumped[wi][idx] = w[idx] + h
            up = loss_of_weights(tuple(bumped))
            bumped[wi][idx] = w[idx] - h
            down = loss_of_weights(tuple(bumped))
            g[idx] = (up - down) / (2 * h)
        grads.append(g)
    return tuple(grads)


def average_ranks(values):
    """Ranks 1..n with ties sharing their average rank."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v))
    sv = v[order]
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def spearman(a, b):
    ra = average_ranks(a)
    rb = average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    return float(np.sum(ra * rb) / np.sqrt(np.sum(ra**2) * np.sum(rb**2)))


def window_pixels(rows, cols, window, stride=1, start=1):
    """Flattened pixel indices of every square window on a rows x cols grid.

    Grids are row-major and `start` is the 1-based first row/col of the
    first window. Positions come out row by row of their top-left corner.
    """
    positions = []
    top = start - 1
    while top + window <= rows:
        left = start - 1
        while left + window <= cols:
            pixels = []
            for r in range(top, top + window):
                for c in range(left, left + window):
                    pixels.append(r * cols + c)
            positions.append(tuple(pixels))
            left += stride
        top += stride
    return positions


def whole_modules(modules, pixels):
    """Indices of the parity modules whose features all lie in `pixels`."""
    inside = set(pixels)
    return [m for m, (features, _) in enumerate(modules) if set(features) <= inside]


def visible_modules(modules, rows, cols, window, stride=1, start=1):
    """Indices of the modules that fit whole in at least one window."""
    seen = set()
    for pixels in window_pixels(rows, cols, window, stride, start):
        seen.update(whole_modules(modules, pixels))
    return sorted(seen)


def parity_bayes_auc(modules, visible):
    """Exact AUC of the Bayes score P(Y=1 | x) of a parity mixture.

    `modules` is a sequence of (feature indices, mixture weight); every
    feature is a fair coin and Y is the parity of the chosen module. Only
    the modules named in `visible` can be read: a hidden module's parity is
    a fair coin given everything else, so it contributes 1/2. Every joint
    setting of the visible features is enumerated, and the AUC is the
    probability that a positive outscores a negative, ties counting half.
    """
    features = sorted({j for m in visible for j in modules[m][0]})
    weight = 0.5 ** len(features)
    pos = {}  # posterior -> P(posterior, Y=1)
    neg = {}  # posterior -> P(posterior, Y=0)
    for bits in itertools.product((0, 1), repeat=len(features)):
        x = dict(zip(features, bits))
        p1 = 0.0
        for m, (module, mix) in enumerate(modules):
            p1 += mix * (sum(x[j] for j in module) % 2 if m in visible else 0.5)
        key = round(p1, 12)
        pos[key] = pos.get(key, 0.0) + weight * p1
        neg[key] = neg.get(key, 0.0) + weight * (1.0 - p1)
    total = 0.0
    for sp, wp in pos.items():
        for sn, wn in neg.items():
            if sp > sn:
                total += wp * wn
            elif sp == sn:
                total += 0.5 * wp * wn
    return total / (sum(pos.values()) * sum(neg.values()))


def reference_window_feature(data, window):
    """One window fitted the per-window way: backward dropping, then the
    winning subset's cells, then the training AUC of its feature column
    (NaN for a one-class response). Returns (subset, iscore, cell keys,
    cell means, fallback mean, train AUC)."""
    trace = backward_drop(data, window)
    stats = partition_stats(data, trace.best_subset)
    means = stats.sums / stats.counts
    try:
        train_auc = auc(data.response, means[stats.row_cells])
    except UndefinedMetricError:
        train_auc = float("nan")
    fallback = float(data.response.mean())
    return trace.best_subset, trace.best_score, stats.keys, means, fallback, train_auc


def classifier_width(chain, mode):
    """Classifier input width for a geometry chain (input grid first)."""
    outputs = chain[1:]
    if mode == "concat":
        return sum(g.size for g in outputs)
    return outputs[-1].size


def preset_architecture(name, grid=GridShape(128, 128)):
    """The classifier architecture a preset produces on `grid`."""
    config = preset_config(name, grid)
    chain = geometry_chain(grid, config.layers)
    return MlpArchitecture(
        input_width=classifier_width(chain, config.features_mode),
        hidden=config.hidden,
        output_units=config.output_units,
    )


def with_manifest(path, **values):
    """Set manifest keys of the bundle file at `path`, keeping every CRC-32
    valid. The format is walked by hand: 8 magic bytes, version and section
    count, then per section its name, kind, length, payload and checksum."""
    data = path.read_bytes()
    parts, pos = [data[:16]], 16
    while pos < len(data):
        (name_len,) = struct.unpack_from("<H", data, pos)
        name = data[pos + 2 : pos + 2 + name_len]
        kind, size = struct.unpack_from("<BQ", data, pos + 2 + name_len)
        start = pos + 11 + name_len
        payload = data[start : start + size]
        if name == b"manifest":
            manifest = dict(line.split("=", 1) for line in payload.decode("utf-8").splitlines())
            manifest.update(values)
            payload = "".join(f"{k}={v}\n" for k, v in manifest.items()).encode("utf-8")
        parts.append(struct.pack("<H", name_len) + name + struct.pack("<BQ", kind, len(payload)))
        parts.append(payload + struct.pack("<I", zlib.crc32(payload)))
        pos = start + size + 4
    path.write_bytes(b"".join(parts))

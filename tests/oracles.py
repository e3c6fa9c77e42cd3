"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way on purpose: plain loops
and dictionaries, no shared code with interconv. If a fast path and its
oracle agree, both would have to be wrong in the same way to hide a bug.
The exceptions are `reference_window_feature`, which composes the package's
own per-window reference functions to pin the lockstep layer fit;
`reference_pipeline`, which builds a whole fit and prediction from it, from
`np.median` and `np.quantile` thresholds, from dictionary lookups and from
the checked, copying training step (`loss_and_gradients` then
`rmsprop_step`, built on the package's own forward pass, gradients and
update); and `preset_architecture`, which reads the package's presets and
geometry.
`with_manifest` and `with_arrays` rewrite a saved bundle's manifest and
array sections, parsing the file format by hand; `trace_report` prints a
backward dropping trajectory. `stacked_intensities` and `stacked_augment`
are the list-then-`np.vstack` forms that `load_images` and `augment_images`
once had, reading PGM images with the package's `read_pgm`. `split_tokens`
cuts PGM bytes into header and raster tokens line by line, and
`plain_dataset_csv` parses a dataset CSV row by row into parallel feature and
response lists, as `read_dataset_csv` once did. `staged_val_losses` scores a
fit's validation rows through the checked stack walk, `apply_discretizer` then
`transform_stack`, as `fit_pipeline` once did, and `record_reports` writes the
rows of `windows.csv` and the report's strongest windows from each layer's
per-window records.
"""

import csv
import itertools
import math
import struct
import zlib
from types import SimpleNamespace

import numpy as np

from interconv import (
    DataError,
    DiscreteDataset,
    GridShape,
    MlpArchitecture,
    RealDataset,
    UndefinedMetricError,
    apply_discretizer,
    auc,
    backward_drop,
    bce_loss,
    fit_discretizer,
    forward,
    init_model,
    partition_stats,
    preset_config,
    read_pgm,
    stack_layers,
    train,
    transform_stack,
)
from interconv.nn import MlpModel, _as_matrix, _forward_parts, _gradients, _rmsprop_update, _targets
from interconv.pipeline import fit_shape, geometry_chain


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


def reference_thresholds(x, spec):
    """Per-column cut points by the rule `spec` names: 'median',
    'global:<cut>' or 'quantile:<q>'."""
    method, _, arg = spec.partition(":")
    if method == "median":
        return np.median(x, axis=0)
    if method == "global":
        return np.full(x.shape[1], float(arg))
    return np.quantile(x, float(arg), axis=0)


def reference_lookup(levels, windows, level_counts):
    """Each window's feature for every row of int `levels`: its cell mean
    looked up in a dictionary keyed by level tuples, else its fallback."""
    out = np.empty((len(levels), len(windows)))
    rows = levels.tolist()
    for w, (subset, _, keys, means, fallback, _) in enumerate(windows):
        table = {decode_cell(k, subset, level_counts): m for k, m in zip(keys.tolist(), means.tolist())}
        for i, row in enumerate(rows):
            out[i, w] = table.get(tuple(row[j] for j in subset), fallback)
    return out


def reference_sigmoid(z):
    """The classifier's sigmoid in its masked two-branch form."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_softmax(z):
    """The classifier's softmax by keepdims row reductions."""
    shifted = z - z.max(axis=1, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=1, keepdims=True)


def loss_and_gradients(model, features, y_true):
    """Mean BCE over the batch and its exact gradient for every weight
    matrix: `train`'s step, checked, from the package's own forward pass
    and gradients."""
    x, _ = _as_matrix(features, model.arch.input_width)
    y = np.asarray(y_true, dtype=np.float64).ravel()
    if y.shape[0] != x.shape[0]:
        raise DataError("feature rows and labels differ in length")
    hidden, probs = _forward_parts(model, x)
    loss = bce_loss(y, probs[:, -1])
    return loss, _gradients(model, x, _targets(y, model.arch), hidden, probs)


def rmsprop_step(model, grads):
    """`train`'s RMSprop update by the package's own `_rmsprop_update`, on
    copies: returns the updated model and leaves `model` as it was."""
    weights = tuple(w.copy() for w in model.weights)
    state = tuple(v.copy() for v in model.rms_state)
    _rmsprop_update(weights, state, grads, model.hyper)
    return MlpModel(arch=model.arch, weights=weights, rms_state=state, hyper=model.hyper)


def reference_train(arch, x, y, hyper):
    """`train` replayed with the checked, copying step: (model, losses)."""
    rng = np.random.default_rng(hyper.seed)
    model = init_model(arch, hyper, rng=rng)
    losses = []
    for _ in range(hyper.epochs):
        order = rng.permutation(len(y))
        for lo in range(0, len(y), hyper.batch_size):
            batch = order[lo : lo + hyper.batch_size]
            _, grads = loss_and_gradients(model, x[batch], y[batch])
            model = rmsprop_step(model, grads)
        losses.append(bce_loss(y, forward(model, x)))
    return model, tuple(losses)


def reference_pipeline(config, data):
    """`fit_pipeline(config, data)` for a config with window layers, window
    by window. Returns the input thresholds; per layer its arrays under the
    names of `LAYER_ARRAYS`; the re-binarizer thresholds; the training
    features; the trained model and its losses; and `predict(x)`, the
    class-1 probability of raw rows `x`."""
    rows, cols = (config.grid.rows, config.grid.cols) if config.grid else (math.isqrt(data.width),) * 2
    thresholds = [reference_thresholds(data.features, config.discretizer)]
    levels = (data.features > thresholds[0]).astype(np.int64)
    fitted, outputs, widths = [], [], []
    for spec in config.layers:
        widths.append(levels.shape[1])
        counts = np.full(widths[-1], 2, dtype=np.int64)
        current = DiscreteDataset(levels, data.response, counts)
        pixels = window_pixels(rows, cols, spec.window, spec.stride, spec.start)
        fitted.append([reference_window_feature(current, w) for w in pixels])
        outputs.append(reference_lookup(levels, fitted[-1], counts))
        rows, cols = (len(range(spec.start - 1, side - spec.window + 1, spec.stride)) for side in (rows, cols))
        if len(outputs) < len(config.layers):
            thresholds.append(reference_thresholds(outputs[-1], config.rediscretizer))
            levels = (outputs[-1] > thresholds[-1]).astype(np.int64)

    def features_of(outputs):
        return outputs[-1] if config.features_mode == "last" else np.hstack(outputs)

    def predict(x):
        outs = []
        for windows, cuts in zip(fitted, thresholds, strict=True):
            levels = (np.asarray(x) if not outs else outs[-1]) > cuts
            outs.append(reference_lookup(levels.astype(np.int64), windows, np.full(levels.shape[1], 2)))
        return forward(model, features_of(outs))

    features = features_of(outputs)
    arch = MlpArchitecture(features.shape[1], config.hidden, config.output_units)
    model, losses = reference_train(arch, features, data.response.astype(np.float64), config.hyper)
    layers = []
    for windows, width in zip(fitted, widths):
        subsets, scores, keys, means, fallbacks, aucs = zip(*windows)
        layers.append({
            "level_counts": np.full(width, 2, dtype=np.int64),
            "subset_len": np.array([len(s) for s in subsets], dtype=np.int64),
            "subset_flat": np.array([j for s in subsets for j in s], dtype=np.int64),
            "ncells": np.array([len(k) for k in keys], dtype=np.int64),
            "cell_keys": np.concatenate(keys),
            "cell_means": np.concatenate(means),
            "fallback": np.array(fallbacks),
            "iscore": np.array(scores),
            "auc": np.array(aucs),
        })
    return SimpleNamespace(
        thresholds=thresholds[0], layers=layers, rediscretizers=thresholds[1:], features=features,
        model=model, losses=losses, predict=predict,
    )


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


def _rewrite_sections(path, edit):
    """Pass every section of the bundle file at `path` through
    `edit(name, kind, payload) -> (kind, payload)`, keeping every CRC-32
    valid, and return the section names. The format is walked by hand: 8
    magic bytes, version and section count, then per section its name,
    kind, length, payload and checksum."""
    data = path.read_bytes()
    parts, pos, names = [data[:16]], 16, []
    while pos < len(data):
        (name_len,) = struct.unpack_from("<H", data, pos)
        name = data[pos + 2 : pos + 2 + name_len]
        kind, size = struct.unpack_from("<BQ", data, pos + 2 + name_len)
        start = pos + 11 + name_len
        kind, payload = edit(name.decode("utf-8"), kind, data[start : start + size])
        parts.append(struct.pack("<H", name_len) + name + struct.pack("<BQ", kind, len(payload)))
        parts.append(payload + struct.pack("<I", zlib.crc32(payload)))
        names.append(name.decode("utf-8"))
        pos = start + size + 4
    path.write_bytes(b"".join(parts))
    return names


def with_manifest(path, **values):
    """Set manifest keys of the bundle file at `path`, keeping every CRC-32
    valid; a value of None drops its key."""

    def edit(name, kind, payload):
        if name != "manifest":
            return kind, payload
        manifest = dict(line.split("=", 1) for line in payload.decode("utf-8").splitlines())
        manifest.update(values)
        return kind, "".join(f"{k}={v}\n" for k, v in manifest.items() if v is not None).encode("utf-8")

    _rewrite_sections(path, edit)


def with_arrays(path, **sections):
    """Replace the named array sections of the bundle file at `path` (for
    example `layer0/cell_keys`), keeping every CRC-32 valid. Each array is
    written as the format stores one: kind 1 (float64) or 2 (int64), then
    ndim, the dims and the little-endian values."""

    def edit(name, kind, payload):
        if name not in sections:
            return kind, payload
        arr = np.asarray(sections[name])
        kind, dtype = (1, "<f8") if arr.dtype.kind == "f" else (2, "<i8")
        return kind, struct.pack(f"<B{arr.ndim}Q", arr.ndim, *arr.shape) + arr.astype(dtype).tobytes()

    missing = set(sections) - set(_rewrite_sections(path, edit))
    assert not missing, f"bundle has no sections {sorted(missing)}"


def trace_report(trace):
    """A `backward_drop` trajectory as a plain-text table with 1-based
    variable names."""
    lines = [f"{'step':>4}  {'dropped':>8}  {'score':>12}  surviving"]
    for i, step in enumerate(trace.steps):
        dropped = "-" if step.dropped is None else f"X{step.dropped + 1}"
        names = " ".join(f"X{j + 1}" for j in step.subset)
        lines.append(f"{i:>4}  {dropped:>8}  {step.score:>12.4f}  {names}")
    best = " ".join(f"X{j + 1}" for j in trace.best_subset)
    lines.append(f"best: {best} (score {trace.best_score:.4f})")
    return "\n".join(lines)


def stacked_intensities(manifest):
    """The intensity matrix of a `path,label` manifest of .pgm and .csv images,
    built as a list of rows scaled by 1/255, then stacked."""
    rows = []
    for line in manifest.read_text(encoding="utf-8").splitlines()[1:]:
        path = manifest.parent / line.split(",")[0]
        if path.suffix == ".pgm":
            mat = read_pgm(path).astype(np.float64)
        else:
            mat = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
        rows.append(mat.reshape(-1) / 255.0)
    return np.vstack(rows)


def stacked_augment(images, target_per_class, noise_sd, seed):
    """(intensities, labels, sources) of `augment_images`, with each class's
    noisy copies drawn as one array and every part stacked at the end."""
    rng = np.random.default_rng(seed)
    rows, labels, sources = [images.intensities], [images.labels], list(images.sources)
    for cls in sorted(set(images.labels.tolist())):
        idx = np.flatnonzero(images.labels == cls)
        extra = target_per_class - len(idx)
        if extra == 0:
            continue
        picks = rng.integers(0, len(idx), size=extra)
        base = images.intensities[idx[picks]]
        rows.append(np.clip(base + rng.normal(0.0, noise_sd, size=base.shape), 0.0, 1.0))
        labels.append(np.full(extra, cls, dtype=np.int64))
        sources += [f"{images.sources[idx[p]]}#aug{k}" for k, p in enumerate(picks.tolist())]
    return np.vstack(rows), np.concatenate(labels), tuple(sources)


def split_tokens(data):
    """The tokens of PGM bytes: each line cut at its first '#', then split at ASCII whitespace."""
    return [token for line in data.split(b"\n") for token in line.split(b"#")[0].split()]


def plain_dataset_csv(path):
    """(features, response) of a dataset CSV, or None where it must be refused:
    not UTF-8, no header or no rows, a Y header alone, a row whose length is
    not the header's, a value that is not a number, a feature that is not
    finite, or a Y other than 0 or 1. Without a Y header the response is 0."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            records = [rec for rec in csv.reader(fh) if rec]
    except UnicodeDecodeError:
        return None
    if len(records) < 2:
        return None
    header = records[0]
    has_y = header[-1].strip().upper() == "Y"
    width = len(header) - 1 if has_y else len(header)
    features, response = [], []
    for rec in records[1:]:
        if len(rec) != len(header):
            return None
        try:
            values = [float(v) for v in rec]
        except ValueError:
            return None
        y = values[-1] if has_y else 0.0
        if y not in (0.0, 1.0) or not all(math.isfinite(v) for v in values[:width]):
            return None
        features.append(values[:width])
        response.append(int(y))
    if width < 1:
        return None
    return np.array(features, dtype=np.float64), np.array(response, dtype=np.int64)


def staged_val_losses(config, data, val_data):
    """The validation losses of `fit_pipeline(config, data, val_data)`, with the
    validation rows binarized by `apply_discretizer` and walked through every
    window of every layer by `transform_stack`."""
    grid, arch = fit_shape(config, data.width)
    if not config.layers:
        return train(arch, data, config.hyper, val_data).val_losses
    disc = fit_discretizer(data, config.discretizer)
    stack, outputs = stack_layers(apply_discretizer(disc, data), grid, list(config.layers),
                                  rediscretize=config.rediscretizer)
    joined = outputs[-1].features if config.features_mode == "last" else np.hstack([o.features for o in outputs])
    val = transform_stack(stack, apply_discretizer(disc, val_data), mode=config.features_mode)
    return train(arch, RealDataset(joined, data.response), config.hyper, val).val_losses


def record_reports(stack):
    """(rows of `windows.csv` as text, the report's strongest-window lines) from
    each layer's `WindowFeature` records: the report takes a layer's ten highest
    I-scores by a stable sort, so tied windows keep their window order."""
    rows, lines = [], []
    for li, layer in enumerate(stack.layers, start=1):
        cols = layer.output_grid.cols
        for f in layer.features:
            names = " ".join(f"X{j + 1}" for j in f.selected_subset)
            b = f.window_index
            fields = [li, b, (b - 1) // cols + 1, (b - 1) % cols + 1, names, len(f.cell_keys), f.iscore, f.train_auc]
            rows.append([str(v) for v in fields])
        for f in sorted(layer.features, key=lambda f: -f.iscore)[:10]:
            names = " ".join(f"X{j + 1}" for j in f.selected_subset)
            lines.append(
                f"  layer {li} window {f.window_index}: {names}  iscore {f.iscore:.4f}  train_auc {f.train_auc:.4f}"
            )
    return rows, lines

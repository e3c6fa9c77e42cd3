"""Traced walk of the fit and predict stages, one span per public call.

`traced_fit` and `traced_predict` take the same steps as `fit_pipeline` and
`predict_bundle`, but call each stage's public function themselves so every
stage gets its own span. The benchmark asserts that their outputs are
bitwise equal to the untraced calls; if the package changes its own stage
order, that assertion is what notices.
"""

from __future__ import annotations

import os

import numpy as np

from interconv import (
    ConvStack,
    MlpArchitecture,
    MlpModel,
    ModelBundle,
    RealDataset,
    UndefinedMetricError,
    apply_discretizer,
    auc,
    backward_drop,
    encode_cells,
    enumerate_windows,
    fit_discretizer,
    fit_layer,
    forward,
    partition_stats,
    stack_outputs,
    train,
    transform,
    transform_stack,
)
from interconv.pipeline import fit_discretizer_spec, resolve_grid


def traced_fit(tracer, config, data):
    """Fit like `fit_pipeline`; returns the bundle, the training result, and
    each layer's (discrete input, grid) for the replays."""
    with tracer.span("pipeline.fit"):
        # fit_pipeline resolves workers=0 to every core the same way
        workers = config.workers if config.workers > 0 else (os.cpu_count() or 1)
        grid = resolve_grid(config, data.width)
        with tracer.span("discretize.fit"):
            disc = fit_discretizer_spec(data, config.discretizer)
        with tracer.span("discretize.apply"):
            ddata = apply_discretizer(disc, data)
        layers, rediscretizers, inputs = [], [], []
        current, current_grid = ddata, grid
        for i, spec in enumerate(config.layers, start=1):
            inputs.append((current, current_grid))
            with tracer.span("convlayer.fit_layer", layer=i):
                layer = fit_layer(current, current_grid, spec, workers=workers)
            layers.append(layer)
            if i < len(config.layers):
                with tracer.span("convlayer.transform", layer=i):
                    engineered = transform(layer, current)
                with tracer.span("discretize.refit", layer=i):
                    redisc = fit_discretizer(engineered, config.rediscretizer)
                    current = apply_discretizer(redisc, engineered)
                rediscretizers.append(redisc)
                current_grid = layer.output_grid
        stack = ConvStack(layers=tuple(layers), rediscretizers=tuple(rediscretizers))
        with tracer.span("convlayer.transform_stack", stage="fit"):
            features = transform_stack(stack, ddata, mode=config.features_mode)
        arch = MlpArchitecture(
            input_width=features.width, hidden=config.hidden, output_units=config.output_units
        )
        with tracer.span("nn.train"):
            result = train(arch, features, config.hyper)
        bundle = ModelBundle(
            input_grid=grid,
            discretizer=disc,
            stack=stack,
            features_mode=config.features_mode,
            arch=arch,
            weights=result.model.weights,
            hyper=config.hyper,
        )
    return bundle, result, inputs


def traced_predict(tracer, bundle, features):
    """Score rows like `predict_bundle`; the root span's self time is the
    input validation and the inference-model rebuild."""
    with tracer.span("pipeline.predict_bundle", rows=len(features)):
        x = np.asarray(features, dtype=np.float64)
        dataset = RealDataset(x, np.zeros(x.shape[0], dtype=np.int64))
        with tracer.span("discretize.apply"):
            ddata = apply_discretizer(bundle.discretizer, dataset)
        with tracer.span("convlayer.transform_stack"):
            feats = transform_stack(bundle.stack, ddata, mode=bundle.features_mode)
        model = MlpModel(
            arch=bundle.arch,
            weights=bundle.weights,
            rms_state=tuple(np.zeros_like(w) for w in bundle.weights),
            hyper=bundle.hyper,
        )
        with tracer.span("nn.forward"):
            out = forward(model, feats.features)
        return np.asarray(out, dtype=np.float64)


def replay_layer1(tracer, bundle, layer_input):
    """Re-run backward dropping and the training AUC on every layer-1 window
    with the inputs the fit used. Returns the number of subsets scored and a
    list of mismatches against the fitted windows (empty when they agree)."""
    data, grid = layer_input
    layer = bundle.stack.layers[0]
    windows = enumerate_windows(grid, layer.spec)
    with tracer.span("bda.backward_drop", layer=1):
        traces = [backward_drop(data, w) for w in windows]
    # every stage scores one subset per surviving variable; the start scores one
    subsets = sum(1 + sum(len(s.subset) + 1 for s in t.steps[1:]) for t in traces)
    mismatches = [
        f"window {f.window_index}: replayed subset {t.best_subset} score {t.best_score!r}, "
        f"fitted {f.selected_subset} score {f.iscore!r}"
        for f, t in zip(layer.features, traces)
        if f.selected_subset != t.best_subset or f.iscore != t.best_score
    ]
    columns = []
    for f in layer.features:
        stats = partition_stats(data, f.selected_subset)
        columns.append((stats.sums / stats.counts)[stats.row_cells])
    with tracer.span("metrics.window_auc", layer=1):
        aucs = []
        for col in columns:
            try:
                aucs.append(auc(data.response, col))
            except UndefinedMetricError:
                aucs.append(float("nan"))
    fitted = np.array([f.train_auc for f in layer.features], dtype=np.float64)
    if np.asarray(aucs, dtype=np.float64).tobytes() != fitted.tobytes():
        mismatches.append("replayed per-window training AUCs differ from the fitted ones")
    return subsets, mismatches


def fallback_lookups(bundle, features):
    """(lookups that land in cells unseen in training, all lookups) over every
    row x window of every layer."""
    x = np.asarray(features, dtype=np.float64)
    current = apply_discretizer(bundle.discretizer, RealDataset(x, np.zeros(len(x), dtype=np.int64)))
    outputs = stack_outputs(bundle.stack, current)
    unseen = lookups = 0
    for i, layer in enumerate(bundle.stack.layers):
        for f in layer.features:
            keys = encode_cells(current.features, f.selected_subset, layer.level_counts)
            unseen += int(np.count_nonzero(~np.isin(keys, f.cell_keys)))
            lookups += keys.size
        if i < len(bundle.stack.rediscretizers):
            current = apply_discretizer(bundle.stack.rediscretizers[i], outputs[i])
    return unseen, lookups

"""Pipeline orchestration: configuration, geometry, presets, and fit/eval."""

import csv
import dataclasses
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import preset_architecture, record_reports, reference_pipeline, staged_val_losses

from interconv import convlayer, discretize, pipeline
from interconv import (
    ConfigError,
    DataError,
    DiscreteDataset,
    GeometryError,
    GridShape,
    ParityModelSpec,
    PipelineConfig,
    RealDataset,
    TrainingHyper,
    WindowSpec,
    auc,
    evaluate_bundle,
    forward,
    fit_pipeline,
    generate,
    load_bundle,
    param_count,
    predict_bundle,
    preset_config,
    save_bundle,
    write_pgm,
)
from interconv.convlayer import LAYER_ARRAYS
from interconv.pipeline import (
    fit_shape,
    format_report,
    geometry_chain,
    layer_maps,
    parse_discretizer_spec,
    resolve_grid,
    write_fit_outputs,
)


def synthetic_real(n_train=200, seed=0):
    train, _ = generate(ParityModelSpec(n_train=n_train, n_test=0, seed=seed))
    return RealDataset(train.features.astype(np.float64), train.response)


def small_config(**overrides):
    base = dict(
        discretizer="global:0.5",
        layers=(WindowSpec(window=2, stride=1),),
        hyper=TrainingHyper(epochs=5),
    )
    base.update(overrides)
    return PipelineConfig(**base)


def test_parse_discretizer_specs():
    assert parse_discretizer_spec("median") == ("median", None)
    assert parse_discretizer_spec("global:0.5") == ("global", 0.5)
    assert parse_discretizer_spec("quantile:0.25") == ("quantile", 0.25)
    for bad in ("median:1", "global", "quantile:1.5", "zscore", "quantile:x"):
        with pytest.raises(ConfigError):
            parse_discretizer_spec(bad)


def test_config_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(features_mode="sum")
    with pytest.raises(ConfigError):
        PipelineConfig(discretizer="nope")
    with pytest.raises(ConfigError):
        PipelineConfig(workers=-1)


def test_resolve_grid():
    assert resolve_grid(PipelineConfig(), 36) == GridShape(6, 6)
    explicit = PipelineConfig(grid=GridShape(4, 9))
    assert resolve_grid(explicit, 36) == GridShape(4, 9)
    with pytest.raises(ConfigError):
        resolve_grid(explicit, 35)
    with pytest.raises(ConfigError):
        resolve_grid(PipelineConfig(), 35)


@pytest.mark.parametrize("grid", [None, GridShape(6, 6)])
def test_resolve_grid_checks_the_chain_of_grids(grid):
    config = PipelineConfig(grid=grid, layers=(WindowSpec(4, 1), WindowSpec(4, 1)))
    with pytest.raises(GeometryError, match="window 4 starting at 1 does not fit in axis of 3"):
        resolve_grid(config, 36)
    with pytest.raises(GeometryError, match="axis of 3"):
        fit_pipeline(config, synthetic_real(n_train=20))


def test_geometry_chain_and_width():
    chain = geometry_chain(
        GridShape(6, 6), (WindowSpec(2, 1), WindowSpec(2, 1))
    )
    assert [(g.rows, g.cols) for g in chain] == [(6, 6), (5, 5), (4, 4)]
    config = small_config(layers=(WindowSpec(2, 1), WindowSpec(2, 1)), features_mode="concat")
    bundle, _ = fit_pipeline(config, synthetic_real())
    assert bundle.arch.input_width == 41
    with pytest.raises(GeometryError):
        geometry_chain(GridShape(6, 6), (WindowSpec(4, 1), WindowSpec(4, 1)))


PRESET_PARAMETERS = {
    "model1": 7_442,
    "model2": 238_272,
    "model3": 1_800,
    "model4": 57_728,
    "model5": 9_242,
    "model6": 295_872,
}


@pytest.mark.parametrize("name,expected", sorted(PRESET_PARAMETERS.items()))
def test_preset_parameter_counts(name, expected):
    assert param_count(preset_architecture(name)) == expected


def test_preset_geometry():
    config = preset_config("model1")
    chain = geometry_chain(GridShape(128, 128), config.layers)
    assert [(g.rows, g.cols) for g in chain] == [(128, 128), (61, 61)]
    config3 = preset_config("model3")
    chain3 = geometry_chain(GridShape(128, 128), config3.layers)
    assert [(g.rows, g.cols) for g in chain3] == [(128, 128), (61, 61), (30, 30)]


def test_unknown_preset():
    with pytest.raises(ConfigError):
        preset_config("model7")


def test_fit_pipeline_with_window_layer():
    data = synthetic_real()
    bundle, _ = fit_pipeline(small_config(hyper=TrainingHyper(epochs=10)), data)
    assert bundle.input_grid == GridShape(6, 6)
    assert bundle.discretizer is not None
    assert len(bundle.stack.layers) == 1
    assert bundle.arch.input_width == 25
    scores = predict_bundle(bundle, data.features)
    assert scores.shape == (data.n,)
    assert scores.min() >= 0.0 and scores.max() <= 1.0
    # the planted {X1,X2} window separates the training data
    assert auc(data.response, scores) > 0.7


def test_fit_pipeline_is_bitwise_the_same_on_int64_levels(monkeypatch, tmp_path):
    """Bundle bytes and scores do not depend on the levels being stored as
    uint8: the same fit with every discretizer output widened to int64."""
    gen = np.random.default_rng(4)
    y = gen.integers(0, 2, size=120)
    x = gen.random((120, 49)) + 0.3 * y[:, np.newaxis] * (np.arange(49) % 5 == 0)
    config = small_config(
        discretizer="median", layers=(WindowSpec(2, 1), WindowSpec(2, 2)), rediscretizer="median"
    )
    held = gen.random((30, 49))
    narrow, _ = fit_pipeline(config, RealDataset(x, y))
    assert pipeline.apply_discretizer(narrow.discretizer, RealDataset(held, np.zeros(30))).features.dtype == np.uint8
    save_bundle(narrow, tmp_path / "narrow.bundle")
    narrow_scores = predict_bundle(narrow, held)

    def widened(disc, data):
        levels = discretize.apply_discretizer(disc, data)
        return DiscreteDataset(levels.features.astype(np.int64), levels.response, levels.level_counts)

    monkeypatch.setattr(pipeline, "apply_discretizer", widened)
    monkeypatch.setattr(convlayer, "apply_discretizer", widened)
    wide, _ = fit_pipeline(config, RealDataset(x, y))
    save_bundle(wide, tmp_path / "wide.bundle")
    assert (tmp_path / "narrow.bundle").read_bytes() == (tmp_path / "wide.bundle").read_bytes()
    assert predict_bundle(wide, held).tobytes() == narrow_scores.tobytes()


def test_fit_pipeline_flat():
    gen = np.random.default_rng(1)
    y = gen.integers(0, 2, size=150)
    x = gen.normal(size=(150, 8)) + y[:, np.newaxis]
    data = RealDataset(x, y)
    config = PipelineConfig(hyper=TrainingHyper(epochs=10), output_units=1)
    bundle, _ = fit_pipeline(config, data)
    assert bundle.stack is None and bundle.discretizer is None
    assert auc(y, predict_bundle(bundle, x)) > 0.8


def test_fit_pipeline_validation_split(monkeypatch):
    data = synthetic_real(seed=2)
    val = synthetic_real(seed=3)
    _, report = fit_pipeline(small_config(), data, val_data=val)
    assert len(report.train_result.val_losses) == 5
    _, flat_report = fit_pipeline(PipelineConfig(hyper=TrainingHyper(epochs=3)), data, val)
    assert len(flat_report.train_result.val_losses) == 3

    # a validation set of the wrong width is refused before any fitting
    def no_fitting(*args, **kwargs):
        raise AssertionError("fitting started before the validation set was checked")

    monkeypatch.setattr(pipeline, "stack_layers", no_fitting)
    monkeypatch.setattr(pipeline, "train", no_fitting)
    short = RealDataset(np.zeros((4, 9)), np.array([0, 1, 0, 1]))
    for config in (small_config(), PipelineConfig(hyper=TrainingHyper(epochs=3))):
        with pytest.raises(DataError, match="validation data width"):
            fit_pipeline(config, data, val_data=short)


def test_fit_pipeline_checks_every_window_before_any_work(monkeypatch):
    # the first layer fits the 6x6 grid; the second (6x6 on its 5x5 output) does not
    def no_work(*args, **kwargs):
        raise AssertionError("fitting started before the window chain was checked")

    monkeypatch.setattr(pipeline, "fit_discretizer", no_work)
    monkeypatch.setattr(pipeline, "stack_layers", no_work)
    config = small_config(layers=(WindowSpec(2, 1), WindowSpec(6, 1)))
    with pytest.raises(GeometryError):
        fit_pipeline(config, synthetic_real())


def test_a_window_past_the_subset_limit_is_a_geometry_error(monkeypatch):
    """A 6x6 window holds 36 pixels, over the 25 backward dropping starts
    from: the geometry check refuses it before any fitting."""
    monkeypatch.setattr(pipeline, "fit_discretizer", None)
    config = small_config(layers=(WindowSpec(6, 1),))
    for check in (lambda: fit_shape(config, 36), lambda: fit_pipeline(config, synthetic_real())):
        with pytest.raises(GeometryError, match="window 6x6 exceeds the subset limit of 25 pixels"):
            check()
    assert geometry_chain(GridShape(6, 6), (WindowSpec(5, 1),))[-1] == GridShape(2, 2)


def test_evaluate_bundle_matches_metrics():
    data = synthetic_real(seed=4)
    bundle, _ = fit_pipeline(small_config(), data)
    summary, curve = evaluate_bundle(bundle, data, threshold=0.5)
    scores = predict_bundle(bundle, data.features)
    assert summary.auc == pytest.approx(auc(data.response, scores))
    assert curve.auc == summary.auc
    assert summary.n == data.n
    assert 0.0 <= summary.sensitivity <= 1.0
    assert 0.0 <= summary.specificity <= 1.0


def test_evaluate_bundle_refuses_a_nan_threshold():
    bundle, _ = fit_pipeline(small_config(), synthetic_real(seed=4))
    with pytest.raises(ConfigError, match="threshold"):
        evaluate_bundle(bundle, synthetic_real(seed=5), threshold=np.nan)


def test_layer_maps_shapes():
    data = synthetic_real(seed=5)
    config = small_config(layers=(WindowSpec(2, 1), WindowSpec(2, 1)))
    bundle, _ = fit_pipeline(config, data)
    maps = layer_maps(bundle, data.features[:3])
    assert [m.shape for m in maps] == [(3, 5, 5), (3, 4, 4)]
    flat, _ = fit_pipeline(PipelineConfig(hyper=TrainingHyper(epochs=1)), synthetic_real(seed=6))
    with pytest.raises(DataError):
        layer_maps(flat, data.features[:3])


def test_layer_maps_keeps_its_refusals():
    """`layer_maps` refuses a bundle without window layers, a non-finite row
    and a row of another width, each as a `DataError` and with the message
    of the check that owns the rule: its own, `RealDataset`'s and the
    discretizer's."""
    data = synthetic_real(seed=5)
    bundle, _ = fit_pipeline(small_config(layers=(WindowSpec(2, 1), WindowSpec(2, 1))), data)
    flat, _ = fit_pipeline(PipelineConfig(hyper=TrainingHyper(epochs=1)), synthetic_real(seed=6))
    rows = data.features[:3].copy()
    rows[1, 4] = np.nan
    width = data.width
    cases = [
        (flat, data.features[:3], "bundle has no window layers to map"),
        (bundle, rows, "features must be finite"),
        (bundle, data.features[:3, 1:], f"discretizer was fit on {width} columns, data has {width - 1}"),
    ]
    for served, features, message in cases:
        with pytest.raises(DataError) as info:
            layer_maps(served, features)
        assert type(info.value) is DataError and str(info.value) == message, message


def test_workers_has_no_effect():
    data = synthetic_real(seed=7)
    serial, _ = fit_pipeline(small_config(workers=1), data)
    parallel, _ = fit_pipeline(small_config(workers=0), data)
    for wa, wb in zip(serial.weights, parallel.weights):
        assert np.array_equal(wa, wb)


def test_format_report_content():
    data = synthetic_real(seed=8)
    bundle, report = fit_pipeline(small_config(), data)
    text = format_report(bundle, report.train_result)
    assert "geometry: 6x6 -> 5x5" in text
    assert "layer 1: window 2x2 stride 1 start 1 -> 5x5 (25 windows)" in text
    assert "discretizer: global:0.5" in text
    assert "classifier: 25 -> hidden none -> 2 unit(s), 50 parameters" in text
    assert "training: 5 epochs" in text
    assert "strongest windows" in text
    # report is reconstructible from the bundle alone
    assert "geometry: 6x6 -> 5x5" in format_report(bundle)


def test_format_report_after_zero_epochs():
    bundle, report = fit_pipeline(small_config(hyper=TrainingHyper(epochs=0)), synthetic_real(seed=8))
    assert report.train_result.train_losses == ()
    assert "training: 0 epochs (initial weights kept)\n" in format_report(bundle, report.train_result)


def test_write_fit_outputs(tmp_path):
    data = synthetic_real(seed=9)
    bundle, report = fit_pipeline(small_config(), data)
    paths = write_fit_outputs(tmp_path / "run", bundle, report)
    for key in ("bundle", "report", "loss", "windows"):
        assert paths[key].exists()
    windows = paths["windows"].read_text().splitlines()
    assert windows[0] == "layer,window,out_row,out_col,variables,n_cells,iscore,train_auc"
    assert len(windows) == 26
    first = windows[1].split(",")
    assert first[:4] == ["1", "1", "1", "1"]
    assert first[4].startswith("X")


@pytest.mark.parametrize("one_class", [False, True], ids=["two-class", "one-class"])
def test_windows_csv_rows_match_their_layers(tmp_path, one_class):
    data = synthetic_real(seed=10)
    if one_class:
        data = RealDataset(data.features, np.zeros(data.n, dtype=np.int64))
    bundle, report = fit_pipeline(small_config(layers=(WindowSpec(2, 1), WindowSpec(2, 2))), data)
    with open(write_fit_outputs(tmp_path, bundle, report)["windows"], newline="", encoding="utf-8") as fh:
        rows = iter(list(csv.DictReader(fh)))
    for li, layer in enumerate(bundle.stack.layers, start=1):
        w, stride, cols = layer.spec.window, layer.spec.stride, layer.input_grid.cols
        subsets = np.split(layer.subset_flat, np.cumsum(layer.subset_len)[:-1])
        for b, subset in enumerate(subsets):
            row = next(rows)
            out_row, out_col = divmod(b, layer.output_grid.cols)
            position = [li, b + 1, out_row + 1, out_col + 1]
            assert [row[k] for k in ("layer", "window", "out_row", "out_col")] == [str(v) for v in position]
            assert row["variables"] == " ".join(f"X{j + 1}" for j in subset)
            # every named variable lies inside the window at (out_row, out_col)
            assert all(0 <= j // cols - out_row * stride < w and 0 <= j % cols - out_col * stride < w for j in subset)
            assert row["n_cells"] == str(layer.ncells[b])
            assert np.float64(row["iscore"]).tobytes() == layer.iscore[b].tobytes()
            assert np.float64(row["train_auc"]).tobytes() == layer.auc[b].tobytes()
        assert np.isnan(layer.auc).all() == one_class
    assert next(rows, None) is None


def test_reports_match_the_per_window_records(tmp_path):
    """`windows.csv` and the report's strongest windows, read from the flat
    arrays, equal `oracles.record_reports` over the per-window records, on a fit
    whose windows tie: each grid row repeats the same six columns, so windows
    in one grid column select the same cells and score alike."""
    gen = np.random.default_rng(12)
    y = gen.integers(0, 2, size=120)
    base = (gen.random((120, 6)) + 0.3 * y[:, np.newaxis] > 0.6).astype(np.float64)
    config = small_config(layers=(WindowSpec(2, 1), WindowSpec(2, 1)))
    bundle, report = fit_pipeline(config, RealDataset(np.tile(base, (1, 6)), y))
    rows, lines = record_reports(bundle.stack)
    for layer in bundle.stack.layers:
        top = np.sort(layer.iscore)[-10:]
        assert len(set(top.tolist())) < len(top)  # ties among the windows reported
    with open(write_fit_outputs(tmp_path, bundle, report)["windows"], newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh))[1:] == rows
    text = format_report(bundle, report.train_result)
    assert text.split("strongest windows (by influence score):\n")[1].splitlines() == lines


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_fit_and_predict_match_the_reference_pipeline(tmp_path_factory, data):
    """A whole fit and its predictions, fresh rows and a saved bundle
    included, bitwise equal to `oracles.reference_pipeline`."""
    draw = data.draw
    rows, cols = draw(st.integers(4, 7)), draw(st.integers(4, 7))
    layers, r, c = [], rows, cols
    for _ in range(draw(st.integers(1, 3))):
        window = draw(st.integers(1, min(3, r, c)))
        start = draw(st.integers(1, min(2, r - window + 1, c - window + 1)))
        layers.append(WindowSpec(window, draw(st.integers(1, 2)), start))
        r, c = ((side - start - window + 1) // layers[-1].stride + 1 for side in (r, c))
    kinds = st.sampled_from(["median", "global:0.5", "quantile:0.3"])
    config = PipelineConfig(
        grid=None if rows == cols and draw(st.booleans()) else GridShape(rows, cols),
        discretizer=draw(kinds),
        layers=tuple(layers),
        rediscretizer=draw(kinds),
        features_mode=draw(st.sampled_from(["last", "concat"])),
        hidden=draw(st.sampled_from([None, 3])),
        output_units=draw(st.sampled_from([1, 2])),
        hyper=TrainingHyper(
            learning_rate=draw(st.sampled_from([0.001, 0.05])),
            epochs=draw(st.integers(0, 3)),
            batch_size=draw(st.integers(3, 16)),
            seed=draw(st.integers(0, 2**16)),
        ),
    )
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(8, 40))
    # coarse values, so that thresholds and cells meet ties
    train = RealDataset(gen.integers(0, 5, size=(n, rows * cols)) / 4, gen.integers(0, 2, size=n))
    fresh = gen.integers(0, 5, size=(7, rows * cols)) / 4

    ref = reference_pipeline(config, train)
    with mock.patch.object(pipeline, "train", wraps=pipeline.train) as trained:
        bundle, report = fit_pipeline(config, train)
    assert same_bytes(trained.call_args.args[1].features, ref.features)
    assert same_bytes(bundle.discretizer.thresholds, ref.thresholds)
    for layer, arrays in zip(bundle.stack.layers, ref.layers, strict=True):
        for name in LAYER_ARRAYS:
            assert same_bytes(getattr(layer, name), arrays[name]), name
    for disc, thresholds in zip(bundle.stack.rediscretizers, ref.rediscretizers, strict=True):
        assert same_bytes(disc.thresholds, thresholds)
    for a, b in zip(bundle.weights, ref.model.weights, strict=True):
        assert same_bytes(a, b)
    assert same_bytes(report.train_result.train_losses, ref.losses)
    expected = ref.predict(fresh)
    assert same_bytes(predict_bundle(bundle, fresh), expected)
    path = tmp_path_factory.mktemp("oracle") / "model.bundle"
    save_bundle(bundle, path)
    assert same_bytes(predict_bundle(load_bundle(path), fresh), expected)


def test_readme_library_use_snippet_runs(tmp_path, monkeypatch, capsys):
    """The first python block of README's "Library use" section, as written:
    it prints an AUC and saves a bundle that loads."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(snippet, "README.md", "exec"), {})
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0
    load_bundle(tmp_path / "model.bundle")


def model3_bundle(features_mode="last"):
    """Preset model3's two layers, (2,2,6) then (2,2,1), on a 16x16 grid."""
    gen = np.random.default_rng(11)
    y = gen.integers(0, 2, size=120)
    x = gen.random((120, 256)) + 0.2 * y[:, np.newaxis]
    config = preset_config("model3", GridShape(16, 16))
    config = PipelineConfig(
        grid=config.grid, layers=config.layers, features_mode=features_mode, hyper=TrainingHyper(epochs=2)
    )
    return fit_pipeline(config, RealDataset(x, y))[0]


def parity_bundle():
    return fit_pipeline(small_config(), synthetic_real(seed=8))[0]


def flat_bundle():
    return fit_pipeline(PipelineConfig(hyper=TrainingHyper(epochs=1)), synthetic_real(seed=9))[0]


PREDICT_REFUSALS = {
    "1-d": (parity_bundle, np.zeros(36), "features must be a non-empty 2-d array, got shape (36,)"),
    "no rows": (parity_bundle, np.zeros((0, 36)), "features must be a non-empty 2-d array, got shape (0, 36)"),
    "nan": (parity_bundle, np.full((2, 36), np.nan), "features must be finite"),
    "inf": (model3_bundle, np.full((1, 256), np.inf), "features must be finite"),
    "stack width": (model3_bundle, np.zeros((2, 255)), "discretizer was fit on 256 columns, data has 255"),
    "flat width": (flat_bundle, np.zeros((2, 35)), "features of width 36 expected, got shape (2, 35)"),
}


@pytest.mark.parametrize("case", PREDICT_REFUSALS, ids=list(PREDICT_REFUSALS))
def test_predict_bundle_refuses_bad_rows(case):
    make, rows, message = PREDICT_REFUSALS[case]
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        predict_bundle(make(), rows)


@pytest.mark.parametrize("make", [model3_bundle, parity_bundle], ids=["model3", "parity"])
def test_predict_bundle_builds_no_dataset(monkeypatch, make):
    """Raw rows are checked once at the edge; no stage wraps its output in a
    dataset that checks its rows again."""
    bundle = make()
    rows = np.random.default_rng(3).random((5, bundle.discretizer.width))
    built = []
    for kind in (RealDataset, DiscreteDataset):
        checks = kind.__post_init__

        def counted(self, checks=checks):
            built.append(type(self).__name__)
            checks(self)

        monkeypatch.setattr(kind, "__post_init__", counted)
    predict_bundle(bundle, rows)
    predict_bundle(bundle, rows[:1])
    assert built == []


def checked_stack(bundle, x):
    """Every layer's features and the classifier input for raw rows, through
    the public, checked calls."""
    levels = discretize.apply_discretizer(bundle.discretizer, RealDataset(x, np.zeros(len(x), dtype=np.int64)))
    outputs = convlayer.stack_outputs(bundle.stack, levels)
    return outputs, convlayer.transform_stack(bundle.stack, levels, mode=bundle.features_mode)


def read_windows(stack):
    """Per layer, the 0-based windows the last layer's features read, by sets
    over `features`: the rule `bundle_features` codes a "last" stack by."""
    read = [set(range(stack.layers[-1].n_windows))]
    for layer in reversed(stack.layers[1:]):
        read.insert(0, {j for f in layer.features if f.window_index - 1 in read[0] for j in f.selected_subset})
    return read


def build_plans(stack, over=(), merge=True):
    """Build both of `stack`'s cached plans, serving layers `over` (0-based)
    by their per-window searchsorted, as if over `TABLE_LIMIT`: those layers'
    `_coder` calls run under a limit of 0. Unless `merge`, every `_merge` of
    the read plan's dense stages runs under a limit of 0 too, so it is refused.
    The every-window plan and a refused read plan serve a stage per layer; a
    merged read plan folds all of a case's dense stages into one."""
    coder, merger = convlayer._coder, convlayer._merge

    def limited(layer, keep, cols):
        limit = 0 if any(layer is stack.layers[k] for k in over) else convlayer.TABLE_LIMIT
        with mock.patch.object(convlayer, "TABLE_LIMIT", limit):
            return coder(layer, keep, cols)

    def refused(*stages):
        with mock.patch.object(convlayer, "TABLE_LIMIT", convlayer.TABLE_LIMIT if merge else 0):
            return merger(*stages)

    assert not {"_full_plan", "_read_plan"} & set(vars(stack))
    with mock.patch.object(convlayer, "_coder", limited), mock.patch.object(convlayer, "_merge", refused):
        plans = stack._full_plan, stack._read_plan
    staged = [k in over for k in range(len(stack.layers))]
    assert [lookup is None for lookup, _ in plans[0][0]] == staged
    if merge and not over:
        assert [lookup is None for lookup, _ in plans[1][0]] == [False]
    else:
        assert [lookup is None for lookup, _ in plans[1][0]] == staged
    return plans


# per case: the window stack over a 6x6 grid, and the layers served by
# searchsorted. 3x3 windows then 1x1 windows at stride 2: layer 2 reads 4 of
# layer 1's 16 windows; a third layer reads 4 of layer 2's 16, which read
# at most 16 of layer 1's 25.
TWO_LAYERS = (WindowSpec(3, 1), WindowSpec(1, 2))
THREE_LAYERS = (WindowSpec(2, 1), WindowSpec(2, 1), WindowSpec(1, 2))
WALK_CASES = {
    "dense": (TWO_LAYERS, ()),
    "searchsorted": (TWO_LAYERS, (0,)),
    "searchsorted-l2": (TWO_LAYERS, (1,)),
    "searchsorted-l1-l2": (TWO_LAYERS, (0, 1)),
    "three-layers": (THREE_LAYERS, ()),
    "three-layers-searchsorted": (THREE_LAYERS, (0, 1, 2)),
}


@pytest.mark.parametrize("mode", ["last", "concat"])
@pytest.mark.parametrize("rows", ["one", "edge"])
@pytest.mark.parametrize("case", WALK_CASES, ids=list(WALK_CASES))
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_served_walk_matches_the_checked_stack(mode, rows, case, seed):
    """`predict_bundle`, `bundle_features` and `layer_maps` bitwise equal to
    `forward` over `transform_stack` and to `stack_outputs`, at 1 row and past
    the `GATHER_LIMIT` chunk edge of every stage served, with layers over
    `TABLE_LIMIT`, with the read plan's dense stages merged and with the merge
    refused; a "last" stack codes only the windows its last layer reads."""
    specs, over = WALK_CASES[case]
    gen = np.random.default_rng(seed)
    y = gen.integers(0, 2, size=80)
    x = gen.integers(0, 5, size=(80, 36)) / 4 + 0.1 * y[:, np.newaxis]
    config = small_config(discretizer="median", layers=specs, features_mode=mode)
    fitted, _ = fit_pipeline(config, RealDataset(x, y))
    bundles = [dataclasses.replace(fitted, stack=dataclasses.replace(fitted.stack)) for _ in range(2)]
    plans = [build_plans(bundle.stack, over, merge) for bundle, merge in zip(bundles, (True, False))]
    if rows == "one":
        n = 1
    else:
        # with no dense stage there is no chunk edge: a few rows
        stages = [lookup for plan in plans for coders, _ in plan for lookup, _ in coders]
        n = max((convlayer.GATHER_LIMIT // lookup[0].size for lookup in stages if lookup is not None), default=2) + 1
    fresh = gen.integers(0, 5, size=(n, 36)) / 4

    outputs, joined = checked_stack(fitted, fresh)
    every = [layer.n_windows for layer in fitted.stack.layers]
    for bundle, merge in zip(bundles, (True, False)):
        assert same_bytes(pipeline.bundle_features(bundle, fresh), joined.features)
        assert same_bytes(predict_bundle(bundle, fresh), forward(bundle, joined.features))
        for served, checked in zip(layer_maps(bundle, fresh), outputs, strict=True):
            assert same_bytes(served.reshape(n, -1), checked.features)
        plan = bundle.stack._full_plan if mode == "concat" else bundle.stack._read_plan
        levels = (fresh > bundle.discretizer.thresholds).view(np.uint8)
        coded = [out.shape[1] for out in convlayer._walk(plan, levels)]
        if mode == "concat":
            assert coded == every
        elif merge and not over:
            assert coded == every[-1:]  # one stage, straight from the input
        else:
            assert coded == [len(r) for r in read_windows(bundle.stack)]
            assert all(c < e for c, e in zip(coded[:-1], every))


# per case: the window stack, the feature mode, and whether the read plan's merge is refused
VAL_CASES = {
    "flat": ((), "last", False),
    "last-merged": (TWO_LAYERS, "last", False),
    "last-merge-refused": (TWO_LAYERS, "last", True),
    "concat": (TWO_LAYERS, "concat", False),
}


@pytest.mark.parametrize("case", VAL_CASES, ids=list(VAL_CASES))
def test_validation_losses_match_the_staged_walk(monkeypatch, case):
    """Validation rows scored through the fitted bundle give losses bitwise
    equal to `oracles.staged_val_losses`, which walks them through every window
    of every layer. A "last" fit builds only the read plan its bundle serves
    by, merged or not, and a "concat" fit only the every-window plan."""
    layers, mode, refused = VAL_CASES[case]
    gen = np.random.default_rng(13)
    y, val_y = gen.integers(0, 2, size=80), gen.integers(0, 2, size=50)
    x = gen.integers(0, 5, size=(80, 36)) / 4 + 0.1 * y[:, np.newaxis]
    val = RealDataset(gen.integers(0, 5, size=(50, 36)) / 4 + 0.1 * val_y[:, np.newaxis], val_y)
    config = small_config(discretizer="median", layers=layers, features_mode=mode)
    expected = staged_val_losses(config, RealDataset(x, y), val)
    if refused:
        monkeypatch.setattr(convlayer, "_merge", lambda *stages: None)
    bundle, report = fit_pipeline(config, RealDataset(x, y), val)
    assert len(expected) == 5
    assert same_bytes(report.train_result.val_losses, expected)
    if layers:
        built = {"_full_plan", "_read_plan"} & set(vars(bundle.stack))
        assert built == {"_full_plan" if mode == "concat" else "_read_plan"}
    if mode == "last" and layers:
        assert len(bundle.stack._read_plan[0]) == (2 if refused else 1)


def test_a_model3_bundle_serves_through_one_stage():
    """Preset model3's two layers fold into one dense stage of the read plan,
    and it serves bitwise what the staged walk does."""
    bundle = model3_bundle()
    coders, between = bundle.stack._read_plan
    assert [lookup is None for lookup, _ in coders] == [False] and between == []
    rows = np.random.default_rng(7).random((40, 256))
    _, joined = checked_stack(bundle, rows)
    assert same_bytes(pipeline.bundle_features(bundle, rows), joined.features)
    assert same_bytes(predict_bundle(bundle, rows), forward(bundle, joined.features))


def saved_model3(tmp_path):
    save_bundle(model3_bundle(), tmp_path / "model.bundle")
    return tmp_path / "model.bundle"


def six_image_manifest(tmp_path):
    """Six 4x4 PGM images, three of each class."""
    gen = np.random.default_rng(14)
    for i in range(6):
        write_pgm(tmp_path / f"im{i}.pgm", gen.random((4, 4)))
    (tmp_path / "m.csv").write_text("path,label\n" + "".join(f"im{i}.pgm,{i % 2}\n" for i in range(6)))
    return tmp_path / "m.csv"


# per case: what the first argv names, then the calls; the second argv is the
# directory that holds the package
FIRST_CALLS = {
    "predict": (saved_model3, (
        "import numpy as np; from interconv import load_bundle, predict_bundle; "
        "predict_bundle(load_bundle(sys.argv[1]), np.full((1, 256), 0.5))"
    )),
    "split-and-augment": (six_image_manifest, (
        "from interconv import augment_images, load_images, split_images; "
        "augment_images(split_images(load_images(sys.argv[1]), 1, 0)[0], 4)"
    )),
}


@pytest.mark.parametrize("case", FIRST_CALLS, ids=list(FIRST_CALLS))
def test_a_fresh_process_predicts_without_importing_numpy_ma(tmp_path, case):
    """Loading a two-layer bundle and scoring one row in a fresh interpreter
    does not import `numpy.ma`, which once cost most of the first call; nor
    do loading, splitting and augmenting an image corpus."""
    make, calls = FIRST_CALLS[case]
    src = Path(pipeline.__file__).resolve().parent.parent
    code = f"import sys; sys.path.insert(0, sys.argv[2]); {calls}; print('numpy.ma' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code, str(make(tmp_path)), str(src)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0 and done.stdout.split() == ["False"], done.stderr[-2000:]


def with_unread_windows_changed(bundle):
    """`bundle` with other cell means and fallbacks (each moved across 0.5)
    on every layer-1 window that no layer-2 subset reads."""
    first, *rest = bundle.stack.layers
    unread = np.setdiff1d(np.arange(first.n_windows), sorted(read_windows(bundle.stack)[0]))
    assert 0 < len(unread) < first.n_windows
    moved = np.isin(np.repeat(np.arange(first.n_windows), first.ncells), unread)
    means = np.where(moved, (first.cell_means <= 0.5).astype(np.float64), first.cell_means)
    fallback = first.fallback.copy()
    fallback[unread] = fallback[unread] <= 0.5
    layer = dataclasses.replace(first, cell_means=means, fallback=fallback)
    return dataclasses.replace(bundle, stack=dataclasses.replace(bundle.stack, layers=(layer, *rest)))


def test_windows_no_later_layer_reads_move_no_last_score():
    """The rule a "last" bundle is served by, both ways: layer-1 windows that
    layer 2 does not read change neither its scores nor its classifier input,
    yet they do change `layer_maps` and a "concat" bundle's scores."""
    gen = np.random.default_rng(4)
    y = gen.integers(0, 2, size=80)
    x = gen.integers(0, 5, size=(80, 36)) / 4 + 0.1 * y[:, np.newaxis]
    fresh = gen.integers(0, 5, size=(50, 36)) / 4
    for mode in ("last", "concat"):
        config = small_config(discretizer="median", layers=TWO_LAYERS, features_mode=mode)
        bundle, _ = fit_pipeline(config, RealDataset(x, y))
        changed = with_unread_windows_changed(bundle)
        assert same_bytes(predict_bundle(changed, fresh), predict_bundle(bundle, fresh)) == (mode == "last")
        assert same_bytes(
            pipeline.bundle_features(changed, fresh), pipeline.bundle_features(bundle, fresh)
        ) == (mode == "last")
        before, after = layer_maps(bundle, fresh), layer_maps(changed, fresh)
        assert not same_bytes(after[0], before[0]) and same_bytes(after[1], before[1])


def test_the_table_cap_is_met_per_plan():
    """Under a `TABLE_LIMIT` between the layer-1 table of a "last" stack's
    read plan and that of its every-window plan, the served walk codes layer
    1 by a dense table (here merged with layer 2's, which reads one layer-1
    window per window, so the merge is no larger) and `stack_outputs` by
    per-window searches, and they still agree bitwise."""
    gen = np.random.default_rng(6)
    y = gen.integers(0, 2, size=80)
    x = gen.integers(0, 5, size=(80, 36)) / 4 + 0.1 * y[:, np.newaxis]
    fresh = gen.integers(0, 5, size=(30, 36)) / 4
    bundle, _ = fit_pipeline(small_config(discretizer="median", layers=TWO_LAYERS), RealDataset(x, y))
    every_window_plan, read_plan = build_plans(dataclasses.replace(bundle.stack), merge=False)
    read, every = (len(plan[0][0][0][-1]) for plan in (read_plan, every_window_plan))
    assert read < every
    bundle = dataclasses.replace(bundle, stack=dataclasses.replace(bundle.stack))  # no plan built yet
    with mock.patch.object(convlayer, "TABLE_LIMIT", read):
        (every_l1, _), _ = bundle.stack._full_plan[0]
        (read_l1, _), *_ = bundle.stack._read_plan[0]
    assert every_l1 is None and read_l1 is not None
    outputs, joined = checked_stack(bundle, fresh)
    assert same_bytes(pipeline.bundle_features(bundle, fresh), joined.features)
    assert same_bytes(predict_bundle(bundle, fresh), forward(bundle, joined.features))
    for served, checked in zip(layer_maps(bundle, fresh), outputs, strict=True):
        assert same_bytes(served.reshape(len(fresh), -1), checked.features)


@pytest.mark.parametrize("make", [flat_bundle, parity_bundle], ids=["flat", "parity"])
def test_scores_do_not_depend_on_the_row_layout(make):
    bundle = make()
    rows = np.random.default_rng(5).random((300, 36))
    expected = predict_bundle(bundle, rows)
    for layout in (np.asfortranarray(rows), np.repeat(rows, 2, axis=1)[:, ::2]):
        assert same_bytes(predict_bundle(bundle, layout), expected)

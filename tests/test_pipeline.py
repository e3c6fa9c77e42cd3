"""Pipeline orchestration: configuration, geometry, presets, and fit/eval."""

import csv
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import preset_architecture, reference_pipeline

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
    fit_pipeline,
    generate,
    load_bundle,
    param_count,
    predict_bundle,
    preset_config,
    save_bundle,
)
from interconv.convlayer import LAYER_ARRAYS
from interconv.pipeline import (
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

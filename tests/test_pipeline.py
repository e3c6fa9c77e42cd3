"""Pipeline orchestration: configuration, geometry, presets, and fit/eval."""

import csv

import numpy as np
import pytest
from oracles import preset_architecture

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
    param_count,
    predict_bundle,
    preset_config,
    save_bundle,
)
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

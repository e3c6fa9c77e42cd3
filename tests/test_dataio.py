"""Image corpora, dataset CSVs, and byte-exact model bundle persistence."""

import dataclasses
import hashlib
import re
import struct
from typing import Callable, NamedTuple

import numpy as np
import pytest
from conftest import with_blank_lines
from oracles import _rewrite_sections, stacked_augment, stacked_intensities, with_arrays, with_manifest

from interconv import (
    BundleFormatError,
    BundleIntegrityError,
    BundleVersionError,
    ConfigError,
    ConvStack,
    DataError,
    Discretizer,
    FittedConvLayer,
    GridShape,
    ImageSet,
    MlpArchitecture,
    ModelBundle,
    ParityModelSpec,
    PipelineConfig,
    RealDataset,
    TrainingHyper,
    WindowSpec,
    augment_images,
    fit_pipeline,
    generate,
    load_bundle,
    load_images,
    predict_bundle,
    read_dataset_csv,
    save_bundle,
    split_images,
    write_dataset_csv,
    write_pgm,
)
from interconv import dataio
from interconv.cli import main
from interconv.convlayer import LAYER_ARRAYS


def make_corpus(tmp_path, n0=6, n1=5, side=8, seed=0):
    """Labeled PGM files plus a manifest; returns the manifest path."""
    gen = np.random.default_rng(seed)
    rows = []
    for i in range(n0 + n1):
        label = int(i >= n0)
        img = gen.random((side, side))
        name = f"img_{i:02d}.pgm"
        write_pgm(tmp_path / name, img)
        rows.append(f"{name},{label}")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,label\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return manifest


def test_load_images_scales_and_orders(tmp_path):
    manifest = make_corpus(tmp_path, n0=3, n1=2, side=4)
    images = load_images(manifest)
    assert images.n == 5
    assert (images.grid.rows, images.grid.cols) == (4, 4)
    assert images.labels.tolist() == [0, 0, 0, 1, 1]
    assert images.sources[0] == "img_00.pgm"
    assert images.intensities.min() >= 0.0 and images.intensities.max() <= 1.0
    # intensity is the stored byte over 255, row-major
    from interconv import read_pgm

    raw = read_pgm(tmp_path / "img_00.pgm")
    assert np.array_equal(images.intensities[0], raw.reshape(-1) / 255.0)


def test_load_images_accepts_csv_images(tmp_path):
    (tmp_path / "a.csv").write_text("0,128\n255,64\n")
    (tmp_path / "b.csv").write_text("1,2\n3,4\n")
    manifest = tmp_path / "m.csv"
    manifest.write_text("a.csv,0\nb.csv,1\n")
    images = load_images(manifest)
    assert images.intensities[0].tolist() == [0.0, 128 / 255.0, 1.0, 64 / 255.0]


@pytest.mark.parametrize("kind", ["pgm", "csv", "both"])
def test_load_images_fills_the_matrix_that_stacked_rows_give(tmp_path, kind):
    gen = np.random.default_rng(7)
    lines = []
    for i in range(9):
        pixels = gen.integers(0, 256, size=(5, 7))
        name = f"im{i}.{'pgm' if kind == 'pgm' or (kind == 'both' and i % 2) else 'csv'}"
        if name.endswith(".pgm"):
            write_pgm(tmp_path / name, pixels / 255.0)
        else:
            (tmp_path / name).write_text("\n".join(",".join(map(str, row)) for row in pixels.tolist()) + "\n")
        lines.append(f"{name},{i % 2}")
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,label\n" + "\n".join(lines) + "\n")
    images = load_images(manifest)
    assert images.intensities.tobytes() == stacked_intensities(manifest).tobytes()
    assert images.intensities.shape == (9, 35) and images.intensities.flags.c_contiguous


def test_a_bom_csv_image_reads_like_one_without(tmp_path):
    (tmp_path / "a.csv").write_text("0,128\n255,64\n", encoding="utf-8")
    (tmp_path / "b.csv").write_text("0,128\n255,64\n", encoding="utf-8-sig")
    assert (tmp_path / "b.csv").read_bytes().startswith(b"\xef\xbb\xbf")
    manifest = tmp_path / "m.csv"
    manifest.write_text("a.csv,0\nb.csv,1\n")
    images = load_images(manifest)
    assert images.intensities[1].tobytes() == images.intensities[0].tobytes()


@pytest.mark.parametrize("value", ["nan", "256", "-1"])
def test_csv_image_values_outside_0_255_are_refused(tmp_path, value):
    (tmp_path / "a.csv").write_text(f"0,{value}\n255,64\n")
    manifest = tmp_path / "m.csv"
    manifest.write_text("a.csv,0\n")
    with pytest.raises(DataError, match=re.escape("a.csv: CSV image values must lie in [0, 255]")):
        load_images(manifest)


@pytest.mark.parametrize("text", ["", "\n\n", "# no pixels\n#\n"], ids=["empty", "blank lines", "comments"])
def test_a_csv_image_with_no_values_is_refused(tmp_path, text):
    (tmp_path / "a.csv").write_text(text)
    manifest = tmp_path / "m.csv"
    manifest.write_text("a.csv,0\n")
    with pytest.raises(DataError, match=re.escape("a.csv: CSV image has no values")):
        load_images(manifest)


@pytest.mark.parametrize(
    "content,match",
    [
        ("a.pgm,2\n", "label"),
        ("a.pgm\n", "path,label"),
        ("", "no images"),
        ("missing.pgm,0\n", "missing.pgm"),
        ("a.pgm,one\n", "m.csv:1: label 'one' is not an integer"),
        ("a.png,0\n", "a.png: unsupported image format"),
        ("\npath,label\n\na.pgm,one\n", "m.csv:4: label 'one' is not an integer"),
        ("path,label\npath,label\n", "m.csv:2: label 'label' is not an integer"),
        ("\n\n", "no images"),
    ],
)
def test_manifest_errors(tmp_path, content, match):
    write_pgm(tmp_path / "a.pgm", np.zeros((2, 2)))
    manifest = tmp_path / "m.csv"
    manifest.write_text(content)
    with pytest.raises(DataError, match=match):
        load_images(manifest)


def test_dimension_mismatch_names_offender(tmp_path):
    write_pgm(tmp_path / "a.pgm", np.zeros((2, 2)))
    write_pgm(tmp_path / "b.pgm", np.zeros((3, 3)))
    manifest = tmp_path / "m.csv"
    manifest.write_text("a.pgm,0\nb.pgm,1\n")
    with pytest.raises(DataError, match="b.pgm"):
        load_images(manifest)


def test_split_is_per_class_and_order_preserving(tmp_path):
    manifest = make_corpus(tmp_path, n0=12, n1=8)
    images = load_images(manifest)
    kept, held = split_images(images, test_per_class=3, seed=5)
    assert held.n == 6 and kept.n == 14
    assert (held.labels == 0).sum() == 3 and (held.labels == 1).sum() == 3
    assert set(kept.sources) | set(held.sources) == set(images.sources)
    assert set(kept.sources) & set(held.sources) == set()
    # original order survives inside each part
    order = {s: i for i, s in enumerate(images.sources)}
    assert [order[s] for s in kept.sources] == sorted(order[s] for s in kept.sources)
    # seeded: same split every time
    kept2, held2 = split_images(images, test_per_class=3, seed=5)
    assert held2.sources == held.sources
    _, held3 = split_images(images, test_per_class=3, seed=6)
    assert held3.sources != held.sources


def test_split_rejects_small_class(tmp_path):
    images = load_images(make_corpus(tmp_path, n0=4, n1=2))
    with pytest.raises(DataError):
        split_images(images, test_per_class=3, seed=0)


def test_split_refuses_a_negative_count(tmp_path):
    images = load_images(make_corpus(tmp_path, n0=4, n1=2))
    with pytest.raises(ConfigError, match="test_per_class must be >= 0, got -2"):
        split_images(images, -2, seed=0)


def test_augment_tops_up_classes(tmp_path):
    images = load_images(make_corpus(tmp_path, n0=6, n1=4))
    grown = augment_images(images, target_per_class=8, noise_sd=0.02, seed=1)
    assert grown.n == 16
    # originals untouched and first
    assert np.array_equal(grown.intensities[:10], images.intensities)
    assert grown.sources[:10] == images.sources
    # copies grouped by ascending class and tagged
    extra_labels = grown.labels[10:].tolist()
    assert extra_labels == [0, 0, 1, 1, 1, 1]
    assert all("#aug" in s for s in grown.sources[10:])
    assert grown.intensities.min() >= 0.0 and grown.intensities.max() <= 1.0


def test_augment_zero_noise_duplicates(tmp_path):
    images = load_images(make_corpus(tmp_path, n0=2, n1=1))
    grown = augment_images(images, target_per_class=3, noise_sd=0.0, seed=2)
    for i in range(images.n, grown.n):
        origin = grown.sources[i].split("#")[0]
        j = images.sources.index(origin)
        assert np.array_equal(grown.intensities[i], images.intensities[j])


# In the third case class 0 already holds the target, so only class 1 gains
# copies; the fourth draws the noise of its 8x8 images in blocks of 3 rows.
@pytest.mark.parametrize(
    "noise_sd, n0, limit",
    [(0.0, 5, None), (0.05, 5, None), (0.05, 9, None), (0.05, 5, 3 * 64)],
    ids=["0.0", "0.05", "0.05-class-0-full", "0.05-blocks-of-3-rows"],
)
def test_augment_fills_what_stacked_copies_give(tmp_path, monkeypatch, noise_sd, n0, limit):
    if limit is not None:
        monkeypatch.setattr(dataio, "GATHER_LIMIT", limit)
    images = load_images(make_corpus(tmp_path, n0=n0, n1=2, seed=3))
    grown = augment_images(images, target_per_class=9, noise_sd=noise_sd, seed=11)
    intensities, labels, sources = stacked_augment(images, 9, noise_sd, seed=11)
    assert grown.intensities.tobytes() == intensities.tobytes()
    assert grown.labels.tolist() == labels.tolist() and grown.sources == sources


def test_augment_to_a_target_every_class_meets_returns_its_input(tmp_path):
    images = load_images(make_corpus(tmp_path, n0=3, n1=3))
    assert augment_images(images, target_per_class=3, seed=1) is images


def test_augment_rejects_shrinking(tmp_path):
    images = load_images(make_corpus(tmp_path, n0=5, n1=2))
    with pytest.raises(DataError):
        augment_images(images, target_per_class=4)


@pytest.mark.parametrize("noise_sd", [-0.1, np.nan, np.inf])
def test_augment_rejects_a_negative_or_non_finite_noise_sd(tmp_path, noise_sd):
    images = load_images(make_corpus(tmp_path, n0=2, n1=1))
    with pytest.raises(DataError, match="noise sd must be a finite number >= 0"):
        augment_images(images, target_per_class=3, noise_sd=noise_sd)


def test_imageset_to_real_dataset(tmp_path):
    images = load_images(make_corpus(tmp_path, n0=2, n1=2, side=3))
    data = images.to_real_dataset()
    assert data.width == 9
    assert np.array_equal(data.response, images.labels)


def test_dataset_csv_round_trip_real(tmp_path):
    gen = np.random.default_rng(3)
    data = RealDataset(gen.random((20, 4)), gen.integers(0, 2, size=20))
    path = tmp_path / "d.csv"
    write_dataset_csv(path, data)
    header = path.read_text().splitlines()[0]
    assert header == "X1,X2,X3,X4,Y"
    back = read_dataset_csv(path)
    # repr round trip is bit exact
    assert np.array_equal(back.features, data.features)
    assert np.array_equal(back.response, data.response)


def test_dataset_csv_round_trip_discrete(tmp_path):
    train, _ = generate(ParityModelSpec(n_features=6, n_train=30, n_test=0, modules=(((0, 1), 1.0),)))
    path = tmp_path / "d.csv"
    write_dataset_csv(path, train)
    text = path.read_text().splitlines()
    assert text[1].split(",")[0] in ("0", "1")  # integers, not 0.0/1.0
    back = read_dataset_csv(path)
    assert np.array_equal(back.features.astype(np.int64), train.features)
    assert np.array_equal(back.response, train.response)


def test_dataset_csv_without_response(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("X1,X2\n0.5,0.25\n0.125,1.0\n")
    data = read_dataset_csv(path)
    assert data.width == 2
    assert data.response.tolist() == [0, 0]


@pytest.mark.parametrize(
    "content",
    [
        "",
        "X1,Y\n",
        "X1,Y\n0.5\n",
        "X1,Y\n0.5,2\n",
        "X1,Y\nabc,1\n",
        "\n\n",
    ],
)
def test_dataset_csv_errors(tmp_path, content):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(DataError):
        read_dataset_csv(path)


def test_blank_lines_anywhere_in_a_dataset_csv_are_skipped(tmp_path):
    gen = np.random.default_rng(4)
    write_dataset_csv(tmp_path / "d.csv", RealDataset(gen.random((6, 3)), gen.integers(0, 2, size=6)))
    blank = tmp_path / "blank.csv"
    blank.write_text(with_blank_lines((tmp_path / "d.csv").read_text()))
    plain, spaced = read_dataset_csv(tmp_path / "d.csv"), read_dataset_csv(blank)
    assert spaced.features.tobytes() == plain.features.tobytes()
    assert spaced.response.tobytes() == plain.response.tobytes()


def test_blank_lines_anywhere_in_a_manifest_are_skipped(tmp_path):
    manifest = make_corpus(tmp_path, n0=3, n1=2, side=4)
    blank = tmp_path / "blank.csv"
    blank.write_text(with_blank_lines(manifest.read_text()))
    plain, spaced = load_images(manifest), load_images(blank)
    assert spaced.intensities.tobytes() == plain.intensities.tobytes()
    assert spaced.labels.tobytes() == plain.labels.tobytes()
    assert (spaced.sources, spaced.grid) == (plain.sources, plain.grid)


def test_dataset_csv_messages_number_records_as_the_file_does(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("\nX1,Y\n\n0.5,2\n")
    with pytest.raises(DataError, match=re.escape("bad.csv:4: response must be 0 or 1, got 2.0")):
        read_dataset_csv(path)


# ---------------------------------------------------------------------------
# model bundles


def fitted_bundle(layers=True, rediscretizer="median"):
    train, _ = generate(ParityModelSpec(n_train=120, n_test=0, seed=4))
    data = RealDataset(train.features.astype(np.float64), train.response)
    if layers:
        config = PipelineConfig(
            discretizer="global:0.5",
            layers=(WindowSpec(window=2, stride=1), WindowSpec(window=2, stride=1)),
            rediscretizer=rediscretizer,
            features_mode="concat",
            hidden=5,
            hyper=TrainingHyper(epochs=2),
        )
    else:
        config = PipelineConfig(hyper=TrainingHyper(epochs=2), output_units=1)
    bundle, _ = fit_pipeline(config, data)
    return bundle, data


@pytest.mark.parametrize("layers", [True, False])
def test_bundle_round_trip_preserves_predictions(tmp_path, layers):
    bundle, data = fitted_bundle(layers)
    path = tmp_path / "model.bundle"
    save_bundle(bundle, path)
    loaded = load_bundle(path)
    a = predict_bundle(bundle, data.features)
    b = predict_bundle(loaded, data.features)
    assert np.array_equal(a, b)  # bitwise, not approximately
    assert loaded.features_mode == bundle.features_mode
    assert loaded.arch == bundle.arch
    assert loaded.hyper == bundle.hyper


def test_bundle_second_save_is_identical_bytes(tmp_path):
    bundle, _ = fitted_bundle()
    p1 = tmp_path / "one.bundle"
    p2 = tmp_path / "two.bundle"
    save_bundle(bundle, p1)
    save_bundle(load_bundle(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_bundle_stack_state_round_trips(tmp_path):
    bundle, _ = fitted_bundle()
    path = tmp_path / "model.bundle"
    save_bundle(bundle, path)
    loaded = load_bundle(path)
    assert len(loaded.stack.layers) == 2
    for la, lb in zip(bundle.stack.layers, loaded.stack.layers):
        assert la.spec == lb.spec
        assert la.input_grid == lb.input_grid
        for name in LAYER_ARRAYS:
            a, b = getattr(la, name), getattr(lb, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for da, db in zip(bundle.stack.rediscretizers, loaded.stack.rediscretizers):
        assert da.method == db.method
        assert da.param == db.param
        assert np.array_equal(da.thresholds, db.thresholds)


@pytest.mark.parametrize("spec, method, param", [("quantile:0.3", "quantile", 0.3), ("global:0.5", "global", 0.5)])
def test_parameterised_rediscretizer_fits_and_round_trips(tmp_path, spec, method, param):
    bundle, data = fitted_bundle(rediscretizer=spec)
    (redisc,) = bundle.stack.rediscretizers
    assert (redisc.method, redisc.param) == (method, param)
    path = tmp_path / "model.bundle"
    save_bundle(bundle, path)
    loaded = load_bundle(path)
    (back,) = loaded.stack.rediscretizers
    assert (back.method, back.param) == (method, param)
    assert back.thresholds.tobytes() == redisc.thresholds.tobytes()
    a = predict_bundle(bundle, data.features)
    assert a.tobytes() == predict_bundle(loaded, data.features).tobytes()


def first_replaced(arr, value):
    return np.concatenate([[value], arr[1:]]).astype(arr.dtype)


def replaced_at(arr, i, value):
    out = arr.copy()
    out[i] = value
    return out


def reversed_first_window(layer, arr):
    """A cell array with window 0's cells in reverse order."""
    n = layer.ncells[0]
    assert n > 1
    return np.concatenate([arr[:n][::-1], arr[n:]])


def first_subset_edited(layer, edit):
    """`subset_flat` with window 0's subset, of at least two indices, replaced by `edit` of it."""
    n = layer.subset_len[0]
    assert n > 1
    return np.concatenate([edit(layer.subset_flat[:n].copy()), layer.subset_flat[n:]])


# each case makes layer 0 unservable: its replacement arrays, and the
# complaint expected both when the layer is built and when the same arrays
# are written over a saved bundle, every checksum kept valid
BAD_LAYERS = {
    "subset index at the grid size": (
        lambda la: {"subset_flat": first_replaced(la.subset_flat, la.input_grid.size)},
        "subset index lies outside [0, 36)",
    ),
    "negative subset index": (
        lambda la: {"subset_flat": first_replaced(la.subset_flat, -1)},
        "subset index lies outside [0, 36)",
    ),
    "empty subset": (lambda la: {"subset_len": first_replaced(la.subset_len, 0)}, "outside 1..4"),
    "subset longer than the window": (
        lambda la: {"subset_len": first_replaced(la.subset_len, 5)},
        "outside 1..4",
    ),
    "subset lengths disagree with the subsets": (
        lambda la: {"subset_flat": la.subset_flat[:-1]},
        "subset lengths do not add up",
    ),
    "subset repeats an index": (
        lambda la: {"subset_flat": first_subset_edited(la, lambda sub: replaced_at(sub, 1, sub[0]))},
        "subset indices are not strictly ascending within a window",
    ),
    "subset indices out of order": (
        lambda la: {"subset_flat": first_subset_edited(la, lambda sub: sub[::-1])},
        "subset indices are not strictly ascending within a window",
    ),
    "cell counts disagree with the cells": (
        lambda la: {"cell_means": la.cell_means[:-1]},
        "cell counts do not add up",
    ),
    "window without cells": (
        lambda la: {"ncells": np.concatenate([[0, la.ncells[0] + la.ncells[1]], la.ncells[2:]])},
        "cell counts do not add up",
    ),
    "one window too few": (
        lambda la: {
            name: getattr(la, name)[:-1] for name in ("subset_len", "ncells", "fallback", "iscore", "auc")
        }
        | {
            "subset_flat": la.subset_flat[: -la.subset_len[-1]],
            "cell_keys": la.cell_keys[: -la.ncells[-1]],
            "cell_means": la.cell_means[: -la.ncells[-1]],
        },
        "24 windows where its geometry gives 25",
    ),
    "per-window arrays differ in length": (
        lambda la: {"iscore": la.iscore[:-1]},
        "per-window arrays differ in length",
    ),
    "level counts of the wrong grid": (
        lambda la: {"level_counts": la.level_counts[:-1]},
        "35 level counts for 36 columns",
    ),
    "float subset indices": (
        lambda la: {"subset_flat": la.subset_flat.astype(np.float64)},
        "subset_flat is not 1-d",
    ),
    "2-d cell keys": (
        lambda la: {"cell_keys": la.cell_keys[:, np.newaxis]},
        "cell_keys is not 1-d",
    ),
    "level count below 2": (
        lambda la: {"level_counts": first_replaced(la.level_counts, 1)},
        "a level count is below 2",
    ),
    "more cells than 64-bit keys hold": (
        lambda la: {"level_counts": np.full_like(la.level_counts, 2**32)},
        "more than 2**62 cells",
    ),
    "negative cell key": (
        lambda la: {"cell_keys": first_replaced(la.cell_keys, -5)},
        "a cell key lies outside its subset's cell range",
    ),
    "cell key at its subset's cell count": (
        lambda la: {"cell_keys": replaced_at(la.cell_keys, la.ncells[0] - 1, 2 ** la.subset_len[0])},
        "a cell key lies outside its subset's cell range",
    ),
    "first window's cells reversed": (
        lambda la: {
            "cell_keys": reversed_first_window(la, la.cell_keys),
            "cell_means": reversed_first_window(la, la.cell_means),
        },
        "cell keys are not strictly ascending within a window",
    ),
    "repeated cell key": (
        lambda la: {"cell_keys": replaced_at(la.cell_keys, 1, la.cell_keys[0])},
        "cell keys are not strictly ascending within a window",
    ),
    "cell mean above 1": (
        lambda la: {"cell_means": first_replaced(la.cell_means, 7.0)},
        "a cell mean or fallback is not a finite value in [0, 1]",
    ),
    "NaN cell mean": (
        lambda la: {"cell_means": first_replaced(la.cell_means, np.nan)},
        "a cell mean or fallback is not a finite value in [0, 1]",
    ),
    "infinite fallback": (
        lambda la: {"fallback": first_replaced(la.fallback, np.inf)},
        "a cell mean or fallback is not a finite value in [0, 1]",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_LAYERS))
def test_unservable_layer_is_refused_when_built(case):
    bundle, _ = fitted_bundle()
    arrays, complaint = BAD_LAYERS[case]
    layer = bundle.stack.layers[0]
    with pytest.raises(DataError, match=re.escape(complaint)):
        dataclasses.replace(layer, **arrays(layer))


@pytest.mark.parametrize("case", sorted(BAD_LAYERS))
def test_unservable_layer_is_refused_at_load(tmp_path, case):
    bundle, _ = fitted_bundle()
    arrays, complaint = BAD_LAYERS[case]
    path = tmp_path / "model.bundle"
    save_bundle(bundle, path)
    with_arrays(path, **{f"layer0/{name}": arr for name, arr in arrays(bundle.stack.layers[0]).items()})
    with pytest.raises(BundleFormatError, match=re.escape(f"{path}: layer 0: ") + ".*" + re.escape(complaint)):
        load_bundle(path)


def nan_at_first(arr):
    return first_replaced(arr.ravel(), np.nan).reshape(arr.shape)


class BadBundle(NamedTuple):
    build: Callable | None  # the bundle built in memory (None: the manifest alone can say it)
    manifest: dict  # manifest keys written over a saved bundle; None drops a key
    sections: Callable  # array sections written over a saved bundle
    complaint: str  # expected when built and at load
    error: type = DataError  # raised when built
    unsaid: str | None = None  # absent from the load error


# each case keeps every layer servable on its own but makes the parts of the
# bundle disagree, or gives it numbers it cannot serve
BAD_BUNDLES = {
    "first weight matrix one row short": BadBundle(
        lambda b: dataclasses.replace(b, weights=(b.weights[0][:-1], *b.weights[1:])),
        {},
        lambda b: {"clf/w0": b.weights[0][:-1]},
        "weight shapes differ from the architecture's [(41, 5), (5, 2)]",
    ),
    "classifier narrower than the stack": BadBundle(
        lambda b: dataclasses.replace(
            b, arch=dataclasses.replace(b.arch, input_width=40), weights=(b.weights[0][:-1], *b.weights[1:])
        ),
        {"arch_input": "40"},
        lambda b: {"clf/w0": b.weights[0][:-1]},
        "classifier input width 40, stack output 41",
    ),
    "concat classifier on the last layer's features": BadBundle(
        lambda b: dataclasses.replace(b, features_mode="last"),
        {"features_mode": "last"},
        lambda b: {},
        "classifier input width 41, stack output 16",
    ),
    "discretizer one threshold short": BadBundle(
        lambda b: dataclasses.replace(
            b, discretizer=dataclasses.replace(b.discretizer, thresholds=b.discretizer.thresholds[:-1])
        ),
        {},
        lambda b: {"disc/thresholds": b.discretizer.thresholds[:-1]},
        "the discretizer before layer 0 has 35 thresholds",
    ),
    "rediscretizer one threshold short": BadBundle(
        lambda b: dataclasses.replace(
            b,
            stack=dataclasses.replace(
                b.stack,
                rediscretizers=tuple(
                    dataclasses.replace(d, thresholds=d.thresholds[:-1]) for d in b.stack.rediscretizers
                ),
            ),
        ),
        {},
        lambda b: {"redisc0/thresholds": b.stack.rediscretizers[0].thresholds[:-1]},
        "the discretizer before layer 1 has 24 thresholds",
    ),
    "input grid other than the first layer's": BadBundle(
        lambda b: dataclasses.replace(b, input_grid=GridShape(7, 7)),
        {"input_rows": "7", "input_cols": "7"},
        lambda b: {},
        "input grid 7x7 differs from layer 0's",
    ),
    "unknown features mode": BadBundle(
        lambda b: dataclasses.replace(b, features_mode="bogus"),
        {"features_mode": "bogus"},
        lambda b: {},
        "features mode 'bogus' is not one of ('last', 'concat')",
    ),
    "window layers without a discretizer": BadBundle(
        lambda b: dataclasses.replace(b, discretizer=None),
        {"discretizer": None, "discretizer_param": None},
        lambda b: {},
        "bundle has window layers but no discretizer",
    ),
    "negative layer count": BadBundle(None, {"n_layers": "-1"}, lambda b: {}, "layer count -1 is negative"),
    "NaN discretizer thresholds": BadBundle(
        lambda b: dataclasses.replace(
            b, discretizer=dataclasses.replace(b.discretizer, thresholds=np.full(36, np.nan))
        ),
        {},
        lambda b: {"disc/thresholds": np.full(36, np.nan)},
        "discretizer thresholds must be finite",
        ConfigError,
        "manifest value",  # the thresholds are an array section
    ),
    "infinite rediscretizer threshold": BadBundle(
        lambda b: dataclasses.replace(
            b,
            stack=dataclasses.replace(
                b.stack,
                rediscretizers=tuple(
                    dataclasses.replace(d, thresholds=first_replaced(d.thresholds, np.inf))
                    for d in b.stack.rediscretizers
                ),
            ),
        ),
        {},
        lambda b: {"redisc0/thresholds": first_replaced(b.stack.rediscretizers[0].thresholds, np.inf)},
        "discretizer thresholds must be finite",
        ConfigError,
    ),
    "NaN discretizer parameter": BadBundle(
        lambda b: dataclasses.replace(b, discretizer=dataclasses.replace(b.discretizer, param=np.nan)),
        {"discretizer_param": "nan"},
        lambda b: {},
        "discretizer parameter must be finite, got nan",
        ConfigError,
    ),
    "NaN classifier weight": BadBundle(
        lambda b: dataclasses.replace(b, weights=(nan_at_first(b.weights[0]), *b.weights[1:])),
        {},
        lambda b: {"clf/w0": nan_at_first(b.weights[0])},
        "a classifier weight is not finite",
    ),
    "infinite classifier weight": BadBundle(
        lambda b: dataclasses.replace(b, weights=(b.weights[0], np.full_like(b.weights[1], -np.inf))),
        {},
        lambda b: {"clf/w1": np.full_like(b.weights[1], -np.inf)},
        "a classifier weight is not finite",
    ),
    # a 2x17 grid gives a 2x2 window 16 positions, as many as the real 5x5
    # input of layer 1, so only the chain tells the two apart
    "layer 1 on a grid other than layer 0's output": BadBundle(
        lambda b: dataclasses.replace(
            b,
            stack=dataclasses.replace(
                b.stack,
                layers=(
                    b.stack.layers[0],
                    dataclasses.replace(b.stack.layers[1], input_grid=GridShape(2, 17), level_counts=np.full(34, 2)),
                ),
            ),
        ),
        {"layer1_in_rows": "2", "layer1_in_cols": "17"},
        lambda b: {"layer1/level_counts": np.full(34, 2)},
        "layer 1's input grid 2x17 is not layer 0's output grid 5x5",
    ),
    "discretizer but no window layers": BadBundle(
        lambda b: dataclasses.replace(b, stack=None, input_grid=None),
        {"n_layers": "0", "input_rows": None, "input_cols": None},
        lambda b: {},
        "bundle has a discretizer or input grid but no window layers",
    ),
    "input grid but no window layers": BadBundle(
        lambda b: dataclasses.replace(b, stack=None, discretizer=None),
        {"n_layers": "0", "discretizer": None, "discretizer_param": None},
        lambda b: {},
        "bundle has a discretizer or input grid but no window layers",
    ),
    "manifest without a features mode": BadBundle(
        None, {"features_mode": None}, lambda b: {}, "manifest is missing 'features_mode'"
    ),
}


@pytest.mark.parametrize("case", sorted(name for name, bad in BAD_BUNDLES.items() if bad.build is not None))
def test_inconsistent_bundle_is_refused_when_built(case):
    bundle, _ = fitted_bundle()
    bad = BAD_BUNDLES[case]
    with pytest.raises(bad.error, match=re.escape(bad.complaint)):
        bad.build(bundle)


@pytest.mark.parametrize("case", sorted(BAD_BUNDLES))
def test_inconsistent_bundle_is_refused_at_load(tmp_path, case):
    bundle, _ = fitted_bundle()
    bad = BAD_BUNDLES[case]
    path = tmp_path / "model.bundle"
    save_bundle(bundle, path)
    with_manifest(path, **bad.manifest)
    with_arrays(path, **bad.sections(bundle))
    expected = re.escape(f"{path}: ") + ".*" + re.escape(bad.complaint)
    with pytest.raises(BundleFormatError, match=expected) as info:
        load_bundle(path)
    if bad.unsaid is not None:
        assert bad.unsaid not in str(info.value)


def test_discretizer_errors_at_load_name_the_discretizer(tmp_path):
    bundle, _ = fitted_bundle()
    path = tmp_path / "model.bundle"
    save_bundle(bundle, path)
    with_arrays(path, **{"disc/thresholds": np.full(36, np.nan)})
    with pytest.raises(BundleFormatError, match=re.escape(f"{path}: discretizer: discretizer thresholds")):
        load_bundle(path)
    save_bundle(bundle, path)
    with_manifest(path, redisc0_param="inf")
    expected = re.escape(f"{path}: redisc0: discretizer parameter must be finite")
    with pytest.raises(BundleFormatError, match=expected):
        load_bundle(path)


def test_array_dims_whose_int64_product_wraps_are_refused(tmp_path):
    bundle, _ = fitted_bundle()
    path = tmp_path / "model.bundle"
    save_bundle(bundle, path)

    def edit(name, kind, payload):
        # dims (2**32, 2**32) and no values: the int64 product of the dims is 0
        return kind, struct.pack("<B2Q", 2, 2**32, 2**32) if name == "clf/w0" else payload

    _rewrite_sections(path, edit)
    with pytest.raises(BundleFormatError, match="section clf/w0: array payload size mismatch") as info:
        load_bundle(path)
    assert "manifest" not in str(info.value)


@pytest.mark.parametrize(
    "section, complaint",
    [
        (None, "bundle is missing section clf/w2"),
        ((0, b"text"), "section clf/w0 is not an array"),
        ((1, b""), "section clf/w0: truncated array header"),
        ((1, struct.pack("<BQ", 2, 5)), "section clf/w0: truncated array dims"),
        ((1, struct.pack("<B2Q", 2, 2, 2) + bytes(8)), "section clf/w0: array payload size mismatch"),
    ],
    ids=["missing", "text", "no-header", "short-dims", "short-payload"],
)
def test_array_section_errors_name_the_bundle(tmp_path, section, complaint):
    bundle, _ = fitted_bundle()
    path = tmp_path / "model.bundle"
    save_bundle(bundle, path)
    if section is None:
        with_manifest(path, n_weights=str(len(bundle.weights) + 1))
    else:
        _rewrite_sections(path, lambda name, kind, payload: section if name == "clf/w0" else (kind, payload))
    with pytest.raises(BundleFormatError) as info:
        load_bundle(path)
    assert str(info.value).startswith(f"{path}: ")
    assert complaint in str(info.value)


def test_bundle_with_an_empty_stack_is_refused():
    bundle, _ = fitted_bundle()
    with pytest.raises(DataError, match="window stack with no layers"):
        dataclasses.replace(bundle, stack=ConvStack((), ()))


def test_fitted_and_loaded_bundles_refuse_in_place_writes(tmp_path):
    bundle, _ = fitted_bundle()
    path = tmp_path / "model.bundle"
    save_bundle(bundle, path)
    for b in (bundle, load_bundle(path)):
        layer = b.stack.layers[0]
        with pytest.raises(ValueError):
            layer.cell_means[0] = 7.0
        for each in b.stack.layers:
            for name in LAYER_ARRAYS:
                with pytest.raises(ValueError):
                    getattr(each, name)[0] = 0
        for weight in b.weights:
            with pytest.raises(ValueError):
                weight[0] = 0.0


def test_bundle_needs_one_rebinarizer_between_each_pair_of_layers():
    bundle, _ = fitted_bundle()
    with pytest.raises(DataError, match=re.escape("2 window layers with 0 re-binarizers")):
        dataclasses.replace(bundle, stack=dataclasses.replace(bundle.stack, rediscretizers=()))


def test_corrupted_payload_is_detected(tmp_path):
    bundle, _ = fitted_bundle()
    path = tmp_path / "model.bundle"
    save_bundle(bundle, path)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF  # inside the final section's checksum
    path.write_bytes(bytes(raw))
    with pytest.raises(BundleIntegrityError):
        load_bundle(path)


def test_newer_version_is_refused(tmp_path):
    bundle, _ = fitted_bundle()
    path = tmp_path / "model.bundle"
    save_bundle(bundle, path)
    raw = bytearray(path.read_bytes())
    raw[8] = 99  # little-endian format version right after the magic
    path.write_bytes(bytes(raw))
    with pytest.raises(BundleVersionError):
        load_bundle(path)


def test_truncated_bundle_is_refused(tmp_path):
    bundle, _ = fitted_bundle()
    path = tmp_path / "model.bundle"
    save_bundle(bundle, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises((BundleFormatError, BundleIntegrityError)):
        load_bundle(path)


def _with_a_latin1_manifest_byte(path):
    """Append a Latin-1 manifest line, keeping every CRC-32 valid."""

    def edit(name, kind, payload):
        return kind, payload + b"note=caf\xe9\n" if name == "manifest" else payload

    _rewrite_sections(path, edit)


def _with_a_bad_section_name(path):
    """Corrupt the name of section clf/w0, which no checksum covers."""
    path.write_bytes(path.read_bytes().replace(b"clf/w0", b"clf/\xff0", 1))


@pytest.mark.parametrize(
    "corrupt, complaint",
    [
        (_with_a_bad_section_name, "a section name is not UTF-8"),
        (_with_a_latin1_manifest_byte, "malformed manifest value: 'utf-8' codec can't decode"),
    ],
    ids=["section name", "manifest"],
)
def test_bundle_text_that_is_not_utf8_is_refused(tmp_path, capsys, corrupt, complaint):
    bundle, _ = fitted_bundle()
    path = tmp_path / "model.bundle"
    save_bundle(bundle, path)
    corrupt(path)
    with pytest.raises(BundleFormatError, match=re.escape(f"{path}: {complaint}")):
        load_bundle(path)
    assert main(["report", "--bundle", str(path)]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_wrong_magic_is_refused(tmp_path):
    path = tmp_path / "model.bundle"
    path.write_bytes(b"NOTABNDL" + bytes(64))
    with pytest.raises(BundleFormatError):
        load_bundle(path)


def test_imageset_validation():
    with pytest.raises(DataError):
        ImageSet(
            intensities=np.ones((2, 3)),
            labels=np.array([0, 1]),
            sources=("a", "b"),
            grid=GridShape(2, 2),
        )
    with pytest.raises(DataError):
        ImageSet(
            intensities=np.full((1, 4), 2.0),
            labels=np.array([0]),
            sources=("a",),
            grid=GridShape(2, 2),
        )
    with pytest.raises(DataError, match=re.escape("intensities must lie in [0, 1]")):
        ImageSet(
            intensities=np.array([[np.nan, 0.5]]),
            labels=np.array([1]),
            sources=("a",),
            grid=GridShape(1, 2),
        )


def hand_built_bundle():
    """A one-layer bundle with every number written out: a 3x3 grid and 2x2
    windows at stride 1, so no fit numerics are involved."""
    layer = FittedConvLayer(
        input_grid=GridShape(3, 3),
        spec=WindowSpec(2, 1),
        level_counts=np.full(9, 2, dtype=np.int64),
        subset_len=np.array([1, 2, 4, 1], dtype=np.int64),
        subset_flat=np.array([0, 1, 4, 3, 4, 6, 7, 8], dtype=np.int64),
        ncells=np.array([2, 3, 2, 1], dtype=np.int64),
        cell_keys=np.array([0, 1, 0, 2, 3, 5, 14, 1], dtype=np.int64),
        cell_means=np.array([0.25, 0.75, 0.0, 0.5, 1.0, 0.125, 0.875, 0.5]),
        fallback=np.full(4, 0.5),
        iscore=np.array([1.5, 0.25, 3.0, 0.0]),
        auc=np.array([0.75, 0.5, 0.875, np.nan]),
    )
    return ModelBundle(
        input_grid=GridShape(3, 3),
        discretizer=Discretizer("global", np.full(9, 0.5), 0.5),
        stack=ConvStack((layer,), ()),
        features_mode="last",
        arch=MlpArchitecture(4, 3, 2),
        weights=(np.arange(12).reshape(4, 3) / 8 - 0.5, np.arange(6).reshape(3, 2) / 4 - 0.75),
        hyper=TrainingHyper(learning_rate=0.01, epochs=3, seed=7),
    )


# SHA-256 of `save_bundle(hand_built_bundle(), ...)`: the format version 1
# bytes, section order, manifest keys and number spelling included
HAND_BUILT_SHA256 = "4b639784af8c013bcdb6e7ce9899b0609c907675a61d4cb0a91ad55802a69a5e"


def test_hand_built_bundle_bytes_are_pinned(tmp_path):
    bundle = hand_built_bundle()
    path = tmp_path / "model.bundle"
    save_bundle(bundle, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == HAND_BUILT_SHA256
    loaded = load_bundle(path)
    (la,), (lb,) = bundle.stack.layers, loaded.stack.layers
    assert (lb.input_grid, lb.spec) == (la.input_grid, la.spec)
    for name in LAYER_ARRAYS:
        a, b = getattr(la, name), getattr(lb, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    disc = loaded.discretizer
    assert (disc.method, disc.param) == ("global", 0.5)
    assert disc.thresholds.tobytes() == bundle.discretizer.thresholds.tobytes()
    assert [w.tobytes() for w in loaded.weights] == [w.tobytes() for w in bundle.weights]
    assert (loaded.input_grid, loaded.features_mode, loaded.arch, loaded.hyper) == (
        bundle.input_grid, bundle.features_mode, bundle.arch, bundle.hyper
    )
    assert loaded.stack.rediscretizers == ()


def test_numpy_scalar_settings_are_saved_as_python_numbers(tmp_path):
    """Settings held as numpy scalars write the pinned bytes, not a numpy repr
    such as 'np.float64(0.01)' that no loader could parse."""
    bundle = dataclasses.replace(
        hand_built_bundle(),
        discretizer=Discretizer("global", np.full(9, 0.5), np.float64(0.5)),
        hyper=TrainingHyper(learning_rate=np.float64(0.01), epochs=np.int64(3), seed=np.int64(7)),
    )
    path = tmp_path / "model.bundle"
    save_bundle(bundle, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == HAND_BUILT_SHA256
    assert load_bundle(path).hyper == hand_built_bundle().hyper

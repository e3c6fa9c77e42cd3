"""Image corpora, dataset CSVs, and byte-exact model bundle persistence."""

import dataclasses
import re

import numpy as np
import pytest
from oracles import with_manifest

from interconv import (
    BundleFormatError,
    BundleIntegrityError,
    BundleVersionError,
    DataError,
    GridShape,
    ImageSet,
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


@pytest.mark.parametrize(
    "content,match",
    [
        ("a.pgm,2\n", "label"),
        ("a.pgm\n", "path,label"),
        ("", "no images"),
        ("missing.pgm,0\n", "missing.pgm"),
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


def test_augment_rejects_shrinking(tmp_path):
    images = load_images(make_corpus(tmp_path, n0=5, n1=2))
    with pytest.raises(DataError):
        augment_images(images, target_per_class=4)


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
    ],
)
def test_dataset_csv_errors(tmp_path, content):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(DataError):
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


def with_first_layer(bundle, **arrays):
    """`bundle` with some arrays of its first window layer replaced."""
    first = dataclasses.replace(bundle.stack.layers[0], **arrays)
    stack = dataclasses.replace(bundle.stack, layers=(first, *bundle.stack.layers[1:]))
    return dataclasses.replace(bundle, stack=stack)


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


# each case leaves every checksum valid but the layer unservable: the
# replacement arrays of layer 0, and the complaint expected at load
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
def test_unservable_layer_is_refused_at_load(tmp_path, case):
    bundle, _ = fitted_bundle()
    arrays, complaint = BAD_LAYERS[case]
    bad = with_first_layer(bundle, **arrays(bundle.stack.layers[0]))
    path = tmp_path / "model.bundle"
    save_bundle(bad, path)
    with pytest.raises(BundleFormatError, match="layer 0: .*" + re.escape(complaint)):
        load_bundle(path)


# each case keeps every layer servable on its own but makes the parts of the
# bundle disagree: the replaced bundle, and the complaint expected at load
BAD_BUNDLES = {
    "first weight matrix one row short": (
        lambda b: dataclasses.replace(b, weights=(b.weights[0][:-1], *b.weights[1:])),
        "weight shapes differ from the architecture's [(41, 5), (5, 2)]",
    ),
    "classifier narrower than the stack": (
        lambda b: dataclasses.replace(
            b, arch=dataclasses.replace(b.arch, input_width=40), weights=(b.weights[0][:-1], *b.weights[1:])
        ),
        "classifier input width 40, stack output 41",
    ),
    "concat classifier on the last layer's features": (
        lambda b: dataclasses.replace(b, features_mode="last"),
        "classifier input width 41, stack output 16",
    ),
    "discretizer one threshold short": (
        lambda b: dataclasses.replace(
            b, discretizer=dataclasses.replace(b.discretizer, thresholds=b.discretizer.thresholds[:-1])
        ),
        "the discretizer before layer 0 has 35 thresholds",
    ),
    "rediscretizer one threshold short": (
        lambda b: dataclasses.replace(
            b,
            stack=dataclasses.replace(
                b.stack,
                rediscretizers=tuple(
                    dataclasses.replace(d, thresholds=d.thresholds[:-1]) for d in b.stack.rediscretizers
                ),
            ),
        ),
        "the discretizer before layer 1 has 24 thresholds",
    ),
    "input grid other than the first layer's": (
        lambda b: dataclasses.replace(b, input_grid=GridShape(7, 7)),
        "input grid 7x7 differs from layer 0's",
    ),
    "unknown features mode": (
        lambda b: dataclasses.replace(b, features_mode="bogus"),
        "features mode 'bogus' is not one of ('last', 'concat')",
    ),
    "window layers without a discretizer": (
        lambda b: dataclasses.replace(b, discretizer=None),
        "bundle has window layers but no discretizer",
    ),
    "negative layer count": (lambda b: b, "layer count -1 is negative"),
}
# manifest values no saved bundle carries, written over the saved file
BAD_MANIFESTS = {"negative layer count": {"n_layers": "-1"}}


@pytest.mark.parametrize("case", sorted(BAD_BUNDLES))
def test_inconsistent_bundle_is_refused_at_load(tmp_path, case):
    bundle, _ = fitted_bundle()
    replace, complaint = BAD_BUNDLES[case]
    path = tmp_path / "model.bundle"
    save_bundle(replace(bundle), path)
    if case in BAD_MANIFESTS:
        with_manifest(path, **BAD_MANIFESTS[case])
    with pytest.raises(BundleFormatError, match=re.escape(complaint)):
        load_bundle(path)


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

"""Refusals of outside input that no other test reaches: one case per
message, each matched with its error class, and for the CLI with its exit
code, no traceback and no output directory."""

import re
import struct

import numpy as np
import pytest
from conftest import binary_dataset
from oracles import with_manifest

from interconv import (
    BundleFormatError,
    BundleVersionError,
    ConfigError,
    DataError,
    Discretizer,
    GridShape,
    ImageSet,
    MlpArchitecture,
    ModelBundle,
    ParityModelSpec,
    RealDataset,
    TrainingHyper,
    UndefinedMetricError,
    WindowSpec,
    bce_loss,
    fit_layer,
    forward,
    init_model,
    load_bundle,
    load_images,
    read_dataset_csv,
    roc_curve,
    save_bundle,
    transform,
    write_pgm,
)
from interconv.cli import main


def flat_bundle(tmp_path):
    """A saved bundle with no window layers; returns its path."""
    arch = MlpArchitecture(2, None, 2)
    bundle = ModelBundle(None, None, None, "last", arch, (np.zeros((2, 2)),), TrainingHyper())
    path = tmp_path / "model.bundle"
    save_bundle(bundle, path)
    return path


def manifest_of(tmp_path, name, content):
    """A one-image manifest whose image file `name` holds `content` (text,
    or bytes written as they are; None writes no image)."""
    if isinstance(content, bytes):
        (tmp_path / name).write_bytes(content)
    elif content is not None:
        (tmp_path / name).write_text(content)
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"path,label\n{name},1\n")
    return manifest


def latin1(tmp_path, name, text):
    """`text` written as Latin-1, which is not UTF-8 once it holds an 'é'."""
    path = tmp_path / name
    path.write_bytes(text.encode("latin-1"))
    return path


def transform_too_wide(tmp_path):
    layer = fit_layer(binary_dataset(20, 9, seed=1), GridShape(3, 3), WindowSpec(2, 1))
    transform(layer, binary_dataset(20, 8, seed=2))


def only_a_response(tmp_path):
    (tmp_path / "d.csv").write_text("Y\n1\n")
    read_dataset_csv(tmp_path / "d.csv")


def truncated_section(tmp_path):
    path = flat_bundle(tmp_path)
    path.write_bytes(path.read_bytes()[:-10])  # inside the last section's payload
    load_bundle(path)


def no_manifest(tmp_path):
    path = tmp_path / "model.bundle"
    path.write_bytes(b"INTCONVB" + struct.pack("<II", 1, 0))
    load_bundle(path)


def newer_manifest_version(tmp_path):
    path = flat_bundle(tmp_path)
    with_manifest(path, format_version="2")
    load_bundle(path)


def model():
    return init_model(MlpArchitecture(3, None, 2))


LIBRARY = {
    "transform width": (transform_too_wide, DataError, "layer expects 9 columns, data has 8"),
    "real dataset 1-d": (
        lambda tmp: RealDataset(np.zeros(3), np.zeros(3, dtype=np.int64)),
        DataError, "features must be a non-empty 2-d array, got shape (3,)",
    ),
    "image sources": (
        lambda tmp: ImageSet(np.zeros((2, 4)), np.array([0, 1]), ("a",), GridShape(2, 2)),
        DataError, "1 sources for 2 images",
    ),
    "unreadable csv image": (
        lambda tmp: load_images(manifest_of(tmp, "a.csv", "1,x\n")),
        DataError, "a.csv: unreadable CSV image",
    ),
    "unreadable manifest": (
        lambda tmp: load_images(tmp / "absent.csv"), DataError, "cannot read manifest",
    ),
    "missing csv image": (
        lambda tmp: load_images(manifest_of(tmp, "a.csv", None)), DataError, "cannot read image",
    ),
    "csv image not utf-8": (
        lambda tmp: load_images(manifest_of(tmp, "a.csv", b"1,2\n\xe9,4\n")),
        DataError, "cannot read image",
    ),
    "manifest not utf-8": (
        lambda tmp: load_images(latin1(tmp, "m.csv", "path,label\ncafé.pgm,1\n")),
        DataError, "cannot read manifest",
    ),
    "dataset not utf-8": (
        lambda tmp: read_dataset_csv(latin1(tmp, "d.csv", "X1,Y\n1,0\n# é\n")),
        DataError, "cannot read dataset",
    ),
    "no feature columns": (only_a_response, DataError, "d.csv: dataset has no feature columns"),
    "truncated section": (truncated_section, BundleFormatError, "section manifest truncated"),
    "no manifest": (no_manifest, BundleFormatError, "bundle has no manifest"),
    "manifest version": (
        newer_manifest_version, BundleVersionError, "bundle format 2 is newer than supported 1",
    ),
    "discretizer method": (
        lambda tmp: Discretizer("mean", np.zeros(2)), ConfigError, "unknown discretizer method 'mean'",
    ),
    "metric lengths": (
        lambda tmp: roc_curve([0, 1, 1], [0.5, 0.5]),
        UndefinedMetricError, "labels (3,) and scores (2,) differ in length",
    ),
    "matrix width": (
        lambda tmp: forward(model(), np.zeros((2, 4))),
        DataError, "features of width 3 expected, got shape (2, 4)",
    ),
    "loss lengths": (
        lambda tmp: bce_loss([0, 1], [0.5]), DataError, "labels (2,) and probabilities (1,) differ in length",
    ),
    "synth seed": (lambda tmp: ParityModelSpec(seed=-1), ConfigError, "seed must be >= 0, got -1"),
    "empty module": (
        lambda tmp: ParityModelSpec(modules=(((), 0.5), ((0, 1), 0.5))),
        ConfigError, "parity modules must not be empty",
    ),
}


@pytest.mark.parametrize("case", list(LIBRARY))
def test_library_refusal(tmp_path, case):
    call, error, message = LIBRARY[case]
    with pytest.raises(error, match=re.escape(message)) as info:
        call(tmp_path)
    assert type(info.value) is error


# argv with {tmp} for the test's directory, where bad.cfg holds a line with
# no '=' and latin1.cfg is not UTF-8, and the message each run must print
# before it exits 2
CLI = {
    "config unreadable": (["fit", "--config", "{tmp}/absent.cfg"], "cannot read config"),
    "config not utf-8": (["fit", "--config", "{tmp}/latin1.cfg"], "cannot read config"),
    "config line": (["fit", "--config", "{tmp}/bad.cfg"], "bad.cfg:2: expected key=value, got 'oops'"),
    "grid": (["fit", "--set", "grid=six"], "grid must look like 6x6, got 'six'"),
    "layer parts": (["fit", "--set", "layers=2"], "layer spec must be window:stride[:start], got '2'"),
    "layer integers": (["fit", "--set", "layers=2:a"], "layer spec must be integers, got '2:a'"),
    "module mix": (["synth", "--set", "synth_modules=1,2"], "module spec needs indices:mix, got '1,2'"),
    "module spec": (["synth", "--set", "synth_modules=a:0.5"], "bad module spec 'a:0.5'"),
    "set": (["synth", "--set", "epochs"], "--set expects key=value, got 'epochs'"),
    "train and images": (
        ["fit", "--set", "train={tmp}/t.csv", "--set", "images={tmp}/m.csv"],
        "set either train= (CSV) or images= (manifest), not both",
    ),
    "no data": (["fit"], "fit needs train= (dataset CSV) or images= (manifest)"),
    "synth size": (["synth", "--set", "synth_train=-5"], "synth_train: n_train must be >= 1, got -5"),
    "synth features": (["synth", "--set", "synth_features=0"], "synth_features: n_features must be >= 1, got 0"),
    "synth test size": (["synth", "--set", "synth_test=-1"], "synth_test: n_test must be >= 0, got -1"),
    # each size is a valid array dimension, but 500 rows of 2**62 int64 values are no array
    "synth split past one array": (
        ["synth", "--set", "synth_features=4611686018427387904"],
        "synth_train: n_train must fit one int64 array with n_features, got 500 x 4611686018427387904",
    ),
}


@pytest.mark.parametrize("case", list(CLI))
def test_cli_refusal(tmp_path, capsys, case):
    argv, message = CLI[case]
    (tmp_path / "bad.cfg").write_text("seed = 1\noops\n")
    latin1(tmp_path, "latin1.cfg", "# café\nseed = 1\n")
    out = tmp_path / "out"
    assert main([a.format(tmp=tmp_path) for a in argv] + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "settings, message",
    [
        (["train={tmp}/latin1.csv"], "cannot read dataset {tmp}/latin1.csv"),
        (["train={tmp}/d.csv", "val={tmp}/latin1.csv"], "cannot read dataset {tmp}/latin1.csv"),
        (["images={tmp}/latin1.csv"], "cannot read manifest {tmp}/latin1.csv"),
    ],
    ids=["train", "val", "images"],
)
def test_fit_data_that_is_not_utf8_exits_3(tmp_path, capsys, settings, message):
    (tmp_path / "d.csv").write_text("X1,X2,Y\n0.1,0.2,0\n0.3,0.4,1\n")
    latin1(tmp_path, "latin1.csv", "path,label\ncafé.pgm,1\n")
    out = tmp_path / "out"
    argv = ["fit", "--out", str(out)]
    for setting in settings:
        argv += ["--set", setting.format(tmp=tmp_path)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert message.format(tmp=tmp_path) in captured.err
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_fit_refuses_a_negative_p2_sample_and_exits_3(tmp_path, capsys):
    (tmp_path / "a.pgm").write_bytes(b"P2\n2 2\n255\n0 9 9 9\n")
    (tmp_path / "b.pgm").write_bytes(b"P2\n2 2\n255\n0 9 -1 9\n")
    (tmp_path / "m.csv").write_text("path,label\na.pgm,0\nb.pgm,1\n")
    out = tmp_path / "out"
    assert main(["fit", "--out", str(out), "--set", f"images={tmp_path / 'm.csv'}"]) == 3
    captured = capsys.readouterr()
    assert f"{tmp_path / 'b.pgm'}: negative pixel value in P2 raster" in captured.err
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_fit_refuses_a_p2_sample_past_int64_and_exits_3(tmp_path, capsys):
    (tmp_path / "a.pgm").write_bytes(b"P2\n2 2\n255\n0 9 9 9\n")
    (tmp_path / "b.pgm").write_bytes(b"P2\n2 2\n255\n0 9 9223372036854775808 9\n")
    (tmp_path / "m.csv").write_text("path,label\na.pgm,0\nb.pgm,1\n")
    out = tmp_path / "out"
    assert main(["fit", "--out", str(out), "--set", f"images={tmp_path / 'm.csv'}"]) == 3
    captured = capsys.readouterr()
    assert f"{tmp_path / 'b.pgm'}: pixel exceeds declared maxval 255" in captured.err
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert not out.exists()


def write_table(path, width, rows=12):
    """A dataset CSV of `width` random columns and an alternating Y."""
    gen = np.random.default_rng(width)
    lines = [",".join([f"X{j + 1}" for j in range(width)] + ["Y"])]
    lines += [",".join([*map(str, gen.random(width).tolist()), str(i % 2)]) for i in range(rows)]
    path.write_text("\n".join(lines) + "\n")


def one_class_images(tmp_path):
    """A manifest of six 6x6 PGM images, all of class 1."""
    gen = np.random.default_rng(6)
    for i in range(6):
        write_pgm(tmp_path / f"im{i}.pgm", gen.random((6, 6)))
    (tmp_path / "m.csv").write_text("path,label\n" + "".join(f"im{i}.pgm,1\n" for i in range(6)))


# per case: the fit settings, with {tmp} for the test's directory where t36.csv
# and t16.csv hold 36 and 16 columns and m.csv lists six class-1 images; the
# message; the exit code. Each is refused before the output directory exists.
FIT_BEFORE_OUTPUT = {
    "window past the subset limit": (
        ["train={tmp}/t36.csv", "layers=6:1", "discretizer=global:0.5"],
        "window 6x6 exceeds the subset limit of 25 pixels", 2,
    ),
    "validation rows of another width": (
        ["train={tmp}/t36.csv", "val={tmp}/t16.csv", "layers=2:1"],
        "validation data width does not match training data", 3,
    ),
    "one-class held-out split": (
        ["images={tmp}/m.csv", "test_per_class=2", "layers=2:1"],
        "every held-out image is of class 1; evaluation needs both classes", 3,
    ),
}


@pytest.mark.parametrize("case", list(FIT_BEFORE_OUTPUT))
def test_fit_refuses_before_any_output(tmp_path, capsys, case):
    settings, message, code = FIT_BEFORE_OUTPUT[case]
    write_table(tmp_path / "t36.csv", 36)
    write_table(tmp_path / "t16.csv", 16)
    one_class_images(tmp_path)
    out = tmp_path / "out"
    argv = ["fit", "--out", str(out)]
    for setting in settings:
        argv += ["--set", setting.format(tmp=tmp_path)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message, code",
    [
        (["predict", "--data", "{tmp}/absent.csv"], "cannot read {tmp}/absent.csv", 3),
        *(
            ([command, "--data", "{tmp}/latin1.csv"], "cannot read {tmp}/latin1.csv", 3)
            for command in ("predict", "eval", "transform", "export-maps")
        ),
        (["export-maps", "--data", "{tmp}/d.csv", "--rows", "1,b"],
         "--rows expects comma-separated integers, got '1,b'", 2),
        (["export-maps", "--data", "{tmp}/d.csv", "--rows", "3"], "row 3 out of range (data has 2 rows)", 3),
    ],
    ids=[
        "data unreadable", "predict data not utf-8", "eval data not utf-8",
        "transform data not utf-8", "export-maps data not utf-8", "rows", "row range",
    ],
)
def test_bundle_subcommand_refusal(tmp_path, capsys, argv, message, code):
    (tmp_path / "d.csv").write_text("X1,X2,Y\n0.1,0.2,0\n0.3,0.4,1\n")
    latin1(tmp_path, "latin1.csv", "X1,X2,Y\n0.1,0.2,0\n# é\n")
    out = tmp_path / "out"
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--bundle", str(flat_bundle(tmp_path)), "--out", str(out)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert message.format(tmp=tmp_path) in captured.err
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert not out.exists()

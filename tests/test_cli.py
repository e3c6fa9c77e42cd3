"""Subcommand round trips through main(), including exit codes and the
worker-count determinism guarantee."""

import argparse
import csv
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import with_blank_lines
from oracles import with_arrays, with_manifest

from interconv import (
    DataError,
    GridShape,
    ParityModelSpec,
    PipelineConfig,
    load_bundle,
    predict_bundle,
    read_dataset_csv,
    read_pgm,
    save_bundle,
    write_pgm,
)
from interconv.cli import DEFAULTS, build_parser, build_pipeline_config, build_synth_spec, main, resolve_config


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def synth_dir(tmp_path, capsys):
    out = tmp_path / "data"
    code, _, _ = run(
        capsys,
        "synth",
        "--out", str(out),
        "--set", "synth_train=150",
        "--set", "synth_test=120",
        "--seed", "3",
    )
    assert code == 0
    return out


@pytest.fixture
def fit_dir(tmp_path, synth_dir, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run(
        capsys,
        "fit",
        "--out", str(out),
        "--set", f"train={synth_dir / 'train.csv'}",
        "--set", "discretizer=global:0.5",
        "--set", "layers=2:1",
        "--set", "epochs=4",
    )
    assert code == 0
    assert "geometry: 6x6 -> 5x5" in stdout
    assert "parameters: 50" in stdout
    return out


def test_synth_writes_files_and_rates(synth_dir, capsys):
    train = (synth_dir / "train.csv").read_text().splitlines()
    assert train[0] == ",".join(f"X{j}" for j in range(1, 37)) + ",Y"
    assert len(train) == 151
    assert len((synth_dir / "test.csv").read_text().splitlines()) == 121
    resolved = (synth_dir / "resolved.cfg").read_text()
    assert "seed = 3" in resolved
    assert "synth_train = 150" in resolved
    assert "generator" in resolved


def test_synth_stdout_reports_theoretical_rates(tmp_path, capsys):
    code, stdout, _ = run(
        capsys, "synth", "--out", str(tmp_path / "s"), "--set", "synth_test=0"
    )
    assert code == 0
    assert "module 1 (X1 X2, mix 0.5): theoretical rate 0.75" in stdout
    assert "best theoretical rate: 0.75" in stdout


def test_fit_outputs(fit_dir):
    for name in ("model.bundle", "report.txt", "loss.csv", "windows.csv", "resolved.cfg"):
        assert (fit_dir / name).exists(), name
    report = (fit_dir / "report.txt").read_text()
    assert "geometry: 6x6 -> 5x5" in report
    assert len((fit_dir / "loss.csv").read_text().splitlines()) == 5  # header + 4 epochs


def test_predict_eval_transform_report(tmp_path, synth_dir, fit_dir, capsys):
    bundle = str(fit_dir / "model.bundle")
    test_csv = str(synth_dir / "test.csv")

    out_p = tmp_path / "pred"
    code, stdout, _ = run(capsys, "predict", "--bundle", bundle, "--data", test_csv, "--out", str(out_p))
    assert code == 0
    lines = (out_p / "predictions.csv").read_text().splitlines()
    assert lines[0] == "row,source,score"
    assert len(lines) == 121
    scores = [float(l.split(",")[2]) for l in lines[1:]]
    assert all(0.0 <= s <= 1.0 for s in scores)

    out_e = tmp_path / "eval"
    code, stdout, _ = run(capsys, "eval", "--bundle", bundle, "--data", test_csv, "--out", str(out_e))
    assert code == 0
    assert "auc=" in stdout
    assert (out_e / "roc.csv").exists()
    metrics = (out_e / "metrics.txt").read_text()
    assert "n = 120" in metrics and "auc = " in metrics

    out_t = tmp_path / "feat"
    code, stdout, _ = run(capsys, "transform", "--bundle", bundle, "--data", test_csv, "--out", str(out_t))
    assert code == 0
    header = (out_t / "features.csv").read_text().splitlines()[0]
    assert header == ",".join(f"X{j}" for j in range(1, 26)) + ",Y"

    code, stdout, _ = run(capsys, "report", "--bundle", bundle)
    assert code == 0
    assert "geometry: 6x6 -> 5x5" in stdout
    assert "strongest windows" in stdout


def test_predictions_csv_scores_read_back_bitwise(tmp_path, synth_dir, fit_dir, capsys):
    out = tmp_path / "pred"
    code, _, _ = run(
        capsys,
        "predict",
        "--bundle", str(fit_dir / "model.bundle"),
        "--data", str(synth_dir / "test.csv"),
        "--out", str(out),
    )
    assert code == 0
    with open(out / "predictions.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    bundle = load_bundle(fit_dir / "model.bundle")
    expected = predict_bundle(bundle, read_dataset_csv(synth_dir / "test.csv").features)
    assert [r["row"] for r in rows] == [str(i) for i in range(1, len(expected) + 1)]
    assert {r["source"] for r in rows} == {""}
    assert np.array([float(r["score"]) for r in rows]).tobytes() == expected.tobytes()


def test_export_maps_names_and_content(tmp_path, synth_dir, fit_dir, capsys):
    out = tmp_path / "maps"
    code, stdout, _ = run(
        capsys,
        "export-maps",
        "--bundle", str(fit_dir / "model.bundle"),
        "--data", str(synth_dir / "test.csv"),
        "--rows", "1,3",
        "--out", str(out),
    )
    assert code == 0
    files = sorted(p.name for p in out.glob("*.pgm"))
    assert len(files) == 2
    assert files[0].startswith("row0001_layer1_p")
    assert files[1].startswith("row0003_layer1_p")
    img = read_pgm(out / files[0])
    assert img.shape == (5, 5)


def test_export_maps_defaults_to_the_first_ten_rows(tmp_path, synth_dir, fit_dir, capsys):
    out = tmp_path / "maps"
    code, stdout, _ = run(
        capsys,
        "export-maps",
        "--bundle", str(fit_dir / "model.bundle"),
        "--data", str(synth_dir / "test.csv"),
        "--out", str(out),
    )
    assert code == 0
    assert stdout == f"wrote 10 maps to {out}\n"
    assert sorted(p.name[:14] for p in out.glob("*.pgm")) == [f"row{r:04d}_layer1" for r in range(1, 11)]


def test_report_with_out_writes_report_txt(tmp_path, fit_dir, capsys):
    out = tmp_path / "rep"
    code, stdout, _ = run(capsys, "report", "--bundle", str(fit_dir / "model.bundle"), "--out", str(out))
    assert code == 0
    assert stdout == f"wrote {out / 'report.txt'}\n"
    code, printed, _ = run(capsys, "report", "--bundle", str(fit_dir / "model.bundle"))
    assert (out / "report.txt").read_text(encoding="utf-8") == printed


def test_train_subcommand_flat_only(tmp_path, synth_dir, capsys):
    out = tmp_path / "flat"
    code, stdout, _ = run(
        capsys,
        "train",
        "--out", str(out),
        "--set", f"train={synth_dir / 'train.csv'}",
        "--set", "epochs=2",
    )
    assert code == 0
    assert (out / "model.bundle").exists()
    code, _, err = run(
        capsys,
        "train",
        "--out", str(tmp_path / "flat2"),
        "--set", f"train={synth_dir / 'train.csv'}",
        "--set", "layers=2:1",
    )
    assert code == 2
    assert "train subcommand" in err


def test_config_file_and_set_precedence(tmp_path, synth_dir, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# pipeline settings\n"
        f"train = {synth_dir / 'train.csv'}\n"
        "discretizer = global:0.5\n"
        "layers = 2:1\n"
        "epochs = 3\n"
        "seed = 1\n"
    )
    out = tmp_path / "cfgrun"
    code, _, _ = run(
        capsys, "fit", "--config", str(cfg), "--set", "epochs=2", "--out", str(out)
    )
    assert code == 0
    resolved = (out / "resolved.cfg").read_text()
    assert "epochs = 2" in resolved  # --set beats the file
    assert "seed = 1" in resolved
    assert len((out / "loss.csv").read_text().splitlines()) == 3


def test_a_bom_config_keeps_its_first_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("synth_train = 7\nsynth_test = 0\n", encoding="utf-8-sig")
    out = tmp_path / "bomrun"
    code, _, err = run(capsys, "synth", "--config", str(cfg), "--out", str(out))
    assert code == 0, err
    assert "synth_train = 7" in (out / "resolved.cfg").read_text().splitlines()
    assert len((out / "train.csv").read_text().splitlines()) == 8


def bom_corpus(tmp_path):
    """Eight 6x6 PGM images listed twice: by a plain manifest and by the
    same manifest with a leading UTF-8 BOM. Returns (plain, bom)."""
    gen = np.random.default_rng(5)
    rows = []
    for i in range(8):
        write_pgm(tmp_path / f"im{i}.pgm", gen.random((6, 6)))
        rows.append(f"im{i}.pgm,{i % 2}")
    text = "path,label\n" + "\n".join(rows) + "\n"
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(text, encoding="utf-8")
    bom.write_text(text, encoding="utf-8-sig")
    return plain, bom


def test_a_bom_manifest_fits_through_images(tmp_path, capsys):
    bundles = []
    for manifest in bom_corpus(tmp_path):
        out = tmp_path / f"fit_{manifest.stem}"
        code, _, err = run(
            capsys, "fit", "--out", str(out), "--set", f"images={manifest}",
            "--set", "layers=2:1", "--set", "epochs=2",
        )
        assert code == 0, err
        bundles.append((out / "model.bundle").read_bytes())
    assert bundles[1] == bundles[0]


def test_predict_recognises_a_bom_manifest(tmp_path, capsys):
    plain, bom = bom_corpus(tmp_path)
    fit = tmp_path / "fit"
    code, _, err = run(capsys, "fit", "--out", str(fit), "--set", f"images={plain}", "--set", "layers=2:1")
    assert code == 0, err
    predictions = []
    for manifest in (plain, bom):
        out = tmp_path / f"pred_{manifest.stem}"
        code, _, err = run(
            capsys, "predict", "--bundle", str(fit / "model.bundle"), "--data", str(manifest), "--out", str(out)
        )
        assert code == 0, err
        predictions.append((out / "predictions.csv").read_bytes())
    assert predictions[1] == predictions[0]
    assert predictions[0].splitlines()[1].split(b",")[1] == b"im0.pgm"


def blank_lined_copy(path):
    """A copy of `path` with blank lines before, inside and after its records."""
    blank = path.with_name(f"blank_{path.name}")
    blank.write_text(with_blank_lines(path.read_text()))
    return blank


def test_fit_reads_train_and_val_files_with_blank_lines(tmp_path, synth_dir, capsys):
    bundles = []
    for name in (lambda p: p, blank_lined_copy):
        out = tmp_path / f"fit_{len(bundles)}"
        code, _, err = run(
            capsys, "fit", "--out", str(out), "--set", "layers=2:1", "--set", "epochs=2",
            "--set", f"train={name(synth_dir / 'train.csv')}", "--set", f"val={name(synth_dir / 'test.csv')}",
        )
        assert code == 0, err
        bundles.append((out / "model.bundle").read_bytes())
    assert bundles[1] == bundles[0]


def test_predict_reads_data_with_blank_lines(tmp_path, synth_dir, fit_dir, capsys):
    plain, _ = bom_corpus(tmp_path)
    images = tmp_path / "images"
    code, _, err = run(capsys, "fit", "--out", str(images), "--set", f"images={plain}", "--set", "layers=2:1")
    assert code == 0, err
    for run_dir, data in ((fit_dir, synth_dir / "test.csv"), (images, plain)):
        predictions = []
        for path in (data, blank_lined_copy(data)):
            out = tmp_path / f"pred_{path.stem}"
            code, _, err = run(
                capsys, "predict", "--bundle", str(run_dir / "model.bundle"), "--data", str(path), "--out", str(out)
            )
            assert code == 0, err
            predictions.append((out / "predictions.csv").read_bytes())
        assert predictions[1] == predictions[0]


def test_synth_modules_skip_empty_entries(tmp_path, capsys):
    written = []
    for modules in ("1,2:0.5;3,4,5:0.5", "1,2:0.5;;3,4,5:0.5"):
        out = tmp_path / f"synth_{len(written)}"
        code, _, err = run(capsys, "synth", "--out", str(out), "--set", f"synth_modules={modules}")
        assert code == 0, err
        written.append((out / "train.csv").read_bytes())
    assert written[1] == written[0]


def test_cli_defaults_are_the_library_defaults():
    args = build_parser().parse_args(["fit", "--out", "x"])
    config = build_pipeline_config(resolve_config(args))
    library = PipelineConfig()
    for field in dataclasses.fields(PipelineConfig):
        assert getattr(config, field.name) == getattr(library, field.name), field.name
    synth_args = build_parser().parse_args(["synth", "--out", "x"])
    assert build_synth_spec(resolve_config(synth_args)) == ParityModelSpec()


def test_readme_configuration_table_lists_every_key_with_its_default():
    """README's table row by row: `train` and `val` share a row, and
    `synth_*` stands for the four generator keys, whose defaults it leaves
    to `synth --help`."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | default | meaning |\n|-----|---------|---------|\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for row in table.splitlines():
        names, default, _ = (cell.strip() for cell in row.strip("|").split("|"))
        for key in re.findall(r"`([^`]+)`", names):
            listed[key] = default.strip("`")
    generator = ("synth_features", "synth_train", "synth_test", "synth_modules")
    assert listed.pop("synth_*") == ""
    assert set(listed) | set(generator) == set(DEFAULTS)
    assert len(listed) + len(generator) == len(DEFAULTS)
    for key, default in listed.items():
        assert default == DEFAULTS[key], key


# per option: flags, help text, default, required, type and metavar, in
# the order `--help` lists them
CONFIG_OPTIONS = [
    ("--config", "key=value configuration file", None, False, None, None),
    ("--set", "override one config key (repeatable)", None, False, None, "KEY=VALUE"),
    ("--seed", "override the seed key", None, False, int, None),
    ("--workers", "override the workers key (no effect)", None, False, int, None),
]
BUNDLE = ("--bundle", None, None, True, None, None)
DATA = ("--data", None, None, True, None, None)
OUT = ("--out", None, None, True, None, None)
HELP = {
    "synth": ("generate the synthetic parity benchmark",
              [*CONFIG_OPTIONS, ("--out", "output directory", None, True, None, None)]),
    "fit": ("fit the full pipeline and save a model bundle", [*CONFIG_OPTIONS, OUT]),
    "train": ("train a classifier on flat features (no window layers)", [*CONFIG_OPTIONS, OUT]),
    "transform": ("apply a bundle's window stack to data",
                  [BUNDLE, ("--data", "dataset CSV or image manifest", None, True, None, None), OUT]),
    "predict": ("score rows with a fitted bundle", [BUNDLE, DATA, OUT]),
    "eval": ("ROC/AUC evaluation of a bundle on labeled data",
             [BUNDLE, DATA, OUT, ("--threshold", None, 0.5, False, float, None)]),
    "export-maps": ("write per-layer feature maps as PGM images",
                    [BUNDLE, DATA, OUT,
                     ("--rows", "comma-separated 1-based rows (default: first 10)", None, False, None, None)]),
    "report": ("print the fit report stored in a bundle",
               [BUNDLE, ("--out", "optional output directory", None, False, None, None)]),
}


def test_subcommand_help_is_pinned():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(HELP)
    assert [a.help for a in sub._choices_actions] == [text for text, _ in HELP.values()]
    for name, (_, options) in HELP.items():
        actions = [a for a in sub.choices[name]._actions if not isinstance(a, argparse._HelpAction)]
        listed = [(*a.option_strings, a.help, a.default, a.required, a.type, a.metavar) for a in actions]
        assert listed == options, name


def test_unknown_config_key_exits_2(tmp_path, capsys):
    code, _, err = run(
        capsys, "synth", "--out", str(tmp_path / "x"), "--set", "bogus=1"
    )
    assert code == 2
    assert "bogus" in err


@pytest.mark.parametrize(
    "setting",
    [
        "hidden=abc",
        "test_per_class=two",
        "augment_per_class=1.5",
        "noise_sd=high",
        "seed=-1",
        "test_per_class=-2",
        "augment_per_class=-3",
        "learning_rate=inf",
        "learning_rate=nan",
        "decay=nan",
        "noise_sd=nan",
        "noise_sd=inf",
        "noise_sd=-1",
        "discretizer=global:nan",
        "discretizer=global:-inf",
        "hidden=0",
        "hidden=-1",
        "output_units=3",
    ],
)
def test_bad_numeric_value_exits_2(tmp_path, capsys, setting):
    manifest = tmp_path / "manifest.csv"
    for i in range(4):
        write_pgm(tmp_path / f"im{i}.pgm", np.full((4, 4), i / 4))
    manifest.write_text("path,label\n" + "".join(f"im{i}.pgm,{i % 2}\n" for i in range(4)))
    code, _, err = run(
        capsys,
        "fit",
        "--out", str(tmp_path / "x"),
        "--set", f"images={manifest}",
        "--set", "test_per_class=1",
        "--set", "augment_per_class=3",
        "--set", setting,
    )
    assert code == 2
    assert setting.split("=")[0] in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "command, setting",
    [
        ("fit", "noise_sd=nan"),
        ("fit", "noise_sd=-1"),
        ("fit", "test_per_class=abc"),
        ("fit", "test_per_class=-2"),
        ("fit", "synth_train=-5"),
        ("synth", "epochs=abc"),
    ],
)
def test_every_subcommand_checks_every_config_key(tmp_path, capsys, synth_dir, command, setting):
    # none of these keys is read by the subcommand's own work
    out = tmp_path / "x"
    train = ["--set", f"train={synth_dir / 'train.csv'}"] if command == "fit" else []
    code, stdout, err = run(capsys, command, "--out", str(out), *train, "--set", setting)
    assert code == 2
    assert stdout == ""
    assert "Traceback" not in err
    assert not out.exists()


def test_negative_synth_seed_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "synth", "--out", str(tmp_path / "x"), "--seed", "-1")
    assert code == 2
    assert "seed" in err
    assert not (tmp_path / "x").exists()


def test_synth_size_past_an_array_dimension_exits_2(tmp_path, capsys):
    # refused from the value alone: nothing of that size is ever drawn
    code, out, err = run(
        capsys, "synth", "--out", str(tmp_path / "x"), "--set", "synth_features=99999999999999999999"
    )
    assert code == 2
    assert f"synth_features: n_features must be at most {np.iinfo(np.intp).max}" in err
    assert "Traceback" not in err
    assert out == ""
    assert not (tmp_path / "x").exists()


def test_synth_module_index_outside_the_features_exits_2(tmp_path, capsys):
    code, out, err = run(
        capsys,
        "synth",
        "--out", str(tmp_path / "x"),
        "--set", "synth_features=6",
        "--set", "synth_modules=1,40:1",
    )
    assert code == 2
    assert "module 1" in err
    assert "Traceback" not in err
    assert out == ""
    assert not (tmp_path / "x").exists()


def test_nan_mixture_weight_exits_2(tmp_path, capsys):
    code, _, err = run(
        capsys, "synth", "--out", str(tmp_path / "x"), "--set", "synth_modules=1,2:nan;3,4:1"
    )
    assert code == 2
    assert "mixture" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_missing_train_file_exits_3(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "fit",
        "--out", str(tmp_path / "x"),
        "--set", "train=/nonexistent/data.csv",
    )
    assert code == 3


def test_diverging_fit_exits_4(tmp_path, synth_dir, capsys):
    out = tmp_path / "big_step"
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, err = run(
            capsys,
            "train",
            "--out", str(out),
            "--set", f"train={synth_dir / 'train.csv'}",
            "--set", "learning_rate=1e307",
            "--set", "epochs=3",
        )
    assert code == 4
    assert "learning_rate" in err
    assert (out / "resolved.cfg").exists()  # written before training starts


def test_a_stride_past_int64_fits_one_window(tmp_path, synth_dir, capsys):
    """A stride past the axis is a valid spec with one window per axis, also
    past int64, where building the window corners used to overflow."""
    code, stdout, _ = run(
        capsys,
        "fit",
        "--out", str(tmp_path / "o"),
        "--set", f"train={synth_dir / 'train.csv'}",
        "--set", "layers=2:9223372036854775808",
        "--set", "discretizer=global:0.5",
        "--set", "epochs=1",
    )
    assert code == 0
    assert "geometry: 6x6 -> 1x1" in stdout


def test_bad_geometry_exits_2_without_outputs(tmp_path, synth_dir, capsys):
    out = tmp_path / "geo"
    code, _, err = run(
        capsys,
        "fit",
        "--out", str(out),
        "--set", f"train={synth_dir / 'train.csv'}",
        "--set", "layers=9:1",
    )
    assert code == 2
    assert not out.exists()  # validated before any file is created


def test_corrupt_bundle_exits_3(tmp_path, synth_dir, fit_dir, capsys):
    bad = tmp_path / "bad.bundle"
    raw = bytearray((fit_dir / "model.bundle").read_bytes())
    raw[-1] ^= 0xFF
    bad.write_bytes(bytes(raw))
    code, _, err = run(
        capsys,
        "predict",
        "--bundle", str(bad),
        "--data", str(synth_dir / "test.csv"),
        "--out", str(tmp_path / "p"),
    )
    assert code == 3
    assert "checksum" in err or "corrupt" in err


def predict_exit(capsys, tmp_path, synth_dir, bundle):
    return run(
        capsys,
        "predict",
        "--bundle", str(bundle),
        "--data", str(synth_dir / "test.csv"),
        "--out", str(tmp_path / "p"),
    )


def copied_bundle(tmp_path, fit_dir):
    bad = tmp_path / "bad.bundle"
    bad.write_bytes((fit_dir / "model.bundle").read_bytes())
    return bad


def assert_predict_refuses_layer0(tmp_path, synth_dir, fit_dir, capsys, subset_flat, complaint):
    """Layer 0 with `subset_flat` is refused when built, and as a saved bundle at
    `predict --bundle` with exit 3, no traceback and no output."""
    layer = load_bundle(fit_dir / "model.bundle").stack.layers[0]
    with pytest.raises(DataError, match=complaint):
        dataclasses.replace(layer, subset_flat=subset_flat)
    bad = copied_bundle(tmp_path, fit_dir)
    with_arrays(bad, **{"layer0/subset_flat": subset_flat})
    code, _, err = predict_exit(capsys, tmp_path, synth_dir, bad)
    assert code == 3
    assert complaint in err
    assert "Traceback" not in err
    assert not (tmp_path / "p").exists()


def test_unservable_bundle_exits_3(tmp_path, synth_dir, fit_dir, capsys):
    layer = load_bundle(fit_dir / "model.bundle").stack.layers[0]
    subset_flat = layer.subset_flat + layer.input_grid.size
    assert_predict_refuses_layer0(tmp_path, synth_dir, fit_dir, capsys, subset_flat, "subset index")


def test_repeated_subset_index_exits_3(tmp_path, synth_dir, fit_dir, capsys):
    """A subset that reads one column twice, which the merged tables would serve
    unlike the layer-by-layer walk, fails closed at `predict --bundle`."""
    layer = load_bundle(fit_dir / "model.bundle").stack.layers[0]
    at = int(np.cumsum(layer.subset_len)[np.flatnonzero(layer.subset_len > 1)[0]]) - 1  # a window's last index
    subset_flat = layer.subset_flat.copy()
    subset_flat[at] = subset_flat[at - 1]
    complaint = "subset indices are not strictly ascending within a window"
    assert_predict_refuses_layer0(tmp_path, synth_dir, fit_dir, capsys, subset_flat, complaint)


def test_weights_disagreeing_with_the_architecture_exit_3(tmp_path, synth_dir, fit_dir, capsys):
    bundle = load_bundle(fit_dir / "model.bundle")
    with pytest.raises(DataError, match="weight shapes"):
        dataclasses.replace(bundle, weights=(bundle.weights[0][:-1],))
    bad = copied_bundle(tmp_path, fit_dir)
    with_arrays(bad, **{"clf/w0": bundle.weights[0][:-1]})
    code, _, err = predict_exit(capsys, tmp_path, synth_dir, bad)
    assert code == 3
    assert "weight shapes" in err
    assert "Traceback" not in err
    assert not (tmp_path / "p").exists()


def test_input_grid_disagreeing_with_the_first_layer_exit_3(tmp_path, synth_dir, fit_dir, capsys):
    bundle = load_bundle(fit_dir / "model.bundle")
    with pytest.raises(DataError, match="input grid 7x7 differs from layer 0's"):
        dataclasses.replace(bundle, input_grid=GridShape(7, 7))
    bad = copied_bundle(tmp_path, fit_dir)
    with_manifest(bad, input_rows="7", input_cols="7")
    code, _, err = predict_exit(capsys, tmp_path, synth_dir, bad)
    assert code == 3
    assert "input grid 7x7 differs from layer 0's" in err
    assert "Traceback" not in err
    assert not (tmp_path / "p").exists()


def test_nan_discretizer_thresholds_exit_3(tmp_path, synth_dir, fit_dir, capsys):
    bad = copied_bundle(tmp_path, fit_dir)
    width = load_bundle(fit_dir / "model.bundle").discretizer.width
    with_arrays(bad, **{"disc/thresholds": np.full(width, np.nan)})
    code, _, err = predict_exit(capsys, tmp_path, synth_dir, bad)
    assert code == 3
    assert "discretizer thresholds must be finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "p").exists()


def test_negative_layer_count_exits_3(tmp_path, synth_dir, fit_dir, capsys):
    bad = copied_bundle(tmp_path, fit_dir)
    with_manifest(bad, n_layers="-1")
    code, _, err = predict_exit(capsys, tmp_path, synth_dir, bad)
    assert code == 3
    assert "layer count -1 is negative" in err
    assert "Traceback" not in err
    assert not (tmp_path / "p").exists()


def test_nan_threshold_exits_2(tmp_path, synth_dir, fit_dir, capsys):
    code, out, err = run(
        capsys,
        "eval",
        "--bundle", str(fit_dir / "model.bundle"),
        "--data", str(synth_dir / "test.csv"),
        "--out", str(tmp_path / "e"),
        "--threshold", "nan",
    )
    assert code == 2
    assert "threshold" in err
    assert out == ""
    assert not (tmp_path / "e").exists()


def test_worker_override_does_not_change_results(tmp_path, synth_dir, capsys):
    outs = []
    for workers in ("1", "4"):
        out = tmp_path / f"w{workers}"
        code, _, _ = run(
            capsys,
            "fit",
            "--out", str(out),
            "--set", f"train={synth_dir / 'train.csv'}",
            "--set", "discretizer=global:0.5",
            "--set", "layers=2:1",
            "--set", "epochs=3",
            "--workers", workers,
        )
        assert code == 0
        outs.append(out)
    a = (outs[0] / "model.bundle").read_bytes()
    b = (outs[1] / "model.bundle").read_bytes()
    assert a == b


def test_fit_on_image_corpus_with_split_and_augment(tmp_path, capsys):
    gen = np.random.default_rng(7)
    rows = []
    for i in range(14):
        label = int(i >= 7)
        base = gen.random((8, 8)) * 0.3
        if label:
            base[2:6, 2:6] += 0.6  # bright blob for class 1
        name = f"im{i:02d}.pgm"
        write_pgm(tmp_path / name, np.clip(base, 0, 1))
        rows.append(f"{name},{label}")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,label\n" + "\n".join(rows) + "\n")

    out = tmp_path / "imgrun"
    code, stdout, _ = run(
        capsys,
        "fit",
        "--out", str(out),
        "--set", f"images={manifest}",
        "--set", "test_per_class=2",
        "--set", "augment_per_class=8",
        "--set", "grid=8x8",
        "--set", "layers=2:2",
        "--set", "epochs=3",
    )
    assert code == 0
    assert "held-out (4 rows)" in stdout
    assert "geometry: 8x8 -> 4x4" in stdout
    assert (out / "heldout_roc.csv").exists()

    # a manifest also works as prediction input, with sources recorded
    pred = tmp_path / "imgpred"
    code, _, _ = run(
        capsys,
        "predict",
        "--bundle", str(out / "model.bundle"),
        "--data", str(manifest),
        "--out", str(pred),
    )
    assert code == 0
    lines = (pred / "predictions.csv").read_text().splitlines()
    assert lines[1].split(",")[1] == "im00.pgm"

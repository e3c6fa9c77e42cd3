"""Seeded mutation tests of the input edges.

Bundles: every mutated bundle either serves finite scores in [0, 1] or is
refused with an `InterconvError`. Each case rewrites one thing in a saved
bundle and recomputes the CRC-32 of the section it touched, so the mutation
reaches the checks behind the checksum: a manifest value, an array's dims
(with a payload that matches them), one array value, or one subset index.

Text inputs: mutated PGM images and dataset CSVs either load or are refused
with an `InterconvError`, through the readers and through `interconv
predict --data`, which exits 2 or 3 with no traceback and no output
directory. Each case flips, inserts or cuts bytes, or rewrites one header
token, sample, value or line. The tokens `read_pgm` reads match
`split_tokens`, and each dataset CSV read matches `plain_dataset_csv`, both
from `oracles`. Six-image corpora of PGM and CSV images go
through `load_images` and `interconv fit --set images=` the same way, with a
manifest line also pointed at a missing file, another image or a bad label.

Config: mutated config files and `--set` values through `interconv fit`
and `interconv synth` exit 0, 2, 3 or 4 with no traceback, and an exit 2
leaves no output directory. A config file may gain a BOM, non-UTF-8 bytes,
a line without `=`, a duplicated or unknown key, comments and blank lines;
every key is set to values from an edge list.

Cases are drawn by a seeded `random.Random`, so a run is reproducible.
"""

import random
import struct

import numpy as np
import pytest
from oracles import _rewrite_sections, plain_dataset_csv, split_tokens

from interconv import (
    DataError,
    GridShape,
    InterconvError,
    PipelineConfig,
    RealDataset,
    TrainingHyper,
    WindowSpec,
    fit_pipeline,
    load_bundle,
    predict_bundle,
    preset_config,
    save_bundle,
)
from interconv.cli import DEFAULTS, main
from interconv.dataio import load_images, read_dataset_csv
from interconv.pgm import _tokens, read_pgm
from interconv.pipeline import layer_maps

CASES = 600

TEXT_VALUES = [
    "", "0", "1", "2", "-1", "7", "none", "nan", "inf", "1e400", "last", "concat", "median", "x", str(2**64),
]
INT_VALUES = [-1, 0, 1, 2, 3, 2**31, 2**62, 2**63 - 1, -(2**63)]
FLOAT_VALUES = [float("nan"), float("inf"), float("-inf"), -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 1e308]


def model3_like():
    """Preset model3's two layers, (2,2,6) then (2,2,1), on a 16x16 grid."""
    gen = np.random.default_rng(1)
    y = gen.integers(0, 2, size=60)
    x = gen.random((60, 256)) + 0.2 * y[:, np.newaxis]
    preset = preset_config("model3", GridShape(16, 16))
    config = PipelineConfig(grid=preset.grid, layers=preset.layers, hyper=TrainingHyper(epochs=1))
    return fit_pipeline(config, RealDataset(x, y))[0]


def parity_like():
    """One layer of 2x2 windows over 6x6 binary rows, as the parity workload fits."""
    gen = np.random.default_rng(2)
    y = gen.integers(0, 2, size=80)
    x = gen.integers(0, 2, size=(80, 36)).astype(np.float64)
    config = PipelineConfig(discretizer="global:0.5", layers=(WindowSpec(2, 1),), hyper=TrainingHyper(epochs=1))
    return fit_pipeline(config, RealDataset(x, y))[0]


def decode(kind, payload):
    ndim = payload[0]
    dims = struct.unpack_from(f"<{ndim}Q", payload, 1)
    return np.frombuffer(payload[1 + 8 * ndim :], dtype="<f8" if kind == 1 else "<i8").reshape(dims).copy()


def encode(arr):
    return struct.pack(f"<B{arr.ndim}Q", arr.ndim, *arr.shape) + arr.tobytes()


def reshaped(arr, rng):
    """`arr` with other dims and a payload that matches them."""
    flat = arr.ravel()
    return rng.choice([
        flat[:-1], np.append(flat, flat[-1:]), flat[:0], flat.reshape(1, -1), flat.reshape(-1, 1),
        flat[:1].reshape(()),
    ])


def mutation(rng, names, arrays):
    """One seeded edit of a bundle: (what, edit) with edit as `_rewrite_sections` takes it."""
    what = rng.choice(["manifest", "dims", "value", "subset"])
    if what == "manifest":
        key, value = rng.choice(arrays["manifest"]), rng.choice(TEXT_VALUES)

        def edit_manifest(name, kind, payload):
            if name != "manifest":
                return kind, payload
            lines = [
                line if not line.startswith(f"{key}=") else f"{key}={value}"
                for line in payload.decode("utf-8").splitlines()
                if value != "" or not line.startswith(f"{key}=")  # "" drops the key
            ]
            return kind, "".join(f"{line}\n" for line in lines).encode("utf-8")

        return f"manifest {key}={value!r}", edit_manifest
    target = rng.choice([n for n in names if n != "manifest" and (what != "subset" or n.endswith("/subset_flat"))])

    def edit_array(name, kind, payload):
        if name != target:
            return kind, payload
        arr = decode(kind, payload)
        if what == "dims":
            return kind, encode(reshaped(arr, rng))
        if arr.size == 0:
            return kind, payload
        flat = arr.ravel()
        at = rng.randrange(flat.size)
        if what == "subset":
            # another column of the layer's input, one next to it, or one past either end
            size = len(arrays[target.replace("subset_flat", "level_counts")])
            flat[at] = rng.choice([rng.randrange(size), flat[at] + 1, flat[at] - 1, -1, size])
        else:
            flat[at] = rng.choice(FLOAT_VALUES if kind == 1 else INT_VALUES)
        return kind, encode(flat.reshape(arr.shape))

    return f"{what} {target}", edit_array


@pytest.mark.parametrize("make", [model3_like, parity_like], ids=["model3", "parity"])
def test_mutated_bundles_serve_or_are_refused(tmp_path, make):
    original = tmp_path / "original.bundle"
    save_bundle(make(), original)
    arrays = {}

    def collect(name, kind, payload):
        arrays[name] = (
            [line.split("=", 1)[0] for line in payload.decode("utf-8").splitlines()] if name == "manifest"
            else decode(kind, payload)
        )
        return kind, payload

    names = _rewrite_sections(original, collect)
    rng = random.Random(make.__name__)
    path = tmp_path / "mutated.bundle"
    served = refused = 0
    for _ in range(CASES):
        path.write_bytes(original.read_bytes())
        what, edit = mutation(rng, names, arrays)
        _rewrite_sections(path, edit)
        try:
            bundle = load_bundle(path)
            width = bundle.arch.input_width if bundle.discretizer is None else bundle.discretizer.width
            rows = np.random.default_rng(0).random((3, width))
            outputs = [predict_bundle(bundle, rows), predict_bundle(bundle, rows[:1])]
            if bundle.stack is not None:
                outputs += layer_maps(bundle, rows)
        except InterconvError:
            refused += 1
            continue
        served += 1
        for out in outputs:
            assert np.isfinite(out).all() and ((out >= 0.0) & (out <= 1.0)).all(), what
    assert served and refused


TEXT_CASES = 1000
CLI_CASES = 50
# header and sample tokens: zero and past-8-bit maxvals, past int64, signs, non-numbers
TOKENS = [b"0", b"-1", b"1", b"255", b"256", str(2**63).encode(), str(2**64).encode(), b"P5", b"P2", b"P6",
          b"x", b"1e3", b"+3", b"\xff"]
CELLS = [b"nan", b"inf", b"-inf", b"1e400", b"-1e400", b"", b"x", b"0.5", b"2", b"-1", str(2**64).encode(), b"1_0"]


def pgm_seeds():
    """A 3x4 image as P5 and as P2, the second with a comment and ragged lines."""
    pixels = np.random.default_rng(3).integers(0, 256, size=(3, 4))
    p5 = b"P5\n4 3\n255\n" + pixels.astype(np.uint8).tobytes()
    rows = [" ".join(map(str, row)) for row in pixels.tolist()]
    p2 = ("P2\n# comment\n4 3\n255\n" + rows[0] + "\n" + rows[1] + " " + rows[2] + "\n").encode()
    return [p5, p2]


PGM_SEEDS = pgm_seeds()


def csv_seed(width=3, n=4):
    gen = np.random.default_rng(4)
    header = ",".join([f"X{j + 1}" for j in range(width)] + ["Y"])
    rows = [",".join(f"{v:.3f}" for v in gen.random(width)) + f",{k % 2}" for k in range(n)]
    return ("\n".join([header, *rows]) + "\n").encode()


def bytes_mutation(rng, data):
    """Flip, insert or cut bytes, or add a BOM, non-UTF-8 bytes or blank lines."""
    at = rng.randrange(len(data) + 1)
    what = rng.choice(["flip", "insert", "cut", "bom", "latin1", "blank"])
    if what == "flip" and at < len(data):
        return data[:at] + bytes([rng.randrange(256)]) + data[at + 1 :]
    if what == "insert":
        return data[:at] + bytes(rng.randrange(256) for _ in range(rng.randint(1, 3))) + data[at:]
    if what == "cut":
        return data[:at] + data[at + rng.randint(1, 8) :]
    if what == "bom":
        return b"\xef\xbb\xbf" + data
    if what == "latin1":
        return data[:at] + "é".encode("latin-1") + data[at:]
    return data[:at] + b"\n\n" + data[at:]


def token_mutation(rng, data):
    """One whitespace-separated token replaced: in a PGM, the magic, width,
    height, maxval (0, 256, 2**63, ...) or a sample (past maxval or int64)."""
    tokens = data.split(b"\n")
    line = rng.randrange(len(tokens))
    words = tokens[line].split(b" ")
    words[rng.randrange(len(words))] = rng.choice(TOKENS)
    tokens[line] = b" ".join(words)
    return b"\n".join(tokens)


def csv_mutation(rng, data):
    """One cell rewritten (nan, inf, 1e400, a Y outside {0, 1}, ...), or a row made ragged."""
    lines = data.split(b"\n")
    line = rng.randrange(len(lines))
    cells = lines[line].split(b",")
    what = rng.choice(["cell", "y", "short", "long"])
    if what == "short":
        cells.pop(rng.randrange(len(cells)))
    elif what == "long":
        cells.insert(rng.randrange(len(cells) + 1), b"0.5")
    else:
        cells[-1 if what == "y" else rng.randrange(len(cells))] = rng.choice(CELLS)
    lines[line] = b",".join(cells)
    return b"\n".join(lines)


def mutated_pgm(rng):
    data = rng.choice(PGM_SEEDS)
    for _ in range(rng.randint(1, 2)):
        data = rng.choice([bytes_mutation, token_mutation])(rng, data)
    return data


def mutated_csv(rng, seed):
    data = seed
    for _ in range(rng.randint(1, 2)):
        data = rng.choice([bytes_mutation, csv_mutation])(rng, data)
    return data


def loads_or_is_refused(read, path):
    """Whether `read(path)` loaded; any refusal must be an `InterconvError`."""
    try:
        read(path)
    except InterconvError:
        return False
    return True


def test_mutated_pgm_images_load_or_are_refused(tmp_path):
    rng = random.Random("pgm")
    image, manifest = tmp_path / "image.pgm", tmp_path / "manifest.csv"
    manifest.write_text("path,label\nimage.pgm,1\n")
    loaded = 0
    for k in range(TEXT_CASES):
        image.write_bytes(mutated_pgm(rng))
        loaded += loads_or_is_refused(read_pgm, image)
        if k % 10 == 0:
            loads_or_is_refused(load_images, manifest)
    assert 0 < loaded < TEXT_CASES


SPECIAL_BYTES = [b"#", b"\v", b"\f", b"\r", b"\x1c", b"\xa0"]  # a comment, ASCII whitespace, and two that are not


def test_pgm_tokens_are_the_lines_cut_at_comments_and_split(tmp_path):
    """Over the mutated PGM images, and each again with comment, whitespace
    and non-whitespace bytes inserted: the tokens `read_pgm` reads are those
    of `split_tokens`, each ending at its offset."""
    rng, extra = random.Random("pgm"), random.Random("pgm special bytes")
    for _ in range(TEXT_CASES):
        data = mutated_pgm(rng)
        special = data
        for _ in range(extra.randint(1, 3)):
            at = extra.randrange(len(special) + 1)
            special = special[:at] + extra.choice(SPECIAL_BYTES) + special[at:]
        for case in (data, special):
            pairs = list(_tokens(case))
            assert [token for token, _ in pairs] == split_tokens(case), case
            assert all(case[end - len(token) : end] == token for token, end in pairs), case


def test_loaded_dataset_csvs_match_a_plain_parse(tmp_path):
    """Every mutated dataset CSV that `read_dataset_csv` loads gives, bitwise,
    the arrays of `plain_dataset_csv`, and every one it refuses, the plain
    parse refuses too."""
    rng = random.Random("csv")
    path, seed = tmp_path / "data.csv", csv_seed()
    for _ in range(TEXT_CASES):
        path.write_bytes(mutated_csv(rng, seed))
        expected = plain_dataset_csv(path)
        try:
            data = read_dataset_csv(path)
        except DataError:
            assert expected is None, path.read_bytes()
            continue
        assert expected is not None, path.read_bytes()
        for got, want in zip((data.features, data.response), expected):
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_mutated_dataset_csvs_load_or_are_refused(tmp_path):
    rng = random.Random("csv")
    path, seed = tmp_path / "data.csv", csv_seed()
    loaded = 0
    for _ in range(TEXT_CASES):
        path.write_bytes(mutated_csv(rng, seed))
        loaded += loads_or_is_refused(read_dataset_csv, path)
    assert 0 < loaded < TEXT_CASES


def test_mutated_predict_data_serves_or_exits_2_or_3(tmp_path, capsys):
    """`predict --data` on a 2x2-window bundle over 2x2 images, with mutated
    dataset CSVs and mutated images behind a one-image manifest."""
    gen = np.random.default_rng(5)
    y = gen.integers(0, 2, size=40)
    config = PipelineConfig(discretizer="global:0.5", layers=(WindowSpec(2, 1),), hyper=TrainingHyper(epochs=1))
    bundle = tmp_path / "model.bundle"
    save_bundle(fit_pipeline(config, RealDataset(gen.random((40, 4)), y))[0], bundle)
    rng = random.Random("predict")
    csv_path, image, manifest = tmp_path / "data.csv", tmp_path / "image.pgm", tmp_path / "manifest.csv"
    manifest.write_text("path,label\nimage.pgm,0\n")
    pgm = b"P2\n2 2\n255\n0 64 128 255\n"
    served = 0
    for k in range(2 * CLI_CASES):
        if k % 2:
            image.write_bytes(rng.choice([bytes_mutation, token_mutation])(rng, pgm))
            data = manifest
        else:
            csv_path.write_bytes(mutated_csv(rng, csv_seed(width=4)))
            data = csv_path
        out = tmp_path / f"out{k}"
        code = main(["predict", "--bundle", str(bundle), "--data", str(data), "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3) and "Traceback" not in err
        assert out.exists() == (code == 0), err
        served += code == 0
    assert 0 < served < 2 * CLI_CASES


CORPUS_CASES = 200


def write_corpus(path):
    """Six 3x3 images behind a `path,label` manifest, three of each class,
    alternately P5 files and CSV files; returns the manifest."""
    gen = np.random.default_rng(9)
    lines = []
    for i in range(6):
        pixels = gen.integers(0, 256, size=(3, 3))
        if i % 2:
            name = f"im{i}.csv"
            (path / name).write_text("".join(",".join(map(str, row)) + "\n" for row in pixels.tolist()))
        else:
            name = f"im{i}.pgm"
            (path / name).write_bytes(b"P5\n3 3\n255\n" + pixels.astype(np.uint8).tobytes())
        lines.append(f"{name},{i // 3}")
    manifest = path / "manifest.csv"
    manifest.write_text("path,label\n" + "\n".join(lines) + "\n")
    return manifest


def with_line(manifest, k, line):
    """The manifest with its line k + 1 (the k-th image's, unless lines were added) replaced."""
    lines = manifest.read_bytes().split(b"\n")
    lines[min(1 + k, len(lines) - 1)] = line.encode()
    manifest.write_bytes(b"\n".join(lines))


def with_csv_pixel(value):
    return lambda m: (m.parent / "im3.csv").write_text(f"1,2,3\n4,{value},6\n7,8,9\n")


def csv_image(k, text):
    """The k-th image replaced by a CSV image file holding `text`."""

    def edit(manifest):
        (manifest.parent / f"new{k}.csv").write_text(text)
        with_line(manifest, k, f"new{k}.csv,{k // 3}")

    return edit


NAMED_CORPORA = {
    "second image 4x3": lambda m: (m.parent / "im1.csv").write_text("1,2,3\n" * 4),
    "missing file mid-corpus": lambda m: with_line(m, 3, "missing.pgm,1"),
    "CSV pixel nan": with_csv_pixel("nan"),
    "CSV pixel 256": with_csv_pixel("256"),
    "P5 maxval 65535": lambda m: (m.parent / "im4.pgm").write_bytes(b"P5\n3 3\n65535\n" + bytes(18)),
    # CSV images with no values, which the first image would leave with a 0x1 grid
    "empty CSV image first": csv_image(0, ""),
    "blank-line CSV image": csv_image(3, "\n\n\n"),
    "comment-only CSV image": csv_image(5, "# no pixels\n#\n"),
}


def corpus_mutation(rng, manifest):
    """One image's bytes or one token or cell mutated, the manifest's bytes
    mutated, or one manifest line pointed at a missing file, another image
    or a label outside {0, 1}."""
    what = rng.choice(["pgm", "csv", "manifest", "line"])
    if what == "pgm":
        image = manifest.parent / f"im{rng.choice([0, 2, 4])}.pgm"
        image.write_bytes(rng.choice([bytes_mutation, token_mutation])(rng, image.read_bytes()))
    elif what == "csv":
        image = manifest.parent / f"im{rng.choice([1, 3, 5])}.csv"
        image.write_bytes(rng.choice([bytes_mutation, csv_mutation])(rng, image.read_bytes()))
    elif what == "manifest":
        manifest.write_bytes(bytes_mutation(rng, manifest.read_bytes()))
    else:
        line = rng.choice(["missing.pgm,0", "im0.pgm,0", "im1.csv,2", "im2.pgm,x", "manifest.csv,1", ",1"])
        with_line(manifest, rng.randrange(6), line)


def test_mutated_corpora_load_or_exit_0_2_3_or_4(tmp_path, capsys):
    """Multi-image manifests of CSV and PGM images, after the named cases:
    `load_images` loads or refuses each with an `InterconvError`, and
    `interconv fit --set images=` exits 0, 2, 3 or 4 with no traceback,
    leaving an output directory only when it succeeds."""
    rng = random.Random("corpus")
    cases = [(name, edit, 3) for name, edit in NAMED_CORPORA.items()] + [(None, None, None)] * CORPUS_CASES
    codes = []
    for k, (name, edit, expected) in enumerate(cases):
        (tmp_path / f"c{k}").mkdir()
        manifest = write_corpus(tmp_path / f"c{k}")
        if edit is None:
            for _ in range(rng.randint(1, 2)):
                corpus_mutation(rng, manifest)
        else:
            edit(manifest)
        loaded = loads_or_is_refused(load_images, manifest)
        out = tmp_path / f"out{k}"
        code = main(["fit", "--out", str(out), "--set", f"images={manifest}", "--set", "layers=2:1",
                     "--set", "discretizer=global:0.5", "--set", "epochs=1"])
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4) and "Traceback" not in err, (name, err)
        assert out.exists() == (code == 0), (name, err)
        assert expected is None or code == expected, (name, err)
        assert loaded == (code == 0), (name, err)
        codes.append(code)
    assert {0, 3} <= set(codes)


CONFIG_CASES = 300
BIG = [str(2**31), str(2**63), str(2**64)]
EDGE_VALUES = ["", "-1", "0", *BIG, "nan", "inf", "1e400", "x"]
# A valid size allocates or loops at scale (epochs=2**64 trains for ever), so
# a sized key takes only small values and the big ones that it refuses.
SIZED = {
    "hidden": BIG[1:], "output_units": BIG, "epochs": [], "batch_size": [], "test_per_class": [],
    "augment_per_class": [], "synth_features": BIG[1:], "synth_train": BIG[1:], "synth_test": BIG[1:],
}
# window, stride and start past int64, and grids whose size is no data width
SPECS = {"layers": [f"2:{v}" for v in BIG] + [f"{v}:1" for v in BIG] + [f"2:1:{v}" for v in BIG],
         "grid": [f"{v}x{v}" for v in BIG]}
CONFIG_SEED = "# a small run\nepochs = 1\nsynth_train = 20\nsynth_test = 0\n\ndiscretizer = global:0.5\n"
NAMED_SETTINGS = [
    ("fit", ["layers=2:9223372036854775808"], 0),  # a stride past the axis and past int64: one window per axis
    ("fit", [f"hidden={2**64}"], 2),  # a hidden width no array can hold, once a numpy traceback
    # a hidden width that one unit can hold but the data's width cannot, once refused after the output directory
    ("fit", [f"hidden={2**59}", "output_units=1"], 2),
]


def edge_setting(rng):
    key = rng.choice(list(DEFAULTS))
    small = ["", "-1", "0", "1", "nan", "inf", "1e400", "x"]
    return f"{key}={rng.choice(small + SIZED[key] if key in SIZED else EDGE_VALUES + SPECS.get(key, []))}"


def config_mutation(rng, data):
    """A BOM, non-UTF-8 bytes, a line without `=`, a duplicated or unknown key, a comment or blank lines."""
    lines = data.split(b"\n")
    at = rng.randrange(len(lines))
    what = rng.choice(["bom", "latin1", "no equals", "duplicate", "unknown", "comment", "blank"])
    if what == "bom":
        lines[0] = b"\xef\xbb\xbf" + lines[0]
    elif what == "latin1":
        lines[at] = lines[at][: len(lines[at]) // 2] + "é".encode("latin-1") + lines[at][len(lines[at]) // 2 :]
    elif what == "no equals":
        lines[at] = lines[at].replace(b"=", b" ")
    else:
        line = {"duplicate": edge_setting(rng), "unknown": "no_such_key = 1", "comment": "   # = a comment",
                "blank": "  "}[what]
        lines.insert(at, line.encode())
    return b"\n".join(lines)


def test_mutated_configs_exit_0_2_3_or_4(tmp_path, capsys):
    """`interconv fit` (on a small CSV) and `interconv synth` with a mutated
    config file and `--set` values from the edge list, after the named cases."""
    gen = np.random.default_rng(6)
    data, config = tmp_path / "train.csv", tmp_path / "run.cfg"
    data.write_text("X1,X2,X3,X4,Y\n" + "".join(f"{a},{b},{c},{d},{k % 2}\n" for k, (a, b, c, d)
                                                in enumerate(gen.random((20, 4)).tolist())))
    rng = random.Random("config")
    cases = list(NAMED_SETTINGS)
    for _ in range(CONFIG_CASES):
        settings = [edge_setting(rng) for _ in range(rng.randint(0, 2))]
        cases.append((rng.choice(["fit", "synth"]), settings, None))
    codes = []
    for k, (command, settings, expected) in enumerate(cases):
        text = CONFIG_SEED.encode()
        for _ in range(rng.randint(0, 2) if expected is None else 0):
            text = config_mutation(rng, text)
        config.write_bytes(text)
        out = tmp_path / f"out{k}"
        argv = [command, "--config", str(config), "--out", str(out), "--set", f"train={data}", "--set", "grid=2x2"]
        code = main([*argv, *(item for setting in settings for item in ("--set", setting))])
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4) and "Traceback" not in err, (command, settings, text)
        assert code != 2 or not out.exists(), (command, settings, err)
        assert expected is None or code == expected, (command, settings, err)
        codes.append(code)
    assert {0, 2} <= set(codes)

"""Seeded mutation test of the bundle edge: every mutated bundle either
serves finite scores in [0, 1] or is refused with an `InterconvError`.

Each case rewrites one thing in a saved bundle and recomputes the CRC-32 of
the section it touched, so the mutation reaches the checks behind the
checksum: a manifest value, an array's dims (with a payload that matches
them), one array value, or one subset index. Cases are drawn by a seeded
`random.Random`, so a run is reproducible.
"""

import random
import struct

import numpy as np
import pytest
from oracles import _rewrite_sections

from interconv import (
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

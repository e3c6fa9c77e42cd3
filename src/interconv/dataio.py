"""Image corpora, dataset CSV files, and the on-disk model bundle.

The bundle is a single sectioned binary file: a text manifest (UTF-8
key=value lines) plus little-endian float64/int64 arrays, each section
carrying its own CRC-32. Loading verifies every checksum and refuses files
written by a newer format version. Round trips are bit-exact.

The loader only parses. Layers, stacks, discretizers and bundles check
their own contents when built, whether fitted, loaded or made by a caller;
the loader reports what they refuse as `BundleFormatError`.
"""

from __future__ import annotations

import io
import math
import struct
import warnings
import zlib
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .convlayer import FEATURE_MODES, LAYER_ARRAYS, ConvStack, FittedConvLayer, _output_width
from .core import (
    GATHER_LIMIT, DiscreteDataset, GridShape, RealDataset, WindowSpec, _check_response, _column_names,
    _csv_records, _freeze, _holds, _read_text, _write_csv,
)
from .discretize import Discretizer
from .errors import (
    BundleFormatError,
    BundleIntegrityError,
    BundleVersionError,
    ConfigError,
    DataError,
)
from .nn import MlpArchitecture, TrainingHyper
from .pgm import read_pgm

FORMAT_VERSION = 1
_MAGIC = b"INTCONVB"
_KIND_TEXT, _KIND_F64, _KIND_I64 = 0, 1, 2
AUGMENT_NOISE_SD = 0.05  # default sd of the pixel noise on augmented copies


# ---------------------------------------------------------------------------
# image corpora


@dataclass(frozen=True, eq=False)
class ImageSet:
    """Flattened grayscale images with binary labels and source identifiers."""

    intensities: np.ndarray
    labels: np.ndarray
    sources: tuple[str, ...]
    grid: GridShape

    def __post_init__(self) -> None:
        x = np.asarray(self.intensities, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.grid.size:
            raise DataError(
                f"intensities shape {x.shape} does not match grid {self.grid.rows}x{self.grid.cols}"
            )
        if not _holds(x, lambda b: (b >= 0.0) & (b <= 1.0)):
            raise DataError("intensities must lie in [0, 1]")
        labels = _check_response(self.labels, x.shape[0])
        if len(self.sources) != x.shape[0]:
            raise DataError(f"{len(self.sources)} sources for {x.shape[0]} images")
        object.__setattr__(self, "intensities", _freeze(x))
        object.__setattr__(self, "labels", _freeze(labels))
        object.__setattr__(self, "sources", tuple(self.sources))

    @property
    def n(self) -> int:
        return self.intensities.shape[0]

    def to_real_dataset(self) -> RealDataset:
        return RealDataset(self.intensities, self.labels)


def _read_image_matrix(path: Path) -> np.ndarray:
    """One image as a 2-d array of raw 0..255 values."""
    if path.suffix.lower() == ".pgm":
        return read_pgm(path).astype(np.float64)
    if path.suffix.lower() == ".csv":
        text = _read_text(path, f"image {path}")
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                mat = np.loadtxt(io.StringIO(text, newline=""), delimiter=",", ndmin=2, dtype=np.float64)
        except ValueError as exc:
            raise DataError(f"{path}: unreadable CSV image: {exc}") from exc
        if mat.size == 0:
            raise DataError(f"{path}: CSV image has no values")
        if not ((mat >= 0) & (mat <= 255)).all():
            raise DataError(f"{path}: CSV image values must lie in [0, 255]")
        return mat
    raise DataError(f"{path}: unsupported image format (want .pgm or .csv)")


def _is_manifest_header(rec: list[str]) -> bool:
    """Whether a CSV row is the `path,label` header of an image manifest."""
    return [c.strip().lower() for c in rec] == ["path", "label"]


def load_images(manifest: str | Path) -> ImageSet:
    """Read a labeled corpus from a manifest CSV of `path,label` rows.

    Paths are resolved relative to the manifest's directory. Every image
    must share the dimensions of the first; raw values are scaled by 1/255
    into [0, 1], each image's straight into its row of one matrix sized
    from the first.
    """
    manifest = Path(manifest)
    base = manifest.parent
    rows: list[tuple[str, int]] = []
    for k, (lineno, rec) in enumerate(_csv_records(manifest, f"manifest {manifest}")):
        if k == 0 and _is_manifest_header(rec):
            continue
        if len(rec) != 2:
            raise DataError(f"{manifest}:{lineno}: expected 'path,label'")
        try:
            label = int(rec[1])
        except ValueError:
            raise DataError(f"{manifest}:{lineno}: label {rec[1]!r} is not an integer") from None
        if label not in (0, 1):
            raise DataError(f"{manifest}:{lineno}: label must be 0 or 1, got {label}")
        rows.append((rec[0].strip(), label))
    if not rows:
        raise DataError(f"{manifest}: no images listed")

    for i, (rel, _) in enumerate(rows):
        try:
            mat = _read_image_matrix(base / rel)
        except OSError as exc:
            raise DataError(f"cannot read image {base / rel}: {exc}") from exc
        if i == 0:
            grid = GridShape(*mat.shape)
            intensities = np.empty((len(rows), grid.size))
        elif mat.shape != (grid.rows, grid.cols):
            raise DataError(
                f"{base / rel}: image is {mat.shape[0]}x{mat.shape[1]}, "
                f"corpus is {grid.rows}x{grid.cols}"
            )
        np.divide(mat.reshape(-1), 255.0, out=intensities[i])
    return ImageSet(
        intensities=intensities,
        labels=np.array([lab for _, lab in rows], dtype=np.int64),
        sources=tuple(rel for rel, _ in rows),
        grid=grid,
    )


def split_images(images: ImageSet, test_per_class: int, seed: int) -> tuple[ImageSet, ImageSet]:
    """Seeded per-class split without replacement -> (in_sample, held_out).

    Row order within each part follows the original corpus order.
    """
    if test_per_class < 0:
        raise ConfigError(f"test_per_class must be >= 0, got {test_per_class}")
    rng = np.random.default_rng(seed)
    test_mask = np.zeros(images.n, dtype=bool)
    # the classes by counts: `np.unique` would import `numpy.ma` on a fresh process's first call
    for cls in np.flatnonzero(np.bincount(images.labels)).tolist():
        idx = np.flatnonzero(images.labels == cls)
        if len(idx) < test_per_class:
            raise DataError(
                f"class {cls} has {len(idx)} images, cannot hold out {test_per_class}"
            )
        chosen = rng.choice(idx, size=test_per_class, replace=False)
        test_mask[chosen] = True

    def _take(mask: np.ndarray) -> ImageSet:
        sel = np.flatnonzero(mask)
        return ImageSet(
            intensities=images.intensities[sel],
            labels=images.labels[sel],
            sources=tuple(images.sources[i] for i in sel),
            grid=images.grid,
        )

    return _take(~test_mask), _take(test_mask)


def augment_images(
    images: ImageSet, target_per_class: int, noise_sd: float = AUGMENT_NOISE_SD, seed: int = 0
) -> ImageSet:
    """Top every class up to `target_per_class` with noisy copies of originals.

    Originals are kept untouched and come first; copies are appended grouped
    by class (ascending label), each tagged `source#augN`, and written in
    place into one matrix. Gaussian pixel noise is clamped back into [0, 1];
    sd 0 duplicates exactly.
    """
    if not 0.0 <= noise_sd < np.inf:
        raise DataError(f"noise sd must be a finite number >= 0, got {noise_sd}")
    # by counts, as `split_images` takes them
    classes = {cls: np.flatnonzero(images.labels == cls) for cls in np.flatnonzero(np.bincount(images.labels)).tolist()}
    for cls, idx in classes.items():
        if len(idx) > target_per_class:
            raise DataError(
                f"class {cls} already has {len(idx)} images, target {target_per_class} is smaller"
            )
    total = len(classes) * target_per_class
    if total == images.n:
        return images
    rng = np.random.default_rng(seed)
    intensities = np.empty((total, images.intensities.shape[1]))
    intensities[: images.n] = images.intensities
    new_labels: list[int] = []
    new_sources: list[str] = []
    end = images.n
    for cls, idx in classes.items():
        extra = target_per_class - len(idx)
        if extra == 0:
            continue
        picks = rng.integers(0, len(idx), size=extra)
        noisy = intensities[end : end + extra]
        # the indices are in range; "clip" writes straight into `out`, where "raise" buffers
        np.take(images.intensities, idx[picks], axis=0, out=noisy, mode="clip")
        step = max(1, GATHER_LIMIT // noisy.shape[1])  # bounded blocks, the same draws as one whole-class draw
        for lo in range(0, extra, step):
            block = noisy[lo : lo + step]
            block += rng.normal(0.0, noise_sd, size=block.shape)
        np.clip(noisy, 0.0, 1.0, out=noisy)
        end += extra
        new_labels.extend([cls] * extra)
        new_sources.extend(
            f"{images.sources[idx[p]]}#aug{k}" for k, p in enumerate(picks.tolist())
        )
    return ImageSet(
        intensities=intensities,
        labels=np.concatenate([images.labels, np.array(new_labels, dtype=np.int64)]),
        sources=images.sources + tuple(new_sources),
        grid=images.grid,
    )


# ---------------------------------------------------------------------------
# dataset CSV


def write_dataset_csv(path: str | Path, dataset: DiscreteDataset | RealDataset) -> None:
    """Feature matrix with header X1..Xp,Y; integers for discrete data."""
    rows = (row + [y] for row, y in zip(dataset.features.tolist(), dataset.response.tolist()))
    _write_csv(path, _column_names(range(dataset.width)) + ["Y"], rows)


def read_dataset_csv(path: str | Path) -> RealDataset:
    """Read a dataset CSV; a trailing Y column is optional (zeros otherwise)."""
    path = Path(path)
    records = _csv_records(path, f"dataset {path}")
    _, header = next(records, (0, None))
    if header is None:
        raise DataError(f"{path}: empty dataset file")
    has_y = header[-1].strip().upper() == "Y"
    rows: list[list[float]] = []
    for lineno, rec in records:
        if len(rec) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} columns, got {len(rec)}")
        try:
            values = [float(v) for v in rec]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-numeric value") from exc
        if has_y and values[-1] not in (0.0, 1.0):
            raise DataError(f"{path}:{lineno}: response must be 0 or 1, got {values[-1]}")
        rows.append(values)
    if not rows:
        raise DataError(f"{path}: dataset has no rows")
    if has_y and len(header) == 1:
        raise DataError(f"{path}: dataset has no feature columns")
    table = np.array(rows, dtype=np.float64)
    return RealDataset(table[:, : len(header) - has_y], table[:, -1] if has_y else np.zeros(len(table)))


# ---------------------------------------------------------------------------
# model bundle


@dataclass(frozen=True, eq=False)
class ModelBundle:
    """Everything needed to replay a fitted pipeline on new data; its parts must agree."""

    input_grid: GridShape | None
    discretizer: Discretizer | None
    stack: ConvStack | None
    features_mode: str
    arch: MlpArchitecture
    weights: tuple[np.ndarray, ...]
    hyper: TrainingHyper

    def __post_init__(self) -> None:
        if [w.shape for w in self.weights] != self.arch.layer_shapes():
            raise DataError(f"weight shapes differ from the architecture's {self.arch.layer_shapes()}")
        if not all(np.isfinite(w).all() for w in self.weights):
            raise DataError("a classifier weight is not finite")
        if self.features_mode not in FEATURE_MODES:
            raise DataError(f"features mode {self.features_mode!r} is not one of {FEATURE_MODES}")
        if self.stack is None:
            # a flat bundle reads its rows as they are, so these would go unused
            if self.discretizer is not None or self.input_grid is not None:
                raise DataError("bundle has a discretizer or input grid but no window layers")
        else:
            layers = self.stack.layers
            if self.discretizer is None:
                raise DataError("bundle has window layers but no discretizer")
            if self.input_grid not in (None, layers[0].input_grid):
                raise DataError(f"input grid {self.input_grid.rows}x{self.input_grid.cols} differs from layer 0's")
            width = _output_width([layer.n_windows for layer in layers], self.features_mode)
            if self.arch.input_width != width:
                raise DataError(f"classifier input width {self.arch.input_width}, stack output {width}")
            if self.discretizer.width != layers[0].input_grid.size:
                raise DataError(f"the discretizer before layer 0 has {self.discretizer.width} thresholds")
        object.__setattr__(self, "weights", tuple(_freeze(w) for w in self.weights))


def _section(name: str, kind: int, payload: bytes) -> bytes:
    """One bundle section: name, kind, payload length, payload, CRC-32."""
    raw = name.encode("utf-8")
    head = struct.pack("<H", len(raw)) + raw + struct.pack("<BQ", kind, len(payload))
    return head + payload + struct.pack("<I", zlib.crc32(payload))


def _array_section(name: str, arr: np.ndarray) -> bytes:
    """An array section: ndim, dims, then little-endian float64 or int64 values."""
    kind, dtype = (_KIND_F64, "<f8") if np.issubdtype(arr.dtype, np.floating) else (_KIND_I64, "<i8")
    head = struct.pack(f"<B{arr.ndim}Q", arr.ndim, *arr.shape)
    return _section(name, kind, head + arr.astype(dtype).tobytes(order="C"))


def _read_sections(path: Path) -> dict[str, tuple[int, bytes]]:
    data = path.read_bytes()
    if len(data) < len(_MAGIC) + 8 or not data.startswith(_MAGIC):
        raise BundleFormatError(f"{path}: not a model bundle")
    version, count = struct.unpack_from("<II", data, len(_MAGIC))
    if version > FORMAT_VERSION:
        raise BundleVersionError(
            f"{path}: bundle format {version} is newer than supported {FORMAT_VERSION}"
        )
    pos = len(_MAGIC) + 8
    sections: dict[str, tuple[int, bytes]] = {}
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", data, pos)
            pos += 2
            name = data[pos : pos + name_len].decode("utf-8")
            pos += name_len
            kind, payload_len = struct.unpack_from("<BQ", data, pos)
            pos += 9
            payload = data[pos : pos + payload_len]
            if len(payload) != payload_len:
                raise BundleFormatError(f"{path}: section {name} truncated")
            pos += payload_len
            (crc,) = struct.unpack_from("<I", data, pos)
            pos += 4
            if zlib.crc32(payload) != crc:
                raise BundleIntegrityError(f"{path}: checksum mismatch in section {name}")
            sections[name] = (kind, payload)
    except struct.error as exc:
        raise BundleFormatError(f"{path}: truncated bundle") from exc
    except UnicodeDecodeError as exc:
        raise BundleFormatError(f"{path}: a section name is not UTF-8") from exc
    return sections


def save_bundle(bundle: ModelBundle, path: str | Path) -> None:
    # The hyper_<field> and layer{k}_<field> keys mirror the fields of
    # TrainingHyper and WindowSpec, in field order, so adding or renaming a
    # field is a bundle-format change; the tests' SHA-256 pin of a bundle's
    # bytes catches an accidental one. Numbers are written with str, which is
    # repr for a Python float and spells a numpy scalar the same way.
    sections: list[bytes] = []
    man: dict[str, str] = {
        "format_version": str(FORMAT_VERSION),
        "features_mode": bundle.features_mode,
        "arch_input": str(bundle.arch.input_width),
        "arch_hidden": "none" if bundle.arch.hidden is None else str(bundle.arch.hidden),
        "arch_output": str(bundle.arch.output_units),
        **{f"hyper_{f.name}": str(getattr(bundle.hyper, f.name)) for f in fields(TrainingHyper)},
        "n_weights": str(len(bundle.weights)),
    }
    if bundle.input_grid is not None:
        man["input_rows"] = str(bundle.input_grid.rows)
        man["input_cols"] = str(bundle.input_grid.cols)
    if bundle.discretizer is not None:
        man["discretizer"] = bundle.discretizer.method
        man["discretizer_param"] = (
            "none" if bundle.discretizer.param is None else str(bundle.discretizer.param)
        )
        sections.append(_array_section("disc/thresholds", bundle.discretizer.thresholds))
    layers = bundle.stack.layers if bundle.stack is not None else ()
    man["n_layers"] = str(len(layers))
    for k, layer in enumerate(layers):
        for f in fields(WindowSpec):
            man[f"layer{k}_{f.name}"] = str(getattr(layer.spec, f.name))
        man[f"layer{k}_in_rows"] = str(layer.input_grid.rows)
        man[f"layer{k}_in_cols"] = str(layer.input_grid.cols)
        for name in LAYER_ARRAYS:
            sections.append(_array_section(f"layer{k}/{name}", getattr(layer, name)))
    rediscs = bundle.stack.rediscretizers if bundle.stack is not None else ()
    for k, disc in enumerate(rediscs):
        man[f"redisc{k}_method"] = disc.method
        man[f"redisc{k}_param"] = "none" if disc.param is None else str(disc.param)
        sections.append(_array_section(f"redisc{k}/thresholds", disc.thresholds))
    for i, weight in enumerate(bundle.weights):
        sections.append(_array_section(f"clf/w{i}", weight))
    manifest = "".join(f"{k}={v}\n" for k, v in man.items()).encode("utf-8")
    sections.append(_section("manifest", _KIND_TEXT, manifest))
    head = _MAGIC + struct.pack("<II", FORMAT_VERSION, len(sections))
    Path(path).write_bytes(b"".join([head, *sections]))


def _get_array(path: Path, sections: dict[str, tuple[int, bytes]], name: str) -> np.ndarray:
    if name not in sections:
        raise BundleFormatError(f"{path}: bundle is missing section {name}")
    kind, payload = sections[name]
    if kind not in (_KIND_F64, _KIND_I64):
        raise BundleFormatError(f"{path}: section {name} is not an array")
    if len(payload) < 1:
        raise BundleFormatError(f"{path}: section {name}: truncated array header")
    ndim = payload[0]
    head_len = 1 + 8 * ndim
    if len(payload) < head_len:
        raise BundleFormatError(f"{path}: section {name}: truncated array dims")
    dims = struct.unpack_from(f"<{ndim}Q", payload, 1)
    dtype = "<f8" if kind == _KIND_F64 else "<i8"
    body = payload[head_len:]
    # Python integers: an int64 product of dims such as (2**32, 2**32) wraps
    if len(body) != math.prod(dims) * 8:
        raise BundleFormatError(f"{path}: section {name}: array payload size mismatch")
    return np.frombuffer(body, dtype=dtype).reshape(dims).copy()


def _get_discretizer(
    path: Path, sections: dict[str, tuple[int, bytes]], man: dict[str, str],
    method: str, param: str, thresholds: str,
) -> Discretizer:
    """The discretizer stored under the manifest keys `method` and `param`
    and the array section `thresholds`; one it refuses is reported under
    its own name, not as a manifest value."""
    value = man[param]
    args = man[method], _get_array(path, sections, thresholds), None if value == "none" else float(value)
    try:
        return Discretizer(*args)
    except ConfigError as exc:
        raise BundleFormatError(f"{path}: {method.removesuffix('_method')}: {exc}") from exc


def load_bundle(path: str | Path) -> ModelBundle:
    path = Path(path)
    sections = _read_sections(path)
    if "manifest" not in sections:
        raise BundleFormatError(f"{path}: bundle has no manifest")
    man: dict[str, str] = {}
    try:
        # a manifest that is not UTF-8 is a malformed value (UnicodeDecodeError is a ValueError)
        for line in sections["manifest"][1].decode("utf-8").splitlines():
            if line.strip():
                key, _, value = line.partition("=")
                man[key] = value
        version = int(man["format_version"])
        if version > FORMAT_VERSION:
            raise BundleVersionError(
                f"{path}: bundle format {version} is newer than supported {FORMAT_VERSION}"
            )
        hidden = man["arch_hidden"]
        arch = MlpArchitecture(
            input_width=int(man["arch_input"]),
            hidden=None if hidden == "none" else int(hidden),
            output_units=int(man["arch_output"]),
        )
        parse = {"float": float, "int": int}  # as each field is annotated
        hyper = TrainingHyper(
            **{f.name: parse[f.type](man[f"hyper_{f.name}"]) for f in fields(TrainingHyper)}
        )
        grid = None
        if "input_rows" in man:
            grid = GridShape(int(man["input_rows"]), int(man["input_cols"]))
        disc = None
        if "discretizer" in man:
            disc = _get_discretizer(
                path, sections, man, "discretizer", "discretizer_param", "disc/thresholds"
            )
        n_layers = int(man["n_layers"])
        if n_layers < 0:
            raise BundleFormatError(f"{path}: layer count {n_layers} is negative")
        layers: list[FittedConvLayer] = []
        for k in range(n_layers):
            spec = WindowSpec(**{f.name: int(man[f"layer{k}_{f.name}"]) for f in fields(WindowSpec)})
            in_grid = GridShape(int(man[f"layer{k}_in_rows"]), int(man[f"layer{k}_in_cols"]))
            arrays = {name: _get_array(path, sections, f"layer{k}/{name}") for name in LAYER_ARRAYS}
            try:
                layers.append(FittedConvLayer(input_grid=in_grid, spec=spec, **arrays))
            except DataError as exc:
                raise BundleFormatError(f"{path}: layer {k}: {exc}") from exc
        rediscs = [
            _get_discretizer(
                path, sections, man, f"redisc{k}_method", f"redisc{k}_param", f"redisc{k}/thresholds"
            )
            for k in range(n_layers - 1)
        ]
        weights = tuple(
            _get_array(path, sections, f"clf/w{i}") for i in range(int(man["n_weights"]))
        )
        features_mode = man["features_mode"]
    except KeyError as exc:
        raise BundleFormatError(f"{path}: manifest is missing {exc}") from exc
    except (ValueError, ConfigError) as exc:
        raise BundleFormatError(f"{path}: malformed manifest value: {exc}") from exc
    try:
        stack = (
            ConvStack(layers=tuple(layers), rediscretizers=tuple(rediscs))
            if n_layers
            else None
        )
        return ModelBundle(
            input_grid=grid,
            discretizer=disc,
            stack=stack,
            features_mode=features_mode,
            arch=arch,
            weights=weights,
            hyper=hyper,
        )
    except DataError as exc:
        raise BundleFormatError(f"{path}: {exc}") from exc

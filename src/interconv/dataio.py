"""Image corpora, dataset CSV files, and the on-disk model bundle.

The bundle is a single sectioned binary file: a text manifest (UTF-8
key=value lines) plus little-endian float64/int64 arrays, each section
carrying its own CRC-32. Loading verifies every checksum and refuses files
written by a newer format version. Round trips are bit-exact.
"""

from __future__ import annotations

import csv
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .convlayer import FEATURE_MODES, LAYER_ARRAYS, ConvStack, FittedConvLayer
from .core import DiscreteDataset, GridShape, RealDataset, WindowSpec, _check_response, _freeze
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
        if x.size and (x.min() < 0.0 or x.max() > 1.0):
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
        try:
            mat = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
        except (ValueError, OSError) as exc:
            raise DataError(f"{path}: unreadable CSV image: {exc}") from exc
        if mat.min() < 0 or mat.max() > 255:
            raise DataError(f"{path}: CSV image values must lie in [0, 255]")
        return mat
    raise DataError(f"{path}: unsupported image format (want .pgm or .csv)")


def load_images(manifest: str | Path, root: str | Path | None = None) -> ImageSet:
    """Read a labeled corpus from a manifest CSV of `path,label` rows.

    Paths are resolved relative to `root` (default: the manifest's
    directory). Every image must share the dimensions of the first; raw
    values are scaled by 1/255 into [0, 1].
    """
    manifest = Path(manifest)
    base = Path(root) if root is not None else manifest.parent
    rows: list[tuple[str, int]] = []
    try:
        with open(manifest, newline="", encoding="utf-8") as fh:
            for lineno, rec in enumerate(csv.reader(fh), start=1):
                if not rec or (lineno == 1 and [c.strip().lower() for c in rec] == ["path", "label"]):
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
    except OSError as exc:
        raise DataError(f"cannot read manifest {manifest}: {exc}") from exc
    if not rows:
        raise DataError(f"{manifest}: no images listed")

    grid: GridShape | None = None
    mats: list[np.ndarray] = []
    for rel, _ in rows:
        try:
            mat = _read_image_matrix(base / rel)
        except OSError as exc:
            raise DataError(f"cannot read image {base / rel}: {exc}") from exc
        if grid is None:
            grid = GridShape(*mat.shape)
        elif mat.shape != (grid.rows, grid.cols):
            raise DataError(
                f"{base / rel}: image is {mat.shape[0]}x{mat.shape[1]}, "
                f"corpus is {grid.rows}x{grid.cols}"
            )
        mats.append(mat.reshape(-1) / 255.0)
    assert grid is not None
    return ImageSet(
        intensities=np.vstack(mats),
        labels=np.array([lab for _, lab in rows], dtype=np.int64),
        sources=tuple(rel for rel, _ in rows),
        grid=grid,
    )


def split_images(images: ImageSet, test_per_class: int, seed: int) -> tuple[ImageSet, ImageSet]:
    """Seeded per-class split without replacement -> (in_sample, held_out).

    Row order within each part follows the original corpus order.
    """
    rng = np.random.default_rng(seed)
    test_mask = np.zeros(images.n, dtype=bool)
    for cls in sorted(np.unique(images.labels).tolist()):
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
    by class (ascending label), each tagged `source#augN`. Gaussian pixel
    noise is clamped back into [0, 1]; sd 0 duplicates exactly.
    """
    if noise_sd < 0:
        raise DataError(f"noise sd must be >= 0, got {noise_sd}")
    rng = np.random.default_rng(seed)
    new_rows: list[np.ndarray] = []
    new_labels: list[int] = []
    new_sources: list[str] = []
    for cls in sorted(np.unique(images.labels).tolist()):
        idx = np.flatnonzero(images.labels == cls)
        extra = target_per_class - len(idx)
        if extra < 0:
            raise DataError(
                f"class {cls} already has {len(idx)} images, target {target_per_class} is smaller"
            )
        if extra == 0:
            continue
        picks = rng.integers(0, len(idx), size=extra)
        base = images.intensities[idx[picks]]
        noisy = np.clip(base + rng.normal(0.0, noise_sd, size=base.shape), 0.0, 1.0)
        new_rows.append(noisy)
        new_labels.extend([cls] * extra)
        new_sources.extend(
            f"{images.sources[idx[p]]}#aug{k}" for k, p in enumerate(picks.tolist())
        )
    if not new_rows:
        return images
    return ImageSet(
        intensities=np.vstack([images.intensities, *new_rows]),
        labels=np.concatenate([images.labels, np.array(new_labels, dtype=np.int64)]),
        sources=images.sources + tuple(new_sources),
        grid=images.grid,
    )


# ---------------------------------------------------------------------------
# dataset CSV


def write_dataset_csv(path: str | Path, dataset: DiscreteDataset | RealDataset) -> None:
    """Feature matrix with header X1..Xp,Y; integers for discrete data."""
    discrete = isinstance(dataset, DiscreteDataset)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"X{j + 1}" for j in range(dataset.width)] + ["Y"])
        for row, y in zip(dataset.features, dataset.response):
            if discrete:
                writer.writerow([int(v) for v in row] + [int(y)])
            else:
                writer.writerow([repr(float(v)) for v in row] + [int(y)])


def read_dataset_csv(path: str | Path) -> RealDataset:
    """Read a dataset CSV; a trailing Y column is optional (zeros otherwise)."""
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty dataset file")
            has_y = header[-1].strip().upper() == "Y"
            width = len(header) - 1 if has_y else len(header)
            feats: list[list[float]] = []
            resp: list[int] = []
            for lineno, rec in enumerate(reader, start=2):
                if not rec:
                    continue
                if len(rec) != len(header):
                    raise DataError(f"{path}:{lineno}: expected {len(header)} columns, got {len(rec)}")
                try:
                    values = [float(v) for v in rec]
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: non-numeric value") from exc
                if has_y:
                    feats.append(values[:-1])
                    y = values[-1]
                    if y not in (0.0, 1.0):
                        raise DataError(f"{path}:{lineno}: response must be 0 or 1, got {y}")
                    resp.append(int(y))
                else:
                    feats.append(values)
                    resp.append(0)
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    if not feats:
        raise DataError(f"{path}: dataset has no rows")
    if width < 1:
        raise DataError(f"{path}: dataset has no feature columns")
    return RealDataset(np.array(feats, dtype=np.float64), np.array(resp, dtype=np.int64))


# ---------------------------------------------------------------------------
# model bundle


@dataclass(frozen=True, eq=False)
class ModelBundle:
    """Everything needed to replay a fitted pipeline on new data."""

    input_grid: GridShape | None
    discretizer: Discretizer | None
    stack: ConvStack | None
    features_mode: str
    arch: MlpArchitecture
    weights: tuple[np.ndarray, ...]
    hyper: TrainingHyper


class _Writer:
    def __init__(self) -> None:
        self.sections: list[tuple[str, int, bytes]] = []

    def text(self, name: str, value: str) -> None:
        self.sections.append((name, _KIND_TEXT, value.encode("utf-8")))

    def array(self, name: str, arr: np.ndarray) -> None:
        arr = np.asarray(arr)
        if np.issubdtype(arr.dtype, np.floating):
            kind, data = _KIND_F64, arr.astype("<f8").tobytes(order="C")
        else:
            kind, data = _KIND_I64, arr.astype("<i8").tobytes(order="C")
        head = struct.pack(f"<B{arr.ndim}Q", arr.ndim, *arr.shape)
        self.sections.append((name, kind, head + data))

    def dump(self, path: Path) -> None:
        parts = [_MAGIC, struct.pack("<II", FORMAT_VERSION, len(self.sections))]
        for name, kind, payload in self.sections:
            raw = name.encode("utf-8")
            parts.append(struct.pack("<H", len(raw)) + raw)
            parts.append(struct.pack("<BQ", kind, len(payload)))
            parts.append(payload)
            parts.append(struct.pack("<I", zlib.crc32(payload)))
        path.write_bytes(b"".join(parts))


def _decode_array(name: str, kind: int, payload: bytes) -> np.ndarray:
    if len(payload) < 1:
        raise BundleFormatError(f"section {name}: truncated array header")
    ndim = payload[0]
    head_len = 1 + 8 * ndim
    if len(payload) < head_len:
        raise BundleFormatError(f"section {name}: truncated array dims")
    dims = struct.unpack_from(f"<{ndim}Q", payload, 1) if ndim else ()
    dtype = "<f8" if kind == _KIND_F64 else "<i8"
    body = payload[head_len:]
    count = int(np.prod(dims, dtype=np.int64)) if ndim else 1
    if len(body) != count * 8:
        raise BundleFormatError(f"section {name}: array payload size mismatch")
    return np.frombuffer(body, dtype=dtype).reshape(dims).copy()


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
    return sections


def save_bundle(bundle: ModelBundle, path: str | Path) -> None:
    w = _Writer()
    man: dict[str, str] = {
        "format_version": str(FORMAT_VERSION),
        "features_mode": bundle.features_mode,
        "arch_input": str(bundle.arch.input_width),
        "arch_hidden": "none" if bundle.arch.hidden is None else str(bundle.arch.hidden),
        "arch_output": str(bundle.arch.output_units),
        "hyper_learning_rate": repr(bundle.hyper.learning_rate),
        "hyper_decay": repr(bundle.hyper.decay),
        "hyper_epochs": str(bundle.hyper.epochs),
        "hyper_batch_size": str(bundle.hyper.batch_size),
        "hyper_seed": str(bundle.hyper.seed),
        "n_weights": str(len(bundle.weights)),
    }
    if bundle.input_grid is not None:
        man["input_rows"] = str(bundle.input_grid.rows)
        man["input_cols"] = str(bundle.input_grid.cols)
    if bundle.discretizer is not None:
        man["discretizer"] = bundle.discretizer.method
        man["discretizer_param"] = (
            "none" if bundle.discretizer.param is None else repr(bundle.discretizer.param)
        )
        w.array("disc/thresholds", bundle.discretizer.thresholds)
    layers = bundle.stack.layers if bundle.stack is not None else ()
    man["n_layers"] = str(len(layers))
    for k, layer in enumerate(layers):
        man[f"layer{k}_window"] = str(layer.spec.window)
        man[f"layer{k}_stride"] = str(layer.spec.stride)
        man[f"layer{k}_start"] = str(layer.spec.start)
        man[f"layer{k}_in_rows"] = str(layer.input_grid.rows)
        man[f"layer{k}_in_cols"] = str(layer.input_grid.cols)
        for name in LAYER_ARRAYS:
            w.array(f"layer{k}/{name}", getattr(layer, name))
    rediscs = bundle.stack.rediscretizers if bundle.stack is not None else ()
    for k, disc in enumerate(rediscs):
        man[f"redisc{k}_method"] = disc.method
        man[f"redisc{k}_param"] = "none" if disc.param is None else repr(disc.param)
        w.array(f"redisc{k}/thresholds", disc.thresholds)
    for i, weight in enumerate(bundle.weights):
        w.array(f"clf/w{i}", weight)
    w.text("manifest", "".join(f"{k}={v}\n" for k, v in man.items()))
    w.dump(Path(path))


def _get_array(sections: dict[str, tuple[int, bytes]], name: str) -> np.ndarray:
    if name not in sections:
        raise BundleFormatError(f"bundle is missing section {name}")
    kind, payload = sections[name]
    if kind not in (_KIND_F64, _KIND_I64):
        raise BundleFormatError(f"section {name} is not an array")
    return _decode_array(name, kind, payload)


def _get_discretizer(
    sections: dict[str, tuple[int, bytes]], man: dict[str, str], method: str, param: str, thresholds: str
) -> Discretizer:
    value = man[param]
    return Discretizer(man[method], _get_array(sections, thresholds), None if value == "none" else float(value))


def _check_layer(layer: FittedConvLayer, where: str) -> None:
    """Refuse layer arrays that `transform` could not serve."""
    for name in LAYER_ARRAYS:
        arr = getattr(layer, name)
        kind = "f" if name in ("cell_means", "fallback", "iscore", "auc") else "i"
        if arr.ndim != 1 or arr.dtype.kind != kind:
            raise BundleFormatError(f"{where}: array {name} is not 1-d of kind {kind!r}")
    n, size, window_size = layer.n_windows, layer.input_grid.size, layer.spec.window**2
    if {len(layer.ncells), len(layer.fallback), len(layer.iscore), len(layer.auc)} != {n}:
        raise BundleFormatError(f"{where}: per-window arrays differ in length")
    if ((layer.subset_len < 1) | (layer.subset_len > window_size)).any():
        raise BundleFormatError(f"{where}: a subset length lies outside 1..{window_size}")
    if layer.subset_len.sum() != len(layer.subset_flat):
        raise BundleFormatError(f"{where}: subset lengths do not add up to the subset array")
    if (layer.ncells < 1).any() or not layer.ncells.sum() == len(layer.cell_keys) == len(layer.cell_means):
        raise BundleFormatError(f"{where}: cell counts do not add up to the cell arrays")
    if n != layer.output_grid.size:
        raise BundleFormatError(f"{where}: {n} windows where its geometry gives {layer.output_grid.size}")
    if ((layer.subset_flat < 0) | (layer.subset_flat >= size)).any():
        raise BundleFormatError(f"{where}: a subset index lies outside [0, {size})")
    if len(layer.level_counts) != size:
        raise BundleFormatError(f"{where}: {len(layer.level_counts)} level counts for {size} columns")
    if (layer.level_counts < 2).any():
        raise BundleFormatError(f"{where}: a level count is below 2")
    # cells per window, refused above 2**62 as fit_layer refuses them, so int64 bounds cannot overflow
    cells = np.multiply.reduceat(
        layer.level_counts[layer.subset_flat].astype(object), np.cumsum(layer.subset_len) - layer.subset_len
    )
    if (cells > 2**62).any():
        raise BundleFormatError(f"{where}: a subset has more than 2**62 cells")
    keys, window = layer.cell_keys, np.repeat(np.arange(n), layer.ncells)
    if ((keys < 0) | (keys >= cells.astype(np.int64)[window])).any():
        raise BundleFormatError(f"{where}: a cell key lies outside its subset's cell range")
    if not ((np.diff(keys) > 0) | (np.diff(window) > 0)).all():
        raise BundleFormatError(f"{where}: cell keys are not strictly ascending within a window")
    means = np.concatenate([layer.cell_means, layer.fallback])
    if not ((means >= 0.0) & (means <= 1.0)).all():
        raise BundleFormatError(f"{where}: a cell mean or fallback is not a finite value in [0, 1]")


def load_bundle(path: str | Path) -> ModelBundle:
    path = Path(path)
    sections = _read_sections(path)
    if "manifest" not in sections:
        raise BundleFormatError(f"{path}: bundle has no manifest")
    man: dict[str, str] = {}
    for line in sections["manifest"][1].decode("utf-8").splitlines():
        if line.strip():
            key, _, value = line.partition("=")
            man[key] = value
    try:
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
        hyper = TrainingHyper(
            learning_rate=float(man["hyper_learning_rate"]),
            decay=float(man["hyper_decay"]),
            epochs=int(man["hyper_epochs"]),
            batch_size=int(man["hyper_batch_size"]),
            seed=int(man["hyper_seed"]),
        )
        grid = None
        if "input_rows" in man:
            grid = GridShape(int(man["input_rows"]), int(man["input_cols"]))
        disc = None
        if "discretizer" in man:
            disc = _get_discretizer(sections, man, "discretizer", "discretizer_param", "disc/thresholds")
        n_layers = int(man["n_layers"])
        if n_layers < 0:
            raise BundleFormatError(f"{path}: layer count {n_layers} is negative")
        layers: list[FittedConvLayer] = []
        for k in range(n_layers):
            spec = WindowSpec(
                window=int(man[f"layer{k}_window"]),
                stride=int(man[f"layer{k}_stride"]),
                start=int(man[f"layer{k}_start"]),
            )
            in_grid = GridShape(int(man[f"layer{k}_in_rows"]), int(man[f"layer{k}_in_cols"]))
            arrays = {name: _get_array(sections, f"layer{k}/{name}") for name in LAYER_ARRAYS}
            layers.append(FittedConvLayer(input_grid=in_grid, spec=spec, **arrays))
            _check_layer(layers[-1], f"{path}: layer {k}")
        rediscs = [
            _get_discretizer(sections, man, f"redisc{k}_method", f"redisc{k}_param", f"redisc{k}/thresholds")
            for k in range(max(0, n_layers - 1))
        ]
        stack = (
            ConvStack(layers=tuple(layers), rediscretizers=tuple(rediscs))
            if n_layers
            else None
        )
        weights = tuple(
            _get_array(sections, f"clf/w{i}") for i in range(int(man["n_weights"]))
        )
        if [w.shape for w in weights] != arch.layer_shapes():
            raise BundleFormatError(f"{path}: weight shapes differ from the architecture's {arch.layer_shapes()}")
        features_mode = man.get("features_mode", "last")
        if features_mode not in FEATURE_MODES:
            raise BundleFormatError(f"{path}: features mode {features_mode!r} is not one of {FEATURE_MODES}")
        if layers:
            if disc is None:
                raise BundleFormatError(f"{path}: bundle has window layers but no discretizer")
            if grid is not None and grid != layers[0].input_grid:
                raise BundleFormatError(f"{path}: input grid {grid.rows}x{grid.cols} differs from layer 0's")
            widths = [layer.n_windows for layer in layers]
            width = sum(widths) if features_mode == "concat" else widths[-1]
            if arch.input_width != width:
                raise BundleFormatError(f"{path}: classifier input width {arch.input_width}, stack output {width}")
            # the discretizer feeding layer k has one threshold per column of its input
            columns = [layers[0].input_grid.size, *widths]
            for k, stage in enumerate([disc, *rediscs]):
                if stage.width != columns[k]:
                    raise BundleFormatError(f"{path}: the discretizer before layer {k} has {stage.width} thresholds")
    except KeyError as exc:
        raise BundleFormatError(f"{path}: manifest is missing {exc}") from exc
    except (ValueError, ConfigError) as exc:
        raise BundleFormatError(f"{path}: malformed manifest value: {exc}") from exc
    return ModelBundle(
        input_grid=grid,
        discretizer=disc,
        stack=stack,
        features_mode=features_mode,
        arch=arch,
        weights=weights,
        hyper=hyper,
    )

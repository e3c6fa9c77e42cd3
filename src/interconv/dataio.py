"""Image corpora, dataset CSV files, and the on-disk model bundle.

The bundle is a single sectioned binary file: a text manifest (UTF-8
key=value lines) plus little-endian float64/int64 arrays, each section
carrying its own CRC-32. Loading verifies every checksum and refuses files
written by a newer format version. Round trips are bit-exact.

The loader only parses. `FittedConvLayer`, `Discretizer` and `ModelBundle`
check their own contents when built, whether fitted, loaded or made by a
caller; the loader reports what they refuse as `BundleFormatError`.
"""

from __future__ import annotations

import csv
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .convlayer import FEATURE_MODES, LAYER_ARRAYS, ConvStack, FittedConvLayer
from .core import (
    DiscreteDataset, GridShape, RealDataset, WindowSpec, _check_response, _freeze, _write_csv,
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
        if not ((x >= 0.0) & (x <= 1.0)).all():
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
        if not ((mat >= 0) & (mat <= 255)).all():
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
    if test_per_class < 0:
        raise ConfigError(f"test_per_class must be >= 0, got {test_per_class}")
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
    if not 0.0 <= noise_sd < np.inf:
        raise DataError(f"noise sd must be a finite number >= 0, got {noise_sd}")
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
    rows = (row + [y] for row, y in zip(dataset.features.tolist(), dataset.response.tolist()))
    _write_csv(path, [f"X{j + 1}" for j in range(dataset.width)] + ["Y"], rows)


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
    """Everything needed to replay a fitted pipeline on new data; its parts must agree."""

    input_grid: GridShape | None
    discretizer: Discretizer | None
    stack: ConvStack | None
    features_mode: str
    arch: MlpArchitecture
    weights: tuple[np.ndarray, ...]
    hyper: TrainingHyper

    def __post_init__(self) -> None:
        if self.stack is not None and not self.stack.layers:
            raise DataError("bundle has a window stack with no layers")
        layers = self.stack.layers if self.stack is not None else ()
        if [w.shape for w in self.weights] != self.arch.layer_shapes():
            raise DataError(f"weight shapes differ from the architecture's {self.arch.layer_shapes()}")
        if not all(np.isfinite(w).all() for w in self.weights):
            raise DataError("a classifier weight is not finite")
        if self.features_mode not in FEATURE_MODES:
            raise DataError(f"features mode {self.features_mode!r} is not one of {FEATURE_MODES}")
        if layers:
            if self.discretizer is None:
                raise DataError("bundle has window layers but no discretizer")
            if self.input_grid not in (None, layers[0].input_grid):
                raise DataError(f"input grid {self.input_grid.rows}x{self.input_grid.cols} differs from layer 0's")
            widths = [layer.n_windows for layer in layers]
            width = sum(widths) if self.features_mode == "concat" else widths[-1]
            if self.arch.input_width != width:
                raise DataError(f"classifier input width {self.arch.input_width}, stack output {width}")
            stages = [self.discretizer, *self.stack.rediscretizers]
            if len(stages) != len(layers):
                raise DataError(f"{len(layers)} window layers with {len(stages) - 1} re-binarizers")
            # the discretizer feeding layer k has one threshold per column of its input
            columns = [layers[0].input_grid.size, *widths]
            for k, stage in enumerate(stages):
                if stage.width != columns[k]:
                    raise DataError(f"the discretizer before layer {k} has {stage.width} thresholds")
        object.__setattr__(self, "weights", tuple(_freeze(w) for w in self.weights))


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


def _get_discretizer(
    path: Path, sections: dict[str, tuple[int, bytes]], man: dict[str, str],
    method: str, param: str, thresholds: str,
) -> Discretizer:
    """The discretizer stored under the manifest keys `method` and `param`
    and the array section `thresholds`; one it refuses is reported under
    its own name, not as a manifest value."""
    value = man[param]
    args = man[method], _get_array(sections, thresholds), None if value == "none" else float(value)
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
            disc = _get_discretizer(
                path, sections, man, "discretizer", "discretizer_param", "disc/thresholds"
            )
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
            try:
                layers.append(FittedConvLayer(input_grid=in_grid, spec=spec, **arrays))
            except DataError as exc:
                raise BundleFormatError(f"{path}: layer {k}: {exc}") from exc
        rediscs = [
            _get_discretizer(
                path, sections, man, f"redisc{k}_method", f"redisc{k}_param", f"redisc{k}/thresholds"
            )
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
        features_mode = man.get("features_mode", "last")
    except KeyError as exc:
        raise BundleFormatError(f"{path}: manifest is missing {exc}") from exc
    except (ValueError, ConfigError) as exc:
        raise BundleFormatError(f"{path}: malformed manifest value: {exc}") from exc
    try:
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

"""End-to-end orchestration: binarize, fit the window stack, train, predict.

A `PipelineConfig` checks its own values; the window geometry and the
classifier's shape need the data width, so `fit_shape` checks the chain of
grids and the classifier once the width is known, for `fit_pipeline` and the
CLI alike, before any fitting or output starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .convlayer import FEATURE_MODES, ConvStack, FittedConvLayer, _join_outputs, _output_width, _walk
from .convlayer import stack_layers, stack_outputs
from .core import GridShape, RealDataset, WindowSpec, _column_names, _matrix, _write_csv, output_grid
from .dataio import ModelBundle, save_bundle
from .discretize import apply_discretizer, fit_discretizer, parse_discretizer_spec
from .errors import ConfigError, DataError, GeometryError
from .iscore import MAX_SUBSET
from .metrics import RocCurve, roc_curve, sensitivity, specificity
from .nn import (
    MlpArchitecture,
    TrainingHyper,
    TrainResult,
    _as_matrix,
    _forward_parts,
    init_model,
    param_count,
    train,
    write_loss_csv,
)

# the old name of the spec-taking fit, kept for callers that import it
fit_discretizer_spec = fit_discretizer


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the fit path needs. `grid=None` infers a square grid from
    the data width when window layers are present. `workers` (>= 0) is
    accepted for compatibility and has no effect: layers fit serially."""

    grid: GridShape | None = None
    discretizer: str = "median"
    layers: tuple[WindowSpec, ...] = ()
    rediscretizer: str = "median"
    features_mode: str = "last"
    hidden: int | None = None
    output_units: int = 2
    hyper: TrainingHyper = field(default_factory=TrainingHyper)
    workers: int = 0

    def __post_init__(self) -> None:
        if self.features_mode not in FEATURE_MODES:
            raise ConfigError(f"features mode must be one of {FEATURE_MODES}, got {self.features_mode!r}")
        parse_discretizer_spec(self.discretizer)
        parse_discretizer_spec(self.rediscretizer)
        MlpArchitecture(1, self.hidden, self.output_units)  # its rule for hidden and output_units
        if self.workers < 0:
            raise ConfigError(f"workers must be >= 0, got {self.workers}")


def resolve_grid(config: PipelineConfig, width: int) -> GridShape:
    """The input grid, inferring a square when the config leaves it open,
    once every layer of the config fits the grid before it (else
    GeometryError, see `geometry_chain`)."""
    grid = config.grid
    if grid is None:
        side = math.isqrt(width)
        if side * side != width:
            raise ConfigError(
                f"data width {width} is not a perfect square; set an explicit grid"
            )
        grid = GridShape(side, side)
    elif grid.size != width:
        raise ConfigError(
            f"grid {grid.rows}x{grid.cols} needs {grid.size} columns, data has {width}"
        )
    geometry_chain(grid, config.layers)
    return grid


def geometry_chain(grid: GridShape, layers: tuple[WindowSpec, ...]) -> list[GridShape]:
    """Grids produced by each layer in turn, starting with the input grid.

    Raises GeometryError before any fitting if a window does not fit or holds over `MAX_SUBSET` pixels.
    """
    chain = [grid]
    for spec in layers:
        chain.append(output_grid(chain[-1], spec))
        if spec.window**2 > MAX_SUBSET:
            raise GeometryError(f"window {spec.window}x{spec.window} exceeds the subset limit of {MAX_SUBSET} pixels")
    return chain


def fit_shape(config: PipelineConfig, width: int, val_data=None) -> tuple[GridShape | None, MlpArchitecture]:
    """The input grid (None without window layers) and the classifier, on the stack's
    output width, that a fit of `config` trains on rows of `width` columns; refuses a
    `val_data` dataset of another width, and a grid chain or a classifier that cannot be built."""
    if val_data is not None and val_data.width != width:
        raise DataError("validation data width does not match training data")
    grid = None
    if config.layers:
        grid = resolve_grid(config, width)
        width = _output_width([g.size for g in geometry_chain(grid, config.layers)[1:]], config.features_mode)
    return grid, MlpArchitecture(width, config.hidden, config.output_units)


@dataclass(frozen=True, eq=False)
class FitReport:
    train_result: TrainResult


def fit_pipeline(
    config: PipelineConfig, data: RealDataset, val_data: RealDataset | None = None
) -> tuple[ModelBundle, FitReport]:
    """Fit the full pipeline on `data` and return the bundle plus a report."""
    grid, arch = fit_shape(config, data.width, val_data)
    if config.layers:
        disc = fit_discretizer(data, config.discretizer)
        ddata = apply_discretizer(disc, data)
        stack, outputs = stack_layers(
            ddata, grid, list(config.layers), rediscretize=config.rediscretizer
        )
        features = RealDataset(_join_outputs([o.features for o in outputs], config.features_mode), data.response)
    else:
        disc = None
        stack = None
        features = data
    bundle = ModelBundle(
        input_grid=grid,
        discretizer=disc,
        stack=stack,
        features_mode=config.features_mode,
        arch=arch,
        weights=init_model(arch, config.hyper).weights,  # those `train` starts from
        hyper=config.hyper,
    )
    if val_data is not None:  # scored as the bundle serves new rows
        val_data = RealDataset(bundle_features(bundle, val_data.features), val_data.response)
    result = train(arch, features, config.hyper, val_data)
    return replace(bundle, weights=result.model.weights), FitReport(train_result=result)


def bundle_features(bundle: ModelBundle, features: np.ndarray) -> np.ndarray:
    """The classifier's input for raw rows, checked once, here, with the checked forms' messages (non-empty
    2-d, finite, the bundle's width), binarized, and walked by a "last" bundle's read plan or every window."""
    x = _matrix(features, np.float64, finite=True)
    if bundle.stack is None:
        # C order, as a dataset holds rows: a matmul's last bits can follow the layout
        return _as_matrix(np.ascontiguousarray(x), bundle.arch.input_width)[0]
    bundle.discretizer._check_width(x.shape[1])
    plan = bundle.stack._full_plan if bundle.features_mode == "concat" else bundle.stack._read_plan
    return _join_outputs(_walk(plan, (x > bundle.discretizer.thresholds).view(np.uint8)), bundle.features_mode)


def predict_bundle(bundle: ModelBundle, features: np.ndarray) -> np.ndarray:
    """Class-1 probability for every row of raw input features."""
    return _forward_parts(bundle, bundle_features(bundle, features))[1][:, -1]


def layer_maps(bundle: ModelBundle, features: np.ndarray) -> list[np.ndarray]:
    """Per-layer feature maps for raw input rows: one (n, out_rows, out_cols)
    array per layer."""
    if bundle.stack is None:
        raise DataError("bundle has no window layers to map")
    rows = np.array(features, dtype=np.float64)  # a copy: a dataset freezes the array it holds
    levels = apply_discretizer(bundle.discretizer, RealDataset(rows, np.zeros(rows.shape[:1], dtype=np.int64)))
    grids = [layer.output_grid for layer in bundle.stack.layers]
    return [out.features.reshape(-1, g.rows, g.cols) for g, out in zip(grids, stack_outputs(bundle.stack, levels))]


@dataclass(frozen=True)
class EvalSummary:
    auc: float
    sensitivity: float
    specificity: float
    threshold: float
    n: int


def evaluate_bundle(
    bundle: ModelBundle, data: RealDataset, threshold: float = 0.5
) -> tuple[EvalSummary, RocCurve]:
    scores = predict_bundle(bundle, data.features)
    curve = roc_curve(data.response, scores)
    summary = EvalSummary(
        auc=curve.auc,
        sensitivity=sensitivity(data.response, scores, threshold),
        specificity=specificity(data.response, scores, threshold),
        threshold=threshold,
        n=data.n,
    )
    return summary, curve


# ---------------------------------------------------------------------------
# reference architectures (128x128 input, window stack presets)

PRESETS: dict[str, dict] = {
    "model1": {"layers": ((2, 2, 6),), "features_mode": "last", "hidden": None},
    "model2": {"layers": ((2, 2, 6),), "features_mode": "last", "hidden": 64},
    "model3": {"layers": ((2, 2, 6), (2, 2, 1)), "features_mode": "last", "hidden": None},
    "model4": {"layers": ((2, 2, 6), (2, 2, 1)), "features_mode": "last", "hidden": 64},
    "model5": {"layers": ((2, 2, 6), (2, 2, 1)), "features_mode": "concat", "hidden": None},
    "model6": {"layers": ((2, 2, 6), (2, 2, 1)), "features_mode": "concat", "hidden": 64},
}


def preset_config(name: str, grid: GridShape = GridShape(128, 128)) -> PipelineConfig:
    """Named window-stack presets over a 128x128 grid (model1 .. model6)."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    p = PRESETS[name]
    return PipelineConfig(
        grid=grid,
        layers=tuple(WindowSpec(*t) for t in p["layers"]),
        features_mode=p["features_mode"],
        hidden=p["hidden"],
    )


# ---------------------------------------------------------------------------
# report files


def _window_rows(layer: FittedConvLayer) -> list[tuple]:
    """Per window, from the layer's flat arrays: its 1-based index, output row and column,
    selected variables by their 1-based names, occupied cells, I-score and training AUC."""
    subsets, ends, cols = layer.subset_flat.tolist(), np.cumsum(layer.subset_len).tolist(), layer.output_grid.cols
    names = [" ".join(_column_names(subsets[end - n : end])) for n, end in zip(layer.subset_len.tolist(), ends)]
    per_window = zip(names, layer.ncells.tolist(), layer.iscore.tolist(), layer.auc.tolist())
    return [(w + 1, w // cols + 1, w % cols + 1, *rest) for w, rest in enumerate(per_window)]


def write_windows_csv(path: str | Path, stack: ConvStack) -> None:
    """Per-window fit table: position, selected variables (1-based), score, AUC."""
    rows = [[li, *row] for li, layer in enumerate(stack.layers, start=1) for row in _window_rows(layer)]
    header = ["layer", "window", "out_row", "out_col", "variables", "n_cells", "iscore", "train_auc"]
    _write_csv(path, header, rows)


def geometry_line(stack: ConvStack) -> str:
    """The input grid and every layer's output grid, as reports print them."""
    grids = [stack.layers[0].input_grid] + [layer.output_grid for layer in stack.layers]
    return "geometry: " + " -> ".join(f"{g.rows}x{g.cols}" for g in grids)


def format_report(bundle: ModelBundle, train_result: TrainResult | None = None) -> str:
    lines: list[str] = []
    if bundle.stack is not None:
        lines.append(geometry_line(bundle.stack))
        for li, layer in enumerate(bundle.stack.layers, start=1):
            s = layer.spec
            lines.append(
                f"layer {li}: window {s.window}x{s.window} stride {s.stride} start {s.start} "
                f"-> {layer.output_grid.rows}x{layer.output_grid.cols} ({layer.n_windows} windows)"
            )
        param = "" if bundle.discretizer.param is None else f":{bundle.discretizer.param}"
        lines.append(f"discretizer: {bundle.discretizer.method}{param}")
        lines.append(f"features: {bundle.features_mode} ({bundle.arch.input_width})")
    hidden = "none" if bundle.arch.hidden is None else str(bundle.arch.hidden)
    lines.append(
        f"classifier: {bundle.arch.input_width} -> hidden {hidden} -> "
        f"{bundle.arch.output_units} unit(s), {param_count(bundle.arch)} parameters"
    )
    if train_result is not None:
        losses = train_result.train_losses
        if losses:
            lines.append(f"training: {len(losses)} epochs, final loss {losses[-1]:.6f}")
        else:
            lines.append("training: 0 epochs (initial weights kept)")
    if bundle.stack is not None:
        lines.append("")
        lines.append("strongest windows (by influence score):")
        for li, layer in enumerate(bundle.stack.layers, start=1):
            windows = _window_rows(layer)
            for w in np.argsort(-layer.iscore, kind="stable")[:10].tolist():
                b, _, _, names, _, iscore, train_auc = windows[w]
                lines.append(
                    f"  layer {li} window {b}: {names}"
                    f"  iscore {iscore:.4f}  train_auc {train_auc:.4f}"
                )
    return "\n".join(lines) + "\n"


def write_fit_outputs(
    out_dir: str | Path, bundle: ModelBundle, report: FitReport
) -> dict[str, Path]:
    """Write model.bundle, report.txt, loss.csv, and windows.csv into `out_dir`."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"bundle": out / "model.bundle", "report": out / "report.txt", "loss": out / "loss.csv"}
    save_bundle(bundle, paths["bundle"])
    paths["report"].write_text(format_report(bundle, report.train_result), encoding="utf-8")
    write_loss_csv(paths["loss"], report.train_result)
    if bundle.stack is not None:
        paths["windows"] = out / "windows.csv"
        write_windows_csv(paths["windows"], bundle.stack)
    return paths

"""End-to-end orchestration: binarize, fit the window stack, train, predict.

A `PipelineConfig` checks its own values; the window geometry needs the data
width, so `resolve_grid` checks the chain of grids once the width is known,
for `fit_pipeline` and the CLI alike, before any fitting starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .convlayer import FEATURE_MODES, ConvStack, _join_outputs, stack_layers, stack_outputs, transform_stack
from .core import DiscreteDataset, GridShape, RealDataset, WindowSpec, _write_csv, output_grid
from .dataio import ModelBundle, save_bundle
from .discretize import apply_discretizer, fit_discretizer, parse_discretizer_spec
from .errors import ConfigError, DataError
from .metrics import RocCurve, roc_curve, sensitivity, specificity
from .nn import (
    MlpArchitecture,
    TrainingHyper,
    TrainResult,
    forward,
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

    Raises GeometryError before any fitting if a window does not fit.
    """
    chain = [grid]
    for spec in layers:
        chain.append(output_grid(chain[-1], spec))
    return chain


@dataclass(frozen=True, eq=False)
class FitReport:
    train_result: TrainResult


def fit_pipeline(
    config: PipelineConfig, data: RealDataset, val_data: RealDataset | None = None
) -> tuple[ModelBundle, FitReport]:
    """Fit the full pipeline on `data` and return the bundle plus a report."""
    if val_data is not None and val_data.width != data.width:
        raise DataError("validation data width does not match training data")
    if config.layers:
        grid = resolve_grid(config, data.width)
        disc = fit_discretizer(data, config.discretizer)
        ddata = apply_discretizer(disc, data)
        stack, outputs = stack_layers(
            ddata, grid, list(config.layers), rediscretize=config.rediscretizer
        )
        features = _join_outputs(outputs, ddata.response, config.features_mode)
        val_features = None
        if val_data is not None:
            val_d = apply_discretizer(disc, val_data)
            val_features = transform_stack(stack, val_d, mode=config.features_mode)
    else:
        grid = None
        disc = None
        stack = None
        features = data
        val_features = val_data

    arch = MlpArchitecture(
        input_width=features.width, hidden=config.hidden, output_units=config.output_units
    )
    result = train(arch, features, config.hyper, val_features)
    bundle = ModelBundle(
        input_grid=grid,
        discretizer=disc,
        stack=stack,
        features_mode=config.features_mode,
        arch=arch,
        weights=result.model.weights,
        hyper=config.hyper,
    )
    return bundle, FitReport(train_result=result)


def _input_rows(bundle: ModelBundle, features: np.ndarray) -> RealDataset | DiscreteDataset:
    """Raw feature rows as the bundle's first stage sees them: discretized
    when it has window layers, unchanged otherwise."""
    dataset = RealDataset(features, np.zeros(np.shape(features)[:1], dtype=np.int64))
    if bundle.stack is None:
        return dataset
    return apply_discretizer(bundle.discretizer, dataset)


def bundle_features(bundle: ModelBundle, features: np.ndarray) -> RealDataset:
    """Push raw feature rows through the bundle's discretizer and stack."""
    rows = _input_rows(bundle, features)
    if bundle.stack is None:
        return rows
    return transform_stack(bundle.stack, rows, mode=bundle.features_mode)


def predict_bundle(bundle: ModelBundle, features: np.ndarray) -> np.ndarray:
    """Class-1 probability for every row of raw input features."""
    feats = bundle_features(bundle, features)
    out = forward(bundle, feats.features)
    return np.asarray(out, dtype=np.float64)


def layer_maps(bundle: ModelBundle, features: np.ndarray) -> list[np.ndarray]:
    """Per-layer feature maps for raw input rows: one (n, out_rows, out_cols)
    array per layer."""
    if bundle.stack is None:
        raise DataError("bundle has no window layers to map")
    outputs = stack_outputs(bundle.stack, _input_rows(bundle, features))
    maps = []
    for layer, out in zip(bundle.stack.layers, outputs):
        g = layer.output_grid
        maps.append(out.features.reshape(-1, g.rows, g.cols))
    return maps


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


def write_windows_csv(path: str | Path, stack: ConvStack) -> None:
    """Per-window fit table: position, selected variables (1-based), score, AUC."""
    rows = []
    for li, layer in enumerate(stack.layers, start=1):
        out = layer.output_grid
        for f in layer.features:
            b = f.window_index
            row = (b - 1) // out.cols + 1
            col = (b - 1) % out.cols + 1
            names = " ".join(f"X{j + 1}" for j in f.selected_subset)
            rows.append([li, b, row, col, names, len(f.cell_keys), f.iscore, f.train_auc])
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
        if bundle.discretizer is not None:
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
            ranked = sorted(layer.features, key=lambda f: -f.iscore)[:10]
            for f in ranked:
                names = " ".join(f"X{j + 1}" for j in f.selected_subset)
                lines.append(
                    f"  layer {li} window {f.window_index}: {names}"
                    f"  iscore {f.iscore:.4f}  train_auc {f.train_auc:.4f}"
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

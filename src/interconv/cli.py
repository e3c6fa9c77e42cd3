"""Command-line front end.

Subcommands: synth, fit, transform, train, predict, eval, export-maps,
report. Configuration is a flat UTF-8 key=value file ('#' starts a comment);
any key can be overridden on the command line with --set key=value, and
--seed/--workers are shortcuts for the keys of the same name.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure during training or evaluation.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import dataio, synth
from .core import GridShape, RealDataset, WindowSpec, _column_names, _csv_records, _read_text, _write_csv
from .errors import ConfigError, DataError, InterconvError, NumericError
from .metrics import write_roc_csv
from .nn import TrainingHyper, param_count
from .pgm import write_pgm
from .pipeline import (
    PipelineConfig,
    evaluate_bundle,
    fit_pipeline,
    fit_shape,
    format_report,
    geometry_line,
    layer_maps,
    predict_bundle,
    bundle_features,
    preset_config,
    write_fit_outputs,
)


def _config_values(config: PipelineConfig) -> dict[str, str]:
    """The pipeline and training keys of `config`, as a config file spells them."""
    grid = "" if config.grid is None else f"{config.grid.rows}x{config.grid.cols}"
    return {
        "grid": grid,
        "discretizer": config.discretizer,
        "layers": " ".join(f"{s.window}:{s.stride}:{s.start}" for s in config.layers),
        "rediscretizer": config.rediscretizer,
        "features": config.features_mode,
        "hidden": "none" if config.hidden is None else str(config.hidden),
        "output_units": str(config.output_units),
        **{f.name: str(getattr(config.hyper, f.name)) for f in fields(TrainingHyper)},
        "workers": str(config.workers),
    }


_SYNTH_DEFAULTS = synth.ParityModelSpec()
# each generator size key and the ParityModelSpec field it sets
_SYNTH_SIZES = {"synth_features": "n_features", "synth_train": "n_train", "synth_test": "n_test"}
DEFAULTS: dict[str, str] = {
    # data
    "train": "",
    "val": "",
    "images": "",
    "test_per_class": "0",
    "augment_per_class": "0",
    "noise_sd": str(dataio.AUGMENT_NOISE_SD),
    "preset": "",
    # pipeline, training, seed and workers: the library defaults
    **_config_values(PipelineConfig()),
    # synth: the generator's defaults, module indices 1-based as _parse_modules reads them
    **{key: str(getattr(_SYNTH_DEFAULTS, name)) for key, name in _SYNTH_SIZES.items()},
    "synth_modules": ";".join(
        ",".join(str(j + 1) for j in idx) + f":{mix}" for idx, mix in _SYNTH_DEFAULTS.modules
    ),
}


def parse_kv_file(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    text = _read_text(path, f"config {path}", ConfigError)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def _parse_int(raw: dict[str, str], key: str) -> int:
    try:
        return int(raw[key])
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {raw[key]!r}") from None


def _parse_float(raw: dict[str, str], key: str) -> float:
    try:
        value = float(raw[key])
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {raw[key]!r}")
    return value


def _parse_grid(text: str) -> GridShape:
    try:
        rows, cols = text.lower().split("x")
        return GridShape(int(rows), int(cols))
    except (ValueError, TypeError):
        raise ConfigError(f"grid must look like 6x6, got {text!r}") from None


def _parse_layers(text: str) -> tuple[WindowSpec, ...]:
    specs = []
    for token in text.replace(";", " ").split():
        parts = token.split(":")
        if len(parts) not in (2, 3):
            raise ConfigError(f"layer spec must be window:stride[:start], got {token!r}")
        try:
            nums = [int(p) for p in parts]
        except ValueError:
            raise ConfigError(f"layer spec must be integers, got {token!r}") from None
        specs.append(WindowSpec(*nums))
    return tuple(specs)


def _parse_modules(text: str) -> tuple[tuple[tuple[int, ...], float], ...]:
    """'1,2:0.5;3,4,5:0.5' with 1-based feature indices."""
    modules = []
    for token in text.split(";"):
        token = token.strip()
        if not token:
            continue
        idx_part, _, mix_part = token.partition(":")
        if not mix_part:
            raise ConfigError(f"module spec needs indices:mix, got {token!r}")
        try:
            indices = tuple(int(i) - 1 for i in idx_part.split(","))
            mix = float(mix_part)
        except ValueError:
            raise ConfigError(f"bad module spec {token!r}") from None
        modules.append((indices, mix))
    return tuple(modules)


def resolve_config(args: argparse.Namespace) -> dict[str, str]:
    """DEFAULTS + preset expansion + config file + --set/--seed/--workers."""
    user: dict[str, str] = {}
    if getattr(args, "config", None):
        user.update(parse_kv_file(args.config))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        user[key.strip()] = value.strip()
    for key in ("seed", "workers"):
        if getattr(args, key, None) is not None:
            user[key] = str(getattr(args, key))

    for key in user:
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")

    resolved = dict(DEFAULTS)
    preset = user.get("preset", "")
    if preset:
        resolved.update(_config_values(preset_config(preset)))
    resolved.update(user)
    return resolved


def build_pipeline_config(raw: dict[str, str]) -> PipelineConfig:
    hidden = None if raw["hidden"] in ("", "none") else _parse_int(raw, "hidden")
    # each training key is parsed as its field is annotated, float or int
    parse = {"float": _parse_float, "int": _parse_int}
    hyper = TrainingHyper(**{f.name: parse[f.type](raw, f.name) for f in fields(TrainingHyper)})
    return PipelineConfig(
        grid=_parse_grid(raw["grid"]) if raw["grid"] else None,
        discretizer=raw["discretizer"],
        layers=_parse_layers(raw["layers"]),
        rediscretizer=raw["rediscretizer"],
        features_mode=raw["features"],
        hidden=hidden,
        output_units=_parse_int(raw, "output_units"),
        hyper=hyper,
        workers=_parse_int(raw, "workers"),
    )


def read_config(args: argparse.Namespace):
    """The resolved keys, every one checked before any output: (keys, pipeline
    config, generator spec, (test_per_class, augment_per_class, noise_sd))."""
    raw = resolve_config(args)
    keys = ("test_per_class", "augment_per_class", "noise_sd")
    images = _parse_int(raw, keys[0]), _parse_int(raw, keys[1]), _parse_float(raw, keys[2])
    for key, value in zip(keys, images):
        if value < 0:  # refused even where the run reads no images
            raise ConfigError(f"{key} must be >= 0, got {value}")
    return raw, build_pipeline_config(raw), build_synth_spec(raw), images


def write_resolved(out_dir: Path, raw: dict[str, str], extra: dict[str, str] | None = None) -> None:
    lines = [f"{k} = {raw[k]}" for k in sorted(raw)]
    for key, value in (extra or {}).items():
        lines.append(f"# {key}: {value}")
    (out_dir / "resolved.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_table_or_images(path: str | Path) -> tuple[RealDataset, tuple[str, ...] | None]:
    """A dataset CSV, or an image corpus when the file is a path,label manifest."""
    path = Path(path)
    _, first = next(_csv_records(path, str(path)), (0, []))
    if dataio._is_manifest_header(first):
        images = dataio.load_images(path)
        return images.to_real_dataset(), images.sources
    return dataio.read_dataset_csv(path), None


# ---------------------------------------------------------------------------
# subcommands


def build_synth_spec(raw: dict[str, str]) -> synth.ParityModelSpec:
    sizes = {name: _parse_int(raw, key) for key, name in _SYNTH_SIZES.items()}
    modules = _parse_modules(raw["synth_modules"])
    try:
        return synth.ParityModelSpec(**sizes, modules=modules, seed=_parse_int(raw, "seed"))
    except ConfigError as exc:
        # a size refusal names the field; the key the user set goes in front
        key = next((k for k, name in _SYNTH_SIZES.items() if str(exc).startswith(f"{name} must")), None)
        raise exc if key is None else ConfigError(f"{key}: {exc}")


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_synth(args: argparse.Namespace) -> int:
    raw, _, spec, _ = read_config(args)
    train_data, test_data = synth.generate(spec)
    out = _out_dir(args)
    dataio.write_dataset_csv(out / "train.csv", train_data)
    if test_data is not None:
        dataio.write_dataset_csv(out / "test.csv", test_data)
    write_resolved(out, raw, {"generator": synth.GENERATOR_ID})
    # theoretical rates are accuracies, see synth.theoretical_rate
    rates = []
    for m, (indices, mix) in enumerate(spec.modules):
        rate = synth.theoretical_rate(spec, m)
        rates.append(rate)
        names = " ".join(_column_names(indices))
        print(f"module {m + 1} ({names}, mix {mix}): theoretical rate {rate}")
    print(f"best theoretical rate: {max(rates)}")
    print(f"wrote {out / 'train.csv'}" + (f" and {out / 'test.csv'}" if test_data else ""))
    return 0


def _load_fit_data(raw: dict[str, str], image_keys: tuple[int, int, float], seed: int):
    """Training data for fit/train plus optional held-out images."""
    if raw["train"] and raw["images"]:
        raise ConfigError("set either train= (CSV) or images= (manifest), not both")
    if raw["images"]:
        test_per_class, target, noise_sd = image_keys
        images = dataio.load_images(raw["images"])
        heldout = None
        if test_per_class != 0:
            images, heldout = dataio.split_images(images, test_per_class, seed)
            classes = np.flatnonzero(np.bincount(heldout.labels))
            if len(classes) < 2:  # its ROC could not be drawn once the fit is done
                raise DataError(f"every held-out image is of class {classes[0]}; evaluation needs both classes")
        if target > 0:
            images = dataio.augment_images(images, target, noise_sd=noise_sd, seed=seed)
        return images.to_real_dataset(), heldout
    if raw["train"]:
        return dataio.read_dataset_csv(raw["train"]), None
    raise ConfigError("fit needs train= (dataset CSV) or images= (manifest)")


def cmd_fit(args: argparse.Namespace) -> int:
    """The fit and train subcommands; train refuses window layers."""
    raw, config, _, image_keys = read_config(args)
    if args.command == "train" and config.layers:
        raise ConfigError("the train subcommand trains on flat features; use fit for window layers")
    data, heldout = _load_fit_data(raw, image_keys, config.hyper.seed)
    val_data = dataio.read_dataset_csv(raw["val"]) if raw["val"] else None
    fit_shape(config, data.width, val_data)  # the validation width, grid chain and classifier, before any output
    out = _out_dir(args)
    write_resolved(out, raw)
    bundle, report = fit_pipeline(config, data, val_data)
    paths = write_fit_outputs(out, bundle, report)
    if heldout is not None:
        summary, curve = evaluate_bundle(bundle, heldout.to_real_dataset())
        write_roc_csv(out / "heldout_roc.csv", curve)
        print(
            f"held-out ({summary.n} rows): auc={summary.auc:.4f} "
            f"sensitivity={summary.sensitivity:.4f} specificity={summary.specificity:.4f}"
        )
    if bundle.stack is not None:
        print(geometry_line(bundle.stack))
    print(f"parameters: {param_count(bundle.arch)}")
    if report.train_result.train_losses:
        print(f"final train loss: {report.train_result.train_losses[-1]:.6f}")
    print(f"wrote {paths['bundle']}")
    return 0


def cmd_transform(args, bundle, data, sources) -> int:
    engineered = RealDataset(bundle_features(bundle, data.features), data.response)
    out = _out_dir(args)
    dataio.write_dataset_csv(out / "features.csv", engineered)
    print(f"wrote {out / 'features.csv'} ({engineered.n} rows x {engineered.width} features)")
    return 0


def cmd_predict(args, bundle, data, sources) -> int:
    scores = predict_bundle(bundle, data.features)
    out = _out_dir(args)
    rows = zip(range(1, len(scores) + 1), sources or [""] * len(scores), scores)
    _write_csv(out / "predictions.csv", ["row", "source", "score"], rows)
    print(f"wrote {out / 'predictions.csv'} ({len(scores)} rows)")
    return 0


def cmd_eval(args, bundle, data, sources) -> int:
    summary, curve = evaluate_bundle(bundle, data, threshold=args.threshold)
    out = _out_dir(args)
    write_roc_csv(out / "roc.csv", curve)
    text = (
        f"n = {summary.n}\nauc = {summary.auc!r}\n"
        f"threshold = {summary.threshold!r}\n"
        f"sensitivity = {summary.sensitivity!r}\nspecificity = {summary.specificity!r}\n"
    )
    (out / "metrics.txt").write_text(text, encoding="utf-8")
    print(
        f"auc={summary.auc:.4f} sensitivity={summary.sensitivity:.4f} "
        f"specificity={summary.specificity:.4f} (threshold {summary.threshold}, n={summary.n})"
    )
    return 0


def cmd_export_maps(args, bundle, data, sources) -> int:
    if args.rows:
        try:
            rows = [int(r) for r in args.rows.split(",")]
        except ValueError:
            raise ConfigError(f"--rows expects comma-separated integers, got {args.rows!r}") from None
    else:
        rows = list(range(1, min(10, data.n) + 1))
    for r in rows:
        if not (1 <= r <= data.n):
            raise DataError(f"row {r} out of range (data has {data.n} rows)")
    sel = np.array([r - 1 for r in rows])
    maps = layer_maps(bundle, data.features[sel])
    scores = predict_bundle(bundle, data.features[sel])
    out = _out_dir(args)
    count = 0
    for li, layer_map in enumerate(maps, start=1):
        for i, r in enumerate(rows):
            name = f"row{r:04d}_layer{li}_p{scores[i]:.3f}.pgm"
            write_pgm(out / name, layer_map[i])
            count += 1
    print(f"wrote {count} maps to {out}")
    return 0


def cmd_report(args, bundle, data, sources) -> int:
    text = format_report(bundle)
    if args.out:
        out = _out_dir(args)
        (out / "report.txt").write_text(text, encoding="utf-8")
        print(f"wrote {out / 'report.txt'}")
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interconv",
        description="Influence-score screened window features with a small classifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in (
        ("synth", cmd_synth, "generate the synthetic parity benchmark"),
        ("fit", cmd_fit, "fit the full pipeline and save a model bundle"),
        ("train", cmd_fit, "train a classifier on flat features (no window layers)"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--seed", type=int, help="override the seed key")
        p.add_argument("--workers", type=int, help="override the workers key (no effect)")
        p.add_argument("--out", required=True, help="output directory" if name == "synth" else None)
        p.set_defaults(func=func)

    for name, func, text in (
        ("transform", cmd_transform, "apply a bundle's window stack to data"),
        ("predict", cmd_predict, "score rows with a fitted bundle"),
        ("eval", cmd_eval, "ROC/AUC evaluation of a bundle on labeled data"),
        ("export-maps", cmd_export_maps, "write per-layer feature maps as PGM images"),
        ("report", cmd_report, "print the fit report stored in a bundle"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--bundle", required=True)
        if name == "report":
            p.add_argument("--out", help="optional output directory")
        else:
            p.add_argument("--data", required=True,
                           help="dataset CSV or image manifest" if name == "transform" else None)
            p.add_argument("--out", required=True)
        p.set_defaults(func=func)
    sub.choices["eval"].add_argument("--threshold", type=float, default=0.5)
    sub.choices["export-maps"].add_argument("--rows", help="comma-separated 1-based rows (default: first 10)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "bundle" not in args:
            return args.func(args)
        # a bundle subcommand gets its loaded bundle, and the rows of --data with any image sources
        bundle = dataio.load_bundle(args.bundle)
        data, sources = load_table_or_images(args.data) if "data" in args else (None, None)
        return args.func(args, bundle, data, sources)
    except (InterconvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 4 if isinstance(exc, NumericError) else 3


if __name__ == "__main__":
    sys.exit(main())

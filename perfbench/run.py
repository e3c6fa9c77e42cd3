"""Benchmark of interconv: fitting, batch scoring and single-row serving.

    python3 perfbench/run.py --workload parity|image-fit --seed N \
        --seconds S --trace 0|1

Run it from a checkout of the repository; the package is imported from
`src/`. The run prints a JSON record (environment, sample counts, output
fingerprint, failures), then, as its last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-module metrics from a traced run with `--trace 1`.
Scratch files, spans and records go to `.perfbench/` in the checkout.
See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

END_TO_END = {
    "setup_s": ("s", "lower"),
    "fit_s": ("s", "lower"),
    "predict_rows_per_s": ("rows/s", "higher"),
    "predict1_p90_ms": ("ms", "lower"),
    "test_auc": ("auc", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "convlayer.fit_layer_s.L1": ("s", "lower"),
    "convlayer.fit_layer_s.L2": ("s", "lower"),
    "convlayer.fit_us_per_window.L1": ("us", "lower"),
    "convlayer.fit_us_per_window.L2": ("us", "lower"),
    "convlayer.windows.L1": ("count", "lower"),
    "convlayer.windows.L2": ("count", "lower"),
    "bda.backward_drop_s": ("s", "lower"),
    "bda.share_of_fit_layer": ("share", "lower"),
    "bda.subsets_scored": ("count", "lower"),
    "iscore.subsets_per_s": ("1/s", "higher"),
    "metrics.window_auc_s": ("s", "lower"),
    "nn.train_s": ("s", "lower"),
    "nn.train_steps": ("count", "lower"),
    "nn.us_per_step": ("us", "lower"),
    "nn.params": ("count", "lower"),
    "nn.share_of_fit": ("share", "lower"),
    "trace.fit_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "pipeline.fit_default_workers_s": ("s", "lower"),
    "convlayer.transform_s": ("s", "lower"),
    "discretize.refit_s": ("s", "lower"),
    "discretize.fit_s": ("s", "lower"),
    "convlayer.transform_stack_s": ("s", "lower"),
    "discretize.apply_s": ("s", "lower"),
    "nn.forward_s": ("s", "lower"),
    "pipeline.predict_self_s": ("s", "lower"),
    "dataio.load_s": ("s", "lower"),
    "dataio.save_s": ("s", "lower"),
    "dataio.bundle_bytes": ("bytes", "lower"),
    "dataio.load_images_s": ("s", "lower"),
    "synth.generate_s": ("s", "lower"),
    "metrics.roc_s": ("s", "lower"),
    "convlayer.cells_occupied": ("count", "lower"),
    "convlayer.lookups": ("count", "lower"),
    "convlayer.fallback_rate": ("share", "lower"),
}

WORKLOAD_NAMES = ("parity", "image-fit")

def environment() -> dict[str, object]:
    env: dict[str, object] = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_model": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                env[f"l{level}_cache"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return env


def percentile(samples: list[float], q: float) -> float:
    return float(np.percentile(samples, q))


def summary(samples: list[float]) -> dict[str, float]:
    """Sample count, median, and the highest percentile with at least ten
    samples beyond it."""
    out = {"n": len(samples), "p50": percentile(samples, 50)}
    for q in (99.9, 99, 90):
        if len(samples) * (1 - q / 100) >= 10:
            out[f"p{q:g}"] = percentile(samples, q)
            break
    return out


def end_to_end(run) -> dict[str, float]:
    """Setup is the import, plus bundle load and first call where the workload serves."""
    setup = float(np.median(run.samples["import_s"]))
    if "load_first_call_s" in run.samples:
        setup += float(np.median(run.samples["load_first_call_s"]))
    return {
        "setup_s": setup,
        "fit_s": float(np.median(run.samples["fit_s"])),
        "predict_rows_per_s": float(np.median(run.samples["predict_rows_per_s"])),
        "predict1_p90_ms": percentile(run.samples["predict1_ms"], 90),
        "test_auc": float(run.values["test_auc"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def check_reference(run, workload: str, record_it: bool) -> str:
    """Compare the workload fingerprint with the one kept for this seed."""
    table = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    seeds = table.setdefault(workload, {})
    got = run.workload_fingerprint()
    if record_it:
        seeds[str(run.seed)] = got
        REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return "recorded"
    want = seeds.get(str(run.seed))
    if want is None:
        return "no reference for this seed"
    with run.operation("reference fingerprint"):
        run.expect(got == want, f"fingerprint {got} differs from the reference {want}")
    return "match" if got == want else "MISMATCH"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (smoke test); skips the reference check")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's output fingerprint as the reference for its seed")
    args = parser.parse_args(argv)

    if not (SRC / "interconv" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'interconv'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import interconv

    if Path(interconv.__file__).resolve().parent != SRC / "interconv":
        print(f"error: imported interconv from {interconv.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{label}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = Tracer() if args.trace else None
        run = workloads.Run(args.seed, args.seconds, args.tiny, workdir, tracer)
        if tracer is None:
            workloads.WORKLOADS[args.workload](run)
        else:
            workloads.TRACED[args.workload](run)
        reference = "skipped (tiny)" if args.tiny else check_reference(
            run, args.workload, args.record_reference and run.failed == 0
        )
        if tracer is None:
            metrics = end_to_end(run)
            table = END_TO_END
        else:
            metrics = workloads.per_layer(run)
            table = PER_LAYER
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "fingerprint": run.workload_fingerprint(),
        "reference": reference,
        "fail_rate": run.failed / max(run.attempted, 1),
        "problems": run.problems[:20],
        "import_s": run.samples.get("import_s", []),
        "samples": {name: summary(s) for name, s in sorted(run.samples.items())},
        "exact_counts": run.counts,
        "directions": {name: better for name, (_, better) in table.items()},
        **run.record,
    }
    if "workers" in run.record:  # fit_pipeline reads workers=0 as one thread per core
        record["fit_threads"] = run.record["workers"] or os.cpu_count()
        record["default_workers"] = workloads.DEFAULT_WORKERS
        record["default_fit_threads"] = workloads.DEFAULT_WORKERS or os.cpu_count()
    OUT.mkdir(exist_ok=True)
    (OUT / f"record-{label}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.dump(OUT / f"spans-{label}.json")
    print(json.dumps(record, indent=1))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, (unit, _) in table.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

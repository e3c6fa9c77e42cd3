"""The benchmark's workloads, their inputs, and the checks on their outputs.

Every input is generated here from the run's seed. Fit configurations come
from the CLI's own config resolution, so every default is the one a user of
`interconv fit` gets, except `workers`: timed fits run on one thread (see
FIT_WORKERS), and the traced run times the default alongside.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import interconv
from interconv import (
    ParityModelSpec,
    RealDataset,
    auc,
    cli,
    fit_pipeline,
    generate,
    load_bundle,
    load_images,
    param_count,
    predict_bundle,
    roc_curve,
    save_bundle,
    split_images,
    write_pgm,
)
from walk import fallback_lookups, replay_layer1, traced_fit, traced_predict

now = time.perf_counter

# parity: the paper's 6x6 benchmark, several datasets per run
PARITY_DATASETS = 4
PARITY_WINDOWS = ("2:1", "3:1")
PARITY_REQUESTS = 10  # single-row requests per fitted model and round

# image corpus: blobs on uniform noise, like the acceptance suite's corpus
SIDE = 128
NOISE = 0.4
CONTRAST = 0.06  # held-out AUC about 0.92-0.95: below 1, so test_auc can move
PRESET = "model3"  # 3721 + 900 windows, median re-binarization between the layers
TRAIN_PER_CLASS = 100  # 200 training rows
HELD_PER_CLASS = 50
HELD_OUT_REPEATS = 4  # extra scorings of the held-out rows per fit, for a steady median
# The host's speed drifts over seconds, so each round mixes a fit with
# single-row requests (for this share of the fit's time): every metric then
# samples the whole run, not one stretch of it.
REQUEST_SHARE = 0.3
# Setup (import; bundle load + first call) is sampled this often, spread
# evenly over the run so that its median does not hang on one moment's speed.
SETUP_REPEATS = 5
# Timed fits run on one thread. The CLI default, workers=0, starts one fit
# thread per core; on a shared 2-vCPU host the wall time of such a fit follows
# the neighbours' CPU steal (7.6-10.7 s for one model3 fit at 1-25% steal),
# which no median within a run evens out. The traced run still times one
# default-workers fit per operation: `pipeline.fit_default_workers_s`.
FIT_WORKERS = "workers=1"
DEFAULT_WORKERS = int(cli.DEFAULTS["workers"])


def cli_config(*overrides: str):
    """The PipelineConfig that `interconv fit --set KEY=VALUE ...` resolves."""
    argv = ["fit", "--out", "unused"]
    for item in overrides:
        argv += ["--set", item]
    args = cli.build_parser().parse_args(argv)
    return cli.build_pipeline_config(cli.resolve_config(args))


def fit_config(*overrides: str):
    """`cli_config(*overrides)`, with fits on one thread."""
    return cli_config(*overrides, FIT_WORKERS)


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import interconv; print(time.perf_counter() - t)"
)


def import_once(run: "Run") -> None:
    """Time one package import in a fresh interpreter (numpy import included)."""
    src = Path(interconv.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(src)],
        cwd=src.parent, capture_output=True, text=True, timeout=120, check=True,
    )
    run.samples["import_s"].append(float(done.stdout.split()[-1]))


def derived_seeds(seed: int, tag: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, tag]).generate_state(n)]


def valid_scores(scores: np.ndarray) -> bool:
    return bool(np.isfinite(scores).all() and (scores >= 0.0).all() and (scores <= 1.0).all())


def fingerprint(bundle, scores: np.ndarray, bundle_bytes: bytes) -> str:
    """Hash of the selected subsets, exact iscores, predictions and bundle bytes."""
    h = hashlib.sha256()
    for layer in bundle.stack.layers:
        for f in layer.features:
            h.update(np.asarray(f.selected_subset, dtype=np.int64).tobytes())
            h.update(np.float64(f.iscore).tobytes())
    h.update(np.ascontiguousarray(scores, dtype=np.float64).tobytes())
    h.update(bundle_bytes)
    return h.hexdigest()


def exact_counts(bundle, bundle_bytes: bytes, train_rows: int, epochs: int) -> dict[str, int]:
    """Counts that must repeat exactly for the same inputs."""
    return {
        "convlayer.cells_occupied": sum(
            len(f.cell_keys) for layer in bundle.stack.layers for f in layer.features
        ),
        "dataio.bundle_bytes": len(bundle_bytes),
        "nn.params": param_count(bundle.arch),
        "nn.train_steps": epochs * math.ceil(train_rows / bundle.hyper.batch_size),
    }


class Run:
    """Samples, failures and output fingerprints of one benchmark run."""

    def __init__(self, seed: int, seconds: float, tiny: bool, workdir: Path, tracer=None):
        self.seed = seed
        self.seconds = seconds
        self.tiny = tiny
        self.workdir = workdir
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.values: dict[str, float] = {}
        self.record: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fingerprints: dict[str, str] = {}
        self.counts: dict[str, dict[str, int]] = {}
        self.op_values: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.setup_taken = 0
        self.start = now()

    def begin_measuring(self) -> None:
        self.start = now()

    def before(self, ahead: float = 0.0) -> bool:
        """True while the run's seconds will not be up `ahead` seconds from now."""
        return now() + ahead - self.start < self.seconds

    def setup_due(self, probe, final: bool = False) -> None:
        """Call `probe` (one setup sample) as often as is due by now:
        SETUP_REPEATS times, evenly over the run's seconds; with `final`,
        every sample still missing."""
        total = self.least(SETUP_REPEATS)
        due = total if final else min(total, 1 + int(total * (now() - self.start) / self.seconds))
        while self.setup_taken < due:
            self.setup_taken += 1
            probe()

    @contextmanager
    def operation(self, what: str):
        """Count one operation; it fails if it raises or a check inside fails."""
        self.attempted += 1
        before = len(self.problems)
        try:
            yield
        except Exception as exc:  # the run goes on and reports the failure
            traceback.print_exc(file=sys.stderr)
            self.problems.append(f"{what}: {type(exc).__name__}: {exc}")
        if len(self.problems) > before:
            self.failed += 1

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def agree(self, key: str, fp: str, counts: dict[str, int]) -> None:
        """The first repeat of `key` sets its outputs; every later one must match."""
        if key not in self.fingerprints:
            self.fingerprints[key] = fp
            self.counts[key] = counts
            return
        self.expect(self.fingerprints[key] == fp, f"{key}: outputs differ between repeats")
        self.expect(
            self.counts[key] == counts,
            f"{key}: counts differ between repeats: {self.counts[key]} vs {counts}",
        )

    def workload_fingerprint(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.fingerprints):
            h.update(f"{key}={self.fingerprints[key]};".encode())
        return h.hexdigest()

    def round_trip(self, key, bundle, scores, x, train_rows, epochs):
        """Save and reload `bundle`, rescore `x`, check the scores and record
        the fit's fingerprint. Returns the reloaded bundle."""
        path = self.workdir / f"{key}.bundle"
        save_bundle(bundle, path)
        data = path.read_bytes()
        loaded = load_bundle(path)
        again = predict_bundle(loaded, x)
        self.expect(
            again.tobytes() == scores.tobytes(), f"{key}: predictions changed across save and load"
        )
        self.expect(valid_scores(scores), f"{key}: predictions not finite or outside [0, 1]")
        self.agree(key, fingerprint(bundle, scores, data), exact_counts(bundle, data, train_rows, epochs))
        return loaded

    @contextmanager
    def stage(self, name: str):
        """A span named `name` when the run is traced; nothing otherwise."""
        if self.tracer is None:
            yield
        else:
            with self.tracer.span(name):
                yield

    def least(self, n: int) -> int:
        """`n`, or at most 3 in a tiny (smoke-test) run."""
        return min(n, 3) if self.tiny else n

    def request(self, bundle, x) -> None:
        """One timed single-row request."""
        with self.operation("single-row predict"):
            t0 = now()
            p = predict_bundle(bundle, x)
            self.samples["predict1_ms"].append((now() - t0) * 1e3)
            self.expect(valid_scores(p), "single-row prediction not finite or outside [0, 1]")


# ---------------------------------------------------------------------------
# inputs


def parity_inputs(run: Run):
    """(seed, training set, test rows, test labels) per parity dataset."""
    n_test = 500 if run.tiny else 10_000
    out = []
    for d in derived_seeds(run.seed, 0, 1 if run.tiny else PARITY_DATASETS):
        with run.stage("synth.generate"):
            train, test = generate(ParityModelSpec(n_test=n_test, seed=d))
        out.append((d, RealDataset(train.features.astype(np.float64), train.response),
                    test.features.astype(np.float64), test.response))
    return out


def blob_image(rng: np.random.Generator, label: int, side: int) -> np.ndarray:
    img = rng.random((side, side)) * NOISE
    if label:
        lo, hi = round(side * 40 / 128), round(side * 90 / 128)
        img[lo:hi, lo:hi] += CONTRAST
    return np.clip(img, 0.0, 1.0)


def blob_rows(rng: np.random.Generator, n: int, side: int) -> tuple[np.ndarray, np.ndarray]:
    labels = rng.integers(0, 2, size=n)
    rows = np.empty((n, side * side))
    for i, label in enumerate(labels):
        rows[i] = blob_image(rng, int(label), side).ravel()
    return rows, labels


def image_inputs(run: Run):
    """Write the seeded PGM corpus, read it back with `load_images`, split it
    like `interconv fit --set test_per_class=N` does, and resolve the preset."""
    side = 32 if run.tiny else SIDE
    train_per_class, held_per_class = (10, 5) if run.tiny else (TRAIN_PER_CLASS, HELD_PER_CLASS)
    per_class = train_per_class + held_per_class
    corpus = run.workdir / "corpus"
    corpus.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([run.seed, 1])
    lines = []
    for i in range(2 * per_class):
        label = int(i >= per_class)
        write_pgm(corpus / f"im{i:04d}.pgm", blob_image(rng, label, side))
        lines.append(f"im{i:04d}.pgm,{label}")
    manifest = corpus / "manifest.csv"
    manifest.write_text("path,label\n" + "\n".join(lines) + "\n", encoding="utf-8")

    overrides = [f"images={manifest}", f"preset={PRESET}", f"test_per_class={held_per_class}"]
    if run.tiny:
        overrides.append(f"grid={side}x{side}")
    config = fit_config(*overrides)
    with run.stage("dataio.load_images"):
        images = load_images(manifest)
    train_set, held = split_images(images, held_per_class, config.hyper.seed)
    return config, train_set.to_real_dataset(), held.intensities, held.labels, side


# ---------------------------------------------------------------------------
# untraced workloads: the end-to-end metrics


def fit_once(run: Run, key, config, train, x):
    """Fit, score `x`, and check the save/load round trip."""
    t0 = now()
    bundle, report = fit_pipeline(config, train)
    fit_s = now() - t0
    t0 = now()
    scores = predict_bundle(bundle, x)
    predict_s = now() - t0
    loaded = run.round_trip(key, bundle, scores, x, train.n, len(report.train_result.train_losses))
    return fit_s, predict_s, scores, loaded


def parity(run: Run) -> None:
    datasets = parity_inputs(run)
    configs = {w: fit_config("discretizer=global:0.5", f"layers={w}") for w in PARITY_WINDOWS}
    aucs: dict[str, list[float]] = {w: [] for w in PARITY_WINDOWS}
    run.record["workers"] = configs[PARITY_WINDOWS[0]].workers
    run.begin_measuring()
    rounds = 0
    while rounds < 2 or run.before():
        run.setup_due(lambda: import_once(run))
        for d, train, x_test, y_test in datasets:
            fit_total = predict_total = 0.0
            fitted = []
            with run.operation(f"parity dataset {d}"):
                for w, config in configs.items():
                    fit_s, predict_s, scores, loaded = fit_once(run, f"parity-{d}-{w}", config, train, x_test)
                    fit_total += fit_s
                    predict_total += predict_s
                    fitted.append(loaded)
                    if rounds == 0:
                        aucs[w].append(auc(y_test, scores))
                run.samples["fit_s"].append(fit_total)
                run.samples["predict_rows_per_s"].append(len(fitted) * len(x_test) / predict_total)
            for loaded in fitted:
                for r in range(PARITY_REQUESTS):
                    i = (rounds * PARITY_REQUESTS + r) % len(x_test)
                    run.request(loaded, x_test[i : i + 1])
        rounds += 1
    run.setup_due(lambda: import_once(run), final=True)
    run.record["rounds"] = rounds
    per_config = {w: float(np.mean(a)) for w, a in aucs.items()}
    run.record["test_auc_w2"] = per_config["2:1"]
    run.record["test_auc_w3"] = per_config["3:1"]
    run.values["test_auc"] = float(np.mean(list(per_config.values())))


def fit_rounds(run: Run, key: str, config, train, x_held, then) -> np.ndarray | None:
    """Rounds of: fit, score the held-out rows, then `then(loaded, fit_s)`.
    Repeats until the run's time is up, at least twice. Returns the held-out
    scores."""
    scores = None
    rounds = 0
    last = 0.0
    # a round starts only if half of one more fits in the run's time
    while rounds < 2 or run.before(ahead=last / 2):
        began = now()
        loaded = None
        with run.operation(f"{key} fit"):
            fit_s, predict_s, scores, loaded = fit_once(run, key, config, train, x_held)
            run.samples["fit_s"].append(fit_s)
            run.samples["predict_rows_per_s"].append(len(x_held) / predict_s)
            for _ in range(HELD_OUT_REPEATS):
                t0 = now()
                again = predict_bundle(loaded, x_held)
                run.samples["predict_rows_per_s"].append(len(x_held) / (now() - t0))
                run.expect(again.tobytes() == scores.tobytes(), "held-out scores differ when repeated")
        if loaded is not None:
            then(loaded, fit_s)
        rounds += 1
        last = now() - began
    run.record["rounds"] = rounds
    run.record["fit_s_samples"] = run.samples["fit_s"]
    return scores


def requests_for(run: Run, bundle, rng, side: int, seconds: float, least: int) -> None:
    """Single-row requests on fresh probe rows, one client, for `seconds`."""
    end = now() + seconds
    done = 0
    while done < run.least(least) or now() < end:
        run.request(bundle, blob_rows(rng, 1, side)[0])
        done += 1


def load_and_first_call(run: Run, path: Path, row: np.ndarray, first: set[bytes]) -> None:
    """Load the bundle and score one row; the prediction goes into `first`."""
    with run.operation("bundle load and first call"):
        t0 = now()
        bundle = load_bundle(path)
        p = predict_bundle(bundle, row)
        run.samples["load_first_call_s"].append(now() - t0)
        first.add(p.tobytes())


def image_fit(run: Run) -> None:
    config, train, x_held, y_held, side = image_inputs(run)
    run.record["workers"] = config.workers
    rng = np.random.default_rng([run.seed, 2])
    first_row = blob_rows(rng, 1, side)[0]
    first_calls: set[bytes] = set()

    def setup_sample() -> None:
        import_once(run)
        load_and_first_call(run, run.workdir / "image-fit.bundle", first_row, first_calls)

    def serve(loaded, fit_s: float) -> None:
        run.setup_due(setup_sample)
        requests_for(run, loaded, rng, side, REQUEST_SHARE * fit_s, 10)

    run.begin_measuring()
    scores = fit_rounds(run, "image-fit", config, train, x_held, serve)
    run.setup_due(setup_sample, final=True)
    with run.operation("first calls agree"):
        run.expect(len(first_calls) == 1, "first-call predictions differ between bundle loads")
    if scores is not None:
        run.values["test_auc"] = auc(y_held, scores)


WORKLOADS = {"parity": parity, "image-fit": image_fit}


# ---------------------------------------------------------------------------
# traced runs: the per-module metrics


def traced_fit_op(run: Run, key, config, train, x, y):
    """One fit untraced and once through the traced walk, on the same inputs.
    Checks that both give the same outputs, replays layer 1, and returns the
    traced model reloaded from disk."""
    tracer = run.tracer
    values = run.op_values[tracer.op]
    t0 = now()
    ref, _ = fit_pipeline(config, train)
    values["untraced_fit_s"] += now() - t0
    t0 = now()
    threaded, _ = fit_pipeline(dataclasses.replace(config, workers=DEFAULT_WORKERS), train)
    values["default_workers_fit_s"] += now() - t0
    ref_scores = predict_bundle(ref, x)
    save_bundle(ref, run.workdir / f"{key}.untraced.bundle")
    ref_bytes = (run.workdir / f"{key}.untraced.bundle").read_bytes()

    t0 = now()
    bundle, result, inputs = traced_fit(tracer, config, train)
    values["traced_fit_s"] += now() - t0
    scores = traced_predict(tracer, bundle, x)
    path = run.workdir / f"{key}.bundle"
    with tracer.span("dataio.save"):
        save_bundle(bundle, path)
    data = path.read_bytes()
    with tracer.span("dataio.load"):
        loaded = load_bundle(path)
    with tracer.span("metrics.roc"):
        roc_curve(y, scores)
    fp = fingerprint(bundle, scores, data)
    run.expect(
        fp == fingerprint(ref, ref_scores, ref_bytes),
        f"{key}: traced walk differs from fit_pipeline/predict_bundle",
    )
    run.expect(
        predict_bundle(threaded, x).tobytes() == ref_scores.tobytes(),
        f"{key}: a default-workers fit scores differently from a one-thread fit",
    )
    run.expect(
        predict_bundle(loaded, x).tobytes() == scores.tobytes(),
        f"{key}: predictions changed across save and load",
    )
    run.expect(valid_scores(scores), f"{key}: predictions not finite or outside [0, 1]")

    subsets, mismatches = replay_layer1(tracer, bundle, inputs[0])
    run.problems.extend(f"{key}: {m}" for m in mismatches[:5])
    unseen, lookups = fallback_lookups(bundle, x)
    counts = exact_counts(bundle, data, train.n, len(result.train_losses))
    counts.update({"bda.subsets_scored": subsets, "convlayer.unseen_lookups": unseen,
                   "convlayer.lookups": lookups})
    run.agree(key, fp, counts)
    for name, value in counts.items():
        values[name] += value
    for i, layer in enumerate(bundle.stack.layers, start=1):
        values[f"convlayer.windows.L{i}"] += layer.n_windows
    return loaded


def traced_requests(run: Run, bundle, rows) -> None:
    for x in rows:
        with run.operation("traced single-row predict"):
            p = traced_predict(run.tracer, bundle, x)
            run.expect(valid_scores(p), "single-row prediction not finite or outside [0, 1]")


def parity_traced(run: Run) -> None:
    tracer = run.tracer
    configs = {w: fit_config("discretizer=global:0.5", f"layers={w}") for w in PARITY_WINDOWS}
    run.record["workers"] = configs[PARITY_WINDOWS[0]].workers
    datasets = parity_inputs(run)
    run.begin_measuring()
    passes = 0
    while passes < 1 or run.before():
        for d, train, x_test, y_test in datasets:
            tracer.next_op()
            with run.operation(f"traced parity dataset {d}"):
                for w, config in configs.items():
                    loaded = traced_fit_op(run, f"parity-{d}-{w}", config, train, x_test, y_test)
                    traced_requests(run, loaded, [x_test[i : i + 1] for i in range(PARITY_REQUESTS)])
        passes += 1


def image_traced(run: Run) -> None:
    tracer = run.tracer
    tracer.next_op()
    config, train, x_held, y_held, side = image_inputs(run)
    run.record["workers"] = config.workers
    run.begin_measuring()
    with run.operation("traced model3 fit"):
        loaded = traced_fit_op(run, "image-fit", config, train, x_held, y_held)
        path = run.workdir / "image-fit.bundle"
        for _ in range(run.least(SETUP_REPEATS)):
            with tracer.span("dataio.load"):
                loaded = load_bundle(path)
        rng = np.random.default_rng([run.seed, 2])
        traced_requests(run, loaded, [blob_rows(rng, 1, side)[0] for _ in range(run.least(20))])


TRACED = {
    "parity": parity_traced,
    "image-fit": image_traced,
}


def per_layer(run: Run) -> dict[str, float]:
    """Per-module metrics from the spans: per-fit figures are medians over
    operations, predict-path figures medians over single-row requests."""
    tracer = run.tracer
    spans = tracer.spans

    per_op = []
    for op, values in run.op_values.items():
        m = {}
        for layer in (1, 2):
            fit_s = tracer.total("convlayer.fit_layer", op=op, layer=layer)
            windows = values.get(f"convlayer.windows.L{layer}", 0.0)
            m[f"convlayer.fit_layer_s.L{layer}"] = fit_s
            m[f"convlayer.windows.L{layer}"] = windows
            m[f"convlayer.fit_us_per_window.L{layer}"] = fit_s / windows * 1e6 if windows else 0.0
        bda_s = tracer.total("bda.backward_drop", op=op)
        m["bda.backward_drop_s"] = bda_s
        m["bda.share_of_fit_layer"] = bda_s / m["convlayer.fit_layer_s.L1"]
        m["bda.subsets_scored"] = values["bda.subsets_scored"]
        m["iscore.subsets_per_s"] = values["bda.subsets_scored"] / bda_s
        m["metrics.window_auc_s"] = tracer.total("metrics.window_auc", op=op)
        train_s = tracer.total("nn.train", op=op)
        m["nn.train_s"] = train_s
        m["nn.train_steps"] = values["nn.train_steps"]
        m["nn.us_per_step"] = train_s / values["nn.train_steps"] * 1e6
        m["nn.params"] = values["nn.params"]
        m["trace.fit_s"] = tracer.total("pipeline.fit", op=op)
        m["nn.share_of_fit"] = train_s / m["trace.fit_s"]
        m["convlayer.transform_s"] = tracer.total("convlayer.transform", op=op) + tracer.total(
            "convlayer.transform_stack", op=op, stage="fit"
        )
        m["discretize.refit_s"] = tracer.total("discretize.refit", op=op)
        m["discretize.fit_s"] = tracer.total("discretize.fit", op=op)
        m["convlayer.cells_occupied"] = values["convlayer.cells_occupied"]
        m["convlayer.lookups"] = values["convlayer.lookups"]
        m["convlayer.fallback_rate"] = values["convlayer.unseen_lookups"] / values["convlayer.lookups"]
        m["dataio.bundle_bytes"] = values["dataio.bundle_bytes"]
        m["trace.overhead_s"] = values["traced_fit_s"] - values["untraced_fit_s"]
        m["pipeline.fit_default_workers_s"] = values["default_workers_fit_s"]
        per_op.append(m)
    metrics = {name: float(np.median([m[name] for m in per_op])) for name in per_op[0]}

    requests = [s for s in tracer.find("pipeline.predict_bundle") if s["rows"] == 1]
    for name in ("convlayer.transform_stack", "discretize.apply", "nn.forward"):
        metrics[f"{name}_s"] = float(np.median([
            sum(c["end"] - c["start"] for c in spans if c["parent"] == r["id"] and c["name"] == name)
            for r in requests
        ]))
    metrics["pipeline.predict_self_s"] = float(np.median([tracer.self_time(r) for r in requests]))

    def median_span(name):
        found = tracer.find(name)
        return float(np.median([s["end"] - s["start"] for s in found])) if found else 0.0

    for name in ("dataio.load", "dataio.save", "dataio.load_images", "metrics.roc", "synth.generate"):
        metrics[f"{name}_s"] = median_span(name)
    return metrics

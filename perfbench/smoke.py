"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json untraced and traced at a tiny size,
and checks that each run exits 0 without failures and emits every metric
named in BENCHMARK.json with the unit and direction given there. Then
checks that a directory holding only BENCHMARK.json and the benchmark
refuses to run: it exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    where = f"{workload} trace={trace}"
    done = run(ROOT, workload, trace)
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr[-2000:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads("\n".join(lines[:-1]))
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: run not correct: {record.get('problems')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"{where}: attempted is {result.get('attempted')!r}")
    declared = spec["per_layer" if trace else "end_to_end"]
    emitted = result.get("metrics", {})
    extra = set(emitted) - {m["name"] for m in declared}
    if extra:
        problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    for m in declared:
        got = emitted.get(m["name"])
        if got is None:
            problems.append(f"{where}: {m['name']} missing")
            continue
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {m['name']} value {value!r}")
        elif not trace and value == 0:
            problems.append(f"{where}: end-to-end metric {m['name']} is 0")
        if got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got.get('unit')!r}, want {m['unit']!r}")
        if record["directions"].get(m["name"]) != m["better"]:
            problems.append(f"{where}: {m['name']} direction differs from BENCHMARK.json")
    return problems


def check_bare(spec: dict) -> list[str]:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return ["benchmark ran in a directory without the package source"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(spec, w["name"], trace)
    problems += check_bare(spec)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

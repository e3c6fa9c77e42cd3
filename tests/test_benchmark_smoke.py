"""The benchmark's own smoke test, run as part of the suite: a change to a
name, signature or field that `perfbench/` reads fails here too."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]

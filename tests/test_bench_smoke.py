"""The benchmark's schema smoke check, run as a test.

bench/tracing.py rebinds cyindex functions by name, so renaming a traced
function or changing a report field fails here rather than only in a full
benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke():
    proc = subprocess.run([sys.executable, "bench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr[-2000:]

"""Fast smoke check of the benchmark: tiny sizes, every workload, both modes.

    python3 bench/smoke.py

Runs bench/run.py with --tiny for each workload in BENCHMARK.json, with
--trace 0 and --trace 1, and checks the last output line against the
contract: the four keys, whole-number counts, every metric of the mode by
name with its unit, and nothing else. Takes a few seconds; exits 1 on the
first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_line(line: str, wanted: dict[str, str]) -> list[str]:
    result = json.loads(line)
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"correct is {result.get('correct')!r}")
    for key in ("attempted", "failed"):
        if type(result.get(key)) is not int:
            errors.append(f"{key} is not a whole number")
    if not result.get("attempted", 0) >= 1:
        errors.append("attempted < 1")
    metrics = result.get("metrics", {})
    if set(metrics) != set(wanted):
        errors.append(f"metric names differ: {sorted(set(metrics) ^ set(wanted))}")
    for name, unit in wanted.items():
        entry = metrics.get(name, {})
        if set(entry) != {"value", "unit"}:
            errors.append(f"{name}: keys {sorted(entry)}")
        elif entry["unit"] != unit:
            errors.append(f"{name}: unit {entry['unit']!r}, want {unit!r}")
        elif type(entry["value"]) not in (int, float):
            errors.append(f"{name}: value {entry['value']!r} is not a number")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    modes = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in modes.items():
            cmd = spec["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                                     "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                errors = [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
            else:
                errors = check_line(lines[-1], wanted)
            status = "ok" if not errors else "FAIL " + "; ".join(errors)
            print(f"{workload} --trace {trace}: {status}")
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

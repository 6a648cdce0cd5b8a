"""Run bench/run.py on two checkouts pair by pair and write a BENCH_*.json.

    python3 tools/bench_pairs.py --parent DIR --parent-sha REV --change DIR \
        --change-sha REV --out BENCH_15.json

Each DIR is the root of a source checkout of that side's committed files,
for example made by `git archive REV | tar -x -C DIR`. For each workload of
BENCHMARK.json and each seed 1..10, the two sides run `bench/run.py
--workload W --seed S --trace 0` one after the other, alternating which
side goes first; ten pairs are what a claimed gain needs. Each record is
the run's last JSON line plus its output digest; the summary holds the
median and quartiles of every end-to-end metric per side. Runs are sequential, one process at a time. The host is
recorded as the processor (or machine) type and the CPU count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=30 * seconds + 600)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    digest = next(line.split()[-1] for line in lines if line.startswith("digest "))
    return {"metrics": {k: v["value"] for k, v in last["metrics"].items()},
            "ok": last["correct"], "failed": last["failed"], "attempted": last["attempted"],
            "digest": digest}


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--parent-sha", required=True, help="the parent's commit, recorded as parent_sha")
    parser.add_argument("--change-sha", required=True, help="the change's commit, recorded as change_sha")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    result = {
        "what": "end-to-end metrics of bench/run.py for the parent and this change, run pair by pair",
        "harness": f"python3 bench/run.py --workload W --seed S --seconds {seconds:g} --trace 0, "
                   "the run length BENCHMARK.json sets; each record is that run's last JSON line, "
                   "and the digest is the run's 'digest' line",
        "host": f"{platform.processor() or platform.machine()}, {os.cpu_count()} CPUs",
        "python": platform.python_version(),
        "parent_sha": args.parent_sha,
        "change_sha": args.change_sha,
        "order": "parent and change alternate which runs first, pair by pair",
        "workloads": {},
    }
    for workload in workloads:
        pairs = []
        for seed in range(1, PAIRS + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                rec = run_once(sides[side], workload, seed, seconds)
                pair[side] = rec["metrics"]
                pair[f"{side}_ok"] = rec["ok"]
                pair[f"{side}_failed"] = rec["failed"]
                pair[f"{side}_attempted"] = rec["attempted"]
                pair[f"{side}_digest"] = rec["digest"]
                print(f"{workload} seed {seed} {side}: ops_per_s {rec['metrics']['ops_per_s']:.1f}"
                      f" failed {rec['failed']}", file=sys.stderr, flush=True)
            pairs.append(pair)
        summary = {name: {side: _quartiles([p[side][name] for p in pairs]) for side in sides}
                   for name in metrics}
        result["workloads"][workload] = {"pairs": pairs, "summary": summary}
        args.out.write_text(json.dumps(result, indent=1) + "\n")  # keep what is done so far
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""cyindex benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload theorem_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
./src. With --trace 0 the run reports the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer metrics. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. Lines above it are a readable summary with sample counts, the
output digest and the known-defect probes. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 5  # set-ups per untraced run; setup_s is their median
TAIL_BEYOND = 10  # op_tail_ms: highest percentile with this many samples beyond it

from hostspeed import REF_KERNEL_S, kernel_s, scaled  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class MissingProgram(Exception):
    pass


def load_program():
    init = SRC / "cyindex" / "__init__.py"
    if not init.is_file():
        raise MissingProgram(f"no cyindex package at {init.parent}")
    sys.path.insert(0, str(SRC))
    import cyindex

    if Path(cyindex.__file__).resolve() != init.resolve():
        raise MissingProgram(f"cyindex imported from {cyindex.__file__}, not from {SRC}")
    return cyindex


def setup(workload, passes, workdir: Path):
    """Import the program and build the workload's inputs with it; timed,
    and scaled to the reference host speed (see hostspeed)."""
    kernel_s()  # warm the kernel's own code paths
    before = kernel_s()
    t0 = perf_counter()
    cy = load_program()
    ctx = workload.setup(cy, passes, workdir)
    return cy, ctx, scaled(perf_counter() - t0, before, kernel_s())


def child_setup_s(args) -> float:
    """One more set-up in a fresh interpreter, so every import is cold."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up worker failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_op(workload, cy, ctx, op, tracer=None, kernels=None):
    """Time one op to its result or its crash, then check it untimed.

    Given the list `kernels` of the reference kernel's times so far, whose
    last was taken after the previous op, the kernel is timed again right
    after this op, before its check, and the op's time is returned scaled
    by the mean of the two to the reference host speed (see hostspeed).
    """
    error = None
    if tracer is not None:
        tracer.on = True
    t0 = perf_counter()
    try:
        result = workload.execute(cy, ctx, op)
    except Exception as err:  # a crash is a failed op, not a failed run
        error = err
    dt = perf_counter() - t0
    if tracer is not None:
        tracer.on = False
    if kernels is not None:
        kernels.append(kernel_s())
        dt = scaled(dt, kernels[-2], kernels[-1])
    if error is not None:
        return dt, False, f"crash {type(error).__name__}: {error}"[:300].encode()
    try:
        ok, out = workload.check(cy, ctx, op, result)
    except Exception as err:  # output the check cannot read is a wrong answer
        ok, out = False, f"unreadable output {type(err).__name__}: {err}"[:300].encode()
    return dt, ok, out


class Pass:
    """Latencies, verdicts and digest of a run of ops."""

    def __init__(self):
        self.samples: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digest = hashlib.sha256()

    def add(self, op, dt, ok, out, digest: bool):
        self.samples.append(dt)
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op.slot} {op.kind}{op.params}: {out[:160]!r}")
        if digest:
            self.digest.update(len(out).to_bytes(8, "big"))
            self.digest.update(out)


def measure(workload, cy, ctx, passes, seconds: float) -> tuple[Pass, list[float], list[float]]:
    """Closed loop over whole passes, begun until `seconds` have gone by.
    Every slot then has the same number of samples, so no slot weighs more
    in the percentiles for having run in a pass that time cut short.
    Returns the ops with their scaled times, the wall time of each pass,
    and the reference kernel's times."""
    run = Pass()
    kernels = [kernel_s()]
    start = perf_counter()
    pass_s = []
    for p, ops in enumerate(passes):
        if p and perf_counter() - start >= seconds:
            break
        pass_start = perf_counter()
        for op in ops:
            dt, ok, out = run_op(workload, cy, ctx, op, kernels=kernels)
            run.add(op, dt, ok, out, digest=p == 0)
        pass_s.append(perf_counter() - pass_start)
    return run, pass_s, kernels


def end_to_end(run: Pass, setups: list[float]) -> dict:
    times = sorted(run.samples, reverse=True)  # scaled op times, slowest first
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": (run.attempted - run.failed) / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": times[min(TAIL_BEYOND, len(times) - 1)] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_probes(workload, cy, probes, workdir: Path) -> list[str]:
    """Known defects, run once after the timed loop; see bench/README.md."""
    ctx = workload.setup(cy, [probes], workdir / "probes")
    lines = []
    for op in probes:
        dt, ok, out = run_op(workload, cy, ctx, op)
        verdict = "ok" if ok else "FAILED"
        lines.append(f"probe {op.kind}{op.params}: {verdict} in {dt * 1e3:.1f} ms: {out[:120]!r}")
    return lines


def traced(workload, cy, ctx, ops) -> tuple[dict, Pass, int]:
    """The ops untraced, then again with spans. Returns the per-layer
    metrics, the traced run with the verdicts of both, and the number of
    spans kept."""
    plain, spans = Pass(), Pass()
    for op in ops:
        plain.add(op, *run_op(workload, cy, ctx, op), digest=True)
    tracer = Tracer()
    tracer.install()
    try:
        for i, op in enumerate(ops):
            tracer.op_id = i
            spans.add(op, *run_op(workload, cy, ctx, op, tracer), digest=True)
    finally:
        tracer.uninstall()
    values = tracer.metrics(sum(spans.samples), sum(plain.samples))
    if plain.digest.digest() != spans.digest.digest():
        spans.failed += 1
        spans.failures.append("traced output differs from untraced output")
    spans.attempted += plain.attempted
    spans.failed += plain.failed
    spans.failures += plain.failures
    return values, spans, len(tracer.spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke check")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    passes, probes = workload.plan(args.seed, args.tiny)  # known answers: untimed
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        cy, ctx, setup_s = setup(workload, passes, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        summary = [f"workload {args.workload} seed {args.seed} trace {args.trace}"
                   f" python {sys.version.split()[0]}"]
        if args.trace:
            values, run, nspans = traced(workload, cy, ctx, passes[0])
            units = PER_LAYER
            summary.append(f"pass 0 twice, untraced then traced: {len(passes[0])} ops each,"
                           f" {nspans} spans kept")
        else:
            setups = [setup_s] + [child_setup_s(args) for _ in range(SETUPS - 1)]
            run, pass_s, kernels = measure(workload, cy, ctx, passes, args.seconds)
            values = end_to_end(run, setups)
            units = END_TO_END
            n = len(run.samples)
            beyond = min(TAIL_BEYOND, n - 1)
            summary.append(f"{len(pass_s)} passes of {len(passes[0])} ops, {n} ops;"
                           f" pass wall seconds {' '.join(f'{s:.2f}' for s in pass_s)};"
                           f" scaled setups {' '.join(f'{s:.4f}' for s in setups)} s")
            k1, k2, k3 = statistics.quantiles(kernels, n=4)
            summary.append(f"reference kernel {len(kernels)} samples, quartiles"
                           f" {k1 * 1e3:.3f} {k2 * 1e3:.3f} {k3 * 1e3:.3f} ms"
                           f" (host speed {REF_KERNEL_S / k2:.2f}x the reference)")
            summary.append(f"op_tail_ms is p{100 * (n - 1 - beyond) / n:.2f}"
                           f" ({beyond} of {n} samples beyond)")
            summary.extend(run_probes(workload, cy, probes, workdir))
        summary.append(f"failed_ops_ratio {run.failed}/{run.attempted}")
        summary.extend(f"FAILED {line}" for line in run.failures)
        summary.append(f"digest {args.workload} seed {args.seed} pass 0"
                       f" sha256:{run.digest.hexdigest()}")
        for name, value in values.items():
            summary.append(f"  {name:<36} {value:>16.6f} {units[name]}")
        print("\n".join(summary))
        print(json.dumps({
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        }))
        return 0
    except MissingProgram as err:
        print(f"benchmark: {err}; run from the root of a cyindex checkout", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

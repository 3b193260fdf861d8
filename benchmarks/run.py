"""Run one benchmark workload, check its outputs and print its metrics.

    python3 benchmarks/run.py --workload table1 --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25

Workloads (see ``workloads.py``): ``table1``, ``sweep`` and ``route``; ``all``
runs the three in turn, each in a fresh process, and exits 1 if any failed.
With ``--trace 0`` the run is untimed set-up in fresh processes, then a
closed loop of library calls for ``--seconds`` of call time (whole cycles
only), checked cycle by cycle; it prints the end-to-end metrics, times at
reference host speed (``hostspeed.py``) with the unscaled value beside each
on its metric line. With
``--trace 1`` it runs a fixed number of operations twice, untraced and then
traced, and prints the per-layer metrics and the tracing overhead. The
metric names and units come from ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every check passed and 1 otherwise. A full record of the run, with its
provenance, is written under ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

from checkout import BENCH_DIR, use_checkout_src

use_checkout_src()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


@dataclass
class Outcome:
    """One operation: its inputs, wall time, output or error."""

    op: Any
    seconds: float
    output: Any = None
    error: Optional[str] = None


def run_op(workload, op) -> Outcome:
    """Call the library once; an escaped exception is recorded, not raised."""
    start = perf_counter()
    try:
        raw = workload.call(op)
    except Exception:
        return Outcome(op, perf_counter() - start, error=traceback.format_exc())
    seconds = perf_counter() - start
    try:
        return Outcome(op, seconds, workload.finish(op, raw))
    except Exception:
        return Outcome(op, seconds, error=traceback.format_exc())


def timed_loop(workload, seed: int, seconds: float, verifier: "Verifier",
               gauge: hostspeed.Gauge) -> list[tuple]:
    """Whole cycles of operations until ``seconds`` of call time have passed.

    Each cycle is checked and dropped before the next starts, so memory does
    not grow with the length of the run. Returns (op, seconds, failed) per op.
    """
    ops = workload.ops(seed)
    timings = []
    busy = 0.0
    while busy < seconds:
        cycle = []
        for _ in range(workload.cycle):
            cycle.append(run_op(workload, next(ops)))
            gauge.after(cycle[-1].seconds)
        for o in cycle:
            verifier.add(o)
            timings.append((o.op, o.seconds, o.error is not None))
            busy += o.seconds
    return timings


def setup_seconds(name: str, seed: int, gauge: hostspeed.Gauge) -> list[float]:
    """Time to the first timed operation, in fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed)],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        times.append(float(done.stdout.split()[-1]))
        gauge.after(times[-1])
    return times


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


class Verifier:
    """Checks outcomes as they arrive; pooled statistics are compared at the end.

    A unit is a cell for ``table1`` and ``sweep`` and a call for ``route``.
    It fails when its call raised, when a per-call check rejects it, or when
    the run's pooled statistics for that cell disagree with the reference.
    """

    def __init__(self, workload, reference: dict) -> None:
        self.workload = workload
        self.reference = reference
        self.pools: dict = {}
        self.pending: list[tuple] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, o: Outcome) -> None:
        units = self.workload.units(o.op)
        self.attempted += units
        if o.error is not None:
            self.failed += units
            self.problems.append(f"op {o.op.index} raised:\n{o.error}")
            return
        found = self.workload.check(o.op, o.output, self.reference, self.pools)
        for (unit, pool_key), bad in found.items():
            if bad:
                self.failed += 1
                self.problems.append(f"op {o.op.index} {unit}: " + "; ".join(bad))
            elif pool_key in self.pools:
                self.pending.append((o.op.index, unit, pool_key))

    def finish(self) -> tuple[int, int, list[str]]:
        """(units attempted, units failed, problems) including pooled checks."""
        pooled = {
            key: pool.compare(self.workload.pool_reference(self.reference, key))
            for key, pool in self.pools.items()
        }
        for index, unit, key in self.pending:
            if pooled[key]:
                self.failed += 1
                self.problems.append(f"op {index} {unit}: " + "; ".join(pooled[key]))
        return self.attempted, self.failed, self.problems


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def provenance(workload, seed: int, seconds: int, trace: bool, calls: int) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload.name,
        "why": workload.why,
        "all_workloads": wl.WHY,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "trials_per_cell": workload.trials_per_cell,
        "calls_per_run": calls,
        "loop": "closed, one caller, threads=1",
    }


def end_to_end(workload, seed: int, seconds: int, verifier: Verifier) -> tuple[dict, dict]:
    """End-to-end metrics at reference host speed, and the unscaled times."""
    setup_gauge = hostspeed.Gauge()
    setup = setup_seconds(workload.name, seed, setup_gauge)
    workload.warmup(seed)
    gauge = hostspeed.Gauge()
    timings = timed_loop(workload, seed, seconds, verifier, gauge)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    busy = sum(t for _, t, _ in timings)
    routed = sum(workload.routed_trials(op) for op, _, failed in timings if not failed)
    latencies = [1000.0 * t / workload.latency_divisor(op) for op, t, _ in timings]
    raw = {
        "setup_s": statistics.median(setup),
        "trials_per_s": routed / busy,
        "route_ms_p50": statistics.median(latencies),
        "route_ms_p90": float(np.percentile(latencies, 90.0)),
    }
    speed, setup_speed = gauge.speed(), setup_gauge.speed()
    metrics = {
        "setup_s": raw["setup_s"] * setup_speed,
        "trials_per_s": raw["trials_per_s"] / speed,
        "route_ms_p50": raw["route_ms_p50"] * speed,
        "route_ms_p90": raw["route_ms_p90"] * speed,
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "calls": len(timings),
        "busy_s": busy,
        "raw_metrics": raw,
        "host_speed": speed,
        "host_speed_setup": setup_speed,
        "kernel_samples": len(gauge.samples),
        "setup_s_samples": setup,
    }
    return metrics, extra


def traced(workload, seed: int, seconds: int, verifier: Verifier, out_dir: Path) -> tuple[dict, dict]:
    """Per-layer metrics from a traced pass over a fixed list of operations.

    The same operations run untraced first; the overhead compares the two
    passes' call time, each at reference host speed.
    """
    workload.warmup(seed)
    cycles = max(1, round(seconds / (workload.nominal_op_s * workload.cycle)))
    source = workload.ops(seed)
    ops = [next(source) for _ in range(cycles * workload.cycle)]

    def timed_pass(tracer=None):
        gauge = hostspeed.Gauge()
        outcomes = []
        for op in ops:
            if tracer is not None:
                tracer.op = op.index
            outcomes.append(run_op(workload, op))
            gauge.after(outcomes[-1].seconds)
        return outcomes, sum(o.seconds for o in outcomes) * gauge.speed()

    plain, plain_s = timed_pass()
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as absent:
        outcomes, traced_s = timed_pass(tracer)
    tracing.write_spans(tracer, out_dir / f"spans-{workload.name}-seed{seed}.jsonl")
    for o in outcomes:
        verifier.add(o)
    if any(
        a.output != b.output or (a.error is None) != (b.error is None)
        for a, b in zip(plain, outcomes)
    ):
        verifier.problems.append("traced outputs differ from untraced outputs")

    metrics = {k: v for k, (v, _unit) in tracing.layer_metrics(tracer).items()}
    metrics["trace.overhead_ratio"] = traced_s / plain_s - 1.0
    extra = {
        "calls": len(ops),
        "untraced_call_s_at_reference_speed": plain_s,
        "traced_call_s_at_reference_speed": traced_s,
        "spans": len(tracer.spans),
        "absent_bindings": absent,
    }
    return metrics, extra


def run_all(args) -> int:
    """Each workload in its own fresh process; 1 if any of them failed."""
    results, worst = {}, 0
    for name in wl.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        print(done.stdout, end="")
        print(done.stderr, end="", file=sys.stderr)
        lines = done.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else None
        worst = max(worst, int(done.returncode != 0))
    print(json.dumps(results))
    return worst


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run leoroute benchmark workloads.")
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=positive_int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    workload = wl.make(args.workload, out_dir)

    verifier = Verifier(workload, reference)
    if args.trace:
        found, extra = traced(workload, args.seed, args.seconds, verifier, out_dir)
        wanted = spec["per_layer"]
    else:
        found, extra = end_to_end(workload, args.seed, args.seconds, verifier)
        wanted = spec["end_to_end"]
    verifier.problems += checks.check_worker_count(wl.derive_seed(args.seed, 5))
    attempted, failed, problems = verifier.finish()
    correct = not problems

    metrics = {m["name"]: {"value": found[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "provenance": provenance(
            workload, args.seed, args.seconds, bool(args.trace), extra["calls"]),
        "metrics": metrics,
        "error_rate": {"value": failed / attempted, "unit": "ratio"},
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "problems": problems,
        "details": extra,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")

    for key, value in record["provenance"].items():
        if key != "all_workloads":
            print(f"# {key}: {value}")
    for n, why in record["provenance"]["all_workloads"].items():
        print(f"# why {n}: {why}")
    unscaled = extra.get("raw_metrics", {})
    for key, value in extra.items():
        if key != "raw_metrics":
            print(f"# {key}: {value}")
    for problem in problems[:20]:
        print(f"! {problem}")
    for n, m in metrics.items():
        raw = f" (unscaled {unscaled[n]!r} {m['unit']})" if n in unscaled else ""
        print(f"{n} = {m['value']!r} {m['unit']}{raw}")
    print(f"error_rate = {failed / attempted!r} ratio ({failed} of {attempted} units)")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

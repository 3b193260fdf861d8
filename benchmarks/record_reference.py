"""Record the reference values the benchmark's output checks compare against.

Run from the repository root:

    python3 benchmarks/record_reference.py

It writes ``benchmarks/reference.json``: the closed-form rows exactly as the
library computes them, and per-cell Monte Carlo statistics (counts, means and
standard deviations) from many trials under a seed no benchmark run uses. The
checks derive their tolerances from these standard deviations and the trial
count of the run being checked. Recording takes about 7 minutes on one core.
"""

from __future__ import annotations

import json
import platform
import sys
import time

from checkout import BENCH_DIR, use_checkout_src

use_checkout_src()

import numpy as np  # noqa: E402

from leoroute.experiments import (  # noqa: E402
    CellParams,
    SweepSpec,
    run_table1,
    run_trials,
    sweep,
)

import workloads as wl  # noqa: E402

#: Base seed of the reference trials, apart from the seeds runs derive.
REFERENCE_SEED = 0x5EED_0F_BE5C
#: Trials per live ``table1`` cell and per ``sweep`` (distance, strategy) cell.
TABLE1_REFERENCE_TRIALS = 4000
SWEEP_REFERENCE_TRIALS = 2000


def trial_stats(records) -> dict:
    """Count, mean and standard deviation of one cell's trial records."""
    done = [r for r in records if r.status != "type2_interrupted"]
    out = {
        "trials": len(records),
        "type2_count": len(records) - len(done),
    }
    for field in ("latency_ms", "efficiency"):
        values = np.array([getattr(r, field) for r in done], dtype=float)
        out[f"{field}_mean"] = float(values.mean()) if len(values) else None
        out[f"{field}_sd"] = float(values.std(ddof=1)) if len(values) > 1 else None
    return out


def record_table1() -> dict:
    table = run_table1(epsilons=wl.TABLE1_EPSILONS, trials=1, base_seed=REFERENCE_SEED)
    cells = {}
    for col in table.columns:
        for eps in wl.TABLE1_EPSILONS:
            params = CellParams.from_preset(col.preset, epsilon=eps)
            entry = {
                "n_hat": col.n_hat[eps],
                "reliable_angle_rad": col.reliable_angle_rad[eps],
                "min_sats": col.min_sats[eps],
                "type1": col.type1[eps],
                "immediate_type1": wl.immediate_type1(params),
                "contact_mean_rad": col.contact_mean_rad,
            }
            if not entry["immediate_type1"]:
                records = run_trials(
                    params, "equal-interval", TABLE1_REFERENCE_TRIALS, REFERENCE_SEED)
                entry.update(trial_stats(records))
            cells[f"{col.preset}/{eps!r}"] = entry
            print(f"table1 {col.preset}/{eps!r}", entry, flush=True)
    return cells


def record_sweep() -> dict:
    spec = SweepSpec(
        variable="distance_km",
        values=wl.SWEEP_DISTANCES,
        fixed=dict(wl.SWEEP_FIXED),
        trials=1,
        base_seed=REFERENCE_SEED,
    )
    closed = sweep(spec, strategies=("ideal", "equal-interval"))
    rows = {(r.swept_value, r.strategy): r for r in closed}
    cells = {}
    for d in wl.SWEEP_DISTANCES:
        params = wl.sweep_spec((d,), 1, 0).cell(d)
        eq = rows[(d, "equal-interval")]
        entry = {
            "eff_contour": eq.eff_contour,
            "eff_binomial": eq.eff_binomial,
            "ideal_latency_ms": rows[(d, "ideal")].mean_latency_ms,
            "strategies": {},
        }
        for strategy in wl.SWEEP_STRATEGIES[1:]:
            records = run_trials(params, strategy, SWEEP_REFERENCE_TRIALS, REFERENCE_SEED)
            entry["strategies"][strategy] = trial_stats(records)
        cells[repr(d)] = entry
        print(f"sweep {d!r}", entry, flush=True)
    return cells


def main() -> int:
    start = time.perf_counter()
    reference = {
        "recorded_with": {
            "seed": REFERENCE_SEED,
            "table1_trials": TABLE1_REFERENCE_TRIALS,
            "sweep_trials": SWEEP_REFERENCE_TRIALS,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "table1": record_table1(),
        "sweep": record_sweep(),
    }
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} in {time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

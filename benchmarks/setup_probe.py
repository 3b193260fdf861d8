"""Print the seconds a fresh process needs before its first timed operation.

    python3 benchmarks/setup_probe.py <workload> <seed>

Covers importing ``leoroute``, preparing the workload's inputs from the seed,
and the untimed warm-up call that lets lazy set-up finish.
"""

import sys
import time

start = time.perf_counter()

from checkout import BENCH_DIR, use_checkout_src  # noqa: E402

use_checkout_src()

import workloads  # noqa: E402

name, seed = sys.argv[1], int(sys.argv[2])
out_dir = BENCH_DIR / "out"
out_dir.mkdir(exist_ok=True)
workload = workloads.make(name, out_dir)
ops = workload.ops(seed)
for _ in range(workload.cycle):
    next(ops)
workload.warmup(seed)
print(time.perf_counter() - start)

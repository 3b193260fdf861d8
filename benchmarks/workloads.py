"""The three benchmark workloads: inputs from a seed, the timed call, its checks.

Every workload is a closed loop with one caller and ``threads=1``: the next
operation starts only after the previous one has returned. Operations come in
cycles of fixed composition, and a run always ends on a whole cycle.

Inputs depend only on the seed. The program receives the generated inputs and
nothing else. No operation repeats the Monte Carlo seed or the sweep distance
of an earlier one within a run, so a cache keyed on those would not be hit.
The closed-form parts do repeat their inputs: every ``run_table1`` call plans
the same preset cells, and every ``route`` cycle plans the same (preset, ε)
pairs, as they do for a user who runs the table or routes again.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import checks
from leoroute import cli, experiments
from leoroute.analysis import plan_hops
from leoroute.experiments import CellParams, SweepSpec

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, *path: int) -> int:
    """A non-negative 63-bit seed mixed from the run seed and an index path."""
    x = _splitmix64(seed & _MASK64)
    for p in path:
        x = _splitmix64(x ^ _splitmix64(p & _MASK64))
    return x >> 1


def immediate_type1(params: CellParams) -> bool:
    """True when planning fails before any hop count is feasible.

    Such equal-interval cells sample no shell and route nothing, so their
    records are not counted as routed trials.
    """
    plan = plan_hops(
        params.arc_angle, params.theta_max, params.n_sat, params.epsilon
    )
    return plan.type1_interrupted and plan.iterations_used == 1


@dataclass(frozen=True)
class Op:
    """One timed library call and the inputs it was given."""

    index: int
    seed: int
    preset: str = ""
    strategy: str = ""
    epsilon: float = 0.0
    distances_km: tuple[float, ...] = ()


class Workload:
    """What the workloads share. A subclass sets the class attributes below
    and defines ``ops``, ``warmup``, ``call``, ``units``, ``routed_trials``
    and ``check``; ``check`` returns the problems of one call keyed by
    (unit, pool key), where the pool key names the cell whose trials
    ``checks.Pool`` gathers over the run (None for none). A workload that
    pools trials also defines ``pool_reference``, the reference cell a pool
    is compared with at the end of the run.
    """

    name: str
    why: str
    #: Operations per cycle.
    cycle = 1
    #: Rough seconds one operation takes; sizes the fixed traced run.
    nominal_op_s: float
    #: Trials in one Monte Carlo cell of one operation.
    trials_per_cell: int

    def finish(self, op: Op, raw):
        """The output to check, from what the timed call returned."""
        return raw

    def latency_divisor(self, op: Op) -> int:
        """Latency is reported per routed trial."""
        return self.routed_trials(op)


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

TABLE1_PRESETS = ("starlink", "oneweb", "kuiper")
TABLE1_EPSILONS = (0.1, 0.01)
#: Trials per live cell in one ``run_table1`` call (desk scale is 10 000).
TABLE1_TRIALS = 40


class Table1(Workload):
    """``run_table1`` over the three presets at both budgets, reduced trials."""

    name = "table1"
    why = (
        "desk-scale summary table over the three preset shells at both budgets; "
        "dense shells make sampling and nearest-satellite snapping dominant"
    )
    nominal_op_s = 0.55
    trials_per_cell = TABLE1_TRIALS

    def __init__(self) -> None:
        self.cells = [(p, e) for p in TABLE1_PRESETS for e in TABLE1_EPSILONS]
        self.live = [
            (p, e)
            for p, e in self.cells
            if not immediate_type1(CellParams.from_preset(p, epsilon=e))
        ]

    def ops(self, seed: int) -> Iterator[Op]:
        i = 0
        while True:
            yield Op(index=i, seed=derive_seed(seed, 1, i))
            i += 1

    def warmup(self, seed: int) -> None:
        experiments.run_table1(
            epsilons=TABLE1_EPSILONS, trials=1, base_seed=derive_seed(seed, 0)
        )

    def call(self, op: Op):
        return experiments.run_table1(
            epsilons=TABLE1_EPSILONS,
            trials=TABLE1_TRIALS,
            base_seed=op.seed,
            threads=1,
        )

    def units(self, op: Op) -> int:
        """Cells in one call; the unit ``error_rate`` counts."""
        return len(self.cells)

    def routed_trials(self, op: Op) -> int:
        return len(self.live) * TABLE1_TRIALS

    def check(self, op: Op, output, reference: dict, pools: dict) -> dict:
        found = checks.check_table1(output, TABLE1_TRIALS, reference["table1"], pools)
        return {(cell, cell): bad for cell, bad in found.items()}

    def pool_reference(self, reference: dict, cell: str) -> dict:
        return reference["table1"][cell]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

#: The 800-satellite, 500 km shell of the strategy-ordering sweep.
SWEEP_FIXED = {"n_sat": 800, "altitude_km": 500.0, "d_max_km": 3000.0, "epsilon": 0.1}
SWEEP_STRATEGIES = ("ideal", "equal-interval", "min-deflection", "max-stepsize")
#: 48 distances spanning 4000-15750 km in 250 km steps. A cycle is two sweep
#: calls at distances 6000 km apart, so every cycle costs about the same
#: while no distance (and so no efficiency integral) repeats within a run.
SWEEP_DISTANCES = tuple(4000.0 + 250.0 * k for k in range(48))
#: Visit order of the pairs: a stride that spreads any prefix over the range.
#: It is the same for every seed, so runs of equal length measure the same mix.
SWEEP_ORDER = tuple((7 * k) % 24 for k in range(24))
#: Trials per strategy in one sweep cell.
SWEEP_TRIALS = 200


def sweep_spec(distances_km, trials: int, base_seed: int) -> SweepSpec:
    return SweepSpec(
        variable="distance_km",
        values=tuple(distances_km),
        fixed=dict(SWEEP_FIXED),
        trials=trials,
        base_seed=base_seed,
    )


class Sweep(Workload):
    """``sweep`` over distances on the 800-satellite shell, all four strategies."""

    name = "sweep"
    why = (
        "strategy-ordering distance sweep on the 800-satellite shell: greedy "
        "walks, hop planning and both efficiency integrals per cell"
    )
    cycle = 2
    nominal_op_s = 2.3
    trials_per_cell = SWEEP_TRIALS

    def __init__(self) -> None:
        self.immediate = {
            d: immediate_type1(sweep_spec((d,), 1, 0).cell(d)) for d in SWEEP_DISTANCES
        }

    def ops(self, seed: int) -> Iterator[Op]:
        i = 0
        while True:
            k = SWEEP_ORDER[(i // 2) % len(SWEEP_ORDER)]
            for d in (SWEEP_DISTANCES[k], SWEEP_DISTANCES[k + len(SWEEP_ORDER)]):
                yield Op(index=i, seed=derive_seed(seed, 3, i), distances_km=(d,))
                i += 1

    def warmup(self, seed: int) -> None:
        spec = sweep_spec(SWEEP_DISTANCES[:1], 1, derive_seed(seed, 0))
        experiments.sweep(spec, strategies=("ideal", "min-deflection", "max-stepsize"))

    def call(self, op: Op):
        spec = sweep_spec(op.distances_km, SWEEP_TRIALS, op.seed)
        return experiments.sweep(spec, strategies=SWEEP_STRATEGIES, threads=1)

    def units(self, op: Op) -> int:
        """Cells (distance x strategy) in one call."""
        return len(op.distances_km) * len(SWEEP_STRATEGIES)

    def routed_trials(self, op: Op) -> int:
        live = sum(
            len(SWEEP_STRATEGIES) - 1 - int(self.immediate[d]) for d in op.distances_km
        )
        return live * SWEEP_TRIALS

    def check(self, op: Op, output, reference: dict, pools: dict) -> dict:
        found = {}
        for d in op.distances_km:
            rows = [r for r in output if r.swept_value == d]
            per_strategy = checks.check_sweep(
                rows, d, SWEEP_TRIALS, op.seed, reference["sweep"][repr(d)],
                SWEEP_STRATEGIES, pools)
            found.update({(f"{d!r}/{s}", (d, s)): bad for s, bad in per_strategy.items()})
        return found

    def pool_reference(self, reference: dict, cell: tuple) -> dict:
        distance, strategy = cell
        return reference["sweep"][repr(distance)]["strategies"][strategy]


# ---------------------------------------------------------------------------
# route
# ---------------------------------------------------------------------------

ROUTE_PRESETS = ("starlink", "kuiper", "oneweb")
ROUTE_STRATEGIES = ("equal-interval", "min-deflection", "max-stepsize")
ROUTE_EPSILONS = (0.1, 0.01)
ROUTE_D_MAX_KM = 3000.0
ROUTE_COMBOS = tuple(
    (p, s, e) for e in ROUTE_EPSILONS for p in ROUTE_PRESETS for s in ROUTE_STRATEGIES
)


def route_argv(op: Op, out_path: Path) -> list[str]:
    return [
        "route",
        "--preset", op.preset,
        "--strategy", op.strategy,
        "--epsilon", repr(op.epsilon),
        "--d-max", repr(ROUTE_D_MAX_KM),
        "--dome-angle", "pi",
        "--seed", str(op.seed),
        "--out", str(out_path),
    ]


class Route(Workload):
    """One in-process ``leoroute route`` call at a time, fresh seed each."""

    name = "route"
    why = (
        "one in-process leoroute route call at a time with a fresh seed: "
        "nothing is amortized, so per-call costs show"
    )
    cycle = len(ROUTE_COMBOS)
    nominal_op_s = 0.003
    trials_per_cell = 1

    def __init__(self, out_dir: Path) -> None:
        self.out_path = out_dir / f"route-{os.getpid()}.json"
        self.immediate = {
            (p, e): immediate_type1(CellParams.from_preset(p, epsilon=e))
            for p in ROUTE_PRESETS
            for e in ROUTE_EPSILONS
        }

    def ops(self, seed: int) -> Iterator[Op]:
        i = 0
        while True:
            for preset, strategy, eps in ROUTE_COMBOS:
                yield Op(
                    index=i,
                    seed=derive_seed(seed, 4, i),
                    preset=preset,
                    strategy=strategy,
                    epsilon=eps,
                )
                i += 1

    def warmup(self, seed: int) -> None:
        for k, (preset, strategy, eps) in enumerate(ROUTE_COMBOS):
            op = Op(k, derive_seed(seed, 0, k), preset, strategy, eps)
            self.finish(op, self.call(op))

    def call(self, op: Op):
        return cli.main(route_argv(op, self.out_path))

    def finish(self, op: Op, raw):
        """(exit code, route payload) of one call, read after the timer stops."""
        payload = json.loads(self.out_path.read_text())
        self.out_path.unlink()
        return raw, payload

    def units(self, op: Op) -> int:
        return 1

    def routed_trials(self, op: Op) -> int:
        skipped = op.strategy == "equal-interval" and self.immediate[(op.preset, op.epsilon)]
        return 0 if skipped else 1

    def latency_divisor(self, op: Op) -> int:
        """A route call is timed whole, whatever it routed."""
        return 1

    def check(self, op: Op, output, reference: dict, pools: dict) -> dict:
        """The route recomputed from unit vectors; route calls pool nothing."""
        exit_code, payload = output
        cell = reference["table1"][f"{op.preset}/{op.epsilon!r}"]
        shell = checks.rebuild_shell(op.preset, op.seed)
        return {("call", None): checks.check_route(
            shell, ROUTE_D_MAX_KM, op.strategy, cell["type1"],
            cell["immediate_type1"], exit_code, payload)}


def make(name: str, out_dir: Path):
    if name == "table1":
        return Table1()
    if name == "sweep":
        return Sweep()
    if name == "route":
        return Route(out_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("table1", "sweep", "route")
WHY = {cls.name: cls.why for cls in (Table1, Sweep, Route)}

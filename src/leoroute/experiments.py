"""Monte Carlo harness: interruption rates, summary table, parameter sweeps.

Each trial routes between two endpoints at an exact dome-angle separation
through a fresh uniform constellation, and records status, latency, and
efficiency. The endpoints lie in the xz-plane, so the arc's normal is the
y axis, and a trial draws its shell band first
(:func:`~leoroute.constellation.sample_bands`): only the satellites with
|u_y| <= sin w, then the two endpoints as the last two satellites. When
the route on that band shell is certified — its
:attr:`~leoroute.routing.Route.band_reach` is at most w, so no satellite
outside the band could have changed it — it is the route on the whole
shell; otherwise the trial draws the rest of the shell from the same generator
(:func:`~leoroute.constellation.sample_band_complement`) and routes again on
all ``n_sat`` satellites. Band and complement together are ``n_sat``
i.i.d. uniform satellites (the restriction property of the binomial point
process), so the records follow the same law as routing on a full shell.
``leoroute route`` applies the same rule to a whole shell it is given
(:meth:`TrialCell.route_rows`): it routes on the shell's rows in the band
first, and on every row only when that route is not certified.

Trials are routed in batches of :attr:`TrialCell.batch`, for every
sampled strategy. Each trial draws its band count and one block of
uniforms from its own generator, and one trig pass writes every band's
rows, then its endpoints, straight into the batch's
:class:`~leoroute.routing.ShellStack`. One batch router call routes the
stack: :func:`~leoroute.routing.route_equal_interval_batch` computes the
cell's targets once, snaps all shells in one lockstep pass and repairs
them in rounds of one lockstep walk each, and the greedy baselines walk
all shells in lockstep. The trials that need the complement draw it into
one more stack, after their band rows, for one more router call. The
batch size keeps a batch under 1 MB, and batching changes no record.

Per-trial seeds are derived from the base seed with a splitmix64 mix of
the trial index, so results are deterministic and independent of
execution order; trials may run in parallel worker processes and are
reduced in trial-index order, making output byte-identical for any worker
count.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .analysis import (
    HopPlan,
    contact_mean,
    latency_floor,
    max_hop_angle,
    min_feasible_hops,
    min_sats_grid_minimum,
    plan_hops,
)
from .constellation import (
    PRESET_PARAMS,
    point_rows,
    sample_band_complement,
    sample_bands,
)
from .efficiency import efficiency_binomial, efficiency_contour, measured_efficiency
from .errors import InvalidInputError
from .geometry import R_EARTH_KM, SpherePoint, coincident
from .routing import (
    _PRODUCT_DOTS,
    Route,
    ShellStack,
    route_equal_interval_batch,
    route_max_stepsize_batch,
    route_min_deflection_batch,
)

# Unused here; benchmarks/tracing.py wraps these bindings by name.
from .constellation import sample_bpp  # noqa: F401
from .routing import route_equal_interval, route_max_stepsize  # noqa: F401
from .routing import route_min_deflection  # noqa: F401

#: Version of the CSV/JSON output layout.
SCHEMA_VERSION = 1

#: Routing strategies understood by the harness, in canonical output order.
STRATEGIES = ("ideal", "equal-interval", "min-deflection", "max-stepsize")


#: Column order of aggregate-record CSV output.
CSV_FIELDS = (
    "swept_value",
    "strategy",
    "mean_latency_ms",
    "type2_rate",
    "eff_measured",
    "eff_contour",
    "eff_binomial",
    "trials",
    "seed",
)

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 step: a well-mixed 64-bit hash of ``x``."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def trial_seed(base_seed: int, trial_index: int) -> int:
    """Per-trial RNG seed; order-independent in ``trial_index``."""
    return (base_seed ^ splitmix64(trial_index)) & _MASK64


#: Standard-normal quantile of a two-sided 95% interval.
_Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise InvalidInputError("wilson_interval needs at least one trial")
    if not 0 <= successes <= trials:
        raise InvalidInputError("successes must lie in [0, trials]")
    z = _Z95
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    # At boundary counts, center -/+ half equals the boundary exactly in
    # real arithmetic; clamp away the floating-point residue so the
    # interval always contains the point estimate.
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


@dataclass(frozen=True)
class CellParams:
    """One experimental cell: constellation shape plus link settings."""

    n_sat: int
    altitude_km: float
    arc_angle: float
    d_max_km: float = 3000.0
    epsilon: float = 0.01
    r_earth_km: float = R_EARTH_KM

    def __post_init__(self) -> None:
        if self.n_sat < 1:
            raise InvalidInputError(f"n_sat must be >= 1, got {self.n_sat}")
        if self.altitude_km <= 0.0:
            raise InvalidInputError("altitude_km must be positive")
        if not 0.0 < self.arc_angle <= math.pi:
            raise InvalidInputError(
                f"arc_angle must be in (0, pi], got {self.arc_angle}"
            )
        if not self.d_max_km > 0.0 or not 0.0 < self.epsilon < 1.0:
            raise InvalidInputError("require d_max_km > 0 and epsilon in (0, 1)")

    @classmethod
    def from_preset(
        cls,
        name: str,
        epsilon: float = 0.01,
        arc_angle: float = math.pi,
        d_max_km: float = 3000.0,
    ) -> "CellParams":
        if name not in PRESET_PARAMS:
            raise InvalidInputError(
                f"unknown preset {name!r}; choose from {sorted(PRESET_PARAMS)}"
            )
        altitude_km, n_sat = PRESET_PARAMS[name]
        return cls(n_sat, altitude_km, arc_angle, d_max_km, epsilon)

    @property
    def radius(self) -> float:
        return self.r_earth_km + self.altitude_km

    @property
    def theta_max(self) -> float:
        return max_hop_angle(self.radius, self.r_earth_km, self.d_max_km)


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one Monte Carlo trial."""

    trial_index: int
    seed: int
    strategy: str
    status: str
    latency_ms: Optional[float]
    n_hops_final: int
    efficiency: Optional[float]

    def __post_init__(self) -> None:
        if self.status not in ("ok", "repaired", "type2_interrupted"):
            raise InvalidInputError(f"unknown status {self.status!r}")
        if (self.latency_ms is None) != (self.status == "type2_interrupted"):
            raise InvalidInputError(
                "latency must be present exactly when the route completed"
            )


def make_endpoints(radius: float, arc_angle: float) -> tuple[SpherePoint, SpherePoint]:
    """Two points on the sphere separated by exactly ``arc_angle``.

    Placed symmetrically about the +z axis in the xz-plane, so antipodal
    endpoints land on the equator and the tie-break conventions stay
    deterministic.
    """
    if not 0.0 < arc_angle <= math.pi:
        raise InvalidInputError(f"arc_angle must be in (0, pi], got {arc_angle}")
    half = arc_angle / 2.0
    a = SpherePoint.from_unit_vector(
        np.array([math.sin(half), 0.0, math.cos(half)]), radius
    )
    b = SpherePoint.from_unit_vector(
        np.array([-math.sin(half), 0.0, math.cos(half)]), radius
    )
    return a, b


def reference_hop_count(params: CellParams) -> int:
    """Hop count of the best possible route for the cell's endpoints."""
    return min_feasible_hops(params.arc_angle, params.theta_max)


def reference_latency_ms(params: CellParams) -> float:
    """Latency floor (ms) used as the efficiency reference.

    This is the provable bound of :func:`leoroute.analysis.latency_floor`,
    which no admissible route can undercut — so per-trial efficiencies
    are always at most 1, for every strategy.
    """
    return latency_floor(params.arc_angle, params.theta_max, params.radius)


#: Relative widening of the drawn band over the half-width that certifies
#: a route, so that rounding at the band's edge cannot matter (sin/asin,
#: and the arc's normal, which is the y axis only to within 1e-16).
_BAND_SLACK = 1e-9

#: Cap on the doubles one batch of trials holds (1 MB). A satellite of an
#: equal-interval batch is charged 6, which covers the draw's peak: its 3
#: coordinates in the batch stack, its 2 uniforms and its share of the
#: trials' generators (a trace peaked at 5.9 a stack row). The uniforms are
#: freed before routing starts, and the batch then holds one work area of
#: at most n_hat - 1 doubles a satellite and at most
#: ``routing._PRODUCT_DOTS``: a group of target dots while it snaps, the
#: lanes of one repair walk while it repairs. A satellite of a greedy batch
#: takes ``_WALK_DOUBLES``. A batch's re-routes add their whole shells, at
#: most 2 a batch on table1 (5 seeds x 400 trials) and 4 on the
#: 800-satellite sweep (48 distances x 200 trials).
_BATCH_DOUBLES = 1 << 17

#: Doubles each satellite of a greedy batch takes at the peak of the
#: lockstep walk, a lane drop: its 3 coordinates in the stack, its
#: deflection, its dots with the goal and with the current satellite, and
#: up to 10 while the drop copies its coordinates, closeness to the goal
#: and score and the previous drop's copies are still held. Both copies
#: hold only the walks still going, so a trace of the 800-satellite sweep
#: cells peaked at 16 per stack row, masks included.
_WALK_DOUBLES = 18


#: Chance that a cap of the band's half-width around a point of the arc
#: holds no satellite: the contact-law quantile that sets the band drawn
#: first for equal-interval and min-deflection routes.
_BAND_MISS_PROBABILITY = 1e-4


def contact_band(n_sat: int) -> float:
    """Half-width w (rad) of the contact-law band for ``n_sat`` satellites.

    A cap of radius w around a point holds none of ``n_sat`` uniform
    satellites with probability ((1 + cos w) / 2)^N =
    ``_BAND_MISS_PROBABILITY``, i.e. sin^2(w / 2) = 1 - alpha^(1/N).
    """
    tail = -math.expm1(math.log(_BAND_MISS_PROBABILITY) / max(n_sat, 1))
    return 2.0 * math.asin(math.sqrt(tail))


def _band_halfwidth(params: CellParams, strategy: str, plan: HopPlan) -> float:
    """Half-width w (rad) of the band around the arc that certifies routes.

    max-stepsize keeps to its belt, ``plan.reliable_angle``. The other
    strategies take the contact-law band (:func:`contact_band`) of the
    cell's N satellites, except an equal-interval plan that is type-I
    interrupted: its routes are mostly repaired or interrupted and would
    almost never certify (97% of oneweb's trials at epsilon 0.1 did not),
    so its band is the whole sphere.
    """
    if strategy == "max-stepsize":
        return plan.reliable_angle
    if strategy == "equal-interval" and plan.type1_interrupted:
        return math.pi / 2.0
    return contact_band(params.n_sat)


@dataclass(frozen=True)
class TrialCell:
    """What every sampled trial of a cell shares, computed once per cell."""

    params: CellParams
    strategy: str
    plan: HopPlan
    #: Unit rows of src and dst, the last two satellites of every shell.
    endpoints: np.ndarray
    #: Half-width w (rad) of the band that certifies a route: one whose
    #: ``band_reach`` is at most w.
    halfwidth: float
    #: Sine s of the slightly wider band |u_y| <= s a trial draws first.
    band_sine: float
    reference_ms: float
    #: Trials routed together: as many as fit in ``_BATCH_DOUBLES``. An
    #: equal-interval batch's cost per satellite does not grow with n_hat.
    batch: int

    def stack(self, rows: np.ndarray, counts: list[int]) -> ShellStack:
        """The shells whose satellites are ``rows[b, :counts[b]]``, each
        followed by the cell's endpoints, which this writes into the next
        two rows."""
        lanes = np.arange(len(counts))
        rows[lanes, counts] = self.endpoints[0]
        rows[lanes, np.add(counts, 1)] = self.endpoints[1]
        p = self.params
        return ShellStack(rows, counts, p.radius, p.r_earth_km)

    def stack_one(self, units: np.ndarray) -> ShellStack:
        """The stack of one shell: the satellites ``units``, then the cell's
        endpoints."""
        rows = np.empty((1, len(units) + 2, 3))
        rows[0, : len(units)] = units
        return self.stack(rows, [len(units)])

    def route_batch(self, stack: ShellStack) -> list[Route]:
        """Routes between the cell's endpoints through each shell of
        ``stack``, in one pass, under ``plan`` and the cell's hop range."""
        # Looked up at call time, so a rebinding of these module names (as
        # the benchmark tracer does) reaches every route.
        router = {
            "equal-interval": route_equal_interval_batch,
            "min-deflection": route_min_deflection_batch,
            "max-stepsize": route_max_stepsize_batch,
        }[self.strategy]
        return router(stack, self.params.d_max_km, self.plan)

    def route_band_first(
        self, bands: ShellStack, n_rows: int, whole: Callable
    ) -> tuple[list[Route], list[int]]:
        """Routes through the band shells of ``bands``, in one batch, and
        then through the whole shells ``whole(redo)`` of the bands k in
        ``redo``: those short of ``n_rows`` satellites whose route reaches
        past ``halfwidth`` (so a satellite outside the band could have
        changed it), in one more batch; and ``redo``."""
        routes = self.route_batch(bands)
        redo = [
            k
            for k, (count, route) in enumerate(zip(bands.counts, routes))
            if count < n_rows and route.band_reach > self.halfwidth
        ]
        if redo:
            for k, route in zip(redo, self.route_batch(whole(redo))):
                routes[k] = route
        return routes, redo

    def route_rows(self, units: np.ndarray) -> Route:
        """Route between the cell's endpoints through the satellites ``units``,
        band first, as a trial does.

        Routes through the rows with |u_y| <= ``band_sine`` first, in ID
        order so that ties still go to the lowest ID, and through every row,
        in their own order, only when that route is not certified. Hop IDs
        index ``units``, then src (``len(units)``) and dst.
        """
        n = len(units)
        ids = np.flatnonzero(np.abs(units[:, 1]) <= self.band_sine)
        (route,), redo = self.route_band_first(
            self.stack_one(units[ids]), n, lambda _: self.stack_one(units)
        )
        if redo:
            return route
        ids = np.append(ids, [n, n + 1])
        return replace(route, hops=tuple(ids[list(route.hops)].tolist()))


def trial_cell(params: CellParams, strategy: str, plan: HopPlan) -> TrialCell:
    """The shared part of every trial of a cell routed with ``strategy``.

    ``leoroute route`` (:meth:`TrialCell.route_rows`) and the Monte Carlo
    trials both route through it, band first
    (:meth:`TrialCell.route_band_first`). Raises InvalidInputError for
    ``ideal``, which routes through no satellites, for a strategy not in
    :data:`STRATEGIES`, and when the endpoints coincide
    (:func:`~leoroute.geometry.great_arc` finds no arc between them).
    """
    if strategy not in STRATEGIES[1:]:
        raise InvalidInputError(f"{strategy!r} is not one of {STRATEGIES[1:]}")
    src, dst = make_endpoints(params.radius, params.arc_angle)
    endpoints = point_rows([src, dst])
    if coincident(*endpoints):
        raise InvalidInputError("src and dst are the same point")
    halfwidth = min(_band_halfwidth(params, strategy, plan), math.pi / 2.0)
    band_sine = math.sin(min(halfwidth * (1.0 + _BAND_SLACK), math.pi / 2.0))
    # A band holds Binomial(N, s) satellites: bound them by their mean plus
    # four standard deviations.
    mean = params.n_sat * band_sine
    rows = min(params.n_sat, mean + 4.0 * math.sqrt(mean) + 1.0)
    if strategy == "equal-interval":
        # 6 doubles a row and a work area of min((n_hat - 1) rows,
        # _PRODUCT_DOTS): the batch fits when either bound of the work area
        # does.
        batch = max(
            _BATCH_DOUBLES // ((plan.n_hat + 5) * rows),
            (_BATCH_DOUBLES - _PRODUCT_DOTS) // (6 * rows),
        )
    else:
        batch = _BATCH_DOUBLES // (_WALK_DOUBLES * rows)
    batch = max(1, int(batch))
    return TrialCell(
        params=params,
        strategy=strategy,
        plan=plan,
        endpoints=endpoints,
        halfwidth=halfwidth,
        band_sine=band_sine,
        reference_ms=reference_latency_ms(params),
        batch=batch,
    )


def _run_batch(
    cell: TrialCell, base_seed: int, start: int, stop: int
) -> list[TrialRecord]:
    """Records of trials ``start`` to ``stop``, routed on their bands together."""
    n_sat, sine = cell.params.n_sat, cell.band_sine
    seeds = [trial_seed(base_seed, i) for i in range(start, stop)]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    bands = cell.stack(*sample_bands(rngs, n_sat, sine))

    def whole(redo: list[int]) -> ShellStack:
        # The rest of a shell is drawn only for a trial that needs it.
        rows = np.empty((len(redo), n_sat + 2, 3))
        for shell, k in zip(rows, redo):
            count = bands.counts[k]
            shell[:count] = bands.rows[k, :count]
            sample_band_complement(rngs[k], sine, shell[count:n_sat])
        return cell.stack(rows, [n_sat] * len(redo))

    routes, _ = cell.route_band_first(bands, n_sat, whole)
    records = []
    for i, seed, route in zip(range(start, stop), seeds, routes):
        latency = None if route.interrupted else route.latency
        records.append(
            TrialRecord(
                trial_index=i,
                seed=seed,
                strategy=cell.strategy,
                status=route.status.value,
                latency_ms=latency,
                n_hops_final=route.n_hops,
                efficiency=latency and measured_efficiency(cell.reference_ms, latency),
            )
        )
    return records


def _run_chunk(args: tuple) -> list[TrialRecord]:
    cell, base_seed, start, stop = args
    return [
        rec
        for lo in range(start, stop, cell.batch)
        for rec in _run_batch(cell, base_seed, lo, min(lo + cell.batch, stop))
    ]


def _checked_plan(params: CellParams, strategy: str, trials: int) -> Optional[HopPlan]:
    """Validate a cell request and return its hop plan (None for ``ideal``)."""
    if trials < 1:
        raise InvalidInputError(f"trials must be >= 1, got {trials}")
    if strategy not in STRATEGIES:
        raise InvalidInputError(
            f"unknown strategy {strategy!r}; choose from {STRATEGIES}"
        )
    if strategy == "ideal":
        return None
    return plan_hops(params.arc_angle, params.theta_max, params.n_sat, params.epsilon)


def _planned_trials(params, strategy, trials, base_seed, threads, plan) -> tuple:
    """Trial records of a validated cell whose hop plan is already known."""
    if strategy == "ideal" or (strategy == "equal-interval" and plan.immediate_type1):
        # Every trial gets the same record. An ideal trial takes the
        # reference route. A plan with no feasible hop count at all
        # interrupts every equal-interval trial before routing, so no
        # constellation is sampled; the greedy baselines do not depend on
        # planning succeeding and route every trial.
        ideal = strategy == "ideal"
        latency_ms = reference_latency_ms(params) if ideal else None
        n_hops = reference_hop_count(params) if ideal else 0
        return tuple(
            TrialRecord(
                trial_index=i,
                seed=trial_seed(base_seed, i),
                strategy=strategy,
                status="ok" if ideal else "type2_interrupted",
                latency_ms=latency_ms,
                n_hops_final=n_hops,
                efficiency=1.0 if ideal else None,
            )
            for i in range(trials)
        )
    cell = trial_cell(params, strategy, plan)
    workers = min(max(1, int(threads)), _cpu_count())
    if workers == 1 or trials < 2 * workers:
        return tuple(_run_chunk((cell, base_seed, 0, trials)))
    bounds = [round(i * trials / workers) for i in range(workers + 1)]
    tasks = [
        (cell, base_seed, lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo
    ]
    # The chunks come back in task order, which is trial order.
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return tuple(rec for chunk in pool.map(_run_chunk, tasks) for rec in chunk)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_trials(
    params: CellParams,
    strategy: str,
    trials: int,
    base_seed: int,
    threads: int = 1,
) -> tuple[TrialRecord, ...]:
    """All trial records for one cell and strategy, in trial order.

    ``threads`` caps the number of worker processes, which never exceeds
    the CPUs this process may run on; any value yields byte-identical
    results because per-trial seeds depend only on the trial index and
    records are reduced in trial order.
    """
    plan = _checked_plan(params, strategy, trials)
    return _planned_trials(params, strategy, trials, base_seed, threads, plan)


@dataclass(frozen=True)
class CellAggregate:
    """Aggregate statistics of one cell x strategy."""

    strategy: str
    trials: int
    base_seed: int
    type2_count: int
    type2_rate: float
    type2_ci: tuple[float, float]
    measured_count: int
    mean_latency_ms: Optional[float]
    mean_efficiency: Optional[float]
    type1_interrupted: bool
    n_hat: Optional[int]
    reliable_angle: Optional[float]


def run_cell(
    params: CellParams,
    strategy: str,
    trials: int,
    base_seed: int,
    threads: int = 1,
) -> CellAggregate:
    """Run one cell and reduce it to aggregate statistics.

    Latency and efficiency are averaged over the non-interrupted trials
    only; both the measured count and the total are reported so the
    denominator is never ambiguous. Cells with no completed trial carry
    None for both means.
    """
    plan = _checked_plan(params, strategy, trials)
    records = _planned_trials(params, strategy, trials, base_seed, threads, plan)
    type2 = sum(1 for r in records if r.status == "type2_interrupted")
    completed = [r for r in records if r.status != "type2_interrupted"]
    if strategy == "ideal":
        # The records copy the latency floor; their mean can be an ulp off.
        mean_latency, mean_eff = reference_latency_ms(params), 1.0
    elif completed:
        mean_latency = sum(r.latency_ms for r in completed) / len(completed)
        mean_eff = sum(r.efficiency for r in completed) / len(completed)
    else:
        mean_latency = mean_eff = None
    return CellAggregate(
        strategy=strategy,
        trials=trials,
        base_seed=base_seed,
        type2_count=type2,
        type2_rate=type2 / trials,
        type2_ci=wilson_interval(type2, trials),
        measured_count=len(completed),
        mean_latency_ms=mean_latency,
        mean_efficiency=mean_eff,
        type1_interrupted=bool(plan.type1_interrupted) if plan else False,
        n_hat=plan.n_hat if plan else None,
        reliable_angle=plan.reliable_angle if plan else None,
    )


# ---------------------------------------------------------------------------
# Summary table over the three preset constellations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Table1Column:
    """All metrics of one preset, keyed by epsilon where applicable."""

    preset: str
    altitude_km: float
    n_sat: int
    contact_mean_rad: float
    n_hat: dict[float, int]
    reliable_angle_rad: dict[float, float]
    min_sats: dict[float, int]
    type1: dict[float, bool]
    type2_probability: dict[float, float]
    type2_ci: dict[float, tuple[float, float]]
    efficiency: dict[float, Optional[float]]
    measured_count: dict[float, int]


@dataclass(frozen=True)
class Table1Result:
    """Summary-table data for all presets."""

    epsilons: tuple[float, ...]
    trials: int
    base_seed: int
    columns: tuple[Table1Column, ...]


def run_table1(
    epsilons: Sequence[float] = (0.1, 0.01),
    trials: int = 10_000,
    base_seed: int = 0,
    threads: int = 1,
) -> Table1Result:
    """Reproduce the preset summary table at desk scale.

    Closed-form rows (contact mean, hop counts, reliable angles, minimum
    satellites) are exact; interruption rates and efficiencies come from
    ``trials`` Monte Carlo rounds per preset and epsilon. Every per-epsilon
    value but the minimum satellite count is the equal-interval
    :func:`run_cell` aggregate of the cell.
    """
    columns = []
    for preset in ("starlink", "oneweb", "kuiper"):
        altitude_km, n_sat = PRESET_PARAMS[preset]
        cells = {eps: CellParams.from_preset(preset, epsilon=eps) for eps in epsilons}
        aggs = {
            eps: run_cell(params, "equal-interval", trials, base_seed, threads)
            for eps, params in cells.items()
        }

        def per_eps(attr: str) -> dict:
            return {eps: getattr(agg, attr) for eps, agg in aggs.items()}

        columns.append(
            Table1Column(
                preset=preset,
                altitude_km=altitude_km,
                n_sat=n_sat,
                contact_mean_rad=contact_mean(n_sat).quadrature,
                n_hat=per_eps("n_hat"),
                reliable_angle_rad=per_eps("reliable_angle"),
                min_sats={
                    eps: min_sats_grid_minimum(p.arc_angle, p.theta_max, eps)
                    for eps, p in cells.items()
                },
                type1=per_eps("type1_interrupted"),
                type2_probability=per_eps("type2_rate"),
                type2_ci=per_eps("type2_ci"),
                efficiency=per_eps("mean_efficiency"),
                measured_count=per_eps("measured_count"),
            )
        )
    return Table1Result(
        epsilons=tuple(epsilons),
        trials=trials,
        base_seed=base_seed,
        columns=tuple(columns),
    )


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

SWEEP_VARIABLES = ("distance_km", "altitude_km", "n_sat")


@dataclass(frozen=True)
class SweepSpec:
    """A one-dimensional parameter sweep.

    ``fixed`` holds the non-swept quantities: ``n_sat``, ``altitude_km``,
    ``d_max_km``, ``epsilon``, and ``distance_km`` minus the swept one.
    Distances are great-circle lengths along the constellation sphere in
    km; the arc angle of a cell is distance / sphere radius.
    """

    variable: str
    values: tuple[float, ...]
    fixed: dict
    trials: int
    base_seed: int

    def __post_init__(self) -> None:
        if self.variable not in SWEEP_VARIABLES:
            raise InvalidInputError(
                f"variable must be one of {SWEEP_VARIABLES}, got {self.variable!r}"
            )
        if len(self.values) == 0:
            raise InvalidInputError("values must be nonempty")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise InvalidInputError("values must be strictly increasing")
        if self.trials < 1:
            raise InvalidInputError("trials must be >= 1")
        required = {"n_sat", "altitude_km", "d_max_km", "epsilon", "distance_km"}
        required.discard(self.variable)
        missing = required - set(self.fixed)
        if missing:
            raise InvalidInputError(f"fixed is missing {sorted(missing)}")
        counts = self.values if self.variable == "n_sat" else (self.fixed["n_sat"],)
        if not all(float(n).is_integer() for n in counts):
            raise InvalidInputError(f"n_sat must be a whole number, got {counts}")

    def cell(self, value: float) -> CellParams:
        """Cell parameters at one swept value."""
        merged = dict(self.fixed)
        merged[self.variable] = value
        radius = R_EARTH_KM + float(merged["altitude_km"])
        return CellParams(
            n_sat=int(merged["n_sat"]),
            altitude_km=float(merged["altitude_km"]),
            arc_angle=float(merged["distance_km"]) / radius,
            d_max_km=float(merged["d_max_km"]),
            epsilon=float(merged["epsilon"]),
        )


@dataclass(frozen=True)
class SweepRecord:
    """One aggregate output row: a swept value x strategy."""

    swept_value: float
    strategy: str
    mean_latency_ms: Optional[float]
    type2_rate: float
    eff_measured: Optional[float]
    eff_contour: Optional[float]
    eff_binomial: Optional[float]
    trials: int
    seed: int


def sweep(
    spec: SweepSpec,
    strategies: Sequence[str] = STRATEGIES,
    threads: int = 1,
) -> tuple[SweepRecord, ...]:
    """Aggregate records for every swept value x strategy.

    The closed-form efficiency estimates are attached to equal-interval
    rows whose hop plan succeeded; they are not defined for the other
    strategies or for failed plans and are left empty there.
    """
    for strategy in strategies:
        if strategy not in STRATEGIES:
            raise InvalidInputError(
                f"unknown strategy {strategy!r}; choose from {STRATEGIES}"
            )
    if not strategies or len(set(strategies)) != len(strategies):
        raise InvalidInputError(
            f"strategies must be non-empty and without repeats, got {tuple(strategies)}"
        )
    records = []
    for value in spec.values:
        params = spec.cell(value)
        for strategy in strategies:
            agg = run_cell(params, strategy, spec.trials, spec.base_seed, threads)
            contour = binomial = None
            if strategy == "equal-interval" and not agg.type1_interrupted:
                estimate = (params.arc_angle, agg.n_hat, params.n_sat, params.theta_max)
                contour = efficiency_contour(*estimate)
                binomial = efficiency_binomial(*estimate)
            records.append(
                SweepRecord(
                    swept_value=float(value),
                    strategy=strategy,
                    mean_latency_ms=agg.mean_latency_ms,
                    type2_rate=agg.type2_rate,
                    eff_measured=agg.mean_efficiency,
                    eff_contour=contour,
                    eff_binomial=binomial,
                    trials=spec.trials,
                    seed=spec.base_seed,
                )
            )
    return tuple(records)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def write_records_csv(records: Iterable[SweepRecord], path: str | Path) -> None:
    """Write aggregate records as CSV, one row per record.

    Floats keep full precision (``str`` of a float round-trips) and None
    is an empty cell.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for rec in records:
            values = (getattr(rec, f) for f in CSV_FIELDS)
            writer.writerow(["" if v is None else str(v) for v in values])


def records_to_jsonable(records: Iterable[SweepRecord]) -> dict:
    """JSON mirror of the CSV: same fields, None as null."""
    return {
        "schema_version": SCHEMA_VERSION,
        "records": [{f: getattr(rec, f) for f in CSV_FIELDS} for rec in records],
    }


def write_records_json(records: Iterable[SweepRecord], path: str | Path) -> None:
    """Write the JSON mirror of aggregate records."""
    Path(path).write_text(json.dumps(records_to_jsonable(records), indent=2) + "\n")


#: Rows of the summary table in output order: the metric, the
#: :class:`Table1Column` attribute that holds it (one value, or a dict of
#: one value per epsilon) and the text of one value. Rows without a text
#: appear in the JSON mirror only.
_TABLE1_ROWS = (
    ("altitude_km", "altitude_km", "{:g}".format),
    ("n_sat", "n_sat", str),
    ("contact_mean_rad", "contact_mean_rad", "{:.4f}".format),
    ("hop_count", "n_hat", str),
    ("reliable_angle_rad", "reliable_angle_rad", "{:.4f}".format),
    ("min_sats_sufficient", "min_sats", str),
    ("type1_interrupted", "type1", lambda b: "yes" if b else "no"),
    ("type2_probability", "type2_probability", "{:.2%}".format),
    ("type2_ci", "type2_ci", None),
    ("efficiency", "efficiency", "{:.2%}".format),
    ("measured_count", "measured_count", None),
)


def table1_rows(result: Table1Result) -> list[list[str]]:
    """Human-readable rows of the summary table (one metric per row).

    Per-epsilon values are joined with " / " in epsilon order, and a
    missing value (no completed trial) reads "-".
    """
    rows = []
    for metric, attr, fmt in _TABLE1_ROWS:
        if fmt is None:
            continue
        row = [metric]
        for col in result.columns:
            value = getattr(col, attr)
            per_eps = isinstance(value, dict)
            values = [value[e] for e in result.epsilons] if per_eps else [value]
            row.append(" / ".join("-" if v is None else fmt(v) for v in values))
        rows.append(row)
    return rows


def write_table1_csv(result: Table1Result, path: str | Path) -> None:
    """Write the summary table as CSV: metric rows x preset columns."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric"] + [col.preset for col in result.columns])
        writer.writerows(table1_rows(result))


def table1_to_jsonable(result: Table1Result) -> dict:
    """JSON mirror of the summary table with raw (unformatted) numbers."""

    def raw(value):
        if isinstance(value, dict):
            return {repr(eps): value[eps] for eps in result.epsilons}
        return value

    return {
        "schema_version": SCHEMA_VERSION,
        "trials": result.trials,
        "base_seed": result.base_seed,
        "epsilons": list(result.epsilons),
        "columns": {
            col.preset: {
                metric: raw(getattr(col, attr)) for metric, attr, _ in _TABLE1_ROWS
            }
            for col in result.columns
        },
    }


def write_table1_json(result: Table1Result, path: str | Path) -> None:
    """Write the JSON mirror of the summary table."""
    Path(path).write_text(json.dumps(table1_to_jsonable(result), indent=2) + "\n")

"""Monte Carlo harness: interruption rates, summary table, parameter sweeps.

Each trial routes between two endpoints at an exact dome-angle separation
through a fresh uniform constellation, and records status, latency, and
efficiency. The endpoints lie in the xz-plane, so the arc's normal is the
y axis, and a trial draws its shell band first
(:func:`~leoroute.constellation.sample_band`): only the satellites with
|u_y| <= sin w, then the two endpoints as the last two satellites. When
the route on that band shell is certified — its
:attr:`~leoroute.routing.Route.band_reach` is at most w, so no satellite
outside the band could have changed it — it is the route on the whole
shell; otherwise the trial draws the rest of the shell from the same generator
(:func:`~leoroute.constellation.sample_band_complement`) and routes again on
all ``n_sat`` satellites. Band and complement together are ``n_sat``
i.i.d. uniform satellites (the restriction property of the binomial point
process), so the records follow the same law as routing on a full shell.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
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
    n_min_ideal,
    plan_hops,
)
from .constellation import (
    PRESET_PARAMS,
    Constellation,
    point_rows,
    sample_band,
    sample_band_complement,
)
from .efficiency import efficiency_binomial, efficiency_contour, measured_efficiency
from .errors import InvalidInputError
from .geometry import PhysicalConstants, SpherePoint
from .routing import (
    Route,
    route_equal_interval,
    route_max_stepsize,
    route_min_deflection,
)

# Unused here; benchmarks/tracing.py wraps this binding by name.
from .constellation import sample_bpp  # noqa: F401

#: Version of the CSV/JSON output layout.
SCHEMA_VERSION = 1

#: Routing strategies understood by the harness, in canonical output order.
STRATEGIES = ("ideal", "equal-interval", "min-deflection", "max-stepsize")


def strategy_router(
    strategy: str,
) -> Callable[[Constellation, float, HopPlan], Route]:
    """The router of a strategy that routes through sampled satellites.

    Every name in :data:`STRATEGIES` but ``ideal`` has one; the ideal
    route ignores the satellites, so each caller reports it its own way.
    """
    # Looked up at call time, so a rebinding of these module names (as
    # the benchmark tracer does) reaches every caller.
    if strategy == "equal-interval":
        return route_equal_interval
    if strategy == "min-deflection":
        return route_min_deflection
    if strategy == "max-stepsize":
        return route_max_stepsize
    raise InvalidInputError(
        f"no router for strategy {strategy!r}; choose from {STRATEGIES[1:]}"
    )


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


def wilson_interval(
    successes: int, trials: int, z: float = 1.959963984540054
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (default 95%)."""
    if trials < 1:
        raise InvalidInputError("wilson_interval needs at least one trial")
    if not 0 <= successes <= trials:
        raise InvalidInputError("successes must lie in [0, trials]")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = (
        z
        * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
        / denom
    )
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
    r_earth_km: float = PhysicalConstants.r_earth

    def __post_init__(self) -> None:
        if self.n_sat < 1:
            raise InvalidInputError(f"n_sat must be >= 1, got {self.n_sat}")
        if self.altitude_km <= 0.0:
            raise InvalidInputError("altitude_km must be positive")
        if not 0.0 < self.arc_angle <= math.pi:
            raise InvalidInputError(
                f"arc_angle must be in (0, pi], got {self.arc_angle}"
            )
        if self.d_max_km <= 0.0 or not 0.0 < self.epsilon < 1.0:
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
        return cls(
            n_sat=n_sat,
            altitude_km=altitude_km,
            arc_angle=arc_angle,
            d_max_km=d_max_km,
            epsilon=epsilon,
        )

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


#: Chance that a cap of the band's half-width around a point of the arc
#: holds no satellite: the contact-law quantile that sets the band of
#: equal-interval and min-deflection trials.
_BAND_MISS_PROBABILITY = 1e-4

#: Relative widening of the drawn band over the half-width that certifies
#: a route, so that rounding at the band's edge cannot matter (sin/asin,
#: and the arc's normal, which is the y axis only to within 1e-16).
_BAND_SLACK = 1e-9


def _band_halfwidth(params: CellParams, strategy: str, plan: HopPlan) -> float:
    """Half-width w (rad) of the band around the arc that certifies routes.

    max-stepsize keeps to its belt, ``plan.reliable_angle``. The other
    strategies take the contact-law quantile ((1 + cos w) / 2)^N =
    ``_BAND_MISS_PROBABILITY``, i.e. sin^2(w / 2) = 1 - alpha^(1/N),
    except an equal-interval plan that is type-I interrupted: its routes
    are mostly repaired or interrupted and would almost never certify
    (97% of oneweb's trials at epsilon 0.1 did not), so its band is the
    whole sphere.
    """
    if strategy == "max-stepsize":
        return plan.reliable_angle
    if strategy == "equal-interval" and plan.type1_interrupted:
        return math.pi / 2.0
    tail = -math.expm1(math.log(_BAND_MISS_PROBABILITY) / params.n_sat)
    return 2.0 * math.asin(math.sqrt(tail))


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

    def shell(self, seed: Optional[int], *parts: np.ndarray) -> Constellation:
        """The satellites of ``parts`` in order, then the two endpoints."""
        p = self.params
        return Constellation.from_unit_rows(
            p.r_earth_km, p.altitude_km, np.vstack([*parts, self.endpoints]), seed
        )

    def route(self, shell: Constellation) -> Route:
        """Route between the cell's endpoints through ``shell``."""
        return strategy_router(self.strategy)(shell, self.params.d_max_km, self.plan)


def trial_cell(params: CellParams, strategy: str, plan: HopPlan) -> TrialCell:
    """The shared part of every trial of a cell routed with ``strategy``.

    ``leoroute route`` and the Monte Carlo trials both route through it:
    :meth:`TrialCell.shell` appends the cell's endpoints to a shell's
    satellites and :meth:`TrialCell.route` routes between them under
    ``plan`` and the cell's hop range; the shell carries the cell's sphere
    and body radius.
    """
    src, dst = make_endpoints(params.radius, params.arc_angle)
    halfwidth = min(_band_halfwidth(params, strategy, plan), math.pi / 2.0)
    return TrialCell(
        params=params,
        strategy=strategy,
        plan=plan,
        endpoints=point_rows([src, dst]),
        halfwidth=halfwidth,
        band_sine=math.sin(min(halfwidth * (1.0 + _BAND_SLACK), math.pi / 2.0)),
        reference_ms=reference_latency_ms(params),
    )


def _run_one(cell: TrialCell, trial_index: int, base_seed: int) -> TrialRecord:
    seed = trial_seed(base_seed, trial_index)
    n_sat = cell.params.n_sat
    rng = np.random.default_rng(seed)
    band = sample_band(rng, n_sat, cell.band_sine)
    route = cell.route(cell.shell(seed, band))
    # Every satellite outside the band deviates from the arc by more than
    # the half-width, so a route that reaches no farther is the route on
    # the whole shell.
    if len(band) < n_sat and route.band_reach > cell.halfwidth:
        rest = sample_band_complement(rng, n_sat - len(band), cell.band_sine)
        route = cell.route(cell.shell(seed, band, rest))
    done = not route.interrupted
    return TrialRecord(
        trial_index=trial_index,
        seed=seed,
        strategy=cell.strategy,
        status=route.status.value,
        latency_ms=route.latency if done else None,
        n_hops_final=route.n_hops,
        efficiency=(
            measured_efficiency(cell.reference_ms, route.latency) if done else None
        ),
    )


def _run_chunk(args: tuple) -> list[TrialRecord]:
    cell, base_seed, start, stop = args
    return [_run_one(cell, i, base_seed) for i in range(start, stop)]


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
    if strategy == "ideal":
        reference_ms = reference_latency_ms(params)
        n_hops = reference_hop_count(params)
        return tuple(
            TrialRecord(
                trial_index=i,
                seed=trial_seed(base_seed, i),
                strategy=strategy,
                status="ok",
                latency_ms=reference_ms,
                n_hops_final=n_hops,
                efficiency=1.0,
            )
            for i in range(trials)
        )
    if strategy == "equal-interval" and plan.immediate_type1:
        # Planning found no feasible hop count at all: every trial is
        # interrupted before routing, so no constellation is sampled. The
        # greedy baselines do not depend on planning succeeding and route
        # every trial.
        return tuple(
            TrialRecord(
                trial_index=i,
                seed=trial_seed(base_seed, i),
                strategy=strategy,
                status="type2_interrupted",
                latency_ms=None,
                n_hops_final=0,
                efficiency=None,
            )
            for i in range(trials)
        )
    cell = trial_cell(params, strategy, plan)
    workers = max(1, int(threads))
    if workers == 1 or trials < 2 * workers:
        return tuple(_run_chunk((cell, base_seed, 0, trials)))
    bounds = [round(i * trials / workers) for i in range(workers + 1)]
    tasks = [
        (cell, base_seed, lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo
    ]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunks = list(pool.map(_run_chunk, tasks))
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=lambda rec: rec.trial_index)
    return tuple(records)


def run_trials(
    params: CellParams,
    strategy: str,
    trials: int,
    base_seed: int,
    threads: int = 1,
) -> tuple[TrialRecord, ...]:
    """All trial records for one cell and strategy, in trial order.

    ``threads`` caps the number of worker processes; any value yields
    byte-identical results because per-trial seeds depend only on the
    trial index and records are reduced in trial order.
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
    return _planned_cell(params, strategy, trials, base_seed, threads, plan)


def _planned_cell(params, strategy, trials, base_seed, threads, plan) -> CellAggregate:
    """:func:`run_cell` for a validated cell whose hop plan is already known."""
    records = _planned_trials(params, strategy, trials, base_seed, threads, plan)
    type2 = sum(1 for r in records if r.status == "type2_interrupted")
    completed = [r for r in records if r.status != "type2_interrupted"]
    mean_latency = (
        sum(r.latency_ms for r in completed) / len(completed) if completed else None
    )
    mean_eff = (
        sum(r.efficiency for r in completed) / len(completed) if completed else None
    )
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

#: Metric rows of the summary table, in output order.
TABLE1_METRICS = (
    "altitude_km",
    "n_sat",
    "contact_mean_rad",
    "hop_count",
    "reliable_angle_rad",
    "min_sats_sufficient",
    "type1_interrupted",
    "type2_probability",
    "efficiency",
)


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
    ``trials`` Monte Carlo rounds per preset and epsilon.
    """
    columns = []
    for preset in ("starlink", "oneweb", "kuiper"):
        altitude_km, n_sat = PRESET_PARAMS[preset]
        n_hat: dict[float, int] = {}
        rel: dict[float, float] = {}
        mins: dict[float, int] = {}
        type1: dict[float, bool] = {}
        prob: dict[float, float] = {}
        ci: dict[float, tuple[float, float]] = {}
        eff: dict[float, Optional[float]] = {}
        measured: dict[float, int] = {}
        for eps in epsilons:
            params = CellParams.from_preset(preset, epsilon=eps)
            plan = _checked_plan(params, "equal-interval", trials)
            n_hat[eps] = plan.n_hat
            rel[eps] = plan.reliable_angle
            mins[eps] = min_sats_grid_minimum(
                params.arc_angle, params.theta_max, eps
            )
            type1[eps] = plan.type1_interrupted
            if plan.immediate_type1:
                prob[eps], ci[eps] = 1.0, (1.0, 1.0)
                eff[eps], measured[eps] = None, 0
            else:
                agg = _planned_cell(
                    params, "equal-interval", trials, base_seed, threads, plan
                )
                prob[eps], ci[eps] = agg.type2_rate, agg.type2_ci
                eff[eps], measured[eps] = agg.mean_efficiency, agg.measured_count
        columns.append(
            Table1Column(
                preset=preset,
                altitude_km=altitude_km,
                n_sat=n_sat,
                contact_mean_rad=contact_mean(n_sat).quadrature,
                n_hat=n_hat,
                reliable_angle_rad=rel,
                min_sats=mins,
                type1=type1,
                type2_probability=prob,
                type2_ci=ci,
                efficiency=eff,
                measured_count=measured,
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

    def cell(self, value: float) -> CellParams:
        """Cell parameters at one swept value."""
        merged = dict(self.fixed)
        merged[self.variable] = value
        radius = PhysicalConstants.r_earth + float(merged["altitude_km"])
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
    records = []
    for value in spec.values:
        params = spec.cell(value)
        for strategy in strategies:
            agg = run_cell(params, strategy, spec.trials, spec.base_seed, threads)
            contour = binomial = None
            if strategy == "equal-interval" and not agg.type1_interrupted:
                n_min = n_min_ideal(params.arc_angle, params.theta_max)
                contour = efficiency_contour(
                    params.arc_angle, n_min, agg.n_hat, params.n_sat, params.theta_max
                )
                binomial = efficiency_binomial(
                    params.arc_angle, n_min, agg.n_hat, params.n_sat, params.theta_max
                )
            records.append(
                SweepRecord(
                    swept_value=value,
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


def _cell_text(value: Optional[float]) -> str:
    """CSV cell for an optional float: full precision, empty for None."""
    if value is None:
        return ""
    return repr(float(value))


def write_records_csv(records: Iterable[SweepRecord], path: str | Path) -> None:
    """Write aggregate records as CSV, one row per record."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for rec in records:
            writer.writerow(
                [
                    _cell_text(rec.swept_value),
                    rec.strategy,
                    _cell_text(rec.mean_latency_ms),
                    _cell_text(rec.type2_rate),
                    _cell_text(rec.eff_measured),
                    _cell_text(rec.eff_contour),
                    _cell_text(rec.eff_binomial),
                    rec.trials,
                    rec.seed,
                ]
            )


def records_to_jsonable(records: Iterable[SweepRecord]) -> dict:
    """JSON mirror of the CSV: same fields, None as null."""
    return {
        "schema_version": SCHEMA_VERSION,
        "records": [{f: getattr(rec, f) for f in CSV_FIELDS} for rec in records],
    }


def write_records_json(records: Iterable[SweepRecord], path: str | Path) -> None:
    """Write the JSON mirror of aggregate records."""
    Path(path).write_text(json.dumps(records_to_jsonable(records), indent=2) + "\n")


def _eps_pair(values: dict, epsilons: Sequence[float], fmt) -> str:
    return " / ".join(fmt(values[eps]) for eps in epsilons)


def table1_rows(result: Table1Result) -> list[list[str]]:
    """Human-readable rows of the summary table (one metric per row)."""

    def fmt_opt(x: Optional[float], pattern: str) -> str:
        return "-" if x is None else pattern.format(x)

    eps = result.epsilons
    rows = []
    for metric in TABLE1_METRICS:
        row = [metric]
        for col in result.columns:
            if metric == "altitude_km":
                row.append(f"{col.altitude_km:g}")
            elif metric == "n_sat":
                row.append(str(col.n_sat))
            elif metric == "contact_mean_rad":
                row.append(f"{col.contact_mean_rad:.4f}")
            elif metric == "hop_count":
                row.append(_eps_pair(col.n_hat, eps, str))
            elif metric == "reliable_angle_rad":
                row.append(_eps_pair(col.reliable_angle_rad, eps, "{:.4f}".format))
            elif metric == "min_sats_sufficient":
                row.append(_eps_pair(col.min_sats, eps, str))
            elif metric == "type1_interrupted":
                row.append(
                    _eps_pair(col.type1, eps, lambda b: "yes" if b else "no")
                )
            elif metric == "type2_probability":
                row.append(
                    _eps_pair(col.type2_probability, eps, "{:.2%}".format)
                )
            elif metric == "efficiency":
                row.append(
                    " / ".join(
                        fmt_opt(col.efficiency[e], "{:.2%}") for e in eps
                    )
                )
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

    def by_eps(d: dict) -> dict:
        return {repr(eps): d[eps] for eps in result.epsilons}

    return {
        "schema_version": SCHEMA_VERSION,
        "trials": result.trials,
        "base_seed": result.base_seed,
        "epsilons": list(result.epsilons),
        "columns": {
            col.preset: {
                "altitude_km": col.altitude_km,
                "n_sat": col.n_sat,
                "contact_mean_rad": col.contact_mean_rad,
                "hop_count": by_eps(col.n_hat),
                "reliable_angle_rad": by_eps(col.reliable_angle_rad),
                "min_sats_sufficient": by_eps(col.min_sats),
                "type1_interrupted": by_eps(col.type1),
                "type2_probability": by_eps(col.type2_probability),
                "type2_ci": {
                    repr(eps): list(col.type2_ci[eps]) for eps in result.epsilons
                },
                "efficiency": by_eps(col.efficiency),
                "measured_count": by_eps(col.measured_count),
            }
            for col in result.columns
        },
    }


def write_table1_json(result: Table1Result, path: str | Path) -> None:
    """Write the JSON mirror of the summary table."""
    Path(path).write_text(json.dumps(table1_to_jsonable(result), indent=2) + "\n")

"""Monte Carlo harness: interruption rates, summary table, parameter sweeps.

Each trial routes between two endpoints at an exact dome-angle separation
through a fresh uniform constellation, and records status, latency, and
efficiency. The endpoints lie in the xz-plane, so the arc's normal is the
y axis and the arc runs along the longitudes phi = atan2(u_z, u_x) from
pi/2 - a/2 (src) to pi/2 + a/2 (dst). A trial draws a region of its
shell first (:func:`~leoroute.constellation.sample_bands`): only the
satellites of the band |u_y| <= sin w whose longitudes lie in the cell's
windows (:func:`_region`), then the two endpoints as the last two
satellites. Equal-interval draws a window of half-width w about each
target's longitude, or the one window they cover where two of them meet;
a greedy walk draws the patch |phi - pi/2| <= a/2 + theta_max + w; and a
band of the whole sphere is drawn whole. When the route on that shell is
certified, it is the route on the whole shell; otherwise the trial draws
the rest of the shell, uniform outside the region, from its own generator
(:func:`~leoroute.constellation.sample_band_complement`) and routes again
on all ``n_sat`` satellites. Region and complement together are ``n_sat``
i.i.d. uniform satellites (the restriction property of the binomial point
process), so the records follow the same law as routing on a full shell.

A route is certified (:meth:`TrialCell.route_band_first`) when its
:attr:`~leoroute.routing.Route.band_reach` is at most w, so no satellite
outside the band could have changed it, and, for a greedy walk, when no
satellite of the band outside the patch could lie within theta_max of a
node the walk scanned: cos D + s |u_y| < cos theta_max at src and every
relay u, D being u's distance in longitude from the patch's edge.
Equal-interval needs no along-arc test: a satellite at longitude phi is at
least |phi - phi_j| from target j, so one outside every window is farther
than w from each target, farther than the relay that a certified route's
target took. ``leoroute route`` applies the band rule to one shell
(:meth:`TrialCell.route_rows`): it routes on the shell's whole band first,
and asks for the whole shell only when that route is not certified.

Random streams. Trials come in blocks of ``_BLOCK_TRIALS`` (64), counted
from trial 0: trial i is lane i % 64 of block i // 64. Each block has one
generator, seeded by :func:`block_seed` (a splitmix64 hash of the base
seed and the block index). It first draws the region counts of all 64
lanes in one call, then the regions' uniforms lane by lane, in lane order.
The rest of a shell is drawn only for a trial whose region route is not
certified, from that trial's own generator, seeded by :func:`trial_seed`.
A batch may take lanes of several blocks, but each block's generator still
draws its counts before any of its uniforms, and its lanes in order. So a
trial's record depends only on the base seed and its index, never on how
many trials run, how they are batched or how many workers run them.
Results differ from releases that built one generator per trial.

Runs of consecutive trials are routed as one batch, for every sampled
strategy, across block boundaries (:func:`_batches`): a batch takes the
next lane while its region stack, its lanes times its largest region
count plus 2 rows, stays within ``_BATCH_ROWS`` (65536), and takes one
lane at least; the 200 trials of a sweep cell on an 800-satellite shell
are one batch. One ``random`` call per block that
the batch takes lanes from draws its regions, and one trig pass writes
every region's rows, then its endpoints, straight into the batch's
:class:`~leoroute.routing.ShellStack`. One batch router
call routes the stack: :func:`~leoroute.routing.route_equal_interval_batch`
computes the cell's targets once, snaps all shells in one lockstep pass
and repairs them in rounds of one walk each, and the greedy baselines walk
all shells at once; a walk moves its lanes in lockstep, in chunks of as
many as its memory budget holds. The trials that need the complement draw
it, after their region rows, into stacks of at most ``_BATCH_ROWS`` rows,
one router call each.

Worker processes take whole blocks, and records are reduced in trial-index
order, so output is byte-identical for any worker count.

A cell has one path to its numbers: :func:`run_trials` checks the request,
plans the cell and runs its trials, and :func:`run_cell` (and through it
:func:`run_table1` and :func:`sweep`) reduces the records it returns. A
:class:`TrialRecord` keeps the trial's index and outcome only; its seeds
follow from the base seed and that index.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

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
    WHOLE_BAND,
    point_rows,
    sample_band_complement,
    sample_band_counts,
    sample_bands,
)
from .efficiency import efficiency_binomial, efficiency_contour, measured_efficiency
from .errors import InvalidInputError
from .geometry import R_EARTH_KM, SpherePoint, coincident
from .routing import (
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
    """Seed of a trial's complement stream; order-independent in
    ``trial_index``."""
    return (base_seed ^ splitmix64(trial_index)) & _MASK64


#: Trials whose regions one generator draws: trial i is lane i % 64 of
#: block i // 64.
_BLOCK_TRIALS = 64

#: Mixed into every block seed, so that a block's stream is no trial's
#: complement stream.
_BLOCK_DOMAIN = 0x626C6F636B5F3634


def block_seed(base_seed: int, block: int) -> int:
    """Seed of the region stream of trials ``64 block`` to ``64 block + 63``."""
    return splitmix64(trial_seed(base_seed, block) ^ _BLOCK_DOMAIN)


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
        if not 0.0 < self.altitude_km < math.inf:
            raise InvalidInputError(
                f"altitude_km must be finite and positive, got {self.altitude_km}"
            )
        if not 0.0 < self.r_earth_km < math.inf:
            raise InvalidInputError(
                f"r_earth_km must be finite and positive, got {self.r_earth_km}"
            )
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
    """Outcome of one Monte Carlo trial of a cell.

    Its region (the satellites of the band around its arc whose longitudes
    lie in the cell's windows) is lane ``trial_index % 64`` of the block
    ``trial_index // 64`` (:func:`block_seed`); the rest of its shell,
    uniform outside the region and drawn only when its region route is not
    certified (the band reach, and for a greedy walk the along-arc test),
    comes from the stream seeded by :func:`trial_seed`. The strategy and base seed are
    the caller's.
    """

    trial_index: int
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


#: Relative widening of the drawn band and windows over the half-widths
#: that certify a route, so that rounding at their edges cannot
#: matter (sin/asin, atan2, and the arc's normal, which is the y axis only
#: to within 1e-16).
_BAND_SLACK = 1e-9

#: Cap on the rows of one batch's stack: a run of consecutive lanes, across
#: blocks, whose regions with their endpoints fill at most this many rows
#: (64 regions of up to 1022 satellites, or 200 of up to 325), and the whole
#: shells that the batch routes again. A lane wider than the cap is a batch
#: of its own.
_BATCH_ROWS = 1 << 16


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


@dataclass(frozen=True)
class Strategy:
    """A row of :data:`STRATEGY`. It holds only module-level functions, so
    a :class:`TrialCell`, which looks its row up by name, pickles."""

    name: str
    #: Batch router ``(stack, d_max_km, plan) -> routes``; None for a
    #: strategy that routes through no satellites.
    router: Optional[Callable] = None
    #: Snaps to the plan's targets: trials draw their windows and are not
    #: routed under an immediately type-I plan, sweep rows get the estimates,
    #: and ``leoroute route`` reports the plan and exits 2 if it is type-I.
    targets: bool = False
    #: Keeps to the belt of the plan's reliable angle.
    belt: bool = False

    def halfwidth(self, params: CellParams, plan: HopPlan) -> float:
        """Half-width w (rad) of the band that certifies routes: the belt;
        the whole sphere for a target strategy's type-I plan, whose routes
        would almost never certify (97% of oneweb's at epsilon 0.1 did not);
        else the contact-law band (:func:`contact_band`) of N satellites."""
        if self.belt:
            return plan.reliable_angle
        if self.targets and plan.type1_interrupted:
            return math.pi / 2.0
        return contact_band(params.n_sat)


#: The harness's routing strategies by name, in canonical output order.
STRATEGY = {
    row.name: row
    for row in (
        # Ideal trials take the latency floor at min_feasible_hops, while
        # ``leoroute route`` reports the longer equal-hop ideal at n_min_ideal.
        Strategy("ideal"),
        Strategy("equal-interval", route_equal_interval_batch, targets=True),
        Strategy("min-deflection", route_min_deflection_batch),
        Strategy("max-stepsize", route_max_stepsize_batch, belt=True),
    )
}
STRATEGIES = tuple(STRATEGY)


def _strategy(name: str) -> Strategy:
    """The row of strategy ``name``; InvalidInputError for an unknown one."""
    if name not in STRATEGY:
        raise InvalidInputError(f"unknown strategy {name!r}; choose from {STRATEGIES}")
    return STRATEGY[name]


def _region(
    params: CellParams, row: Strategy, plan: HopPlan, halfwidth: float
) -> tuple[tuple[float, float, int, float], float]:
    """The longitude windows of the band |u_y| <= sin w that a trial draws
    first (:func:`~leoroute.constellation.sample_bands`), and the half-span
    L of the patch |phi - pi/2| <= L whose edge a greedy walk is tested
    against (:meth:`TrialCell.route_band_first`), pi for none.

    The arc runs from longitude pi/2 - a/2 (src) to pi/2 + a/2 (dst).
    Equal-interval target j (1 to n - 1) sits on it at longitude
    phi_j = pi/2 - a/2 + j a/n, and a satellite at longitude phi is at
    least |phi - phi_j| from it. So one outside every window
    |phi - phi_j| <= w is farther than w from every target and cannot beat
    a pick within w: a route through the windows whose band reach is at
    most w is the route through the whole shell. Where two windows would
    meet, the one window they cover, |phi - pi/2| <= a/2 - a/n + w, is
    drawn. A greedy walk draws the patch L = a/2 + theta_max + w, and a
    band of the whole sphere (w = pi/2), which certifies any route, is
    drawn whole. Every drawn half-width is widened by ``_BAND_SLACK``.
    """
    if halfwidth >= math.pi / 2.0:
        return WHOLE_BAND, math.pi
    arc = params.arc_angle
    if not row.targets:
        span = min(arc / 2.0 + (params.theta_max + halfwidth), math.pi)
        return _patch(span), span
    step, reach = arc / plan.n_hat, halfwidth * (1.0 + _BAND_SLACK)
    if plan.n_hat > 1 and 2.0 * reach < step:
        return (0.5 * (math.pi - arc) + step, step, plan.n_hat - 1, reach), math.pi
    return _patch(max(arc / 2.0 - step, 0.0) + halfwidth), math.pi


def _patch(span: float) -> tuple[float, float, int, float]:
    """The one window |phi - pi/2| <= ``span``, widened by ``_BAND_SLACK``,
    or the whole band where it reaches pi."""
    drawn = span * (1.0 + _BAND_SLACK)
    return (0.5 * math.pi, 0.0, 1, drawn) if drawn < math.pi else WHOLE_BAND


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
    #: Sine s of the slightly wider band |u_y| <= s whose region a trial
    #: draws first.
    band_sine: float
    #: Half-span L (rad) of the patch |phi - pi/2| <= L against whose edge
    #: a greedy walk is tested (:func:`_region`), pi for no test.
    span: float
    #: Longitude windows (first centre, pitch, count, half-width) of the
    #: band that a trial draws first (:func:`_region`).
    region: tuple[float, float, int, float]
    reference_ms: float

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
        # Looked up at call time, so a replaced row reaches every route.
        router = STRATEGY[self.strategy].router
        return router(stack, self.params.d_max_km, self.plan)

    def route_band_first(
        self, bands: ShellStack, n_rows: int, whole: Callable, span: float
    ) -> tuple[list[Route], list[int]]:
        """Routes through the shells of ``bands``, in one batch, and then
        through the whole shells ``whole(redo)`` of the shells k in
        ``redo``, in one more batch; and ``redo``.

        The shells of ``bands`` hold the satellites of a region of the band
        (:func:`_region`). ``redo`` holds those short of ``n_rows``
        satellites whose route a satellite they lack could have changed:
        its route reaches past ``halfwidth``, or, with ``span`` below pi,
        a satellite outside the patch |phi - pi/2| <= ``span`` could lie in
        hop range of a node its greedy walk scanned (:meth:`_leaves_patch`).
        """
        routes = self.route_batch(bands)
        uncertified = np.array([r.band_reach > self.halfwidth for r in routes])
        if span < math.pi:
            uncertified |= self._leaves_patch(bands, routes, span)
        redo = [
            k
            for k, (count, bad) in enumerate(zip(bands.counts, uncertified.tolist()))
            if count < n_rows and bad
        ]
        # At most ``_BATCH_ROWS`` rows of whole shells a batch, at least one.
        size = max(1, _BATCH_ROWS // (n_rows + 2))
        for lo in range(0, len(redo), size):
            part = redo[lo : lo + size]
            for k, route in zip(part, self.route_batch(whole(part))):
                routes[k] = route
        return routes, redo

    def _leaves_patch(
        self, bands: ShellStack, routes: list[Route], span: float
    ) -> np.ndarray:
        """Whether a satellite of the band outside the patch |phi - pi/2| <=
        ``span`` could lie within theta_max of a node of each route.

        A walk only looks at satellites within theta_max of a node it
        scanned: src and every relay. (The gather takes dst too, which
        changes nothing: it sits as far from the edge as src.) A node u at
        distance D = span - |phi_u - pi/2| in longitude from the patch's
        edge has u . v <= max(cos D, 0) + s |u_y| with every satellite v of
        the band |v_y| <= s outside the patch, so no such v is in range when
        this stays below cos theta_max. The drawn patch is slightly wider
        than ``span``, which absorbs rounding. One gather of every route's
        nodes and one reduction give every route's answer.
        """
        sizes = [len(route.hops) for route in routes]
        flat = np.fromiter(
            chain.from_iterable(route.hops for route in routes), np.intp, sum(sizes)
        )
        width = bands.rows.shape[1]
        flat += np.repeat(np.arange(0, len(routes) * width, width), sizes)
        nodes = bands.rows.reshape(-1, 3).take(flat, axis=0)
        # |phi - pi/2| of a node is its longitude from the arc's midpoint +z.
        edge = span - np.abs(np.arctan2(nodes[:, 0], nodes[:, 2]))
        reach = np.maximum(np.cos(edge), 0.0)
        reach += self.band_sine * np.abs(nodes[:, 1])
        starts = np.cumsum([0] + sizes[:-1])
        return np.maximum.reduceat(reach, starts) >= math.cos(self.params.theta_max)

    def route_rows(
        self, n_sat: int, ids: np.ndarray, rows: np.ndarray, whole: Callable
    ) -> Route:
        """Route between the cell's endpoints through a shell of ``n_sat``
        satellites, band first, as a trial does.

        Routes first through the band: the shell's satellites with
        |u_y| <= ``band_sine``, with IDs ``ids`` (ascending, so that ties
        still go to the lowest ID) and unit rows ``rows``. Only when that
        route is not certified does it call ``whole()`` for the shell's
        ``n_sat`` rows and route through them. Hop IDs index the whole
        shell, then src (``n_sat``) and dst.
        """
        (route,), redo = self.route_band_first(
            self.stack_one(rows), n_sat, lambda _: self.stack_one(whole()), math.pi
        )
        if redo:
            return route
        ids = np.append(ids, [n_sat, n_sat + 1])
        return replace(route, hops=tuple(ids[list(route.hops)].tolist()))


@functools.lru_cache(maxsize=64)
def trial_cell(params: CellParams, strategy: str, plan: HopPlan) -> TrialCell:
    """The shared part of every trial of a cell routed with ``strategy``,
    cached like the plan it takes.

    ``leoroute route`` (:meth:`TrialCell.route_rows`) and the Monte Carlo
    trials both route through it, band or region first
    (:meth:`TrialCell.route_band_first`), as the strategy's row of
    :data:`STRATEGY` says. Raises InvalidInputError for a row with no
    router (``ideal``) or a name not in the table, and when the endpoints
    coincide (:func:`~leoroute.geometry.great_arc` finds no arc).
    """
    row = _strategy(strategy)
    if row.router is None:
        raise InvalidInputError(f"{strategy!r} routes through no satellites")
    src, dst = make_endpoints(params.radius, params.arc_angle)
    endpoints = point_rows([src, dst])
    # Every caller of the cached cell shares them.
    endpoints.setflags(write=False)
    if coincident(*endpoints):
        raise InvalidInputError("src and dst are the same point")
    halfwidth = min(row.halfwidth(params, plan), math.pi / 2.0)
    band_sine = math.sin(min(halfwidth * (1.0 + _BAND_SLACK), math.pi / 2.0))
    region, span = _region(params, row, plan, halfwidth)
    return TrialCell(
        params=params,
        strategy=strategy,
        plan=plan,
        endpoints=endpoints,
        halfwidth=halfwidth,
        band_sine=band_sine,
        span=span,
        region=region,
        reference_ms=reference_latency_ms(params),
    )


def _run_batch(
    cell: TrialCell,
    base_seed: int,
    pieces: list[tuple[np.random.Generator, list[int]]],
    start: int,
) -> list[TrialRecord]:
    """Records of the trials from ``start`` on, routed together, region
    first. Each piece ``(rng, counts)`` is a run of consecutive lanes of one
    block, whose regions hold ``counts`` satellites and are drawn from the
    block's generator ``rng``."""
    n_sat, sine, region = cell.params.n_sat, cell.band_sine, cell.region
    counts = [k for _, part in pieces for k in part]
    regions = cell.stack(sample_bands(pieces, sine, region), counts)

    def whole(redo: list[int]) -> ShellStack:
        # The rest of a shell is drawn only for a trial that needs it, from
        # the trial's own generator.
        rows = np.empty((len(redo), n_sat + 2, 3))
        for shell, k in zip(rows, redo):
            count = counts[k]
            shell[:count] = regions.rows[k, :count]
            own = np.random.default_rng(trial_seed(base_seed, start + k))
            sample_band_complement(own, sine, shell[count:n_sat], region)
        return cell.stack(rows, [n_sat] * len(redo))

    routes, _ = cell.route_band_first(regions, n_sat, whole, cell.span)
    records = []
    for i, route in enumerate(routes, start):
        latency = None if route.interrupted else route.latency
        records.append(
            TrialRecord(
                trial_index=i,
                status=route.status.value,
                latency_ms=latency,
                n_hops_final=route.n_hops,
                efficiency=latency and measured_efficiency(cell.reference_ms, latency),
            )
        )
    return records


def _batches(
    cell: TrialCell, base_seed: int, start: int, stop: int
) -> Iterator[list[tuple[np.random.Generator, list[int]]]]:
    """Trials ``start`` to ``stop`` in batches of consecutive lanes, each as
    its pieces ``(block generator, region counts)``, one per block it takes
    lanes from.

    Each block's generator draws its 64 region counts when the batches
    reach the block. A batch grows lane by lane, across blocks, while its
    region stack, its lanes times its largest region count plus 2 rows,
    stays within ``_BATCH_ROWS``; a batch of one lane may pass it.
    """
    batch: list[tuple[np.random.Generator, list[int]]] = []
    lanes = widest = 0
    for first in range(start, stop, _BLOCK_TRIALS):
        rng = np.random.default_rng(block_seed(base_seed, first // _BLOCK_TRIALS))
        counts = sample_band_counts(
            rng, cell.params.n_sat, cell.band_sine, _BLOCK_TRIALS, cell.region
        )[: stop - first].tolist()
        for count in counts:
            if lanes and (lanes + 1) * (max(widest, count) + 2) > _BATCH_ROWS:
                yield batch
                batch, lanes, widest = [], 0, 0
            if not batch or batch[-1][0] is not rng:
                batch.append((rng, []))
            batch[-1][1].append(count)
            lanes, widest = lanes + 1, max(widest, count)
    yield batch


def _run_chunk(args: tuple) -> list[TrialRecord]:
    """Records of trials ``start`` to ``stop``; ``start`` begins a block.
    Runs of consecutive trials, across blocks, are routed as one batch
    (:func:`_batches`)."""
    cell, base_seed, start, stop = args
    records: list[TrialRecord] = []
    for pieces in _batches(cell, base_seed, start, stop):
        records += _run_batch(cell, base_seed, pieces, start + len(records))
    return records


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

    This is the one path from a cell to its records: :func:`run_cell`,
    :func:`run_table1` and :func:`sweep` reduce what it returns.
    ``threads`` caps the number of worker processes, which never exceeds
    the CPUs this process may run on or the blocks of 64 trials; each
    worker takes whole blocks and routes runs of its consecutive trials,
    across blocks, as one batch (:func:`_batches`). Any value yields
    byte-identical results because a trial's random draws depend only on
    the base seed and its index (lane ``i % 64`` of block ``i // 64``, and
    its own complement stream), not on its batch, and records are reduced
    in trial order. The records of the first t trials are the same for any
    ``trials`` >= t.

    Raises:
        InvalidInputError: If ``trials`` is below 1 or ``strategy`` is not
            in :data:`STRATEGY`, before anything is planned.
    """
    if trials < 1:
        raise InvalidInputError(f"trials must be >= 1, got {trials}")
    row = _strategy(strategy)
    ideal = row.router is None
    plan = None if ideal else plan_hops(
        params.arc_angle, params.theta_max, params.n_sat, params.epsilon
    )
    if ideal or (row.targets and plan.immediate_type1):
        # Every trial gets the same record. An ideal trial takes the
        # reference route. A plan with no feasible hop count at all
        # interrupts every trial of a target strategy before routing; the
        # greedy baselines do not depend on planning succeeding and route
        # every trial.
        outcome = (
            ("ok", reference_latency_ms(params), reference_hop_count(params), 1.0)
            if ideal
            else ("type2_interrupted", None, 0, None)
        )
        return tuple(TrialRecord(i, *outcome) for i in range(trials))
    cell = trial_cell(params, strategy, plan)
    blocks = -(-trials // _BLOCK_TRIALS)
    workers = min(max(1, int(threads)), _cpu_count(), blocks)
    if workers == 1:
        return tuple(_run_chunk((cell, base_seed, 0, trials)))
    # Each worker takes whole blocks.
    bounds = [
        min(round(i * blocks / workers) * _BLOCK_TRIALS, trials)
        for i in range(workers + 1)
    ]
    tasks = [(cell, base_seed, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    # The chunks come back in task order, which is trial order.
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return tuple(rec for chunk in pool.map(_run_chunk, tasks) for rec in chunk)


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
    """The aggregate statistics of :func:`run_trials` for one cell.

    Latency and efficiency are averaged over the non-interrupted trials
    only; both the measured count and the total are reported so the
    denominator is never ambiguous. Cells with no completed trial carry
    None for both means. The plan facts (``n_hat``, ``reliable_angle``,
    ``type1_interrupted``) come from the cached
    :func:`~leoroute.analysis.plan_hops` call that planned the trials.
    """
    records = run_trials(params, strategy, trials, base_seed, threads)
    ideal = STRATEGY[strategy].router is None
    plan = None if ideal else plan_hops(
        params.arc_angle, params.theta_max, params.n_sat, params.epsilon
    )
    type2 = sum(1 for r in records if r.status == "type2_interrupted")
    completed = [r for r in records if r.status != "type2_interrupted"]
    if ideal:
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
    ``distance_km``, ``d_max_km`` and ``epsilon`` minus the swept one; a
    None value counts as missing, and a value for the swept one is
    replaced by each swept value.
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
        missing = [
            key
            for key in ("n_sat", "altitude_km", "distance_km", "d_max_km", "epsilon")
            if key != self.variable and self.fixed.get(key) is None
        ]
        if missing:
            raise InvalidInputError(f"missing fixed parameters: {missing}")
        if self.trials < 1:
            raise InvalidInputError("trials must be >= 1")
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

    The closed-form efficiency estimates are attached to target-strategy
    (equal-interval) rows whose hop plan succeeded; they are not defined
    for the other strategies or for failed plans and are left empty there.
    """
    rows = [_strategy(name) for name in strategies]
    if not strategies or len(set(strategies)) != len(strategies):
        raise InvalidInputError(
            f"strategies must be non-empty and without repeats, got {tuple(strategies)}"
        )
    records = []
    for value in spec.values:
        params = spec.cell(value)
        for row in rows:
            agg = run_cell(params, row.name, spec.trials, spec.base_seed, threads)
            contour = binomial = None
            if row.targets and not agg.type1_interrupted:
                estimate = (params.arc_angle, agg.n_hat, params.n_sat, params.theta_max)
                contour = efficiency_contour(*estimate)
                binomial = efficiency_binomial(*estimate)
            records.append(
                SweepRecord(
                    swept_value=float(value),
                    strategy=row.name,
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

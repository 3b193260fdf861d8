"""Multi-hop route construction between two satellites.

Four strategies are provided:

* :func:`route_ideal` — the latency floor: equally spaced relay positions
  on the great-circle arc, ignoring where real satellites are.
* :func:`route_equal_interval` — snap each equally spaced target to its
  nearest real satellite, then repair any hop that breaks the distance or
  visibility constraints.
* :func:`route_min_deflection` — greedy baseline that always picks the
  admissible satellite deviating least from the great-circle arc.
* :func:`route_max_stepsize` — greedy baseline that always picks the
  farthest admissible satellite inside a belt around the arc.

The three strategies that route through sampled satellites share one
signature, ``(constellation, d_max, plan) -> Route``: all of them follow the
hop plan the caller made for the cell (equal-interval places
``plan.n_hat - 1`` targets, the greedy walks stop after ``4 * plan.n_hat``
hops, and max-stepsize keeps to a belt of ``plan.reliable_angle``).

The constellation alone describes the rest of the route's setting: its
endpoints are its last two satellites (src second to last, dst last), as
the Monte Carlo harness appends them, and its ``radius`` and ``r_earth``
are the sphere and the occluding body. Routing works on the
constellation's unit vectors; :class:`SpherePoint` appears only at the
edges (ideal relay positions). A hop is admissible when its chord is at
most min(d_max, line-of-sight limit), tested as one dot product of unit
vectors; latency is the summed chord over the signal speed
``PhysicalConstants.c``. Routes never fail with an exception on a valid
input: infeasibility is reported as ``type2_interrupted`` status.

Each route also reports its ``band_reach``: how far from the src-dst great
circle a satellite must lie to be unable to change the route. The Monte
Carlo harness routes on the satellites of a band around the arc first and
uses it to decide whether the rest of the shell is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import AbstractSet, Optional

import numpy as np

from .analysis import HopPlan, ideal_latency, max_hop_angle, n_min_ideal
from .constellation import Constellation
from .errors import (
    DegenerateArcError,
    InternalConsistencyError,
    InvalidInputError,
    RepairFailedError,
)
from .geometry import (
    ANTIPODAL_THRESHOLD,
    PhysicalConstants,
    SpherePoint,
    dome_angle,
    great_arc,
    los_chord_limit,
    slerp,
)

# Unused here; benchmarks/tracing.py wraps these bindings by name.
from .analysis import plan_hops  # noqa: F401
from .constellation import nearest  # noqa: F401
from .geometry import chord_distance  # noqa: F401


class RouteStatus(Enum):
    """How route construction ended."""

    OK = "ok"
    REPAIRED = "repaired"
    TYPE2_INTERRUPTED = "type2_interrupted"


@dataclass(frozen=True)
class Route:
    """A materialized route through the constellation.

    Attributes:
        hops: Satellite IDs in visit order (first = src; last = dst unless
            construction was interrupted, in which case this is the prefix
            reached before failing).
        hop_distances: Chord length in km of each consecutive hop.
        latency: Propagation latency in ms of the hops listed.
        status: ``ok``, ``repaired`` (at least one hop was repaired), or
            ``type2_interrupted`` (no admissible continuation existed).
        direct_hop: True when the route is the single-hop shortcut taken
            because the endpoints can reach each other directly.
        band_reach: Dome angle (rad) such that adding satellites that
            deviate from the src-dst great circle by more than it would not
            change which satellites the route visits. It is the largest
            relay-to-target angle of an unrepaired equal-interval route,
            the largest relay deflection of a completed min-deflection
            walk, the belt of max-stepsize, and pi/2 (any satellite could
            matter) for repaired or interrupted routes of the other two.
    """

    hops: tuple[int, ...]
    hop_distances: tuple[float, ...]
    latency: float
    status: RouteStatus
    direct_hop: bool = False
    band_reach: float = math.pi / 2.0

    def __post_init__(self) -> None:
        if len(self.hops) < 1:
            raise InvalidInputError("a route must contain at least its source")
        if len(self.hop_distances) != len(self.hops) - 1:
            raise InvalidInputError("need exactly one distance per hop")
        if len(set(self.hops)) != len(self.hops):
            raise InvalidInputError("a route may not visit a satellite twice")

    @property
    def interrupted(self) -> bool:
        """True when construction failed (type-II interruption)."""
        return self.status is RouteStatus.TYPE2_INTERRUPTED

    @property
    def n_hops(self) -> int:
        """Number of hops actually materialized."""
        return len(self.hop_distances)


def _cos_admissible(c: Constellation, d_max: float) -> float:
    """Smallest unit-vector dot product of an admissible hop in ``c``.

    A hop is admissible when its chord is at most min(d_max, line-of-sight
    limit of the body of radius ``c.r_earth``); for unit vectors u_a, u_b on
    a sphere of radius r the chord is r * |u_a - u_b| =
    r * sqrt(2 (1 - u_a . u_b)), so the test is one dot.

    Raises:
        InvalidInputError: If ``d_max`` is not positive or ``c`` holds
            fewer than two satellites.
    """
    if not d_max > 0.0:
        raise InvalidInputError(f"d_max must be positive, got {d_max}")
    if c.n_sat < 2:
        raise InvalidInputError(f"a hop needs two satellites, got {c.n_sat}")
    radius = c.radius
    limit = min(d_max, los_chord_limit(radius, c.r_earth))
    return 1.0 - (limit * limit) / (2.0 * radius * radius)


def _endpoint_ids(c: Constellation) -> tuple[int, int]:
    """IDs of src and dst, the last two satellites.

    Callers run :func:`_cos_admissible` first, which makes sure there are two.
    """
    if float(c.unit_vectors[-2] @ c.unit_vectors[-1]) >= 1.0:
        raise InvalidInputError("src and dst are the same point")
    return c.n_sat - 2, c.n_sat - 1


def arc_waypoints(
    src: SpherePoint, dst: SpherePoint, n_hops: int
) -> tuple[SpherePoint, ...]:
    """``n_hops + 1`` equally spaced points along the src-dst arc.

    Unlike plain slerp this resolves antipodal endpoints with the
    deterministic half-great-circle convention of
    :func:`leoroute.geometry.great_arc` that the routing strategies use,
    so it works for any separation in (0, pi].
    """
    if n_hops < 1:
        raise InvalidInputError(f"n_hops must be >= 1, got {n_hops}")
    points, _ = great_arc(
        src.unit_vector(), dst.unit_vector(), np.arange(n_hops + 1) / n_hops
    )
    return tuple(SpherePoint.from_unit_vector(p, src.r) for p in points)


def _materialize(
    c: Constellation,
    hops: list[int],
    status: RouteStatus,
    direct_hop: bool = False,
    band_reach: float = math.pi / 2.0,
) -> Route:
    steps = np.diff(c.unit_vectors[hops], axis=0)
    distances = tuple((c.radius * np.linalg.norm(steps, axis=1)).tolist())
    return Route(
        hops=tuple(hops),
        hop_distances=distances,
        latency=sum(distances) / PhysicalConstants.c,
        status=status,
        direct_hop=direct_hop,
        band_reach=band_reach,
    )


def route_ideal(
    src_pos: SpherePoint,
    dst_pos: SpherePoint,
    d_max: float = 3000.0,
    constants: Optional[PhysicalConstants] = None,
) -> tuple[tuple[SpherePoint, ...], float]:
    """Latency-optimal relay positions, unconstrained by real satellites.

    Splits the great-circle arc into the minimum feasible number of equal
    hops. Returns the hop endpoints (including src and dst) and the total
    propagation latency in ms; every hop spans the same dome angle.

    Raises:
        DegenerateArcError: If the endpoints coincide or are antipodal
            (the connecting arc is not unique).
    """
    consts = constants or PhysicalConstants()
    if abs(src_pos.r - dst_pos.r) > 1e-9 * src_pos.r:
        raise InvalidInputError("endpoints must share a sphere radius")
    arc = dome_angle(src_pos, dst_pos)
    if arc >= math.pi - ANTIPODAL_THRESHOLD:
        raise DegenerateArcError("antipodal endpoints: ideal arc is not unique")
    theta_max = max_hop_angle(src_pos.r, consts.r_earth, d_max)
    n = n_min_ideal(arc, theta_max)
    positions = tuple(slerp(src_pos, dst_pos, i / n) for i in range(n + 1))
    return positions, ideal_latency(arc, n, src_pos.r, consts)


def hop_repair(
    c: Constellation,
    from_id: int,
    to_id: int,
    d_max: float,
    exclude: AbstractSet[int] = frozenset(),
) -> list[int]:
    """Intermediate satellites making an inadmissible hop admissible.

    Walks greedily from ``from_id``: each step takes the satellite that is
    admissible (hop chord at most ``d_max`` and in line of sight) from the
    current one, strictly closer to ``to_id`` (by dome
    angle), not excluded, and deviates least from the from->to arc. Stops
    once ``to_id`` is one admissible hop away. Returns the intermediates
    in visit order (empty when the hop was already admissible).

    Raises:
        InvalidInputError: If ``d_max`` is not positive or ``c`` holds
            fewer than two satellites.
        RepairFailedError: If at some step no satellite qualifies.
    """
    cos_admissible = _cos_admissible(c, d_max)
    units = c.unit_vectors
    to_vec = units[to_id]

    cur = from_id
    cur_dot_to = float(units[cur] @ to_vec)
    if cur_dot_to >= cos_admissible:
        return []

    try:
        _, normal = great_arc(units[from_id], to_vec, 0.0)
    except DegenerateArcError as exc:
        raise RepairFailedError(
            f"cannot repair hop {from_id}->{to_id}: no reference arc"
        ) from exc

    blocked = np.zeros(c.n_sat, dtype=bool)
    ids = np.fromiter(exclude, dtype=np.int64, count=len(exclude))
    blocked[ids[(ids >= 0) & (ids < c.n_sat)]] = True
    blocked[from_id] = True
    blocked[to_id] = True

    deflection = np.abs(np.arcsin(np.clip(units @ normal, -1.0, 1.0)))
    dots_to = units @ to_vec
    result: list[int] = []
    for _ in range(c.n_sat):
        eligible = (
            ~blocked
            & (units @ units[cur] >= cos_admissible)
            & (dots_to > cur_dot_to)
        )
        if not eligible.any():
            raise RepairFailedError(
                f"no admissible satellite advances hop {from_id}->{to_id}"
            )
        step = int(np.argmin(np.where(eligible, deflection, np.inf)))
        result.append(step)
        blocked[step] = True
        cur = step
        cur_dot_to = float(dots_to[cur])
        if cur_dot_to >= cos_admissible:
            return result
    raise InternalConsistencyError(
        f"hop repair for {from_id}->{to_id} exceeded the satellite count"
    )


def route_equal_interval(
    c: Constellation,
    d_max: float,
    plan: HopPlan,
    allow_direct: bool = True,
) -> Route:
    """Route by snapping equally spaced arc targets to nearest satellites.

    Stage 1 places ``plan.n_hat - 1`` relay targets at equal intervals on
    the shortest arc between the endpoints. Stage 2 snaps each
    target to its nearest satellite, excluding the endpoints and any
    satellite already chosen (so no relay is reused). Stage 3 repairs
    every hop that violates the distance or visibility constraint via
    :func:`hop_repair`; a failed repair ends the route with
    ``type2_interrupted`` status.

    The plan is used mechanically: callers that want the planned
    reliability guarantee should check ``plan.type1_interrupted`` first.

    Args:
        allow_direct: When True and the endpoints can reach each other in
            one admissible hop, return that single-hop route (flagged
            ``direct_hop``) instead of the planned multi-hop one.
    """
    cos_admissible = _cos_admissible(c, d_max)
    src_id, dst_id = _endpoint_ids(c)
    units = c.unit_vectors

    if allow_direct and float(units[src_id] @ units[dst_id]) >= cos_admissible:
        return _materialize(
            c, [src_id, dst_id], RouteStatus.OK, direct_hop=True, band_reach=0.0
        )

    n = plan.n_hat
    targets, _ = great_arc(units[src_id], units[dst_id], np.arange(1, n) / n)

    # Nearest free satellite per target, ties to the lowest ID.
    taken = np.empty(n + 1, dtype=np.intp)
    taken[:2] = src_id, dst_id
    for k, target in enumerate(targets, start=2):
        dots = units @ target
        dots[taken[:k]] = -2.0
        relay = dots.argmax()
        if dots[relay] == -2.0:
            return _materialize(
                c, [src_id, *taken[2:k].tolist()], RouteStatus.TYPE2_INTERRUPTED
            )
        taken[k] = relay

    planned = [src_id, *taken[2:].tolist(), dst_id]
    rows = units[planned]
    fits = (np.einsum("ij,ij->i", rows[:-1], rows[1:]) >= cos_admissible).tolist()
    used = set(planned)
    full: list[int] = [src_id]
    repaired = False
    for a, b, fit in zip(planned, planned[1:], fits):
        if fit:
            full.append(b)
            continue
        try:
            mids = hop_repair(c, a, b, d_max, exclude=used)
        except RepairFailedError:
            return _materialize(c, full, RouteStatus.TYPE2_INTERRUPTED)
        used.update(mids)
        full.extend(mids)
        full.append(b)
        repaired = repaired or bool(mids)

    if repaired:
        return _materialize(c, full, RouteStatus.REPAIRED)
    # A satellite deviating from the arc by more than every relay's angle
    # to its target is farther than that from each target, so it could
    # not have won a snap.
    gaps = np.linalg.norm(units[taken[2:]] - targets, axis=1)
    reach = float(2.0 * np.arcsin(np.minimum(gaps / 2.0, 1.0)).max(initial=0.0))
    return _materialize(c, full, RouteStatus.OK, band_reach=reach)


def _route_greedy(
    c: Constellation, d_max: float, plan: HopPlan, pick_farthest: bool
) -> Route:
    """Shared greedy walk for the two baseline strategies."""
    cos_admissible = _cos_admissible(c, d_max)
    src_id, dst_id = _endpoint_ids(c)
    units = c.unit_vectors
    _, normal = great_arc(units[src_id], units[dst_id], 0.0)
    deflection = np.abs(np.arcsin(np.clip(units @ normal, -1.0, 1.0)))
    dots_dst = units @ units[dst_id]
    blocked = np.zeros(c.n_sat, dtype=bool)
    if pick_farthest:
        blocked |= deflection > plan.reliable_angle
    blocked[src_id] = True

    # max-stepsize never looks outside its belt. A completed min-deflection
    # walk took the least-deflecting candidate at every step, so no
    # satellite deflecting more than all its relays could have been taken.
    belt = min(plan.reliable_angle, math.pi / 2.0)
    hops = [src_id]
    cur = src_id
    while len(hops) - 1 < 4 * plan.n_hat:
        dots_cur = units @ units[cur]
        if float(dots_cur[dst_id]) >= cos_admissible:
            reach = belt if pick_farthest else float(
                deflection[hops[1:]].max(initial=0.0)
            )
            hops.append(dst_id)
            return _materialize(c, hops, RouteStatus.OK, band_reach=reach)
        eligible = (
            ~blocked & (dots_cur >= cos_admissible) & (dots_dst > dots_dst[cur])
        )
        if not eligible.any():
            break
        if pick_farthest:
            # Farthest admissible hop = smallest dot with the current satellite.
            step = int(np.argmin(np.where(eligible, dots_cur, np.inf)))
        else:
            step = int(np.argmin(np.where(eligible, deflection, np.inf)))
        hops.append(step)
        blocked[step] = True
        cur = step
    return _materialize(
        c,
        hops,
        RouteStatus.TYPE2_INTERRUPTED,
        band_reach=belt if pick_farthest else math.pi / 2.0,
    )


def route_min_deflection(c: Constellation, d_max: float, plan: HopPlan) -> Route:
    """Greedy baseline: hug the great-circle arc.

    From each satellite, move to the admissible satellite that is strictly
    closer to the destination and deviates least from the src->dst arc;
    take the destination directly as soon as it is admissible. Runs out of
    candidates or exceeds 4x the planned hop count ``plan.n_hat`` ->
    ``type2_interrupted``.
    """
    return _route_greedy(c, d_max, plan, pick_farthest=False)


def route_max_stepsize(c: Constellation, d_max: float, plan: HopPlan) -> Route:
    """Greedy baseline: longest admissible hop inside a belt around the arc.

    Candidates must lie within the planned reliable angle
    ``plan.reliable_angle`` (dome angle) of the src->dst arc, be
    admissible from the current satellite, and be strictly closer to the
    destination; among them the farthest is taken. Same termination rules
    as :func:`route_min_deflection`.
    """
    return _route_greedy(c, d_max, plan, pick_farthest=True)

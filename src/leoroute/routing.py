"""Multi-hop route construction between two satellites.

Three strategies route through sampled satellites:

* :func:`route_equal_interval` — snap each equally spaced target to its
  nearest real satellite, then repair any hop that breaks the distance or
  visibility constraints.
* :func:`route_min_deflection` — greedy baseline that always picks the
  admissible satellite deviating least from the great-circle arc.
* :func:`route_max_stepsize` — greedy baseline that always picks the
  farthest admissible satellite inside a belt around the arc.

They share one signature, ``(constellation, d_max, plan) -> Route``: all of
them follow the hop plan the caller made for the cell (equal-interval places
``plan.n_hat - 1`` targets, the greedy walks stop after ``4 * plan.n_hat``
hops, and max-stepsize keeps to a belt of ``plan.reliable_angle``).
:func:`hop_repair` and both baselines run one greedy relay walk and differ
only in its score, the satellites they block and the step cap.
:func:`route_equal_interval_batch` routes many shells that share their
endpoints in one pass; :func:`route_equal_interval` is its batch of one.

The constellation alone describes the rest of the route's setting: its
endpoints are its last two satellites (src second to last, dst last), as
the Monte Carlo harness appends them, and its ``radius`` and ``r_earth``
are the sphere and the occluding body. Routing works on the
constellation's unit vectors; :class:`SpherePoint` appears only in
:func:`arc_waypoints`, the relay positions of the ideal route (equal hops
along the great-circle arc). A hop is admissible when its chord is at
most min(d_max, line-of-sight limit), tested as one dot product of unit
vectors; latency is the summed chord over the signal speed
``SIGNAL_SPEED_KM_MS``. Routes never fail with an exception on a valid
input: infeasibility is reported as ``type2_interrupted`` status.

Each route also reports its ``band_reach``: how far from the src-dst great
circle a satellite must lie to be unable to change the route. The Monte
Carlo harness routes on the satellites of a band around the arc first and
uses it to decide whether the rest of the shell is needed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import AbstractSet, Optional, Sequence

import numpy as np

from .analysis import HopPlan
from .constellation import Constellation
from .errors import (
    DegenerateArcError,
    InternalConsistencyError,
    InvalidInputError,
    RepairFailedError,
)
from .geometry import (
    SIGNAL_SPEED_KM_MS,
    SpherePoint,
    coincident,
    great_arc,
    los_chord_limit,
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
        status: ``ok``, ``repaired`` (at least one hop was repaired), or
            ``type2_interrupted`` (no admissible continuation existed).
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
    status: RouteStatus
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

    @property
    def latency(self) -> float:
        """Propagation latency in ms of the hops listed."""
        return sum(self.hop_distances) / SIGNAL_SPEED_KM_MS

    @property
    def direct_hop(self) -> bool:
        """True when the route reached dst in one hop, with no relay."""
        return self.n_hops == 1 and not self.interrupted


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
    The endpoints coincide when :func:`~leoroute.geometry.great_arc` finds
    no arc between them.
    """
    if coincident(c.unit_vectors[-2], c.unit_vectors[-1]):
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
    band_reach: float = math.pi / 2.0,
) -> Route:
    steps = np.diff(c.unit_vectors[hops], axis=0)
    return Route(
        hops=tuple(hops),
        hop_distances=tuple((c.radius * np.linalg.norm(steps, axis=1)).tolist()),
        status=status,
        band_reach=band_reach,
    )


def _deflection(units: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """Dome angle |asin(u . n)| of every satellite off the circle of ``normal``."""
    return np.abs(np.arcsin(np.clip(units @ normal, -1.0, 1.0)))


@functools.lru_cache(maxsize=16)
def _endpoint_normal(rows: bytes) -> np.ndarray:
    """Normal of the src->dst arc, from the two endpoint rows' bytes.

    Every trial of a cell shares its endpoints, so the greedy walks of a
    cell compute their arc once.
    """
    _, normal = great_arc(*np.frombuffer(rows).reshape(2, 3), 0.0)
    normal.setflags(write=False)
    return normal


def _walk(
    units: np.ndarray,
    start: int,
    goal: int,
    cos_admissible: float,
    blocked: np.ndarray,
    score: Optional[np.ndarray],
    cap: int,
) -> tuple[list[int], bool]:
    """Relays from ``start`` toward ``goal``, and whether ``goal`` came in reach.

    Until ``goal`` is one admissible hop away, each step takes the satellite
    with the lowest ``score`` (the farthest when ``score`` is None) among
    those admissible from the current one, not ``blocked`` (nor ``start``
    or ``goal``) and strictly closer to ``goal``. Gives up when none
    qualifies or after ``cap`` steps.

    Only what is blocked on entry needs a mask: every relay already taken
    is farther from ``goal`` than the current satellite, so it never
    qualifies again, and a step that qualifies never revisits a satellite.
    """
    dots_goal = units @ units[goal]
    blocked[[start, goal]] = True
    free = ~blocked
    relays: list[int] = []
    cur = start
    while len(relays) < cap:
        if dots_goal[cur] >= cos_admissible:
            return relays, True
        dots_cur = units @ units[cur]
        eligible = free & (dots_cur >= cos_admissible) & (dots_goal > dots_goal[cur])
        ranked = dots_cur if score is None else score
        cur = int(np.where(eligible, ranked, np.inf).argmin())
        if not eligible[cur]:
            break
        relays.append(cur)
    return relays, False


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
    if float(units[from_id] @ units[to_id]) >= cos_admissible:
        return []
    try:
        _, normal = great_arc(units[from_id], units[to_id], 0.0)
    except DegenerateArcError as exc:
        raise RepairFailedError(
            f"cannot repair hop {from_id}->{to_id}: no reference arc"
        ) from exc

    blocked = np.zeros(c.n_sat, dtype=bool)
    ids = np.fromiter(exclude, dtype=np.int64, count=len(exclude))
    blocked[ids[(ids >= 0) & (ids < c.n_sat)]] = True
    mids, reached = _walk(
        units, from_id, to_id, cos_admissible, blocked, _deflection(units, normal),
        c.n_sat,
    )
    if reached:
        return mids
    if len(mids) < c.n_sat:
        raise RepairFailedError(
            f"no admissible satellite advances hop {from_id}->{to_id}"
        )
    # A walk never revisits a satellite, so only a bug can use up the cap.
    raise InternalConsistencyError(
        f"hop repair for {from_id}->{to_id} exceeded the satellite count"
    )


#: A dot product no unit vector reaches: it marks the satellites a snap may
#: not take and the padding rows of a batch.
_NEVER = -2.0

#: Most dots one matrix product of the snapping stage computes. OpenBLAS
#: spreads larger products over threads, and on a shared 2-core host that
#: made a 224 000-dot product 18x slower than the same work in one thread.
_PRODUCT_DOTS = 1 << 16


def route_equal_interval(c: Constellation, d_max: float, plan: HopPlan) -> Route:
    """Route by snapping equally spaced arc targets to nearest satellites.

    Stage 1 places ``plan.n_hat - 1`` relay targets at equal intervals on
    the shortest arc between the endpoints. Stage 2 snaps each
    target to its nearest satellite, excluding the endpoints and any
    satellite already chosen (so no relay is reused); targets take their
    satellites in arc order and ties go to the lowest ID. Stage 3 repairs
    every hop that violates the distance or visibility constraint via
    :func:`hop_repair`; a failed repair ends the route with
    ``type2_interrupted`` status.

    When the endpoints can reach each other in one admissible hop, the
    route is that single hop (flagged ``direct_hop``) instead of the
    planned multi-hop one.

    The plan is used mechanically: callers that want the planned
    reliability guarantee should check ``plan.type1_interrupted`` first.
    This is the batch of one of :func:`route_equal_interval_batch`.
    """
    return route_equal_interval_batch((c,), d_max, plan)[0]


def route_equal_interval_batch(
    shells: Sequence[Constellation], d_max: float, plan: HopPlan
) -> list[Route]:
    """:func:`route_equal_interval` on each of ``shells``, in one pass.

    The shells share their sphere, their body and their endpoints (their
    last two rows), so the targets are computed once. The shells are
    stacked in blocks as wide as the largest one, and matrix products of
    the targets with the stack give every dot of every target; the
    endpoints and the padding can never win a snap. A shell whose targets
    all have distinct nearest satellites takes them; one whose targets
    collide takes its satellites target by target from its own dots. The
    hop fits, the band reach and the hop chords are computed for all shells
    at once; a shell with an inadmissible hop is repaired on its own.

    Raises:
        InvalidInputError: As :func:`route_equal_interval`, or if the
            shells differ in sphere, body or endpoints.
    """
    if not shells:
        return []
    first = shells[0]
    cos_admissible = _cos_admissible(first, d_max)
    _endpoint_ids(first)
    ends = first.unit_vectors[-2:]
    for c in shells[1:]:
        if (c.r_earth, c.altitude) != (first.r_earth, first.altitude) or (
            c.unit_vectors[-2:].tobytes() != ends.tobytes()
        ):
            raise InvalidInputError(
                "the shells of a batch must share their sphere, body and endpoints"
            )
    # Shell b holds counts[b] satellites, then src (ID counts[b]) and dst.
    counts = [c.n_sat - 2 for c in shells]
    src, dst = ends
    if float(src @ dst) >= cos_admissible:
        return [
            _materialize(c, [k, k + 1], RouteStatus.OK, band_reach=0.0)
            for c, k in zip(shells, counts)
        ]

    n = plan.n_hat
    targets, _ = great_arc(src, dst, np.arange(1, n) / n)
    batch, width = len(shells), max(counts) + 2
    if batch == 1:
        rows = first.unit_vectors
    else:
        rows = np.zeros((batch * width, 3))
        for b, c in enumerate(shells):
            rows[b * width : b * width + c.n_sat] = c.unit_vectors
    # dots[k, b, i]: target k against satellite i of shell b.
    dots = np.empty((n - 1, batch * width))
    step = max(1, _PRODUCT_DOTS // max(n - 1, 1))
    for lo in range(0, batch * width, step):
        np.matmul(targets, rows[lo : lo + step].T, out=dots[:, lo : lo + step])
    dots = dots.reshape(n - 1, batch, width)
    for b, k in enumerate(counts):
        dots[:, b, k:] = _NEVER
    hops = np.empty((n + 1, batch), dtype=np.intp)
    hops[0] = counts
    hops[1:-1] = dots.argmax(axis=2)
    hops[-1] = hops[0] + 1
    ranked = np.sort(hops[1:-1], axis=0)
    collide = (ranked[1:] == ranked[:-1]).any(axis=0).tolist()
    routes: list[Optional[Route]] = [None] * batch
    for b, k in enumerate(counts):
        if collide[b] or k < n - 1:
            taken = _snap_in_turn(dots[:, b, :k], hops[1:-1, b].tolist())
            if len(taken) < n - 1:
                routes[b] = _materialize(
                    shells[b], [k, *taken], RouteStatus.TYPE2_INTERRUPTED
                )
            else:
                hops[1:-1, b] = taken

    live = np.flatnonzero([route is None for route in routes])
    if len(live) == 0:
        return routes
    if len(live) < batch:
        hops = hops[:, live]
    path = rows[hops + width * live]
    fits = np.einsum("hbj,hbj->hb", path[:-1], path[1:]) >= cos_admissible
    fit = fits.all(axis=0)
    for j in np.flatnonzero(~fit).tolist():
        b = int(live[j])
        routes[b] = _repaired(
            shells[b], hops[:, j].tolist(), fits[:, j].tolist(), d_max
        )

    # A satellite deviating from the arc by more than every relay's angle
    # to its target is farther than that from each target, so it could
    # not have won a snap.
    path, hops = path[:, fit], hops[:, fit]
    gaps = np.linalg.norm(path[1:-1] - targets[:, None], axis=2)
    reach = 2.0 * np.arcsin(np.minimum(gaps / 2.0, 1.0)).max(axis=0, initial=0.0)
    chords = first.radius * np.linalg.norm(np.diff(path, axis=0), axis=2)
    for b, ids, lengths, r in zip(
        live[fit].tolist(), hops.T.tolist(), chords.T.tolist(), reach.tolist()
    ):
        routes[b] = Route(tuple(ids), tuple(lengths), RouteStatus.OK, r)
    return routes


def _snap_in_turn(dots: np.ndarray, nearest: list[int]) -> list[int]:
    """Satellites the targets take in arc order, without taking one twice.

    ``dots[k]`` holds target k against every satellite and ``nearest[k]``
    its argmax; a row is overwritten once its target has taken a
    satellite. Each target takes its nearest satellite not taken before,
    ties to the lowest ID; stops at the first target that finds none left.
    """
    taken = np.empty(len(nearest), dtype=np.intp)
    seen: set[int] = set()
    for k, relay in enumerate(nearest):
        if k == dots.shape[1]:
            return taken[:k].tolist()
        if relay in seen:
            free = dots[k]
            free[taken[:k]] = _NEVER
            relay = int(free.argmax())
        taken[k] = relay
        seen.add(relay)
    return taken.tolist()


def _repaired(
    c: Constellation, planned: list[int], fits: list[bool], d_max: float
) -> Route:
    """The planned route with each hop that does not fit repaired."""
    used = set(planned)
    full: list[int] = [planned[0]]
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
    # A hop that fits after all (its dot rounds the other way in
    # hop_repair) leaves the route ok, but its band reach is not known.
    return _materialize(c, full, RouteStatus.REPAIRED if repaired else RouteStatus.OK)


def _route_greedy(
    c: Constellation, d_max: float, plan: HopPlan, pick_farthest: bool
) -> Route:
    """Shared greedy walk for the two baseline strategies."""
    cos_admissible = _cos_admissible(c, d_max)
    src_id, dst_id = _endpoint_ids(c)
    units = c.unit_vectors
    deflection = _deflection(units, _endpoint_normal(units[-2:].tobytes()))
    # max-stepsize never looks outside its belt. A completed min-deflection
    # walk took the least-deflecting candidate at every step, so no
    # satellite deflecting more than all its relays could have been taken.
    if pick_farthest:
        blocked, score = deflection > plan.reliable_angle, None
        reach = min(plan.reliable_angle, math.pi / 2.0)
    else:
        blocked, score, reach = np.zeros(c.n_sat, dtype=bool), deflection, math.pi / 2.0
    relays, reached = _walk(
        units, src_id, dst_id, cos_admissible, blocked, score, 4 * plan.n_hat
    )
    if not reached:
        return _materialize(c, [src_id, *relays], RouteStatus.TYPE2_INTERRUPTED, reach)
    if not pick_farthest:
        reach = float(deflection[relays].max(initial=0.0))
    return _materialize(c, [src_id, *relays, dst_id], RouteStatus.OK, reach)


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

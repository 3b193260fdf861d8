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
Each also has a batch router, ``route_*_batch(shells, d_max, plan)``, for
many shells that share their endpoints: equal-interval snaps all of them in
one pass, and the greedy baselines walk all of them in lockstep. The
one-shell routers are batches of one. :func:`hop_repair` and both baselines
run one greedy relay walk, a batch of walks at a time, and differ only in
its score, the satellites they block and the step cap.

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
circle a satellite must lie to be unable to change the route. The routers
route on every satellite they are given and keep no band of their own: the
Monte Carlo harness and ``leoroute route`` route on the satellites of a
band around the arc first and use the reach to decide whether the rest of
the shell is needed (:mod:`leoroute.experiments`).
"""

from __future__ import annotations

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
    arc_normal,
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
    # minimum(maximum(.)) is np.clip without its wrapper's cost.
    return np.abs(np.arcsin(np.minimum(np.maximum(units @ normal, -1.0), 1.0)))


def _walk(
    units: np.ndarray,
    start: np.ndarray,
    goal: np.ndarray,
    cos_admissible: float,
    blocked: np.ndarray,
    score: Optional[np.ndarray],
    cap: int,
) -> tuple[list[list[int]], list[bool]]:
    """Relays of each walk toward its goal, and whether the goal came in reach.

    Walk b runs on the stack ``units[b]`` (``units`` has shape (B, W, 3))
    from satellite ``start[b]`` to ``goal[b]``. Until its goal is one
    admissible hop away, each step takes the satellite with the lowest
    ``score[b]`` (the farthest when ``score`` is None) among those
    admissible from the current one, not ``blocked[b]`` (nor the goal) and
    strictly closer to the goal. A walk gives up when none qualifies or
    after ``cap`` steps. Marks each goal in ``blocked``.

    The walks move in lockstep: each step takes one matrix product of
    every walk's rows with its current satellite, one eligibility mask and
    one argmin along the rows, and a walk that stops leaves the stack.
    Progress is strict, so a walk never takes a relay twice.
    """
    lanes = np.arange(len(units))
    dots_goal = np.matmul(units, units[lanes, goal][:, :, None])[:, :, 0]
    here = dots_goal[lanes, start]
    cur = units[lanes, start]
    blocked[lanes, goal] = True
    # Closeness to the goal of the satellites a walk may take, -inf
    # elsewhere.
    near = np.where(blocked, -np.inf, dots_goal)
    # Per-walk bookkeeping stays in Python: for the few walks of a batch it
    # costs less than operations on arrays of one entry per walk.
    width = units.shape[1]
    offsets = np.arange(0, len(units) * width, width)
    walks = lanes.tolist()
    relays: list[list[int]] = [[] for _ in walks]
    reached = [closeness >= cos_admissible for closeness in here.tolist()]
    going = [not done for done in reached]
    for step in range(cap):
        if not all(going):
            if not any(going):
                break
            walks = [b for b, go in zip(walks, going) if go]
            here, cur, units, near, score = (
                None if a is None else a[going]
                for a in (here, cur, units, near, score)
            )
            offsets = offsets[: len(walks)]
        dots = np.matmul(units, cur[:, :, None])[:, :, 0]
        eligible = (dots >= cos_admissible) & (near > here[:, None])
        ranked = dots if score is None else score
        pick = np.where(eligible, ranked, np.inf).argmin(axis=1)
        pick += offsets
        moved = eligible.take(pick).tolist()
        here, cur = near.take(pick), units.reshape(-1, 3).take(pick, axis=0)
        # The goal of a walk that took its cap-th relay is not checked.
        last = step + 1 == cap
        going = []
        for b, position, ok, closeness in zip(
            walks, pick.tolist(), moved, here.tolist()
        ):
            if ok:
                relays[b].append(position % width)
                reached[b] = closeness >= cos_admissible and not last
            going.append(ok and not reached[b])
    return relays, reached


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
        normal = arc_normal(units[from_id], units[to_id])
    except DegenerateArcError as exc:
        raise RepairFailedError(
            f"cannot repair hop {from_id}->{to_id}: no reference arc"
        ) from exc

    blocked = np.zeros((1, c.n_sat), dtype=bool)
    ids = np.fromiter(exclude, dtype=np.int64, count=len(exclude))
    blocked[0, ids[(ids >= 0) & (ids < c.n_sat)]] = True
    (mids,), (reached,) = _walk(
        units[None], np.array([from_id]), np.array([to_id]), cos_admissible,
        blocked, _deflection(units, normal)[None], c.n_sat,
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


def _shared_ends(
    shells: Sequence[Constellation], d_max: float
) -> tuple[float, list[int]]:
    """Admissible-hop dot of a batch, and the satellites before each
    shell's endpoints: shell b holds ``counts[b]`` satellites, then src
    (ID ``counts[b]``) and dst.

    Raises:
        InvalidInputError: As :func:`_cos_admissible`, if src and dst
            coincide (:func:`~leoroute.geometry.great_arc` finds no arc
            between them), or if the shells differ in sphere, body or
            endpoints (their last two rows).
    """
    first = shells[0]
    # This also makes sure the first shell holds its two endpoints.
    cos_admissible = _cos_admissible(first, d_max)
    if coincident(first.unit_vectors[-2], first.unit_vectors[-1]):
        raise InvalidInputError("src and dst are the same point")
    ends = first.unit_vectors[-2:].tobytes()
    for c in shells[1:]:
        if (c.r_earth, c.altitude) != (first.r_earth, first.altitude) or (
            c.unit_vectors[-2:].tobytes() != ends
        ):
            raise InvalidInputError(
                "the shells of a batch must share their sphere, body and endpoints"
            )
    return cos_admissible, [c.n_sat - 2 for c in shells]


def _stacked(shells: Sequence[Constellation]) -> np.ndarray:
    """The shells' rows in a (B, W, 3) stack as wide as the largest shell.

    Padding rows are zero; a batch of one is a view of its shell.
    """
    if len(shells) == 1:
        return shells[0].unit_vectors[None]
    rows = np.zeros((len(shells), max(c.n_sat for c in shells), 3))
    for b, c in enumerate(shells):
        rows[b, : c.n_sat] = c.unit_vectors
    return rows


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
    cos_admissible, counts = _shared_ends(shells, d_max)
    src, dst = shells[0].unit_vectors[-2:]
    if float(src @ dst) >= cos_admissible:
        return [
            _materialize(c, [k, k + 1], RouteStatus.OK, band_reach=0.0)
            for c, k in zip(shells, counts)
        ]

    n = plan.n_hat
    targets, _ = great_arc(src, dst, np.arange(1, n) / n)
    stack = _stacked(shells)
    batch, width = stack.shape[:2]
    rows = stack.reshape(-1, 3)
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
    chords = shells[0].radius * np.linalg.norm(np.diff(path, axis=0), axis=2)
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
    shells: Sequence[Constellation], d_max: float, plan: HopPlan, pick_farthest: bool
) -> list[Route]:
    """The greedy baselines on each of ``shells``, in one lockstep walk.

    The shells share their sphere, their body and their endpoints, so the
    deflection of the whole stack takes one product with the arc's normal,
    and the hop chords and band reaches of all routes are computed at once.
    """
    if not shells:
        return []
    cos_admissible, counts = _shared_ends(shells, d_max)
    units = _stacked(shells)
    width = units.shape[1]
    deflection = _deflection(units, arc_normal(*shells[0].unit_vectors[-2:]))
    blocked = np.zeros(deflection.shape, dtype=bool)
    for b, k in enumerate(counts):
        blocked[b, k + 2 :] = True
    if pick_farthest:
        # max-stepsize never looks outside its belt.
        blocked |= deflection > plan.reliable_angle
        score, reach = None, min(plan.reliable_angle, math.pi / 2.0)
    else:
        score, reach = deflection, math.pi / 2.0
    src = np.array(counts)
    relays, reached = _walk(
        units, src, src + 1, cos_admissible, blocked, score, 4 * plan.n_hat
    )
    paths = [
        [k, *mids, k + 1] if done else [k, *mids]
        for k, mids, done in zip(counts, relays, reached)
    ]
    flat = [b * width + h for b, path in enumerate(paths) for h in path]
    steps = np.diff(units.reshape(-1, 3).take(flat, axis=0), axis=0)
    chords = (shells[0].radius * np.linalg.norm(steps, axis=1)).tolist()
    seen = deflection.take(flat).tolist()
    routes = []
    at = 0
    for path, done in zip(paths, reached):
        end = at + len(path)
        status = RouteStatus.OK if done else RouteStatus.TYPE2_INTERRUPTED
        deepest = reach
        if done and not pick_farthest:
            # A completed min-deflection walk took the least-deflecting
            # candidate at every step, so no satellite deflecting more
            # than all its relays could have been taken.
            deepest = max(seen[at + 1 : end - 1], default=0.0)
        routes.append(Route(tuple(path), tuple(chords[at : end - 1]), status, deepest))
        at = end
    return routes


def route_min_deflection(c: Constellation, d_max: float, plan: HopPlan) -> Route:
    """Greedy baseline: hug the great-circle arc.

    From each satellite, move to the admissible satellite that is strictly
    closer to the destination and deviates least from the src->dst arc;
    take the destination directly as soon as it is admissible. Runs out of
    candidates or exceeds 4x the planned hop count ``plan.n_hat`` ->
    ``type2_interrupted``. This is the batch of one of
    :func:`route_min_deflection_batch`.
    """
    return _route_greedy((c,), d_max, plan, pick_farthest=False)[0]


def route_min_deflection_batch(
    shells: Sequence[Constellation], d_max: float, plan: HopPlan
) -> list[Route]:
    """:func:`route_min_deflection` on each of ``shells``, which share their
    sphere, body and endpoints, in one lockstep walk."""
    return _route_greedy(shells, d_max, plan, pick_farthest=False)


def route_max_stepsize(c: Constellation, d_max: float, plan: HopPlan) -> Route:
    """Greedy baseline: longest admissible hop inside a belt around the arc.

    Candidates must lie within the planned reliable angle
    ``plan.reliable_angle`` (dome angle) of the src->dst arc, be
    admissible from the current satellite, and be strictly closer to the
    destination; among them the farthest is taken. Same termination rules
    as :func:`route_min_deflection`. This is the batch of one of
    :func:`route_max_stepsize_batch`.
    """
    return _route_greedy((c,), d_max, plan, pick_farthest=True)[0]


def route_max_stepsize_batch(
    shells: Sequence[Constellation], d_max: float, plan: HopPlan
) -> list[Route]:
    """:func:`route_max_stepsize` on each of ``shells``, which share their
    sphere, body and endpoints, in one lockstep walk."""
    return _route_greedy(shells, d_max, plan, pick_farthest=True)

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
Each also has a batch router, ``route_*_batch(stack, d_max, plan)``, for
a :class:`ShellStack` of shells that share their endpoints: equal-interval
snaps all of them in one lockstep pass over its targets and repairs them
in rounds, one lockstep walk per round, and the greedy baselines walk all
of them in lockstep. On a batch of whole shells, whose satellites mostly
lie far from the arc, equal-interval snaps among those of a strip within
h of the arc, h the radius of a cap that holds 25 satellites on average,
and snaps again on all its rows only a shell whose picks the strip cannot
certify. The one-shell routers are batches of one
(:meth:`ShellStack.of`), and :func:`hop_repair` is a repair round of one
lane. Repairs and both baselines run one greedy relay walk, a batch of
walks at a time, and differ only in its score, the satellites they block
and the step cap. Every router builds its routes from hop paths over its
stack in one place.

The shell alone describes the rest of the route's setting: its endpoints
are its last two satellites (src second to last, dst last), as the Monte
Carlo harness appends them, and its ``radius`` and ``r_earth`` are the
sphere and the occluding body. Routing works on unit vectors;
:class:`SpherePoint` appears only in :func:`arc_waypoints`, the relay
positions of the ideal route (equal hops along the great-circle arc). A
hop is admissible when its chord is at most min(d_max, line-of-sight
limit), tested as one dot product of unit vectors; latency is the summed
chord over the signal speed ``SIGNAL_SPEED_KM_MS``. Routes never fail with
an exception on a valid input: infeasibility is reported as
``type2_interrupted`` status.

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
from itertools import chain
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


def _cos_admissible(c: "Constellation | ShellStack", d_max: float) -> float:
    """Smallest unit-vector dot product of an admissible hop in ``c``.

    A hop is admissible when its chord is at most min(d_max, line-of-sight
    limit of the body of radius ``c.r_earth``); for unit vectors u_a, u_b on
    a sphere of radius r the chord is r * |u_a - u_b| =
    r * sqrt(2 (1 - u_a . u_b)), so the test is one dot.

    Raises:
        InvalidInputError: If ``d_max`` is not positive.
    """
    if not d_max > 0.0:
        raise InvalidInputError(f"d_max must be positive, got {d_max}")
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


def _deflection(dots: np.ndarray) -> np.ndarray:
    """Dome angle |asin(u . n)| off a great circle, from each satellite's dot
    u . n with the circle's normal."""
    # minimum(maximum(.)) is np.clip without its wrapper's cost.
    return np.abs(np.arcsin(np.minimum(np.maximum(dots, -1.0), 1.0)))


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
    in visit order (empty when the hop was already admissible). An
    equal-interval route repairs its hops with this walk, many at once.

    Raises:
        InvalidInputError: If ``d_max`` is not positive, ``c`` holds
            fewer than two satellites, or ``from_id`` or ``to_id`` is not
            in [0, n_sat).
        RepairFailedError: If the hop has no reference arc or at some step
            no satellite qualifies.
    """
    cos_admissible = _cos_admissible(c, d_max)
    if c.n_sat < 2:
        raise InvalidInputError(f"a hop needs two satellites, got {c.n_sat}")
    if not (0 <= from_id < c.n_sat and 0 <= to_id < c.n_sat):
        raise InvalidInputError(
            f"hop {from_id}->{to_id} names a satellite outside [0, {c.n_sat})"
        )
    blocked = np.zeros((1, c.n_sat), dtype=bool)
    ids = np.fromiter(exclude, dtype=np.int64, count=len(exclude))
    blocked[0, ids[(ids >= 0) & (ids < c.n_sat)]] = True
    (mids,) = _repair_round(
        c.unit_vectors[None], [0], [from_id], [to_id], cos_admissible, blocked
    )
    if mids is None:
        raise RepairFailedError(
            f"no admissible relay path repairs hop {from_id}->{to_id}"
        )
    return mids


#: Most dots one matrix product of the snapping stage computes, and the
#: most doubles the work area of an equal-interval batch holds: a group of
#: target dots while it snaps, the lanes of one repair walk while it
#: repairs. OpenBLAS spreads larger products over threads, and on a shared
#: 2-core host that made a 224 000-dot product 18x slower than the same
#: work in one thread.
_PRODUCT_DOTS = 1 << 16

#: Doubles each row of a repair lane takes at the peak of its walk: the
#: lane's copy of its shell's rows (3), its dots with the arc's normal and
#: its deflection (2), and the lockstep walk's own (a trace of table1's
#: oneweb cell peaked at 6.2).
_REPAIR_DOUBLES = 12


def _repair_round(
    stack: np.ndarray,
    ids: list[int],
    start: list[int],
    goal: list[int],
    cos_admissible: float,
    blocked: np.ndarray,
) -> list[Optional[list[int]]]:
    """Relays that repair hop ``start[j]`` -> ``goal[j]`` of each lane j.

    Lane j routes on the rows ``stack[ids[j]]`` and may not take the
    satellites of ``blocked[j]``. A hop that fits after all (its scalar dot
    rounds the other way) needs no relay. Every other lane walks from its
    start, scored by the deflection from its own start->goal arc, until its
    goal is one admissible hop away; a lane whose hop has no reference arc
    or whose walk dead-ends gets None. The lanes walk in lockstep, as many
    at a time as ``_PRODUCT_DOTS`` holds.
    """
    relays: list[Optional[list[int]]] = [None] * len(ids)
    walkers, normals = [], []
    for j, (b, a, z) in enumerate(zip(ids, start, goal)):
        units = stack[b]
        if float(units[a] @ units[z]) >= cos_admissible:
            relays[j] = []
            continue
        try:
            normals.append(arc_normal(units[a], units[z]))
        except DegenerateArcError:
            continue
        walkers.append(j)
    width = stack.shape[1]
    chunk = max(1, _PRODUCT_DOTS // (_REPAIR_DOUBLES * width))
    for lo in range(0, len(walkers), chunk):
        lanes = walkers[lo : lo + chunk]
        rows = [ids[j] for j in lanes]
        units = stack if rows == list(range(len(stack))) else stack[rows]
        # One matrix-vector product per lane, as for a shell on its own.
        tilt = np.matmul(units, np.array(normals[lo : lo + chunk])[:, :, None])
        mids, reached = _walk(
            units,
            np.array([start[j] for j in lanes]),
            np.array([goal[j] for j in lanes]),
            cos_admissible,
            blocked[lanes],
            _deflection(tilt[:, :, 0]),
            width,
        )
        for j, path, done in zip(lanes, mids, reached):
            if done:
                relays[j] = path
            elif len(path) >= width:
                # A walk never revisits a satellite, so only a bug can use
                # up the cap.
                raise InternalConsistencyError(
                    f"hop repair for {start[j]}->{goal[j]} exceeded the satellite count"
                )
    return relays


@dataclass(frozen=True)
class ShellStack:
    """A batch of shells that share their sphere (``radius``, km), their
    body (``r_earth``, km) and their endpoints, stacked for the batch
    routers.

    Shell b holds ``counts[b]`` satellites, then src (ID ``counts[b]``) and
    dst, as the rows ``rows[b, :counts[b] + 2]`` of one (B, W, 3) array of
    unit vectors, zero-padded to W rows. The routers trust the stack as
    given; :meth:`of` checks the shells it stacks.
    """

    rows: np.ndarray
    counts: list[int]
    radius: float
    r_earth: float

    @property
    def ends(self) -> np.ndarray:
        """Unit rows of src and dst."""
        return self.rows[0, self.counts[0] : self.counts[0] + 2]

    @classmethod
    def of(cls, shells: Sequence[Constellation]) -> "ShellStack":
        """The stack of ``shells``, whose endpoints are their last two
        satellites, as wide as the largest one.

        Raises:
            InvalidInputError: If the first shell holds fewer than two
                satellites, if src and dst coincide
                (:func:`~leoroute.geometry.great_arc` finds no arc between
                them), or if the shells differ in sphere, body or endpoints.
        """
        first = shells[0]
        if first.n_sat < 2:
            raise InvalidInputError(f"a hop needs two satellites, got {first.n_sat}")
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
        counts = [c.n_sat - 2 for c in shells]
        rows = np.zeros((len(shells), max(counts) + 2, 3))
        for b, c in enumerate(shells):
            rows[b, : c.n_sat] = c.unit_vectors
        return cls(rows, counts, first.radius, first.r_earth)


def _routes(
    stack: ShellStack,
    lanes: Sequence[int],
    paths: Sequence[Sequence[int]],
    statuses: Sequence[RouteStatus],
    reaches: Sequence[float],
) -> list[Route]:
    """The routes along ``paths``, path j through shell ``lanes[j]`` of the
    stack, with status ``statuses[j]`` and band reach ``reaches[j]``.

    Every route is built here: one gather of the rows the paths visit and
    one chord (km) from each to the next, r * |u_a - u_b|.
    """
    sizes = [len(path) for path in paths]
    flat = np.fromiter(chain.from_iterable(paths), np.intp, sum(sizes))
    flat += np.repeat(np.multiply(lanes, stack.rows.shape[1]), sizes)
    steps = np.diff(stack.rows.reshape(-1, 3).take(flat, axis=0), axis=0)
    # A path's last chord leads to the next path and means nothing.
    chords = (stack.radius * np.linalg.norm(steps, axis=1)).tolist()
    routes, at = [], 0
    for path, size, status, reach in zip(paths, sizes, statuses, reaches):
        end = at + size
        routes.append(Route(tuple(path), tuple(chords[at : end - 1]), status, reach))
        at = end
    return routes


def route_equal_interval(c: Constellation, d_max: float, plan: HopPlan) -> Route:
    """Route by snapping equally spaced arc targets to nearest satellites.

    Stage 1 places ``plan.n_hat - 1`` relay targets at equal intervals on
    the shortest arc between the endpoints. Stage 2 snaps each
    target to its nearest satellite, excluding the endpoints and any
    satellite already chosen (so no relay is reused); targets take their
    satellites in arc order and ties go to the lowest ID. Stage 3 repairs
    every hop that violates the distance or visibility constraint with the
    greedy walk of :func:`hop_repair`, which may not take a planned
    satellite or an earlier repair's; a failed repair ends the route with
    ``type2_interrupted`` status.

    When the endpoints can reach each other in one admissible hop, the
    route is that single hop (flagged ``direct_hop``) instead of the
    planned multi-hop one.

    The plan is used mechanically: callers that want the planned
    reliability guarantee should check ``plan.type1_interrupted`` first.
    This is the batch of one of :func:`route_equal_interval_batch`.
    """
    return route_equal_interval_batch(ShellStack.of([c]), d_max, plan)[0]


def route_equal_interval_batch(
    stack: ShellStack, d_max: float, plan: HopPlan
) -> list[Route]:
    """:func:`route_equal_interval` on each shell of ``stack``, in one pass.

    The shells share their sphere, their body and their endpoints, so the
    targets are computed once. Every shell snaps in one lockstep pass over
    the targets, among its satellites near the arc when most of them lie
    far from it (:func:`_snap_near_arc`); the endpoints and the padding can
    never win a snap. The
    hop fits and the band reach are computed for all shells at once. The
    shells with an inadmissible hop are repaired together: round r walks
    the r-th such hop of every shell still repairing, all in one lockstep
    walk.

    Raises:
        InvalidInputError: If ``d_max`` is not positive.
    """
    cos_admissible = _cos_admissible(stack, d_max)
    rows, counts, batch = stack.rows, stack.counts, len(stack.counts)
    src, dst = stack.ends
    if float(src @ dst) >= cos_admissible:
        paths = [[k, k + 1] for k in counts]
        statuses, reaches = [RouteStatus.OK] * batch, [0.0] * batch
        return _routes(stack, range(batch), paths, statuses, reaches)

    n = plan.n_hat
    targets, normal = great_arc(src, dst, np.arange(1, n) / n)
    hops = np.empty((n + 1, batch), dtype=np.intp)
    hops[0] = counts
    hops[1:-1] = _snap_near_arc(stack, targets, normal)
    hops[-1] = hops[0] + 1
    path = rows.reshape(-1, 3)[hops + rows.shape[1] * np.arange(batch)]
    fits = np.einsum("hbj,hbj->hb", path[:-1], path[1:]) >= cos_admissible
    # A satellite deviating from the arc by more than every relay's angle
    # to its target is farther than that from each target, so it could
    # not have won a snap.
    gaps = np.linalg.norm(path[1:-1] - targets[:, None], axis=2)
    reach = 2.0 * np.arcsin(np.minimum(gaps / 2.0, 1.0)).max(axis=0, initial=0.0)
    paths, statuses, reaches = hops.T.tolist(), [RouteStatus.OK] * batch, reach.tolist()
    bad = []
    for b, (k, fit) in enumerate(zip(counts, fits.all(axis=0).tolist())):
        if k < n - 1:
            # A shell with fewer satellites than targets runs out at its last one.
            del paths[b][k + 1 :]
            statuses[b], reaches[b] = RouteStatus.TYPE2_INTERRUPTED, math.pi / 2.0
        elif not fit:
            bad.append(b)
    if bad:
        fixed, settled = _repaired(
            stack, bad, hops[:, bad], fits[:, bad], cos_admissible
        )
        for b, repaired, status in zip(bad, fixed, settled):
            paths[b], statuses[b], reaches[b] = repaired, status, math.pi / 2.0
    return _routes(stack, range(batch), paths, statuses, reaches)


#: Satellites that a cap of the strip's half-width h around a point of the
#: shell holds on average: N (1 - cos h) / 2. 25 gives h = 0.395 rad for
#: 650 satellites. Of 768 whole oneweb shells with the epsilon 0.1 plan's
#: 68 targets, 89% snapped again on all their rows at h = 0.25 rad, 35% at
#: 0.30, 0.5% at 0.395 and 0.3% at 0.40.
_STRIP_SATELLITES = 25

#: Relative widening of the strip over the half-width h that certifies its
#: picks, far above the rounding of its dots.
_STRIP_SLACK = 1e-9

#: Fewest dots of targets with rows for which a snap picks its strip. The
#: strip costs 30-70 us whatever it saves, and its snap pays the same
#: loop over the targets: on a 2-core Xeon host a oneweb shell of 68
#: targets (44 000 dots) took 130 us on every row and 170 us on its strip,
#: eight of them (355 000 dots) 364 and 291 us.
_STRIP_DOTS = 1 << 18


def _snap_near_arc(
    stack: ShellStack, targets: np.ndarray, normal: np.ndarray
) -> np.ndarray:
    """:func:`_snap`'s picks for every shell of ``stack``, (targets, B),
    read from the rows near the arc when most rows lie far from it.

    The strip holds the satellites within h of the arc: |u . n| <= sin h
    about its great circle (``normal`` n), and u . m >= cos(r + h), m being
    the middle of the outer targets and r the angle from it to the
    farthest target. A satellite outside the strip is farther than h from
    every target. So when each pick of a shell's strip lies within h of
    its target, and the strip holds a satellite for every target, no
    satellite outside it could have beaten a pick, and the strip's picks
    are those of all the shell's rows; ties still go to the lowest ID,
    since the strip keeps its rows in ID order. A shell that fails snaps
    again on all its rows.

    h is the radius of a cap that holds ``_STRIP_SATELLITES`` of the
    largest shell's satellites on average. The strip is used when the snap
    would compute at least ``_STRIP_DOTS`` dots and at most half the first
    shell's satellites lie within h of the great circle: on batches of
    whole shells, not on the bands and regions that the harness draws
    around the arc, nor on a shell or two.
    """
    rows, counts = stack.rows, stack.counts
    cos_h = 1.0 - 2.0 * _STRIP_SATELLITES / max(max(counts), 1)
    if len(targets) * rows.shape[0] * rows.shape[1] < _STRIP_DOTS or cos_h <= 0.0:
        return _snap(rows, counts, targets)
    wide = min(math.acos(cos_h) * (1.0 + _STRIP_SLACK), math.pi / 2.0)
    near = np.abs(rows[0, : counts[0]] @ normal) <= math.sin(wide)
    if 2 * np.count_nonzero(near) > counts[0]:
        return _snap(rows, counts, targets)
    (batch, width), flat = rows.shape[:2], rows.reshape(-1, 3)
    ids, kept = _strip(stack, targets, normal, wide)
    strip = flat.take(ids, axis=0).reshape(batch, -1, 3)
    picks = _snap(strip, kept, targets)
    picks += np.arange(0, ids.size, strip.shape[1])
    picks = ids.take(picks)
    dots = np.einsum("tbj,tj->tb", flat.take(picks, axis=0), targets)
    certified = (dots >= cos_h).all(axis=0) & (np.array(kept) >= len(targets))
    picks -= np.arange(0, batch * width, width)
    redo = np.flatnonzero(~certified)
    if len(redo):
        picks[:, redo] = _snap(rows[redo], [counts[b] for b in redo], targets)
    return picks


def _strip(
    stack: ShellStack, targets: np.ndarray, normal: np.ndarray, h: float
) -> tuple[np.ndarray, list[int]]:
    """The satellites of each shell of ``stack`` within ``h`` of the arc of
    ``targets`` (:func:`_snap_near_arc`): their flat indices into the rows
    of the stack, in ID order, in a (B, W') layout padded with index 0, and
    how many each shell holds."""
    rows, counts = stack.rows, stack.counts
    middle = targets[0] + targets[-1]
    middle /= np.linalg.norm(middle)
    gaps = np.linalg.norm(targets - middle, axis=1).max()
    cos_far = math.cos(min(2.0 * math.asin(min(gaps / 2.0, 1.0)) + h, math.pi))
    tilt, along = np.array([normal, middle]) @ rows.reshape(-1, 3).T
    keep = np.abs(tilt, out=tilt) <= math.sin(h)
    keep &= along >= cos_far
    keep = keep.reshape(rows.shape[:2])
    keep &= np.arange(rows.shape[1]) < np.array(counts)[:, None]
    source, target, kept = _pack_lanes(keep)
    ids = np.zeros(len(rows) * (max(kept) + 2), dtype=np.intp)
    ids[target] = source
    return ids, kept


def _pack_lanes(keep: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Where the entries that the (B, W) mask ``keep`` marks go when each
    lane keeps only those, in order.

    Returns their flat indices in the (B, W) layout, lane by lane; their
    flat indices in a (B, W') layout, W' being the most entries a lane
    keeps plus 2 (room for a shell's endpoints); and how many each lane
    keeps.
    """
    kept = np.count_nonzero(keep, axis=1)
    width = int(kept.max(initial=0)) + 2
    source = np.flatnonzero(keep)
    shift = np.arange(0, len(keep) * width, width) - (np.cumsum(kept) - kept)
    return source, np.arange(len(source)) + np.repeat(shift, kept), kept.tolist()


def _snap(stack: np.ndarray, counts: list[int], targets: np.ndarray) -> np.ndarray:
    """Satellite each target takes in each shell of the stack, (targets, B).

    Targets take their satellites in arc order: each takes its nearest
    satellite of its shell not taken before, ties to the lowest ID; shell
    b's endpoints (IDs ``counts[b]`` on) and padding are never taken. A
    shell runs out at target ``counts[b]``, and its later entries are
    meaningless.

    The dots come in groups of targets against every row of the stack,
    about ``_PRODUCT_DOTS`` at a time. The group's targets take their
    satellites one at a time, every shell in lockstep: each adds a penalty
    row to its dots, 0 where a row may be taken and -inf on the picks before
    it, the endpoints and the padding, so a shell that has run out takes
    row 0. The router snaps through
    :func:`_snap_near_arc`, which calls this on a strip of the stack's
    rows near the arc, or on every row.
    """
    batch, width = stack.shape[:2]
    rows = stack.reshape(-1, 3)
    offsets = np.arange(0, batch * width, width)
    penalty = np.where(np.arange(width) < np.array(counts)[:, None], 0.0, -np.inf)
    penalty = penalty.ravel()
    picks = np.empty((len(targets), batch), dtype=np.intp)
    size = min(len(targets), max(2, _PRODUCT_DOTS // len(rows)))
    group = np.empty((size, len(rows)))
    for lo in range(0, len(targets), size):
        hi = min(lo + size, len(targets))
        dots = _target_dots(targets, rows, lo, hi, group)
        for j, row in enumerate(dots):
            row += penalty
            row.reshape(batch, width).argmax(axis=1, out=picks[lo + j])
            penalty[picks[lo + j] + offsets] = -np.inf
    return picks


def _target_dots(
    targets: np.ndarray, rows: np.ndarray, lo: int, hi: int, out: np.ndarray
) -> np.ndarray:
    """Dots of targets ``lo`` to ``hi`` with every row, (hi - lo, rows),
    written into ``out``.

    Each product takes at least two targets when there are two, since a
    product of one target is a matrix-vector product and rounds
    differently, and at most ``_PRODUCT_DOTS`` dots when it can.
    """
    first = max(0, min(lo, hi - 2))
    group = targets[first:hi]
    dots = out[: len(group)]
    step = max(1, _PRODUCT_DOTS // len(group))
    for at in range(0, len(rows), step):
        np.matmul(group, rows[at : at + step].T, out=dots[:, at : at + step])
    return dots[lo - first :]


def _repaired(
    stack: ShellStack,
    ids: list[int],
    planned: np.ndarray,
    fits: np.ndarray,
    cos_admissible: float,
) -> tuple[list[list[int]], list[RouteStatus]]:
    """Paths along the planned hops ``planned[:, j]`` through shell
    ``ids[j]`` of the batch, with every hop that does not fit repaired, and
    their statuses.

    Round r repairs the r-th hop that does not fit of every route still
    repairing, in one :func:`_repair_round`: a relay may not be a planned
    satellite, a relay of an earlier round or padding (shell b holds
    ``stack.counts[b] + 2`` satellites). A failed repair ends its route with
    ``type2_interrupted`` status at the satellite before the hop.
    """
    n = len(planned) - 1
    bad = [np.flatnonzero(~f).tolist() for f in fits.T]
    sizes = np.array([stack.counts[b] + 2 for b in ids])
    blocked = np.arange(stack.rows.shape[1]) >= sizes[:, None]
    blocked[np.arange(len(ids)), planned] = True
    planned = planned.T.tolist()
    relays: list[dict[int, list[int]]] = [{} for _ in ids]
    ends = [n] * len(ids)
    going = list(range(len(ids)))
    for r in range(max(map(len, bad))):
        going = [j for j in going if r < len(bad[j])]
        hops = [bad[j][r] for j in going]
        found = _repair_round(
            stack.rows,
            [ids[j] for j in going],
            [planned[j][h] for j, h in zip(going, hops)],
            [planned[j][h + 1] for j, h in zip(going, hops)],
            cos_admissible,
            blocked[going],
        )
        still = []
        for j, h, mids in zip(going, hops, found):
            if mids is None:
                ends[j] = h
                continue
            relays[j][h] = mids
            blocked[j, mids] = True
            still.append(j)
        going = still

    paths, statuses = [], []
    for hops, inserted, end in zip(planned, relays, ends):
        # Repaired hops come in hop order.
        path, at = [], 0
        for h, mids in inserted.items():
            path += hops[at : h + 1] + mids
            at = h + 1
        paths.append(path + hops[at : end + 1])
        if end < n:
            statuses.append(RouteStatus.TYPE2_INTERRUPTED)
        elif any(inserted.values()):
            statuses.append(RouteStatus.REPAIRED)
        else:
            # A hop that fits after all leaves the route ok, but its band
            # reach is not known.
            statuses.append(RouteStatus.OK)
    return paths, statuses


def _route_greedy(
    stack: ShellStack, d_max: float, plan: HopPlan, pick_farthest: bool
) -> list[Route]:
    """The greedy baselines on each shell of ``stack``, in one lockstep walk.

    The shells share their sphere, their body and their endpoints, so the
    deflection of the whole stack takes one product with the arc's normal.
    """
    cos_admissible = _cos_admissible(stack, d_max)
    counts, units = stack.counts, stack.rows
    deflection = _deflection(units @ arc_normal(*stack.ends))
    src = np.array(counts)
    # Padding is never taken.
    blocked = np.arange(units.shape[1]) >= src[:, None] + 2
    score = None if pick_farthest else deflection
    if pick_farthest:
        # max-stepsize never looks outside its belt.
        blocked |= deflection > plan.reliable_angle
    relays, reached = _walk(
        units, src, src + 1, cos_admissible, blocked, score, 4 * plan.n_hat
    )
    paths = [
        [k, *mids, k + 1] if done else [k, *mids]
        for k, mids, done in zip(counts, relays, reached)
    ]
    statuses = [
        RouteStatus.OK if done else RouteStatus.TYPE2_INTERRUPTED for done in reached
    ]
    if pick_farthest:
        reaches = [min(plan.reliable_angle, math.pi / 2.0)] * len(paths)
    else:
        # A completed min-deflection walk took the least-deflecting
        # candidate at every step, so no satellite deflecting more than all
        # its relays could have been taken.
        width = units.shape[1]
        flat = [b * width + h for b, mids in enumerate(relays) for h in mids]
        seen = deflection.take(np.array(flat, dtype=np.intp)).tolist()
        reaches, at = [], 0
        for mids, done in zip(relays, reached):
            end = at + len(mids)
            reaches.append(max(seen[at:end], default=0.0) if done else math.pi / 2.0)
            at = end
    return _routes(stack, range(len(paths)), paths, statuses, reaches)


def route_min_deflection(c: Constellation, d_max: float, plan: HopPlan) -> Route:
    """Greedy baseline: hug the great-circle arc.

    From each satellite, move to the admissible satellite that is strictly
    closer to the destination and deviates least from the src->dst arc;
    take the destination directly as soon as it is admissible. Runs out of
    candidates or exceeds 4x the planned hop count ``plan.n_hat`` ->
    ``type2_interrupted``. This is the batch of one of
    :func:`route_min_deflection_batch`.
    """
    return _route_greedy(ShellStack.of([c]), d_max, plan, pick_farthest=False)[0]


def route_min_deflection_batch(
    stack: ShellStack, d_max: float, plan: HopPlan
) -> list[Route]:
    """:func:`route_min_deflection` on each shell of ``stack``, in one lockstep walk."""
    return _route_greedy(stack, d_max, plan, pick_farthest=False)


def route_max_stepsize(c: Constellation, d_max: float, plan: HopPlan) -> Route:
    """Greedy baseline: longest admissible hop inside a belt around the arc.

    Candidates must lie within the planned reliable angle
    ``plan.reliable_angle`` (dome angle) of the src->dst arc, be
    admissible from the current satellite, and be strictly closer to the
    destination; among them the farthest is taken. Same termination rules
    as :func:`route_min_deflection`. This is the batch of one of
    :func:`route_max_stepsize_batch`.
    """
    return _route_greedy(ShellStack.of([c]), d_max, plan, pick_farthest=True)[0]


def route_max_stepsize_batch(
    stack: ShellStack, d_max: float, plan: HopPlan
) -> list[Route]:
    """:func:`route_max_stepsize` on each shell of ``stack``, in one lockstep walk."""
    return _route_greedy(stack, d_max, plan, pick_farthest=True)

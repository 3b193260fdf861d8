"""Multi-hop route construction between two satellites.

Three strategies route through sampled satellites:

* :func:`route_equal_interval` — snap each equally spaced target to its
  nearest real satellite, then repair any hop that breaks the distance or
  visibility constraints.
* :func:`route_min_deflection` — greedy baseline that always picks the
  admissible satellite deviating least from the great-circle arc.
* :func:`route_max_stepsize` — greedy baseline that always picks the
  farthest admissible satellite inside a belt around the arc.

They share one signature, ``(constellation, d_max, plan) -> Route``, and
follow the caller's hop plan (equal-interval places ``plan.n_hat - 1``
targets, the greedy walks stop after ``4 * plan.n_hat`` hops, and
max-stepsize keeps to a belt of ``plan.reliable_angle``). Each is the batch
of one (:meth:`ShellStack.of`) of a batch router, ``route_*_batch(stack,
d_max, plan) -> RouteBatch``, which routes every shell of a
:class:`ShellStack` at once, and :func:`hop_repair` is a repair round of
one lane. On a batch of whole shells equal-interval snaps among the
satellites of a strip near the arc (:func:`_snap_near_arc`). Repairs and
both baselines run one greedy relay walk, whose lanes move in lockstep in
chunks that a memory budget bounds (:func:`_walk`), and differ only in its
score, the satellites they block and the step cap; a repair walks only the
satellites closer to its goal than its start (:func:`_repair_round`).
Every router builds its routes in one place
(:func:`_routes`): a :class:`RouteBatch`, whose arrays hold the hop matrix
padded with -1, the hop counts, the chords padded with 0.0, status codes
(indices into :data:`STATUSES`), band reaches and latencies. It checks all
its routes at once, as :class:`Route` checks one, and builds a
:class:`Route` only when one is asked for (``batch[b]``, iteration).

The shell alone describes the rest of the route's setting: its endpoints
are its last two satellites (src second to last, dst last), as the Monte
Carlo harness appends them, and its ``radius`` and ``r_earth`` are the
sphere and the occluding body. Routing works on unit vectors;
:class:`SpherePoint` appears only in :func:`arc_waypoints`, the relay
positions of the ideal route (equal hops along the great-circle arc). A
hop is admissible when its chord is at most min(d_max, line-of-sight
limit), tested as one dot product of unit vectors; latency is the summed
chord, added left to right (:func:`sequential_sum`), over the signal speed
``SIGNAL_SPEED_KM_MS``. Routes never fail with
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
from dataclasses import InitVar, dataclass, field
from enum import Enum
from itertools import chain
from typing import AbstractSet, Callable, Iterator, Optional, Sequence

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


#: The statuses in code order: a :class:`RouteBatch` holds each route's
#: status as its index here.
STATUSES = tuple(RouteStatus)
_OK, _REPAIRED, _INTERRUPTED = range(len(STATUSES))


def sequential_sum(values: np.ndarray) -> np.ndarray:
    """Sums of ``values`` along their last axis, each added left to right
    (0.0 for none).

    Bit for bit what CPython 3.11's ``sum()`` gives for a list of floats.
    ``np.sum`` adds pairwise, and Python 3.12's ``sum()`` compensates its
    rounding, so either would move the last digits of a latency or a mean
    and make them depend on the interpreter.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[-1] == 0:
        return np.zeros(values.shape[:-1])
    return values.cumsum(axis=-1)[..., -1]


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
        return float(sequential_sum(self.hop_distances)) / SIGNAL_SPEED_KM_MS

    @property
    def direct_hop(self) -> bool:
        """True when the route reached dst in one hop, with no relay."""
        return self.n_hops == 1 and not self.interrupted


@dataclass(frozen=True, eq=False)
class RouteBatch:
    """The routes of a batch of shells, route b through shell b, as arrays.

    Route b visits the satellites ``hops[b, :n_hops[b] + 1]`` (see
    :attr:`Route.hops`); the rest of its row is -1. ``chords[b, h]`` is the
    chord in km of its hop h, and 0.0 past its last hop. ``status[b]``
    indexes :data:`STATUSES`, and ``band_reach[b]`` is as in
    :attr:`Route.band_reach`. ``latency`` (ms) follows from the chords, each
    row added left to right (:func:`sequential_sum`), as :attr:`Route.latency`
    adds them. ``listed`` is the mask ``arange(W) <= n_hops[:, None]``, when
    the builder has it (:func:`_routes` zeroes its chords by it).

    ``len(batch)`` counts the routes, and ``batch[b]`` and iteration build
    :class:`Route` objects, at the edge only.

    Raises:
        InvalidInputError: As :class:`Route` does, for any route of the
            batch: one without its source, one whose hop count does not
            match its hops and chords, or one that visits a satellite twice.
    """

    hops: np.ndarray
    n_hops: np.ndarray
    chords: np.ndarray
    status: np.ndarray
    band_reach: np.ndarray
    latency: np.ndarray = field(init=False)
    listed: InitVar[Optional[np.ndarray]] = None

    def __post_init__(self, listed: Optional[np.ndarray]) -> None:
        # np.count_nonzero tests a small mask faster than its any().
        hops, chords = self.hops, self.chords
        if hops.shape[1] < 1 or np.count_nonzero(hops[:, 0] < 0):
            raise InvalidInputError("a route must contain at least its source")
        if listed is None:
            listed = np.arange(hops.shape[1]) <= self.n_hops[:, None]
        if (
            chords.shape != (len(hops), hops.shape[1] - 1)
            or np.count_nonzero((hops >= 0) != listed)
            or np.count_nonzero(chords[~listed[:, 1:]])
        ):
            raise InvalidInputError("need exactly one distance per hop")
        # Padding sorts first, so only a repeated ID can equal its neighbour.
        ordered = hops.copy()
        ordered.sort(axis=1)
        repeats = (ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0)
        if np.count_nonzero(repeats):
            raise InvalidInputError("a route may not visit a satellite twice")
        latency = sequential_sum(chords) / SIGNAL_SPEED_KM_MS
        object.__setattr__(self, "latency", latency)

    def __len__(self) -> int:
        return len(self.hops)

    def __getitem__(self, b: int) -> Route:
        return self.route(b)

    def route(self, b: int, ids: Optional[np.ndarray] = None) -> Route:
        """Route b as a :class:`Route`, its hop IDs read through ``ids``
        when given."""
        n = int(self.n_hops[b])
        hops = self.hops[b, : n + 1]
        return Route(
            tuple((hops if ids is None else ids[hops]).tolist()),
            tuple(self.chords[b, :n].tolist()),
            STATUSES[self.status[b]],
            float(self.band_reach[b]),
        )

    def __iter__(self) -> Iterator[Route]:
        return (self[b] for b in range(len(self)))

    def replaced(self, rows: Sequence[int], other: "RouteBatch") -> "RouteBatch":
        """This batch with its routes ``rows`` replaced by those of
        ``other``, in order."""
        width = max(self.hops.shape[1], other.hops.shape[1])
        # Route b of the result is route order[b] of this batch, then other.
        order = np.arange(len(self))
        order[rows] = np.arange(len(self), len(self) + len(other))
        both = (self, other)
        pairs = (
            [_widened(batch.hops, width, -1) for batch in both],
            [batch.n_hops for batch in both],
            [_widened(batch.chords, width - 1, 0.0) for batch in both],
            [batch.status for batch in both],
            [batch.band_reach for batch in both],
        )
        return RouteBatch(*(np.concatenate(pair).take(order, axis=0) for pair in pairs))


def _widened(matrix: np.ndarray, width: int, pad: float) -> np.ndarray:
    """``matrix`` with its rows padded with ``pad`` to ``width``: a copy when
    it is narrower, else ``matrix`` itself."""
    if matrix.shape[1] == width:
        return matrix
    wide = np.full((len(matrix), width), pad, dtype=matrix.dtype)
    wide[:, : matrix.shape[1]] = matrix
    return wide


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


#: The start of each walk of a chunk on its rows ``units``: its satellite's
#: unit row, that satellite's closeness to the goal (its dot with the goal)
#: and each row's closeness, -inf where the walk may not step.
_WalkStart = tuple[np.ndarray, np.ndarray, np.ndarray]


def _walk(
    stack: np.ndarray,
    shells: list[int],
    begin: Callable[[np.ndarray, slice], _WalkStart],
    cos_admissible: float,
    score: Optional[Callable[[np.ndarray, slice], np.ndarray]],
    cap: int,
    doubles: int,
) -> tuple[list[list[int]], list[bool]]:
    """Relays of each walk toward its goal, and whether the goal came in reach.

    Walk b runs on the rows ``stack[shells[b]]`` (``stack`` has shape
    (B, W, 3)). The walks ``lanes`` (a slice) start as
    ``begin(units, lanes)`` gives on their rows ``units`` (a
    :data:`_WalkStart`, as :func:`_walk_start` finds it). Until its goal is
    one admissible hop away, each step takes the satellite with the lowest
    score among those admissible from the current one that it may step to
    and that are strictly closer to the goal; the scores of the walks are
    ``score(units, lanes)``, and with no ``score`` the step takes the
    farthest. A walk gives up when none qualifies or after ``cap`` steps.

    The walks go in chunks of consecutive walks, as many at a time as
    ``_PRODUCT_DOTS`` holds at ``doubles`` a row, the peak a row of a
    walking lane takes (``_REPAIR_DOUBLES``, ``_GREEDY_DOUBLES``), so a
    chunk's rows, scores and work area stay within that budget whatever the
    batch. The walks of a chunk move in lockstep (:func:`_lockstep`).
    """
    chunk = max(1, _PRODUCT_DOTS // (doubles * stack.shape[1]))
    relays: list[list[int]] = []
    reached: list[bool] = []
    for lo in range(0, len(shells), chunk):
        lanes = slice(lo, lo + chunk)
        units = _lane_rows(stack, shells[lanes])
        mids, done = _lockstep(
            units,
            *begin(units, lanes),
            cos_admissible,
            None if score is None else score(units, lanes),
            cap,
        )
        relays += mids
        reached += done
    return relays, reached


def _walk_start(
    units: np.ndarray, start: np.ndarray, goal: np.ndarray, blocked: np.ndarray
) -> _WalkStart:
    """The :data:`_WalkStart` of walks from row ``start[b]`` to row
    ``goal[b]`` of ``units[b]`` that may not step to ``blocked[b]`` (nor to
    the goal). Marks each goal in ``blocked``."""
    lanes = np.arange(len(units))
    dots_goal = np.matmul(units, units[lanes, goal][:, :, None])[:, :, 0]
    blocked[lanes, goal] = True
    return (
        units[lanes, start],
        dots_goal[lanes, start],
        np.where(blocked, -np.inf, dots_goal),
    )


def _lockstep(
    units: np.ndarray,
    cur: np.ndarray,
    here: np.ndarray,
    near: np.ndarray,
    cos_admissible: float,
    score: Optional[np.ndarray],
    cap: int,
) -> tuple[list[list[int]], list[bool]]:
    """:func:`_walk` on the rows ``units[b]`` of each walk b, from the
    :data:`_WalkStart` ``(cur, here, near)``, ranked by ``score[b]``, all
    walks in lockstep.

    Each step takes one matrix product of every walk's rows with its
    current satellite, one eligibility mask and one argmin along the rows,
    and a walk that stops leaves the stack. Progress is strict, so a walk
    never takes a relay twice.
    """
    # Per-walk bookkeeping stays in Python: for the few walks of a batch it
    # costs less than operations on arrays of one entry per walk.
    width = units.shape[1]
    offsets = np.arange(0, len(units) * width, width)
    walks = list(range(len(units)))
    relays: list[list[int]] = [[] for _ in walks]
    reached = [closeness >= cos_admissible for closeness in here.tolist()]
    going = [not done for done in reached]
    for step in range(cap):
        if not all(going):
            if not any(going):
                break
            walks = [b for b, go in zip(walks, going) if go]
            # The last step's dots go first, then each array is freed as its
            # going walks are copied, so the copies never pile up on the
            # arrays they replace.
            dots = eligible = None
            stay = np.array(going).nonzero()[0]
            here, cur = here.take(stay), cur.take(stay, axis=0)
            units = units.take(stay, axis=0)
            near = near.take(stay, axis=0)
            if score is not None:
                score = score.take(stay, axis=0)
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

    Only the satellites strictly closer to ``to_id`` than ``from_id`` could
    ever be taken, since every step gets strictly closer, so the walk reads
    only those (:func:`_repair_round`).

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
    blocked[0, to_id] = True
    (mids,) = _repair_round(
        c.unit_vectors[None], [0], [from_id], [to_id], cos_admissible, blocked
    )
    if mids is None:
        raise RepairFailedError(
            f"no admissible relay path repairs hop {from_id}->{to_id}"
        )
    return mids


#: Most dots one matrix product of the snapping stage computes, and the
#: most doubles the work area of a batch holds: a group of target dots
#: while equal-interval snaps, and one chunk of a walk's lanes
#: (:func:`_walk`) while equal-interval repairs or a greedy baseline walks.
#: OpenBLAS spreads larger products over threads, and on a shared
#: 2-core host that made a 224 000-dot product 18x slower than the same
#: work in one thread.
_PRODUCT_DOTS = 1 << 16

#: Doubles each packed row of a repair lane (:func:`_repair_round`) takes at
#: the peak of its walk, which sets how many lanes one chunk of a repair
#: walk takes (:func:`_walk`): its deflection and the lockstep walk's own,
#: with the copies of the rows, closeness and scores of the walks still
#: going. A trace of table1's oneweb epsilon 0.1 rounds peaked at 4.0, and
#: one of long walks (hops of 0.6-1.5 rad on 800- to 6000-satellite
#: shells, 40 lanes and up to 18 relays) at 5.5.
_REPAIR_DOUBLES = 6

#: Doubles each row of a greedy baseline's lane takes at the peak of its
#: walk, which sets how many lanes one chunk of a greedy walk takes: the
#: lane reads its batch's rows and deflection in place, so only the
#: lockstep walk's own count, with the copies of the rows and scores of the
#: walks still going. A trace of 200-trial min-deflection and max-stepsize
#: cells (the 800-satellite shell at 4000, 8000 and 15750 km, and the
#: three presets at pi) peaked at 7.95.
_GREEDY_DOUBLES = 9

#: Doubles each shell row of a repair lane takes while its cap is found
#: (:func:`_repair_round`), which sets how many lanes one product takes:
#: the lane's copy of its shell's rows (3) and their dots with its start
#: and its goal (2).
_CAP_DOUBLES = 5

#: The axes each term of a cross product reads, as geometry's ``_cross``
#: takes them: (a x b)_i = a_{i+1} b_{i+2} - a_{i+2} b_{i+1}.
_TURNS = np.array([1, 2, 0, 2, 0, 1])

#: Sine above which an arc lies far from the coincident and the antipodal
#: thresholds of :func:`~leoroute.geometry.great_arc` (1e-9 rad either
#: way), so that its normal is its cross product over its length.
_CLEAR_SINE = 1e-6


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
    satellites of ``blocked[j]``, which must hold its goal. A hop that fits
    after all (its scalar dot rounds the other way) needs no relay. Every
    other lane walks from its start, scored by the deflection from its own
    start->goal arc, until its goal is one admissible hop away; a lane
    whose hop has no reference arc or whose walk dead-ends gets None.

    A lane walks only on its cap: the rows strictly closer to its goal than
    its start, and not blocked. That loses no relay, because a step only
    takes a row strictly closer to the goal than the current one, and the
    current one's closeness only grows from the start's. One product of
    each lane's rows with its start and its goal (in chunks of as many
    lanes as ``_PRODUCT_DOTS`` holds at ``_CAP_DOUBLES`` a row) gives its
    cap and the cap's rows admissible from the start; a lane with none
    dead-ends at its first step, and a round in which every lane does ends
    there. The caps are packed in ID order (:func:`_pack_lanes`), so ties
    still go to the lowest ID, walked in lockstep (:func:`_walk`) and their
    relays mapped back to the shell's IDs; a product of packed rows rounds
    as on the whole shell. The fit checks and arc normals of all lanes come
    from one batched pass that rounds as the scalar dot and
    :func:`~leoroute.geometry.arc_normal` do, and a hop near the coincident
    or antipodal threshold takes ``arc_normal`` itself.
    """
    n, width = len(ids), stack.shape[1]
    flat = stack.reshape(-1, 3)
    rows = np.multiply(ids + ids, width)
    rows += start + goal
    ends = flat.take(rows, axis=0)
    a, z = ends[:n], ends[n:]
    spans, normals, clear = _hop_arcs(ends)

    # Each lane's cap, the rows strictly closer to its goal than its start
    # and not blocked, and the first steps its walk may take, the cap's rows
    # admissible from its start, by the products its walk takes.
    lanes = np.arange(n)
    here = np.empty(n)
    cap = np.empty((n, width), dtype=bool)
    first = np.empty((n, width), dtype=bool)
    chunk = max(1, _PRODUCT_DOTS // (_CAP_DOUBLES * width))
    # The dots of each lane's rows with its start and with its goal.
    pair = ends.reshape(2, n, 3, 1)
    for lo in range(0, n, chunk):
        part = slice(lo, lo + chunk)
        dots = np.matmul(_lane_rows(stack, ids[part]), pair[:, part])[:, :, :, 0]
        here[part] = dots[1, lanes[: dots.shape[1]], start[part]]
        np.greater(dots[1], here[part, None], out=cap[part])
        np.greater_equal(dots[0], cos_admissible, out=first[part])
    # Where not blocked (True > False only).
    np.greater(cap, blocked, out=cap)
    first &= cap

    relays: list[Optional[list[int]]] = [None] * n
    walking = [False] * n
    for j, fit, far, done, moves in zip(
        range(n),
        (spans >= cos_admissible).tolist(),
        clear.tolist(),
        (here >= cos_admissible).tolist(),
        first.any(axis=1).tolist(),
    ):
        if fit:
            relays[j] = []
            continue
        if not far:
            # Near the coincident or antipodal threshold, the arc's own rule.
            try:
                normals[j] = arc_normal(a[j], z[j])
            except DegenerateArcError:
                continue
        if done:
            # The goal is in reach of the start after all.
            relays[j] = []
        else:
            walking[j] = moves
    if not any(walking):
        return relays
    if not all(walking):
        cap[np.logical_not(walking)] = False

    # Each lane walks on its cap in ID order, padded with copies of its
    # start, which is no closer to its goal than itself and so never
    # qualifies.
    source, target, kept, wide = _pack_lanes(cap)
    cols = source % width
    units = np.repeat(a, wide, axis=0)
    units[target] = flat.take(cols + np.repeat(rows[:n] - start, kept), axis=0)
    units = units.reshape(n, wide, 3)
    near = np.matmul(units, z[:, :, None])[:, :, 0]

    def tilt(units: np.ndarray, lanes: slice) -> np.ndarray:
        # One matrix-vector product per lane, as for a shell on its own.
        return _deflection(np.matmul(units, normals[lanes][:, :, None])[:, :, 0])

    mids, reached = _walk(
        units,
        lanes.tolist(),
        lambda _, lanes: (a[lanes], here[lanes], near[lanes]),
        cos_admissible,
        tilt,
        wide,
        _REPAIR_DOUBLES,
    )
    ids_of = cols.tolist()
    at = 0
    for j, count, path, done in zip(range(n), kept.tolist(), mids, reached):
        if walking[j] and done:
            relays[j] = [ids_of[at + p] for p in path]
        elif len(path) >= wide:
            # A walk never revisits a satellite, so only a bug can use up
            # the cap.
            raise InternalConsistencyError(
                f"hop repair for {start[j]}->{goal[j]} exceeded the satellite count"
            )
        at += count
    return relays


def _hop_arcs(ends: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dot of each hop ``ends[j]`` -> ``ends[n + j]`` of the 2n unit rows
    ``ends``, the unit normal of its arc, and whether that arc is clear of
    the coincident and antipodal thresholds.

    Each dot rounds as the scalar ``a @ z`` does, and the normal of a clear
    arc as :func:`~leoroute.geometry.arc_normal` gives it: the cross product
    of geometry's ``_cross``, term for term, over its length. The normal of
    an arc that is not clear means nothing.
    """
    n = len(ends) // 2
    a, z = ends[:n], ends[n:]
    # A product of 1 x 3 by 3 x 1 matrices rounds as the 1-D a @ z does.
    dots = np.matmul(a[:, None], z[:, :, None]).ravel()
    # turned[:, i] is axis i + 1 of each row, turned[:, 3 + i] axis i + 2.
    turned = ends.take(_TURNS, axis=1)
    cross = turned[:n, :3] * turned[n:, 3:]
    cross -= turned[:n, 3:] * turned[n:, :3]
    sines = np.sqrt(np.matmul(cross[:, None], cross[:, :, None]).ravel())
    clear = sines > _CLEAR_SINE
    return dots, cross / np.maximum(sines, _CLEAR_SINE)[:, None], clear


def _lane_rows(stack: np.ndarray, shells: list[int]) -> np.ndarray:
    """The rows ``stack[shells]``: a view of the stack when the shells are
    consecutive, else a copy."""
    first = shells[0]
    if shells == list(range(first, first + len(shells))):
        return stack[first : first + len(shells)]
    return stack[shells]


@dataclass(frozen=True)
class ShellStack:
    """A batch of shells that share their sphere (``radius``, km), their
    body (``r_earth``, km) and their endpoints, stacked for the batch
    routers.

    Shell b holds ``counts[b]`` satellites, then src (ID ``counts[b]``) and
    dst, as the rows ``rows[b, :counts[b] + 2]`` of one (B, W, 3) array of
    unit vectors, zero-padded to W rows. ``normal`` is the unit normal of
    the src-dst arc and ``targets``, if given, its points at 1/n, ...,
    (n - 1)/n for the plan routed (:func:`~leoroute.geometry.great_arc`).
    The routers trust the stack as given; :meth:`of` checks its shells.
    """

    rows: np.ndarray
    counts: list[int]
    radius: float
    r_earth: float
    normal: np.ndarray
    targets: Optional[np.ndarray] = None

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
        normal = arc_normal(*first.unit_vectors[-2:])
        return cls(rows, counts, first.radius, first.r_earth, normal)


def _routes(
    stack: ShellStack,
    hops: np.ndarray,
    n_hops: np.ndarray,
    status: np.ndarray,
    reach: np.ndarray,
) -> RouteBatch:
    """The routes along the hop rows ``hops`` (padded with -1) of
    ``n_hops`` hops, row b through shell b of the stack, with status codes
    ``status`` and band reaches ``reach``.

    Every route is built here: one gather of the rows the paths visit and
    one chord (km) from each to the next, r * |u_a - u_b|.
    """
    listed = np.arange(hops.shape[1]) <= n_hops[:, None]
    width = stack.rows.shape[1]
    # Padding reads the row before its lane's, or the last row: any row.
    flat = hops + np.arange(0, len(hops) * width, width)[:, None]
    nodes = stack.rows.reshape(-1, 3).take(flat, axis=0)
    steps = nodes[:, 1:] - nodes[:, :-1]
    # The sum of squares of np.linalg.norm, without its wrapper's cost.
    chords = stack.radius * np.sqrt((steps * steps).sum(axis=2))
    # A chord past a route's last hop leads to padding and means nothing;
    # chords are finite and not negative, so this zeroes exactly those.
    chords *= listed[:, 1:]
    return RouteBatch(hops, n_hops, chords, status, reach, listed)


def _padded(paths: Sequence[Sequence[int]], width: int = 1) -> np.ndarray:
    """The hop rows of ``paths``, padded with -1 to the longest path or to
    ``width``."""
    sizes = np.fromiter(map(len, paths), np.intp, len(paths))
    hops = np.full((len(paths), max(width, int(sizes.max(initial=0)))), -1)
    hops[np.arange(hops.shape[1]) < sizes[:, None]] = np.fromiter(
        chain.from_iterable(paths), np.intp, int(sizes.sum())
    )
    return hops


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
) -> RouteBatch:
    """:func:`route_equal_interval` on each shell of ``stack``, in one pass.

    The shells share their endpoints, so they share the targets, which are
    the stack's own when it has them. Every shell snaps in one lockstep
    pass over the targets (:func:`_snap_near_arc`), and the shells with an
    inadmissible hop are repaired together, in rounds (:func:`_repaired`).

    Raises:
        InvalidInputError: If ``d_max`` is not positive.
    """
    cos_admissible = _cos_admissible(stack, d_max)
    rows, counts, batch = stack.rows, stack.counts, len(stack.counts)
    src, dst = stack.ends
    status = np.zeros(batch, np.int8)
    if float(src @ dst) >= cos_admissible:
        hops = np.column_stack([counts, np.add(counts, 1)])
        return _routes(stack, hops, np.ones(batch, np.intp), status, np.zeros(batch))

    n = plan.n_hat
    targets = stack.targets
    if targets is None:
        targets, _ = great_arc(src, dst, np.arange(1, n) / n)
    hops = np.empty((n + 1, batch), dtype=np.intp)
    hops[0] = counts
    hops[1:-1] = _snap_near_arc(stack, targets, stack.normal)
    hops[-1] = hops[0] + 1
    path = rows.reshape(-1, 3)[hops + rows.shape[1] * np.arange(batch)]
    fits = np.einsum("hbj,hbj->hb", path[:-1], path[1:]) >= cos_admissible
    # A satellite deviating from the arc by more than every relay's angle
    # to its target is farther than that from each target, so it could
    # not have won a snap. (np.linalg.norm's sum of squares, without its
    # wrapper's cost.)
    gaps = path[1:-1] - targets[:, None]
    gaps = np.sqrt((gaps * gaps).sum(axis=2))
    reach = 2.0 * np.arcsin(np.minimum(gaps / 2.0, 1.0)).max(axis=0, initial=0.0)
    paths = hops.T.copy()
    # A shell with fewer satellites than targets runs out at its last one.
    sizes = np.array(counts)
    short = sizes < n - 1
    n_hops = np.where(short, sizes, n)
    paths[np.arange(n + 1) > n_hops[:, None]] = -1
    status[short], reach[short] = _INTERRUPTED, math.pi / 2.0
    (bad,) = (~short & ~fits.all(axis=0)).nonzero()
    if len(bad):
        fixed, settled = _repaired(
            stack, bad.tolist(), hops[:, bad], fits[:, bad], cos_admissible
        )
        repaired = _padded(fixed, paths.shape[1])
        paths = _widened(paths, repaired.shape[1], -1)
        paths[bad] = repaired
        n_hops[bad] = [len(path) - 1 for path in fixed]
        status[bad], reach[bad] = settled, math.pi / 2.0
    return _routes(stack, paths, n_hops, status, reach)


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
    source, target, kept, wide = _pack_lanes(keep)
    ids = np.zeros(len(rows) * wide, dtype=np.intp)
    ids[target] = source
    return ids, kept.tolist()


def _pack_lanes(keep: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Where the entries that the (B, W) mask ``keep`` marks go when each
    lane keeps only those, in order.

    Returns their flat indices in the (B, W) layout, lane by lane; their
    flat indices in a (B, W') layout, W' being the most entries a lane
    keeps plus 2 (room for a shell's endpoints); how many each lane keeps;
    and W'.
    """
    batch, width = keep.shape
    source = keep.ravel().nonzero()[0]
    lane = source // width
    kept = np.bincount(lane, minlength=batch)
    wide = max(kept.tolist()) + 2
    # Entry i goes to lane * W' + i - (the lane's first entry).
    shift = np.arange(0, batch * wide, wide)
    shift -= kept.cumsum()
    shift += kept
    target = shift.take(lane)
    target += np.arange(len(source))
    return source, target, kept, wide


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
) -> tuple[list[list[int]], list[int]]:
    """Paths along the planned hops ``planned[:, j]`` through shell
    ``ids[j]`` of the batch, with every hop that does not fit repaired, and
    their status codes.

    Round r repairs the r-th hop that does not fit of every route still
    repairing, in one :func:`_repair_round`: a relay may not be a planned
    satellite, a relay of an earlier round or padding (shell b holds
    ``stack.counts[b] + 2`` satellites). A failed repair ends its route with
    ``type2_interrupted`` status at the satellite before the hop. The rounds
    stop when no route is still repairing, so none is empty.
    """
    n = len(planned) - 1
    # The hops of each route that do not fit, in hop order.
    bad: list[list[int]] = [[] for _ in ids]
    routes, unfit = (~fits.T).nonzero()
    for j, h in zip(routes.tolist(), unfit.tolist()):
        bad[j].append(h)
    sizes = np.array([stack.counts[b] + 2 for b in ids])
    blocked = np.arange(stack.rows.shape[1]) >= sizes[:, None]
    blocked[np.arange(len(ids)), planned] = True
    planned = planned.T.tolist()
    relays: list[dict[int, list[int]]] = [{} for _ in ids]
    ends = [n] * len(ids)
    going = [j for j, hops in enumerate(bad) if hops]
    r = 0
    while going:
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
        r += 1
        going = [j for j in still if r < len(bad[j])]

    paths, statuses = [], []
    for hops, inserted, end in zip(planned, relays, ends):
        # Repaired hops come in hop order.
        path, at = [], 0
        for h, mids in inserted.items():
            path += hops[at : h + 1] + mids
            at = h + 1
        paths.append(path + hops[at : end + 1])
        if end < n:
            statuses.append(_INTERRUPTED)
        elif any(inserted.values()):
            statuses.append(_REPAIRED)
        else:
            # A hop that fits after all leaves the route ok, but its band
            # reach is not known.
            statuses.append(_OK)
    return paths, statuses


def _route_greedy(
    stack: ShellStack, d_max: float, plan: HopPlan, pick_farthest: bool
) -> RouteBatch:
    """The greedy baselines on each shell of ``stack``, in one walk whose
    chunks of shells move in lockstep (:func:`_walk`).

    The shells share their sphere, their body and their endpoints, so the
    deflection of the whole stack takes one product with the arc's normal.
    """
    cos_admissible = _cos_admissible(stack, d_max)
    counts, units = stack.counts, stack.rows
    deflection = _deflection(units @ stack.normal)
    src = np.array(counts)
    # Padding is never taken.
    blocked = np.arange(units.shape[1]) >= src[:, None] + 2
    if pick_farthest:
        # max-stepsize never looks outside its belt.
        blocked |= deflection > plan.reliable_angle
    relays, reached = _walk(
        units,
        list(range(len(counts))),
        lambda rows, lanes: _walk_start(
            rows, src[lanes], src[lanes] + 1, blocked[lanes]
        ),
        cos_admissible,
        None if pick_farthest else lambda _, lanes: deflection[lanes],
        4 * plan.n_hat,
        _GREEDY_DOUBLES,
    )
    hops = _padded(
        [
            [k, *mids, k + 1] if done else [k, *mids]
            for k, mids, done in zip(counts, relays, reached)
        ]
    )
    status = np.where(reached, _OK, _INTERRUPTED).astype(np.int8)
    if pick_farthest:
        reach = np.full(len(counts), min(plan.reliable_angle, math.pi / 2.0))
    else:
        # A completed min-deflection walk took the least-deflecting
        # candidate at every step, so no satellite deflecting more than all
        # its relays could have been taken.
        # Relays are the IDs below src's; padding is -1.
        relay = (hops >= 0) & (hops < src[:, None])
        seen = deflection[np.arange(len(hops))[:, None], np.maximum(hops, 0)]
        reach = np.where(reached, np.where(relay, seen, 0.0).max(axis=1), math.pi / 2.0)
    return _routes(stack, hops, np.add(list(map(len, relays)), reached), status, reach)


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
) -> RouteBatch:
    """:func:`route_min_deflection` on each shell of ``stack``, in one walk."""
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
) -> RouteBatch:
    """:func:`route_max_stepsize` on each shell of ``stack``, in one walk."""
    return _route_greedy(stack, d_max, plan, pick_farthest=True)

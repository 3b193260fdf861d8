"""Route construction: ideal optimum, target-snapping search, greedy baselines."""

import functools
import itertools
import math
import operator
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leoroute import (
    Constellation,
    HopPlan,
    InvalidInputError,
    RepairFailedError,
    Route,
    RouteStatus,
    SpherePoint,
    arc_waypoints,
    chord_distance,
    dome_angle,
    great_arc,
    hop_repair,
    ideal_latency,
    latency_floor,
    los_chord_limit,
    max_hop_angle,
    n_min_ideal,
    plan_hops,
    route_equal_interval,
    route_max_stepsize,
    route_min_deflection,
    sample_bpp,
    slerp,
)
from leoroute import routing
from leoroute.experiments import contact_band
from leoroute.geometry import arc_normal
from leoroute.routing import (
    STATUSES,
    RouteBatch,
    ShellStack,
    route_equal_interval_batch,
    route_max_stepsize_batch,
    route_min_deflection_batch,
)

R_EARTH = 6371.0
RS = 6921.0  # 550 km shell
ALT = 550.0
D_MAX = 3000.0
THETA_MAX = max_hop_angle(RS, R_EARTH, D_MAX)
C_KMS = 300.0


def endpoints(arc, radius=RS):
    half = arc / 2.0
    return (
        SpherePoint(r=radius, theta=half, phi=0.0),
        SpherePoint(r=radius, theta=half, phi=math.pi),
    )


def constellation_from_points(points, altitude=ALT):
    units = np.array([p.unit_vector() for p in points])
    return Constellation(r_earth=R_EARTH, altitude=altitude, unit_vectors=units)


def constellation_from_units(units):
    return Constellation(r_earth=R_EARTH, altitude=ALT, unit_vectors=units)


def attach_endpoints(c, arc):
    src, dst = endpoints(arc, c.radius)
    return c.with_extra_points([src, dst]), src, dst


def sat(c, sat_id):
    """Satellite ``sat_id`` of ``c`` as a point, from its unit-vector row."""
    return SpherePoint.from_unit_vector(c.unit_vectors[sat_id], c.radius)


def admissible_chord(radius):
    return min(D_MAX, los_chord_limit(radius, R_EARTH))


def cell_plan(c, arc, epsilon=0.01, **overrides):
    """Hop plan for the satellites of ``c`` other than the two endpoints."""
    return replace(plan_hops(arc, THETA_MAX, c.n_sat - 2, epsilon), **overrides)


# ---------------------------------------------------------------------------
# Route dataclass
# ---------------------------------------------------------------------------


def test_route_rejects_duplicates():
    with pytest.raises(InvalidInputError):
        Route(
            hops=(1, 2, 1),
            hop_distances=(10.0, 10.0),
            status=RouteStatus.OK,
        )


def test_route_requires_matching_distances():
    with pytest.raises(InvalidInputError):
        Route(hops=(1, 2), hop_distances=(), status=RouteStatus.OK)


def route_batch(hops, n_hops, chords, status=None, reach=None):
    """A hand-built batch of routes; all ok, reaching pi/2, by default."""
    batch = len(hops)
    return RouteBatch(
        np.array(hops),
        np.array(n_hops),
        np.array(chords, dtype=float).reshape(batch, -1),
        np.zeros(batch, np.int8) if status is None else np.array(status, np.int8),
        np.full(batch, math.pi / 2.0) if reach is None else np.array(reach),
    )


def test_route_batch_builds_the_routes_it_holds():
    """Rows padded with -1 and 0.0 give the routes their prefixes list, with
    the latency :class:`Route` computes."""
    routes = route_batch(
        [[4, 0, 2, 5], [4, 1, -1, -1], [7, -1, -1, -1]],
        [3, 1, 0],
        [[900.0, 1100.5, 700.25], [1500.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        status=[1, 2, 2],
        reach=[0.1, 0.2, 0.3],
    )
    assert len(routes) == 3
    assert list(routes) == [
        Route((4, 0, 2, 5), (900.0, 1100.5, 700.25), RouteStatus.REPAIRED, 0.1),
        Route((4, 1), (1500.0,), RouteStatus.TYPE2_INTERRUPTED, 0.2),
        Route((7,), (), RouteStatus.TYPE2_INTERRUPTED, 0.3),
    ]
    assert routes.latency.tolist() == [route.latency for route in routes]
    assert routes[-1] == routes[2]
    assert STATUSES == tuple(RouteStatus)


def test_route_batch_checks_every_route_as_a_route_does():
    """Each fault of one route of a batch raises what :class:`Route` raises
    for it."""
    ok = ([[4, 0, 5], [4, 1, 5]], [2, 2], [[1.0, 2.0], [3.0, 4.0]])
    route_batch(*ok)
    with pytest.raises(InvalidInputError, match="twice"):
        route_batch([[4, 0, 5], [4, 1, 4]], *ok[1:])
    # A hop count that matches neither the hops nor the chords listed.
    with pytest.raises(InvalidInputError, match="one distance per hop"):
        route_batch(ok[0], [2, 1], ok[2])
    # A chord past the last hop, and a row of chords short of the hops.
    with pytest.raises(InvalidInputError, match="one distance per hop"):
        route_batch([[4, 0, 5], [4, 1, -1]], [2, 1], ok[2])
    with pytest.raises(InvalidInputError, match="one distance per hop"):
        route_batch(ok[0], ok[1], [[1.0], [3.0]])
    # A hop listed past the padding.
    with pytest.raises(InvalidInputError, match="one distance per hop"):
        route_batch([[4, -1, 5], [4, 1, 5]], [2, 2], ok[2])
    with pytest.raises(InvalidInputError, match="source"):
        route_batch([[-1, -1, -1], [4, 1, 5]], [-1, 2], [[0.0, 0.0], [3.0, 4.0]])
    # The same faults as routes.
    with pytest.raises(InvalidInputError, match="twice"):
        Route((4, 1, 4), (3.0, 4.0), RouteStatus.OK)
    with pytest.raises(InvalidInputError, match="one distance per hop"):
        Route((4, 1, 5), (3.0,), RouteStatus.OK)


def bits(values):
    return [struct.pack("<d", value) for value in values]


#: Floats whose sums of 30 cannot overflow.
FINITE = st.floats(-1e300, 1e300)


@given(st.lists(st.lists(FINITE, max_size=30), min_size=1, max_size=4))
def test_sequential_sum_adds_left_to_right(rows):
    """Each row's sum is bit for bit that of adding its floats in order, as
    CPython 3.11's ``sum()`` does, and 0.0 for no floats."""
    expected = [
        functools.reduce(operator.add, row) if row else 0.0 for row in rows
    ]
    for row, total in zip(rows, expected):
        assert bits([float(routing.sequential_sum(row))]) == bits([total])
    width = max(map(len, rows))
    if all(len(row) == width for row in rows):
        matrix = np.array(rows).reshape(len(rows), width)
        assert bits(routing.sequential_sum(matrix)) == bits(expected)


# ---------------------------------------------------------------------------
# The ideal route: n_min_ideal equal hops along the arc
# ---------------------------------------------------------------------------


def ideal_route(arc):
    """Relay positions and latency (ms) of the ideal route over ``arc``."""
    src, dst = endpoints(arc)
    n = n_min_ideal(arc, THETA_MAX)
    return arc_waypoints(src, dst, n), ideal_latency(arc, n, RS)


def test_route_ideal_short_arc_two_equal_hops():
    positions, latency = ideal_route(0.4)
    assert len(positions) == 3  # two hops
    chord = chord_distance(positions[0], positions[1])
    assert math.isclose(chord, 2.0 * RS * math.sin(0.1), rel_tol=1e-9)
    assert math.isclose(latency, ideal_latency(0.4, 2, RS), rel_tol=1e-12)


def test_route_ideal_starlink_antipodal_scale():
    _, latency = ideal_route(math.pi - 1e-6)
    assert math.isclose(latency, 72.1, abs_tol=0.05)


def test_route_ideal_hops_equal_within_tolerance():
    positions, _ = ideal_route(2.3)
    angles = [dome_angle(a, b) for a, b in zip(positions, positions[1:])]
    assert max(angles) - min(angles) < 1e-10
    n = len(angles)
    assert math.isclose(angles[0], 2.3 / n, abs_tol=1e-10)


def test_arc_waypoints_match_slerp_and_resolve_antipodal():
    src, dst = endpoints(2.3)
    waypoints = arc_waypoints(src, dst, 5)
    assert len(waypoints) == 6
    for i, point in enumerate(waypoints):
        expected = slerp(src, dst, i / 5)
        assert np.linalg.norm(point.unit_vector() - expected.unit_vector()) < 1e-12

    # Antipodal endpoints follow the deterministic arc through the +z pole.
    src, dst = endpoints(math.pi)
    waypoints = arc_waypoints(src, dst, 4)
    gaps = [dome_angle(a, b) for a, b in zip(waypoints, waypoints[1:])]
    assert all(math.isclose(g, math.pi / 4, abs_tol=1e-9) for g in gaps)
    north = waypoints[2]
    assert np.linalg.norm(north.unit_vector() - np.array([0.0, 0.0, 1.0])) < 1e-9
    with pytest.raises(InvalidInputError):
        arc_waypoints(src, dst, 0)


# ---------------------------------------------------------------------------
# route_equal_interval
# ---------------------------------------------------------------------------


def test_equal_interval_exact_targets_reproduce_ideal():
    """Satellites placed exactly on the relay targets give the ideal split."""
    arc = 2.4
    src, dst = endpoints(arc)
    plan = plan_hops(arc, THETA_MAX, 5000, 0.01)
    targets = [slerp(src, dst, i / plan.n_hat) for i in range(1, plan.n_hat)]
    decoys = [SpherePoint(r=RS, theta=2.9, phi=float(p)) for p in (0.5, 1.5, 2.5)]
    c = constellation_from_points(targets + decoys)
    c2, src, dst = attach_endpoints(c, arc)
    route = route_equal_interval(c2, D_MAX, plan)
    assert route.status is RouteStatus.OK
    assert math.isclose(
        route.latency, ideal_latency(arc, plan.n_hat, RS), rel_tol=1e-9
    )
    hop_angles = [
        dome_angle(sat(c2, a), sat(c2, b))
        for a, b in zip(route.hops, route.hops[1:])
    ]
    assert max(hop_angles) - min(hop_angles) < 1e-9


def test_equal_interval_matches_brute_force_on_small_instance():
    """Hand-built 6-satellite case where snapping is provably optimal."""
    arc = 1.2
    src, dst = endpoints(arc)
    plan = HopPlan(
        n_hat=4, reliable_angle=0.05, type1_interrupted=False, iterations_used=1
    )
    # Three satellites a hair off the equally spaced targets, three decoys
    # far away; chords between consecutive quarter points are admissible
    # while skipping a relay is not.
    goods = []
    for i, shift in zip(range(1, 4), (3e-3, -2.5e-3, 2e-3)):
        goods.append(slerp(src, dst, i / 4 + shift))
    decoys = [SpherePoint(r=RS, theta=2.6, phi=float(p)) for p in (0.3, 1.9, 4.1)]
    c = constellation_from_points(goods + decoys)
    c2, src, dst = attach_endpoints(c, arc)

    route = route_equal_interval(c2, D_MAX, plan)
    assert route.status is RouteStatus.OK

    # Exhaustive enumeration over all relay subsets and orders.
    limit = admissible_chord(RS)
    src_id, dst_id = 6, 7
    best_latency, best_path = math.inf, None
    for k in range(0, 6):
        for relays in itertools.permutations(range(6), k):
            path = (src_id, *relays, dst_id)
            chords = [
                chord_distance(sat(c2, a), sat(c2, b))
                for a, b in zip(path, path[1:])
            ]
            if all(ch <= limit for ch in chords):
                latency = sum(chords) / C_KMS
                if latency < best_latency:
                    best_latency, best_path = latency, path
    assert best_path is not None
    assert route.hops == best_path
    assert math.isclose(route.latency, best_latency, rel_tol=1e-12)


def test_equal_interval_direct_hop_shortcut():
    arc = 0.3
    c = sample_bpp(50, R_EARTH, ALT, seed=8)
    c2, src, dst = attach_endpoints(c, arc)
    plan = plan_hops(arc, THETA_MAX, c.n_sat, 0.01)
    route = route_equal_interval(c2, D_MAX, plan)
    assert route.direct_hop
    assert route.hops == (50, 51)
    assert route.status is RouteStatus.OK


def test_equal_interval_type2_on_hopeless_instance():
    # All satellites clustered near the source; the far relays cannot be
    # snapped or repaired.
    arc = 2.8
    cluster = [
        SpherePoint(r=RS, theta=1.4 + dt, phi=0.001 + dp)
        for dt, dp in ((0.0, 0.0), (0.01, 0.01), (-0.01, 0.02), (0.02, -0.01))
    ]
    c = constellation_from_points(cluster)
    c2, src, dst = attach_endpoints(c, arc)
    plan = HopPlan(
        n_hat=8, reliable_angle=0.1, type1_interrupted=False, iterations_used=1
    )
    route = route_equal_interval(c2, D_MAX, plan)
    assert route.status is RouteStatus.TYPE2_INTERRUPTED
    assert route.interrupted


def reference_equal_interval(c, d_max, plan):
    """Equal-interval routing one target at a time: the loop the batched
    router replaces, kept as its reference."""
    units = c.unit_vectors
    src_id, dst_id = c.n_sat - 2, c.n_sat - 1
    cos_admissible = 1.0 - (admissible_chord(c.radius) / c.radius) ** 2 / 2.0
    if units[src_id] @ units[dst_id] >= cos_admissible:
        return [src_id, dst_id], RouteStatus.OK
    n = plan.n_hat
    targets, _ = great_arc(units[src_id], units[dst_id], np.arange(1, n) / n)
    taken = [src_id, dst_id]
    for target in targets:
        dots = units @ target
        dots[taken] = -2.0
        if dots.max() == -2.0:
            return [src_id, *taken[2:]], RouteStatus.TYPE2_INTERRUPTED
        taken.append(int(dots.argmax()))
    planned = [src_id, *taken[2:], dst_id]
    full, status = [src_id], RouteStatus.OK
    for a, b in zip(planned, planned[1:]):
        if units[a] @ units[b] < cos_admissible:
            try:
                mids = hop_repair(c, a, b, d_max, exclude=set(planned) | set(full))
            except RepairFailedError:
                return full, RouteStatus.TYPE2_INTERRUPTED
            full.extend(mids)
            status = RouteStatus.REPAIRED
        full.append(b)
    return full, status


def assert_equal_interval_batch_matches_reference(shells, plan):
    """Each route of the batch equals its own batch of one and the
    target-by-target reference; returns the statuses seen."""
    statuses = set()
    batch = route_equal_interval_batch(ShellStack.of(shells), D_MAX, plan)
    for shell, route in zip(shells, batch):
        assert route == route_equal_interval(shell, D_MAX, plan)
        hops, status = reference_equal_interval(shell, D_MAX, plan)
        assert (route.hops, route.status) == (tuple(hops), status)
        statuses.add(status)
    return statuses


def product_groups(shells, plan):
    """Targets per product group of a batch, and those of its last group."""
    rows = len(shells) * max(c.n_sat for c in shells)
    targets = plan.n_hat - 1
    size = min(targets, max(2, routing._PRODUCT_DOTS // rows))
    return size, targets - size * ((targets - 1) // size)


def test_equal_interval_batch_matches_target_by_target_reference():
    """Shells of one batch differ in size (so the batch pads them), and
    their targets collide, run out of satellites or need repair."""
    arc = 2.6
    src, dst = endpoints(arc)
    plan = HopPlan(
        n_hat=12, reliable_angle=0.1, type1_interrupted=False, iterations_used=1
    )
    sizes = (0, 3, 11, 12, 40, 150, 400, 1500)
    shells = [
        sample_bpp(n, R_EARTH, ALT, seed=1).with_extra_points([src, dst])
        if n else constellation_from_points([src, dst])
        for n in sizes
    ]
    # 11 targets in groups of 5: the last group holds one target.
    assert product_groups(shells, plan) == (5, 1)
    assert assert_equal_interval_batch_matches_reference(shells, plan) == set(
        RouteStatus
    )

    # One target, in a product of its own.
    one = replace(plan, n_hat=2)
    assert product_groups(shells, one) == (1, 1)
    statuses = assert_equal_interval_batch_matches_reference(shells, one)
    assert RouteStatus.REPAIRED in statuses

    # Endpoints one hop apart: every route is a direct hop.
    near = [
        sample_bpp(n, R_EARTH, ALT, seed=1).with_extra_points(endpoints(0.3))
        for n in (5, 40, 300)
    ]
    assert assert_equal_interval_batch_matches_reference(near, plan) == {
        RouteStatus.OK
    }
    for shell, route in zip(
        near, route_equal_interval_batch(ShellStack.of(near), D_MAX, plan)
    ):
        k = shell.n_sat - 2
        u_src, u_dst = shell.unit_vectors[k:]
        assert route.hops == (k, k + 1)
        assert route.band_reach == 0.0
        assert route.hop_distances == pytest.approx(
            (shell.radius * np.linalg.norm(u_dst - u_src),), rel=1e-15
        )

    # Oneweb-like: 68 targets on shells of at most 650 satellites, where
    # most targets share their nearest satellite with a neighbour.
    altitude = 1200.0
    src, dst = endpoints(math.pi, R_EARTH + altitude)
    oneweb = replace(plan, n_hat=69, type1_interrupted=True)
    dense = [
        sample_bpp(n, R_EARTH, altitude, seed=seed).with_extra_points([src, dst])
        for seed, n in enumerate((650, 520, 650, 600, 431))
    ]
    # Groups of 20 targets, the last of 8.
    assert product_groups(dense, oneweb) == (20, 8)
    targets, _ = great_arc(
        src.unit_vector(), dst.unit_vector(), np.arange(1, 69) / 69
    )
    for shell in dense:
        nearest = (shell.unit_vectors[:-2] @ targets.T).argmax(axis=0)
        assert len(set(nearest.tolist())) < 40
    statuses = assert_equal_interval_batch_matches_reference(dense, oneweb)
    assert RouteStatus.TYPE2_INTERRUPTED in statuses

    other = sample_bpp(50, R_EARTH, ALT, seed=1).with_extra_points(endpoints(2.5))
    with pytest.raises(InvalidInputError, match="share"):
        ShellStack.of([shells[-1], other])


def test_strip_snap_equals_the_snap_on_every_row(monkeypatch):
    """Picks read from the strip near the arc are bit for bit the picks of
    every row of the stack: on whole oneweb-like shells, one of them of
    twin satellites (ties go to the lower ID), and with a narrow strip
    whose lanes stray past it or run out of satellites, which snap again
    on all their rows. Small snaps, which the strip would not pay for, are
    let through here to test it, and read every row otherwise."""
    altitude = 1200.0
    src, dst = endpoints(math.pi, R_EARTH + altitude)
    shells = [
        sample_bpp(n, R_EARTH, altitude, seed=seed).with_extra_points([src, dst])
        for seed, n in enumerate((650, 650, 600, 650, 520, 650, 431))
    ]
    twins = sample_bpp(325, R_EARTH, altitude, seed=9).unit_vectors.repeat(2, axis=0)
    shells.append(
        Constellation(R_EARTH, altitude, twins).with_extra_points([src, dst])
    )
    stack = ShellStack.of(shells)
    snap = routing._snap
    calls = []

    def logged(rows, counts, targets):
        calls.append(list(counts))
        return snap(rows, counts, targets)

    monkeypatch.setattr(routing, "_snap", logged)
    targets, normal = great_arc(*stack.ends, np.arange(1, 69) / 69)
    one = ShellStack.of(shells[:1])
    routing._snap_near_arc(one, targets, normal)
    routing._snap_near_arc(stack, targets, normal)
    assert calls[0] == one.counts and len(calls[1]) == len(shells)
    assert all(k < 0.5 * n for k, n in zip(calls[1], stack.counts))
    monkeypatch.setattr(routing, "_STRIP_DOTS", 0)
    fell_back = set()
    # (targets + 1, satellites a cap of the strip's half-width holds)
    for n_hat, satellites in ((69, 25), (12, 25), (20, 4), (69, 3)):
        monkeypatch.setattr(routing, "_STRIP_SATELLITES", satellites)
        targets, normal = great_arc(*stack.ends, np.arange(1, n_hat) / n_hat)
        calls.clear()
        picks = routing._snap_near_arc(stack, targets, normal)
        assert np.array_equal(picks, snap(stack.rows, stack.counts, targets))
        # A target takes the odd twin only once the even one is taken.
        twin = picks[:, -1].tolist()
        assert all(h % 2 == 0 or h - 1 in twin[:j] for j, h in enumerate(twin))
        # The first call snaps the strips, fewer rows than the shells'.
        strips = calls[0]
        assert all(k < 0.5 * n for k, n in zip(strips, stack.counts))
        if len(calls) > 1:
            (redo,) = calls[1:]
            assert 0 < len(redo) <= len(shells)
            fell_back.add((n_hat, satellites, len(redo) < len(shells)))
            short = [k < n_hat - 1 for k in strips]
            assert sum(short) <= len(redo)
    # A narrow strip: some lanes stray, some run out, some keep their picks.
    assert (20, 4, True) in fell_back and (69, 3, False) in fell_back

    # A strip of three satellites on a short arc of 19 targets runs out,
    # though every target lies within h of each of the three.
    src, dst = endpoints(0.3, R_EARTH + altitude)
    targets, normal = great_arc(
        src.unit_vector(), dst.unit_vector(), np.arange(1, 20) / 20
    )
    units = sample_bpp(2000, R_EARTH, altitude, seed=4).unit_vectors
    far = units[units @ targets[9] < math.cos(0.6)]
    units = np.vstack([far[:600], targets[[3, 9, 15]], far[600:]])
    shell = Constellation(R_EARTH, altitude, units).with_extra_points([src, dst])
    stack = ShellStack.of([shell])
    monkeypatch.setattr(routing, "_STRIP_SATELLITES", 25)
    calls.clear()
    picks = routing._snap_near_arc(stack, targets, normal)
    assert calls == [[3], stack.counts]
    assert np.array_equal(picks, snap(stack.rows, stack.counts, targets))

    # Most of a band lies near its arc, so a band stack snaps every row.
    band = [
        Constellation(R_EARTH, altitude, units[np.abs(units[:, 1]) < 0.2])
        for units in (c.unit_vectors[:-2] for c in shells[:3])
    ]
    band = [c.with_extra_points([src, dst]) for c in band]
    stack = ShellStack.of(band)
    calls.clear()
    targets, normal = great_arc(*stack.ends, np.arange(1, 12) / 12)
    routing._snap_near_arc(stack, targets, normal)
    assert calls == [stack.counts]


def reference_hop_repair(c, from_id, to_id, exclude):
    """Relays that repair one hop, walked relay by relay; None on failure."""
    units = c.unit_vectors
    if units[from_id] @ units[to_id] >= cos_admissible(c):
        return []
    _, normal = great_arc(units[from_id], units[to_id], 0.0)
    score = np.abs(np.arcsin(np.clip(units @ normal, -1.0, 1.0)))
    blocked = np.zeros(c.n_sat, dtype=bool)
    blocked[list(exclude)] = True
    relays, reached = reference_walk(
        units, from_id, to_id, cos_admissible(c), blocked, score, c.n_sat
    )
    return relays if reached else None


def reference_repaired(c, planned, fits):
    """The planned route with each hop that does not fit repaired, one hop
    of one shell at a time: the loop the repair rounds replace, kept as
    their reference. Returns the route and the rounds it took."""

    def route(hops, status):
        steps = np.diff(c.unit_vectors[hops], axis=0)
        lengths = tuple(c.radius * np.linalg.norm(steps, axis=1))
        return Route(tuple(hops), lengths, status)

    used = set(planned)
    full = [planned[0]]
    repaired = False
    rounds = 0
    for a, b, fit in zip(planned, planned[1:], fits):
        if fit:
            full.append(b)
            continue
        rounds += 1
        mids = reference_hop_repair(c, a, b, used)
        if mids is None:
            return route(full, RouteStatus.TYPE2_INTERRUPTED), rounds
        used.update(mids)
        full.extend(mids)
        full.append(b)
        repaired = repaired or bool(mids)
    status = RouteStatus.REPAIRED if repaired else RouteStatus.OK
    return route(full, status), rounds


@pytest.mark.parametrize("lanes_per_walk", [1, 3, 7])
def test_repair_rounds_match_hop_by_hop_reference(monkeypatch, lanes_per_walk):
    """A padded batch of planned routes whose lanes need 0, 1 and several
    repair rounds; some fail in their first round and some in a later one.
    Zig-zag routes walk back over the relays of their previous round.

    Caps are found and walked in chunks of ``lanes_per_walk`` lanes. No
    round is without lanes, and each route is in as many rounds as the
    reference repairs hops."""
    arc = 2.0
    src, dst = endpoints(arc)
    even = (1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6)
    late = (0.1, 0.15, 0.2, 0.25, 0.5)
    zigzag = (0.1, 0.6, 0.35, 0.7, 0.9)
    apart = (0.15, 0.4, 0.45, 0.7, 0.75)
    lanes = (
        # (satellites, seed, relay targets as arc fractions)
        (1000, 0, even),
        (600, 0, late),
        (600, 0, zigzag),
        (300, 3, apart),
        (40, 0, zigzag),
        (300, 3, zigzag),
        (100, 5, apart),
    )
    shells, planned = [], []
    for n, seed, fractions in lanes:
        shell = sample_bpp(n, R_EARTH, ALT, seed=seed).with_extra_points([src, dst])
        targets, _ = great_arc(
            src.unit_vector(), dst.unit_vector(), np.array(fractions)
        )
        relays = []
        for t in targets:
            dots = shell.unit_vectors[:-2] @ t
            dots[relays] = -2.0
            relays.append(int(dots.argmax()))
        shells.append(shell)
        planned.append([n, *relays, n + 1])
    stack = ShellStack.of(shells)
    width = stack.rows.shape[1]
    monkeypatch.setattr(
        routing, "_CAP_DOUBLES", routing._PRODUCT_DOTS // (lanes_per_walk * width)
    )
    walks, rounds = [], []
    walk, repair_round = routing._walk, routing._repair_round

    def walk_in_chunks(units, shells, begin, cos_min, score, cap, doubles):
        # Packed caps are narrower than their shells: as many doubles a row
        # as put ``lanes_per_walk`` lanes in a chunk of these.
        walks.append(len(shells))
        doubles = routing._PRODUCT_DOTS // (lanes_per_walk * units.shape[1])
        return walk(units, shells, begin, cos_min, score, cap, doubles)

    def counted_round(rows, ids, *rest):
        rounds.append(list(ids))
        return repair_round(rows, ids, *rest)

    monkeypatch.setattr(routing, "_walk", walk_in_chunks)
    monkeypatch.setattr(routing, "_repair_round", counted_round)
    planned = np.array(planned).T
    cos_min = cos_admissible(shells[0])
    path = np.stack([c.unit_vectors[hops] for c, hops in zip(shells, planned.T)])
    fits = (np.einsum("bhj,bhj->bh", path[:, :-1], path[:, 1:]) >= cos_min).T

    ids = list(range(len(shells)))
    paths, statuses = routing._repaired(stack, ids, planned, fits, cos_min)
    reaches = np.full(len(ids), math.pi / 2.0)
    routes = routing._routes(
        stack,
        routing._padded(paths),
        np.array([len(path) - 1 for path in paths]),
        np.array(statuses, np.int8),
        reaches,
    )
    outcomes = []
    for shell, hops, fit, route in zip(shells, planned.T, fits.T, routes):
        expected, repairs = reference_repaired(shell, hops.tolist(), fit.tolist())
        assert route == expected
        outcomes.append((repairs, route.status))
    assert all(rounds)
    assert [sum(j in lanes for lanes in rounds) for j in ids] == [r for r, _ in outcomes]
    assert max(walks) > 3
    assert outcomes == [
        (0, RouteStatus.OK),
        (1, RouteStatus.REPAIRED),
        (3, RouteStatus.REPAIRED),
        (3, RouteStatus.REPAIRED),
        (1, RouteStatus.TYPE2_INTERRUPTED),
        (2, RouteStatus.TYPE2_INTERRUPTED),
        (3, RouteStatus.TYPE2_INTERRUPTED),
    ]


#: How a lane of the pruned-repair property test picks its goal: any
#: satellite, one in reach of its start, a copy of its start, its antipode,
#: or a point 1e-7 rad short of its antipode.
GOALS = ("any", "in reach", "coincident", "antipodal", "near antipodal")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(2, 600),
            st.integers(0, 2**32 - 1),
            st.sampled_from(GOALS),
            st.floats(0.0, 0.5),
        ),
        min_size=1,
        max_size=5,
    ),
    st.randoms(use_true_random=False),
)
def test_pruned_repair_equals_the_walk_over_every_row(lanes, order):
    """On random shells, hops and blocked sets, a round of several lanes and
    ``hop_repair`` both repair each hop as the relay-by-relay walk over
    every row of its shell does. The lanes read their shells in a shuffled
    order, so their rows are gathered, not viewed."""
    shells, hops, excluded = [], [], []
    for n_sat, seed, kind, share in lanes:
        rng = np.random.default_rng(seed)
        units = sample_bpp(n_sat, R_EARTH, ALT, seed=seed).unit_vectors
        start = int(rng.integers(n_sat))
        u = units[start]
        extra = {
            "in reach": turned(u, 0.02),
            "coincident": u,
            "antipodal": -u,
            "near antipodal": turned(-u, 1e-7),
        }.get(kind)
        if extra is None:
            goal = int(rng.integers(n_sat))
        else:
            units = np.vstack([units, extra])
            goal = n_sat
        exclude = set(np.flatnonzero(rng.random(len(units)) < share).tolist())
        exclude -= {start, goal}
        shells.append(constellation_from_units(units))
        hops.append((start, goal))
        excluded.append(exclude)
    perm = list(range(len(shells)))
    order.shuffle(perm)
    width = max(c.n_sat for c in shells)
    rows = np.zeros((len(shells), width, 3))
    for b, c in enumerate(shells):
        rows[b, : c.n_sat] = c.unit_vectors
    # Lane j repairs the hop of shell perm[j].
    blocked = np.arange(width) >= np.array([shells[b].n_sat for b in perm])[:, None]
    for j, b in enumerate(perm):
        blocked[j, [*excluded[b], hops[b][1]]] = True
    found = routing._repair_round(
        rows,
        perm,
        [hops[b][0] for b in perm],
        [hops[b][1] for b in perm],
        cos_admissible(shells[0]),
        blocked,
    )
    for j, b in enumerate(perm):
        c, (start, goal), exclude = shells[b], hops[b], excluded[b]
        expected = reference_hop_repair(c, start, goal, exclude)
        assert found[j] == expected
        if expected is None:
            with pytest.raises(RepairFailedError):
                hop_repair(c, start, goal, D_MAX, exclude)
        else:
            assert hop_repair(c, start, goal, D_MAX, exclude) == expected


def turned(unit, angle):
    """``unit`` turned by ``angle`` rad toward a direction orthogonal to it."""
    axis = np.cross(unit, (0.0, 0.0, 1.0) if abs(unit[2]) < 0.9 else (1.0, 0.0, 0.0))
    axis /= np.linalg.norm(axis)
    return math.cos(angle) * unit + math.sin(angle) * axis


def test_batched_hop_arcs_round_as_the_scalar_dot_and_arc_normal():
    """On 10^5 random hops, and hops near the coincident and antipodal
    thresholds, the batched pass gives each hop's dot as ``float(a @ z)``
    and each clear arc's normal as ``arc_normal``, bit for bit; it leaves
    every hop near a threshold to ``arc_normal``."""
    rng = np.random.default_rng(33)
    a, z = rng.normal(size=(2, 100_000, 3))
    a /= np.linalg.norm(a, axis=1)[:, None]
    z /= np.linalg.norm(z, axis=1)[:, None]
    # Hops 1e-12 to 1e-7 rad from each threshold.
    near = a[:200] + rng.normal(size=(200, 3)) * np.logspace(-12, -7, 200)[:, None]
    near /= np.linalg.norm(near, axis=1)[:, None]
    a = np.vstack([a, a[:200], a[:200]])
    z = np.vstack([z, near, -near])
    dots, normals, clear = routing._hop_arcs(np.vstack([a, z]))
    scalar = np.array([float(u @ v) for u, v in zip(a, z)])
    assert dots.tobytes() == scalar.tobytes()
    assert not clear[-400:].any()
    assert clear.mean() > 0.99
    exact = np.array([arc_normal(u, v) for u, v in zip(a[clear], z[clear])])
    assert normals[clear].tobytes() == exact.tobytes()


def reference_walk(units, start, goal, cos_admissible, blocked, score, cap):
    """One relay walk on one shell, a matrix-vector product per step: the
    loop the lockstep walk replaces, kept as its reference."""
    dots_goal = units @ units[goal]
    free = ~blocked
    free[[start, goal]] = False
    relays, cur = [], start
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


def cos_admissible(c):
    limit = admissible_chord(c.radius)
    return 1.0 - (limit * limit) / (2.0 * c.radius * c.radius)


def reference_greedy(c, plan, pick_farthest):
    """A greedy baseline routed on one shell with :func:`reference_walk`."""
    units = c.unit_vectors
    src, dst = c.n_sat - 2, c.n_sat - 1
    _, normal = great_arc(units[src], units[dst], 0.0)
    deflection = np.abs(np.arcsin(np.clip(units @ normal, -1.0, 1.0)))
    if pick_farthest:
        blocked, score = deflection > plan.reliable_angle, None
        reach = min(plan.reliable_angle, math.pi / 2.0)
    else:
        blocked, score, reach = np.zeros(c.n_sat, dtype=bool), deflection, math.pi / 2.0
    relays, reached = reference_walk(
        units, src, dst, cos_admissible(c), blocked, score, 4 * plan.n_hat
    )
    hops = [src, *relays, dst] if reached else [src, *relays]
    if reached and not pick_farthest:
        reach = float(deflection[relays].max(initial=0.0))
    status = RouteStatus.OK if reached else RouteStatus.TYPE2_INTERRUPTED
    steps = np.diff(units[hops], axis=0)
    lengths = tuple(c.radius * np.linalg.norm(steps, axis=1))
    return Route(tuple(hops), lengths, status, reach)


GREEDY_BATCH_ROUTERS = (
    (route_min_deflection, route_min_deflection_batch, False),
    (route_max_stepsize, route_max_stepsize_batch, True),
)


def assert_greedy_batch_matches_reference(shells, plan):
    """Both greedy batch routers equal the reference shell by shell, and so
    does each batch of one; returns the statuses and hop counts seen."""
    seen = set()
    for router, batch_router, pick_farthest in GREEDY_BATCH_ROUTERS:
        batch = batch_router(ShellStack.of(shells), D_MAX, plan)
        assert len(batch) == len(shells)
        for shell, route in zip(shells, batch):
            expected = reference_greedy(shell, plan, pick_farthest)
            assert route == expected
            assert router(shell, D_MAX, plan) == expected
            seen.add((pick_farthest, route.status, route.n_hops))
    return seen


def test_greedy_batch_matches_relay_by_relay_reference():
    """Padded batches of 2- to 1500-satellite shells: walks that complete,
    dead-end, find their belt empty or hop directly."""
    arc = 2.6
    src, dst = endpoints(arc)
    sizes = (0, 3, 11, 12, 40, 150, 400, 1500)
    shells = [
        sample_bpp(n, R_EARTH, ALT, seed=n).with_extra_points([src, dst])
        if n else constellation_from_points([src, dst])
        for n in sizes
    ]
    # Every satellite twice: each candidate ties with its twin, and the
    # lower ID must win.
    twins = sample_bpp(300, R_EARTH, ALT, seed=2).unit_vectors
    shells.append(
        constellation_from_units(np.vstack([twins, twins])).with_extra_points(
            [src, dst]
        )
    )
    plan = HopPlan(
        n_hat=12, reliable_angle=0.15, type1_interrupted=False, iterations_used=1
    )
    seen = assert_greedy_batch_matches_reference(shells, plan)
    for pick_farthest in (False, True):
        assert (pick_farthest, RouteStatus.OK) in {s[:2] for s in seen}
        # The endpoints-only shell dead-ends at once.
        assert (pick_farthest, RouteStatus.TYPE2_INTERRUPTED, 0) in seen

    # A belt that blocks every candidate.
    no_belt = replace(plan, reliable_angle=0.0)
    seen = assert_greedy_batch_matches_reference(shells, no_belt)
    assert (True, RouteStatus.TYPE2_INTERRUPTED, 0) in seen

    # Endpoints one hop apart: every walk is a direct hop.
    near = [
        sample_bpp(n, R_EARTH, ALT, seed=n).with_extra_points(endpoints(0.3))
        for n in (5, 300)
    ]
    seen = assert_greedy_batch_matches_reference(near, plan)
    assert {s[1:] for s in seen} == {(RouteStatus.OK, 1)}


@pytest.mark.parametrize("lanes_per_chunk", [1, 3, 7])
def test_walk_in_chunks_equals_one_lockstep_walk(lanes_per_chunk):
    """Walks run in chunks of consecutive lanes, on views of the stack or on
    gathered shells, give the relays, the ``reached`` flags and the
    ``blocked`` marks of one lockstep walk of every lane."""
    src, dst = endpoints(2.2)
    shells = [
        sample_bpp(n, R_EARTH, ALT, seed=n).with_extra_points([src, dst])
        for n in (60, 300, 400, 800, 1200)
    ]
    stack = ShellStack.of(shells)
    rows, counts = stack.rows, stack.counts
    width = rows.shape[1]
    cos_min = cos_admissible(shells[0])
    _, normal = great_arc(src.unit_vector(), dst.unit_vector(), 0.0)
    # Doubles a row at which the budget holds ``lanes_per_chunk`` walks.
    doubles = routing._PRODUCT_DOTS // (lanes_per_chunk * width)
    # Every shell in order (views), then shells out of order and repeated
    # (copies), walked from src to dst and back.
    walks = (([0, 1, 2, 3, 4], False), ([3, 0, 3, 4, 1, 2, 0, 4], True))
    for shells_walked, backward in walks:
        ends = np.array([counts[b] for b in shells_walked])
        start, goal = (ends + 1, ends) if backward else (ends, ends + 1)
        padding = np.arange(width) >= ends[:, None] + 2
        gathered = rows[shells_walked]
        deflection = routing._deflection(gathered @ normal)
        for score in (None, deflection):
            outcomes = []
            for chunked in (False, True):
                blocked = padding.copy()
                blocked[:, ::7] = True
                blocked[np.arange(len(ends)), start] = False
                if chunked:
                    walked = routing._walk(
                        rows,
                        shells_walked,
                        lambda units, lanes: routing._walk_start(
                            units, start[lanes], goal[lanes], blocked[lanes]
                        ),
                        cos_min,
                        None if score is None else lambda _, lanes: score[lanes],
                        40,
                        doubles,
                    )
                else:
                    walked = routing._lockstep(
                        gathered,
                        *routing._walk_start(gathered, start, goal, blocked),
                        cos_min,
                        score,
                        40,
                    )
                outcomes.append((walked, blocked))
            (relays, reached), blocked = outcomes[0]
            assert outcomes[1][0] == (relays, reached)
            assert np.array_equal(outcomes[1][1], blocked)
            assert blocked[np.arange(len(goal)), goal].all()
            assert any(reached) and any(map(len, relays))


def test_greedy_walk_capped_after_its_last_relay_is_interrupted():
    """A chain whose goal comes in reach right after the cap-th relay stays
    type II, as in the relay-by-relay walk; one more planned hop completes."""
    arc = 1.25
    chain, src, dst, n_chain = arc_chain_constellation(arc, 0.25)
    assert n_chain == 4
    shells = [
        chain,
        sample_bpp(200, R_EARTH, ALT, seed=3).with_extra_points([src, dst]),
    ]
    one_hop = HopPlan(
        n_hat=1, reliable_angle=0.1, type1_interrupted=False, iterations_used=1
    )
    capped = route_min_deflection_batch(ShellStack.of(shells), D_MAX, one_hop)[0]
    assert capped.status is RouteStatus.TYPE2_INTERRUPTED
    assert capped.hops == (4, 0, 1, 2, 3)
    assert route_min_deflection(chain, D_MAX, replace(one_hop, n_hat=2)).hops == (
        4, 0, 1, 2, 3, 5,
    )
    assert_greedy_batch_matches_reference(shells, one_hop)


def test_min_deflection_walks_the_whole_shell_when_its_band_runs_out():
    """A gap in the contact-law band pushes a min-deflection walk out of
    it: the walk on the whole shell must match the relay-by-relay walk and
    report a reach beyond the band, so that a route made band first
    (``TrialCell.route_rows``) falls back to the whole shell."""
    arc, n_sat = 2.6, 3000
    src, dst = endpoints(arc)
    units = sample_bpp(n_sat, R_EARTH, ALT, seed=8).unit_vectors
    _, normal = great_arc(src.unit_vector(), dst.unit_vector(), 0.0)
    # Angle from src along the great circle of the arc.
    u_src = src.unit_vector()
    along = np.arctan2(units @ np.cross(normal, u_src), units @ u_src)
    in_band = np.abs(np.arcsin(units @ normal)) <= contact_band(n_sat)
    gap = in_band & (np.abs(along - arc / 2.0) < 0.3)
    shell = constellation_from_units(units[~gap]).with_extra_points([src, dst])
    plan = plan_hops(arc, THETA_MAX, shell.n_sat - 2, 0.1)
    route = route_min_deflection(shell, D_MAX, plan)
    assert route == reference_greedy(shell, plan, pick_farthest=False)
    assert route.status is RouteStatus.OK
    assert route.band_reach > contact_band(shell.n_sat - 2)


# ---------------------------------------------------------------------------
# hop_repair
# ---------------------------------------------------------------------------


def test_hop_repair_admissible_is_noop():
    a, b = endpoints(0.3)
    c = constellation_from_points([a, b])
    assert hop_repair(c, 0, 1, D_MAX) == []


def test_hop_repair_midpoint_single_candidate():
    # Dome angle 0.8 violates the hop limit; each half (0.4) is admissible.
    a, b = endpoints(0.8)
    mid = slerp(a, b, 0.5)
    c = constellation_from_points([a, b, mid])
    ints = hop_repair(c, 0, 1, D_MAX)
    assert ints == [2]


def test_hop_repair_no_candidate_raises():
    a, b = endpoints(1.0)
    far = SpherePoint(r=RS, theta=2.8, phi=2.0)
    c = constellation_from_points([a, b, far])
    with pytest.raises(RepairFailedError):
        hop_repair(c, 0, 1, D_MAX)


@pytest.mark.parametrize("from_id, to_id", [(0, -1), (0, 50), (-1, 13), (50, 13)])
def test_hop_repair_rejects_ids_outside_the_shell(from_id, to_id):
    c = sample_bpp(50, R_EARTH, ALT, seed=1)
    with pytest.raises(InvalidInputError, match="outside"):
        hop_repair(c, from_id, to_id, D_MAX)
    # Out-of-range exclusions are still ignored.
    assert hop_repair(c, 0, 13, D_MAX, exclude={-1, 50}) == hop_repair(c, 0, 13, D_MAX)


def test_hop_repair_dense_instance_properties():
    rng_arcs = (0.7, 0.9, 1.2)
    c = sample_bpp(1000, R_EARTH, ALT, seed=21)
    limit = admissible_chord(RS)
    for arc in rng_arcs:
        a, b = endpoints(arc)
        c2 = c.with_extra_points([a, b])
        from_id, to_id = 1000, 1001
        ints = hop_repair(c2, from_id, to_id, D_MAX)
        chain = [from_id, *ints, to_id]
        assert len(set(chain)) == len(chain)
        gaps_to_target = [
            dome_angle(sat(c2, i), sat(c2, to_id)) for i in chain
        ]
        assert all(x > y for x, y in zip(gaps_to_target, gaps_to_target[1:]))
        for u, v in zip(chain, chain[1:]):
            assert chord_distance(sat(c2, u), sat(c2, v)) <= limit + 1e-9


# ---------------------------------------------------------------------------
# greedy baselines
# ---------------------------------------------------------------------------


def arc_chain_constellation(arc, spacing):
    """Satellites along the src->dst arc, IDs in arc order.

    Each satellite is pushed off the arc by a small deflection that grows
    with its index, so deflection ordering is deterministic (points placed
    exactly on the arc tie at float-noise level).
    """
    src, dst = endpoints(arc)
    _, normal = great_arc(src.unit_vector(), dst.unit_vector(), 0.0)
    ts = np.arange(spacing, arc - 1e-9, spacing) / arc
    sats = []
    for k, t in enumerate(ts):
        u = slerp(src, dst, float(t)).unit_vector()
        off = 2e-4 * (k + 1)
        v = math.cos(off) * u + math.sin(off) * normal
        sats.append(SpherePoint.from_unit_vector(v, src.r))
    c = constellation_from_points(sats)
    return c.with_extra_points([src, dst]), src, dst, len(sats)


def test_min_deflection_walks_arc_in_order():
    # Spacing wide enough that only the next satellite is admissible,
    # forcing the chain walk; IDs were assigned in arc order.
    arc = 2.0
    c2, src, dst, n_chain = arc_chain_constellation(arc, 0.25)
    route = route_min_deflection(c2, D_MAX, cell_plan(c2, arc))
    assert route.status is RouteStatus.OK
    body = route.hops[1:-1]
    assert list(body) == sorted(body)
    assert body[0] == 0
    assert all(b - a == 1 for a, b in zip(body, body[1:]))
    # The walk gives up after 4 * plan.n_hat hops.
    capped = route_min_deflection(c2, D_MAX, cell_plan(c2, arc, n_hat=1))
    assert capped.status is RouteStatus.TYPE2_INTERRUPTED
    assert capped.hops == route.hops[:5]


def test_max_stepsize_takes_longer_steps():
    arc = 2.0
    c2, src, dst, n_chain = arc_chain_constellation(arc, 0.1)
    wide = route_max_stepsize(c2, D_MAX, cell_plan(c2, arc, reliable_angle=0.2))
    narrow = route_min_deflection(c2, D_MAX, cell_plan(c2, arc))
    assert wide.status is RouteStatus.OK
    assert len(wide.hops) < len(narrow.hops)
    body = wide.hops[1:-1]
    assert list(body) == sorted(body)


def test_max_stepsize_two_satellites_direct():
    arc = 0.3
    src, dst = endpoints(arc)
    c = constellation_from_points([src, dst])
    plan = HopPlan(
        n_hat=1, reliable_angle=0.1, type1_interrupted=False, iterations_used=1
    )
    # Both greedy walks take dst at once, as a direct hop.
    for router in (route_max_stepsize, route_min_deflection):
        route = router(c, D_MAX, plan)
        assert route.hops == (0, 1)
        assert route.status is RouteStatus.OK
        assert route.direct_hop


def test_max_stepsize_empty_belt_interrupts():
    # Satellites exist but all sit off the arc: zero belt excludes them.
    arc = 1.0
    src, dst = endpoints(arc)
    off_arc = [
        SpherePoint(r=RS, theta=0.5 + 0.05 * k, phi=1.0 + 0.3 * k) for k in range(6)
    ]
    c = constellation_from_points(off_arc)
    c2, src, dst = attach_endpoints(c, arc)
    route = route_max_stepsize(c2, D_MAX, cell_plan(c2, arc, reliable_angle=0.0))
    assert route.status is RouteStatus.TYPE2_INTERRUPTED


def test_min_deflection_sparse_gap_interrupts():
    # Coverage gap wider than the hop limit right after the source.
    arc = 2.0
    src, dst = endpoints(arc)
    near_src = [slerp(src, dst, t) for t in (0.05, 0.1)]
    past_gap = [slerp(src, dst, t) for t in (0.9, 0.95)]
    c = constellation_from_points(near_src + past_gap)
    c2, src, dst = attach_endpoints(c, arc)
    route = route_min_deflection(c2, D_MAX, cell_plan(c2, arc))
    assert route.status is RouteStatus.TYPE2_INTERRUPTED
    assert route.hops[0] == 4  # partial route out of the source


def test_min_deflection_relays_repair_the_whole_hop():
    # Both walk the src->dst arc by least deflection; under its step cap
    # the baseline takes the relays that repairing src->dst inserts.
    c = sample_bpp(2000, R_EARTH, ALT, seed=33)
    arc = 2.5
    c2, src, dst = attach_endpoints(c, arc)
    route = route_min_deflection(c2, D_MAX, cell_plan(c2, arc))
    assert route.status is RouteStatus.OK
    assert not route.direct_hop
    assert list(route.hops[1:-1]) == hop_repair(c2, 2000, 2001, D_MAX)


def test_greedy_progress_strictly_decreases():
    c = sample_bpp(2000, R_EARTH, ALT, seed=33)
    arc = 2.5
    c2, src, dst = attach_endpoints(c, arc)
    plan = cell_plan(c2, arc)
    for route in (
        route_min_deflection(c2, D_MAX, plan),
        route_max_stepsize(c2, D_MAX, plan),
    ):
        assert route.status is not RouteStatus.TYPE2_INTERRUPTED
        gaps = [dome_angle(sat(c2, h), dst) for h in route.hops]
        assert all(x > y for x, y in zip(gaps, gaps[1:]))


# ---------------------------------------------------------------------------
# cross-strategy invariants on sampled instances
# ---------------------------------------------------------------------------


def _sampled_routes(seed, n_sat, arc, epsilon=0.01):
    c = sample_bpp(n_sat, R_EARTH, ALT, seed=seed)
    c2, src, dst = attach_endpoints(c, arc)
    plan = plan_hops(arc, THETA_MAX, n_sat, epsilon)
    routes = [
        route_equal_interval(c2, D_MAX, plan),
        route_min_deflection(c2, D_MAX, plan),
        route_max_stepsize(c2, D_MAX, plan),
    ]
    return c2, routes


def test_completed_routes_satisfy_constraints():
    limit = admissible_chord(RS)
    for seed in range(8):
        c2, routes = _sampled_routes(seed, 1500, 2.2)
        for route in routes:
            if route.interrupted:
                continue
            assert len(set(route.hops)) == len(route.hops)
            for a, b, d in zip(route.hops, route.hops[1:], route.hop_distances):
                assert math.isclose(
                    d, chord_distance(sat(c2, a), sat(c2, b)), rel_tol=1e-12
                )
                assert d <= limit + 1e-9
            assert math.isclose(
                route.latency, sum(route.hop_distances) / C_KMS, rel_tol=1e-12
            )


def test_latency_floor_dominates_all_strategies():
    floor = latency_floor(2.2, THETA_MAX, RS)
    for seed in range(8):
        _, routes = _sampled_routes(seed, 1500, 2.2)
        for route in routes:
            if not route.interrupted:
                assert route.latency >= floor - 1e-9


SAMPLED_ROUTERS = (route_equal_interval, route_min_deflection, route_max_stepsize)


@pytest.mark.parametrize("router", SAMPLED_ROUTERS)
def test_satellites_beyond_band_reach_do_not_change_the_route(router):
    """Routing on the satellites of a band around the arc, then adding the
    rest: a band route reaching less far than the band is the full route."""
    arc, n_sat = 2.2, 1500
    src, dst = endpoints(arc)
    plan = plan_hops(arc, THETA_MAX, n_sat, 0.1)
    certified = differing = 0
    for sin_band in (0.03, 0.1, 0.2):
        for seed in range(4):
            units = sample_bpp(n_sat, R_EARTH, ALT, seed).unit_vectors
            inside = np.abs(units[:, 1]) <= sin_band  # the arc's normal is y
            k = int(inside.sum())
            band = constellation_from_units(units[inside])
            route = router(band.with_extra_points([src, dst]), D_MAX, plan)
            if router is not route_max_stepsize and route.status is not RouteStatus.OK:
                assert route.band_reach == math.pi / 2.0
            # The route's own relays lie within its reach.
            relays = band.unit_vectors[list(route.hops[1:-1])]
            assert np.all(np.arcsin(np.abs(relays[:, 1])) <= route.band_reach + 1e-12)
            shell = constellation_from_units(np.vstack([units[inside], units[~inside]]))
            full = router(shell.with_extra_points([src, dst]), D_MAX, plan)
            renamed = tuple({k: n_sat, k + 1: n_sat + 1}.get(h, h) for h in route.hops)
            if route.band_reach < math.asin(sin_band) - 1e-9:
                certified += 1
                assert full.hops == renamed
                assert full.status == route.status
                assert full.band_reach == route.band_reach
            else:
                differing += full.hops != renamed
    # Both kinds occur, so a reach reported too small would be caught.
    assert certified >= 1 and differing >= 1


def test_shell_stack_checks_the_shells_it_stacks():
    """``ShellStack.of`` rejects a shell without two satellites, coincident
    endpoints and shells that differ in sphere, body or endpoints."""
    src, dst = endpoints(1.0)
    shell = sample_bpp(50, R_EARTH, ALT, seed=1).with_extra_points([src, dst])
    with pytest.raises(InvalidInputError, match="two satellites"):
        ShellStack.of([constellation_from_points([src])])
    with pytest.raises(InvalidInputError, match="same point"):
        ShellStack.of([shell.with_extra_points([src, src])])
    others = (
        sample_bpp(50, R_EARTH, ALT, seed=2).with_extra_points(endpoints(1.1)),
        Constellation(R_EARTH, ALT + 1.0, shell.unit_vectors),
        Constellation(R_EARTH + 1.0, ALT, shell.unit_vectors),
    )
    for other in others:
        with pytest.raises(InvalidInputError, match="share"):
            ShellStack.of([shell, other])
    small = sample_bpp(20, R_EARTH, ALT, seed=3).with_extra_points([src, dst])
    stack = ShellStack.of([shell, small, shell])
    assert (stack.counts, stack.rows.shape) == ([50, 20, 50], (3, 52, 3))
    assert stack.rows[1, :22].tobytes() == small.unit_vectors.tobytes()
    assert not stack.rows[1, 22:].any()
    assert stack.ends.tobytes() == shell.unit_vectors[-2:].tobytes()


def test_routers_reject_coincident_endpoints():
    src, _ = endpoints(1.0)
    shell = sample_bpp(200, R_EARTH, ALT, seed=1).with_extra_points([src, src])
    plan = plan_hops(1.0, THETA_MAX, 200, 0.01)
    for router in SAMPLED_ROUTERS:
        with pytest.raises(InvalidInputError, match="same point"):
            router(shell, D_MAX, plan)


ONE_HOP_PLAN = HopPlan(
    n_hat=1, reliable_angle=0.1, type1_interrupted=False, iterations_used=1
)
#: Each sampled router and hop_repair, called as (shell, d_max).
HOP_RANGE_CALLS = {
    "equal-interval": lambda c, d_max: route_equal_interval(c, d_max, ONE_HOP_PLAN),
    "min-deflection": lambda c, d_max: route_min_deflection(c, d_max, ONE_HOP_PLAN),
    "max-stepsize": lambda c, d_max: route_max_stepsize(c, d_max, ONE_HOP_PLAN),
    "hop_repair": lambda c, d_max: hop_repair(c, 0, c.n_sat - 1, d_max),
}


@pytest.mark.parametrize("name", sorted(HOP_RANGE_CALLS))
def test_routers_reject_bad_hop_range_and_single_satellite_shells(name):
    """A hop range that is not positive would otherwise admit hops of length
    |d_max| (or none); a single satellite has no hop to route."""
    call = HOP_RANGE_CALLS[name]
    src, dst = endpoints(1.0)
    shell = sample_bpp(200, R_EARTH, ALT, seed=1).with_extra_points([src, dst])
    for d_max in (-D_MAX, 0.0, math.nan):
        with pytest.raises(InvalidInputError, match="d_max"):
            call(shell, d_max)
    with pytest.raises(InvalidInputError, match="two satellites"):
        call(constellation_from_points([src]), D_MAX)


def test_equal_split_reference_is_not_a_floor():
    """Regression: a sampled route may legally undercut the equal-split
    reference latency at the planned hop count, because fewer, longer hops
    can beat it; only the extreme-split floor is a true lower bound."""
    arc = 4000.0 / (R_EARTH + 500.0)
    radius = R_EARTH + 500.0
    tmax = max_hop_angle(radius, R_EARTH, D_MAX)
    c = sample_bpp(800, R_EARTH, 500.0, seed=5)
    half = arc / 2.0
    src = SpherePoint(r=radius, theta=half, phi=0.0)
    dst = SpherePoint(r=radius, theta=half, phi=math.pi)
    c2 = c.with_extra_points([src, dst])
    plan = plan_hops(arc, tmax, 800, 0.1)
    floor = latency_floor(arc, tmax, radius)
    reference = ideal_latency(arc, plan.n_hat, radius)
    best = min(
        r.latency
        for r in (
            route_min_deflection(c2, D_MAX, plan),
            route_max_stepsize(c2, D_MAX, plan),
        )
        if not r.interrupted
    )
    assert floor - 1e-9 <= best < reference


def test_starlink_scale_statistics():
    """Dense-shell behavior: no interruptions, efficiency near one."""
    arc = math.pi
    n_sat = 11927
    plan = plan_hops(arc, THETA_MAX, n_sat, 0.01)
    floor = latency_floor(arc, THETA_MAX, RS)
    effs = []
    for seed in range(60):
        c = sample_bpp(n_sat, R_EARTH, ALT, seed=seed)
        c2, src, dst = attach_endpoints(c, arc)
        route = route_equal_interval(c2, D_MAX, plan)
        assert route.status is not RouteStatus.TYPE2_INTERRUPTED
        effs.append(floor / route.latency)
    mean_eff = sum(effs) / len(effs)
    assert mean_eff > 0.985
    assert min(effs) > 0.97

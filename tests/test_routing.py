"""Route construction: ideal optimum, target-snapping search, greedy baselines."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from leoroute import (
    Constellation,
    DegenerateArcError,
    HopPlan,
    InvalidInputError,
    RepairFailedError,
    Route,
    RouteStatus,
    SpherePoint,
    arc_waypoints,
    chord_distance,
    dome_angle,
    hop_repair,
    ideal_latency,
    latency_floor,
    los_chord_limit,
    max_hop_angle,
    plan_hops,
    route_equal_interval,
    route_ideal,
    route_max_stepsize,
    route_min_deflection,
    sample_bpp,
    slerp,
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
            latency=0.066,
            status=RouteStatus.OK,
        )


def test_route_requires_matching_distances():
    with pytest.raises(InvalidInputError):
        Route(hops=(1, 2), hop_distances=(), latency=0.0, status=RouteStatus.OK)


# ---------------------------------------------------------------------------
# route_ideal
# ---------------------------------------------------------------------------


def test_route_ideal_short_arc_two_equal_hops():
    src, dst = endpoints(0.4)
    positions, latency = route_ideal(src, dst, d_max=D_MAX)
    assert len(positions) == 3  # two hops
    chord = chord_distance(positions[0], positions[1])
    assert math.isclose(chord, 2.0 * RS * math.sin(0.1), rel_tol=1e-9)
    assert math.isclose(latency, ideal_latency(0.4, 2, RS), rel_tol=1e-12)


def test_route_ideal_starlink_antipodal_scale():
    src, dst = endpoints(math.pi - 1e-6)
    _, latency = route_ideal(src, dst, d_max=D_MAX)
    assert math.isclose(latency, 72.1, abs_tol=0.05)


def test_route_ideal_hops_equal_within_tolerance():
    src, dst = endpoints(2.3)
    positions, _ = route_ideal(src, dst, d_max=D_MAX)
    angles = [dome_angle(a, b) for a, b in zip(positions, positions[1:])]
    assert max(angles) - min(angles) < 1e-10
    n = len(angles)
    assert math.isclose(angles[0], 2.3 / n, abs_tol=1e-10)


def test_route_ideal_antipodal_rejected():
    src, dst = endpoints(math.pi)
    with pytest.raises(DegenerateArcError):
        route_ideal(src, dst)


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
    route = route_equal_interval(c2, D_MAX, plan, allow_direct=False)
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

    route = route_equal_interval(c2, D_MAX, plan, allow_direct=False)
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
    route = route_equal_interval(c2, D_MAX, plan, allow_direct=True)
    assert route.direct_hop
    assert route.hops == (50, 51)
    assert route.status is RouteStatus.OK
    no_shortcut = route_equal_interval(c2, D_MAX, plan, allow_direct=False)
    assert not no_shortcut.direct_hop
    assert len(no_shortcut.hops) > 2


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
    route = route_equal_interval(c2, D_MAX, plan, allow_direct=False)
    assert route.status is RouteStatus.TYPE2_INTERRUPTED
    assert route.interrupted


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
    from leoroute.geometry import arc_normal

    src, dst = endpoints(arc)
    normal = arc_normal(src.unit_vector(), dst.unit_vector())
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
    route = route_max_stepsize(c, D_MAX, plan)
    assert route.hops == (0, 1)
    assert route.status is RouteStatus.OK


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

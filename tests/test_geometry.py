"""Sphere primitives: chords, dome angles, arc interpolation, arc normals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leoroute import (
    DegenerateArcError,
    InvalidInputError,
    SpherePoint,
    chord_distance,
    dome_angle,
    great_arc,
    los_chord_limit,
    slerp,
)
from leoroute.geometry import coincident

R = 6371.0
RS = 6921.0  # 550 km shell


def pt(r, theta, phi):
    return SpherePoint(r=r, theta=theta, phi=phi)


angles = st.floats(min_value=1e-3, max_value=math.pi - 1e-3)
azimuths = st.floats(min_value=0.0, max_value=2.0 * math.pi - 1e-9)
fractions = st.floats(min_value=0.0, max_value=1.0)


# ---------------------------------------------------------------------------
# SpherePoint basics
# ---------------------------------------------------------------------------


def test_point_rejects_bad_radius():
    with pytest.raises(InvalidInputError):
        SpherePoint(r=0.0, theta=1.0, phi=0.0)
    with pytest.raises(InvalidInputError):
        SpherePoint(r=-5.0, theta=1.0, phi=0.0)
    for r, phi in [(math.inf, 0.0), (math.nan, 0.0), (RS, math.nan), (RS, math.inf)]:
        with pytest.raises(InvalidInputError):
            SpherePoint(r=r, theta=1.0, phi=phi)


def test_unit_vector_round_trip():
    p = pt(RS, 0.7, 2.1)
    u = p.unit_vector()
    assert math.isclose(float(np.linalg.norm(u)), 1.0, abs_tol=1e-12)
    q = SpherePoint.from_unit_vector(u, RS)
    assert math.isclose(dome_angle(p, q), 0.0, abs_tol=1e-9)


@pytest.mark.parametrize(
    "theta", [1e-4, 2e-4, 3e-3, 5e-9, math.pi - 2e-4, math.pi - 5e-9]
)
def test_polar_angle_keeps_its_precision_near_the_poles(theta):
    q = SpherePoint.from_unit_vector(pt(RS, theta, 2.1).unit_vector(), RS)
    polar = min(q.theta, math.pi - q.theta)
    assert math.isclose(polar, min(theta, math.pi - theta), rel_tol=1e-14)


@given(theta=angles, phi=azimuths)
def test_unit_vector_components(theta, phi):
    u = pt(R, theta, phi).unit_vector()
    assert math.isclose(u[2], math.cos(theta), abs_tol=1e-12)
    assert math.isclose(
        math.hypot(u[0], u[1]), abs(math.sin(theta)), abs_tol=1e-12
    )


# ---------------------------------------------------------------------------
# chord_distance / dome_angle
# ---------------------------------------------------------------------------


def test_chord_at_sixty_degrees_equals_radius():
    # Separation pi/3 -> chord = 2 r sin(pi/6) = r.
    a = pt(R, 0.0, 0.0)
    b = pt(R, math.pi / 3.0, 0.0)
    assert math.isclose(chord_distance(a, b), R, rel_tol=1e-12)


def test_chord_at_quarter_turn_is_r_sqrt2():
    a = pt(RS, math.pi / 2.0, 0.0)
    b = pt(RS, math.pi / 2.0, math.pi / 2.0)
    assert math.isclose(chord_distance(a, b), RS * math.sqrt(2.0), rel_tol=1e-12)


def test_chord_antipodal_is_diameter():
    a = pt(R, 0.3, 1.0)
    b = pt(R, math.pi - 0.3, 1.0 + math.pi)
    assert math.isclose(chord_distance(a, b), 2.0 * R, rel_tol=1e-12)


@given(t1=angles, p1=azimuths, t2=angles, p2=azimuths)
def test_chord_matches_dome_relation(t1, p1, t2, p2):
    a, b = pt(RS, t1, p1), pt(RS, t2, p2)
    d = chord_distance(a, b)
    ang = dome_angle(a, b)
    assert d == chord_distance(b, a)
    assert 0.0 <= ang <= math.pi + 1e-12
    assert math.isclose(d, 2.0 * RS * math.sin(ang / 2.0), rel_tol=0, abs_tol=1e-6)


def random_points(rng, count):
    """``count`` points on the 550 km shell at least 0.05 rad off the poles."""
    thetas = rng.uniform(0.05, math.pi - 0.05, count)
    phis = rng.uniform(0.0, 2.0 * math.pi, count)
    return [pt(RS, t, p) for t, p in zip(thetas, phis)]


@pytest.mark.parametrize("gap", [1e-9, 1e-7, 1e-5, 1e-3])
def test_close_meridian_pairs_measure_their_separation(gap):
    # theta_b - theta_a is exact (Sterbenz), so it is the true separation;
    # the unit vectors' rounding (~1e-16 rad) is all the error left.
    for a in random_points(np.random.default_rng(5), 500):
        b = pt(RS, a.theta + gap, a.phi)
        exact = b.theta - a.theta
        assert abs(dome_angle(a, b) - exact) <= 1e-15 + 1e-12 * exact
        chord = 2.0 * RS * math.sin(exact / 2.0)
        assert abs(chord_distance(a, b) - chord) <= RS * (1e-15 + 1e-12 * exact)


def test_dome_angle_mismatched_radii_rejected():
    with pytest.raises(InvalidInputError):
        dome_angle(pt(R, 1.0, 0.0), pt(RS, 1.0, 0.0))


# ---------------------------------------------------------------------------
# slerp
# ---------------------------------------------------------------------------


@given(t1=angles, p1=azimuths, t2=angles, p2=azimuths, t=fractions)
@settings(max_examples=200)
def test_slerp_splits_angle_proportionally(t1, p1, t2, p2, t):
    a, b = pt(RS, t1, p1), pt(RS, t2, p2)
    total = dome_angle(a, b)
    if total < 1e-9 or total > math.pi - 1e-3:
        return
    m = slerp(a, b, t)
    assert math.isclose(m.r, RS, rel_tol=1e-12)
    # Near antipodal endpoints the split loses digits as 1 / (pi - total).
    tol = 1e-14 + 1e-15 / (math.pi - total)
    assert math.isclose(dome_angle(a, m), t * total, abs_tol=tol)
    assert math.isclose(dome_angle(m, b), (1.0 - t) * total, abs_tol=tol)


def test_slerp_on_close_pairs_agrees_with_coincident():
    """Pairs 3e-10 to 1e-8 rad apart straddle the coincidence threshold:
    slerp never calls them antipodal, returns ``a`` itself exactly for the
    pairs :func:`coincident` names, and splits the others proportionally."""
    rng = np.random.default_rng(11)
    for a, gap in zip(random_points(rng, 2000), np.geomspace(3e-10, 1e-8, 2000)):
        ua = a.unit_vector()
        tangent = np.cross(ua, rng.normal(size=3))
        tangent /= np.linalg.norm(tangent)
        b = SpherePoint.from_unit_vector(math.cos(gap) * ua + math.sin(gap) * tangent, RS)
        t = float(rng.uniform())
        m = slerp(a, b, t)
        assert (m is a) == coincident(ua, b.unit_vector())
        if m is not a:
            total = dome_angle(a, b)
            assert math.isclose(dome_angle(a, m), t * total, abs_tol=1e-14)
            assert math.isclose(dome_angle(m, b), (1.0 - t) * total, abs_tol=1e-14)


def test_slerp_endpoints_exact():
    a, b = pt(R, 0.4, 0.1), pt(R, 1.9, 2.7)
    assert dome_angle(slerp(a, b, 0.0), a) < 1e-12
    assert dome_angle(slerp(a, b, 1.0), b) < 1e-12


def test_slerp_antipodal_degenerate():
    a = pt(R, 0.2, 0.0)
    b = pt(R, math.pi - 0.2, math.pi)
    with pytest.raises(DegenerateArcError):
        slerp(a, b, 0.5)


def test_slerp_matches_colatitude_frame():
    """Interpolation agrees with the pole-at-midpoint colatitude construction.

    Relay i of n sits at colatitude (arc/2)*|2 i/n - 1| in the frame whose
    pole is the arc midpoint, on the source azimuth for the first half and
    the destination azimuth after the crossing.  Built directly in that
    frame, the relays must coincide with frame-free interpolation.
    """
    # Arcs approaching pi are excluded: within ~1e-6 of antipodal the
    # interpolation problem itself is ill-conditioned in double precision.
    for arc in (0.8, 1.7, 2.6, 3.1):
        for n in (2, 3, 5, 9, 10):
            half = arc / 2.0
            src = pt(RS, half, 0.0)
            dst = pt(RS, half, math.pi)
            for i in range(n + 1):
                colat = half * abs(2.0 * i / n - 1.0)
                phi = 0.0 if i < n / 2.0 + 1e-12 else math.pi
                expected = pt(RS, colat, phi) if colat > 0 else pt(RS, 0.0, 0.0)
                got = slerp(src, dst, i / n)
                # Unit-vector gap equals the angular gap (to second order)
                # and is numerically stable down to machine precision.
                gap = np.linalg.norm(expected.unit_vector() - got.unit_vector())
                assert gap < 1e-9


# ---------------------------------------------------------------------------
# great_arc and the antipodal convention
# ---------------------------------------------------------------------------


def test_great_arc_points_and_normal():
    a, b = pt(1.0, 0.4, 0.1), pt(1.0, 1.9, 2.7)
    ua, ub = a.unit_vector(), b.unit_vector()
    ts = np.array([0.0, 0.3, 1.0])
    points, normal = great_arc(ua, ub, ts)
    assert points.shape == (3, 3)
    for t, point in zip(ts, points):
        assert np.linalg.norm(point - slerp(a, b, float(t)).unit_vector()) < 1e-12
    assert math.isclose(float(np.linalg.norm(normal)), 1.0, rel_tol=1e-12)
    assert abs(float(normal @ ua)) < 1e-12 and abs(float(normal @ ub)) < 1e-12
    cross = np.cross(ua, ub)
    assert np.linalg.norm(normal - cross / np.linalg.norm(cross)) < 1e-15


def test_great_arc_antipodal_convention():
    # Equatorial antipodes: the half circle runs through the +z pole.
    ua, ub = np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0])
    points, normal = great_arc(ua, ub, np.array([0.5, 1.0]))
    assert np.linalg.norm(points[0] - np.array([0.0, 0.0, 1.0])) < 1e-12
    assert np.linalg.norm(points[1] - ub) < 1e-12
    assert abs(float(normal @ points[0])) < 1e-12
    # The poles themselves: the half circle runs through +x.
    north, south = np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])
    mid, _ = great_arc(north, south, 0.5)
    assert np.linalg.norm(mid - np.array([1.0, 0.0, 0.0])) < 1e-12
    with pytest.raises(DegenerateArcError):
        great_arc(ua, ua, 0.5)


# ---------------------------------------------------------------------------
# Deflection from an arc: |asin(u . n)| against great_arc's normal n
# ---------------------------------------------------------------------------


def deflection(p, a, b):
    _, normal = great_arc(a.unit_vector(), b.unit_vector(), 0.0)
    return abs(math.asin(float(p.unit_vector() @ normal)))


@given(t1=angles, p1=azimuths, t2=angles, p2=azimuths, t=fractions)
@settings(max_examples=200)
def test_points_on_arc_have_zero_deflection(t1, p1, t2, p2, t):
    ua, ub = pt(RS, t1, p1).unit_vector(), pt(RS, t2, p2).unit_vector()
    total = math.acos(min(max(float(ua @ ub), -1.0), 1.0))
    if total < 1e-3 or total > math.pi - 1e-3:
        return
    points, normal = great_arc(ua, ub, np.array([0.0, t, 1.0]))
    assert np.all(np.abs(points @ normal) < 1e-12)


def test_deflection_of_pole_from_equatorial_arc():
    # Arc along the equator; the pole is pi/2 off the arc plane.
    a = pt(R, math.pi / 2.0, 0.0)
    b = pt(R, math.pi / 2.0, 1.0)
    pole = pt(R, 1e-12, 0.0)
    assert math.isclose(deflection(pole, a, b), math.pi / 2.0, abs_tol=1e-6)


def test_deflection_symmetric_about_arc_plane():
    a = pt(R, math.pi / 2.0, 0.0)
    b = pt(R, math.pi / 2.0, 1.2)
    up = pt(R, math.pi / 2.0 - 0.3, 0.6)
    down = pt(R, math.pi / 2.0 + 0.3, 0.6)
    assert math.isclose(deflection(up, a, b), deflection(down, a, b), abs_tol=1e-12)


# ---------------------------------------------------------------------------
# los_chord_limit
# ---------------------------------------------------------------------------


def test_los_chord_limit_starlink_shell():
    # 2 sqrt(r^2 - r_earth^2) at the 550 km shell.
    assert math.isclose(los_chord_limit(RS, R), 5407.6, abs_tol=0.05)


def test_los_chord_limit_grazing_zero():
    assert los_chord_limit(R, R) == 0.0


def test_los_chord_limit_invalid():
    with pytest.raises(InvalidInputError):
        los_chord_limit(R - 1.0, R)

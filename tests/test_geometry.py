"""Sphere primitives: chords, dome angles, arc interpolation, deflection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leoroute import (
    DegenerateArcError,
    InvalidInputError,
    PhysicalConstants,
    SpherePoint,
    chord_distance,
    deflection_angle,
    dome_angle,
    great_arc,
    los_chord_limit,
    slerp,
)
from leoroute.geometry import arc_normal

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


def test_unit_vector_round_trip():
    p = pt(RS, 0.7, 2.1)
    u = p.unit_vector()
    assert math.isclose(float(np.linalg.norm(u)), 1.0, abs_tol=1e-12)
    q = SpherePoint.from_unit_vector(u, RS)
    assert math.isclose(dome_angle(p, q), 0.0, abs_tol=1e-9)


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
    if total < 1e-6 or total > math.pi - 1e-3:
        return
    m = slerp(a, b, t)
    assert math.isclose(m.r, RS, rel_tol=1e-12)
    # Chord-based angle measurement carries ~1e-8 float noise near zero
    # separation, so the proportionality check allows for it.
    assert math.isclose(dome_angle(a, m), t * total, abs_tol=5e-8)
    assert math.isclose(dome_angle(m, b), (1.0 - t) * total, abs_tol=5e-8)


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
    assert np.linalg.norm(normal - arc_normal(ua, ub)) < 1e-15


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


def test_point_level_arcs_reject_antipodal_endpoints():
    a, b = pt(R, 0.2, 0.0), pt(R, math.pi - 0.2, math.pi)
    with pytest.raises(DegenerateArcError):
        arc_normal(a.unit_vector(), b.unit_vector())
    with pytest.raises(DegenerateArcError):
        deflection_angle(pt(R, 1.0, 1.0), a, b)


# ---------------------------------------------------------------------------
# deflection_angle
# ---------------------------------------------------------------------------


@given(t1=angles, p1=azimuths, t2=angles, p2=azimuths, t=fractions)
@settings(max_examples=200)
def test_points_on_arc_have_zero_deflection(t1, p1, t2, p2, t):
    a, b = pt(RS, t1, p1), pt(RS, t2, p2)
    total = dome_angle(a, b)
    if total < 1e-3 or total > math.pi - 1e-3:
        return
    m = slerp(a, b, t)
    assert deflection_angle(m, a, b) < 1e-6


def test_deflection_of_pole_from_equatorial_arc():
    # Arc along the equator; the pole is pi/2 off the arc plane.
    a = pt(R, math.pi / 2.0, 0.0)
    b = pt(R, math.pi / 2.0, 1.0)
    pole = pt(R, 1e-12, 0.0)
    assert math.isclose(deflection_angle(pole, a, b), math.pi / 2.0, abs_tol=1e-6)


def test_deflection_symmetric_about_arc_plane():
    a = pt(R, math.pi / 2.0, 0.0)
    b = pt(R, math.pi / 2.0, 1.2)
    up = pt(R, math.pi / 2.0 - 0.3, 0.6)
    down = pt(R, math.pi / 2.0 + 0.3, 0.6)
    assert math.isclose(
        deflection_angle(up, a, b), deflection_angle(down, a, b), abs_tol=1e-12
    )


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


def test_constants_defaults():
    k = PhysicalConstants()
    assert k.r_earth == 6371.0
    assert k.c == 300.0

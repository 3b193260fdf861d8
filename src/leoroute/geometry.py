"""Pure spherical geometry on the constellation sphere.

Positions are spherical coordinates (radius, polar angle, azimuth); all
computations run on unit 3-vectors internally for numerical robustness near
the poles. Provides chord/dome-angle distances, great-circle interpolation
(:func:`slerp` on points, :func:`great_arc` on unit vectors, the one arc
parametrization the routing strategies share), and the line-of-sight chord
limit imposed by the occluding body.

Every point measure (:func:`dome_angle`, :func:`chord_distance`,
:func:`slerp`) uses the unit-vector measure of :func:`great_arc` and of every
route hop: the angle atan2(|u_a x u_b|, u_a . u_b) and the chord r |u_a - u_b|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateArcError, InvalidInputError

#: Tolerance below which two radii are considered equal (km, relative).
_RADIUS_RTOL = 1e-9
#: Dome angles above pi - this threshold are treated as antipodal.
_ANTIPODAL_THRESHOLD = 1e-9
#: Radius of the occluding body (the Earth) in km.
R_EARTH_KM = 6371.0
#: Signal propagation speed in km/ms.
SIGNAL_SPEED_KM_MS = 300.0


@dataclass(frozen=True)
class SpherePoint:
    """A point on a sphere in spherical coordinates.

    Attributes:
        r: Radial distance in km (> 0).
        theta: Polar angle in radians, in [0, pi].
        phi: Azimuth in radians, normalized to [0, 2*pi) on construction.
    """

    r: float
    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not 0 < self.r < math.inf:
            raise InvalidInputError(f"radius must be finite and > 0, got {self.r}")
        if not math.isfinite(self.phi):
            raise InvalidInputError(f"azimuth must be finite, got {self.phi}")
        if not -1e-12 <= self.theta <= math.pi + 1e-12:
            raise InvalidInputError(f"polar angle must be in [0, pi], got {self.theta}")
        object.__setattr__(self, "theta", min(max(self.theta, 0.0), math.pi))
        object.__setattr__(self, "phi", self.phi % (2.0 * math.pi))

    def unit_vector(self) -> np.ndarray:
        """Unit 3-vector pointing at this location."""
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )

    @classmethod
    def from_unit_vector(cls, vec: np.ndarray, r: float) -> "SpherePoint":
        """Build a point at radius ``r`` from a (not necessarily unit) 3-vector."""
        v = np.asarray(vec, dtype=float)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            raise InvalidInputError("zero vector has no direction")
        v = v / norm
        # acos(z) loses digits near a pole; atan2 of the distance from the
        # axis and z does not, anywhere.
        theta = math.atan2(math.hypot(v[0], v[1]), v[2])
        phi = math.atan2(v[1], v[0])
        return cls(r=r, theta=theta, phi=phi)


def _require_same_radius(a: SpherePoint, b: SpherePoint) -> float:
    if abs(a.r - b.r) > _RADIUS_RTOL * max(a.r, b.r):
        raise InvalidInputError(f"radii differ: {a.r} vs {b.r}")
    return a.r


def chord_distance(a: SpherePoint, b: SpherePoint) -> float:
    """Straight-line (chord) distance in km between two points on one sphere:
    r * |u_a - u_b|, the chord every route hop takes."""
    r = _require_same_radius(a, b)
    return r * float(np.linalg.norm(a.unit_vector() - b.unit_vector()))


def dome_angle(a: SpherePoint, b: SpherePoint) -> float:
    """Central angle in radians subtended by two points on one sphere, by
    the arc measure of :func:`great_arc`."""
    _require_same_radius(a, b)
    return _arc_measure(a.unit_vector(), b.unit_vector())[2]


def great_arc(
    ua: np.ndarray, ub: np.ndarray, t: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Points at arc fractions ``t`` from ``ua`` to ``ub``, and the arc's normal.

    Works on unit 3-vectors and follows the shorter arc, so ``t`` = 0 gives
    ``ua`` and ``t`` = 1 gives ``ub``. Antipodal endpoints have no unique
    connecting arc; the half great circle through the +z pole (through +x
    when the endpoints are the poles themselves) is taken so results stay
    deterministic.

    Returns:
        The points, shaped ``t``'s shape + (3,), and the unit normal of the
        arc's plane (oriented so the arc runs counter-clockwise about it).

    Raises:
        DegenerateArcError: If the endpoints coincide.
    """
    arc, sin_arc, normal, quarter = _arc_frame(ua, ub)
    t = np.asarray(t, dtype=float)[..., None]
    if quarter is None:
        points = (np.sin((1.0 - t) * arc) * ua + np.sin(t * arc) * ub) / sin_arc
    else:
        points = np.cos(t * math.pi) * ua + np.sin(t * math.pi) * quarter
    return points, normal


def arc_normal(ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """The normal :func:`great_arc` returns, without computing any point.

    Raises:
        DegenerateArcError: If the endpoints coincide.
    """
    return _arc_frame(ua, ub)[2]


def _arc_frame(
    ua: np.ndarray, ub: np.ndarray
) -> tuple[float, float, np.ndarray, np.ndarray | None]:
    """Angle, its sine and unit normal of the arc from ``ua`` to ``ub``.

    The last entry is None, or for antipodal endpoints the point a quarter
    turn along the conventional half great circle.
    """
    cross, sin_arc, arc = _arc_measure(ua, ub)
    if arc < _ANTIPODAL_THRESHOLD:
        raise DegenerateArcError("endpoints coincide; no arc to follow")
    if arc < math.pi - _ANTIPODAL_THRESHOLD:
        return arc, sin_arc, cross / sin_arc, None
    pole = np.array([0.0, 0.0, 1.0])
    if abs(float(ua @ pole)) > 1.0 - 1e-9:
        pole = np.array([1.0, 0.0, 0.0])
    quarter = pole - float(pole @ ua) * ua
    quarter /= np.linalg.norm(quarter)
    return arc, sin_arc, _cross(ua, quarter), quarter


def coincident(ua: np.ndarray, ub: np.ndarray) -> bool:
    """True when unit vectors ``ua`` and ``ub`` have no arc between them.

    Uses the arc measure and threshold of :func:`great_arc`, which raises
    for exactly these pairs.
    """
    return _arc_measure(ua, ub)[2] < _ANTIPODAL_THRESHOLD


def _arc_measure(ua: np.ndarray, ub: np.ndarray) -> tuple[np.ndarray, float, float]:
    """ua x ub, its length and the angle atan2(|ua x ub|, ua . ub).

    The atan2 form resolves every separation, down to angles whose cosine
    rounds to 1.
    """
    cross = _cross(ua, ub)
    sin_arc = math.sqrt(float(cross @ cross))
    return cross, sin_arc, math.atan2(sin_arc, float(ua @ ub))


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of two 3-vectors (``np.cross`` costs 10x more here)."""
    return np.array(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


def slerp(a: SpherePoint, b: SpherePoint, t: float) -> SpherePoint:
    """Interpolate along the shortest inferior arc from ``a`` to ``b``.

    Args:
        a: Arc start.
        b: Arc end; must not be antipodal to ``a``.
        t: Arc fraction in [0, 1]; t=0 gives ``a``, t=1 gives ``b``.

    Returns:
        The point whose dome angle from ``a`` is ``t`` times the total.

    Raises:
        DegenerateArcError: If the endpoints are antipodal (arc undefined).
        InvalidInputError: If ``t`` is outside [0, 1] or radii differ.
    """
    r = _require_same_radius(a, b)
    if not 0.0 <= t <= 1.0:
        raise InvalidInputError(f"arc fraction must be in [0, 1], got {t}")
    ua, ub = a.unit_vector(), b.unit_vector()
    omega = _arc_measure(ua, ub)[2]
    if omega >= math.pi - _ANTIPODAL_THRESHOLD:
        raise DegenerateArcError("antipodal endpoints: shortest arc is undefined")
    if omega < _ANTIPODAL_THRESHOLD:
        return a
    point, _ = great_arc(ua, ub, t)
    return SpherePoint.from_unit_vector(point, r)


def los_chord_limit(r: float, r_earth: float) -> float:
    """Longest chord in km between sphere points not occluded by the body.

    Args:
        r: Sphere radius in km; must satisfy r >= r_earth.
        r_earth: Radius of the occluding body in km (>= 0).
    """
    if r_earth < 0:
        raise InvalidInputError(f"r_earth must be >= 0, got {r_earth}")
    if r < r_earth:
        raise InvalidInputError(f"sphere radius {r} is below the occluding radius {r_earth}")
    return 2.0 * math.sqrt(r * r - r_earth * r_earth)

"""Pure spherical geometry on the constellation sphere.

Positions are spherical coordinates (radius, polar angle, azimuth); all
computations run on unit 3-vectors internally for numerical robustness near
the poles. Provides chord/dome-angle distances, great-circle interpolation
(:func:`slerp` on points, :func:`great_arc` on unit vectors, the one arc
parametrization the routing strategies share), deflection from a
great-circle plane, and the line-of-sight chord limit imposed by the
occluding body.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateArcError, InvalidInputError

#: Tolerance below which two radii are considered equal (km, relative).
_RADIUS_RTOL = 1e-9
#: Dome angles above pi - this threshold are treated as antipodal.
ANTIPODAL_THRESHOLD = 1e-9


@dataclass(frozen=True)
class PhysicalConstants:
    """Physical constants of the propagation environment.

    Attributes:
        r_earth: Radius of the occluding body in km.
        c: Signal propagation speed in km/ms.
    """

    r_earth: float = 6371.0
    c: float = 300.0

    def __post_init__(self) -> None:
        if self.r_earth <= 0:
            raise InvalidInputError(f"r_earth must be > 0, got {self.r_earth}")
        if self.c <= 0:
            raise InvalidInputError(f"c must be > 0, got {self.c}")


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
        if not self.r > 0:
            raise InvalidInputError(f"radius must be > 0, got {self.r}")
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
        theta = math.acos(min(max(v[2], -1.0), 1.0))
        phi = math.atan2(v[1], v[0])
        return cls(r=r, theta=theta, phi=phi)


def _require_same_radius(a: SpherePoint, b: SpherePoint) -> float:
    if abs(a.r - b.r) > _RADIUS_RTOL * max(a.r, b.r):
        raise InvalidInputError(f"radii differ: {a.r} vs {b.r}")
    return a.r


def chord_distance(a: SpherePoint, b: SpherePoint) -> float:
    """Straight-line (chord) distance in km between two points on one sphere."""
    r = _require_same_radius(a, b)
    inner = (
        1.0
        - math.cos(a.theta) * math.cos(b.theta)
        - math.sin(a.theta) * math.sin(b.theta) * math.cos(a.phi - b.phi)
    )
    return r * math.sqrt(2.0 * max(inner, 0.0))


def dome_angle(a: SpherePoint, b: SpherePoint) -> float:
    """Central angle in radians subtended by two points on one sphere."""
    r = _require_same_radius(a, b)
    half = chord_distance(a, b) / (2.0 * r)
    return 2.0 * math.asin(min(max(half, -1.0), 1.0))


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
    cross = _cross(ua, ub)
    sin_arc = math.sqrt(float(cross @ cross))
    arc = math.atan2(sin_arc, float(ua @ ub))
    if arc < ANTIPODAL_THRESHOLD:
        raise DegenerateArcError("endpoints coincide; no arc to follow")
    t = np.asarray(t, dtype=float)[..., None]
    if arc < math.pi - ANTIPODAL_THRESHOLD:
        points = (np.sin((1.0 - t) * arc) * ua + np.sin(t * arc) * ub) / sin_arc
        return points, cross / sin_arc
    pole = np.array([0.0, 0.0, 1.0])
    if abs(float(ua @ pole)) > 1.0 - 1e-9:
        pole = np.array([1.0, 0.0, 0.0])
    u = pole - float(pole @ ua) * ua
    u /= np.linalg.norm(u)
    points = np.cos(t * math.pi) * ua + np.sin(t * math.pi) * u
    return points, _cross(ua, u)


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
    omega = dome_angle(a, b)
    if omega > math.pi - ANTIPODAL_THRESHOLD:
        raise DegenerateArcError("antipodal endpoints: shortest arc is undefined")
    if omega < ANTIPODAL_THRESHOLD:
        return a
    point, _ = great_arc(a.unit_vector(), b.unit_vector(), t)
    return SpherePoint.from_unit_vector(point, r)


def deflection_angle(p: SpherePoint, a: SpherePoint, b: SpherePoint) -> float:
    """Angular distance in radians from ``p`` to the great circle through a, b.

    Defined frame-independently as |pi/2 - angle(p, n)| where n is the normal
    of the plane spanned by ``a`` and ``b``; zero iff ``p`` lies on that
    great circle. Always in [0, pi/2].

    Raises:
        DegenerateArcError: If ``a`` and ``b`` are antipodal or coincident in
            direction (the plane is undefined).
    """
    normal = arc_normal(a.unit_vector(), b.unit_vector())
    s = float(np.dot(p.unit_vector(), normal))
    return abs(math.asin(min(max(s, -1.0), 1.0)))


def arc_normal(ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Unit normal of the great-circle plane through two unit vectors.

    Raises:
        DegenerateArcError: If the vectors are parallel or antiparallel.
    """
    sin_arc = np.linalg.norm(np.cross(ua, ub))
    if sin_arc < ANTIPODAL_THRESHOLD and float(ua @ ub) < 0.0:
        raise DegenerateArcError("great-circle plane undefined for antipodal points")
    return great_arc(ua, ub, 0.0)[1]


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

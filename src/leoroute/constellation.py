"""Satellite sets on a sphere: uniform sampling, presets, nearest queries.

Satellites are drawn i.i.d. uniformly on the constellation sphere (a
binomial point process): cos(theta) uniform on [-1, 1] and phi uniform on
[0, 2*pi). A constellation keeps its satellites as read-only unit-vector
rows, and satellite IDs are 0-based row indices.
:func:`sample_bpp_band` draws the random numbers of a whole
:func:`sample_bpp` shell but builds only the rows of its satellites with
|u_y| <= s, bit for bit as :func:`sample_bpp` builds them.

:func:`sample_band_counts`, :func:`sample_patches` (or
:func:`sample_bands`, its unit rows) and :func:`sample_band_complement`
draw the same process in two parts, split at
a patch: the band |u_y| <= s around the xz great circle, cut to the
longitudes |phi - pi/2| <= L about the y axis, phi = atan2(u_z, u_x)
(L = pi keeps the whole band). First they draw how many satellites fall
inside the patch and where, for a batch of shells at once, then, only when
asked, the rest of one shell: the band outside the patch and everything
outside the band. By the restriction property of the binomial point
process the two parts together are ``n_sat`` i.i.d. uniform satellites,
whichever generators draw them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import AbstractSet, Iterable, Sequence

import numpy as np

from .errors import InvalidInputError, NoCandidateError
from .geometry import SpherePoint

#: Known constellation shells: name -> (altitude_km, n_sat).
PRESET_PARAMS: dict[str, tuple[float, int]] = {
    "starlink": (550.0, 11927),
    "oneweb": (1200.0, 650),
    "kuiper": (610.0, 3236),
}


@dataclass(frozen=True)
class Constellation:
    """An immutable satellite set on a sphere of radius r_earth + altitude.

    Attributes:
        r_earth: Occluding-body radius in km.
        altitude: Shell altitude above it in km.
        unit_vectors: (n_sat, 3) array of unit direction vectors, read-only.
    """

    r_earth: float
    altitude: float
    unit_vectors: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        units = np.asarray(self.unit_vectors, dtype=float)
        if units.ndim != 2 or units.shape[1] != 3 or units.shape[0] < 1:
            raise InvalidInputError("unit_vectors must be a non-empty (n, 3) array")
        if not np.isfinite(units).all():
            raise InvalidInputError("unit_vectors must be finite")
        if not np.linalg.norm(units, axis=1).all():
            raise InvalidInputError("zero vector has no direction")
        units = _normalized(units)
        units.setflags(write=False)
        object.__setattr__(self, "unit_vectors", units)
        _check_sphere(self.r_earth, self.altitude)

    @classmethod
    def from_unit_rows(
        cls, r_earth: float, altitude: float, units: np.ndarray
    ) -> "Constellation":
        """A constellation over rows that are unit vectors already.

        The rows are kept bit for bit (not normalized again) and the array
        is made read-only; the caller vouches for the shape and the values.
        """
        c = object.__new__(cls)
        units.setflags(write=False)
        object.__setattr__(c, "r_earth", r_earth)
        object.__setattr__(c, "altitude", altitude)
        object.__setattr__(c, "unit_vectors", units)
        return c

    @property
    def radius(self) -> float:
        """Sphere radius in km."""
        return self.r_earth + self.altitude

    @property
    def n_sat(self) -> int:
        """Number of satellites."""
        return int(self.unit_vectors.shape[0])

    def with_extra_points(self, points: Sequence[SpherePoint]) -> "Constellation":
        """A new constellation with ``points`` appended at the next IDs.

        Only the appended rows are normalized; the existing ones are kept
        bit for bit.
        """
        for p in points:
            if abs(p.r - self.radius) > 1e-9 * self.radius:
                raise InvalidInputError("extra points must lie on the constellation sphere")
        units = np.vstack([self.unit_vectors, point_rows(points)])
        return Constellation.from_unit_rows(self.r_earth, self.altitude, units)


def _check_sphere(r_earth: float, altitude: float) -> None:
    if not (0 < r_earth < math.inf and 0 <= altitude < math.inf):
        raise InvalidInputError(
            "require a finite r_earth > 0 and a finite altitude >= 0"
        )


def _normalized(units: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.divide(units, np.linalg.norm(units, axis=1)[:, None], out=out)


def point_rows(points: Sequence[SpherePoint]) -> np.ndarray:
    """Unit-vector rows of ``points``, as a constellation stores them."""
    return _normalized(np.array([p.unit_vector() for p in points]).reshape(-1, 3))


def _bpp_draw(n_sat: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cos(theta), phi and sin(theta) of the ``n_sat`` satellites that
    ``seed`` draws."""
    if n_sat < 1:
        raise InvalidInputError(f"n_sat must be >= 1, got {n_sat}")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    cos_theta = rng.uniform(-1.0, 1.0, n_sat)
    phi = rng.uniform(0.0, 2.0 * math.pi, n_sat)
    sin_theta = np.square(cos_theta)
    np.sqrt(np.subtract(1.0, sin_theta, out=sin_theta), out=sin_theta)
    return cos_theta, phi, sin_theta


def _bpp_rows(
    cos_theta: np.ndarray, phi: np.ndarray, sin_theta: np.ndarray
) -> np.ndarray:
    """Unit rows of the satellites at polar angles theta and longitudes phi,
    each row bit for bit the same for any subset of satellites."""
    # Built and normalized in one array, as the constructor would normalize
    # them, without its copies.
    units = np.empty((len(phi), 3))
    np.multiply(sin_theta, np.cos(phi), out=units[:, 0])
    np.multiply(sin_theta, np.sin(phi), out=units[:, 1])
    units[:, 2] = cos_theta
    return _normalized(units, out=units)


def sample_bpp(n_sat: int, r_earth: float, altitude: float, seed: int) -> Constellation:
    """Sample ``n_sat`` i.i.d. uniform satellites on the shell sphere.

    Bit-reproducible for a given seed.

    Raises:
        InvalidInputError: If ``n_sat`` < 1 or ``seed`` < 0.
    """
    units = _bpp_rows(*_bpp_draw(n_sat, seed))
    return Constellation.from_unit_rows(r_earth, altitude, units)


#: Relative margin of the band draw's trig-free bound, far above its
#: rounding error.
_BAND_MARGIN = 1e-9


def sample_bpp_band(n_sat: int, seed: int, s: float) -> tuple[np.ndarray, np.ndarray]:
    """IDs and unit rows of the satellites of
    ``sample_bpp(n_sat, r_earth, altitude, seed)`` with |u_y| <= s, in ID
    order, bit for bit; the other rows are never built.

    With d = |phi - pi rint(phi / pi)|, |u_y| = sin(theta) |sin(phi)| >=
    sin(theta) 2 d / pi, so every satellite of the band has
    d sin(theta) <= s pi / 2. Only the satellites that meet this bound (with
    a relative margin for rounding) are turned into rows, and the rows are
    then held to |u_y| <= s exactly.

    Raises:
        InvalidInputError: If ``n_sat`` < 1, ``seed`` < 0 or s is outside
            [0, 1].
    """
    _check_band(s)
    cos_theta, phi, sin_theta = _bpp_draw(n_sat, seed)
    ids = None
    # A band of sine 1 is the whole sphere, which no bound narrows.
    if s < 1.0:
        d = np.divide(phi, math.pi)
        np.rint(d, out=d)
        d *= -math.pi
        d += phi
        np.abs(d, out=d)
        d *= sin_theta
        ids = np.flatnonzero(d <= 0.5 * math.pi * s * (1.0 + _BAND_MARGIN))
        # Freed before the rows are made, so the draw's peak stays at its
        # three whole-shell arrays.
        del d
        cos_theta, phi, sin_theta = cos_theta[ids], phi[ids], sin_theta[ids]
    rows = _bpp_rows(cos_theta, phi, sin_theta)
    keep = np.flatnonzero(np.abs(rows[:, 1]) <= s)
    return (keep if ids is None else ids[keep]), rows[keep]


def _unit_rows(rows: np.ndarray, y: np.ndarray, phi: np.ndarray) -> None:
    """Write the unit rows at height ``y`` on the y axis and longitude
    ``phi`` about it into ``rows``, overwriting ``y``. The rows are unit
    vectors to rounding and are not normalized again."""
    rows[..., 1] = y
    rho = np.sqrt(np.subtract(1.0, np.square(y, out=y), out=y), out=y)
    np.multiply(np.cos(phi, out=rows[..., 0]), rho, out=rows[..., 0])
    np.multiply(np.sin(phi, out=rows[..., 2]), rho, out=rows[..., 2])


def _check_band(sin_halfwidth: float) -> None:
    if not 0.0 <= sin_halfwidth <= 1.0:
        raise InvalidInputError(
            f"band half-width sine must be in [0, 1], got {sin_halfwidth}"
        )


def _check_span(span: float) -> None:
    if not 0.0 < span <= math.pi:
        raise InvalidInputError(f"patch half-span must be in (0, pi], got {span}")


def sample_band_counts(
    rng: np.random.Generator,
    n_sat: int,
    s: float,
    size: int,
    span: float = math.pi,
) -> np.ndarray:
    """How many of ``n_sat`` uniform satellites fall inside the patch
    |u_y| <= s, |phi - pi/2| <= ``span``, for each of ``size`` shells, in
    one call.

    On a uniform sphere u_y is uniform on [-1, 1] and the longitude phi is
    uniform and independent of it, so a patch holds
    K ~ Binomial(n_sat, s span / pi) satellites.

    Raises:
        InvalidInputError: If ``n_sat`` < 1, s is outside [0, 1] or
            ``span`` outside (0, pi].
    """
    if n_sat < 1:
        raise InvalidInputError(f"n_sat must be >= 1, got {n_sat}")
    _check_band(s)
    _check_span(span)
    return rng.binomial(n_sat, s * (span / math.pi), size)


def sample_patches(
    rng: np.random.Generator,
    counts: Sequence[int],
    s: float,
    span: float = math.pi,
) -> tuple[np.ndarray, np.ndarray]:
    """Heights u_y and longitudes phi of the satellites of patches
    |u_y| <= s, |phi - pi/2| <= ``span`` that hold ``counts[b]``
    satellites each: shell b's are ``[b, :counts[b]]`` of two (B, max K + 2)
    arrays, whose other entries are padding.

    Each satellite of a patch is uniform in it. One ``random`` call draws
    2 K uniforms a patch, patch after patch: its K heights, then its K
    longitudes, bit for bit ``uniform(-s, s)`` and ``uniform`` calls on
    [pi/2 - span, pi/2 + span] ([0, 2 pi] for the whole band). So drawing
    the patches in one batch or in several, in order, gives the same
    satellites.

    Raises:
        InvalidInputError: If s is outside [0, 1] or ``span`` outside
            (0, pi].
    """
    _check_band(s)
    _check_span(span)
    width = max(counts, default=0) + 2
    heights, longitudes = uniforms = np.zeros((2, len(counts), width))
    drawn = rng.random(2 * sum(counts))
    at = 0
    for b, k in enumerate(counts):
        uniforms[:, b, :k] = drawn[at : at + 2 * k].reshape(2, k)
        at += 2 * k
    # Freed before the rows are made, so the draw's peak stays at the rows
    # and the padded uniforms.
    del drawn
    _scale(heights, -s, s)
    if span < math.pi:
        _scale(longitudes, 0.5 * math.pi - span, 0.5 * math.pi + span)
    else:
        _scale(longitudes, 0.0, 2.0 * math.pi)
    return heights, longitudes


def sample_bands(
    rng: np.random.Generator,
    counts: Sequence[int],
    s: float,
    span: float = math.pi,
) -> np.ndarray:
    """The satellites of :func:`sample_patches`' patches as unit rows:
    shell b's are ``rows[b, :counts[b]]`` of one zero-padded
    (B, max K + 2, 3) array, which keeps two rows for each shell's
    endpoints. One pass turns the batch to rows.

    Raises:
        InvalidInputError: If s is outside [0, 1] or ``span`` outside
            (0, pi].
    """
    heights, longitudes = sample_patches(rng, counts, s, span)
    rows = unit_rows(heights, longitudes)
    for b, k in enumerate(counts):
        rows[b, k:] = 0.0
    return rows


def unit_rows(heights: np.ndarray, longitudes: np.ndarray) -> np.ndarray:
    """Unit rows of the satellites at ``heights`` u_y and ``longitudes``
    phi = atan2(u_z, u_x), overwriting ``heights``; each row is bit for bit
    the same whichever other satellites the arrays hold."""
    rows = np.empty(heights.shape + (3,))
    _unit_rows(rows, heights, longitudes)
    return rows


def _scale(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """Map the uniforms ``u`` on [0, 1) onto [low, high) in place, bit for
    bit as ``Generator.uniform(low, high)`` maps them."""
    u *= high - low
    u += low
    return u


def sample_band_complement(
    rng: np.random.Generator, s: float, out: np.ndarray, span: float = math.pi
) -> None:
    """Write into ``out`` the unit rows of ``len(out)`` satellites uniform
    outside the patch |u_y| <= s, |phi - pi/2| <= ``span``: in the band
    outside the patch's longitudes, or outside the band.

    3 ``len(out)`` uniforms give each satellite its magnitude |u_y| from u,
    its sign (negative below 1/2) and its longitude from v. A share
    q = s (pi - span) / (pi - s span) of the complement lies in the band.
    There (u < q), |u_y| = (s / q) u and the longitude is v mapped onto
    [pi/2 + span, 5 pi/2 - span]; elsewhere |u_y| is u - q mapped from
    [0, 1 - q) onto [s, 1] and the longitude v mapped onto [0, 2 pi], each
    map as ``uniform`` makes it. For the whole band (q = 0) the rows are
    bit for bit those of ``uniform``, ``random`` and ``uniform`` calls.

    Raises:
        InvalidInputError: If s is outside [0, 1] or ``span`` outside
            (0, pi].
    """
    _check_band(s)
    _check_span(span)
    y, sign, longitudes = rng.random(3 * len(out)).reshape(3, len(out))
    rest = math.pi - s * span
    share = s * (math.pi - span) / rest if rest > 0.0 else 0.0
    inside = y < share
    # Taken before the rest's formulas overwrite the uniforms.
    band_y = y[inside] * (s / share if share > 0.0 else 0.0)
    band_phi = _scale(longitudes[inside], 0.5 * math.pi + span, 2.5 * math.pi - span)
    if share < 1.0:
        y -= share
        y *= (1.0 - s) / (1.0 - share)
        y += s
    _scale(longitudes, 0.0, 2.0 * math.pi)
    y[inside] = band_y
    longitudes[inside] = band_phi
    np.negative(y, out=y, where=sign < 0.5)
    _unit_rows(out, y, longitudes)


def nearest(
    c: Constellation, target: np.ndarray, exclude: AbstractSet[int] = frozenset()
) -> int:
    """ID of the satellite closest (by chord) to the direction ``target``.

    ``target`` is a unit 3-vector (``SpherePoint.unit_vector()`` gives one
    for a point). Ties break to the lowest ID; IDs in ``exclude`` outside
    the constellation are ignored.

    Raises:
        NoCandidateError: If every satellite is excluded.
    """
    dots = c.unit_vectors @ target
    if exclude:
        idx = np.fromiter(exclude, dtype=np.int64, count=len(exclude))
        dots[idx[(idx >= 0) & (idx < len(dots))]] = -2.0
    best = int(np.argmax(dots))
    if dots[best] == -2.0:
        raise NoCandidateError("all satellites excluded from nearest-satellite query")
    return best


#: Layout of the constellation file: version 2 stores unit-vector rows,
#: version 1 (no ``version`` field) polar angles.
_FILE_VERSION = 2


def save_constellation(c: Constellation, path: str | Path) -> None:
    """Write a constellation to a JSON file: its header, then each
    satellite's unit-vector row, which JSON floats keep bit for bit."""
    payload = {
        "version": _FILE_VERSION,
        "r_earth_km": c.r_earth,
        "altitude_km": c.altitude,
        "satellites": c.unit_vectors.tolist(),
    }
    Path(path).write_text(json.dumps(payload, indent=2))


def load_constellation(path: str | Path) -> Constellation:
    """Read a constellation written by :func:`save_constellation`: the rows
    of a version 2 file bit for bit, or the polar angles of a version 1
    file, turned into rows.

    Raises:
        InvalidInputError: If the file is not such a constellation, or a
            version 2 row is not a finite unit vector (to 1e-12).
    """
    text = Path(path).read_text()
    try:
        payload = json.loads(text)
        r_earth = float(payload["r_earth_km"])
        altitude = float(payload["altitude_km"])
        sats: Iterable = payload["satellites"]
        version = payload.get("version", 1)
        if version == 1:
            units = np.array(
                [
                    SpherePoint(
                        r=r_earth + altitude, theta=s["theta_rad"], phi=s["phi_rad"]
                    ).unit_vector()
                    for s in sats
                ]
            )
        elif version == _FILE_VERSION:
            units = np.array(sats, dtype=float)
            if units.ndim != 2 or units.shape[1:] != (3,) or not len(units):
                raise ValueError("satellites must be a non-empty list of 3-vectors")
            norms = np.linalg.norm(units, axis=1)
            if not (np.abs(norms - 1.0) <= 1e-12).all():
                raise ValueError("satellites must be finite unit vectors")
        else:
            raise ValueError(f"unknown version {version!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed constellation file {path}: {exc}") from exc
    if version == 1:
        return Constellation(r_earth=r_earth, altitude=altitude, unit_vectors=units)
    _check_sphere(r_earth, altitude)
    return Constellation.from_unit_rows(r_earth, altitude, units)

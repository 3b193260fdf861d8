"""Satellite sets on a sphere: uniform sampling, presets, nearest queries.

Satellites are drawn i.i.d. uniformly on the constellation sphere (a
binomial point process): cos(theta) uniform on [-1, 1] and phi uniform on
[0, 2*pi). A constellation keeps its satellites as read-only unit-vector
rows, and satellite IDs are 0-based row indices.
:func:`sample_bpp_band` draws the random numbers of a whole
:func:`sample_bpp` shell but builds only the rows of its satellites with
|u_y| <= s, bit for bit as :func:`sample_bpp` builds them.

:func:`sample_band_counts`, :func:`sample_bands` and
:func:`sample_band_complement` draw the same process in two parts, split
at a region of the band |u_y| <= s around the xz great circle: its
satellites whose longitudes phi = atan2(u_z, u_x) about the y axis lie in
one of ``count`` equal windows, |phi - (first + j pitch)| <= r. One window
|phi - pi/2| <= L is a patch of the band around the arc's midpoint, and
:data:`WHOLE_BAND` the whole band. First they draw how many satellites
fall inside the region and where, for a batch of shells at once, then,
only when asked, the rest of one shell: the band between the windows and
everything outside the band. By the restriction property of the binomial
point process the two parts together are ``n_sat`` i.i.d. uniform
satellites, whichever generators draw them.
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
    # The sum of squares and root of np.linalg.norm, without its wrapper.
    return np.divide(units, np.sqrt((units * units).sum(axis=1))[:, None], out=out)


def point_rows(points: Sequence[SpherePoint]) -> np.ndarray:
    """Unit-vector rows of ``points``, as a constellation stores them."""
    return _normalized(np.array([p.unit_vector() for p in points]).reshape(-1, 3))


def _bpp_draw(n_sat: int, seed: int) -> np.ndarray:
    """cos(theta), and the uniform v of phi = 2 pi v, of the ``n_sat``
    satellites that ``seed`` draws, the rows of one (2, n_sat) array."""
    if n_sat < 1:
        raise InvalidInputError(f"n_sat must be >= 1, got {n_sat}")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    draw = np.empty((2, n_sat))
    # Bit for bit uniform(-1, 1), then the uniforms of uniform(0, 2 pi).
    _scale(rng.random(out=draw[0]), -1.0, 1.0)
    rng.random(out=draw[1])
    return draw


def _bpp_rows(cos_theta: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Unit rows of the satellites at polar angles theta and longitudes phi =
    2 pi v (written over ``v``), each bit for bit the same in any subset."""
    phi = _scale(v, 0.0, 2.0 * math.pi)
    sin_theta = np.square(cos_theta)
    np.sqrt(np.subtract(1.0, sin_theta, out=sin_theta), out=sin_theta)
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
    (d / pi)^2 (1 - cos(theta)^2) <= (s / 2)^2, d / pi = |2 v - rint(2 v)|
    for phi = 2 pi v. Only the satellites that meet this bound (with a
    relative margin for rounding) are turned into rows, and the rows are
    then held to |u_y| <= s exactly.

    Raises:
        InvalidInputError: If ``n_sat`` < 1, ``seed`` < 0 or s is outside
            [0, 1].
    """
    _check_band(s)
    draw = _bpp_draw(n_sat, seed)
    ids = None
    # A band of sine 1 is the whole sphere, which no bound narrows.
    if s < 1.0:
        cos_theta, v = draw
        bound = np.multiply(v, 2.0)
        bound -= np.rint(bound)
        bound *= bound
        sin_squared = np.square(cos_theta)
        bound *= np.subtract(1.0, sin_squared, out=sin_squared)
        (ids,) = (bound <= (0.5 * s * (1.0 + _BAND_MARGIN)) ** 2).nonzero()
        # Freed before the rows are made, so the draw's peak stays at its
        # whole-shell arrays.
        del bound, sin_squared
        draw = draw.take(ids, axis=1)
    rows = _bpp_rows(*draw)
    (keep,) = (np.abs(rows[:, 1]) <= s).nonzero()
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


#: The region of the whole band: one window of half-width pi about pi.
WHOLE_BAND = (math.pi, 0.0, 1, math.pi)


def _check_region(region: tuple[float, float, int, float]) -> None:
    """Check that the windows of ``region`` (first centre, pitch, count,
    half-width r), |phi - (first + j pitch)| <= r for j below count, are
    non-empty and apart.

    Raises:
        InvalidInputError: If a window is empty or two of them meet.
    """
    first, pitch, count, r = region
    if not (
        math.isfinite(first)
        and count >= 1
        and r > 0.0
        and (count == 1 or 2.0 * r < pitch)
        and (count - 1) * pitch + 2.0 * r <= 2.0 * math.pi
    ):
        raise InvalidInputError(
            f"longitude windows must be non-empty and apart, got {region}"
        )


def _spread(
    u: np.ndarray, low: float, high: float, count: int, pitch: float, step: float
) -> None:
    """Map the uniforms ``u`` on [0, 1) in place onto ``count`` intervals,
    uniform on their union: interval j starts at low + j pitch and is
    ``step`` long, except the last, which ends at ``high``. u times their
    total length is a distance along them, laid end to end. One interval
    maps bit for bit as :func:`_scale`."""
    skip = pitch - step
    u *= high - low - (count - 1) * skip
    if count > 1:
        passed = np.divide(u, step)
        np.minimum(np.floor(passed, out=passed), count - 1, out=passed)
        passed *= skip
        u += passed
    u += low


def sample_band_counts(
    rng: np.random.Generator,
    n_sat: int,
    s: float,
    size: int,
    region: tuple[float, float, int, float] = WHOLE_BAND,
) -> np.ndarray:
    """How many of ``n_sat`` uniform satellites fall inside the part of the
    band |u_y| <= s in the windows of ``region``, for each of ``size``
    shells, in one call.

    On a uniform sphere u_y is uniform on [-1, 1] and the longitude phi is
    uniform and independent of it, so windows of half-width r hold
    K ~ Binomial(n_sat, s M / pi) satellites, M = count r being half their
    total width.

    Raises:
        InvalidInputError: If ``n_sat`` < 1, s is outside [0, 1], or a
            window is empty or two of them meet.
    """
    if n_sat < 1:
        raise InvalidInputError(f"n_sat must be >= 1, got {n_sat}")
    _check_band(s)
    _check_region(region)
    _, _, count, r = region
    return rng.binomial(n_sat, s * (count * r / math.pi), size)


def sample_bands(
    pieces: Sequence[tuple[np.random.Generator, Sequence[int]]],
    s: float,
    region: tuple[float, float, int, float] = WHOLE_BAND,
) -> np.ndarray:
    """Unit rows of the satellites of regions of the band |u_y| <= s, in the
    windows of ``region``: each piece ``(rng, counts)`` draws from ``rng``
    regions that hold ``counts[b]`` satellites each, and the pieces' regions,
    in order, are the shells of one zero-padded (B, max K + 2, 3) array, shell
    b's satellites being ``rows[b, :K_b]``, with two rows kept for each
    shell's endpoints. One generator's regions are the one piece
    ``[(rng, counts)]``.

    Each satellite of a region is uniform in it. One ``random`` call per
    piece draws 2 K uniforms a region, region after region: its K heights,
    then its K longitudes, bit for bit ``uniform(-s, s)`` and, for one
    window, ``uniform(first - r, first + r)`` calls; several windows share
    the longitudes' uniforms (:func:`_spread`). So drawing a generator's
    regions in one piece or in several, in order, gives the same
    satellites. One trig pass turns all pieces to rows.

    Raises:
        InvalidInputError: If s is outside [0, 1], a window is empty or
            two of them meet.
    """
    _check_band(s)
    _check_region(region)
    first, pitch, count, r = region
    counts = [k for _, part in pieces for k in part]
    width = max(counts, default=0) + 2
    heights, longitudes = uniforms = np.zeros((2, len(counts), width))
    b = 0
    for rng, part in pieces:
        drawn = rng.random(2 * sum(part))
        at = 0
        for k in part:
            uniforms[:, b, :k] = drawn[at : at + 2 * k].reshape(2, k)
            at += 2 * k
            b += 1
        # Freed before the next piece is drawn and the rows are made, so the
        # draw's peak stays at the rows and the padded uniforms.
        del drawn
    _scale(heights, -s, s)
    last = first + (count - 1) * pitch
    _spread(longitudes, first - r, last + r, count, pitch, 2.0 * r)
    rows = np.empty(heights.shape + (3,))
    _unit_rows(rows, heights, longitudes)
    for b, k in enumerate(counts):
        rows[b, k:] = 0.0
    return rows


def _scale(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """Map the uniforms ``u`` on [0, 1) onto [low, high) in place, bit for
    bit as ``Generator.uniform(low, high)`` maps them."""
    u *= high - low
    u += low
    return u


def sample_band_complement(
    rng: np.random.Generator,
    s: float,
    out: np.ndarray,
    region: tuple[float, float, int, float] = WHOLE_BAND,
) -> None:
    """Write into ``out`` the unit rows of ``len(out)`` satellites uniform
    outside the part of the band |u_y| <= s in the windows of ``region``:
    in the band between the windows, or outside the band.

    3 ``len(out)`` uniforms give each satellite its magnitude |u_y| from u,
    its sign (negative below 1/2) and its longitude from v. With M half the
    windows' total width, a share q = s (pi - M) / (pi - s M) of the
    complement lies in the band. There (u < q), |u_y| = (s / q) u and the
    longitude is v spread over the gaps between the windows
    (:func:`_spread`; for one window, v mapped onto
    [first + r, first + 2 pi - r]); elsewhere |u_y| is u - q mapped from
    [0, 1 - q) onto [s, 1] and the longitude v mapped onto [0, 2 pi], each
    map as ``uniform`` makes it. For the whole band (q = 0) the rows are
    bit for bit those of ``uniform``, ``random`` and ``uniform`` calls.

    Raises:
        InvalidInputError: If s is outside [0, 1], a window is empty or
            two of them meet.
    """
    _check_band(s)
    _check_region(region)
    first, pitch, count, r = region
    y, sign, longitudes = rng.random(3 * len(out)).reshape(3, len(out))
    half = count * r
    rest = math.pi - s * half
    share = s * (math.pi - half) / rest if rest > 0.0 else 0.0
    inside = y < share
    # Taken before the rest's formulas overwrite the uniforms.
    band_y = y[inside] * (s / share if share > 0.0 else 0.0)
    band_phi = longitudes[inside]
    gaps = first + r, first + 2.0 * math.pi - r
    _spread(band_phi, *gaps, count, pitch, pitch - 2.0 * r)
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

"""Satellite sets on a sphere: uniform sampling, presets, nearest queries.

Satellites are drawn i.i.d. uniformly on the constellation sphere (a
binomial point process): cos(theta) uniform on [-1, 1] and phi uniform on
[0, 2*pi). A constellation keeps its satellites as read-only unit-vector
rows, and satellite IDs are 0-based row indices.

:func:`sample_bands` and :func:`sample_band_complement` draw the same
process in two parts, split at a band |u_y| <= s around the xz great
circle: first the satellites inside the band, for a batch of shells at
once, then, only when asked, the rest of one shell. By the restriction
property of the binomial point process the two parts together are
``n_sat`` i.i.d. uniform satellites.
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
        units = _normalized(units)
        units.setflags(write=False)
        object.__setattr__(self, "unit_vectors", units)
        if self.r_earth <= 0 or self.altitude < 0:
            raise InvalidInputError("require r_earth > 0 and altitude >= 0")

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


def _normalized(units: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.divide(units, np.linalg.norm(units, axis=1)[:, None], out=out)


def point_rows(points: Sequence[SpherePoint]) -> np.ndarray:
    """Unit-vector rows of ``points``, as a constellation stores them."""
    return _normalized(np.array([p.unit_vector() for p in points]).reshape(-1, 3))


def sample_bpp(n_sat: int, r_earth: float, altitude: float, seed: int) -> Constellation:
    """Sample ``n_sat`` i.i.d. uniform satellites on the shell sphere.

    Bit-reproducible for a given seed.

    Raises:
        InvalidInputError: If ``n_sat`` < 1 or ``seed`` < 0.
    """
    if n_sat < 1:
        raise InvalidInputError(f"n_sat must be >= 1, got {n_sat}")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    cos_theta = rng.uniform(-1.0, 1.0, n_sat)
    phi = rng.uniform(0.0, 2.0 * math.pi, n_sat)
    sin_theta = np.sqrt(1.0 - cos_theta * cos_theta)
    # Built and normalized in one array, as the constructor would normalize
    # them, without its copies.
    units = np.empty((n_sat, 3))
    np.multiply(sin_theta, np.cos(phi), out=units[:, 0])
    np.multiply(sin_theta, np.sin(phi), out=units[:, 1])
    units[:, 2] = cos_theta
    _normalized(units, out=units)
    return Constellation.from_unit_rows(r_earth, altitude, units)


def _unit_rows(rows: np.ndarray, y: np.ndarray, u: np.ndarray) -> None:
    """Write the unit rows at height ``y`` on the y axis and longitude
    2 pi u about it into ``rows``, overwriting ``y`` and ``u``. The rows are
    unit vectors to rounding and are not normalized again."""
    rows[..., 1] = y
    rho = np.sqrt(np.subtract(1.0, np.square(y, out=y), out=y), out=y)
    phi = np.multiply(u, 2.0 * math.pi, out=u)
    np.multiply(np.cos(phi, out=rows[..., 0]), rho, out=rows[..., 0])
    np.multiply(np.sin(phi, out=rows[..., 2]), rho, out=rows[..., 2])


def _check_band(sin_halfwidth: float) -> None:
    if not 0.0 <= sin_halfwidth <= 1.0:
        raise InvalidInputError(
            f"band half-width sine must be in [0, 1], got {sin_halfwidth}"
        )


def sample_bands(
    rngs: Sequence[np.random.Generator], n_sat: int, s: float
) -> tuple[np.ndarray, list[int]]:
    """The satellites inside |u_y| <= s of one uniform shell per generator:
    shell b's unit rows are ``rows[b, :counts[b]]`` of one zero-padded
    (B, max K + 2, 3) array, which keeps two rows for each shell's endpoints.

    On a uniform sphere u_y is uniform on [-1, 1], so the band holds
    K ~ Binomial(n_sat, s) satellites, each uniform in it. Each generator
    draws its K, then 2K uniforms, heights -s + 2s u and longitudes 2 pi u:
    bit for bit two ``uniform`` calls. :func:`sample_band_complement`
    continues it with the other n_sat - K. One pass turns the batch to rows.

    Raises:
        InvalidInputError: If ``n_sat`` < 1 or s is outside [0, 1].
    """
    if n_sat < 1:
        raise InvalidInputError(f"n_sat must be >= 1, got {n_sat}")
    _check_band(s)
    counts = [int(rng.binomial(n_sat, s)) for rng in rngs]
    width = max(counts, default=0) + 2
    heights, longitudes = uniforms = np.zeros((2, len(counts), width))
    for b, (rng, k) in enumerate(zip(rngs, counts)):
        uniforms[:, b, :k] = rng.random(2 * k).reshape(2, k)
    heights *= 2.0 * s
    heights -= s
    rows = np.empty((len(counts), width, 3))
    _unit_rows(rows, heights, longitudes)
    for b, k in enumerate(counts):
        rows[b, k:] = 0.0
    return rows, counts


def sample_band_complement(
    rng: np.random.Generator, s: float, out: np.ndarray
) -> None:
    """Write into ``out`` the unit rows of ``len(out)`` satellites uniform
    outside the band |u_y| <= s.

    |u_y| is uniform on [s, 1] with a random sign, and the longitude about
    the y axis is uniform: 3 ``len(out)`` uniforms give magnitudes
    s + (1 - s) u, signs (negative below 1/2) and longitudes, bit for bit
    the values of ``uniform``, ``random`` and ``uniform`` calls.
    """
    _check_band(s)
    y, sign, longitudes = rng.random(3 * len(out)).reshape(3, len(out))
    y *= 1.0 - s
    y += s
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


def save_constellation(c: Constellation, path: str | Path) -> None:
    """Write a constellation to a JSON file (header + satellite array)."""
    points = (SpherePoint.from_unit_vector(u, c.radius) for u in c.unit_vectors)
    payload = {
        "r_earth_km": c.r_earth,
        "altitude_km": c.altitude,
        "satellites": [{"theta_rad": p.theta, "phi_rad": p.phi} for p in points],
    }
    Path(path).write_text(json.dumps(payload, indent=2))


def load_constellation(path: str | Path) -> Constellation:
    """Read a constellation previously written by :func:`save_constellation`."""
    text = Path(path).read_text()
    try:
        payload = json.loads(text)
        r_earth = float(payload["r_earth_km"])
        altitude = float(payload["altitude_km"])
        sats: Iterable[dict] = payload["satellites"]
        units = np.array(
            [
                SpherePoint(
                    r=r_earth + altitude, theta=s["theta_rad"], phi=s["phi_rad"]
                ).unit_vector()
                for s in sats
            ]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed constellation file {path}: {exc}") from exc
    return Constellation(r_earth=r_earth, altitude=altitude, unit_vectors=units)

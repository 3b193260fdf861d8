"""Satellite sets on a sphere: uniform sampling, presets, nearest queries.

Satellites are drawn i.i.d. uniformly on the constellation sphere (a
binomial point process): cos(theta) uniform on [-1, 1] and phi uniform on
[0, 2*pi). Positions are immutable after construction and satellite IDs are
0-based indices into the position list.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import AbstractSet, Iterable, Optional, Sequence

import numpy as np

from .errors import InvalidInputError, NoCandidateError
from .geometry import PhysicalConstants, SpherePoint

#: Known constellation shells: name -> (altitude_km, n_sat).
PRESET_PARAMS: dict[str, tuple[float, int]] = {
    "starlink": (550.0, 11927),
    "oneweb": (1200.0, 650),
    "kuiper": (610.0, 3236),
}


@dataclass(frozen=True)
class ConstellationPreset:
    """A named constellation shell (single altitude)."""

    name: str
    altitude_km: float
    n_sat: int

    def __post_init__(self) -> None:
        expected = PRESET_PARAMS.get(self.name)
        if expected is None:
            raise InvalidInputError(
                f"unknown preset {self.name!r}; choose from {sorted(PRESET_PARAMS)}"
            )
        if (self.altitude_km, self.n_sat) != expected:
            raise InvalidInputError(
                f"preset {self.name!r} must carry {expected}, got "
                f"({self.altitude_km}, {self.n_sat})"
            )

    @classmethod
    def by_name(cls, name: str) -> "ConstellationPreset":
        """Look up a preset by name."""
        if name not in PRESET_PARAMS:
            raise InvalidInputError(
                f"unknown preset {name!r}; choose from {sorted(PRESET_PARAMS)}"
            )
        altitude_km, n_sat = PRESET_PARAMS[name]
        return cls(name=name, altitude_km=altitude_km, n_sat=n_sat)


@dataclass(frozen=True)
class Constellation:
    """An immutable satellite set on a sphere of radius r_earth + altitude.

    Attributes:
        r_earth: Occluding-body radius in km.
        altitude: Shell altitude above it in km.
        unit_vectors: (n_sat, 3) array of unit direction vectors, read-only.
        seed: Generation seed, or None for sets loaded from file or built
            from explicit positions.
    """

    r_earth: float
    altitude: float
    unit_vectors: np.ndarray = field(repr=False)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        units = np.asarray(self.unit_vectors, dtype=float)
        if units.ndim != 2 or units.shape[1] != 3 or units.shape[0] < 1:
            raise InvalidInputError("unit_vectors must be a non-empty (n, 3) array")
        norms = np.linalg.norm(units, axis=1)
        units = units / norms[:, None]
        units.setflags(write=False)
        object.__setattr__(self, "unit_vectors", units)
        if self.r_earth <= 0 or self.altitude < 0:
            raise InvalidInputError("require r_earth > 0 and altitude >= 0")

    @property
    def radius(self) -> float:
        """Sphere radius in km."""
        return self.r_earth + self.altitude

    @property
    def n_sat(self) -> int:
        """Number of satellites."""
        return int(self.unit_vectors.shape[0])

    @cached_property
    def positions(self) -> tuple[SpherePoint, ...]:
        """Satellite positions as spherical-coordinate points."""
        r = self.radius
        return tuple(
            SpherePoint.from_unit_vector(v, r) for v in self.unit_vectors
        )

    def position(self, sat_id: int) -> SpherePoint:
        """Position of one satellite."""
        return SpherePoint.from_unit_vector(self.unit_vectors[sat_id], self.radius)

    def with_extra_points(self, points: Sequence[SpherePoint]) -> "Constellation":
        """A new constellation with ``points`` appended at the next IDs."""
        extra = np.array([p.unit_vector() for p in points])
        for p in points:
            if abs(p.r - self.radius) > 1e-9 * self.radius:
                raise InvalidInputError("extra points must lie on the constellation sphere")
        units = np.vstack([self.unit_vectors, extra])
        return Constellation(
            r_earth=self.r_earth, altitude=self.altitude, unit_vectors=units, seed=self.seed
        )


def sample_bpp(n_sat: int, r_earth: float, altitude: float, seed: int) -> Constellation:
    """Sample ``n_sat`` i.i.d. uniform satellites on the shell sphere.

    Bit-reproducible for a given seed.

    Raises:
        InvalidInputError: If ``n_sat`` < 1.
    """
    if n_sat < 1:
        raise InvalidInputError(f"n_sat must be >= 1, got {n_sat}")
    rng = np.random.default_rng(seed)
    cos_theta = rng.uniform(-1.0, 1.0, n_sat)
    phi = rng.uniform(0.0, 2.0 * math.pi, n_sat)
    sin_theta = np.sqrt(1.0 - cos_theta**2)
    units = np.stack(
        [sin_theta * np.cos(phi), sin_theta * np.sin(phi), cos_theta], axis=-1
    )
    return Constellation(
        r_earth=r_earth, altitude=altitude, unit_vectors=units, seed=int(seed)
    )


def from_preset(
    name: str, seed: int, r_earth: float = PhysicalConstants.r_earth
) -> Constellation:
    """Sample a constellation with a preset's altitude and satellite count."""
    preset = ConstellationPreset.by_name(name)
    return sample_bpp(preset.n_sat, r_earth, preset.altitude_km, seed)


def nearest(
    c: Constellation, target: SpherePoint, exclude: AbstractSet[int] = frozenset()
) -> int:
    """ID of the satellite closest (by chord) to ``target``.

    Ties break to the lowest ID; IDs in ``exclude`` outside the
    constellation are ignored.

    Raises:
        NoCandidateError: If every satellite is excluded.
    """
    dots = c.unit_vectors @ target.unit_vector()
    if exclude:
        idx = np.fromiter(exclude, dtype=np.int64, count=len(exclude))
        dots[idx[(idx >= 0) & (idx < len(dots))]] = -2.0
    best = int(np.argmax(dots))
    if dots[best] == -2.0:
        raise NoCandidateError("all satellites excluded from nearest-satellite query")
    return best


def random_endpoints(
    c: Constellation, target_dome_angle: float, seed: int
) -> tuple[int, int]:
    """Pick a random satellite and the one nearest to a target separation.

    Args:
        c: Constellation with at least 2 satellites.
        target_dome_angle: Desired endpoint separation in (0, pi].
        seed: RNG seed for the first endpoint choice.

    Returns:
        (src_id, dst_id) where dst's dome angle to src is closest to the
        target (ties to the lowest ID).
    """
    if c.n_sat < 2:
        raise InvalidInputError("need at least 2 satellites for endpoints")
    if not 0.0 < target_dome_angle <= math.pi:
        raise InvalidInputError(
            f"target dome angle must be in (0, pi], got {target_dome_angle}"
        )
    rng = np.random.default_rng(seed)
    src = int(rng.integers(c.n_sat))
    dots = c.unit_vectors @ c.unit_vectors[src]
    angles = np.arccos(np.clip(dots, -1.0, 1.0))
    gap = np.abs(angles - target_dome_angle)
    gap[src] = np.inf
    dst = int(np.argmin(gap))
    return src, dst


def save_constellation(c: Constellation, path: str | Path) -> None:
    """Write a constellation to a JSON file (header + satellite array)."""
    payload = {
        "r_earth_km": c.r_earth,
        "altitude_km": c.altitude,
        "satellites": [
            {"theta_rad": p.theta, "phi_rad": p.phi} for p in c.positions
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2))


def load_constellation(path: str | Path) -> Constellation:
    """Read a constellation previously written by :func:`save_constellation`."""
    payload = json.loads(Path(path).read_text())
    try:
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
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed constellation file {path}: {exc}") from exc
    return Constellation(
        r_earth=r_earth, altitude=altitude, unit_vectors=units, seed=None
    )

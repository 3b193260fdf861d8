"""Uniform satellite sampling, presets, nearest search, persistence."""

import json
import math

import numpy as np
import pytest
from scipy import stats

from leoroute import (
    Constellation,
    InvalidInputError,
    NoCandidateError,
    PRESET_PARAMS,
    SpherePoint,
    dome_angle,
    load_constellation,
    nearest,
    sample_bpp,
    save_constellation,
)
from leoroute.analysis import contact_cdf

R = 6371.0


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def test_same_seed_bit_identical():
    a = sample_bpp(500, R, 550.0, seed=42)
    b = sample_bpp(500, R, 550.0, seed=42)
    assert np.array_equal(a.unit_vectors, b.unit_vectors)


def test_different_seed_differs():
    a = sample_bpp(500, R, 550.0, seed=1)
    b = sample_bpp(500, R, 550.0, seed=2)
    assert not np.array_equal(a.unit_vectors, b.unit_vectors)


def test_sample_rejects_empty():
    with pytest.raises(InvalidInputError):
        sample_bpp(0, R, 550.0, seed=0)


def test_positions_on_shell():
    c = sample_bpp(200, R, 1200.0, seed=3)
    assert c.radius == R + 1200.0
    norms = np.linalg.norm(c.unit_vectors, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_unit_vectors_read_only():
    c = sample_bpp(10, R, 550.0, seed=0)
    with pytest.raises(ValueError):
        c.unit_vectors[0, 0] = 5.0


def test_mean_direction_near_zero():
    # Uniformity on the sphere: the resultant vector has length O(1/sqrt(N)).
    c = sample_bpp(20_000, R, 550.0, seed=7)
    resultant = np.linalg.norm(c.unit_vectors.mean(axis=0))
    assert resultant < 4.0 / math.sqrt(20_000)


def test_nearest_gap_matches_contact_law():
    """Angular gap to a fixed direction follows the closed-form contact CDF."""
    n_sat, samples = 20, 10_000
    rng_gaps = []
    for s in range(samples):
        c = sample_bpp(n_sat, R, 550.0, seed=s)
        rng_gaps.append(math.acos(float(c.unit_vectors[:, 2].max().clip(-1, 1))))
    ks = stats.kstest(rng_gaps, lambda th: np.asarray(contact_cdf(th, n_sat)))
    assert ks.statistic < 0.05
    assert ks.pvalue > 1e-3


def test_rotation_invariance_of_gap_law():
    """The contact law holds for an arbitrary reference direction too."""
    n_sat, samples = 20, 10_000
    ref = np.array([0.3, -0.8, 0.52])
    ref /= np.linalg.norm(ref)
    gaps = []
    for s in range(samples):
        c = sample_bpp(n_sat, R, 550.0, seed=10_000 + s)
        dots = c.unit_vectors @ ref
        gaps.append(math.acos(float(dots.max().clip(-1, 1))))
    ks = stats.kstest(gaps, lambda th: np.asarray(contact_cdf(th, n_sat)))
    assert ks.statistic < 0.05
    assert ks.pvalue > 1e-3


def test_single_satellite_gap_distribution():
    # With one satellite the gap CDF is (1 - cos(theta)) / 2.
    gaps = []
    for s in range(10_000):
        c = sample_bpp(1, R, 550.0, seed=s)
        gaps.append(math.acos(float(np.clip(c.unit_vectors[0, 2], -1, 1))))
    ks = stats.kstest(gaps, lambda th: (1.0 - np.cos(th)) / 2.0)
    assert ks.pvalue > 1e-3


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def test_preset_catalogue():
    assert PRESET_PARAMS["starlink"] == (550.0, 11927)
    assert PRESET_PARAMS["oneweb"] == (1200.0, 650)
    assert PRESET_PARAMS["kuiper"] == (610.0, 3236)


# ---------------------------------------------------------------------------
# nearest
# ---------------------------------------------------------------------------


def test_nearest_matches_brute_force():
    c = sample_bpp(500, R, 550.0, seed=11)
    rng = np.random.default_rng(5)
    for _ in range(25):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        target = SpherePoint.from_unit_vector(u, c.radius)
        got = nearest(c, u)
        brute = min(
            range(c.n_sat), key=lambda i: dome_angle(c.position(i), target)
        )
        assert got == brute


def test_nearest_respects_exclusions():
    c = sample_bpp(50, R, 550.0, seed=2)
    target = c.unit_vectors[0]
    assert nearest(c, target) == 0
    second = nearest(c, target, exclude={0})
    assert second != 0
    # IDs outside the constellation are ignored.
    assert nearest(c, target, exclude={0, -1, c.n_sat, 10**6}) == second
    with pytest.raises(NoCandidateError):
        nearest(c, target, exclude=set(range(c.n_sat)))
    with pytest.raises(NoCandidateError):
        nearest(c, target, exclude=frozenset(range(-3, c.n_sat + 3)))


def test_nearest_tie_breaks_lowest_id():
    base = sample_bpp(3, R, 550.0, seed=1)
    dup = np.vstack([base.unit_vectors, base.unit_vectors[1]])
    c = Constellation(r_earth=R, altitude=550.0, unit_vectors=dup)
    target = c.unit_vectors[1]
    assert nearest(c, target) == 1  # IDs 1 and 3 tie exactly
    assert nearest(c, target, exclude={1}) == 3


# ---------------------------------------------------------------------------
# persistence and extension
# ---------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    c = sample_bpp(100, R, 610.0, seed=13)
    path = tmp_path / "c.json"
    save_constellation(c, path)
    loaded = load_constellation(path)
    assert loaded.n_sat == c.n_sat
    assert loaded.radius == c.radius
    assert np.allclose(loaded.unit_vectors, c.unit_vectors, atol=1e-12)
    blob = json.loads(path.read_text())
    assert {"r_earth_km", "altitude_km", "satellites"} <= set(blob)


def test_with_extra_points_appends_at_end():
    c = sample_bpp(10, R, 550.0, seed=0)
    a = SpherePoint(r=c.radius, theta=0.3, phi=0.0)
    b = SpherePoint(r=c.radius, theta=0.3, phi=math.pi)
    bigger = c.with_extra_points([a, b])
    assert bigger.n_sat == 12
    assert dome_angle(bigger.position(10), a) < 1e-12
    assert dome_angle(bigger.position(11), b) < 1e-12


def test_with_extra_points_radius_mismatch():
    c = sample_bpp(10, R, 550.0, seed=0)
    with pytest.raises(InvalidInputError):
        c.with_extra_points([SpherePoint(r=c.radius + 1.0, theta=0.3, phi=0.0)])

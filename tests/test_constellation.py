"""Uniform satellite sampling, presets, nearest search, persistence."""

import itertools
import json
import math
from collections import Counter

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
from leoroute.constellation import sample_band_complement, sample_bands

R = 6371.0


def point(c, sat_id):
    """Satellite ``sat_id`` of ``c`` as a point, from its unit-vector row."""
    return SpherePoint.from_unit_vector(c.unit_vectors[sat_id], c.radius)


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


def sample_band(rng, n_sat, band_sine):
    """One shell's band rows: the batch of one of ``sample_bands``."""
    rows, (k,) = sample_bands([rng], n_sat, band_sine)
    return rows[0, :k]


def sample_rest(rng, count, band_sine):
    """``count`` satellites outside the band, in an array of their own."""
    rest = np.empty((count, 3))
    sample_band_complement(rng, band_sine, rest)
    return rest


def test_band_then_complement_is_a_uniform_shell():
    """Band plus complement from one generator: n_sat i.i.d. uniform satellites."""
    n_sat, band_sine, seeds = 3236, 0.1065, 50
    counts, heights, longitudes = [], [], []
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        band = sample_band(rng, n_sat, band_sine)
        rest = sample_rest(rng, n_sat - len(band), band_sine)
        assert np.all(np.abs(band[:, 1]) <= band_sine)
        assert np.all(np.abs(rest[:, 1]) >= band_sine)
        shell = np.vstack([band, rest])
        assert np.allclose(np.linalg.norm(shell, axis=1), 1.0, atol=1e-12)
        counts.append(len(band))
        heights.append(shell[:, 1])
        longitudes.append(np.arctan2(shell[:, 2], shell[:, 0]))
    # u_y (the height along the band's axis) is uniform on [-1, 1] on a
    # uniform sphere, and the longitude about that axis is uniform.
    y = np.concatenate(heights)
    assert stats.kstest(y, stats.uniform(-1.0, 2.0).cdf).pvalue > 1e-3
    phi = np.concatenate(longitudes)
    assert stats.kstest(phi, stats.uniform(-math.pi, 2.0 * math.pi).cdf).pvalue > 1e-3
    # K ~ Binomial(n_sat, s).
    standard_error = math.sqrt(n_sat * band_sine * (1.0 - band_sine) / seeds)
    assert abs(np.mean(counts) - n_sat * band_sine) < 5.0 * standard_error


def trial_band_rows(y, phi):
    """Unit rows at height ``y`` and longitude ``phi``, as one trial made
    them before its draws were batched."""
    rho = np.sqrt(1.0 - y * y)
    rows = np.empty((len(y), 3))
    np.multiply(rho, np.cos(phi), out=rows[:, 0])
    rows[:, 1] = y
    np.multiply(rho, np.sin(phi), out=rows[:, 2])
    return rows


def trial_band(rng, n_sat, band_sine):
    """One trial's band, drawn with two ``uniform`` calls."""
    k = int(rng.binomial(n_sat, band_sine))
    y = rng.uniform(-band_sine, band_sine, k)
    return trial_band_rows(y, rng.uniform(0.0, 2.0 * math.pi, k))


def trial_complement(rng, count, band_sine):
    """One trial's complement, drawn with ``uniform``, ``random`` and
    ``uniform`` calls."""
    magnitude = rng.uniform(band_sine, 1.0, count)
    y = np.where(rng.random(count) < 0.5, -magnitude, magnitude)
    return trial_band_rows(y, rng.uniform(0.0, 2.0 * math.pi, count))


@pytest.mark.parametrize("band_sine", [0.0, 0.0555, 0.21, 1.0])
def test_batch_draw_equals_the_trial_by_trial_draws(band_sine):
    """The batch draw, a batch of one and the complement give, bit for bit,
    the rows and the generator states of each trial drawn on its own."""
    empty = Counter()
    for n_sat, size in itertools.product((1, 650, 800, 11927), (1, 48)):
        seeds = [1000 * n_sat + 7 * size + j for j in range(size)]
        rngs = [np.random.default_rng(seed) for seed in seeds]
        rows, counts = sample_bands(rngs, n_sat, band_sine)
        assert rows.shape == (size, max(counts) + 2, 3)
        empty[size, min(counts) == 0, max(counts) > 0] += 1
        for rng, seed, shell, k in zip(rngs, seeds, rows, counts):
            own, one = (np.random.default_rng(seed) for _ in range(2))
            expected = trial_band(own, n_sat, band_sine).tobytes()
            assert shell[:k].tobytes() == expected
            assert sample_band(one, n_sat, band_sine).tobytes() == expected
            assert not shell[k:].any()
            rest = np.empty((n_sat - k, 3))
            sample_band_complement(rng, band_sine, rest)
            expected = trial_complement(own, n_sat - k, band_sine).tobytes()
            assert rest.tobytes() == expected
            assert sample_rest(one, n_sat - k, band_sine).tobytes() == expected
            assert rng.bit_generator.state == own.bit_generator.state
            assert one.bit_generator.state == own.bit_generator.state
    if 0.0 < band_sine < 1.0:
        # A batch of 48 that mixes empty and non-empty bands, and an empty
        # batch of one.
        assert empty[48, True, True] > 0 and empty[1, True, False] > 0


def test_band_sampler_validates_inputs():
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidInputError):
        sample_band(rng, 0, 0.1)
    for bad in (-0.1, 1.5):
        with pytest.raises(InvalidInputError):
            sample_band(rng, 10, bad)
        with pytest.raises(InvalidInputError):
            sample_rest(rng, 10, bad)
    # The whole sphere is one band: every satellite falls in it.
    assert len(sample_band(rng, 25, 1.0)) == 25


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
            range(c.n_sat), key=lambda i: dome_angle(point(c, i), target)
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
    assert dome_angle(point(bigger, 10), a) < 1e-12
    assert dome_angle(point(bigger, 11), b) < 1e-12


def test_with_extra_points_radius_mismatch():
    c = sample_bpp(10, R, 550.0, seed=0)
    with pytest.raises(InvalidInputError):
        c.with_extra_points([SpherePoint(r=c.radius + 1.0, theta=0.3, phi=0.0)])

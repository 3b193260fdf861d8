"""Uniform satellite sampling, presets, nearest search, persistence."""

import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
from leoroute.constellation import (
    _normalized,
    sample_band_complement,
    sample_band_counts,
    sample_bands,
    sample_bpp_band,
)

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


@pytest.mark.parametrize(
    "bad, message",
    [
        ([0.0, 0.0, 0.0], "zero vector has no direction"),
        ([np.nan, 0.0, 1.0], "finite"),
        ([0.0, np.inf, 0.0], "finite"),
    ],
)
def test_constellation_rejects_rows_without_a_direction(bad, message):
    rows = np.array([[1.0, 0.0, 0.0], bad, [0.0, 0.0, 2.0]])
    with pytest.raises(InvalidInputError, match=message):
        Constellation(r_earth=R, altitude=550.0, unit_vectors=rows)
    rows[1] = [0.0, 3.0, 0.0]
    c = Constellation(r_earth=R, altitude=550.0, unit_vectors=rows)
    assert np.array_equal(c.unit_vectors, np.eye(3))


@pytest.mark.parametrize(
    "r_earth, altitude",
    [(math.inf, 550.0), (math.nan, 550.0), (R, math.inf), (R, math.nan)],
)
def test_constellation_rejects_a_non_finite_body_or_shell(r_earth, altitude):
    with pytest.raises(InvalidInputError, match="finite r_earth > 0"):
        Constellation(r_earth=r_earth, altitude=altitude, unit_vectors=np.eye(3))


@given(
    rows=st.lists(
        st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3),
        min_size=1,
        max_size=8,
    ),
    scale=st.sampled_from([1e-310, 1e-170, 1.0, 1e160, 1e300]),
)
def test_normalized_is_dividing_by_the_linalg_norm(rows, scale):
    """Rows are normalized bit for bit as by ``np.linalg.norm``, for rows of
    any magnitude: subnormal, with squares that underflow or overflow."""
    with np.errstate(all="ignore"):
        units = np.array(rows) * scale
        want = units / np.linalg.norm(units, axis=1)[:, None]
        assert _normalized(units).tobytes() == want.tobytes()
        out = np.empty_like(units)
        assert _normalized(units, out=out) is out
        assert out.tobytes() == want.tobytes()


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
    """One shell's band rows: its count, then the batch of one of
    ``sample_bands``."""
    counts = sample_band_counts(rng, n_sat, band_sine, 1).tolist()
    return sample_bands([(rng, counts)], band_sine)[0, : counts[0]]


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


def trial_band(rng, k, band_sine):
    """One band of ``k`` satellites, drawn with two ``uniform`` calls."""
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
    """From one generator, the counts, then the bands in one batch, in
    batches of one or in uneven batches, give bit for bit the rows and the
    generator state of each band drawn on its own with ``uniform`` calls,
    in order; and the complement the rows of its own ``uniform``,
    ``random`` and ``uniform`` calls."""
    empty = Counter()
    for n_sat, size in itertools.product((1, 650, 800, 11927), (1, 48)):
        seed = 1000 * n_sat + 7 * size
        rng, own, one, split, merged = (np.random.default_rng(seed) for _ in range(5))
        counts = sample_band_counts(rng, n_sat, band_sine, size).tolist()
        assert counts == own.binomial(n_sat, band_sine, size).tolist()
        for other in (one, split, merged):
            assert sample_band_counts(other, n_sat, band_sine, size).tolist() == counts
        rows = sample_bands([(rng, counts)], band_sine)
        assert rows.shape == (size, max(counts) + 2, 3)
        empty[size, min(counts) == 0, max(counts) > 0] += 1
        expected = [trial_band(own, k, band_sine).tobytes() for k in counts]
        assert [shell[:k].tobytes() for shell, k in zip(rows, counts)] == expected
        assert not any(shell[k:].any() for shell, k in zip(rows, counts))
        singles = [
            sample_bands([(one, [k])], band_sine)[0, :k].tobytes() for k in counts
        ]
        assert singles == expected
        pieces, parts, at = [], [], 0
        for width in itertools.cycle((5, 1, 17)):
            part = counts[at : at + width]
            if not part:
                break
            batch = sample_bands([(split, part)], band_sine)
            pieces += [shell[:k].tobytes() for shell, k in zip(batch, part)]
            parts.append((merged, part))
            at += width
        assert pieces == expected
        # The same uneven parts, as the pieces of one call, fill one stack.
        rows = sample_bands(parts, band_sine)
        assert [shell[:k].tobytes() for shell, k in zip(rows, counts)] == expected
        rest = np.empty((n_sat - counts[-1], 3))
        sample_band_complement(rng, band_sine, rest)
        expected = trial_complement(own, len(rest), band_sine).tobytes()
        assert rest.tobytes() == expected
        for other in (one, split, merged):
            assert sample_rest(other, len(rest), band_sine).tobytes() == expected
            assert other.bit_generator.state == own.bit_generator.state
        assert rng.bit_generator.state == own.bit_generator.state
    if 0.0 < band_sine < 1.0:
        # A batch of 48 that mixes empty and non-empty bands, and an empty
        # batch of one.
        assert empty[48, True, True] > 0 and empty[1, True, False] > 0


@pytest.mark.parametrize("region", [(math.pi, 0.0, 1, math.pi), (0.9, 0.55, 4, 0.2)])
def test_pieces_of_several_generators_fill_one_stack(region):
    """The tail of one generator's regions and the head of another's, drawn
    as the two pieces of one call, are bit for bit the shells of their own
    calls, padded to the widest, and leave each generator where its own
    calls leave it."""
    band_sine = 0.2
    drawn, own = [], []
    for seed in (1, 2):
        rng, alone = np.random.default_rng(seed), np.random.default_rng(seed)
        counts = sample_band_counts(rng, 800, band_sine, 64, region).tolist()
        assert sample_band_counts(alone, 800, band_sine, 64, region).tolist() == counts
        drawn.append((rng, counts))
        own.append((alone, counts))
    (a, first), (b, second) = drawn
    # The first generator has drawn its first 40 regions already.
    sample_bands([(a, first[:40])], band_sine, region)
    sample_bands([(own[0][0], first[:40])], band_sine, region)
    parts = (first[40:], second[:30])
    rows = sample_bands([(a, parts[0]), (b, parts[1])], band_sine, region)
    counts = parts[0] + parts[1]
    assert rows.shape == (len(counts), max(counts) + 2, 3)
    expected = []
    for (alone, _), part in zip(own, parts):
        alone_rows = sample_bands([(alone, part)], band_sine, region)
        expected += [shell[:k].tobytes() for shell, k in zip(alone_rows, part)]
    assert [shell[:k].tobytes() for shell, k in zip(rows, counts)] == expected
    assert not any(shell[k:].any() for shell, k in zip(rows, counts))
    for rng, (alone, _) in zip((a, b), own):
        assert rng.bit_generator.state == alone.bit_generator.state


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


def window_distance(rows, region):
    """Each row's distance in longitude phi = atan2(u_z, u_x) from the
    nearest centre of the windows of ``region``, across phi = pi too."""
    first, pitch, count, _ = region
    phi = np.arctan2(rows[:, 2], rows[:, 0])
    centres = first + pitch * np.arange(count)
    off = np.remainder(phi[:, None] - centres + math.pi, 2.0 * math.pi) - math.pi
    return np.abs(off).min(axis=1, initial=math.inf)


def one_window(span):
    """The patch |phi - pi/2| <= ``span``."""
    return (0.5 * math.pi, 0.0, 1, span)


#: Regions of one window (the patches |phi - pi/2| <= L), of windows apart,
#: and of windows close together or reaching past phi = pi.
REGIONS = [
    pytest.param(one_window(span), id=str(span)) for span in (0.4, 1.8418, 3.0)
] + [
    pytest.param((0.9, 0.55, 4, 0.2), id="4-apart"),
    pytest.param((2.4, 0.6, 5, 0.29), id="5-close-past-pi"),
    pytest.param((2.9, 1.7, 3, 0.35), id="3-past-pi"),
]


@pytest.mark.parametrize("region", REGIONS)
def test_patch_then_complement_is_a_uniform_shell(region):
    """Region plus complement from one generator: n_sat i.i.d. uniform
    satellites, and no complement row inside a window."""
    n_sat, band_sine, seeds = 3236, 0.1065, 50
    halfwidth = region[3]
    counts, heights, longitudes = [], [], []
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        (k,) = sample_band_counts(rng, n_sat, band_sine, 1, region).tolist()
        patch = sample_bands([(rng, [k])], band_sine, region)[0, :k]
        rest = np.empty((n_sat - k, 3))
        sample_band_complement(rng, band_sine, rest, region)
        assert np.all(np.abs(patch[:, 1]) <= band_sine)
        assert np.all(window_distance(patch, region) <= halfwidth * (1.0 + 1e-12))
        inside = (np.abs(rest[:, 1]) < band_sine) & (
            window_distance(rest, region) < halfwidth * (1.0 - 1e-12)
        )
        assert not inside.any()
        shell = np.vstack([patch, rest])
        assert np.allclose(np.linalg.norm(shell, axis=1), 1.0, atol=1e-12)
        counts.append(k)
        heights.append(shell[:, 1])
        longitudes.append(np.arctan2(shell[:, 2], shell[:, 0]))
    y = np.concatenate(heights)
    assert stats.kstest(y, stats.uniform(-1.0, 2.0).cdf).pvalue > 1e-3
    phi = np.concatenate(longitudes)
    assert stats.kstest(phi, stats.uniform(-math.pi, 2.0 * math.pi).cdf).pvalue > 1e-3
    # The complement's band share and the rest each hold their share too.
    band = np.abs(y) <= band_sine
    circle = stats.uniform(-math.pi, 2.0 * math.pi).cdf
    assert stats.kstest(phi[band], circle).pvalue > 1e-3
    # K ~ Binomial(n_sat, s M / pi), M = count r.
    p = band_sine * region[2] * halfwidth / math.pi
    standard_error = math.sqrt(n_sat * p * (1.0 - p) / seeds)
    assert abs(np.mean(counts) - n_sat * p) < 5.0 * standard_error


def trial_patch(rng, k, band_sine, region):
    """One region of ``k`` satellites: heights from a ``uniform`` call, and
    longitudes from one on the window, or, for several windows, uniforms
    laid on the windows one after the other."""
    y = rng.uniform(-band_sine, band_sine, k)
    first, pitch, count, r = region
    if count == 1:
        return trial_band_rows(y, rng.uniform(first - r, first + r, k))
    at = rng.random(k) * count
    j = np.floor(at)
    return trial_band_rows(y, first + pitch * j - r + 2.0 * r * (at - j))


def trial_patch_complement(rng, count, band_sine, region):
    """One trial's complement of a region, from three ``random`` calls: the
    band share q first, then the rest of the shell."""
    first, pitch, windows, r = region
    u, sign, v = rng.random(count), rng.random(count), rng.random(count)
    half = windows * r
    q = band_sine * (math.pi - half) / (math.pi - band_sine * half)
    in_band = u < q
    # A band of the whole sphere leaves no rest.
    outer = (u - q) * ((1.0 - band_sine) / (1.0 - q)) + band_sine if q < 1.0 else u
    magnitude = np.where(in_band, u * (band_sine / q), outer)
    low = first + r
    if windows == 1:
        gap = low + ((first + 2.0 * math.pi - r) - low) * v
    else:
        # Along the gaps from window 0 on: past the m windows after it.
        along = v * (2.0 * math.pi - 2.0 * half)
        passed = np.minimum(np.floor(along / (pitch - 2.0 * r)), windows - 1.0)
        gap = low + along + 2.0 * r * passed
    phi = np.where(in_band, gap, 2.0 * math.pi * v)
    return trial_band_rows(np.where(sign < 0.5, -magnitude, magnitude), phi)


@pytest.mark.parametrize(
    "band_sine, region",
    [
        pytest.param(s, one_window(span), id=f"{s}-{span}")
        for s, span in ((0.0555, 0.9), (0.21, 2.5), (1.0, 1.3))
    ]
    + [
        pytest.param(0.0555, (0.9, 0.55, 4, 0.2), id="0.0555-4-apart"),
        pytest.param(0.21, (2.4, 0.6, 5, 0.29), id="0.21-5-close-past-pi"),
    ],
)
def test_patch_batch_draw_equals_the_trial_by_trial_draws(band_sine, region):
    """From one generator, the region counts, then the regions in one
    batch, in batches of one or in uneven batches, give bit for bit the
    same rows and the generator state of each region drawn on its own; one
    window's rows are bit for bit those of ``uniform`` calls, in order, and
    its complement the rows of its own three ``random`` calls. Several
    windows' rows agree with the same draws laid on the windows and the
    gaps one after the other."""
    one = region[2] == 1

    def same(drawn, reference):
        if one:
            return drawn.tobytes() == reference.tobytes()
        return np.allclose(drawn, reference, rtol=0.0, atol=1e-12)

    for n_sat, size in itertools.product((1, 650, 11927), (1, 48)):
        seed = 1000 * n_sat + 7 * size
        rng, own, single, split = (np.random.default_rng(seed) for _ in range(4))
        counts = sample_band_counts(rng, n_sat, band_sine, size, region).tolist()
        p = band_sine * (region[2] * region[3] / math.pi)
        assert counts == own.binomial(n_sat, p, size).tolist()
        for other in (single, split):
            again = sample_band_counts(other, n_sat, band_sine, size, region)
            assert again.tolist() == counts
        rows = sample_bands([(rng, counts)], band_sine, region)
        assert rows.shape == (size, max(counts) + 2, 3)
        for shell, k in zip(rows, counts):
            assert same(shell[:k], trial_patch(own, k, band_sine, region))
        expected = [shell[:k].tobytes() for shell, k in zip(rows, counts)]
        assert not any(shell[k:].any() for shell, k in zip(rows, counts))
        singles = [
            sample_bands([(single, [k])], band_sine, region)[0, :k].tobytes()
            for k in counts
        ]
        assert singles == expected
        pieces, at = [], 0
        for width in itertools.cycle((5, 1, 17)):
            part = counts[at : at + width]
            if not part:
                break
            batch = sample_bands([(split, part)], band_sine, region)
            pieces += [shell[:k].tobytes() for shell, k in zip(batch, part)]
            at += width
        assert pieces == expected
        rest = np.empty((n_sat - counts[-1], 3))
        sample_band_complement(rng, band_sine, rest, region)
        assert same(rest, trial_patch_complement(own, len(rest), band_sine, region))
        for other in (single, split):
            again = np.empty_like(rest)
            sample_band_complement(other, band_sine, again, region)
            assert again.tobytes() == rest.tobytes()
            assert other.bit_generator.state == own.bit_generator.state
        assert rng.bit_generator.state == own.bit_generator.state


def test_patch_sampler_validates_its_span():
    """Every sampler rejects an empty window and windows that meet, each
    other or themselves across phi = pi."""
    rng = np.random.default_rng(0)
    empty = [one_window(bad) for bad in (0.0, -1.0, math.nan)]
    empty += [(0.5, 0.4, 0, 0.1), (math.nan, 0.0, 1, 0.3)]
    overlapping = [one_window(3.2), (0.5, 0.4, 3, 0.25), (0.0, 2.0, 4, 0.5)]
    overlapping += [(0.5, 0.5, 3, 0.25)]
    for bad in empty + overlapping:
        with pytest.raises(InvalidInputError, match="windows"):
            sample_band_counts(rng, 10, 0.1, 1, bad)
        with pytest.raises(InvalidInputError, match="windows"):
            sample_bands([(rng, [3])], 0.1, bad)
        with pytest.raises(InvalidInputError, match="windows"):
            sample_band_complement(rng, 0.1, np.empty((3, 3)), bad)
    # One window of half-width pi about pi is the band.
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    whole = sample_bands([(a, [40])], 0.3, (math.pi, 0.0, 1, math.pi))
    assert whole.tobytes() == sample_bands([(b, [40])], 0.3).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    n_sat=st.integers(1, 3000),
    seed=st.integers(0, 2**64),
    s=st.sampled_from([0.0, 1e-12, 1.0]) | st.floats(0.0, 1.0),
    edge=st.none() | st.tuples(st.integers(0, 10**6), st.sampled_from([0.0, 1.0])),
)
def test_band_draw_is_the_band_of_the_whole_shell(n_sat, seed, s, edge):
    """``sample_bpp_band`` keeps, bit for bit and in ID order, exactly the
    rows of ``sample_bpp`` with |u_y| <= s. With ``edge`` the band's edge
    is a satellite's own |u_y|, or 1 ulp from it."""
    units = sample_bpp(n_sat, R, 550.0, seed).unit_vectors
    if edge is not None:
        k, toward = edge
        s = float(min(np.nextafter(abs(units[k % n_sat, 1]), toward), 1.0))
    ids, rows = sample_bpp_band(n_sat, seed, s)
    want = np.flatnonzero(np.abs(units[:, 1]) <= s)
    np.testing.assert_array_equal(ids, want)
    assert rows.shape == (len(want), 3)
    assert rows.tobytes() == units[want].tobytes()


def test_band_draw_edges_and_whole_sphere():
    units = sample_bpp(2000, R, 550.0, 9).unit_vectors
    height = np.abs(units[:, 1])
    for k in range(0, 2000, 97):
        for s, inside in (
            (np.nextafter(height[k], 0.0), False),
            (height[k], True),
            (np.nextafter(height[k], 1.0), True),
        ):
            ids, _ = sample_bpp_band(2000, 9, float(s))
            assert (k in ids) == inside
    ids, rows = sample_bpp_band(2000, 9, 1.0)
    np.testing.assert_array_equal(ids, np.arange(2000))
    assert rows.tobytes() == units.tobytes()


@pytest.mark.parametrize(
    "n_sat, seed, s",
    [(0, 0, 0.5), (-3, 0, 0.5), (10, -1, 0.5), (10, 0, -0.1), (10, 0, 1.5),
     (10, 0, math.nan)],
)
def test_band_draw_validates_inputs(n_sat, seed, s):
    with pytest.raises(InvalidInputError):
        sample_bpp_band(n_sat, seed, s)


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
    """A file keeps each satellite's unit row, so a saved shell loads back
    bit for bit, however its rows were made."""
    c = sample_bpp(2000, R, 550.0, seed=4)
    rows = np.random.default_rng(3).normal(size=(500, 3))
    d = Constellation(r_earth=6000.0, altitude=610.0, unit_vectors=rows)
    for shell in (c, d):
        path = tmp_path / "c.json"
        save_constellation(shell, path)
        loaded = load_constellation(path)
        assert loaded.unit_vectors.tobytes() == shell.unit_vectors.tobytes()
        assert (loaded.r_earth, loaded.altitude) == (shell.r_earth, shell.altitude)
        blob = json.loads(path.read_text())
        assert {"version", "r_earth_km", "altitude_km", "satellites"} <= set(blob)
        assert blob["version"] == 2


def test_version_one_files_still_load(tmp_path):
    """A file of polar angles, without a version, loads as before."""
    c = sample_bpp(300, R, 550.0, seed=6)
    points = [SpherePoint.from_unit_vector(u, c.radius) for u in c.unit_vectors]
    path = tmp_path / "old.json"
    path.write_text(
        json.dumps(
            {
                "r_earth_km": R,
                "altitude_km": 550.0,
                "satellites": [{"theta_rad": p.theta, "phi_rad": p.phi} for p in points],
            }
        )
    )
    loaded = load_constellation(path)
    expected = np.array([p.unit_vector() for p in points])
    expected /= np.linalg.norm(expected, axis=1)[:, None]
    assert loaded.unit_vectors.tobytes() == expected.tobytes()
    assert np.allclose(loaded.unit_vectors, c.unit_vectors, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize(
    "satellites, version",
    [
        ([[1.0, 0.0, 0.0], [0.0, 1.0 + 1e-9, 0.0]], 2),
        ([[1.0, 0.0, 0.0], [0.0, 0.0]], 2),
        ([[1.0, 0.0, 0.0, 0.0]], 2),
        ([], 2),
        ([[1.0, 0.0, 0.0]], 3),
    ],
    ids=["not-unit", "ragged", "four-columns", "empty", "unknown-version"],
)
def test_malformed_files_are_rejected(tmp_path, satellites, version):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {"version": version, "r_earth_km": R, "altitude_km": 550.0,
             "satellites": satellites}
        )
    )
    with pytest.raises(InvalidInputError, match="malformed constellation file"):
        load_constellation(path)


def test_version_two_file_checks_its_header(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {"version": 2, "r_earth_km": -1.0, "altitude_km": 550.0,
             "satellites": [[1.0, 0.0, 0.0]]}
        )
    )
    with pytest.raises(InvalidInputError, match="finite r_earth"):
        load_constellation(path)


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

"""Closed-form efficiency approximations against Monte Carlo oracles."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from leoroute import (
    InternalConsistencyError,
    InvalidInputError,
    contact_pdf,
    efficiency_binomial,
    efficiency_contour,
    mean_hop_span,
    mean_hop_stretch,
    measured_efficiency,
)
from leoroute.analysis import _contact_quantile, n_min_ideal, plan_hops
from leoroute.efficiency import _NODES, _QUANTILE_LEVELS, _WEIGHTS, _ellipe
from leoroute.experiments import CellParams
from leoroute.quadrature import adaptive_simpson

STARLINK = (11927, 0.436931)
ONEWEB = (650, 0.398888)
KUIPER = (3236, 0.433115)

# (theta_h, n_sat, theta_max) grid: 24 points spanning hop angles and shells.
GRID = [
    (th, n, tm)
    for th in (0.05, 0.1, 0.157, 0.22, 0.31, 0.4)
    for (n, tm) in (ONEWEB, KUIPER, STARLINK, (800, 0.440160))
]

def sample_contact_angles(rng, n_sat, size):
    """Draw contact angles by inverting the closed-form law."""
    u = rng.uniform(0.0, 1.0, size=size)
    x = 2.0 * (1.0 - u) ** (1.0 / n_sat) - 1.0
    return np.arccos(np.clip(x, -1.0, 1.0))


# ---------------------------------------------------------------------------
# mean_hop_stretch (chord stretch factor)
# ---------------------------------------------------------------------------


def test_stretch_matches_monte_carlo_on_grid():
    rng = np.random.default_rng(404)
    m = 200_000
    for theta_h, n_sat, theta_max in GRID:
        theta = sample_contact_angles(rng, n_sat, m)
        phi = rng.uniform(0.0, math.pi, size=m)
        a = 1.0 - np.cos(theta) * math.cos(theta_h)
        b = np.sin(theta) * math.sin(theta_h)
        vals = np.sqrt(np.maximum(a - b * np.cos(phi), 0.0))
        vals[theta > theta_max] = 0.0  # integral is truncated at theta_max
        scale = math.sqrt(2.0) / (2.0 * math.sin(theta_h / 2.0))
        mc = scale * float(vals.mean())
        sigma = scale * float(vals.std(ddof=1)) / math.sqrt(m)
        quad = mean_hop_stretch(theta_h, n_sat, theta_max)
        assert abs(quad - mc) < 3.0 * sigma + 1e-12, (theta_h, n_sat)


def test_ellipe_matches_scipy():
    m = np.array([0.0, 0.5, 0.9, 1.0 - 1e-12, 1.0])
    e = _ellipe(m)
    assert e == pytest.approx(special.ellipe(m), abs=1e-14)
    assert e[-1] == 1.0
    assert e[0] == math.pi / 2.0


def test_stretch_matches_nested_quadrature():
    """The elliptic reduction against the original double integral."""
    for theta_h, n_sat, theta_max in (GRID[1], GRID[10], GRID[23]):
        cos_h, sin_h = math.cos(theta_h), math.sin(theta_h)

        def azimuthal(theta):
            a = 1.0 - math.cos(theta) * cos_h
            b = math.sin(theta) * sin_h
            value, _ = integrate.quad(
                lambda phi: math.sqrt(max(a - b * math.cos(phi), 0.0)),
                0.0,
                math.pi,
                epsabs=1e-13,
                epsrel=1e-13,
            )
            return float(contact_pdf(theta, n_sat)) * value

        # Break points: the density spike and the kink where a == b.
        kinks = [t for t in (4.0 / math.sqrt(n_sat), theta_h) if t < theta_max]
        nested, _ = integrate.quad(
            azimuthal,
            0.0,
            theta_max,
            points=kinks,
            limit=200,
            epsabs=1e-12,
            epsrel=1e-12,
        )
        nested *= math.sqrt(2.0) / (2.0 * math.pi * math.sin(theta_h / 2.0))
        assert abs(mean_hop_stretch(theta_h, n_sat, theta_max) - nested) < 1e-9


def test_gauss_legendre_rule_matches_numpy():
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(16)
    assert np.max(np.abs(_NODES - nodes)) <= 1e-15
    assert np.max(np.abs(_WEIGHTS - weights)) <= 1e-15


def simpson_stretch(theta_h, n_sat, theta_max):
    """:func:`mean_hop_stretch` by adaptive Simpson, one scalar integrand
    evaluation at a time, on the quantile panels, to 1e-10."""
    cos_h, sin_h = math.cos(theta_h), math.sin(theta_h)

    def outer(theta):
        a = 1.0 - math.cos(theta) * cos_h
        b = math.sin(theta) * sin_h
        density = float(contact_pdf(theta, n_sat))
        e = float(_ellipe(np.array([2.0 * b / (a + b)]))[0])
        return density * 2.0 * math.sqrt(a + b) * e

    quantiles = [_contact_quantile(1.0 - p, n_sat) for p in _QUANTILE_LEVELS]
    cuts = sorted({0.0, theta_max, *(t for t in quantiles if t < theta_max)})
    total = sum(
        adaptive_simpson(outer, a, b, tol=1e-10 / len(cuts))
        for a, b in zip(cuts, cuts[1:])
    )
    return total * math.sqrt(2.0) / (2.0 * math.pi * math.sin(theta_h / 2.0))


def test_contour_matches_adaptive_simpson():
    """On the benchmark's 48 sweep distances and the six preset cells."""
    cells = [
        CellParams(n_sat=800, altitude_km=500.0, arc_angle=d / 6871.0, epsilon=0.1)
        for d in (4000.0 + 250.0 * k for k in range(48))
    ]
    cells += [
        CellParams.from_preset(name, epsilon=eps)
        for name in ("starlink", "oneweb", "kuiper")
        for eps in (0.1, 0.01)
    ]
    for p in cells:
        n_hat = plan_hops(p.arc_angle, p.theta_max, p.n_sat, p.epsilon).n_hat
        n_min = n_min_ideal(p.arc_angle, p.theta_max)
        theta_h = p.arc_angle / (2.0 * n_hat)
        stretch = simpson_stretch(theta_h, p.n_sat, p.theta_max)
        expected = (n_min * math.sin(p.arc_angle / (2.0 * n_min))) / (
            n_hat * math.sin(theta_h) * (2.0 * stretch - 1.0)
        )
        contour = efficiency_contour(p.arc_angle, n_hat, p.n_sat, p.theta_max)
        assert abs(contour - expected) < 1e-8


def test_stretch_tends_to_one_with_density():
    vals = [mean_hop_stretch(0.2, n, 0.436931) for n in (300, 3000, 1_000_000)]
    assert vals[0] > vals[1] > vals[2] >= 1.0 - 1e-9
    assert vals[2] < 1.001


def test_stretch_at_least_one_on_grid():
    for theta_h, n_sat, theta_max in GRID:
        assert mean_hop_stretch(theta_h, n_sat, theta_max) >= 1.0 - 1e-9


def test_stretch_validates_domain():
    with pytest.raises(InvalidInputError):
        mean_hop_stretch(0.0, 100, 0.4)
    with pytest.raises(InvalidInputError):
        mean_hop_stretch(math.pi, 100, 0.4)
    with pytest.raises(InvalidInputError):
        mean_hop_stretch(0.2, 100, 0.0)


# ---------------------------------------------------------------------------
# mean_hop_span (two-sided displacement)
# ---------------------------------------------------------------------------


def test_span_matches_monte_carlo_on_grid():
    rng = np.random.default_rng(505)
    m = 200_000
    for theta_h, n_sat, theta_max in GRID:
        t1 = sample_contact_angles(rng, n_sat, m)
        t2 = sample_contact_angles(rng, n_sat, m)
        vals = 0.25 * (
            np.sin(theta_h - t1 - t2)
            + np.sin(theta_h + t1 - t2)
            + np.sin(theta_h - t1 + t2)
            + np.sin(theta_h + t1 + t2)
        )
        vals[(t1 > theta_max) | (t2 > theta_max)] = 0.0
        mc = float(vals.mean())
        sigma = float(vals.std(ddof=1)) / math.sqrt(m)
        quad = mean_hop_span(theta_h, n_sat, theta_max)
        assert abs(quad - mc) < 3.0 * sigma + 1e-12, (theta_h, n_sat)


def test_span_product_closed_form():
    """The four-term integrand collapses to sin(theta_h) cos(t1) cos(t2)."""
    # Sparse shells put visible contact mass beyond theta_max.
    for theta_h, n_sat, theta_max in GRID + [(0.3, 20, 0.5), (0.2, 60, 0.25)]:
        moment, _ = integrate.quad(
            lambda t: float(contact_pdf(t, n_sat)) * math.cos(t),
            0.0,
            theta_max,
            points=[min(theta_max, 4.0 / math.sqrt(n_sat))],
            limit=200,
            epsabs=1e-12,
            epsrel=1e-12,
        )
        closed = math.sin(theta_h) * moment * moment
        assert abs(mean_hop_span(theta_h, n_sat, theta_max) - closed) < 1e-8


def test_span_validates_domain():
    for args in ((0.0, 100, 0.4), (0.2, 0, 0.4), (0.2, 100, 0.0), (0.2, 100, 3.2)):
        with pytest.raises(InvalidInputError):
            mean_hop_span(*args)


def test_span_tends_to_sin_with_density():
    th = 0.26
    assert abs(mean_hop_span(th, 1_000_000, 0.436931) - math.sin(th)) < 1e-4


# ---------------------------------------------------------------------------
# efficiency approximations
# ---------------------------------------------------------------------------


def test_contour_identity_limit():
    # Same hop count and an ultra-dense shell: the ratio collapses to 1.
    val = efficiency_contour(math.pi, 9, 1_000_000, 0.436931)
    assert abs(val - 1.0) < 5e-3


def test_binomial_identity_limit():
    val = efficiency_binomial(math.pi, 9, 1_000_000, 0.436931)
    assert abs(val - 1.0) < 5e-3


def test_contour_dense_shell_window():
    n_sat, theta_max = STARLINK
    val = efficiency_contour(math.pi, 10, n_sat, theta_max)
    assert 0.97 <= val <= 1.0


def test_contour_decreases_with_extra_hops():
    n_sat, theta_max = STARLINK
    vals = [efficiency_contour(math.pi, n, n_sat, theta_max) for n in (9, 10, 12, 15)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_contour_below_binomial_at_dense_scales():
    for n_sat, theta_max in (STARLINK, KUIPER, (800, 0.440160), (1000, 0.440160)):
        if n_sat < 400:
            continue
        e1 = efficiency_contour(math.pi, 10, n_sat, theta_max)
        e2 = efficiency_binomial(math.pi, 10, n_sat, theta_max)
        assert e1 < e2


def test_hop_count_ordering_validated():
    # The ideal route over pi with hops capped at 0.44 rad takes 9 hops.
    for estimate in (efficiency_contour, efficiency_binomial):
        with pytest.raises(InvalidInputError):
            estimate(math.pi, 8, 1000, 0.44)


# ---------------------------------------------------------------------------
# measured efficiency
# ---------------------------------------------------------------------------


def test_measured_efficiency_basic():
    assert measured_efficiency(10.0, 10.0) == 1.0
    assert math.isclose(measured_efficiency(9.0, 10.0), 0.9)


def test_measured_efficiency_guard():
    with pytest.raises(InternalConsistencyError):
        measured_efficiency(10.0, 9.99)
    # Values inside the float guard band survive.
    assert measured_efficiency(10.0, 10.0 - 1e-10) <= 1.0 + 1e-9


def test_measured_efficiency_validates_positivity():
    with pytest.raises(InvalidInputError):
        measured_efficiency(0.0, 1.0)
    with pytest.raises(InvalidInputError):
        measured_efficiency(1.0, 0.0)


# ---------------------------------------------------------------------------
# both estimates on one cell
# ---------------------------------------------------------------------------


def test_estimate_efficiencies_bundle():
    n_sat, theta_max = KUIPER
    contour = efficiency_contour(math.pi, 12, n_sat, theta_max)
    binomial = efficiency_binomial(math.pi, 12, n_sat, theta_max)
    assert contour > 0
    assert binomial > contour

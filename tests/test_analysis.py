"""Contact-angle statistics, hop planning, feasibility bounds.

Key oracle values in this file were frozen ahead of the implementation:
analytic contact-angle means, the planner traces for the three preset
shells, the sign-change reformulation of the planner's stopping rule, and
an empirical coverage check straight from sampled constellations.
"""

import itertools
import math

import numpy as np
import pytest

from leoroute import (
    InvalidInputError,
    contact_cdf,
    contact_pdf,
    contact_mean,
    ideal_latency,
    iteration_bound,
    latency_floor,
    max_hop_angle,
    min_feasible_hops,
    min_sats_grid,
    min_sats_grid_minimum,
    min_sats_sufficient,
    n_min_ideal,
    plan_hops,
    reliable_angle,
)

R_EARTH = 6371.0

# preset name -> (radius, n_sat, theta_max at d_max = 3000 km)
SHELLS = {
    "starlink": (6921.0, 11927, 0.436931),
    "oneweb": (7571.0, 650, 0.398888),
    "kuiper": (6981.0, 3236, 0.433115),
}


# ---------------------------------------------------------------------------
# max_hop_angle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SHELLS))
def test_max_hop_angle_presets(name):
    radius, _, expected = SHELLS[name]
    assert math.isclose(max_hop_angle(radius, R_EARTH, 3000.0), expected, abs_tol=1e-6)


def test_max_hop_angle_branches():
    r = 6921.0
    # Huge chord budget: only the horizon (occlusion) limit binds.
    assert math.isclose(
        max_hop_angle(r, R_EARTH, 1e9), 2.0 * math.acos(R_EARTH / r), rel_tol=1e-12
    )
    # Tiny chord budget: only the chord limit binds.
    assert math.isclose(
        max_hop_angle(r, R_EARTH, 10.0), 2.0 * math.asin(5.0 / r), rel_tol=1e-12
    )


# ---------------------------------------------------------------------------
# contact law
# ---------------------------------------------------------------------------


def test_cdf_endpoints():
    for n in (1, 20, 650, 11927):
        assert contact_cdf(0.0, n) == 0.0
        assert math.isclose(float(contact_cdf(math.pi, n)), 1.0, abs_tol=1e-15)


def test_cdf_monotone_and_vectorized():
    grid = np.linspace(0.0, math.pi, 400)
    vals = np.asarray(contact_cdf(grid, 650))
    assert vals.shape == grid.shape
    assert np.all(np.diff(vals) >= 0.0)


def test_cdf_domain_validated():
    with pytest.raises(InvalidInputError):
        contact_cdf(-0.01, 10)
    with pytest.raises(InvalidInputError):
        contact_cdf(math.pi + 0.01, 10)
    with pytest.raises(InvalidInputError):
        contact_cdf(1.0, 0)


def test_pdf_is_cdf_derivative():
    # Central difference of the CDF against the closed-form density.
    n = 650
    h = 1e-5
    for theta in np.linspace(0.01, 0.6, 40):
        num = (
            float(contact_cdf(theta + h, n)) - float(contact_cdf(theta - h, n))
        ) / (2.0 * h)
        assert abs(num - float(contact_pdf(theta, n))) < 1e-6


def test_pdf_integrates_to_one():
    from leoroute.quadrature import adaptive_simpson

    # Dense shells concentrate the density in a narrow spike, so the
    # quadrature panels are split at closed-form quantiles of the law.
    for n in (5, 120, 3236, 11927):
        cuts = [0.0]
        for p in (0.5, 1.0 - 1e-3, 1.0 - 1e-9):
            q = math.acos(min(1.0, max(-1.0, 2.0 * (1.0 - p) ** (1.0 / n) - 1.0)))
            if cuts[-1] < q < math.pi:
                cuts.append(q)
        cuts.append(math.pi)
        total = sum(
            adaptive_simpson(lambda t: float(contact_pdf(t, n)), a, b)
            for a, b in zip(cuts, cuts[1:])
        )
        assert math.isclose(total, 1.0, abs_tol=1e-9)


def test_contact_mean_presets():
    expected = {"starlink": 0.016229, "oneweb": 0.069508, "kuiper": 0.031157}
    for name, (_, n_sat, _) in SHELLS.items():
        mean = contact_mean(n_sat)
        assert math.isclose(mean.quadrature, expected[name], abs_tol=5e-7)
        # Two independent computation routes must agree.
        assert math.isclose(mean.quadrature, mean.product_form, abs_tol=1e-9)


def test_contact_mean_single_satellite():
    # One satellite: E[gap] = pi/2 by symmetry of (1 - cos)/2.
    mean = contact_mean(1)
    assert math.isclose(mean.product_form, math.pi / 2.0, rel_tol=1e-12)
    assert math.isclose(mean.quadrature, math.pi / 2.0, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# reliable_angle
# ---------------------------------------------------------------------------


def test_reliable_angle_defining_equation():
    rng = np.random.default_rng(123)
    for _ in range(100):
        eps = float(rng.uniform(0.001, 0.5))
        n_hops = int(rng.integers(1, 80))
        n_sat = int(rng.integers(10, 20_000))
        theta_r = reliable_angle(eps, n_hops, n_sat)
        target = (1.0 - eps) ** (1.0 / n_hops)
        assert abs(float(contact_cdf(theta_r, n_sat)) - target) < 1e-12


def test_reliable_angle_survives_tiny_epsilon():
    """At ordinary epsilon the per-hop miss is 1 - (1 - eps)^(1/n), bit for
    bit; where that power rounds to 1 the miss still is not 0."""
    for eps, n_hops, n_sat in itertools.product((0.1, 0.01), (1, 9, 69), (650, 11927)):
        miss = 1.0 - (1.0 - eps) ** (1.0 / n_hops)
        expected = math.acos(min(1.0, max(-1.0, 2.0 * miss ** (1.0 / n_sat) - 1.0)))
        assert reliable_angle(eps, n_hops, n_sat) == expected
    for eps in (1e-16, 1e-17, 1e-18, 1e-19, 1e-20):
        assert (1.0 - eps) ** (1.0 / 16) == 1.0
        assert reliable_angle(eps, 16, 11927) < math.pi / 2.0


def test_reliable_angle_shrinks_with_density():
    vals = [reliable_angle(0.01, 10, n) for n in (100, 1000, 10_000)]
    assert vals[0] > vals[1] > vals[2] > 0.0


def test_empirical_coverage_meets_reliability_target():
    """Sampled constellations hit the per-hop coverage the angle promises.

    For 10^4 independent 650-satellite samples, the fraction with a
    satellite within the reliable angle of a fixed direction must reach
    (1 - eps)^(1/n) up to binomial noise.
    """
    eps, n_hops, n_sat, samples = 0.1, 9, 650, 10_000
    theta_r = reliable_angle(eps, n_hops, n_sat)
    target = (1.0 - eps) ** (1.0 / n_hops)
    rng = np.random.default_rng(2026)
    cos_gap = rng.uniform(-1.0, 1.0, size=(samples, n_sat)).max(axis=1)
    covered = float(np.mean(cos_gap >= math.cos(theta_r)))
    assert covered >= target - 0.01


# ---------------------------------------------------------------------------
# hop planning
# ---------------------------------------------------------------------------


def test_n_min_ideal_presets():
    # All three shells need ceil(pi/theta_max) = 8 segments, plus one by
    # the printed rule; the 12/13 hop counts come from the reliability
    # planner, not from this geometric minimum.
    arc = math.pi
    assert n_min_ideal(arc, SHELLS["starlink"][2]) == 9
    assert n_min_ideal(arc, SHELLS["oneweb"][2]) == 9
    assert n_min_ideal(arc, SHELLS["kuiper"][2]) == 9


def test_n_min_ideal_short_arc():
    # Arc below the hop limit still plans two hops by the printed rule.
    assert n_min_ideal(0.1, 0.45) == 2


PLAN_CASES = [
    # (shell, eps, n_hat, reliable_angle, type1, iterations)
    ("starlink", 0.1, 9, 0.0386, False, 1),
    ("starlink", 0.01, 10, 0.0481, False, 2),
    ("oneweb", 0.1, 69, 0.1996, True, 61),
    ("oneweb", 0.01, 9, 0.2044, True, 1),
    ("kuiper", 0.1, 12, 0.0765, False, 4),
    ("kuiper", 0.01, 13, 0.0941, False, 5),
]


@pytest.mark.parametrize("shell,eps,n_hat,theta_r,type1,iters", PLAN_CASES)
def test_plan_hops_preset_traces(shell, eps, n_hat, theta_r, type1, iters):
    _, n_sat, theta_max = SHELLS[shell]
    plan = plan_hops(math.pi, theta_max, n_sat, eps)
    assert plan.n_hat == n_hat
    assert math.isclose(plan.reliable_angle, theta_r, abs_tol=2e-3)
    assert plan.type1_interrupted is type1
    assert plan.iterations_used == iters


def _sign_change_n_hat(arc, theta_max, n_sat, eps):
    """Independent reformulation of the planner's stopping rule.

    Scans hop counts for the first sign change of either consecutive-step
    product: (theta_max - 2 t(n-1)) (theta_max - 2 t(n)) going negative
    marks the infeasibility exit, and the analogous product with the
    per-hop slack marks the success exit.
    """

    def t(n):
        return reliable_angle(eps, n, n_sat)

    n = n_min_ideal(arc, theta_max)
    if not (0.5 * (theta_max - arc / n) <= t(n) <= 0.5 * theta_max):
        return n
    while True:
        n += 1
        p1 = (theta_max - 2.0 * t(n - 1)) * (theta_max - 2.0 * t(n))
        p2 = (theta_max - arc / (n - 1) - 2.0 * t(n - 1)) * (
            theta_max - arc / n - 2.0 * t(n)
        )
        if p1 < 0.0 or p2 < 0.0:
            return n
        assert n < 10_000, "oracle runaway"


def test_plan_hops_matches_sign_change_form():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 100:
        arc = float(rng.uniform(0.3, math.pi))
        radius = R_EARTH + float(rng.uniform(400.0, 2000.0))
        d_max = float(rng.uniform(1500.0, 5000.0))
        theta_max = max_hop_angle(radius, R_EARTH, d_max)
        n_sat = int(rng.integers(50, 5000))
        eps = float(rng.choice([0.3, 0.1, 0.01, 0.001]))
        plan = plan_hops(arc, theta_max, n_sat, eps)
        assert plan.n_hat == _sign_change_n_hat(arc, theta_max, n_sat, eps)
        checked += 1


def test_iterations_within_bound_random_sets():
    rng = np.random.default_rng(88)
    for _ in range(100):
        arc = float(rng.uniform(0.3, math.pi))
        radius = R_EARTH + float(rng.uniform(400.0, 2000.0))
        d_max = float(rng.uniform(1500.0, 5000.0))
        theta_max = max_hop_angle(radius, R_EARTH, d_max)
        n_sat = int(rng.integers(50, 5000))
        eps = float(rng.choice([0.3, 0.1, 0.01]))
        plan = plan_hops(arc, theta_max, n_sat, eps)
        bound = iteration_bound(eps, theta_max, n_sat)
        # Loop continuations (evaluations after the first) obey the bound.
        assert plan.iterations_used - 1 <= bound + 1e-9


# ---------------------------------------------------------------------------
# iteration_bound
# ---------------------------------------------------------------------------


def test_iteration_bound_low_density_shell():
    # 650 satellites, the printed half-angle 0.1994: bound just above the
    # 68 hop counts the planner actually walks through.
    bound = iteration_bound(0.1, 2.0 * 0.1994, 650)
    assert math.isclose(bound, 68.077, abs_tol=0.01)
    _, n_sat, theta_max = SHELLS["oneweb"]
    plan = plan_hops(math.pi, theta_max, n_sat, 0.1)
    assert plan.iterations_used == 61
    assert plan.iterations_used - 1 <= iteration_bound(0.1, theta_max, n_sat)
    assert plan.n_hat - 1 <= iteration_bound(0.1, theta_max, n_sat)


def test_iteration_bound_vanishes_with_epsilon():
    _, n_sat, theta_max = SHELLS["oneweb"]
    bounds = [iteration_bound(e, theta_max, n_sat) for e in (0.1, 1e-3, 1e-6, 1e-9)]
    assert all(b > 0 for b in bounds)
    assert bounds[0] > bounds[1] > bounds[2] > bounds[3]
    assert bounds[3] < 1e-6 * bounds[0]


def test_iteration_bound_underflow_is_infinite():
    # Dense shell: per-hop miss probability underflows to zero.
    assert math.isinf(iteration_bound(0.01, 0.4, 1_000_000))


# ---------------------------------------------------------------------------
# sufficient satellite count
# ---------------------------------------------------------------------------


def test_min_sats_sufficient_validates_theta_t():
    with pytest.raises(InvalidInputError):
        min_sats_sufficient(math.pi, 0.4, 0.1, 0.2)  # theta_t == theta_max/2
    with pytest.raises(InvalidInputError):
        min_sats_sufficient(math.pi, 0.4, 0.1, 0.0)


def test_min_sats_diverges_near_half_theta_max():
    # As theta_t approaches theta_max/2 the hop count blows up and the
    # required satellite count grows without bound (logarithmically in
    # the hop count, so slowly but strictly).
    tmax = 0.436931
    vals = [
        min_sats_sufficient(math.pi, tmax, 0.1, tmax / 2.0 - gap)
        for gap in (1e-2, 1e-4, 1e-6, 1e-9)
    ]
    assert vals[0] < vals[1] < vals[2] < vals[3]


def test_min_sats_grid_shape_and_minimum():
    _, _, tmax = SHELLS["starlink"]
    grid = min_sats_grid(math.pi, tmax, 0.1)
    assert len(grid) == 21
    assert min_sats_grid_minimum(math.pi, tmax, 0.1) == min(grid)


GRID_MINIMA = [
    # Frozen from this implementation of the printed sufficiency bound.
    ("starlink", 0.1, 837),
    ("starlink", 0.01, 1185),
    ("oneweb", 0.1, 1071),
    ("oneweb", 0.01, 1516),
]


@pytest.mark.parametrize("shell,eps,expected", GRID_MINIMA)
def test_min_sats_grid_minimum_regression(shell, eps, expected):
    _, _, tmax = SHELLS[shell]
    assert min_sats_grid_minimum(math.pi, tmax, eps) == expected


def test_min_sats_monotone_in_epsilon():
    _, _, tmax = SHELLS["starlink"]
    strict = min_sats_grid_minimum(math.pi, tmax, 0.001)
    loose = min_sats_grid_minimum(math.pi, tmax, 0.1)
    assert strict > loose


# ---------------------------------------------------------------------------
# latency references
# ---------------------------------------------------------------------------


def test_ideal_latency_single_hop_diameter():
    # One hop across the full dome angle pi is the straight diameter.
    assert math.isclose(ideal_latency(math.pi, 1, 6921.0), 2.0 * 6921.0 / 300.0)


def test_ideal_latency_dense_shell_antipodal():
    assert math.isclose(ideal_latency(math.pi, 9, 6921.0), 72.1, abs_tol=0.05)


def test_ideal_latency_increases_with_hops():
    vals = [ideal_latency(math.pi, n, 6921.0) for n in range(1, 101)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_min_feasible_hops_cases():
    assert min_feasible_hops(0.3, 0.45) == 1
    assert min_feasible_hops(0.9, 0.45) == 2
    assert min_feasible_hops(math.pi, 0.436931) == 8
    # Exact multiples stay exact.
    assert min_feasible_hops(0.9, 0.3) == 3


def test_latency_floor_single_hop_case():
    # Arc within one hop: the floor is the direct chord.
    assert math.isclose(
        latency_floor(0.3, 0.45, 6921.0), ideal_latency(0.3, 1, 6921.0), rel_tol=1e-12
    )


def test_latency_floor_below_equal_split():
    rng = np.random.default_rng(9)
    for _ in range(200):
        arc = float(rng.uniform(0.2, math.pi))
        tmax = float(rng.uniform(0.2, 0.8))
        k = min_feasible_hops(arc, tmax)
        floor = latency_floor(arc, tmax, 6921.0)
        for n in range(k, k + 10):
            assert floor <= ideal_latency(arc, n, 6921.0) + 1e-9

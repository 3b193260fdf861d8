"""Acceptance suite: frozen end-to-end targets with pinned tolerances.

Every test asserts an externally fixed reference value or behavioral
guarantee, at the exact tolerance it was frozen with. Known divergences
of this implementation are asserted as given rather than weakened, so
the failing assertions document the gap precisely:

* the sufficiency-grid reference integers (this implementation's printed
  bound yields 837/1185/1071/1516 on the same grid; see the regression
  pins in test_analysis),
* the sparse-shell (oneweb) interruption rate and efficiency targets,
* the kuiper efficiency targets (this implementation lands ~0.8-1.0 pp
  above them), and
* the equal-interval <= min-deflection leg of the latency ordering
  (equal-interval's per-hop snapping detours exceed the greedy walk's
  at 800-satellite density for every probed distance).
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from leoroute.analysis import (
    contact_cdf,
    contact_mean,
    contact_pdf,
    iteration_bound,
    min_sats_grid_minimum,
    plan_hops,
    reliable_angle,
)
from leoroute import experiments
from leoroute.efficiency import mean_hop_span
from leoroute.experiments import (
    CellParams,
    SweepSpec,
    run_table1,
    run_trials,
    sweep,
)
from leoroute.geometry import SpherePoint, slerp

EPSILONS = (0.1, 0.01)

#: Frozen closed-form targets per preset shell.
CONTACT_MEAN_TARGET = {"starlink": 0.0162, "oneweb": 0.0695, "kuiper": 0.0312}
HOP_COUNT_TARGET = {"starlink": (9, 10), "kuiper": (12, 13)}
RELIABLE_ANGLE_TARGET = {"starlink": (0.0386, 0.0481), "kuiper": (0.0765, 0.0941)}

#: Frozen sufficiency-grid reference integers (eps = 0.1 / 0.01).
GRID_MINIMA_TARGET = {"starlink": (710, 2535), "oneweb": (2053, 7889)}

#: Frozen Monte Carlo targets (eps = 0.1 / 0.01).
ONEWEB_TYPE2_TARGET = 0.0941  # +/- 1.5 pp
EFFICIENCY_TARGET = {
    "starlink": (0.9944, 0.9917),
    "oneweb": (0.9780, 0.9627),
    "kuiper": (0.9791, 0.9756),
}  # each +/- 0.7 pp


def preset_cells(preset):
    """CellParams of one preset at both frozen tolerance levels."""
    return {eps: CellParams.from_preset(preset, epsilon=eps) for eps in EPSILONS}


# ---------------------------------------------------------------------------
# Closed-form summary values (no simulation)
# ---------------------------------------------------------------------------


def test_closed_form_summary_values():
    start = time.perf_counter()

    for preset, target in CONTACT_MEAN_TARGET.items():
        n_sat = CellParams.from_preset(preset).n_sat
        assert contact_mean(n_sat).quadrature == pytest.approx(target, abs=5e-4)

    plans = {}
    for preset in ("starlink", "oneweb", "kuiper"):
        cells = preset_cells(preset)
        plans[preset] = {
            eps: plan_hops(math.pi, cell.theta_max, cell.n_sat, eps)
            for eps, cell in cells.items()
        }

    for preset in ("starlink", "kuiper"):
        hops = tuple(plans[preset][eps].n_hat for eps in EPSILONS)
        assert hops == HOP_COUNT_TARGET[preset]
        for eps, target in zip(EPSILONS, RELIABLE_ANGLE_TARGET[preset]):
            assert plans[preset][eps].reliable_angle == pytest.approx(
                target, abs=2e-3
            )
        assert not plans[preset][0.1].type1_interrupted
        assert not plans[preset][0.01].type1_interrupted

    oneweb = plans["oneweb"][0.01]
    assert oneweb.type1_interrupted
    assert oneweb.reliable_angle == pytest.approx(0.2026, abs=2e-3)
    half_max = CellParams.from_preset("oneweb").theta_max / 2.0
    assert half_max == pytest.approx(0.1994, abs=2e-3)

    assert time.perf_counter() - start < 1.0


def test_iteration_bound_value_and_cap():
    start = time.perf_counter()

    # Bound evaluated at exactly twice the frozen half-angle.
    assert iteration_bound(0.1, 2 * 0.1994, 650) == pytest.approx(68.077, abs=0.01)

    # The planning loop can never run past the bound.
    rng = np.random.default_rng(2027)
    for _ in range(100):
        eps = rng.uniform(0.001, 0.5)
        theta_max = rng.uniform(0.12, 1.2)
        n_sat = int(rng.integers(10, 20_000))
        arc = rng.uniform(theta_max, math.pi)
        plan = plan_hops(arc, theta_max, n_sat, eps)
        bound = iteration_bound(eps, theta_max, n_sat)
        assert plan.iterations_used - 1 <= bound + 1e-9

    assert time.perf_counter() - start < 1.0


def test_sufficiency_grid_minima_reference_integers():
    # Known divergence: the implemented printed bound yields
    # 837/1185/1071/1516 on the identical 21-point grid (frozen as a
    # regression in test_analysis); the reference integers below are
    # asserted as given rather than adjusted to the implementation.
    start = time.perf_counter()
    for preset, targets in GRID_MINIMA_TARGET.items():
        theta_max = CellParams.from_preset(preset).theta_max
        got = tuple(
            min_sats_grid_minimum(math.pi, theta_max, eps) for eps in EPSILONS
        )
        assert got == targets, f"{preset}: grid minima {got} != target {targets}"
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# Monte Carlo summary values (desk scale: 1e4 trials per cell, fixed seed)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def desk_scale_table():
    start = time.perf_counter()
    result = run_table1(epsilons=EPSILONS, trials=10_000, base_seed=0)
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_desk_scale_runtime(desk_scale_table):
    _, elapsed = desk_scale_table
    assert elapsed < 300.0


def test_interruption_rates_at_scale(desk_scale_table):
    result, _ = desk_scale_table
    by_name = {col.preset: col for col in result.columns}
    misses = []
    for preset in ("starlink", "kuiper"):
        for eps in EPSILONS:
            rate = by_name[preset].type2_probability[eps]
            if not rate < 0.001:
                misses.append(f"{preset} eps {eps}: {rate} against < 0.001")
    # Known divergence: this implementation interrupts far more often on
    # the sparse shell than the frozen 9.41% target.
    oneweb_rate = by_name["oneweb"].type2_probability[0.1]
    if oneweb_rate != pytest.approx(ONEWEB_TYPE2_TARGET, abs=0.015):
        misses.append(
            f"oneweb eps 0.1: {oneweb_rate} against {ONEWEB_TYPE2_TARGET} +/- 0.015"
        )
    assert not misses, "; ".join(misses)


def test_efficiency_means_at_scale(desk_scale_table):
    result, _ = desk_scale_table
    by_name = {col.preset: col for col in result.columns}
    misses = []
    for preset, targets in EFFICIENCY_TARGET.items():
        for eps, target in zip(EPSILONS, targets):
            measured = by_name[preset].efficiency[eps]
            if measured is None or measured != pytest.approx(target, abs=0.007):
                misses.append(f"{preset} eps {eps}: {measured} against {target}")
    assert not misses, "; ".join(misses) + " (each +/- 0.007)"


# ---------------------------------------------------------------------------
# Strategy latency ordering (800 satellites, 500 km, 1e3 trials per point)
# ---------------------------------------------------------------------------

ORDERING_DISTANCES = (4000.0, 7000.0, 10000.0, 13000.0, 16000.0)


@pytest.fixture(scope="module")
def ordering_sweep():
    spec = SweepSpec(
        variable="distance_km",
        values=ORDERING_DISTANCES,
        fixed={"n_sat": 800, "altitude_km": 500.0, "d_max_km": 3000.0, "epsilon": 0.1},
        trials=1000,
        base_seed=0,
    )
    records = sweep(spec)
    table = {}
    for rec in records:
        table.setdefault(rec.swept_value, {})[rec.strategy] = rec.mean_latency_ms
    return table


def test_ordering_ideal_below_equal_interval(ordering_sweep):
    for distance in ORDERING_DISTANCES:
        row = ordering_sweep[distance]
        assert row["ideal"] <= row["equal-interval"] + 1e-9, distance


def test_ordering_equal_interval_below_min_deflection(ordering_sweep):
    # Known divergence: equal-interval's snapping detours put its mean
    # above the greedy minimum-deflection walk at this density.
    for distance in ORDERING_DISTANCES:
        row = ordering_sweep[distance]
        assert row["equal-interval"] <= row["min-deflection"] + 1e-9, (
            distance,
            row["equal-interval"],
            row["min-deflection"],
        )


def test_ordering_min_deflection_below_max_stepsize(ordering_sweep):
    for distance in ORDERING_DISTANCES:
        row = ordering_sweep[distance]
        assert row["min-deflection"] <= row["max-stepsize"] + 1e-9, distance


# ---------------------------------------------------------------------------
# Efficiency bracketing (1000 satellites, 500 km, 1e3 trials per point)
# ---------------------------------------------------------------------------


def test_measured_efficiency_bracketed_by_estimates():
    spec = SweepSpec(
        variable="distance_km",
        values=ORDERING_DISTANCES,
        fixed={
            "n_sat": 1000,
            "altitude_km": 500.0,
            "d_max_km": 3000.0,
            "epsilon": 0.01,
        },
        trials=1000,
        base_seed=0,
    )
    records = sweep(spec, strategies=("equal-interval",))
    assert len(records) == len(ORDERING_DISTANCES)
    for rec in records:
        assert rec.eff_measured is not None, rec.swept_value
        assert rec.eff_contour is not None and rec.eff_binomial is not None
        assert rec.eff_contour - 0.005 <= rec.eff_measured, rec
        assert rec.eff_measured <= rec.eff_binomial + 0.005, rec


# ---------------------------------------------------------------------------
# Core property residuals (fast re-checks; the heavier statistical
# oracles live in the per-module suites, which run in the same session)
# ---------------------------------------------------------------------------


def test_contact_law_cdf_pdf_consistency():
    # h = 1e-6 keeps the central-difference truncation error (~h^2 * F''',
    # steep near zero on dense shells) below the frozen residual bound.
    n_sat = 3236
    thetas = np.linspace(0.01, 3.0, 40)
    h = 1e-6
    derivative = (contact_cdf(thetas + h, n_sat) - contact_cdf(thetas - h, n_sat)) / (
        2 * h
    )
    assert np.max(np.abs(derivative - contact_pdf(thetas, n_sat))) < 1e-6


def test_reliable_angle_defining_equation_residual():
    rng = np.random.default_rng(11)
    for _ in range(20):
        eps = rng.uniform(0.001, 0.5)
        n_hops = int(rng.integers(1, 80))
        n_sat = int(rng.integers(10, 20_000))
        theta = reliable_angle(eps, n_hops, n_sat)
        residual = contact_cdf(theta, n_sat) - (1.0 - eps) ** (1.0 / n_hops)
        assert abs(residual) < 1e-12


def test_slerp_matches_canonical_frame():
    # Construct the interpolant directly in a frame whose pole is one
    # endpoint; the generic slerp must agree to 1e-9 in unit-vector norm
    # (equivalent to the same bound on the dome angle away from 0/pi).
    radius = 6921.0
    for arc in (0.8, 1.7, 2.6):
        for t in (0.25, 0.5, 0.75):
            a = SpherePoint(r=radius, theta=0.0, phi=0.0)
            b = SpherePoint(r=radius, theta=arc, phi=0.0)
            expected = SpherePoint(r=radius, theta=t * arc, phi=0.0)
            got = slerp(a, b, t)
            assert np.linalg.norm(got.unit_vector() - expected.unit_vector()) < 1e-9


def test_hop_span_product_to_sum_identity():
    # On a product domain the double quadrature collapses to
    # sin(theta_h) * (integral of pdf * cos)^2.
    theta_h, n_sat, theta_max = 0.2, 650, 0.398888
    inner, _ = integrate.quad(
        lambda theta: contact_pdf(theta, n_sat) * math.cos(theta),
        0.0,
        theta_max,
        points=[min(theta_max, 4.0 / math.sqrt(n_sat))],
        limit=200,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    closed_form = math.sin(theta_h) * inner * inner
    assert mean_hop_span(theta_h, n_sat, theta_max) == pytest.approx(
        closed_form, abs=1e-8
    )


def test_trials_are_reproducible_across_worker_counts(monkeypatch):
    # 130 trials are three blocks of 64, so a pool of two workers starts,
    # even on a host with one CPU.
    started = []
    pool = experiments.ProcessPoolExecutor

    def counted_pool(max_workers):
        started.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", counted_pool)
    monkeypatch.setattr(experiments, "_cpu_count", lambda: 2)
    params = CellParams(n_sat=400, altitude_km=550.0, arc_angle=1.8, epsilon=0.1)
    serial = run_trials(params, "min-deflection", trials=130, base_seed=5, threads=1)
    parallel = run_trials(params, "min-deflection", trials=130, base_seed=5, threads=2)
    assert started == [2]
    assert serial == parallel

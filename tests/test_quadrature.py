"""Adaptive Simpson integrator used by the closed-form analysis."""

import math
import time

import pytest

from leoroute.errors import InternalConsistencyError
from leoroute.quadrature import MAX_EVALS, adaptive_simpson


def test_sine_over_half_period():
    assert math.isclose(adaptive_simpson(math.sin, 0.0, math.pi), 2.0, abs_tol=1e-10)


def test_cubic_is_exact():
    # Simpson integrates cubics exactly on any single panel.
    val = adaptive_simpson(lambda x: x**3 - 2 * x + 1, -1.0, 2.0)
    exact = (2.0**4 / 4 - 2.0**2 + 2.0) - ((-1.0) ** 4 / 4 - 1.0 - 1.0)
    assert math.isclose(val, exact, abs_tol=1e-12)


def test_sharp_peak_refines():
    # Narrow Gaussian bump: requires adaptive subdivision to hit tolerance.
    s = 1e-3
    val = adaptive_simpson(
        lambda x: math.exp(-((x - 0.5) ** 2) / (2 * s * s)), 0.0, 1.0, tol=1e-12
    )
    exact = s * math.sqrt(2.0 * math.pi)
    assert math.isclose(val, exact, rel_tol=1e-8)


def test_empty_interval_zero():
    assert adaptive_simpson(math.sin, 1.0, 1.0) == 0.0


def test_reversed_interval_flips_sign():
    assert math.isclose(
        adaptive_simpson(math.sin, math.pi, 0.0), -2.0, abs_tol=1e-10
    )


def test_rough_integrand_exhausts_the_budget_quickly():
    # A 1e-6 ripple at frequency 1e7 cannot meet 1e-10 on [0, pi]; before
    # the evaluation budget this ran for millions of evaluations.
    start = time.perf_counter()
    with pytest.raises(InternalConsistencyError):
        adaptive_simpson(
            lambda x: math.sin(x) * (1.0 + 1e-6 * math.sin(1e7 * x)),
            0.0,
            math.pi,
            tol=1e-10,
        )
    assert time.perf_counter() - start < 1.0


def test_jump_returns_an_estimate():
    # The depth cap, not the budget, ends refinement at an isolated jump.
    calls = []

    def step(x):
        calls.append(x)
        return 0.0 if x < 0.3 else 1.0

    assert math.isclose(adaptive_simpson(step, 0.0, 1.0), 0.7, abs_tol=1e-9)
    assert len(calls) < MAX_EVALS

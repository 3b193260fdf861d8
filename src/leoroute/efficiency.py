"""Closed-form efficiency approximations and the measured efficiency ratio.

Efficiency compares a route against the ideal equal-hop optimum: the
ratio of the ideal latency to the achieved latency, in (0, 1]. Two
approximations predict it from the constellation density alone:

* the *contour* form, which scales the ideal hop chord by the mean
  stretch a nearest-satellite displacement induces
  (:func:`mean_hop_stretch`), and
* the *binomial* form, which replaces the hop chord by the mean span of a
  hop whose endpoints are both displaced (:func:`mean_hop_span`).

Both take half the hop dome angle as their argument.
"""

from __future__ import annotations

import math

import numpy as np

from .analysis import _contact_quantile, contact_pdf, n_min_ideal
from .errors import InternalConsistencyError, InvalidInputError

# Unused here; benchmarks/tracing.py wraps this binding by name.
from .quadrature import adaptive_simpson  # noqa: F401


def _validate_hop(theta_h: float, n_sat: int, theta_max: float) -> None:
    if not 0.0 < theta_h < math.pi:
        raise InvalidInputError(f"theta_h must be in (0, pi), got {theta_h}")
    if n_sat < 1:
        raise InvalidInputError(f"n_sat must be >= 1, got {n_sat}")
    if not 0.0 < theta_max <= math.pi:
        raise InvalidInputError(f"theta_max must be in (0, pi], got {theta_max}")


#: Probability levels whose contact-angle quantiles split the integration
#: domain. Dense shells concentrate the contact density in a spike whose
#: width shrinks like 1/sqrt(n_sat); panels that do not follow the mass
#: would put few nodes on the spike.
_QUANTILE_LEVELS = (0.1, 0.5, 0.9, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12)

#: The 16-point Gauss-Legendre rule on [-1, 1]. It is symmetric, so its
#: eight positive nodes and their weights give the rest.
_HALF_NODES = (
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
)
_HALF_WEIGHTS = (
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
)
_NODES = np.array([-x for x in reversed(_HALF_NODES)] + list(_HALF_NODES))
_WEIGHTS = np.array(list(reversed(_HALF_WEIGHTS)) + list(_HALF_WEIGHTS))


def _ellipe(m: np.ndarray) -> np.ndarray:
    """Complete elliptic integral of the second kind E(m), element-wise for
    m in [0, 1].

    Arithmetic-geometric mean with the Legendre sum of squared half
    differences; E(1) = 1 is returned exactly, where the mean degenerates.
    """
    flat = m >= 1.0
    # b = 1 where m >= 1 makes those means converge at once.
    a, b, total = np.ones_like(m), np.sqrt(np.where(flat, 1.0, 1.0 - m)), 0.5 * m
    for k in range(32):
        if np.all(a - b <= 1e-15 * a):
            break
        a, b, c = 0.5 * (a + b), np.sqrt(a * b), 0.5 * (a - b)
        total += 2.0**k * c * c
    return np.where(flat, 1.0, math.pi / (2.0 * a) * (1.0 - total))


def mean_hop_stretch(theta_h: float, n_sat: int, theta_max: float) -> float:
    """Mean factor by which a displaced relay stretches a hop chord.

    Averages, over the contact-angle law and a uniform azimuth, the
    length of a chord whose far endpoint is displaced by the contact
    angle, normalized by the undisplaced chord. Approaches 1 as the
    constellation densifies. The azimuthal integral of sqrt(a - b cos phi)
    over [0, pi] is 2 sqrt(a + b) E(2b / (a + b)).

    The contact angle is integrated by the 16-point Gauss-Legendre rule, all
    nodes at once, on panels split at the quantiles of ``_QUANTILE_LEVELS``
    and at ``theta_h``, where E's argument reaches 1 and the integrand kinks.
    """
    _validate_hop(theta_h, n_sat, theta_max)
    inner = [_contact_quantile(1.0 - p, n_sat) for p in _QUANTILE_LEVELS]
    inner.append(theta_h)
    cuts = np.array(sorted({0.0, theta_max, *(t for t in inner if t < theta_max)}))
    half = 0.5 * np.diff(cuts)[:, None]
    theta = cuts[:-1, None] + half * (1.0 + _NODES)
    a = 1.0 - np.cos(theta) * math.cos(theta_h)
    b = np.sin(theta) * math.sin(theta_h)
    f = contact_pdf(theta, n_sat) * 2.0 * np.sqrt(a + b) * _ellipe(2.0 * b / (a + b))
    prefactor = math.sqrt(2.0) / (2.0 * math.pi * math.sin(theta_h / 2.0))
    return prefactor * float(np.sum(half * _WEIGHTS * f))


def mean_hop_span(theta_h: float, n_sat: int, theta_max: float) -> float:
    """Mean half-chord of a hop with both endpoints displaced along the arc.

    Averages, over two independent contact angles, the sine terms a hop
    of dome angle ``theta_h`` picks up when its endpoints slide by the
    contact angles. Approaches sin(theta_h) as the constellation
    densifies. The sines sum to 4 sin(theta_h) cos(theta1) cos(theta2), so
    the mean is sin(theta_h) times the squared cosine moment of the contact
    law up to ``theta_max``, elementary in u0 = (1 + cos theta_max) / 2.
    """
    _validate_hop(theta_h, n_sat, theta_max)
    n = n_sat
    u0 = (1.0 + math.cos(theta_max)) / 2.0
    moment = (n - 1) / (n + 1) - 2.0 * n / (n + 1) * u0 ** (n + 1) + u0**n
    return math.sin(theta_h) * moment * moment


def _ideal_chord_ratio(arc_angle: float, n_hat: int, theta_max: float) -> float:
    """sin-weighted hop-count ratio shared by both approximations.

    Its hop count is the ideal route's, :func:`~leoroute.analysis.n_min_ideal`;
    a planned count ``n_hat`` below it is rejected.
    """
    n_min = n_min_ideal(arc_angle, theta_max)
    if n_hat < n_min:
        raise InvalidInputError(f"require n_hat >= n_min = {n_min}, got {n_hat}")
    return n_min * math.sin(arc_angle / (2.0 * n_min))


def efficiency_contour(
    arc_angle: float, n_hat: int, n_sat: int, theta_max: float
) -> float:
    """Contour-form efficiency estimate.

    Ratio of the ideal total chord to the planned total chord stretched
    by the mean relay displacement.
    """
    numer = _ideal_chord_ratio(arc_angle, n_hat, theta_max)
    theta_h = arc_angle / (2.0 * n_hat)
    stretch = mean_hop_stretch(theta_h, n_sat, theta_max)
    return numer / (
        n_hat * math.sin(arc_angle / (2.0 * n_hat)) * (2.0 * stretch - 1.0)
    )


def efficiency_binomial(
    arc_angle: float, n_hat: int, n_sat: int, theta_max: float
) -> float:
    """Binomial-form efficiency estimate.

    Ratio of the ideal total chord to the planned hop count times the
    mean displaced hop span.
    """
    numer = _ideal_chord_ratio(arc_angle, n_hat, theta_max)
    theta_h = arc_angle / (2.0 * n_hat)
    return numer / (n_hat * mean_hop_span(theta_h, n_sat, theta_max))


def measured_efficiency(ideal_latency_ms: float, achieved_latency_ms):
    """Measured efficiency: ideal latency over achieved latency, for one
    achieved latency or for an array of them, checked all at once.

    Raises:
        InternalConsistencyError: If an achieved latency undercuts the
            ideal one (beyond rounding), which a correct route cannot do.
    """
    achieved = np.asarray(achieved_latency_ms)
    if ideal_latency_ms <= 0.0 or (achieved <= 0.0).any():
        raise InvalidInputError("latencies must be positive")
    if (achieved < ideal_latency_ms - 1e-9).any():
        raise InternalConsistencyError(
            "achieved latency undercuts the ideal lower bound: "
            f"{achieved.min()} < {ideal_latency_ms}"
        )
    return ideal_latency_ms / achieved_latency_ms

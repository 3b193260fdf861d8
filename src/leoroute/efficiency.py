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

from .analysis import _contact_quantile, contact_pdf, n_min_ideal
from .errors import InternalConsistencyError, InvalidInputError
from .quadrature import adaptive_simpson

#: Absolute tolerance of the contact-angle quadrature.
OUTER_TOL = 1e-8


def _validate_hop(theta_h: float, n_sat: int, theta_max: float) -> None:
    if not 0.0 < theta_h < math.pi:
        raise InvalidInputError(f"theta_h must be in (0, pi), got {theta_h}")
    if n_sat < 1:
        raise InvalidInputError(f"n_sat must be >= 1, got {n_sat}")
    if not 0.0 < theta_max <= math.pi:
        raise InvalidInputError(f"theta_max must be in (0, pi], got {theta_max}")


#: Probability levels whose contact-angle quantiles split the integration
#: domain. Dense shells concentrate the contact density in a spike whose
#: width shrinks like 1/sqrt(n_sat); without mass-aware panel boundaries a
#: fixed-node first pass can miss the spike entirely and terminate early.
_QUANTILE_LEVELS = (0.1, 0.5, 0.9, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12)


def _density_aware_integral(f, n_sat: int, upper: float, tol: float) -> float:
    """Integrate ``f`` over [0, upper] with panels split at density quantiles."""
    cuts = [0.0]
    for p in _QUANTILE_LEVELS:
        q = _contact_quantile(p, n_sat)
        if cuts[-1] + 1e-15 < q < upper - 1e-15:
            cuts.append(q)
    cuts.append(upper)
    per_panel = tol / (len(cuts) - 1)
    return sum(
        adaptive_simpson(f, a, b, tol=per_panel) for a, b in zip(cuts, cuts[1:])
    )


def _ellipe(m: float) -> float:
    """Complete elliptic integral of the second kind E(m), m in [0, 1].

    Arithmetic-geometric mean with the Legendre sum of squared half
    differences; E(1) = 1 is returned exactly, where the mean degenerates.
    """
    if m >= 1.0:
        return 1.0
    a, b, total = 1.0, math.sqrt(1.0 - m), 0.5 * m
    for k in range(32):
        if a - b <= 1e-15 * a:
            break
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        total += 2.0**k * c * c
    return math.pi / (2.0 * a) * (1.0 - total)


def mean_hop_stretch(theta_h: float, n_sat: int, theta_max: float) -> float:
    """Mean factor by which a displaced relay stretches a hop chord.

    Averages, over the contact-angle law and a uniform azimuth, the
    length of a chord whose far endpoint is displaced by the contact
    angle, normalized by the undisplaced chord. Approaches 1 as the
    constellation densifies. The azimuthal integral of sqrt(a - b cos phi)
    over [0, pi] is 2 sqrt(a + b) E(2b / (a + b)).
    """
    _validate_hop(theta_h, n_sat, theta_max)
    cos_h = math.cos(theta_h)
    sin_h = math.sin(theta_h)
    prefactor = math.sqrt(2.0) / (2.0 * math.pi * math.sin(theta_h / 2.0))

    def outer(theta: float) -> float:
        density = float(contact_pdf(theta, n_sat))
        if density == 0.0:
            return 0.0
        a = 1.0 - math.cos(theta) * cos_h
        b = math.sin(theta) * sin_h
        return density * 2.0 * math.sqrt(a + b) * _ellipe(2.0 * b / (a + b))

    return prefactor * _density_aware_integral(outer, n_sat, theta_max, OUTER_TOL)


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
    arc_angle: float,
    n_hat: int,
    n_sat: int,
    theta_max: float,
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
    arc_angle: float,
    n_hat: int,
    n_sat: int,
    theta_max: float,
) -> float:
    """Binomial-form efficiency estimate.

    Ratio of the ideal total chord to the planned hop count times the
    mean displaced hop span.
    """
    numer = _ideal_chord_ratio(arc_angle, n_hat, theta_max)
    theta_h = arc_angle / (2.0 * n_hat)
    return numer / (n_hat * mean_hop_span(theta_h, n_sat, theta_max))


def measured_efficiency(ideal_latency_ms: float, achieved_latency_ms: float) -> float:
    """Measured efficiency: ideal latency over achieved latency.

    Raises:
        InternalConsistencyError: If the achieved latency undercuts the
            ideal one (beyond rounding), which a correct route cannot do.
    """
    if ideal_latency_ms <= 0.0 or achieved_latency_ms <= 0.0:
        raise InvalidInputError("latencies must be positive")
    if achieved_latency_ms < ideal_latency_ms - 1e-9:
        raise InternalConsistencyError(
            "achieved latency undercuts the ideal lower bound: "
            f"{achieved_latency_ms} < {ideal_latency_ms}"
        )
    return ideal_latency_ms / achieved_latency_ms


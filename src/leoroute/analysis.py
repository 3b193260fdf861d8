"""Closed-form analysis of hop counts, contact angles, and latency floors.

For satellites placed uniformly at random on a sphere, the dome angle from
a fixed point to its nearest satellite ("contact angle") has distribution
F(theta) = 1 - ((1 + cos theta)/2)^N. Everything in this module builds on
that law: the reliable angle a relay search stays within at a target
confidence, the hop-count planner that trades hop length against search
reliability, and the minimum constellation size that makes a route
feasible at a given confidence.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import InternalConsistencyError, InvalidInputError
from .geometry import SIGNAL_SPEED_KM_MS
from .quadrature import adaptive_simpson

ArrayLike = Union[float, np.ndarray]

#: Last grid point k of :func:`min_sats_grid`.
_GRID_STEPS = 20


@dataclass(frozen=True)
class HopPlan:
    """Outcome of the hop-count search.

    Attributes:
        n_hat: Planned hop count.
        reliable_angle: Search radius (dome angle) at ``n_hat`` that keeps
            the whole route's interruption probability within budget.
        type1_interrupted: True when planning failed because the reliable
            angle outgrew half the maximum hop angle.
        iterations_used: Number of reliable-angle evaluations performed.
    """

    n_hat: int
    reliable_angle: float
    type1_interrupted: bool
    iterations_used: int

    def __post_init__(self) -> None:
        if self.n_hat < 1:
            raise InvalidInputError(f"n_hat must be >= 1, got {self.n_hat}")
        if self.iterations_used < 1:
            raise InvalidInputError("iterations_used must be >= 1")
        if self.reliable_angle < 0.0:
            raise InvalidInputError("reliable_angle must be non-negative")

    @property
    def immediate_type1(self) -> bool:
        """Planning failed before any feasible hop count existed."""
        return self.type1_interrupted and self.iterations_used == 1


class ContactMean(NamedTuple):
    """Mean contact angle computed two independent ways."""

    quadrature: float
    product_form: float


def max_hop_angle(radius: float, r_earth: float, d_max: float) -> float:
    """Largest dome angle one hop may span.

    Binds the horizon limit (the chord must clear the occluding body) with
    the hardware range limit ``d_max``.
    """
    if not 0.0 < r_earth < radius:
        raise InvalidInputError("require 0 < r_earth < radius")
    if not d_max > 0.0:
        raise InvalidInputError(f"d_max must be positive, got {d_max}")
    horizon = 2.0 * math.acos(r_earth / radius)
    reach = 2.0 * math.asin(min(d_max, 2.0 * radius) / (2.0 * radius))
    return min(horizon, reach)


def _validate_pop(n_sat: int) -> None:
    if n_sat < 1:
        raise InvalidInputError(f"n_sat must be >= 1, got {n_sat}")


def contact_cdf(theta: ArrayLike, n_sat: int) -> ArrayLike:
    """P(nearest-satellite dome angle <= theta) for ``n_sat`` uniform satellites."""
    _validate_pop(n_sat)
    t = np.asarray(theta, dtype=float)
    if np.any(t < -1e-12) or np.any(t > math.pi + 1e-12):
        raise InvalidInputError("theta must lie in [0, pi]")
    out = 1.0 - ((1.0 + np.cos(t)) / 2.0) ** n_sat
    return float(out) if np.isscalar(theta) else out


def contact_pdf(theta: ArrayLike, n_sat: int) -> ArrayLike:
    """Density of the nearest-satellite dome angle on [0, pi]."""
    _validate_pop(n_sat)
    t = np.asarray(theta, dtype=float)
    if np.any(t < -1e-12) or np.any(t > math.pi + 1e-12):
        raise InvalidInputError("theta must lie in [0, pi]")
    out = (n_sat / 2.0) * np.sin(t) * ((1.0 + np.cos(t)) / 2.0) ** (n_sat - 1)
    return float(out) if np.isscalar(theta) else out


@functools.lru_cache(maxsize=16)
def contact_mean(n_sat: int) -> ContactMean:
    """Mean contact angle, by quadrature and by an exact product form.

    The two values agree to at least three significant figures for
    ``n_sat`` >= 100; the product form is evaluated in log space so it
    stays finite for very large constellations. Results are memoized: every
    summary table asks again for the same three shells.
    """
    _validate_pop(n_sat)
    n = n_sat

    def survival(theta: float) -> float:
        return ((1.0 + math.cos(theta)) / 2.0) ** n

    quad = adaptive_simpson(survival, 0.0, math.pi, tol=1e-10)
    log_product = math.lgamma(2 * n + 1) - 2.0 * math.lgamma(n + 1) - n * math.log(4.0)
    product = math.pi * math.exp(log_product)
    return ContactMean(quadrature=quad, product_form=product)


def reliable_angle(epsilon: float, n_hops: int, n_sat: int) -> float:
    """Search radius whose n_hops-fold success probability is 1 - epsilon.

    Solves contact_cdf(theta, n_sat) = (1 - epsilon)**(1/n_hops) for theta:
    if every one of ``n_hops`` independent searches finds a satellite
    within this dome angle, the route as a whole fails with probability at
    most ``epsilon``.
    """
    if not 0.0 < epsilon < 1.0:
        raise InvalidInputError(f"epsilon must be in (0, 1), got {epsilon}")
    if n_hops < 1:
        raise InvalidInputError(f"n_hops must be >= 1, got {n_hops}")
    _validate_pop(n_sat)
    return _contact_quantile((1.0 - epsilon) ** (1.0 / n_hops), n_sat)


def _contact_quantile(p: float, n_sat: int) -> float:
    """Angle below which a fraction ``p`` of contact angles falls."""
    cos_theta = 2.0 * (1.0 - p) ** (1.0 / n_sat) - 1.0
    return math.acos(min(1.0, max(-1.0, cos_theta)))


def n_min_ideal(arc_angle: float, theta_max: float) -> int:
    """Fewest hops that can span ``arc_angle`` with hops capped at ``theta_max``.

    Includes one extra hop of slack so relays can be displaced off the
    great-circle arc without any hop exceeding the cap.
    """
    if not 0.0 < arc_angle <= math.pi:
        raise InvalidInputError(f"arc_angle must be in (0, pi], got {arc_angle}")
    if theta_max <= 0.0:
        raise InvalidInputError(f"theta_max must be positive, got {theta_max}")
    return math.ceil(arc_angle / theta_max) + 1


def min_feasible_hops(arc_angle: float, theta_max: float) -> int:
    """Fewest hops that can physically span ``arc_angle``.

    Unlike :func:`n_min_ideal` this carries no slack hop: it is the exact
    feasibility minimum (1 when the endpoints reach each other directly).
    """
    if not 0.0 < arc_angle <= math.pi:
        raise InvalidInputError(f"arc_angle must be in (0, pi], got {arc_angle}")
    if theta_max <= 0.0:
        raise InvalidInputError(f"theta_max must be positive, got {theta_max}")
    return max(1, math.ceil(arc_angle / theta_max - 1e-12))


def latency_floor(arc_angle: float, theta_max: float, radius: float) -> float:
    """Provable lower bound in ms on any admissible route's latency.

    Any route's hop dome angles sum to at least the endpoint separation
    and are individually capped at ``theta_max``; by concavity of the
    chord length in the dome angle, the total chord is minimized by
    taking as few hops as possible with all but one at the cap. Note this
    sits slightly below the equal-hop optimum of :func:`ideal_latency`,
    which is the printed construction but not a true bound.
    """
    if radius <= 0.0:
        raise InvalidInputError(f"radius must be positive, got {radius}")
    k = min_feasible_hops(arc_angle, theta_max)
    remainder = arc_angle - (k - 1) * theta_max
    total_chord_factor = (k - 1) * math.sin(theta_max / 2.0) + math.sin(
        remainder / 2.0
    )
    return (2.0 * radius / SIGNAL_SPEED_KM_MS) * total_chord_factor


def iteration_bound(epsilon: float, theta_max: float, n_sat: int) -> float:
    """Upper bound on reliable-angle evaluations the hop planner performs.

    Returns +inf when the underlying tail probability underflows to zero,
    which signals "no meaningful bound" rather than an error.
    """
    if not 0.0 < epsilon < 1.0:
        raise InvalidInputError(f"epsilon must be in (0, 1), got {epsilon}")
    if theta_max <= 0.0:
        raise InvalidInputError(f"theta_max must be positive, got {theta_max}")
    _validate_pop(n_sat)
    base = (1.0 + math.cos(theta_max / 2.0)) / 2.0
    tail = base**n_sat
    denom = math.log1p(-tail)
    if denom == 0.0:
        return math.inf
    return math.log1p(-epsilon) / denom


def plan_hops(
    arc_angle: float, theta_max: float, n_sat: int, epsilon: float
) -> HopPlan:
    """Search for the hop count whose reliable angle fits the hop-length slack.

    Starting from the ideal minimum, the hop count grows while the
    reliable angle sits between the per-hop slack (theta_max - arc/n)/2
    and theta_max/2. Dropping below the slack ends the search with a
    feasible plan; exceeding theta_max/2 ends it with a type-I
    interruption (no hop count can satisfy the budget). Boundary equality
    keeps searching.
    """
    if not 0.0 < arc_angle <= math.pi:
        raise InvalidInputError(f"arc_angle must be in (0, pi], got {arc_angle}")
    bound = iteration_bound(epsilon, theta_max, n_sat)
    cap = math.inf if math.isinf(bound) else math.ceil(bound) + 1
    upper = theta_max / 2.0
    n = n_min_ideal(arc_angle, theta_max)
    iterations = 0
    while True:
        iterations += 1
        if iterations > cap:
            raise InternalConsistencyError(
                f"hop planner exceeded its iteration cap of {cap}"
            )
        theta_r = reliable_angle(epsilon, n, n_sat)
        slack = 0.5 * (theta_max - arc_angle / n)
        if theta_r < slack:
            return HopPlan(
                n_hat=n,
                reliable_angle=theta_r,
                type1_interrupted=False,
                iterations_used=iterations,
            )
        if theta_r > upper:
            return HopPlan(
                n_hat=n,
                reliable_angle=theta_r,
                type1_interrupted=True,
                iterations_used=iterations,
            )
        n += 1


def min_sats_sufficient(
    arc_angle: float, theta_max: float, epsilon: float, theta_t: float
) -> int:
    """Constellation size sufficient for a route with search radius ``theta_t``.

    Each hop searches for a relay within dome angle ``theta_t`` of its
    target; the hop count is sized so hops of length theta_max - 2*theta_t
    cover the arc even when every relay lands at the search boundary. The
    returned N makes all searches succeed jointly with probability at
    least 1 - epsilon.
    """
    if not 0.0 < arc_angle <= math.pi:
        raise InvalidInputError(f"arc_angle must be in (0, pi], got {arc_angle}")
    if theta_max <= 0.0:
        raise InvalidInputError(f"theta_max must be positive, got {theta_max}")
    if not 0.0 < epsilon < 1.0:
        raise InvalidInputError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0.0 < theta_t < theta_max / 2.0:
        raise InvalidInputError(
            f"theta_t must be in (0, theta_max/2), got {theta_t}"
        )
    # The 1e-9 slack keeps the ceiling stable when theta_t is chosen to
    # make the quotient an exact integer (float cancellation can push it
    # a few ulps above).
    hops = math.ceil(arc_angle / (theta_max - 2.0 * theta_t) - 1e-9) + 1
    # 1 - (1 - epsilon)^(1/hops), kept positive when the power rounds to 1.
    per_hop_miss = -math.expm1(math.log1p(-epsilon) / hops)
    n_req = math.log(per_hop_miss) / math.log((1.0 + math.cos(theta_t)) / 2.0)
    return math.ceil(n_req)


def min_sats_grid(arc_angle: float, theta_max: float, epsilon: float) -> list[int]:
    """Sufficient constellation sizes over a standard search-radius grid.

    Grid point k = 0, ..., 20 fixes the search radius at half the per-hop
    slack of a route with n_min_ideal + k hops and sizes the constellation
    for it.
    """
    n_min = n_min_ideal(arc_angle, theta_max)
    sizes: list[int] = []
    for k in range(_GRID_STEPS + 1):
        theta_t = 0.5 * (theta_max - arc_angle / (n_min + k))
        sizes.append(min_sats_sufficient(arc_angle, theta_max, epsilon, theta_t))
    return sizes


def min_sats_grid_minimum(arc_angle: float, theta_max: float, epsilon: float) -> int:
    """Smallest sufficient constellation size over the search-radius grid."""
    return min(min_sats_grid(arc_angle, theta_max, epsilon))


def ideal_latency(arc_angle: float, n_hops: int, radius: float) -> float:
    """Propagation latency in ms of n equal hops along the great-circle arc.

    This is the latency floor for any n-hop route between the endpoints;
    it increases with ``n_hops`` toward the arc-length limit.
    """
    if not 0.0 < arc_angle <= math.pi:
        raise InvalidInputError(f"arc_angle must be in (0, pi], got {arc_angle}")
    if n_hops < 1:
        raise InvalidInputError(f"n_hops must be >= 1, got {n_hops}")
    if radius <= 0.0:
        raise InvalidInputError(f"radius must be positive, got {radius}")
    return (2.0 * radius * n_hops / SIGNAL_SPEED_KM_MS) * math.sin(
        arc_angle / (2.0 * n_hops)
    )

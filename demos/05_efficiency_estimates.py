"""Efficiency estimates: two closed-form predictions vs. a measurement.

A planned route is efficient when its latency stays close to the
provable floor for the endpoint separation.  Two cheap closed-form
estimates predict that ratio before any satellites are sampled:

* the contour estimate integrates the detour stretch of a typical hop
  over the contact law (how much longer each hop gets when the relay
  sits off the direct arc), and
* the binomial estimate divides the ideal per-hop span by the mean
  achieved span (how much forward progress a typical hop really makes).

This demo computes both for each preset and checks them against a
Monte Carlo measurement of the equal-interval strategy.
"""

import math

from leoroute import (
    CellParams,
    contact_mean,
    efficiency_binomial,
    efficiency_contour,
    max_hop_angle,
    mean_hop_span,
    mean_hop_stretch,
    n_min_ideal,
    plan_hops,
    run_cell,
)

R_EARTH = 6371.0
ARC = math.pi / 2  # quarter of a great circle
EPSILON = 0.01
TRIALS = 400
SEED = 7

print(f"endpoint separation {ARC:.4f} rad, failure budget {EPSILON}")
print()

for name in ("starlink", "kuiper", "oneweb"):
    params = CellParams.from_preset(name, arc_angle=ARC, epsilon=EPSILON)
    radius = R_EARTH + params.altitude_km
    theta_max = max_hop_angle(radius, R_EARTH, params.d_max_km)
    n_min = n_min_ideal(ARC, theta_max)
    plan = plan_hops(ARC, theta_max, params.n_sat, EPSILON)

    print(f"=== {name}: {params.n_sat} satellites at "
          f"{params.altitude_km:.0f} km")
    if plan.type1_interrupted:
        print(f"    plan infeasible within budget (type-I) at "
              f"n_hat={plan.n_hat}; estimates still defined:")
    theta_h = ARC / plan.n_hat
    print(f"    hops: fewest possible {n_min}, planned {plan.n_hat} "
          f"(per-hop span {theta_h:.4f} rad)")
    print(f"    mean contact angle      {contact_mean(params.n_sat).quadrature:.4f} rad")
    print(f"    mean hop stretch        "
          f"{mean_hop_stretch(theta_h, params.n_sat, theta_max):.6f}")
    print(f"    mean hop span           "
          f"{mean_hop_span(theta_h, params.n_sat, theta_max):.4f} rad")

    contour = efficiency_contour(ARC, n_min, plan.n_hat, params.n_sat, theta_max)
    binomial = efficiency_binomial(ARC, n_min, plan.n_hat, params.n_sat, theta_max)
    print(f"    contour estimate        {contour:.4f}")
    print(f"    binomial estimate       {binomial:.4f}")
    if plan.type1_interrupted:
        print()
        continue

    cell = run_cell(params, "equal-interval", TRIALS, SEED)
    measured = cell.mean_efficiency
    print(f"    measured ({TRIALS} trials)    {measured:.4f} "
          f"(mean latency {cell.mean_latency_ms:.3f} ms)")
    bracketed = contour <= measured <= binomial
    print(f"    contour <= measured <= binomial: "
          f"{'yes' if bracketed else 'no'}")
    print()

"""Routing strategies compared on a single constellation draw.

Builds one reproducible 800-satellite shell, places endpoints 10000 km
apart, and routes between them with each strategy: the unconstrained
optimum, the planned equal-interval target-snapping search, and the two
greedy baselines. Prints hop chains, latencies, and efficiency against
the provable latency floor.

Every router takes the shell, the longest hop ``D_MAX`` and the hop plan;
the shell's last two satellites are the endpoints and its body radius sets
the line-of-sight limit.
"""

from leoroute import (
    arc_waypoints,
    ideal_latency,
    latency_floor,
    make_endpoints,
    max_hop_angle,
    n_min_ideal,
    plan_hops,
    route_equal_interval,
    route_max_stepsize,
    route_min_deflection,
    sample_bpp,
)

R_EARTH = 6371.0
ALTITUDE = 500.0
RADIUS = R_EARTH + ALTITUDE
DISTANCE_KM = 10000.0
ARC = DISTANCE_KM / RADIUS
D_MAX = 3000.0
EPSILON = 0.1

shell = sample_bpp(800, R_EARTH, ALTITUDE, seed=12)
src, dst = make_endpoints(RADIUS, ARC)
c = shell.with_extra_points([src, dst])  # endpoints become satellites too

theta_max = max_hop_angle(RADIUS, R_EARTH, D_MAX)
floor_ms = latency_floor(ARC, theta_max, RADIUS)
print(f"endpoints {DISTANCE_KM:.0f} km apart on an 800-satellite shell")
print(f"provable latency floor: {floor_ms:.3f} ms\n")

# The unconstrained optimum: equal hops along the great-circle arc, with
# relay positions anywhere on the sphere.
positions = arc_waypoints(src, dst, n_min_ideal(ARC, theta_max))
ideal_ms = ideal_latency(ARC, len(positions) - 1, RADIUS)
print(f"ideal relays     : {len(positions) - 1} equal hops, {ideal_ms:.3f} ms "
      f"(fewest possible: {n_min_ideal(ARC, theta_max)})")

# The planned search: equal-interval targets snapped to real satellites.
plan = plan_hops(ARC, theta_max, shell.n_sat, EPSILON)
route = route_equal_interval(c, D_MAX, plan)
print(f"equal-interval   : {route.n_hops} hops, {route.latency:.3f} ms, "
      f"status {route.status.value}, "
      f"efficiency {floor_ms / route.latency:.1%}")
print(f"                   hop chain {list(route.hops)}")

# Greedy baselines, on the same plan: min-deflection stops after
# 4 * plan.n_hat hops, max-stepsize keeps within plan.reliable_angle of the arc.
for name, builder in (
    ("min-deflection", route_min_deflection),
    ("max-stepsize", route_max_stepsize),
):
    route = builder(c, D_MAX, plan)
    eff = f"{floor_ms / route.latency:.1%}" if not route.interrupted else "n/a"
    print(f"{name:17s}: {route.n_hops} hops, "
          f"{route.latency if not route.interrupted else float('nan'):.3f} ms, "
          f"status {route.status.value}, efficiency {eff}")

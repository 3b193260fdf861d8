"""Spherical primitives: points, arcs, interpolation, and hop limits.

Walks through the geometric vocabulary the rest of the library builds
on: dome angles and chords between satellites, great-circle
interpolation, deflection from a reference arc, and the line-of-sight
limit that caps how far a single hop may reach.
"""

import math

from leoroute import (
    SpherePoint,
    chord_distance,
    dome_angle,
    great_arc,
    los_chord_limit,
    max_hop_angle,
    slerp,
)
from leoroute.geometry import SIGNAL_SPEED_KM_MS

R_EARTH = 6371.0
RADIUS = R_EARTH + 550.0  # a 550 km shell

# Two satellites a quarter turn apart on the same parallel.
a = SpherePoint(r=RADIUS, theta=math.pi / 3, phi=0.0)
b = SpherePoint(r=RADIUS, theta=math.pi / 3, phi=math.pi / 2)

print("dome angle a-b   :", f"{dome_angle(a, b):.6f} rad")
print("chord distance   :", f"{chord_distance(a, b):.1f} km")

# Great-circle interpolation: the midpoint sits at half the dome angle.
mid = slerp(a, b, 0.5)
print("midpoint dome to a:", f"{dome_angle(a, mid):.6f} rad (half of a-b)")

# Deflection measures how far a candidate satellite strays from the
# reference arc: |asin(u . n)| for its unit vector u and the arc's normal n,
# as the routers compute it. A point on the arc itself has deflection zero.
_, normal = great_arc(a.unit_vector(), b.unit_vector(), 0.0)


def deflection(p):
    return abs(math.asin(float(p.unit_vector() @ normal)))


off_arc = SpherePoint(r=RADIUS, theta=math.pi / 3 - 0.1, phi=math.pi / 4)
print("deflection of mid :", f"{deflection(mid):.2e} rad")
print("deflection off-arc:", f"{deflection(off_arc):.4f} rad")

# A hop is admissible only below the line-of-sight chord (the Earth
# otherwise blocks the link) and below the hardware range d_max.
los = los_chord_limit(RADIUS, R_EARTH)
print("line-of-sight cap :", f"{los:.1f} km")
for d_max in (3000.0, 8000.0):
    theta = max_hop_angle(RADIUS, R_EARTH, d_max)
    cap = "d_max" if d_max < los else "horizon"
    print(
        f"max hop angle (d_max={d_max:.0f} km): {theta:.6f} rad  [{cap}-limited]"
    )

# Latency is pure propagation: chord length over the speed of light.
print("one 3000 km hop  :", f"{3000.0 / SIGNAL_SPEED_KM_MS:.3f} ms")

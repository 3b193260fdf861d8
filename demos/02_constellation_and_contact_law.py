"""Uniform constellations and the nearest-satellite contact law.

Samples a shell of uniformly distributed satellites, then checks the
closed-form distribution of the contact angle (dome angle to the nearest
satellite) against an empirical histogram, and prints the catalogue of
preset shells the library ships with.
"""

import numpy as np

from leoroute import (
    PRESET_PARAMS,
    contact_cdf,
    contact_mean,
    nearest,
    sample_bpp,
    SpherePoint,
)

R_EARTH = 6371.0

# A reproducible 650-satellite shell at 1200 km.
shell = sample_bpp(650, R_EARTH, 1200.0, seed=42)
print(f"sampled {shell.n_sat} satellites on r = {shell.radius:.0f} km")

# Empirical contact angles from many random reference points.
rng = np.random.default_rng(7)
samples = []
for _ in range(2000):
    ref = SpherePoint(
        r=shell.radius,
        theta=float(np.arccos(rng.uniform(-1.0, 1.0))),
        phi=float(rng.uniform(0.0, 2.0 * np.pi)),
    )
    sat_id = nearest(shell, ref.unit_vector())
    samples.append(
        float(np.arccos(np.clip(shell.unit_vectors[sat_id] @ ref.unit_vector(), -1, 1)))
    )
samples = np.array(samples)

mean = contact_mean(650)
print(f"contact mean: closed form {mean.product_form:.6f} rad, "
      f"quadrature {mean.quadrature:.6f} rad, empirical {samples.mean():.6f} rad")

# Quantiles of the closed-form law vs the sample.
for p in (0.25, 0.5, 0.9):
    theoretical = float(np.arccos(2.0 * (1.0 - p) ** (1.0 / 650) - 1.0))
    print(f"  {p:.0%} quantile: law {theoretical:.4f} rad, "
          f"sample {np.quantile(samples, p):.4f} rad, "
          f"CDF at law value {float(contact_cdf(theoretical, 650)):.3f}")

print("\npreset shells:")
for name, (altitude_km, n_sat) in sorted(PRESET_PARAMS.items()):
    print(f"  {name:9s} altitude {altitude_km:6.0f} km, {n_sat:5d} satellites, "
          f"mean contact angle {contact_mean(n_sat).product_form:.4f} rad")

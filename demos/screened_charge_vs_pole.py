"""A massive photon screens electric charge but cannot screen a pole.

The electric field of a point charge picks up the factor (1 + mu r) e^{-mu r},
so a Gauss sphere at radius R sees the charge q (1 + mu R) e^{-mu R}, which
dies exponentially. The magnetic field of a pole keeps its bare g / r^2 form
at every mu, and squeezing its flux into a screened tube only rearranges
where the flux sits: the total through any far loop stays 4 pi g.
"""

import numpy as np
from scipy.integrate import quad

from polelab.fields import (PhysicalConfig, TubeSpec, local_charge,
                            monopole_field, proca_tube_profile,
                            tube_potential, yukawa_electric_field)
from polelab.gauge import circle_flux

cfg = PhysicalConfig(q=1.0, g=0.5, mu=1.0)

radii = np.geomspace(0.5, 20.0, 9)
pts = np.zeros((len(radii), 3))
pts[:, 2] = radii

e_mag = np.linalg.norm(yukawa_electric_field(cfg, pts), axis=1)
b_mag = np.linalg.norm(monopole_field(cfg, pts), axis=1)
q_seen = local_charge(cfg, radii)

print(f"point charge q = {cfg.q}, pole g = {cfg.g}, photon mass mu = {cfg.mu}")
print(f"{'R':>8} {'|E|':>12} {'q_local':>12} {'|B|':>12} {'B r^2 / g':>10}")
for r, e, qs, b in zip(radii, e_mag, q_seen, b_mag):
    print(f"{r:8.3f} {e:12.4e} {qs:12.4e} {b:12.4e} {b * r**2 / cfg.g:10.6f}")

# the rightmost column never moves: the pole is unscreened while the
# charge column collapses
print()

# Total flux of the screened tube profile B_z = 2 g mu^2 K0(mu rho).
for g, mu in ((0.5, 1.0), (1.0, 2.0)):
    total = sum(quad(lambda rho: 2.0 * np.pi * rho
                     * proca_tube_profile(g, mu, rho), a, b)[0]
                for a, b in ((0.0, 10.0 / mu), (10.0 / mu, np.inf)))
    print(f"screened tube g={g}, mu={mu}: integrated flux = {total:.10f}"
          f"  (4 pi g = {4.0 * np.pi * g:.10f})")

# A uniform tube of radius R with B = 4 g / R^2 carries the same total,
# and a loop far outside either tube reads the full winding.
spec = TubeSpec(g=0.5, R=1.0)
flux, err = circle_flux(lambda r: tube_potential(spec, r), (0.0, 0.0, 0.0),
                        (25.0, 0.0, 0.0), (0.0, 25.0, 0.0))
print(f"uniform tube, loop at rho=25: flux = {flux:.12f} "
      f"(quadrature err {err:.1e})")

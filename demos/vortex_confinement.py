"""What happens to a pole's return flux once the photon mass comes from a
Higgs field: it collapses into a quantized vortex line with finite tension.

The abelian Higgs model supports string solutions with winding n, carrying
magnetic flux 2 pi n / q regardless of the couplings. At the critical
coupling beta = lambda / (2 q^2) = 1 the tension saturates the Bogomolny
bound 2 pi v^2 n exactly; either side of criticality it moves off the bound
in the direction that decides whether vortices attract or repel. A pole
attached to such a string costs energy T per unit length, so an isolated
pole is confined.
"""

import numpy as np

from polelab.vortex import (VortexConfig, confinement_energy,
                            magnetic_profile, solve_vortex, vortex_flux)

critical = VortexConfig(q=1.0, v=1.0, lam=2.0, n=1)
profile, tension = solve_vortex(critical)

print(f"critical coupling (beta = {critical.beta}):")
print(f"  tension T = {tension.T:.10f}, bound 2 pi v^2 = {2 * np.pi:.10f}")
print(f"  T / bound = {tension.bogomolny_ratio:.8f}")
print(f"  flux = {vortex_flux(critical, profile):.12f} "
      f"(2 pi n / q = {2 * np.pi:.12f})")

i = np.searchsorted(profile.rho_grid, [0.5, 1.0, 2.0, 4.0])
b = magnetic_profile(critical, profile)
print(f"  profile f at rho=0.5,1,2,4: "
      + ", ".join(f"{profile.f[j]:.4f}" for j in i))
print(f"  B_z on axis = {b[0]:.6f} "
      f"(m_V^2 / 2q = {critical.photon_mass**2 / (2 * critical.q):.6f})")

print("\ntension across the critical point:")
for lam, kind in ((1.0, "type I "), (2.0, "critical"), (4.0, "type II")):
    _, t = solve_vortex(VortexConfig(q=1.0, v=1.0, lam=lam, n=1))
    print(f"  beta = {lam / 2:.1f} ({kind}): T = {t.T:.6f}, "
          f"T / 2 pi v^2 = {t.bogomolny_ratio:.6f}")

# energy of a pole whose string has been stretched to length L
print("\nconfinement at the critical coupling:")
for L in (1.0, 10.0, 100.0):
    print(f"  L = {L:6.1f}: E = {confinement_energy(tension, L):12.4f}")
print("linear without bound, so the free pole never detaches")

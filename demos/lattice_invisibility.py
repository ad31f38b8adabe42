"""Scattering a charged packet off a flux line on the lattice.

The line enters the dynamics only through link phases e^{i q Phi} on a cut.
When q Phi is a multiple of 2 pi those phases equal 1 to rounding and the
string drops out of the arithmetic; otherwise it scatters. A two-slit pair
straddling the line turns the same phase into a fringe displacement of
(q Phi / 2 pi) mod 1 periods.

Grids here are kept small so the demo runs in seconds; the acceptance suite
repeats both experiments on the full 512^2 grid.
"""

import numpy as np

from polelab.interference import (InterferenceConfig, measure_fringe,
                                  measure_invisibility, run_experiment)

small = InterferenceConfig(nx=128, ny=128)
labels = ("q Phi = 2 pi (quantized)", "q Phi = pi   (half quantum)")
lines = [small.flux_line(flux, 1.0) for flux in (2.0 * np.pi, np.pi)]

print("single packet aimed at the flux line (128^2 lattice)")
free, grids = run_experiment(small, "single", lines)
for label, grid in zip(labels, grids):
    print(f"  {label}: far-field deviation from free = "
          f"{measure_invisibility(small, grid, free):.3e}")

# fringes need a few oscillation periods under the envelope, so a larger
# transverse box and wider slit gap
mid = InterferenceConfig(nx=256, ny=256, slit_separation=60.0)
lines = [mid.flux_line(flux, 1.0) for flux in (np.pi, 2.0 * np.pi)]

print("\ntwo-slit pair around the line (256^2 lattice)")
print(f"{'q Phi':>10} {'predicted':>10} {'measured':>10} {'circ err':>10}")
free, grids = run_experiment(mid, "two_slit", lines)
for line, grid in zip(lines, grids):
    predicted, measured, err = measure_fringe(mid, line, grid, free)
    print(f"{line.flux:10.4f} {predicted:10.4f} {measured:10.4f} {err:10.4f}")
print("(displacements are fractions of one period; 0.9999 and 0 are the "
      "same point on the circle, hence the circular error column)")

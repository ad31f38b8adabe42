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

from polelab.interference import (InterferenceConfig, run_fringe,
                                  run_invisibility, two_path_fringe_shift)

small = InterferenceConfig(nx=128, ny=128)

print("single packet aimed at the flux line (128^2 lattice)")
for flux, label in ((2.0 * np.pi, "q Phi = 2 pi (quantized)"),
                    (np.pi, "q Phi = pi   (half quantum)")):
    out = run_invisibility(1.0, flux, small)
    print(f"  {label}: far-field deviation from free = {out['metric']:.3e}")

# fringes need a few oscillation periods under the envelope, so a larger
# transverse box and wider slit gap
mid = InterferenceConfig(nx=256, ny=256, slit_separation=60.0)

print("\ntwo-slit pair around the line (256^2 lattice)")
print(f"{'q Phi':>10} {'predicted':>10} {'measured':>10} {'circ err':>10}")
for flux in (np.pi, 2.0 * np.pi):
    out = run_fringe(1.0, flux, mid)
    print(f"{flux:10.4f} {two_path_fringe_shift(1.0, flux):10.4f} "
          f"{out['shift_measured']:10.4f} {out['circular_error']:10.4f}")
print("(displacements are fractions of one period; 0.9999 and 0 are the "
      "same point on the circle, hence the circular error column)")

"""Two-patch potential of a pole and the integer that makes it consistent.

The north and south patches disagree on the overlap band by the pure-gauge
vector grad(2 g phi). A charge q moved once around the axis therefore picks
up e^{i 2 q g * 2 pi}, and the two descriptions agree only when 2 q g is an
integer. Below, the mismatch is checked pointwise, the cap flux is obtained
from loop holonomies alone, and the quantization predicate is evaluated on
a few (q, g) pairs.
"""

import numpy as np

from polelab.gauge import (HolonomyConfig, cap_flux, check_quantization,
                           patch_mismatch, string_invisibility,
                           transition_function)

g = 0.5

# mismatch vs grad(2 g phi) on the overlap band
rng = np.random.default_rng(3)
theta = rng.uniform(np.pi / 2 - 0.25, np.pi / 2 + 0.25, 400)
phi = rng.uniform(0.3, 2.0 * np.pi - 0.3, 400)
r = rng.uniform(0.5, 4.0, 400)
pts = np.stack([r * np.sin(theta) * np.cos(phi),
                r * np.sin(theta) * np.sin(phi),
                r * np.cos(theta)], axis=-1)
grad = np.stack([-pts[:, 1], pts[:, 0], np.zeros(400)],
                axis=-1) * (2.0 * g / (r * np.sin(theta)) ** 2)[:, None]
dev = np.abs(patch_mismatch(g, pts) - grad).max()
print(f"max |(A_N - A_S) - grad(2 g phi)| over 400 band points: {dev:.3e}")

# flux through spherical caps, from the loop integral around each rim only
print(f"\n{'theta':>8} {'cap flux':>14} {'2 pi g (1-cos)':>16}")
for theta_cap in (0.3, 1.0, np.pi / 2, 2.5):
    flux, _ = cap_flux(HolonomyConfig(g=g, theta=theta_cap, radius=1.0))
    print(f"{theta_cap:8.3f} {flux:14.10f} "
          f"{2.0 * np.pi * g * (1.0 - np.cos(theta_cap)):16.10f}")

print()
for q, gg in ((1.0, 0.5), (2.0, 0.5), (1.0, 0.3), (0.5, 3.0)):
    report = check_quantization(q, gg)
    loop_factor = transition_function(q, gg, 2.0 * np.pi)
    print(f"q={q:4.1f} g={gg:4.1f}: 2qg = {report.n_real:6.3f}, "
          f"residual {report.residual:.2e}, "
          f"satisfied={report.satisfied}, "
          f"string invisible={string_invisibility(q, gg)}, "
          f"|loop factor - 1| = {abs(loop_factor - 1.0):.2e}")

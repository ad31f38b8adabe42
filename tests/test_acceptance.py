"""Acceptance gate: the package's headline claims, each at its stated
tolerance, one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
go by; without -s they appear in the captured output of any failure. The
two lattice criteria propagate on the full 512^2 grid and dominate the
runtime (8-9 s each of the gate's 19 s on a 2-core Xeon); everything else
takes well under a second.
"""

import math
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad

from polelab.angmom import PairConfig, field_angular_momentum
from polelab.fields import (PhysicalConfig, TubeSpec, local_charge,
                            proca_tube_potential, proca_tube_profile,
                            tube_potential)
from polelab.gauge import (cap_flux, check_quantization, circle_flux,
                           patch_mismatch, string_invisibility,
                           transition_function)
from polelab.interference import (InterferenceConfig, measure_fringe,
                                  measure_invisibility, run_experiment)
from polelab.vortex import HiggsModel, confinement_energy, solve_vortex, \
    vortex_flux


def _margin(bound, metric):
    """bound / metric for a gate metric < bound: above 1 passes."""
    return bound / metric if metric else math.inf


def _verdict(num, title, passed, detail, margins=None):
    """margins: {metric name: margin} for each gated metric."""
    if margins:
        detail += "; margin = bound / metric: " + ", ".join(
            f"{name} {m:.5g}" for name, m in margins.items())
    print(f"criterion {num} [{'PASS' if passed else 'FAIL'}] {title}: "
          f"{detail}")
    assert passed, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# shared heavy runs (criteria 6 and 7)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def single_packet_runs():
    cfg = InterferenceConfig()
    # quantized with either cut, then half a quantum
    lines = [cfg.flux_line(2.0 * np.pi, 1.0, "+x"),
             cfg.flux_line(2.0 * np.pi, 1.0, "-x"),
             cfg.flux_line(np.pi, 1.0, "+x")]
    free, grids, _ = run_experiment(cfg, "single", lines)
    return cfg, free, grids


@pytest.fixture(scope="module")
def two_slit_runs():
    cfg = InterferenceConfig()
    lines = [cfg.flux_line(flux, 1.0)
             for flux in (0.5 * np.pi, np.pi, 1.5 * np.pi)]
    free, grids, _ = run_experiment(cfg, "two_slit", lines)
    return cfg, free, lines, grids


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_predicate_equivalence():
    rng = np.random.default_rng(2026)
    points = [(q, g) for q, g in rng.uniform(-4.0, 4.0, size=(200, 2))]
    for n in range(-6, 7):
        for wobble in (1e-12, -1e-12):
            points.append((1.0, (n + wobble) / 2.0))

    tol = 1e-9
    disagreements = 0
    for q, g in points:
        arithmetic = check_quantization(q, g, tol=tol).satisfied
        holonomy = string_invisibility(q, g, tol=tol)
        amplitude = bool(abs(transition_function(q, g, 2.0 * np.pi) - 1.0)
                         <= tol)
        if not (arithmetic == holonomy == amplitude):
            disagreements += 1
    _verdict(1, "quantization predicates agree", disagreements == 0,
             f"{len(points)} points, {disagreements} disagreements")


def test_criterion_2_massless_angular_momentum():
    values = [field_angular_momentum(PairConfig(q=1.0, g=0.5, mu=0.0,
                                                d=d)).value
              for d in (0.5, 1.0, 2.0, 4.0)]
    worst = max(abs(v - 0.5) / 0.5 for v in values)
    spread = max(values) - min(values)
    passed = worst < 1e-3 and spread < 1e-3
    _verdict(2, "massless J_z = q g, separation-independent", passed,
             f"max rel dev {worst:.3e}, spread {spread:.3e}",
             {"rel dev": _margin(1e-3, worst),
              "spread": _margin(1e-3, spread)})


def test_criterion_3_massive_decline():
    values = [field_angular_momentum(PairConfig(q=1.0, g=0.5, mu=1.0,
                                                d=d)).value
              for d in (1.0, 2.0, 4.0, 8.0)]
    declines = all(b < a for a, b in zip(values, values[1:]))
    j_far = field_angular_momentum(PairConfig(q=1.0, g=0.5, mu=1.0,
                                              d=10.0)).value
    # the suppression bound in the absolute form the worked example fixes
    # (J/qg at mu*d = 10 is 0.01999..., so 0.01*qg itself is unreachable)
    passed = declines and abs(j_far) < 0.01
    _verdict(3, "screened J_z declines with separation", passed,
             f"J at d=1..8: {[f'{v:.5f}' for v in values]}, "
             f"J(mu*d=10) = {j_far:.8f} (J/qg = {j_far / 0.5:.10f})",
             {"J(mu*d=10)": _margin(0.01, abs(j_far))})


def test_criterion_4_flux_conservation_with_mass():
    worst = 0.0
    details = []
    for g, mu in ((0.5, 1.0), (1.0, 2.0)):
        expected = 4.0 * np.pi * g
        core, _ = quad(lambda rho: 2.0 * np.pi * rho
                       * proca_tube_profile(g, mu, rho), 0.0, 10.0 / mu)
        tail, _ = quad(lambda rho: 2.0 * np.pi * rho
                       * proca_tube_profile(g, mu, rho), 10.0 / mu, np.inf)
        rel = abs((core + tail) - expected) / expected
        uniform = TubeSpec(g=g, R=1.0)
        uniform_total = uniform.interior_field * np.pi * uniform.R**2
        rel_uniform = abs(uniform_total - expected) / expected
        worst = max(worst, rel, rel_uniform)
        details.append(f"(g={g}, mu={mu}): {rel:.2e}/{rel_uniform:.2e}")
    _verdict(4, "screened tube carries the full pole flux", worst < 1e-6,
             "profile/uniform rel errors " + "; ".join(details),
             {"rel error": _margin(1e-6, worst)})


def test_criterion_5_patch_consistency():
    rng = np.random.default_rng(11)
    g = 0.5
    n_pts = 1000
    theta = rng.uniform(np.pi / 2.0 - 0.29, np.pi / 2.0 + 0.29, n_pts)
    phi = rng.uniform(0.0, 2.0 * np.pi, n_pts)
    r = rng.uniform(0.5, 3.0, n_pts)
    pts = np.stack([r * np.sin(theta) * np.cos(phi),
                    r * np.sin(theta) * np.sin(phi),
                    r * np.cos(theta)], axis=-1)
    mismatch = patch_mismatch(g, pts)
    rho = r * np.sin(theta)
    gradient = np.stack([-pts[:, 1], pts[:, 0],
                         np.zeros(n_pts)], axis=-1) * (2.0 * g / rho**2)[:, None]
    worst_pt = np.abs(mismatch - gradient).max()

    worst_cap = 0.0
    for theta_cap in (0.4, 1.0, np.pi / 2.0, 2.2, 2.9):
        flux, _ = cap_flux(g, theta_cap)
        closed = 2.0 * np.pi * g * (1.0 - np.cos(theta_cap))
        worst_cap = max(worst_cap, abs(flux - closed))
    passed = worst_pt < 1e-10 and worst_cap < 1e-8
    _verdict(5, "patch mismatch is the pure-gauge gradient", passed,
             f"max point dev {worst_pt:.2e}, max cap flux dev "
             f"{worst_cap:.2e}",
             {"point dev": _margin(1e-10, worst_pt),
              "cap flux dev": _margin(1e-8, worst_cap)})


def test_criterion_6_string_invisibility_by_simulation(single_packet_runs):
    cfg, free, (quantized_px, quantized_mx, half_quantum) = \
        single_packet_runs
    quantized = measure_invisibility(cfg, quantized_px, free)
    visible = measure_invisibility(cfg, half_quantum, free)
    cut_dev = np.abs(quantized_px.intensity()
                     - quantized_mx.intensity()).max()
    passed = quantized < 1e-2 and visible > 0.1 and cut_dev < 1e-10
    _verdict(6, "quantized string invisible on the lattice", passed,
             f"metric {quantized:.2e} at 2pi vs {visible:.3f} at pi, "
             f"cut dependence {cut_dev:.2e}",
             {"metric at 2pi": _margin(1e-2, quantized),
              # a lower bound, visible > 0.1: its margin is metric / bound
              "metric at pi": _margin(visible, 0.1),
              "cut dependence": _margin(1e-10, cut_dev)})


def test_criterion_7_fringe_shift_law(two_slit_runs):
    cfg, free, lines, grids = two_slit_runs
    table = measure_fringe(cfg, lines, free, grids).table
    worst = max(err for *_, err in table)
    details = [f"{flux / np.pi:.1f}pi: {measured:.4f} vs {predicted:.4f}"
               for flux, predicted, measured, _ in table]
    _verdict(7, "fringe displacement follows (q flux / 2pi) mod 1",
             worst < 0.05, f"worst error {worst:.4f}; " + "; ".join(details),
             {"worst error": _margin(0.05, worst)})


def test_criterion_8_vortex_suite():
    model = HiggsModel(q=1.0, v=1.0, lam=2.0)   # critical coupling
    profile, tension = solve_vortex(model, 1)
    ratio_dev = abs(tension.bogomolny_ratio - 1.0)
    flux_dev = abs(vortex_flux(model, profile)
                   - 2.0 * np.pi / model.q) / (2.0 * np.pi)
    boundary = profile.f[0] == 0.0 and profile.a[0] == 0.0
    e1 = confinement_energy(tension, 1.0)
    e2 = confinement_energy(tension, 2.0)
    e4 = confinement_energy(tension, 4.0)
    linear = (confinement_energy(tension, 0.0) == 0.0
              and abs(e2 - 2.0 * e1) <= 1e-12 * e2
              and abs(e4 - 2.0 * e2) <= 1e-12 * e4)
    passed = ratio_dev < 0.01 and flux_dev < 1e-6 and boundary and linear
    _verdict(8, "critical vortex: tension, flux, boundary, confinement",
             passed,
             f"tension/2piv^2 off by {ratio_dev:.2e}, flux rel dev "
             f"{flux_dev:.2e}, f(0)=a(0)=0 {boundary}, linear {linear}",
             {"tension dev": _margin(0.01, ratio_dev),
              "flux dev": _margin(1e-6, flux_dev)})


def test_criterion_9_screening_dichotomy():
    radii = np.array([5.0, 10.0, 20.0])
    q_seen = local_charge(PhysicalConfig(q=1.0, g=0.5, mu=1.0), radii)
    declines = bool(np.all(np.diff(q_seen) < 0) and q_seen[-1] < 5e-8)

    # same enclosed flux read through circles of radius rho about the tube
    # axis, far outside the screening core
    def flux(potential, rho):
        return circle_flux(potential, (0.0, 0.0, 0.0), (rho, 0.0, 0.0),
                           (0.0, rho, 0.0))[0]

    fluxes = [flux(partial(proca_tube_potential, 0.5, mu), rho)
              for mu, rho in ((1.0, 30.0), (3.0, 10.0))]
    fluxes.append(flux(partial(tube_potential, TubeSpec(0.5, 1.0)), 30.0))
    spread = max(fluxes) - min(fluxes)
    phase_dev = max(abs(np.exp(1j * f) - 1.0) for f in fluxes)
    passed = declines and spread < 1e-8 and phase_dev < 1e-8
    _verdict(9, "charge screened, flux holonomy untouched", passed,
             f"local charge at R=20: {q_seen[-1]:.2e}, flux spread across "
             f"mu {spread:.2e}, holonomy dev {phase_dev:.2e}",
             {"local charge": _margin(5e-8, q_seen[-1]),
              "flux spread": _margin(1e-8, spread),
              "holonomy dev": _margin(1e-8, phase_dev)})

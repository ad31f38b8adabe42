"""Flux-tube solver checks.

Oracle: at critical coupling (beta = 1) the second-order profile equations
reduce to the first-order pair f' = n f (1-a)/x, a' = x(1-f^2)/(2n), solved
here by shooting on the axis coefficient of f ~ c x^n (bisection to the
separatrix between f running away and a overshooting). The relaxation solver
never sees these equations, so pointwise agreement validates both routes at
once. Type-I/type-II tension values are pinned to frozen solver output that
matches published profiles for the same couplings.
"""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from polelab.errors import AccuracyError, ConvergenceError, DomainError
from polelab.fields import _azimuthal
from polelab.gauge import circle_loop, line_integral
from polelab.vortex import (
    MAX_GRID,
    MIN_CORE_NODES,
    HiggsModel,
    TensionResult,
    VortexProfile,
    confinement_energy,
    energy_density_profile,
    magnetic_profile,
    solve_vortex,
    vortex_energy,
    vortex_flux,
)

CRITICAL = HiggsModel(q=1.0, v=1.0, lam=2.0)   # beta = 1


@pytest.fixture(scope="module")
def critical_solution():
    return solve_vortex(CRITICAL, 1)


# ---------------------------------------------------------------------------
# first-order shooting oracle
# ---------------------------------------------------------------------------

def _shoot(n, c, x_end=16.0, x0=1e-6, rtol=1e-12):
    def rhs(x, y):
        f, a = y
        return [n * f * (1.0 - a) / x, x * (1.0 - f * f) / (2.0 * n)]

    hit_f = lambda x, y: y[0] - 1.02
    hit_f.terminal = True
    hit_a = lambda x, y: y[1] - 1.02
    hit_a.terminal = True
    return solve_ivp(rhs, (x0, x_end), [c * x0**n, x0**2 / (4.0 * n)],
                     events=[hit_f, hit_a], rtol=rtol, atol=1e-14,
                     dense_output=True)


def _separatrix(n, lo=0.1, hi=2.0, iters=48):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        sol = _shoot(n, mid, rtol=1e-10)
        if sol.t_events[0].size:
            hi = mid              # f crossed 1 first: c too large
        elif sol.t_events[1].size:
            lo = mid              # a crossed 1 first: c too small
        elif sol.y[0][-1] > sol.y[1][-1]:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_critical_profile_matches_first_order_reduction(critical_solution):
    c = _separatrix(1)
    sol = _shoot(1, c)
    probes = np.array([0.5, 1.0, 2.0, 4.0])
    f_oracle, a_oracle = sol.sol(probes)
    # frozen from this oracle; guards the oracle itself against drift
    assert_allclose(f_oracle[1], 0.5378826975012108, atol=2e-9)
    assert_allclose(a_oracle[1], 0.21102937795864138, atol=2e-9)

    profile, tension = critical_solution
    x = CRITICAL.photon_mass * profile.rho_grid
    assert_allclose(np.interp(probes, x, profile.f), f_oracle, atol=5e-6)
    assert_allclose(np.interp(probes, x, profile.a), a_oracle, atol=5e-6)

    assert tension.converged and tension.residual < 1e-9
    assert abs(tension.bogomolny_ratio - 1.0) < 1e-4
    assert_allclose(tension.bogomolny_ratio, 1.0000022366581716, atol=1e-7)


def test_critical_higher_winding():
    profile, tension = solve_vortex(HiggsModel(q=1.0, v=1.0, lam=2.0), 2)
    # the bound scales with |n| and is still saturated at beta = 1
    assert abs(tension.bogomolny_ratio - 1.0) < 1e-4
    assert_allclose(tension.T, 4.0 * np.pi * tension.bogomolny_ratio,
                    rtol=1e-12)
    assert_allclose(vortex_flux(CRITICAL, profile), 4.0 * np.pi, rtol=1e-12)


# ---------------------------------------------------------------------------
# tension across couplings
# ---------------------------------------------------------------------------

def test_tension_type_one_and_type_two():
    _, t_low = solve_vortex(HiggsModel(q=1.0, v=1.0, lam=1.0), 1)   # beta 0.5
    _, t_mid = solve_vortex(CRITICAL, 1)
    _, t_high = solve_vortex(HiggsModel(q=1.0, v=1.0, lam=4.0), 1)  # beta 2
    assert_allclose(t_low.T, 5.453251651133551, rtol=1e-6)
    assert_allclose(t_high.T, 7.268153800273176, rtol=1e-6)
    # tension grows with the Higgs-to-photon mass ratio
    assert t_low.T < t_mid.T < t_high.T
    # the 2*pi*v^2*|n| bound is saturated at beta = 1 and exceeded above;
    # type-I tubes (beta < 1) sit below it, which is what makes them attract
    bound = 2.0 * np.pi
    assert t_mid.T >= bound * (1.0 - 1e-6)
    assert t_high.T > bound
    assert t_low.T < bound
    assert t_low.bogomolny_ratio < 1.0 < t_high.bogomolny_ratio


def test_scale_invariance_of_ratio():
    # beta = lam/(2 q^2) = 1 again, but v rescaled: dimensionless profiles
    # identical, T scales as v^2
    scaled = HiggsModel(q=0.5, v=2.0, lam=0.5)
    _, t_scaled = solve_vortex(scaled, 1)
    _, t_base = solve_vortex(CRITICAL, 1)
    assert_allclose(t_scaled.bogomolny_ratio, t_base.bogomolny_ratio,
                    rtol=1e-12)
    assert_allclose(t_scaled.T, 4.0 * t_base.T, rtol=1e-12)


def test_r_max_insensitivity(critical_solution):
    _, base = critical_solution
    _, wide = solve_vortex(CRITICAL, 1, r_max=2.0 * 20.0 / CRITICAL.photon_mass
                           * CRITICAL.photon_mass / CRITICAL.higgs_mass)
    assert abs(wide.T - base.T) < 1e-3 * base.T


# ---------------------------------------------------------------------------
# profile structure and derived fields
# ---------------------------------------------------------------------------

def test_profile_boundaries_and_monotonicity(critical_solution):
    profile, _ = critical_solution
    assert profile.f[0] == 0.0 and profile.a[0] == 0.0
    assert profile.f[-1] == 1.0 and profile.a[-1] == 1.0
    assert np.all(np.diff(profile.f) > -1e-9)
    assert np.all(np.diff(profile.a) > -1e-9)
    assert np.all((profile.f > -1e-9) & (profile.f < 1.0 + 1e-9))
    assert np.all((profile.a > -1e-9) & (profile.a < 1.0 + 1e-9))


def test_magnetic_profile_structure(critical_solution):
    profile, _ = critical_solution
    B = magnetic_profile(CRITICAL, profile)
    # at beta = 1 the first-order reduction gives B = m_V^2 (1-f^2)/(2q),
    # so the axis value is m_V^2/(2q)
    assert_allclose(B[0], CRITICAL.photon_mass**2 / (2.0 * CRITICAL.q),
                    rtol=1e-4)
    assert np.argmax(B) == 0
    assert np.all(np.diff(B) <= 0.0)
    flux_from_b = np.trapezoid(B * 2.0 * np.pi * profile.rho_grid,
                               profile.rho_grid)
    assert_allclose(flux_from_b, 2.0 * np.pi, rtol=1e-4)


def vector_potential_fn(model, profile):
    """Callable A(r) for the tube, for loop-holonomy checks.

    Azimuthal magnitude n*a(rho)/(q*rho), with a interpolated linearly on the
    profile grid and clamped to 1 beyond it.
    """
    rho_g, a_g = profile.rho_grid, profile.a
    n, q = profile.n, model.q

    def potential(r):
        arr = np.asarray(r, dtype=float)
        rho = np.hypot(arr[..., 0], arr[..., 1])
        a = np.interp(rho, rho_g, a_g, right=1.0)
        safe = np.where(rho > 0, rho, 1.0)
        amp = np.where(rho > 0, n * a / (q * safe**2), 0.0)
        return _azimuthal(arr, amp)

    return potential


def test_flux_quantization_via_loop_integral(critical_solution):
    profile, _ = critical_solution
    pot = vector_potential_fn(CRITICAL, profile)
    loop = circle_loop(0.9 * profile.rho_grid[-1], n=256)
    flux, _ = line_integral(pot, loop)
    assert_allclose(flux, 2.0 * np.pi, rtol=1e-6)
    assert_allclose(vortex_flux(CRITICAL, profile), 2.0 * np.pi, rtol=1e-15)

    model2 = HiggsModel(q=0.5, v=1.0, lam=0.5)   # beta = 1 at q = 1/2
    profile2, _ = solve_vortex(model2, 2)
    assert_allclose(vortex_flux(model2, profile2), 8.0 * np.pi, rtol=1e-12)


def test_energy_density_profile_shape(critical_solution):
    profile, _ = critical_solution
    dens = energy_density_profile(CRITICAL, profile)
    assert np.all(np.isfinite(dens)) and np.all(dens >= 0.0)
    assert dens[0] == dens[1]                  # axis value copied inward
    assert dens[-1] < 1e-12 * dens.max()       # vacuum reached at the edge


def test_vacuum_and_false_vacuum_energies():
    rho = np.linspace(0.0, 10.0, 1025)
    ones = VortexProfile(n=1, rho_grid=rho, f=np.ones_like(rho),
                         a=np.ones_like(rho))
    # vacuum energy is rounding noise from the gradient weights, not exact 0
    vac = vortex_energy(CRITICAL, ones)
    assert 0.0 <= vac < 1e-12
    # f = a = 0 leaves only the constant potential term lam*v^4/4, whose
    # disc integral the trapezoid rule reproduces exactly
    zeros = VortexProfile(n=1, rho_grid=rho, f=np.zeros_like(rho),
                          a=np.zeros_like(rho))
    expected = 0.25 * CRITICAL.lam * CRITICAL.v**4 * np.pi * 10.0**2
    assert_allclose(vortex_energy(CRITICAL, zeros), expected, rtol=1e-12)


def test_energy_rejects_coarse_or_decoupled_input():
    rho = np.linspace(0.0, 20.0, 9)
    wiggle = VortexProfile(n=1, rho_grid=rho,
                           f=np.array([0.0, 1.0, 0.1, 1.0, 0.2, 1.0, 0.3,
                                       1.0, 1.0]),
                           a=np.linspace(0.0, 1.0, 9))
    with pytest.raises(AccuracyError):
        vortex_energy(CRITICAL, wiggle)
    smooth = VortexProfile(n=1, rho_grid=np.linspace(0.0, 10.0, 1025),
                           f=np.ones(1025), a=np.ones(1025))
    with pytest.raises(DomainError):
        vortex_energy(HiggsModel(q=0.0, v=1.0, lam=2.0), smooth)


# ---------------------------------------------------------------------------
# confinement
# ---------------------------------------------------------------------------

def test_confinement_linear_growth(critical_solution):
    _, tension = critical_solution
    lengths = np.array([0.0, 1.0, 2.0, 4.0, 8.0])
    energies = confinement_energy(tension, lengths)
    assert energies[0] == 0.0
    assert_allclose(energies, tension.T * lengths, rtol=1e-15)
    # scalar form, and the critical-coupling value 2*pi*v^2 per unit length
    e10 = confinement_energy(tension, 10.0)
    assert isinstance(e10, float)
    assert_allclose(e10, 20.0 * np.pi, rtol=1e-2)
    for bad in (-1.0, math.nan, math.inf, [1.0, math.inf]):
        with pytest.raises(DomainError):
            confinement_energy(tension, bad)


# ---------------------------------------------------------------------------
# model and input validation
# ---------------------------------------------------------------------------

def test_photon_mass_values():
    assert_allclose(HiggsModel(q=1.0, v=1.0, lam=2.0).photon_mass,
                    math.sqrt(2.0), rtol=1e-15)
    assert HiggsModel(q=0.0, v=1.0, lam=2.0).photon_mass == 0.0
    assert_allclose(HiggsModel(q=2.0, v=0.5, lam=2.0).photon_mass,
                    math.sqrt(2.0), rtol=1e-15)
    m = HiggsModel(q=1.0, v=3.0, lam=2.25)
    assert_allclose(m.higgs_mass, 4.5, rtol=1e-15)


def test_model_validation():
    with pytest.raises(DomainError):
        HiggsModel(q=1.0, v=0.0, lam=1.0)
    with pytest.raises(DomainError):
        HiggsModel(q=1.0, v=-1.0, lam=1.0)
    with pytest.raises(DomainError):
        HiggsModel(q=1.0, v=1.0, lam=0.0)
    with pytest.raises(DomainError):
        HiggsModel(q=float("inf"), v=1.0, lam=1.0)
    with pytest.raises(DomainError):
        HiggsModel(q=0.0, v=1.0, lam=1.0).beta


def test_solver_input_validation():
    with pytest.raises(DomainError):
        solve_vortex(CRITICAL, 0)
    with pytest.raises(DomainError):
        solve_vortex(CRITICAL, 1.5)
    with pytest.raises(DomainError):
        solve_vortex(HiggsModel(q=0.0, v=1.0, lam=2.0), 1)
    with pytest.raises(DomainError):
        solve_vortex(CRITICAL, 1, grid=256)
    with pytest.raises(DomainError):
        solve_vortex(CRITICAL, 1, grid=MAX_GRID + 1)
    with pytest.raises(DomainError):
        solve_vortex(CRITICAL, 1, r_max=5.0)   # < 10 correlation lengths
    for max_iter in (0, -5):
        with pytest.raises(DomainError, match="max_iter"):
            solve_vortex(CRITICAL, 1, max_iter=max_iter)


@pytest.mark.parametrize("lam, correlations, core, grid, reference_grid", [
    (2.0, 20.0, 286, 1024, 1024), (2.0, 1000.0, 7, 1024, 1024),
    (2.0, 2000.0, 4, 2048, 1024), (0.5, 1000.0, 4, 2048, 1024),
    (0.02, 1000.0, 1, 8192, 1024), (2e-4, 20.0, 4, 2048, 8192)])
def test_grid_doubles_until_it_resolves_the_core(lam, correlations, core,
                                                 grid, reference_grid):
    # 1024 points put `core` points within min(1/m_V, 1/m_H) of the axis;
    # below MIN_CORE_NODES the grid is doubled until they are enough. The
    # tension is then within 0.6% of one at the default r_max (0.56% was
    # the worst of 47 solves at 7 couplings, r_max from 20 to 1e5
    # correlation lengths)
    model = HiggsModel(q=1.0, v=1.0, lam=lam)
    r_max = correlations * max(1.0 / model.photon_mass,
                               1.0 / model.higgs_mass)
    t = np.linspace(0.0, 1.0, 1025)
    rho = r_max * np.sinh(4.0 * t) / math.sinh(4.0)
    assert np.count_nonzero(
        rho < min(1.0 / model.photon_mass, 1.0 / model.higgs_mass)) == core
    profile, tension = solve_vortex(model, 1, r_max=r_max)
    assert len(profile.rho_grid) == grid + 1
    assert (core >= MIN_CORE_NODES) == (grid == 1024)
    reference = solve_vortex(model, 1, grid=reference_grid)[1]
    assert abs(tension.T / reference.T - 1.0) < 6e-3


@pytest.mark.parametrize("lam, grid, solved_grid", [
    (2.0, 4096, 4096), (2.0, 8192, 8192), (3e4, 1024, 2048),
    (1e5, 1024, 4096)])
def test_fine_grids_converge_at_their_rounding_floor(lam, grid, solved_grid):
    # the second differences round to about eps * max|c2c|, 2e-10 to 3.5e-9
    # on these grids, so the residual cannot reach tol = 1e-10; the solve
    # stops at that floor instead of stalling for all max_iter sweeps
    profile, tension = solve_vortex(HiggsModel(q=1.0, v=1.0, lam=lam), 1,
                                    grid=grid)
    assert len(profile.rho_grid) == solved_grid + 1
    assert 1e-10 < tension.residual < 1e-8
    assert tension.stats.iterations < 20
    if lam == 2.0:
        assert abs(tension.bogomolny_ratio - 1.0) < 2e-7
    else:
        # type II: T grows roughly as pi v^2 ln(beta); frozen solver output
        expected = {3e4: 31.1576, 1e5: 34.9330}[lam]
        assert tension.T == pytest.approx(expected, rel=1e-4)


@pytest.mark.parametrize("grid", [512, 1024, MAX_GRID])
def test_grid_that_cannot_resolve_the_core_is_refused(grid):
    # at 1e100 correlation lengths even MAX_GRID points leave the axis
    # alone in the core: refused before any sweep (a fixed 1024-point grid
    # used to report a Bogomolny ratio of 0.25 at critical coupling)
    with pytest.raises(DomainError, match=f"grid of {MAX_GRID} points puts 1"):
        solve_vortex(CRITICAL, 1, r_max=1e100, grid=grid)


def test_profile_validation():
    rho = np.linspace(0.0, 10.0, 600)
    good = np.linspace(0.0, 1.0, 600)
    with pytest.raises(DomainError):
        VortexProfile(n=0, rho_grid=rho, f=good, a=good)
    with pytest.raises(DomainError):
        VortexProfile(n=1, rho_grid=rho, f=good[:-1], a=good)
    with pytest.raises(DomainError):
        VortexProfile(n=1, rho_grid=rho[::-1], f=good, a=good)
    bad = good.copy()
    bad[5] = np.nan
    with pytest.raises(DomainError):
        VortexProfile(n=1, rho_grid=rho, f=bad, a=good)


def test_stalled_relaxation_reports_history():
    with pytest.raises(ConvergenceError) as exc_info:
        solve_vortex(CRITICAL, 1, max_iter=3)
    err = exc_info.value
    assert isinstance(err.best, VortexProfile)
    assert err.error > 0 and len(err.history) == 3
    # three sweeps at dtau = 0.5, 1, 2, each after its residual
    assert err.stats == (3, tuple(err.history), 2.0)


def test_converged_relaxation_reports_its_stats(critical_solution):
    # the history ends at the converged residual, one entry past the last
    # sweep; dtau doubles from 0.5 each sweep
    _, tension = critical_solution
    stats = tension.stats
    assert len(stats.residual_history) == stats.iterations + 1
    assert stats.residual_history[-1] == tension.residual < 1e-10
    assert all(r >= 1e-10 for r in stats.residual_history[:-1])
    assert stats.final_dtau == min(0.5 * 2.0 ** (stats.iterations - 1), 1e12)
    assert "stats" not in tension.to_dict()


def test_tension_result_serialization():
    t = TensionResult(T=6.28, bogomolny_ratio=1.0, converged=True,
                      residual=1e-11)
    out = json.loads(json.dumps(t.to_dict()))
    assert out == {"T": 6.28, "bogomolny_ratio": 1.0, "converged": True,
                   "residual": 1e-11}

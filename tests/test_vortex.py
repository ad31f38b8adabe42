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
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp
from scipy.linalg import solve_banded

import polelab.vortex as vortex
from polelab.cli import EXIT_CONVERGENCE, main
from polelab.errors import AccuracyError, ConvergenceError, DomainError
from polelab.fields import _azimuthal
from polelab.gauge import circle_flux
from polelab.vortex import (
    MAX_GRID,
    MIN_CORE_NODES,
    HiggsModel,
    TensionResult,
    VortexConfig,
    VortexProfile,
    confinement_energy,
    energy_density_profile,
    magnetic_profile,
    solve_vortex,
    vortex_energy,
    vortex_flux,
)

CRITICAL = VortexConfig(q=1.0, v=1.0, lam=2.0)   # beta = 1, n = 1


@pytest.fixture(scope="module")
def critical_solution():
    return solve_vortex(CRITICAL)


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
    profile, tension = solve_vortex(VortexConfig(q=1.0, v=1.0, lam=2.0, n=2))
    # the bound scales with |n| and is still saturated at beta = 1
    assert abs(tension.bogomolny_ratio - 1.0) < 1e-4
    assert_allclose(tension.T, 4.0 * np.pi * tension.bogomolny_ratio,
                    rtol=1e-12)
    assert_allclose(vortex_flux(CRITICAL, profile), 4.0 * np.pi, rtol=1e-12)


# ---------------------------------------------------------------------------
# tension across couplings
# ---------------------------------------------------------------------------

def test_tension_type_one_and_type_two():
    _, t_low = solve_vortex(VortexConfig(q=1.0, v=1.0, lam=1.0))   # beta 0.5
    _, t_mid = solve_vortex(CRITICAL)
    _, t_high = solve_vortex(VortexConfig(q=1.0, v=1.0, lam=4.0))  # beta 2
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
    scaled = VortexConfig(q=0.5, v=2.0, lam=0.5)
    _, t_scaled = solve_vortex(scaled)
    _, t_base = solve_vortex(CRITICAL)
    assert_allclose(t_scaled.bogomolny_ratio, t_base.bogomolny_ratio,
                    rtol=1e-12)
    assert_allclose(t_scaled.T, 4.0 * t_base.T, rtol=1e-12)


def test_r_max_insensitivity(critical_solution):
    _, base = critical_solution
    _, wide = solve_vortex(replace(
        CRITICAL, r_max=2.0 * 20.0 / CRITICAL.photon_mass
        * CRITICAL.photon_mass / CRITICAL.higgs_mass))
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
    rho = 0.9 * profile.rho_grid[-1]
    flux, _ = circle_flux(pot, (0.0, 0.0, 0.0), (rho, 0.0, 0.0),
                          (0.0, rho, 0.0))
    assert_allclose(flux, 2.0 * np.pi, rtol=1e-6)
    assert_allclose(vortex_flux(CRITICAL, profile), 2.0 * np.pi, rtol=1e-15)

    model2 = VortexConfig(q=0.5, v=1.0, lam=0.5, n=2)  # beta = 1 at q = 1/2
    profile2, _ = solve_vortex(model2)
    assert_allclose(vortex_flux(model2, profile2), 8.0 * np.pi, rtol=1e-12)


def test_energy_density_profile_shape(critical_solution):
    profile, _ = critical_solution
    dens = energy_density_profile(CRITICAL, profile)
    assert np.all(np.isfinite(dens)) and np.all(dens >= 0.0)
    assert dens[0] == dens[1]                  # axis value copied inward
    assert dens[-1] < 1e-12 * dens.max()       # vacuum reached at the edge


def test_energy_is_the_integral_of_the_density(critical_solution):
    # one energy density: the tension is its 2 pi rho-weighted trapezoid,
    # bit for bit
    profile, _ = critical_solution
    rho = profile.rho_grid
    density = energy_density_profile(CRITICAL, profile)
    assert vortex_energy(CRITICAL, profile)[0] \
        == np.trapezoid(2.0 * np.pi * rho * density, rho)


def test_vacuum_and_false_vacuum_energies():
    rho = np.linspace(0.0, 10.0, 1025)
    ones = VortexProfile(n=1, rho_grid=rho, f=np.ones_like(rho),
                         a=np.ones_like(rho))
    # vacuum energy is rounding noise from the gradient weights, not exact 0
    vac, _ = vortex_energy(CRITICAL, ones)
    assert 0.0 <= vac < 1e-12
    # f = a = 0 leaves only the constant potential term lam*v^4/4, whose
    # disc integral the trapezoid rule reproduces exactly
    zeros = VortexProfile(n=1, rho_grid=rho, f=np.zeros_like(rho),
                          a=np.zeros_like(rho))
    expected = 0.25 * CRITICAL.lam * CRITICAL.v**4 * np.pi * 10.0**2
    assert_allclose(vortex_energy(CRITICAL, zeros)[0], expected, rtol=1e-12)


def test_energy_rejects_coarse_or_decoupled_input():
    rho = np.linspace(0.0, 20.0, 9)
    wiggle = VortexProfile(n=1, rho_grid=rho,
                           f=np.array([0.0, 1.0, 0.1, 1.0, 0.2, 1.0, 0.3,
                                       1.0, 1.0]),
                           a=np.linspace(0.0, 1.0, 9))
    with pytest.raises(AccuracyError):
        vortex_energy(CRITICAL, wiggle)
    # a decoupled model, q = 0, is never built: test_model_validation


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
    # q = 0 decouples the photon: refused here, so no beta, energy, field,
    # flux or solve of the model ever divides by it
    with pytest.raises(DomainError, match="q must be nonzero"):
        HiggsModel(q=0.0, v=1.0, lam=1.0)
    # the scales the solve uses, in float64: beta = lam/(2 q^2) underflows
    # to 0 (its Python-float q**2 used to raise OverflowError) or overflows,
    # and m_V = sqrt(2) q v overflows, so 1/m_V is 0
    for q, v in [(1e200, 1.0), (1e-200, 1.0), (1.0, 1.7976931348623157e308)]:
        with pytest.raises(DomainError, match="beta, 1/m_V, 1/m_H, lam"):
            HiggsModel(q=q, v=v, lam=1.0)


def test_solver_input_validation():
    with pytest.raises(DomainError):
        replace(CRITICAL, n=0)
    with pytest.raises(DomainError):
        replace(CRITICAL, n=1.5)
    with pytest.raises(DomainError):
        replace(CRITICAL, grid=256)
    with pytest.raises(DomainError):
        replace(CRITICAL, grid=MAX_GRID + 1)
    with pytest.raises(DomainError):
        replace(CRITICAL, r_max=5.0)   # < 10 correlation lengths
    for max_iter in (0, -5):
        with pytest.raises(DomainError, match="max_iter"):
            replace(CRITICAL, max_iter=max_iter)


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
    model = VortexConfig(q=1.0, v=1.0, lam=lam)
    r_max = correlations * max(1.0 / model.photon_mass,
                               1.0 / model.higgs_mass)
    t = np.linspace(0.0, 1.0, 1025)
    rho = r_max * np.sinh(4.0 * t) / math.sinh(4.0)
    assert np.count_nonzero(
        rho < min(1.0 / model.photon_mass, 1.0 / model.higgs_mass)) == core
    profile, tension = solve_vortex(replace(model, r_max=r_max))
    assert len(profile.rho_grid) == grid + 1
    assert (core >= MIN_CORE_NODES) == (grid == 1024)
    reference = solve_vortex(replace(model, grid=reference_grid))[1]
    assert abs(tension.T / reference.T - 1.0) < 6e-3


@pytest.mark.parametrize("lam, grid, solved_grid", [
    (2.0, 4096, 4096), (2.0, 8192, 8192), (3e4, 1024, 2048),
    (1e5, 1024, 4096)])
def test_fine_grids_converge_at_their_rounding_floor(lam, grid, solved_grid):
    # the second differences round to about eps * max|c2c|, 2e-10 to 3.5e-9
    # on these grids, so the residual cannot reach tol = 1e-10; the solve
    # stops at that floor instead of stalling for all max_iter sweeps
    profile, tension = solve_vortex(VortexConfig(q=1.0, v=1.0, lam=lam,
                                                 grid=grid))
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
        replace(CRITICAL, r_max=1e100, grid=grid)


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
    # np.gradient's second-order edges need 3 points: fewer used to build,
    # and then the energy and the field raised IndexError or ValueError
    for k in (1, 2):
        with pytest.raises(DomainError, match="profile points"):
            VortexProfile(n=1, rho_grid=rho[:k], f=good[:k], a=good[:k])
    three = VortexProfile(n=1, rho_grid=rho[:3], f=good[:3], a=good[:3])
    assert magnetic_profile(CRITICAL, three).shape == (3,)


def test_profile_starts_on_the_axis():
    # the field and the energy density take their axis limits at
    # rho_grid[0]; a grid off the axis used to be accepted
    rho = np.linspace(0.5, 10.0, 600)
    good = np.linspace(0.0, 1.0, 600)
    with pytest.raises(DomainError, match="start at 0"):
        VortexProfile(n=1, rho_grid=rho, f=good, a=good)


def test_grid_weights_are_computed_once(monkeypatch):
    # the config keeps the difference weights it checks, and the solve
    # reads them: it used to compute them again
    fd_coeffs, calls = vortex._fd_coeffs, []

    def counted(x):
        calls.append(len(x))
        return fd_coeffs(x)

    monkeypatch.setattr(vortex, "_fd_coeffs", counted)
    config = VortexConfig()
    assert calls == [len(config.x)]
    solve_vortex(config)
    assert calls == [len(config.x)]


def test_stalled_relaxation_reports_history(replayed_dtau):
    with pytest.raises(ConvergenceError) as exc_info:
        solve_vortex(replace(CRITICAL, max_iter=3))
    err = exc_info.value
    assert isinstance(err.best, VortexProfile)
    assert err.error > 0 and len(err.history) == 3
    # three sweeps, each after its residual, the last at the dtau the
    # schedule gives for those residuals
    assert err.stats == (3, tuple(err.history),
                         replayed_dtau(err.history, 3))


def test_converged_relaxation_reports_its_stats(critical_solution,
                                                replayed_dtau):
    # the history ends at the converged residual, one entry past the last
    # sweep; dtau grows from 2 at least as fast as the residual falls
    _, tension = critical_solution
    stats = tension.stats
    assert len(stats.residual_history) == stats.iterations + 1
    assert stats.residual_history[-1] == tension.residual < 1e-10
    assert all(r >= 1e-10 for r in stats.residual_history[:-1])
    assert stats.final_dtau == replayed_dtau(stats.residual_history,
                                             stats.iterations)
    assert stats.final_dtau > 2.0 ** stats.iterations
    assert "stats" not in tension.to_dict()
    assert "energy_error" not in tension.to_dict()


@pytest.mark.parametrize("q", [1.0, 0.5, -2.0])
@pytest.mark.parametrize("lam", [1e-4, 2.0, 1e4])
@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("correlations", [12.0, 40.0])
def test_relaxation_converges_across_couplings(q, lam, n, correlations):
    # beta from 1.25e-5 to 2e4 at the narrowest and a wide domain. Over the
    # 405 tubes of q in {1, 0.5, -2}, v = 1.3, nine lam from 1e-4 to 1e4,
    # n in {1, 2, 3, 4, 6} and r_max at 12, 20 and 40 correlation lengths
    # the relaxation took at most 19 sweeps (25 when dtau only doubled)
    model = HiggsModel(q=q, v=1.3, lam=lam)
    _, tension = solve_vortex(VortexConfig(q=q, v=1.3, lam=lam, n=n,
                                           r_max=correlations * max(
                                               model.correlation_lengths)))
    assert tension.converged and tension.stats.iterations <= 20


def _newton_systems(monkeypatch, fail_at=None):
    """Record each sweep's (band, right-hand side, solution) as solve_vortex
    hands them to LAPACK's gbsv; from sweep fail_at on, report a zero pivot
    (info > 0) instead of the solution."""
    real = scipy.linalg.get_lapack_funcs
    systems = []

    def get_lapack_funcs(names, arrays):
        gbsv, = real(names, arrays)

        def recording(kl, ku, lu, rhs, **kwargs):
            band, b = lu[2:].copy(), rhs.copy()
            out = gbsv(kl, ku, lu, rhs, **kwargs)
            systems.append((band, b, out[2].copy()))
            if fail_at is not None and len(systems) > fail_at:
                return (*out[:3], 1)
            return out

        return recording,

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", get_lapack_funcs)
    return systems


def test_direct_band_solve_matches_solve_banded(monkeypatch):
    # each sweep copies its five bands into one LU buffer and calls gbsv;
    # solve_banded builds a fresh buffer per call around the same routine
    systems = _newton_systems(monkeypatch)
    solve_vortex(CRITICAL)
    assert len(systems) >= 2
    for band, rhs, delta in systems:
        assert np.array_equal(delta, solve_banded((2, 2), band, rhs))


@pytest.mark.parametrize("failure", ["singular", "nan-residual"])
def test_failed_newton_system_is_a_convergence_error(monkeypatch, tmp_path,
                                                     replayed_dtau, failure):
    # the second sweep's system fails: gbsv finds a zero pivot, or the
    # residual is NaN. Either used to escape as LinAlgError or ValueError
    # from solve_banded, which the CLI reported as a crash (exit 5)
    if failure == "singular":
        calls = _newton_systems(monkeypatch, fail_at=1)
    else:
        real, calls = vortex._residual, []

        def nan_after_one(*args):
            calls.append(1)
            out = real(*args)
            return out if len(calls) == 1 else np.full_like(out, np.nan)

        monkeypatch.setattr(vortex, "_residual", nan_after_one)
    with pytest.raises(ConvergenceError, match="Newton system") as exc_info:
        solve_vortex(CRITICAL)
    err = exc_info.value
    assert isinstance(err.best, VortexProfile)
    # one sweep done, and the residual before the failed one recorded
    assert len(err.history) == 2
    assert err.stats == (1, tuple(err.history), replayed_dtau(err.history, 1))
    calls.clear()     # the CLI's solve fails at its second sweep too
    assert main(["vortex", "--out", str(tmp_path)]) == EXIT_CONVERGENCE
    # strict JSON: a NaN residual is written as the string "nan", which a
    # parser that refuses NaN, Infinity and -Infinity reads
    with open(tmp_path / "vortex_manifest.json") as fh:
        man = json.load(fh, parse_constant=_refuse_non_standard)
    assert man["status"] == "error" and "Newton system" in man["error"]
    relax = man["diagnostics"]["relaxation"]
    assert relax["iterations"] == 1
    assert (relax["residual_history"][-1] == "nan") == (failure
                                                        == "nan-residual")


def _refuse_non_standard(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_energy_error_bounds_the_critical_tension(n):
    # at beta = 1 the tension is exactly 2 pi v^2 n, and the change of the
    # trapezoid rule on every other point bounds the miss: measured 3.2e-5,
    # 8.9e-5 and 1.4e-4 against misses of 1.4e-5, 1.0e-5 and 8.5e-6
    _, tension = solve_vortex(replace(CRITICAL, n=n))
    miss = abs(tension.T - 2.0 * np.pi * n)
    assert miss < tension.energy_error < 2e-4


def test_tension_result_serialization():
    t = TensionResult(T=6.28, bogomolny_ratio=1.0, converged=True,
                      residual=1e-11)
    out = json.loads(json.dumps(t.to_dict()))
    assert out == {"T": 6.28, "bogomolny_ratio": 1.0, "converged": True,
                   "residual": 1e-11}

"""Abrikosov/Nielsen-Olesen flux tubes of the abelian Higgs model.

When the photon mass comes from a charged condensate (|H| -> v far away,
photon mass sqrt(2)*q*v), magnetic flux cannot spread: it collapses into
quantized tubes. The winding-n tube carries flux exactly 2*pi*n/q, so a pole
feeding its 4*pi*g return flux into one tube needs 2*q*g = n: the same
integer condition the patch construction demands, now enforced by energetics
rather than single-valuedness. A pole-antipole pair joined by a tube feels a
linear potential T*L: confinement of magnetic charge.

Profile ansatz: |H| = v*f(rho), azimuthal potential A_phi = n*a(rho)/(q*rho).
Energy per unit length

    T = 2*pi * int rho drho [ v^2 f'^2 + v^2 n^2 f^2 (1-a)^2 / rho^2
                              + n^2 a'^2 / (2 q^2 rho^2)
                              + (lambda/4) v^4 (f^2-1)^2 ]

with f(0) = a(0) = 0 and f, a -> 1 outside. In units x = m_V*rho the
profiles depend only on beta = m_H^2/m_V^2 = lambda/(2 q^2) and n; at the
critical coupling beta = 1 the tension saturates the lower bound
2*pi*v^2*|n|.

The solver relaxes the Euler-Lagrange system by implicit gradient flow whose
pseudo-timestep grows each sweep as fast as the residual falls, and at least
doubles (switched evolution relaxation: Mulder & van Leer, J. Comput. Phys.
59 (1985) 232), turning smoothly into Newton's method; the grid is
sinh-stretched to cluster points near the axis.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (AccuracyError, ConvergenceError, DomainError, check_count,
                     check_finite, check_positive)

# most radial grid points of solve_vortex; a larger grid is refused before
# anything is allocated
MAX_GRID = 2**16
# fewest grid points within the core radius min(1/m_V, 1/m_H), the axis
# included. Measured at 1024 points on 16 (lambda, n) tubes, lambda from
# 1e-4 to 1e4, with r_max from 20 to 1e5 correlation lengths: with 4 or
# fewer the energy's 1% check mostly raised and the rest were 0.08-1.4%
# off, and with the axis alone (r_max = 1e100) the Bogomolny ratio read
# 1/(4n) and passed the check. On the grids solve_vortex doubles to, 47
# solves at 7 couplings (lambda 2e-4 to 50, r_max 20 to 1e5 correlation
# lengths) were within 0.56% of the tension at the default r_max
MIN_CORE_NODES = 5


@dataclass(frozen=True)
class HiggsModel:
    """Charge q (finite and nonzero: beta, the energy, B_z and the flux
    divide by it) of the condensate, vacuum value v and quartic coupling
    lam; v, lam, beta, 1/m_V, 1/m_H and lam*v^4 finite and > 0."""

    q: float
    v: float
    lam: float

    def __post_init__(self):
        check_finite("q", self.q)
        if self.q == 0:
            raise DomainError("charge q must be nonzero: at q = 0 the photon "
                              "decouples from the condensate")
        check_positive("v, lam", self.v, self.lam)
        # the scales the solve divides by or raises to a power, in float64:
        # an overflow, underflow or zero divisor gives one not finite and > 0
        q, v = np.float64(self.q), np.float64(self.v)
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            check_positive("beta, 1/m_V, 1/m_H, lam*v^4",
                           self.lam / (2.0 * q**2), *self.lengths,
                           self.lam * v**4)

    @property
    def photon_mass(self):
        return math.sqrt(2.0) * abs(self.q) * self.v

    @property
    def higgs_mass(self):
        return math.sqrt(self.lam) * self.v

    @property
    def lengths(self):
        """(1/m_V, 1/m_H) in float64."""
        return np.divide(1.0, (self.photon_mass, self.higgs_mass))

    @property
    def beta(self):
        return self.lam / (2.0 * self.q**2)


@dataclass(frozen=True)
class VortexProfile:
    """Radial profiles of a winding-n tube on rho_grid (rho_grid[0] = 0)."""

    n: int
    rho_grid: np.ndarray
    f: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho_grid, dtype=float)
        f = np.asarray(self.f, dtype=float)
        a = np.asarray(self.a, dtype=float)
        n = check_count("winding number n", self.n, 1)
        if rho.ndim != 1 or rho.shape != f.shape or rho.shape != a.shape:
            raise DomainError("rho_grid, f, a must be 1-D arrays of equal length")
        check_count("profile points", len(rho), 3)  # edge_order=2 needs 3
        if rho[0] < 0 or np.any(np.diff(rho) <= 0):
            raise DomainError("rho_grid must be strictly increasing and start at >= 0")
        check_finite("profiles", f, a)
        object.__setattr__(self, "rho_grid", rho)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "n", n)


class RelaxationStats(NamedTuple):
    """What one solve_vortex call did: its sweeps (one banded solve each),
    the residual before each sweep and, once converged, the final one, and
    the pseudo-timestep dtau of the last sweep (0 if none was taken). Sweep
    k runs at dtau_k = min(dtau_{k-1} * max(2, r_{k-1}/r_k), 1e12), r_k the
    residual before it, from dtau_0 = 2."""

    iterations: int
    residual_history: tuple
    final_dtau: float


@dataclass(frozen=True)
class TensionResult:
    T: float
    bogomolny_ratio: float
    converged: bool
    residual: float
    stats: RelaxationStats = None
    # |T - T on every other grid point|, a bound on T's quadrature error
    energy_error: float = None

    def to_dict(self):
        """The four result values; the stats record of the solve and the
        energy's error bound are not among them."""
        return {"T": self.T, "bogomolny_ratio": self.bogomolny_ratio,
                "converged": self.converged, "residual": self.residual}


# ---------------------------------------------------------------------------
# energy functional
# ---------------------------------------------------------------------------

def _density_terms(model, profile):
    """(rho, 2*pi*rho*energy_density) with the axis limit handled."""
    rho, f, a = profile.rho_grid, profile.f, profile.a
    n, q, v, lam = profile.n, model.q, model.v, model.lam
    fp = np.gradient(f, rho, edge_order=2)
    ap = np.gradient(a, rho, edge_order=2)
    safe = np.where(rho > 0, rho, 1.0)
    dens = (v**2 * fp**2
            + v**2 * n**2 * f**2 * (1.0 - a) ** 2 / safe**2
            + n**2 * ap**2 / (2.0 * q**2 * safe**2)
            + 0.25 * lam * v**4 * (f**2 - 1.0) ** 2)
    integrand = 2.0 * np.pi * rho * dens
    # rho -> 0: every term of rho*dens vanishes for admissible profiles
    integrand = np.where(rho > 0, integrand, 0.0)
    return rho, integrand


def vortex_energy(model, profile):
    """Tube energy per unit length by trapezoidal quadrature of the profile,
    and |fine - coarse|, its change when every other grid point is dropped.
    On converged tubes that change bounds the energy's error: the true
    error is smaller, and (fine - coarse)/3, Richardson's estimate, has the
    wrong sign, so the bound is not extrapolated.

    Raises AccuracyError when coarsening the grid by 2 moves the result by
    more than 1%: the profile is then too coarse to quote an energy.
    """
    rho, integrand = _density_terms(model, profile)
    fine = np.trapezoid(integrand, rho)
    coarse = np.trapezoid(integrand[::2], rho[::2])
    # a profile sitting in vacuum integrates to gradient-weight rounding
    # noise; judge the 1% agreement against a physical floor, not the noise
    floor = 1e-14 * model.lam * model.v**4 * max(rho[-1], 1.0) ** 2
    error = abs(fine - coarse)
    if error > 0.01 * max(abs(fine), floor):
        raise AccuracyError("profile grid too coarse for a 1% energy estimate")
    return float(fine), float(error)


def magnetic_profile(model, profile):
    """Axial field B_z(rho) = n*a'(rho)/(q*rho), finite on the axis."""
    rho, a = profile.rho_grid, profile.a
    ap = np.gradient(a, rho, edge_order=2)
    out = np.empty_like(rho)
    pos = rho > 0
    out[pos] = profile.n * ap[pos] / (model.q * rho[pos])
    if np.any(~pos):
        # a ~ c*rho^2 near the axis, so a'/rho -> 2c: use the first interior point
        out[~pos] = 2.0 * profile.n * a[1] / (model.q * rho[1] ** 2)
    return out


def energy_density_profile(model, profile):
    rho, integrand = _density_terms(model, profile)
    safe = np.where(rho > 0, rho, 1.0)
    dens = integrand / (2.0 * np.pi * safe)
    if rho[0] == 0.0:
        dens[0] = dens[1]
    return dens


def vortex_flux(model, profile):
    """Enclosed flux at the grid edge: 2*pi*n*a(r_max)/q."""
    return 2.0 * np.pi * profile.n * profile.a[-1] / model.q


def confinement_energy(tension, L):
    """Energy of a tube of length L: exactly linear, E = T*L. A length that
    is negative or not finite, or whose T*L overflows, is a DomainError."""
    L = np.asarray(L, dtype=float)
    if not np.all((L >= 0) & (L < np.inf)):
        raise DomainError("tube length must be finite and >= 0")
    with np.errstate(over="ignore"):
        out = tension.T * L
    if not np.all(np.isfinite(out)):
        raise DomainError(f"T*L overflows: T = {tension.T}, L up to {L.max()}")
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def _fd_coeffs(x):
    """Second-order 3-point first- and second-derivative weights on a
    nonuniform grid, for interior nodes."""
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    denom = hm * hp * (hm + hp)
    c1m = -hp**2 / denom
    c1c = (hp**2 - hm**2) / denom
    c1p = hm**2 / denom
    c2m = 2.0 * hp / denom
    c2c = -2.0 * (hm + hp) / denom
    c2p = 2.0 * hm / denom
    return (c1m, c1c, c1p), (c2m, c2c, c2p)


def _residual(x, f, a, n, beta, d1, d2):
    """Euler-Lagrange defects at interior nodes (dimensionless units),
    interleaved [rf_1, ra_1, rf_2, ra_2, ...] as the unknowns are."""
    xi = x[1:-1]
    (c1m, c1c, c1p), (c2m, c2c, c2p) = d1, d2
    fp = c1m * f[:-2] + c1c * f[1:-1] + c1p * f[2:]
    fpp = c2m * f[:-2] + c2c * f[1:-1] + c2p * f[2:]
    ap = c1m * a[:-2] + c1c * a[1:-1] + c1p * a[2:]
    app = c2m * a[:-2] + c2c * a[1:-1] + c2p * a[2:]
    fi, ai = f[1:-1], a[1:-1]
    rf = fpp + fp / xi - n**2 * (1.0 - ai) ** 2 * fi / xi**2 \
        + 0.5 * beta * fi * (1.0 - fi**2)
    ra = app - ap / xi + fi**2 * (1.0 - ai)
    return np.ravel([rf, ra], order="F")


def solve_vortex(model, n, r_max=None, grid=1024, tol=1e-10, max_iter=200):
    """Relax the winding-n tube profiles; returns (VortexProfile, TensionResult).

    r_max defaults to 20 * max(1/m_H, 1/m_V) and must be at least 10
    correlation lengths. grid, 512 to MAX_GRID, is the fewest points: it is
    doubled, up to MAX_GRID, until MIN_CORE_NODES of them lie within
    min(1/m_V, 1/m_H) of the axis. n and max_iter must be counts >= 1,
    tol and m_V*r_max*sinh(4) finite and > 0, and the grid's
    finite-difference weights finite; DomainError otherwise.

    The relaxation converges once the largest Euler-Lagrange residual falls
    below max(tol, eps * max|c2|), c2 the grid's central second-difference
    weights: the residual cannot go below that rounding floor, which grows
    as 1/h_min^2 and can exceed tol on grids finer than the default, so
    the returned residual may exceed tol there. The tension carries the
    RelaxationStats of the solve and the energy's error bound. Raises
    ConvergenceError (with the residual history and the stats) if the
    relaxation stalls, or if a sweep's Newton system is not finite or is
    singular.
    """
    n = check_count("winding number n", n, 1)
    grid = check_count("grid", grid, 512, MAX_GRID)
    check_positive("tol", tol)
    max_iter = check_count("max_iter", max_iter, 1)

    m_v = model.photon_mass
    inv_v, inv_h = model.lengths
    corr = max(inv_h, inv_v)
    if r_max is None:
        r_max = 20.0 * corr
    # the grid below is m_V*r_max*sinh(4t)/sinh(4), so its last product is
    # finite if this one is
    with np.errstate(over="ignore"):
        check_positive("m_V*r_max*sinh(4)",
                       m_v * np.float64(r_max) * np.sinh(4.0))
    if r_max < 10.0 * corr:
        raise DomainError("r_max must cover at least 10 correlation lengths")

    beta = model.beta
    while True:
        t = np.linspace(0.0, 1.0, grid + 1)
        x = m_v * r_max * np.sinh(4.0 * t) / math.sinh(4.0)
        core = np.count_nonzero(x < m_v * min(inv_v, inv_h))
        if core >= MIN_CORE_NODES:
            break
        if 2 * grid > MAX_GRID:
            raise DomainError(
                f"a grid of {grid} points puts {core} within the core radius"
                f" min(1/m_V, 1/m_H), fewer than {MIN_CORE_NODES}: lower "
                "r_max")
        grid *= 2
    with np.errstate(over="ignore", invalid="ignore"):
        d1, d2 = _fd_coeffs(x)
    check_finite("m_V*r_max too large: the grid's difference weights", *d1, *d2)
    xi = x[1:-1]
    (c1m, c1c, c1p), (c2m, c2c, c2p) = d1, d2

    # banded matrix (l = u = 2) of the implicit-flow operator (1/dtau) I - J,
    # unknowns interleaved [f_1, a_1, f_2, a_2, ...]. The outer bands, the
    # f_k <- f_{k+-1} and a_k <- a_{k+-1} stencils, and the stencil part of
    # the diagonal depend on the grid alone; each sweep rewrites only the
    # diagonal and the f-a couplings
    ab = np.zeros((5, 2 * (grid - 1)))
    ab[0, 2::2] = -(c2p + c1p / xi)[:-1]
    ab[0, 3::2] = -(c2p - c1p / xi)[:-1]
    ab[4, 0:-2:2] = -(c2m + c1m / xi)[1:]
    ab[4, 1:-2:2] = -(c2m - c1m / xi)[1:]
    lin_f = c2c + c1c / xi
    lin_a = c2c - c1c / xi
    # the second differences' rounding floor, above tol on fine grids
    goal = max(tol, np.finfo(float).eps * np.max(np.abs(c2c)))

    # initial guess with the right boundary behavior
    f = np.tanh(0.5 * x * max(math.sqrt(beta), 0.7)) ** min(n, 2)
    a = 1.0 - np.exp(-0.25 * x**2)
    f[0] = a[0] = 0.0
    f[-1] = a[-1] = 1.0

    # imported here, not at module level: check, fields, holonomy and angmom
    # never load scipy.linalg
    from scipy.linalg import get_lapack_funcs

    # one LU buffer for every sweep: gbsv factors in place, in the band
    # and two rows of fill-in above it
    gbsv, = get_lapack_funcs(("gbsv",), (ab,))
    lu = np.zeros((7, ab.shape[1]), order="F")

    history, failure, sweeps = [], None, 0
    dtau = 1.0      # the first sweep runs at 2
    for _ in range(max_iter):
        rhs = _residual(x, f, a, n, beta, d1, d2)
        res = float(np.max(np.abs(rhs)))
        history.append(res)
        if res < goal:
            break
        # switched evolution relaxation: dtau grows as fast as the residual
        # falls, and at least doubles, up to 1e12
        growth = history[-2] / res if len(history) > 1 else 2.0
        step = min(dtau * max(2.0, growth), 1e12)

        fi, ai = f[1:-1], a[1:-1]
        ab[2, 0::2] = (1.0 / step) - (
            lin_f - n**2 * (1.0 - ai) ** 2 / xi**2
            + 0.5 * beta * (1.0 - 3.0 * fi**2))
        ab[2, 1::2] = (1.0 / step) - (lin_a - fi**2)
        # f_k <- a_k: super-diagonal 1; a_k <- f_k: sub-diagonal 1
        ab[1, 1::2] = -(2.0 * n**2 * (1.0 - ai) * fi / xi**2)
        ab[3, 0:-1:2] = -(2.0 * fi * (1.0 - ai))
        if not (math.isfinite(res) and np.all(np.isfinite(ab))):
            failure = "the relaxation's Newton system is not finite"
            break
        lu[2:] = ab
        _, _, delta, info = gbsv(2, 2, lu, rhs, overwrite_ab=True,
                                 overwrite_b=True)
        if info != 0 or not np.all(np.isfinite(delta)):
            failure = ("the relaxation's Newton system is singular or too "
                       f"ill-conditioned to solve (gbsv info {info})")
            break
        dtau, sweeps = step, sweeps + 1
        f[1:-1] += delta[0::2]
        a[1:-1] += delta[1::2]
        np.clip(f, -0.2, 1.2, out=f)
        np.clip(a, -0.2, 1.2, out=a)
        f[0] = a[0] = 0.0
        f[-1] = a[-1] = 1.0
    else:
        failure = "vortex relaxation did not converge"

    stats = RelaxationStats(sweeps, tuple(history), dtau if sweeps else 0.0)
    profile = VortexProfile(n=n, rho_grid=x / m_v, f=f, a=a)
    if failure:
        # a stall's last sweep moved f and a past history's last residual
        res = float(np.max(np.abs(_residual(x, f, a, n, beta, d1, d2))))
        raise ConvergenceError(failure, best=profile, error=res,
                               history=history, stats=stats)
    T, energy_error = vortex_energy(model, profile)
    bound = 2.0 * np.pi * model.v**2 * abs(n)
    return profile, TensionResult(
        T=T, bogomolny_ratio=float(T / bound), converged=True,
        residual=history[-1], stats=stats, energy_error=energy_error,
    )

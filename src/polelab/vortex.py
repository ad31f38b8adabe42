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
pseudo-timestep grows each sweep, turning smoothly into damped Newton; the
grid is sinh-stretched to cluster points near the axis.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import AccuracyError, ConvergenceError, DomainError


@dataclass(frozen=True)
class HiggsModel:
    """Charge q of the condensate, vacuum value v, quartic coupling lam."""

    q: float
    v: float
    lam: float

    def __post_init__(self):
        for name in ("q", "v", "lam"):
            if not np.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.v <= 0:
            raise DomainError("vacuum expectation value v must be > 0")
        if self.lam <= 0:
            raise DomainError("quartic coupling lam must be > 0")

    @property
    def photon_mass(self):
        return math.sqrt(2.0) * abs(self.q) * self.v

    @property
    def higgs_mass(self):
        return math.sqrt(self.lam) * self.v

    @property
    def beta(self):
        if self.q == 0:
            raise DomainError("beta undefined for q = 0 (photon decoupled)")
        return self.lam / (2.0 * self.q**2)


def photon_mass_of(model):
    """Photon mass generated by the condensate: sqrt(2)*q*v (0 if q = 0)."""
    return model.photon_mass


@dataclass(frozen=True)
class VortexProfile:
    """Radial profiles of a winding-n tube on rho_grid (rho_grid[0] = 0)."""

    n: int
    rho_grid: np.ndarray
    f: np.ndarray
    a: np.ndarray
    beta: float

    def __post_init__(self):
        rho = np.asarray(self.rho_grid, dtype=float)
        f = np.asarray(self.f, dtype=float)
        a = np.asarray(self.a, dtype=float)
        if int(self.n) < 1:
            raise DomainError("winding number n must be >= 1")
        if rho.ndim != 1 or rho.shape != f.shape or rho.shape != a.shape:
            raise DomainError("rho_grid, f, a must be 1-D arrays of equal length")
        if rho[0] < 0 or np.any(np.diff(rho) <= 0):
            raise DomainError("rho_grid must be strictly increasing and start at >= 0")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(a))):
            raise DomainError("profiles must be finite")
        object.__setattr__(self, "rho_grid", rho)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "n", int(self.n))


@dataclass(frozen=True)
class TensionResult:
    T: float
    bogomolny_ratio: float
    converged: bool
    residual: float

    def to_dict(self):
        return {
            "T": self.T,
            "bogomolny_ratio": self.bogomolny_ratio,
            "converged": self.converged,
            "residual": self.residual,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# energy functional
# ---------------------------------------------------------------------------

def _density_terms(model, profile):
    """(rho, 2*pi*rho*energy_density) with the axis limit handled."""
    rho, f, a = profile.rho_grid, profile.f, profile.a
    n, q, v, lam = profile.n, model.q, model.v, model.lam
    if q == 0:
        raise DomainError("vortex energy requires q != 0")
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
    """Tube energy per unit length by trapezoidal quadrature of the profile.

    Raises AccuracyError when coarsening the grid by 2 moves the result by
    more than 1%: the profile is then too coarse to quote an energy.
    """
    rho, integrand = _density_terms(model, profile)
    fine = np.trapezoid(integrand, rho)
    coarse = np.trapezoid(integrand[::2], rho[::2])
    # a profile sitting in vacuum integrates to gradient-weight rounding
    # noise; judge the 1% agreement against a physical floor, not the noise
    floor = 1e-14 * model.lam * model.v**4 * max(rho[-1], 1.0) ** 2
    if abs(fine - coarse) > 0.01 * max(abs(fine), floor):
        raise AccuracyError("profile grid too coarse for a 1% energy estimate")
    return float(fine)


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
    if rho[0] == 0.0 and len(rho) > 1:
        dens[0] = dens[1]
    return dens


def vector_potential_fn(model, profile):
    """Callable A(r) for the tube, for loop-holonomy checks.

    Azimuthal magnitude n*a(rho)/(q*rho), with a interpolated linearly on the
    profile grid and clamped to 1 beyond it.
    """
    rho_g, a_g = profile.rho_grid, profile.a
    n, q = profile.n, model.q

    def potential(r):
        arr = np.asarray(r, dtype=float)
        x, y = arr[..., 0], arr[..., 1]
        rho = np.hypot(x, y)
        a = np.interp(rho, rho_g, a_g, right=1.0)
        safe = np.where(rho > 0, rho, 1.0)
        amp = np.where(rho > 0, n * a / (q * safe**2), 0.0)
        out = np.zeros_like(arr)
        out[..., 0] = -y * amp
        out[..., 1] = x * amp
        return out

    return potential


def vortex_flux(model, profile):
    """Enclosed flux at the grid edge: 2*pi*n*a(r_max)/q."""
    return 2.0 * np.pi * profile.n * profile.a[-1] / model.q


def confinement_energy(tension, L):
    """Energy of a tube of length L: exactly linear, E = T*L."""
    L = np.asarray(L, dtype=float)
    if np.any(L < 0):
        raise DomainError("tube length must be >= 0")
    T = tension.T if isinstance(tension, TensionResult) else float(tension)
    out = T * L
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def _stretched_grid(x_max, npts, strength=4.0):
    t = np.linspace(0.0, 1.0, npts + 1)
    return x_max * np.sinh(strength * t) / math.sinh(strength)


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
    """Euler-Lagrange defects at interior nodes (dimensionless units)."""
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
    return rf, ra


def solve_vortex(model, n, r_max=None, grid=1024, tol=1e-10, max_iter=200):
    """Relax the winding-n tube profiles; returns (VortexProfile, TensionResult).

    r_max defaults to 20 * max(1/m_H, 1/m_V) and must be at least 10
    correlation lengths; grid must be >= 512 points. Raises ConvergenceError
    (with the residual history) if the relaxation stalls.
    """
    if not isinstance(n, (int, np.integer)):
        raise DomainError("winding number n must be an integer")
    if n <= 0:
        raise DomainError("winding number n must be >= 1")
    if model.q == 0:
        raise DomainError("vortex solve requires q != 0")
    if grid < 512:
        raise DomainError("grid must have at least 512 points")
    if not tol > 0:
        raise DomainError("tol must be > 0")

    m_v = model.photon_mass
    m_h = model.higgs_mass
    corr = max(1.0 / m_h, 1.0 / m_v)
    if r_max is None:
        r_max = 20.0 * corr
    if r_max < 10.0 * corr:
        raise DomainError("r_max must cover at least 10 correlation lengths")

    beta = model.beta
    x = _stretched_grid(m_v * r_max, grid)
    d1, d2 = _fd_coeffs(x)
    npts = grid + 1
    xi = x[1:-1]

    # initial guess with the right boundary behavior
    f = np.tanh(0.5 * x * max(math.sqrt(beta), 0.7)) ** min(n, 2)
    a = 1.0 - np.exp(-0.25 * x**2)
    f[0] = a[0] = 0.0
    f[-1] = a[-1] = 1.0

    n_int = npts - 2
    history = []
    dtau = 0.5
    converged = False
    for _ in range(max_iter):
        rf, ra = _residual(x, f, a, n, beta, d1, d2)
        res = max(np.max(np.abs(rf)), np.max(np.abs(ra)))
        history.append(float(res))
        if res < tol:
            converged = True
            break

        # banded Jacobian of the implicit-flow operator (1/dtau) I - J,
        # unknowns interleaved [f_1, a_1, f_2, a_2, ...]
        (c1m, c1c, c1p), (c2m, c2c, c2p) = d1, d2
        fi, ai = f[1:-1], a[1:-1]
        jf_fm = c2m + c1m / xi
        jf_fc = c2c + c1c / xi - n**2 * (1.0 - ai) ** 2 / xi**2 \
            + 0.5 * beta * (1.0 - 3.0 * fi**2)
        jf_fp = c2p + c1p / xi
        jf_ac = 2.0 * n**2 * (1.0 - ai) * fi / xi**2
        ja_am = c2m - c1m / xi
        ja_ac = c2c - c1c / xi - fi**2
        ja_ap = c2p - c1p / xi
        ja_fc = 2.0 * fi * (1.0 - ai)

        size = 2 * n_int
        ab = np.zeros((5, size))  # l = u = 2 banded storage
        rhs = np.empty(size)
        rhs[0::2] = rf
        rhs[1::2] = ra
        # diagonal (row = col)
        ab[2, 0::2] = (1.0 / dtau) - jf_fc
        ab[2, 1::2] = (1.0 / dtau) - ja_ac
        # f_k <- a_k coupling: col = row + 1 -> super-diagonal 1
        ab[1, 1::2] = -jf_ac
        # a_k <- f_k coupling: col = row - 1 -> sub-diagonal 1
        ab[3, 0:-1:2] = -ja_fc
        # f_k <- f_{k+1}: col = row + 2
        ab[0, 2::2] = -jf_fp[:-1]
        # a_k <- a_{k+1}
        ab[0, 3::2] = -ja_ap[:-1]
        # f_k <- f_{k-1}: col = row - 2
        ab[4, 0:-2:2] = -jf_fm[1:]
        # a_k <- a_{k-1}
        ab[4, 1:-2:2] = -ja_am[1:]

        delta = solve_banded((2, 2), ab, rhs)
        f[1:-1] += delta[0::2]
        a[1:-1] += delta[1::2]
        np.clip(f, -0.2, 1.2, out=f)
        np.clip(a, -0.2, 1.2, out=a)
        f[0] = a[0] = 0.0
        f[-1] = a[-1] = 1.0
        dtau = min(dtau * 2.0, 1e12)

    rho = x / m_v
    profile = VortexProfile(n=n, rho_grid=rho, f=f.copy(), a=a.copy(), beta=beta)
    rf, ra = _residual(x, f, a, n, beta, d1, d2)
    res = float(max(np.max(np.abs(rf)), np.max(np.abs(ra))))
    if not converged:
        raise ConvergenceError("vortex relaxation did not converge",
                               best=profile, error=res, history=history)
    T = vortex_energy(model, profile)
    bound = 2.0 * np.pi * model.v**2 * abs(n)
    return profile, TensionResult(
        T=T, bogomolny_ratio=float(T / bound), converged=True, residual=res,
    )

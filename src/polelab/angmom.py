"""Field angular momentum stored by a charge/pole pair.

Geometry: pole g at the origin, charge q at (0, 0, d), photon mass mu
screening the electric field only. The momentum density is (E x B)/(4*pi)
and the observable is the angular-momentum component along the symmetry
axis, reported in the orientation in which the massless pair carries +q*g
(the vector itself points from the charge toward the pole).

For mu = 0 the result is q*g for every separation d; that d-independence is
what ties the pair's angular momentum to a quantization condition. For
mu > 0 the screened E field cuts the integrand off beyond 1/mu and the
stored angular momentum declines with separation, vanishing as mu*d -> inf.

Numerics: after the azimuthal integral the density reduces, in the
two-center coordinates (r = |x|, s = |x - d z_hat|), to

    J = (q*g / (8*d^2)) * int dr r^{-2} int ds (s^2-a^2)(b^2-s^2) w(s)/s^2,

with a = |r-d|, b = r+d and w(s) = (1 + mu*s) exp(-mu*s). The exclusion
balls demanded around both singular points are the half-planes r < eps and
s < eps in these coordinates; J(eps) is evaluated on a halving schedule and
Richardson-extrapolated to eps = 0 (the excluded contributions scale as
eps^2). For mu = 0 the integrand beyond r > d is exactly (16/3) d^3 / r^2
(all higher multipoles integrate to zero against the 1 - u^2 weight), so
the tail past r_max is added in closed form; for mu > 0 the tail is bounded
by its exponential envelope and r_max is pushed out until that bound is
below a tenth of the target tolerance.

J depends on d and mu only through mu*d, so field_angular_momentum
evaluates it on the unit pair, J(d, mu) = J(1, mu*d): the d^2 prefactor and
the d^4-sized products of the integrand then neither underflow nor overflow
at any separation. The layers below still take d. Every breakpoint is an
exact multiple of d, eps or the inner panel's lower limit lo by a
scale-free factor (a power of two, a small integer, or (b/lo)^(j/m)), and
the r_max push depends only on mu*(r_max - d) and exact powers of d, so
they scale exactly with d. np.geomspace(lo, b) must not build the inner
panels: its log10 rounding breaks that.
"""

import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .fields import (_SCREENING_CLAMP, PhysicalConfig, _screening_argument,
                     as_vec3, monopole_field, yukawa_electric_field)
from .gauge import _gl_nodes, _neville_at_zero


@dataclass(frozen=True)
class PairConfig:
    """Charge q at (0, 0, d), pole g at the origin, photon mass mu."""

    q: float
    g: float
    d: float
    mu: float = 0.0

    def __post_init__(self):
        for name in ("q", "g", "d", "mu"):
            if not np.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        # d > 0, and neither the exclusion radius d/64 nor the prefactor's
        # 8*d^2 underflows to 0
        if not (self.d / 64.0 > 0 and 8.0 * self.d * self.d > 0):
            raise DomainError(f"separation d = {self.d} must be > 0, with "
                              "d/64 and 8*d^2 > 0")
        if self.mu < 0:
            raise DomainError("photon mass mu must be >= 0")

    @property
    def charge_position(self):
        return np.array([0.0, 0.0, self.d])


@dataclass(frozen=True)
class QuadratureSpec:
    """Target relative tolerance, number of eps-halving refinement levels
    and Gauss-Legendre order. The exclusion radius eps = d/64 and the outer
    cutoff r_max = 50*d are fixed per pair."""

    target_tol: float = 1e-5
    levels: int = 3
    gl_order: int = 24

    def resolve(self, pair):
        if self.levels < 2 or self.gl_order < 4:
            raise DomainError("need levels >= 2 and gl_order >= 4")
        if not self.target_tol > 0:
            raise DomainError("target_tol must be > 0")
        return pair.d / 64.0, 50.0 * pair.d


class AngularMomentum(NamedTuple):
    value: float
    error: float


@dataclass(frozen=True)
class SweepCell:
    mu: float
    d: float
    value: float
    error: float
    converged: bool


def field_momentum_density(pair, r):
    """Momentum density (E x B)/(4*pi) of the pair at points r."""
    arr = as_vec3(r)
    e_cfg = PhysicalConfig(q=pair.q, g=0.0, mu=pair.mu)
    b_cfg = PhysicalConfig(q=0.0, g=pair.g, mu=pair.mu)
    e = yukawa_electric_field(e_cfg, arr - pair.charge_position)
    b = monopole_field(b_cfg, arr)
    return np.cross(e, b) / (4.0 * np.pi)


def _inner_integral(r_nodes, d, mu, s_floor, order):
    """int_{max(|r-d|, s_floor)}^{r+d} (s^2-a^2)(b^2-s^2) w(s) / s^2 ds
    for an array of r values, each via geometric Gauss-Legendre panels.

    The panel edges are lo * (b/lo)^(j/m), with the last edge set to b
    exactly. The factor (b/lo)^(j/m) depends only on the scale-free ratio
    b/lo and the panel count m, so scaling r, d and s_floor by 2^k (and mu
    by 2^-k) scales every edge, node and width by exactly 2^k and the
    result by exactly 8^k. np.geomspace(lo, b) must not be used here: it
    interpolates log10(lo) and log10(b), and log10(2^k x) does not round to
    k log10(2) + log10(x), so its interior edges break that scaling."""
    nodes, weights = _gl_nodes(order)
    # s >= s_floor, so this cap moves only a mu whose weights are all 0; it
    # keeps mu*s finite (no inf * 0 = nan) and every smaller mu unchanged
    mu = min(mu, _SCREENING_CLAMP / s_floor)
    out = np.zeros_like(r_nodes)
    for idx, r in enumerate(r_nodes):
        a = abs(r - d)
        b = r + d
        lo = max(a, s_floor)
        if lo >= b:
            continue
        m = max(1, int(math.ceil(math.log2(b / lo))))
        edges = lo * (b / lo) ** (np.arange(m + 1) / m)
        edges[-1] = b
        widths = np.diff(edges)
        s = edges[:-1, None] + widths[:, None] * nodes[None, :]
        f = (s * s - a * a) * (b * b - s * s) * (1.0 + mu * s) * np.exp(-mu * s) / (s * s)
        out[idx] = float(np.sum(f * weights[None, :] * widths[:, None]))
    return out


def _outer_breakpoints(eps, d, r_max):
    pts = [eps, 2 * eps, 4 * eps]
    r = d / 2
    while r > 8 * eps:
        pts.append(r)
        r /= 2
    pts.extend([d / 2, d - eps, d, d + eps, 1.5 * d, 2 * d])
    r = 4 * d
    while r < r_max:
        pts.append(r)
        r *= 2
    pts.append(r_max)
    pts = sorted({p for p in pts if eps <= p <= r_max})
    return np.asarray(pts)


def _j_at_eps(pair, eps, r_max, order):
    """The reduced double integral with both exclusion cuts at eps."""
    nodes, weights = _gl_nodes(order)
    edges = _outer_breakpoints(eps, pair.d, r_max)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        w = hi - lo
        r = lo + w * nodes
        inner = _inner_integral(r, pair.d, pair.mu, eps, order)
        total += float(np.sum(weights * inner / (r * r))) * w
    return pair.q * pair.g / (8.0 * pair.d**2) * total


def _tail(pair, r_max):
    """(exact mu=0 tail, bound for mu>0 tail) beyond r_max."""
    q, g, d, mu = pair.q, pair.g, pair.d, pair.mu
    if mu == 0.0:
        return 2.0 * q * g * d / (3.0 * r_max), 0.0
    # inner integral is bounded by (16/3) d^3 (1 + mu*(r-d)) e^{-mu*(r-d)}
    u = float(_screening_argument(mu, r_max - d))
    bound = abs(q * g) / (8 * d * d) * (16.0 / 3.0) * d**3 / r_max**2 \
        * math.exp(-u) * ((1.0 + u) / mu + 1.0 / mu)
    return 0.0, bound


def field_angular_momentum(pair, quad=None):
    """Axial field angular momentum of the pair, with an error estimate.

    Returns AngularMomentum(value, error). Orientation: value -> +q*g as
    mu -> 0 (component along the charge-to-pole direction). Raises
    ConvergenceError (carrying the best estimate) unless the combined
    quadrature, extrapolation, and tail errors are within target_tol
    relative to |q*g|.
    """
    quad = quad if quad is not None else QuadratureSpec()
    # J(d, mu) = J(1, mu*d); a mu*d past the largest float screens J to 0
    # as the largest float does
    pair = replace(pair, d=1.0, mu=min(pair.mu * pair.d, sys.float_info.max))
    eps0, r_max = quad.resolve(pair)
    scale = abs(pair.q * pair.g)
    if scale == 0.0:
        return AngularMomentum(0.0, 0.0)

    # push r_max out until the mu>0 envelope bound is negligible
    tail_value, tail_bound = _tail(pair, r_max)
    while tail_bound > 0.1 * quad.target_tol * scale:
        r_max *= 1.5
        tail_value, tail_bound = _tail(pair, r_max)

    eps_list = [eps0 / 2**k for k in range(quad.levels)]
    vals = np.array([_j_at_eps(pair, e, r_max, quad.gl_order) for e in eps_list])

    # Richardson in eps^2 toward eps = 0
    extrapolated, err_extrap = _neville_at_zero(np.array(eps_list) ** 2, vals)

    # quadrature error: repeat the finest-eps evaluation at half the GL order
    coarse = _j_at_eps(pair, eps_list[-1], r_max, max(4, quad.gl_order // 2))
    err_quad = abs(vals[-1] - coarse)

    value = extrapolated + tail_value
    error = err_extrap + err_quad + tail_bound
    if not error <= quad.target_tol * scale:
        raise ConvergenceError(
            "angular-momentum quadrature did not reach target tolerance",
            best=value, error=error,
            history=list(vals),
        )
    return AngularMomentum(value, error)


def angular_momentum_sweep(q, g, mu_list, d_list, quad=None):
    """J over the (mu, d) grid; per-cell convergence failures are recorded,
    not raised. Returns a list of SweepCell in row-major (mu outer) order."""
    mu_list = list(mu_list)
    d_list = list(d_list)
    if not mu_list or not d_list:
        raise DomainError("sweep needs at least one mu and one d")
    cells = []
    for mu in mu_list:
        for d in d_list:
            pair = PairConfig(q=q, g=g, d=d, mu=mu)
            try:
                res = field_angular_momentum(pair, quad)
                cells.append(SweepCell(mu, d, res.value, res.error, True))
            except ConvergenceError as exc:
                cells.append(SweepCell(mu, d, exc.best, exc.error, False))
    return cells

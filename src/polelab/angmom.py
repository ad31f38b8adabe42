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

The outer r integral runs over Gauss-Legendre panels between fixed
breakpoints. The inner s integral of one r covers [lo, b], lo = max(a, eps),
with m = ceil(log2(b/lo)) geometric panels, and all r nodes of one outer
panel are evaluated as one block: each r is padded to the largest m among
them by panels whose edges all sit at b. A padded panel has width exactly
0, so it adds an exact 0 to its node's sum. On the seed-401 benchmark sweep
the padding is 19% of the integrand evaluations. field_angular_momentum
reports the evaluations, the padded share, the r_max pushes and the three
error terms in the stats of each result.

J depends on d and mu only through mu*d, so field_angular_momentum
evaluates it on the unit pair, J(d, mu) = J(1, mu*d): the d^2 prefactor and
the d^4-sized products of the integrand then neither underflow nor overflow
at any separation. The layers below still take d. Every breakpoint is an
exact multiple of d, eps or the inner panel's lower limit lo by a
scale-free factor (a power of two, a small integer, or (b/lo)^(j/m)), and
the r_max push depends only on mu*(r_max - d) and exact powers of d, so
they scale exactly with d. The padding keeps this: m depends only on the
ratio b/lo, so a 2^k rescaling pads the same panels, and b - b is 0 at
every scale. np.geomspace(lo, b) must not build the inner panels: its
log10 rounding breaks that.
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


# the inner quadrature evaluates gl_order^2 * M points per outer panel
# (M ~ 7 + levels inner panels), and leggauss builds a gl_order^2 matrix
MAX_GL_ORDER = 64


@dataclass(frozen=True)
class QuadratureSpec:
    """Target relative tolerance, number of eps-halving refinement levels
    and Gauss-Legendre order (4 to MAX_GL_ORDER). The exclusion radius
    eps = d/64 and the outer cutoff r_max = 50*d are fixed per pair."""

    target_tol: float = 1e-5
    levels: int = 3
    gl_order: int = 24

    def resolve(self, pair):
        if self.levels < 2 or not 4 <= self.gl_order <= MAX_GL_ORDER:
            raise DomainError(
                f"need levels >= 2 and 4 <= gl_order <= {MAX_GL_ORDER}")
        if not self.target_tol > 0:
            raise DomainError("target_tol must be > 0")
        return pair.d / 64.0, 50.0 * pair.d


class QuadratureStats(NamedTuple):
    """What one field_angular_momentum call did: integrand evaluations
    (padded ones included), how many of them were padding, the r_max
    pushes, and the three terms of its error budget."""

    evaluations: int
    padded: int
    r_max_pushes: int
    err_extrapolation: float
    err_quadrature: float
    err_tail: float


class AngularMomentum(NamedTuple):
    value: float
    error: float
    stats: QuadratureStats = None     # None: q*g = 0, nothing evaluated


@dataclass(frozen=True)
class SweepCell:
    mu: float
    d: float
    value: float
    error: float
    converged: bool
    stats: QuadratureStats = None


def field_momentum_density(pair, r):
    """Momentum density (E x B)/(4*pi) of the pair at points r."""
    arr = as_vec3(r)
    e_cfg = PhysicalConfig(q=pair.q, g=0.0, mu=pair.mu)
    b_cfg = PhysicalConfig(q=0.0, g=pair.g, mu=pair.mu)
    e = yukawa_electric_field(e_cfg, arr - pair.charge_position)
    b = monopole_field(b_cfg, arr)
    return np.cross(e, b) / (4.0 * np.pi)


def _inner_panels(r_nodes, d, s_floor):
    """(a, b, lo, m) for the inner integral at each r: a = |r-d|, b = r+d,
    the lower limit lo = max(a, s_floor) and the number m of geometric
    panels on [lo, b], which is 0 where lo >= b leaves nothing to integrate."""
    a = np.abs(r_nodes - d)
    b = r_nodes + d
    lo = np.maximum(a, s_floor)
    m = np.maximum(1, np.ceil(np.log2(b / lo)))
    return a, b, lo, np.where(lo < b, m, 0).astype(int)


def _inner_integral(r_nodes, d, mu, s_floor, order):
    """int_{max(|r-d|, s_floor)}^{r+d} (s^2-a^2)(b^2-s^2) w(s) / s^2 ds
    for an array of r values, each via geometric Gauss-Legendre panels, all
    r evaluated in one block.

    The panel edges of one r are lo * (b/lo)^(j/m), j < m, with edge m set
    to b exactly. Every r is padded to the largest m in the call, M, by
    holding edges m..M at b: a padded panel has width b - b = 0, so its
    nodes sit at s = b and add an exact 0 to the sum, and an r with lo >= b
    (m = 0) gives exactly 0. The factor (b/lo)^(j/m) depends only on the
    scale-free ratio b/lo and the panel count m, so scaling r, d and
    s_floor by 2^k (and mu by 2^-k) scales every edge, node and width by
    exactly 2^k, leaves m and the zero widths as they are, and scales the
    result by exactly 8^k. np.geomspace(lo, b) must not be used here: it
    interpolates log10(lo) and log10(b), and log10(2^k x) does not round to
    k log10(2) + log10(x), so its interior edges break that scaling."""
    nodes, weights = _gl_nodes(order)
    # s >= s_floor, so this cap moves only a mu whose weights are all 0; it
    # keeps mu*s finite (no inf * 0 = nan) and every smaller mu unchanged
    mu = min(mu, _SCREENING_CLAMP / s_floor)
    a, b, lo, m = _inner_panels(r_nodes, d, s_floor)
    j = np.arange(m.max() + 1)
    m, a, b, lo = m[:, None], a[:, None], b[:, None], lo[:, None]
    edges = np.where(j < m, lo * (b / lo) ** (j / np.maximum(m, 1)), b)
    widths = np.diff(edges, axis=1)
    s = edges[:, :-1, None] + widths[:, :, None] * nodes
    a, b = a[:, :, None], b[:, :, None]
    f = (s * s - a * a) * (b * b - s * s) * (1.0 + mu * s) * np.exp(-mu * s) / (s * s)
    return (f * weights * widths[:, :, None]).reshape(len(m), -1).sum(axis=1)


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


def _evaluations(d, eps, r_max, order):
    """(integrand evaluations, padded ones among them) of one _j_at_eps
    call: each outer panel's `order` r nodes are padded to their largest
    inner panel count M, so the panel evaluates order * M * order points."""
    nodes, _ = _gl_nodes(order)
    edges = _outer_breakpoints(eps, d, r_max)
    r = edges[:-1, None] + np.diff(edges)[:, None] * nodes
    m = _inner_panels(r, d, eps)[-1]
    total = int(m.max(axis=1).sum()) * order * order
    return total, total - int(m.sum()) * order


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

    Returns AngularMomentum(value, error, stats). Orientation: value ->
    +q*g as mu -> 0 (component along the charge-to-pole direction). Raises
    ConvergenceError (carrying the best estimate and the stats) unless the
    combined quadrature, extrapolation, and tail errors are within
    target_tol relative to |q*g|. The stats' error terms, like value, are
    absolute.
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
    pushes = 0
    while tail_bound > 0.1 * quad.target_tol * scale:
        r_max *= 1.5
        pushes += 1
        tail_value, tail_bound = _tail(pair, r_max)

    eps_list = [eps0 / 2**k for k in range(quad.levels)]
    vals = np.array([_j_at_eps(pair, e, r_max, quad.gl_order) for e in eps_list])

    # Richardson in eps^2 toward eps = 0
    extrapolated, err_extrap = _neville_at_zero(np.array(eps_list) ** 2, vals)

    # quadrature error: repeat the finest-eps evaluation at half the GL order
    coarse_order = max(4, quad.gl_order // 2)
    coarse = _j_at_eps(pair, eps_list[-1], r_max, coarse_order)
    err_quad = abs(vals[-1] - coarse)

    counts = [_evaluations(pair.d, e, r_max, quad.gl_order) for e in eps_list]
    counts.append(_evaluations(pair.d, eps_list[-1], r_max, coarse_order))
    stats = QuadratureStats(sum(c[0] for c in counts),
                            sum(c[1] for c in counts), pushes,
                            float(err_extrap), float(err_quad), tail_bound)
    value = extrapolated + tail_value
    error = err_extrap + err_quad + tail_bound
    if not error <= quad.target_tol * scale:
        raise ConvergenceError(
            "angular-momentum quadrature did not reach target tolerance",
            best=value, error=error,
            history=list(vals), stats=stats,
        )
    return AngularMomentum(value, error, stats)


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
                cells.append(SweepCell(mu, d, res.value, res.error, True,
                                       res.stats))
            except ConvergenceError as exc:
                cells.append(SweepCell(mu, d, exc.best, exc.error, False,
                                       exc.stats))
    return cells

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
eps^2). That model holds while the screening length 1/mu is at least the
cut of the finest level, or of the third, and a cell past it does not
count as converged (QuadratureSpec.resolved_mu_d). For mu = 0 the
integrand beyond r > d is exactly (16/3) d^3 / r^2 (all higher
multipoles integrate to zero against the 1 - u^2 weight), so
the tail past r_max is added in closed form; for mu > 0 the tail is bounded
by its exponential envelope and r_max is pushed out until that bound is
below a tenth of the target tolerance.

The outer r integral runs over Gauss-Legendre panels between fixed
breakpoints. The inner s integral of one r covers [lo, b], lo = max(a, eps),
with m = ceil(log2(b/lo)) geometric panels, and all r nodes of one outer
panel are evaluated as one block: each r is padded to the largest m among
them by panels whose edges all sit at b. A padded panel has width exactly
0, so it adds an exact 0 to its node's sum. On the seed-401 benchmark sweep
the padding is 19% of the integrand evaluations of its 25 computed cells.
field_angular_momentum reports the evaluations, the padded share, the r_max
pushes and the three error terms in the stats of each result.

J(d, mu) = J(1, mu*d), and every layer below field_angular_momentum
works on that unit pair, so the d^2 prefactor and the d^4-sized products
of the integrand neither underflow nor overflow at any separation.
"""

import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (ConvergenceError, DomainError, check_count,
                     check_finite, check_positive)
from .fields import (_SCREENING_CLAMP, PhysicalConfig, _screening_argument,
                     as_vec3, monopole_field, yukawa_electric_field)
from .gauge import _winding


@dataclass(frozen=True)
class PairConfig:
    """Charge q at (0, 0, d), pole g at the origin, photon mass mu."""

    q: float
    g: float
    d: float
    mu: float = 0.0

    def __post_init__(self):
        check_finite("q, g, d, mu", self.q, self.g, self.d, self.mu)
        # the massless tail 2*(q*g)/(3*r_max) is the largest product the
        # quadrature forms with q*g; past the float range J would be inf
        _winding(self.q, self.g)
        # d > 0, and d/64 and 8*d^2 do not underflow to 0: a separation
        # too small to hold an exclusion ball or to square is refused here,
        # though J itself is evaluated on the unit pair
        if not (self.d / 64.0 > 0 and 8.0 * self.d * self.d > 0):
            raise DomainError(f"separation d = {self.d} must be > 0, with "
                              "d/64 and 8*d^2 > 0")
        if self.mu < 0:
            raise DomainError("photon mass mu must be >= 0")

    @property
    def charge_position(self):
        return np.array([0.0, 0.0, self.d])


# the first level's exclusion radius and the unpushed outer cutoff
EPS0 = 1.0 / 64.0
R_MAX0 = 50.0
# the last r_max pushed: _tail squares the next, 1.5 * r_max, which past
# this overflows; only a mu*d below about 1e-302 needs more pushes
_R_MAX_LAST = math.sqrt(sys.float_info.max) / 1.5

# the inner quadrature evaluates gl_order^2 * M points per outer panel
# (M ~ 7 + levels inner panels), and leggauss builds a gl_order^2 matrix
MAX_GL_ORDER = 64

# the finest cut EPS0 / 2^(levels - 1) is then 2^-52, the last with
# 1 + eps != 1. One cell at 47 levels takes 0.2 s at gl_order 24 and 1.0 s
# at MAX_GL_ORDER on a 2-core Xeon
MAX_LEVELS = 47


@dataclass(frozen=True)
class QuadratureSpec:
    """Target relative tolerance (finite, > 0), number of eps-halving
    refinement levels (2 to MAX_LEVELS) and Gauss-Legendre order (8 to
    MAX_GL_ORDER), checked on construction. The quadrature error is
    estimated against the rule of order gl_order // 2, never the rule
    itself; below order 8 that misses the rule's own error (at 3 levels,
    with no mu*d cut, from mu*d = 0.001 at order 4, 5.9, 147 and 188 at
    orders 5, 6 and 7, all below resolved_mu_d)."""

    target_tol: float = 1e-5
    levels: int = 3
    gl_order: int = 24

    def __post_init__(self):
        check_count("levels", self.levels, 2, MAX_LEVELS)
        check_count("gl_order", self.gl_order, 8, MAX_GL_ORDER)
        check_positive("target_tol", self.target_tol)

    @property
    def resolved_mu_d(self):
        """The largest mu*d a cell may converge at: 1/(mu*d) reaches the cut
        of the finest level, or of the third. Past it the coarse levels'
        eps^2 model fails and the error estimate misses the true error (with
        no cut, at orders 8-16, 24, 32 and 64, from mu*d = 177 at 2 levels
        and 259 at 3 or more: gl_order 8 from 16 levels on)."""
        return 2.0 ** (min(self.levels, 3) - 1) / EPS0


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
    """One (mu, d) cell of a sweep. reused: the cell's unit pair was
    already computed for an earlier cell, whose result it copies."""

    mu: float
    d: float
    value: float
    error: float
    converged: bool
    stats: QuadratureStats = None
    reused: bool = False


def field_momentum_density(pair, r):
    """Momentum density (E x B)/(4*pi) of the pair at points r."""
    arr = as_vec3(r)
    e_cfg = PhysicalConfig(q=pair.q, g=0.0, mu=pair.mu)
    b_cfg = PhysicalConfig(q=0.0, g=pair.g, mu=pair.mu)
    e = yukawa_electric_field(e_cfg, arr - pair.charge_position)
    b = monopole_field(b_cfg, arr)
    return np.cross(e, b) / (4.0 * np.pi)


@lru_cache(maxsize=16)
def _gl_nodes(order):
    x, w = np.polynomial.legendre.leggauss(order)
    # map from [-1, 1] to [0, 1]
    return 0.5 * (x + 1.0), 0.5 * w


def _inner_panels(r_nodes, s_floor):
    """(a, b, lo, m) for the inner integral at each r: a = |r-1|, b = r+1,
    the lower limit lo = max(a, s_floor) and the number m of geometric
    panels on [lo, b], which is 0 where lo >= b leaves nothing to integrate."""
    a = np.abs(r_nodes - 1.0)
    b = r_nodes + 1.0
    lo = np.maximum(a, s_floor)
    m = np.maximum(1, np.ceil(np.log2(b / lo)))
    return a, b, lo, np.where(lo < b, m, 0).astype(int)


def _inner_integral(r_nodes, mu, s_floor, order):
    """int_{max(|r-1|, s_floor)}^{r+1} (s^2-a^2)(b^2-s^2) w(s) / s^2 ds
    on the unit pair for an array of r values, each via geometric
    Gauss-Legendre panels, all r evaluated in one block. Returns
    (integrals, m): the values and each r's panel count m.

    The panel edges of one r are lo * (b/lo)^(j/m), j < m, with edge m set
    to b exactly. Every r is padded to the largest m in the call, M, by
    holding edges m..M at b: a padded panel has width b - b = 0, so its
    nodes sit at s = b and add an exact 0 to the sum, and an r with lo >= b
    (m = 0) gives exactly 0."""
    nodes, weights = _gl_nodes(order)
    # s >= s_floor, so this cap moves only a mu whose weights are all 0; it
    # keeps mu*s finite (no inf * 0 = nan) and every smaller mu unchanged
    mu = min(mu, _SCREENING_CLAMP / s_floor)
    a, b, lo, counts = _inner_panels(r_nodes, s_floor)
    j = np.arange(counts.max() + 1)
    m, a, b, lo = counts[:, None], a[:, None], b[:, None], lo[:, None]
    edges = np.where(j < m, lo * (b / lo) ** (j / np.maximum(m, 1)), b)
    widths = np.diff(edges, axis=1)
    s = edges[:, :-1, None] + widths[:, :, None] * nodes
    a, b = a[:, :, None], b[:, :, None]
    # (s^2-a^2)(b^2-s^2)(1+mu*s) exp(-mu*s) / s^2, in place, multiplied
    # left to right as written
    s2 = s * s
    f = s2 - a * a
    f *= b * b - s2
    f *= 1.0 + mu * s
    f *= np.exp(-mu * s)
    f /= s2
    f *= weights
    f *= widths[:, :, None]
    return f.reshape(len(m), -1).sum(axis=1), counts


def _outer_breakpoints(eps, r_max):
    pts = [eps, 2 * eps, 4 * eps]
    r = 0.5
    while r > 8 * eps:
        pts.append(r)
        r /= 2
    pts.extend([0.5, 1.0 - eps, 1.0, 1.0 + eps, 1.5, 2.0])
    r = 4.0
    while r < r_max:
        pts.append(r)
        r *= 2
    pts.append(r_max)
    pts = sorted({p for p in pts if eps <= p <= r_max})
    return np.asarray(pts)


def _j_at_eps(pair, eps, r_max, order):
    """The reduced double integral with both exclusion cuts at eps, with
    the integrand evaluations it made and how many of them were padding:
    each outer panel's `order` r nodes are padded to their largest inner
    panel count M, so the panel evaluates order * M * order points.
    Returns (value, evaluations, padded)."""
    nodes, weights = _gl_nodes(order)
    edges = _outer_breakpoints(eps, r_max)
    total = 0.0
    counts = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        w = hi - lo
        r = lo + w * nodes
        inner, m = _inner_integral(r, pair.mu, eps, order)
        total += float(np.sum(weights * inner / (r * r))) * w
        counts.append(m)
    counts = np.array(counts)
    evaluations = int(counts.max(axis=1).sum()) * order * order
    padded = evaluations - int(counts.sum()) * order
    return pair.q * pair.g / 8.0 * total, evaluations, padded


def _tail(pair, r_max):
    """(exact mu=0 tail, bound for mu>0 tail) beyond r_max."""
    q, g, mu = pair.q, pair.g, pair.mu
    if mu == 0.0:
        return 2.0 * (q * g) / (3.0 * r_max), 0.0
    # inner integral is bounded by (16/3) (1 + mu*(r-1)) e^{-mu*(r-1)}
    u = float(_screening_argument(mu, r_max - 1.0))
    bound = abs(q * g) / 8.0 * (16.0 / 3.0) / r_max**2 \
        * math.exp(-u) * ((1.0 + u) / mu + 1.0 / mu)
    return 0.0, bound


def _neville_at_zero(x, vals):
    """Neville table through the points (x[i], vals[i]), evaluated at x = 0.

    Returns (value, error): the last corner of the table and its distance
    from the previous one. Needs at least two points.
    """
    tab = list(vals)
    levels = len(tab)
    prev, cur = None, tab[-1]
    for m in range(1, levels):
        for i in range(levels - m):
            tab[i] = (tab[i + 1] * x[i] - tab[i] * x[i + m]) / (x[i] - x[i + m])
        prev, cur = cur, tab[0]
    return cur, abs(cur - prev)


def _unit_pair(pair):
    """The pair J is evaluated on: J(d, mu) = J(1, mu*d), and a mu*d past
    the largest float screens J to 0 as the largest float does."""
    return replace(pair, d=1.0, mu=min(pair.mu * pair.d, sys.float_info.max))


def field_angular_momentum(pair, quad=None):
    """Axial field angular momentum of the pair, with an error estimate.

    Returns AngularMomentum(value, error, stats). Orientation: value ->
    +q*g as mu -> 0 (component along the charge-to-pole direction). Raises
    ConvergenceError (carrying the best estimate and the stats) unless the
    combined quadrature, extrapolation, and tail errors are within
    target_tol relative to |q*g|, and also past the mu*d the spec resolves
    (QuadratureSpec.resolved_mu_d), unless J's bound 2*|q*g|/(mu*d)^2
    rounds to 0 there. The stats' error terms, like value, are absolute.
    """
    quad = quad if quad is not None else QuadratureSpec()
    pair = _unit_pair(pair)
    r_max = R_MAX0
    scale = abs(pair.q * pair.g)
    if scale == 0.0:
        return AngularMomentum(0.0, 0.0)

    # push r_max out until the mu>0 envelope bound is negligible; one still
    # above that at _R_MAX_LAST stays in the error, and the call fails
    tail_value, tail_bound = _tail(pair, r_max)
    pushes = 0
    while (tail_bound > 0.1 * quad.target_tol * scale
           and r_max <= _R_MAX_LAST):
        r_max *= 1.5
        pushes += 1
        tail_value, tail_bound = _tail(pair, r_max)

    eps_list = [EPS0 / 2**k for k in range(quad.levels)]
    runs = [_j_at_eps(pair, e, r_max, quad.gl_order) for e in eps_list]
    vals = np.array([value for value, _, _ in runs])

    # Richardson in eps^2 toward eps = 0
    extrapolated, err_extrap = _neville_at_zero(np.array(eps_list) ** 2, vals)

    # quadrature error: repeat the finest-eps evaluation at half the GL order
    runs.append(_j_at_eps(pair, eps_list[-1], r_max, quad.gl_order // 2))
    err_quad = abs(vals[-1] - runs[-1][0])

    stats = QuadratureStats(sum(run[1] for run in runs),
                            sum(run[2] for run in runs), pushes,
                            float(err_extrap), float(err_quad), tail_bound)
    value = extrapolated + tail_value
    error = err_extrap + err_quad + tail_bound
    limit = quad.resolved_mu_d
    if pair.mu > limit and 2.0 * scale / pair.mu / pair.mu > 0.0:
        reason = (f"mu*d = {pair.mu:g} is past {limit:g}, the largest this "
                  "quadrature resolves")
    elif not error <= quad.target_tol * scale:
        reason = "angular-momentum quadrature did not reach target tolerance"
    else:
        return AngularMomentum(value, error, stats)
    raise ConvergenceError(reason, best=value, error=error,
                           history=list(vals), stats=stats)


def angular_momentum_sweep(q, g, mu_list, d_list, quad=None):
    """J over the (mu, d) grid; per-cell convergence failures are recorded,
    not raised. Returns a list of SweepCell in row-major (mu outer) order.
    Each distinct unit pair, i.e. each distinct mu*d, is computed once; a
    later cell with the same unit pair copies its result, failure included,
    and is marked reused."""
    mu_list = list(mu_list)
    d_list = list(d_list)
    if not mu_list or not d_list:
        raise DomainError("sweep needs at least one mu and one d")
    done = {}
    cells = []
    for mu in mu_list:
        for d in d_list:
            pair = PairConfig(q=q, g=g, d=d, mu=mu)
            key = _unit_pair(pair)
            reused = key in done
            if not reused:
                try:
                    res = field_angular_momentum(pair, quad)
                    done[key] = (res.value, res.error, True, res.stats)
                except ConvergenceError as exc:
                    done[key] = (exc.best, exc.error, False, exc.stats)
            cells.append(SweepCell(mu, d, *done[key], reused))
    return cells

"""Field angular momentum of the charge/pole pair.

The oracle here never touches the module's two-center reduction: it
integrates the raw momentum density rho * p_phi over prolate-spheroidal
coordinates with foci at the pole (origin) and the charge (0,0,d),
substituted as xi = cosh u, eta = cos v to keep the integrand smooth at the
focal axis. Expected values frozen below were produced by this oracle and
cross-checked against the closed form 2*(1-(1+x)*exp(-x))/x^2 in x = mu*d,
which the reduced radial integral evaluates to.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import polelab.angmom as angmom
from polelab.angmom import (
    EPS0,
    MAX_GL_ORDER,
    MAX_LEVELS,
    R_MAX0,
    AngularMomentum,
    PairConfig,
    QuadratureSpec,
    _gl_nodes,
    _inner_integral,
    _outer_breakpoints,
    angular_momentum_sweep,
    field_angular_momentum,
    field_momentum_density,
)
from polelab.errors import ConvergenceError, DomainError, SingularPointError
from polelab.fields import _SCREENING_CLAMP


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def _gl(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def raw_axial_angular_momentum(pair, eps_frac=5e-4, order_v=40, order_u=20,
                               du=0.4, xi_max_massless=2.7e6):
    """J in the module's orientation, from the raw density on an (u, v) grid.

    Exclusion half-planes r1, r2 >= eps_frac*d bias the value by O(eps^2);
    the massless tail beyond xi_max adds ~4/(3*xi_max) relative. Both sit
    near 1e-6 at the defaults, well under the comparison tolerances used.
    """
    d, mu = pair.d, pair.mu
    w = 2.0 * eps_frac
    vstar = math.acos(1.0 - w)
    v_edges = np.array([0.0, vstar, np.pi / 4, np.pi / 2, 3 * np.pi / 4,
                        np.pi - vstar, np.pi])
    nv, wv = _gl(order_v)
    nu, wu = _gl(order_u)

    if mu > 0:
        xi_max = 1.0 + 2.0 * 45.0 / (mu * d)   # exp(-45) kills the rest
    else:
        xi_max = xi_max_massless
    u_max = float(np.arccosh(xi_max))

    total = 0.0
    for v_lo, v_hi in zip(v_edges[:-1], v_edges[1:]):
        v = v_lo + (v_hi - v_lo) * nv
        wv_scaled = wv * (v_hi - v_lo)
        eta = np.cos(v)
        u0 = np.arccosh(np.maximum(1.0, w + np.abs(eta)))
        for iv in range(v.size):
            n_panels = max(2, int(math.ceil((u_max - u0[iv]) / du)))
            edges = np.linspace(u0[iv], u_max, n_panels + 1)
            widths = np.diff(edges)
            u = (edges[:-1, None] + widths[:, None] * nu[None, :]).ravel()
            uw = (widths[:, None] * wu[None, :]).ravel()
            ch, sh = np.cosh(u), np.sinh(u)
            rho = 0.5 * d * sh * math.sin(v[iv])
            z = 0.5 * d * (1.0 + ch * eta[iv])
            pts = np.stack([rho, np.zeros_like(rho), z], axis=-1)
            p = field_momentum_density(pair, pts)
            f = rho * p[:, 1] * (ch * ch - eta[iv] ** 2) * sh * math.sin(v[iv])
            total += wv_scaled[iv] * float(np.sum(f * uw))
    # density is azimuthal; the reported component is charge-to-pole (-z)
    return -2.0 * np.pi * (0.5 * d) ** 3 * total


def inner_integral_by_node(r_nodes, mu, s_floor, order):
    """The inner integral of the unit pair one r node at a time, each on its
    own m geometric panels: the reference for the module's padded block."""
    nodes, weights = _gl(order)
    mu = min(mu, _SCREENING_CLAMP / s_floor)
    out = np.zeros_like(r_nodes)
    for idx, r in enumerate(r_nodes):
        a = abs(r - 1.0)
        b = r + 1.0
        lo = max(a, s_floor)
        if lo >= b:
            continue
        m = max(1, int(math.ceil(math.log2(b / lo))))
        edges = lo * (b / lo) ** (np.arange(m + 1) / m)
        edges[-1] = b
        widths = np.diff(edges)
        s = edges[:-1, None] + widths[:, None] * nodes[None, :]
        f = (s * s - a * a) * (b * b - s * s) * (1.0 + mu * s) \
            * np.exp(-mu * s) / (s * s)
        out[idx] = float(np.sum(f * weights[None, :] * widths[:, None]))
    return out


def inner_integral_one_line(r_nodes, mu, s_floor, order):
    """The padded block with its integrand as one expression, as the module
    wrote it before the in-place passes: the bitwise reference for them."""
    nodes, weights = _gl_nodes(order)
    mu = min(mu, _SCREENING_CLAMP / s_floor)
    a, b, lo, counts = angmom._inner_panels(r_nodes, s_floor)
    j = np.arange(counts.max() + 1)
    m, a, b, lo = counts[:, None], a[:, None], b[:, None], lo[:, None]
    edges = np.where(j < m, lo * (b / lo) ** (j / np.maximum(m, 1)), b)
    widths = np.diff(edges, axis=1)
    s = edges[:, :-1, None] + widths[:, :, None] * nodes
    a, b = a[:, :, None], b[:, :, None]
    f = (s * s - a * a) * (b * b - s * s) * (1.0 + mu * s) \
        * np.exp(-mu * s) / (s * s)
    inner = f * weights * widths[:, :, None]
    return inner.reshape(len(m), -1).sum(axis=1)


def inner_panel_counts(r_nodes, s_floor):
    """Each node's inner panel count m on the unit pair, 0 where its s range
    is empty."""
    counts = []
    for r in r_nodes:
        lo, b = max(abs(r - 1.0), s_floor), r + 1.0
        counts.append(max(1, int(math.ceil(math.log2(b / lo))))
                      if lo < b else 0)
    return counts


def closed_form_ratio(x):
    """J / (q*g) = 2 (1 - (1 + x) e^{-x}) / x^2 at x = mu*d; below x = 1e-3,
    where that form cancels, its series."""
    if x < 1e-3:
        return 1.0 - 2.0 * x / 3.0 + x * x / 4.0 - x**3 / 15.0
    return 2.0 * (-math.expm1(-x) - x * math.exp(-x)) / (x * x)


# ---------------------------------------------------------------------------
# momentum density
# ---------------------------------------------------------------------------

def test_density_closed_form_point():
    pair = PairConfig(q=1.0, g=1.0, d=1.0, mu=0.0)
    p = field_momentum_density(pair, (1.0, 0.0, 0.0))
    # E = (1,0,-1)/(2 sqrt 2), B = (1,0,0); (E x B)/(4 pi) = -y_hat/(8 sqrt 2 pi)
    expected = -1.0 / (8.0 * math.sqrt(2.0) * math.pi)
    assert_allclose(p, [0.0, expected, 0.0], rtol=1e-14, atol=0.0)
    assert_allclose(p[1], -0.028134884879909564, rtol=1e-15)


def test_density_axis_and_plane_structure():
    pair = PairConfig(q=1.0, g=0.5, d=1.0, mu=0.3)
    on_axis = field_momentum_density(pair, [(0.0, 0.0, 0.4),
                                            (0.0, 0.0, -2.0),
                                            (0.0, 0.0, 5.0)])
    assert np.all(on_axis == 0.0)
    # in the y=0 plane the density is purely azimuthal, i.e. pure y
    pts = np.array([(1.0, 0.0, 0.3), (0.4, 0.0, -1.0), (2.0, 0.0, 2.0)])
    p = field_momentum_density(pair, pts)
    assert np.all(p[:, 0] == 0.0) and np.all(p[:, 2] == 0.0)
    # rotating a point by pi about the axis flips the cartesian component
    mirrored = field_momentum_density(pair, pts * [-1.0, 1.0, 1.0])
    assert_allclose(mirrored[:, 1], -p[:, 1], rtol=1e-14)


def test_density_singular_points():
    pair = PairConfig(q=1.0, g=0.5, d=1.0)
    with pytest.raises(SingularPointError):
        field_momentum_density(pair, (0.0, 0.0, 0.0))
    with pytest.raises(SingularPointError):
        field_momentum_density(pair, pair.charge_position)


def test_zero_coupling_shortcuts():
    no_q = PairConfig(q=0.0, g=0.7, d=1.0, mu=0.2)
    assert np.all(field_momentum_density(no_q, (0.3, 0.2, 0.9)) == 0.0)
    assert field_angular_momentum(no_q) == AngularMomentum(0.0, 0.0)
    no_g = PairConfig(q=0.7, g=0.0, d=1.0)
    assert field_angular_momentum(no_g) == AngularMomentum(0.0, 0.0)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_pair_config_validation():
    with pytest.raises(DomainError):
        PairConfig(q=1.0, g=1.0, d=0.0)
    with pytest.raises(DomainError):
        PairConfig(q=1.0, g=1.0, d=-2.0)
    with pytest.raises(DomainError):
        PairConfig(q=1.0, g=1.0, d=1.0, mu=-0.1)
    with pytest.raises(DomainError):
        PairConfig(q=float("nan"), g=1.0, d=1.0)
    assert_allclose(PairConfig(q=1.0, g=1.0, d=2.5).charge_position,
                    [0.0, 0.0, 2.5])


def test_quadrature_spec_validation():
    bad = [
        dict(levels=1),
        dict(levels=MAX_LEVELS + 1),
        dict(levels=1000000),
        dict(gl_order=2),
        dict(target_tol=0.0),
    ]
    for kwargs in bad:
        with pytest.raises(DomainError):
            QuadratureSpec(**kwargs)
    assert QuadratureSpec(levels=MAX_LEVELS).levels == MAX_LEVELS
    # the unit pair's exclusion radius d/64 and cutoff 50 d
    assert (EPS0, R_MAX0) == (1.0 / 64.0, 50.0)


# ---------------------------------------------------------------------------
# values: oracle, closed form, frozen pins
# ---------------------------------------------------------------------------

def test_oracle_agreement_massive():
    pair = PairConfig(q=1.0, g=0.5, d=1.0, mu=1.0)
    oracle = raw_axial_angular_momentum(pair)
    module = field_angular_momentum(pair)
    assert_allclose(module.value, oracle, rtol=5e-6)
    assert_allclose(module.value, 0.26424111765691577, rtol=1e-9)
    assert module.error < 1e-5 * 0.5


def test_oracle_agreement_massless():
    pair = PairConfig(q=1.0, g=0.5, d=1.0, mu=0.0)
    oracle = raw_axial_angular_momentum(pair)
    # oracle carries its own ~7e-7 exclusion + tail bias; the module hits
    # q*g to rounding because its tail is added in closed form
    assert_allclose(oracle, 0.5, rtol=2e-6)
    module = field_angular_momentum(pair)
    assert abs(module.value - 0.5) < 1e-12


def test_closed_form_cross_check():
    for mu, d in [(0.25, 1.0), (1.0, 1.0), (1.0, 4.0)]:
        pair = PairConfig(q=1.0, g=0.5, d=d, mu=mu)
        module = field_angular_momentum(pair)
        assert_allclose(module.value, 0.5 * closed_form_ratio(mu * d),
                        rtol=1e-6)
    assert_allclose(field_angular_momentum(
        PairConfig(q=1.0, g=0.5, d=4.0, mu=1.0)).value,
        0.05677636283478931, rtol=1e-9)


@pytest.mark.parametrize("spec, converged", [
    (QuadratureSpec(), 65),
    (QuadratureSpec(levels=2, gl_order=8, target_tol=1e-3), 62),
    (QuadratureSpec(levels=4, gl_order=8, target_tol=1e-3), 65),
    (QuadratureSpec(levels=5, gl_order=8), 50),
    (QuadratureSpec(levels=6, gl_order=12, target_tol=1e-4), 65),
], ids=["default", "levels-2-gl-8", "levels-4-gl-8-tol-1e-3", "levels-5-gl-8",
        "levels-6-gl-12-tol-1e-4"])
def test_converged_cells_hold_the_closed_form(spec, converged):
    # a cell reported converged is within its error of the closed form, and
    # that error within the tolerance, on 109 log-spaced mu*d in [1e-3, 1e6];
    # the cells that converge, all those up to mu*d = 215 but the levels-5
    # spec's (up to 12), are counted, so no spec passes by converging
    # nowhere. Levels 4 to 6 resolved mu*d up to 512, 1024 and 2048 before,
    # and converged cells from mu*d = 316 on missed the closed form. Specs
    # of 6 or more levels at gl_order 24 or more stay out: there err can
    # fall below the rounding of the value (at 8 levels and gl_order 24, an
    # err of 1.3e-16 against a miss of 2.2e-16 at mu*d = 0.65)
    mu_d = np.geomspace(1e-3, 1e6, 109)
    cells = angular_momentum_sweep(1.0, 0.5, mu_d, [1.0], quad=spec)
    assert sum(c.converged for c in cells) >= converged
    for c in cells:
        if c.converged:
            exact = 0.5 * closed_form_ratio(c.mu)
            assert abs(c.value - exact) <= c.error <= spec.target_tol * 0.5, \
                c.mu


def test_massless_value_independent_of_separation():
    values = []
    for d in (0.5, 1.0, 2.0, 4.0):
        res = field_angular_momentum(PairConfig(q=1.0, g=0.5, d=d, mu=0.0))
        assert abs(res.value - 0.5) <= 1e-3 * 0.5
        values.append(res.value)
    assert np.ptp(values) < 1e-9


def test_mu_d_scaling():
    # J depends on mu and d only through mu*d; these three pairs share the
    # unit pair mu*d = 4 exactly
    a = field_angular_momentum(PairConfig(q=1.0, g=0.5, d=4.0, mu=1.0)).value
    b = field_angular_momentum(PairConfig(q=1.0, g=0.5, d=2.0, mu=2.0)).value
    c = field_angular_momentum(PairConfig(q=1.0, g=0.5, d=1.0, mu=4.0)).value
    assert a == b == c
    d3 = field_angular_momentum(
        PairConfig(q=1.0, g=0.5, d=4.0 / 3.0, mu=3.0)).value
    assert_allclose(d3, a, rtol=1e-9)


def _outcome(pair, spec=None):
    """field_angular_momentum's result, or its ConvergenceError's contents."""
    try:
        return tuple(field_angular_momentum(pair, spec))
    except ConvergenceError as exc:
        return (str(exc), exc.best, exc.error, exc.history, exc.stats)


def test_pair_is_evaluated_as_its_unit_pair():
    # J(d, mu) = J(1, mu*d) exactly: value, error and stats, or under a
    # spec that fails, the ConvergenceError's contents; d need not be a
    # power of two
    failing = QuadratureSpec(levels=2, gl_order=8, target_tol=1e-12)
    failures = 0
    for d in (3.0, 4.0 / 3.0, 1e-3, 123.0):
        for mu in (0.0, 0.7, 40.0):
            pair = PairConfig(q=1.0, g=0.5, d=d, mu=mu)
            unit = PairConfig(q=1.0, g=0.5, d=1.0, mu=mu * d)
            assert _outcome(pair) == _outcome(unit), (d, mu)
            failed = _outcome(pair, failing)
            assert failed == _outcome(unit, failing), (d, mu)
            failures += isinstance(failed[0], str)
    # all 12, mu*d = 4920 too: it lies past the 128 this spec resolves
    assert failures == 12


@pytest.mark.parametrize("d, mu, eps_frac, order", [
    (1.0, 0.0, 1 / 64, 24),
    (1.0, 1.0, 1 / 256, 24),
    (3.0, 0.7, 1 / 128, 12),
    (0.25, 40.0, 1 / 64, 40),
    (1.0, 0.3, 1 / 64, MAX_GL_ORDER),
])
def test_inner_block_matches_node_by_node(d, mu, eps_frac, order):
    # on the unit pair of (d, mu), i.e. mu*d, with eps = eps_frac: the GL r
    # nodes of every outer panel, as _j_at_eps hands them over, plus r = 1
    # (a = 0, so lo = eps); calls beyond r = 3 have m = 1 on every node,
    # calls near r = 1 mix m = 1 with m up to log2(2/eps)
    mu, eps = mu * d, eps_frac
    outer = _outer_breakpoints(eps, R_MAX0)
    x, _ = _gl(order)
    panels = [lo + (hi - lo) * x for lo, hi in zip(outer[:-1], outer[1:])]
    mixed = 0
    for r in panels + [np.array([1.0]), np.array([0.5, 1.0, 1.5])]:
        counts = inner_panel_counts(r, eps)
        mixed += len(set(counts)) > 1
        values, m = _inner_integral(r, mu, eps, order)
        assert_allclose(values, inner_integral_by_node(r, mu, eps, order),
                        rtol=1e-14, atol=0.0)
        assert m.tolist() == counts
    assert mixed > 0
    assert inner_panel_counts(panels[-1], eps) == [1] * order


def test_inner_block_edge_cases():
    x, _ = _gl(24)
    r = np.array([0.2, 0.5, 1.0, 2.0, 6.0, 60.0])
    # lo >= b: with s_floor >= r + d a node has nothing to integrate and
    # gives exactly 0, next to nodes that do
    floor = 2.5
    out = _inner_integral(r, 0.5, floor, 24)[0]
    assert inner_panel_counts(r, floor)[:3] == [0, 0, 0]
    assert np.all(out[:3] == 0.0) and np.all(out[3:] > 0.0)
    assert_allclose(out, inner_integral_by_node(r, 0.5, floor, 24),
                    rtol=1e-14, atol=0.0)
    assert np.all(_inner_integral(np.array([0.1, 0.2]), 0.0, 5.0, 8)[0]
                  == 0.0)
    # mu at the _SCREENING_CLAMP cap and past it: both weights clamp alike
    eps = EPS0
    for mu in (_SCREENING_CLAMP / eps, 1e300):
        assert_allclose(_inner_integral(r, mu, eps, 24)[0],
                        inner_integral_by_node(r, mu, eps, 24),
                        rtol=1e-14, atol=0.0)
    # mu = 0 on the far nodes: the exact (16/3) d^3 multipole value, d = 1
    assert_allclose(_inner_integral(r[3:], 0.0, eps, 24)[0], 16.0 / 3.0,
                    rtol=1e-12)


@pytest.mark.parametrize("mu", [0.0, 0.7, _SCREENING_CLAMP * 64.0, 1e300])
@pytest.mark.parametrize("d, order", [(1.0, 24), (3.0, 12)])
def test_inner_integral_matches_one_line_reference(d, mu, order):
    # on the unit pair of (d, mu), i.e. mu*d, every outer panel's r nodes
    # as _j_at_eps hands them over, at the first level's eps = 1/64;
    # 64 * _SCREENING_CLAMP sits exactly at the cap for d = 1 and past it
    # for d = 3, and 1e300 is past it for both
    mu = mu * d
    outer = _outer_breakpoints(EPS0, R_MAX0)
    x, _ = _gl(order)
    for lo, hi in zip(outer[:-1], outer[1:]):
        r = lo + (hi - lo) * x
        values = _inner_integral(r, mu, EPS0, order)[0]
        assert np.array_equal(
            values, inner_integral_one_line(r, mu, EPS0, order)), (lo, hi)


def test_bilinearity_in_couplings():
    base = field_angular_momentum(PairConfig(q=1.0, g=0.5, d=1.0, mu=1.0))
    swapped = field_angular_momentum(PairConfig(q=2.0, g=0.25, d=1.0, mu=1.0))
    doubled = field_angular_momentum(PairConfig(q=2.0, g=0.5, d=1.0, mu=1.0))
    assert swapped.value == base.value
    assert_allclose(doubled.value, 2.0 * base.value, rtol=1e-15)


def test_decline_with_separation_and_mass():
    by_d = [field_angular_momentum(
        PairConfig(q=1.0, g=0.5, d=d, mu=1.0)).value for d in (1, 2, 4, 8)]
    assert all(x > y > 0 for x, y in zip(by_d[:-1], by_d[1:]))
    by_mu = [field_angular_momentum(
        PairConfig(q=1.0, g=0.5, d=2.0, mu=m)).value for m in (0.5, 1.0, 2.0)]
    assert all(x > y > 0 for x, y in zip(by_mu[:-1], by_mu[1:]))


def test_massless_limit_continuous():
    for x in (0.1, 0.01):
        res = field_angular_momentum(PairConfig(q=1.0, g=0.5, d=1.0, mu=x))
        ratio = res.value / 0.5
        # f(x) = 1 - 2x/3 + x^2/4 - ...
        assert abs(ratio - (1.0 - 2.0 * x / 3.0)) < 0.3 * x * x


# ---------------------------------------------------------------------------
# convergence reporting
# ---------------------------------------------------------------------------

def test_unreachable_tolerance_raises_with_best():
    pair = PairConfig(q=1.0, g=0.5, d=1.0, mu=1.0)
    spec = QuadratureSpec(levels=2, gl_order=8, target_tol=1e-12)
    with pytest.raises(ConvergenceError) as exc_info:
        field_angular_momentum(pair, spec)
    err = exc_info.value
    assert err.best is not None and abs(err.best - 0.2642411) < 1e-3
    assert err.error > 1e-12 * 0.5
    assert len(err.history) == 2


def test_sweep_records_failures_instead_of_raising():
    spec = QuadratureSpec(levels=2, gl_order=8, target_tol=1e-12)
    cells = angular_momentum_sweep(1.0, 0.5, [1.0], [1.0, 2.0], quad=spec)
    assert len(cells) == 2
    assert all(not c.converged for c in cells)
    assert all(np.isfinite(c.value) and c.error > 0 for c in cells)
    assert all(c.stats.evaluations > 0 for c in cells)


def test_sweep_computes_each_unit_pair_once(monkeypatch):
    # mu*d over the grid is 0, 0, 0.5, 1, 1, 2: four distinct unit pairs
    calls = []
    direct = angmom.field_angular_momentum

    def counting(pair, quad=None):
        calls.append(pair)
        return direct(pair, quad)

    monkeypatch.setattr(angmom, "field_angular_momentum", counting)
    cells = angular_momentum_sweep(1.0, 0.5, [0.0, 0.5, 1.0], [1.0, 2.0])
    assert len(calls) == 4
    assert [(c.mu, c.d) for c in cells] == [
        (0.0, 1.0), (0.0, 2.0), (0.5, 1.0), (0.5, 2.0), (1.0, 1.0),
        (1.0, 2.0)]
    assert [c.reused for c in cells] == [False, True, False, False, True,
                                         False]
    for c in cells:
        res = direct(PairConfig(q=1.0, g=0.5, d=c.d, mu=c.mu))
        assert (c.value, c.error, c.stats) == tuple(res)
        assert c.converged


def test_sweep_reuses_failures():
    # the failing spec of test_sweep_records_failures_instead_of_raising;
    # mu*d = 1 twice, so the second cell copies the first cell's failure
    spec = QuadratureSpec(levels=2, gl_order=8, target_tol=1e-12)
    cells = angular_momentum_sweep(1.0, 0.5, [1.0, 2.0], [1.0, 0.5],
                                   quad=spec)
    assert [c.reused for c in cells] == [False, False, False, True]
    with pytest.raises(ConvergenceError) as exc_info:
        field_angular_momentum(PairConfig(q=1.0, g=0.5, d=0.5, mu=2.0), spec)
    err = exc_info.value
    for c in (cells[0], cells[3]):
        assert not c.converged
        assert (c.value, c.error, c.stats) == (err.best, err.error,
                                               err.stats)


@pytest.mark.parametrize("mu, spec", [
    (0.0, QuadratureSpec()),
    (1.0, QuadratureSpec()),
    (0.005, QuadratureSpec(levels=4, gl_order=10, target_tol=1e-7)),
    (1.0, QuadratureSpec(levels=2, gl_order=8, target_tol=1e-12)),
])
def test_stats_count_what_the_quadrature_did(monkeypatch, mu, spec):
    # count every inner call as the padded block evaluates it: each node
    # padded to the call's largest panel count, order points per panel
    seen = {"total": 0, "real": 0}
    inner = angmom._inner_integral

    def counting(r_nodes, mu, s_floor, order):
        counts = inner_panel_counts(r_nodes, s_floor)
        seen["total"] += len(counts) * max(counts) * order
        seen["real"] += sum(counts) * order
        return inner(r_nodes, mu, s_floor, order)

    monkeypatch.setattr(angmom, "_inner_integral", counting)
    pair = PairConfig(q=1.0, g=0.5, d=2.0, mu=mu)
    try:
        res = field_angular_momentum(pair, spec)
        stats, error = res.stats, res.error
    except ConvergenceError as exc:
        stats, error = exc.stats, exc.error
    assert stats.evaluations == seen["total"]
    assert stats.padded == seen["total"] - seen["real"]
    assert 0 < stats.padded < stats.evaluations
    budget = stats.err_extrapolation + stats.err_quadrature + stats.err_tail
    assert budget == error
    # mu = 0 has its tail in closed form; mu > 0 pushes r_max out until the
    # envelope bound is below a tenth of the target, which a mu*d of 0.01
    # needs at r_max = 50 d and a mu*d of 2 does not
    assert (stats.err_tail == 0.0) == (mu == 0.0)
    assert (stats.r_max_pushes > 0) == (mu * pair.d == 0.01)
    assert stats.err_tail <= 0.1 * spec.target_tol * 0.5


def test_r_max_push_stops_before_its_square_overflows():
    # mu*d = 1e-302 still pushes its envelope bound below the target, 865
    # pushes out; a smaller mu*d stops there with the bound in its error
    # (inf once 2/mu overflows) instead of raising OverflowError
    res = field_angular_momentum(PairConfig(q=1.0, g=0.5, d=1.0, mu=1e-302))
    assert res.stats.r_max_pushes == 865 and abs(res.value - 0.5) < 1e-12
    for mu in (1e-305, 5e-324):
        with pytest.raises(ConvergenceError) as exc_info:
            field_angular_momentum(PairConfig(q=1.0, g=0.5, d=1.0, mu=mu))
        err = exc_info.value
        assert err.stats.r_max_pushes == 865
        assert abs(err.best - 0.5) < 1e-12 and err.error > 1e-5 * 0.5


def test_gl_order_is_bounded():
    # from order 8 on the half-order rule of the error estimate, order // 2,
    # has at least 4 points and is never the rule itself
    assert QuadratureSpec(gl_order=MAX_GL_ORDER).gl_order == MAX_GL_ORDER
    assert QuadratureSpec(gl_order=8).gl_order == 8
    for order in (4, 5, 6, 7, MAX_GL_ORDER + 1, 100000):
        with pytest.raises(DomainError, match="gl_order"):
            QuadratureSpec(gl_order=order)


def test_sweep_structure_and_order():
    cells = angular_momentum_sweep(1.0, 0.5, [0.0, 1.0], [1.0, 2.0])
    assert [(c.mu, c.d) for c in cells] == [(0.0, 1.0), (0.0, 2.0),
                                            (1.0, 1.0), (1.0, 2.0)]
    assert all(c.converged for c in cells)
    direct = field_angular_momentum(PairConfig(q=1.0, g=0.5, d=2.0, mu=1.0))
    assert cells[3].value == direct.value


def test_sweep_rejects_empty_axes():
    with pytest.raises(DomainError):
        angular_momentum_sweep(1.0, 0.5, [], [1.0])
    with pytest.raises(DomainError):
        angular_momentum_sweep(1.0, 0.5, [0.0], [])

"""Gauge-sector checks: transition function, the winding predicate in its
three equivalent forms, loop holonomy, and the covariant-derivative residual.

Independent machinery: dense-polyline trapezoid line integrals (no shared
code with the Gauss-Legendre panels under test) and closed-form cap fluxes,
on caps about the z axis and about tilted axes.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from polelab.errors import DomainError, SingularPointError
from polelab.fields import TubeSpec, as_vec3, tube_potential, wu_yang_potential
import polelab.gauge as gauge
from polelab.gauge import (
    MAX_NODES,
    OVERLAP_BAND,
    LoopPath,
    cap_flux,
    check_quantization,
    circle_flux,
    circle_loop,
    line_integral,
    loop_holonomy,
    patch_mismatch,
    string_invisibility,
    transition_function,
)

RNG = np.random.default_rng(7)


def polar_circle(r, theta, n=64):
    """Circle of constant polar angle theta on the sphere of radius r."""
    if not 0 < theta < np.pi:
        raise DomainError("polar circle needs 0 < theta < pi")
    return circle_loop(r * np.sin(theta), z=r * np.cos(theta), n=n)


def rectangle_loop(x0, x1, y0, y1, z=0.0):
    verts = np.array([
        [x0, y0, z], [x1, y0, z], [x1, y1, z], [x0, y1, z], [x0, y0, z]
    ], dtype=float)
    return LoopPath(verts)


def dense_trapezoid_flux(potential, loop, refine=64):
    """Trapezoid rule on a refined copy of the polyline; kept deliberately
    different from the panel quadrature inside line_integral."""
    verts = loop.vertices
    total = 0.0
    for a, b in zip(verts[:-1], verts[1:]):
        ts = np.linspace(0.0, 1.0, refine + 1)[:, None]
        pts = a + ts * (b - a)
        vals = potential(pts)
        dl = (b - a) / refine
        seg = np.sum((0.5 * (vals[1:] + vals[:-1])) * dl)
        total += seg
    return total


# ---------------------------------------------------------------------------
# transition function and the single predicate
# ---------------------------------------------------------------------------

def test_transition_function_values():
    assert_allclose(transition_function(1.0, 0.5, np.pi), -1.0, atol=1e-15)
    assert_allclose(transition_function(1.0, 0.5, 2 * np.pi), 1.0, atol=1e-12)
    off = transition_function(1.0, 0.3, 2 * np.pi)
    assert abs(off - 1.0) > 0.5   # e^{i 1.2 pi} is far from closing


def test_quantization_report_contents():
    rep = check_quantization(1.0, 0.5)
    assert rep.satisfied and rep.n_nearest == 1 and rep.residual == 0.0
    rep2 = check_quantization(2.0, 0.25)
    assert rep2.satisfied and rep2.n_nearest == 1
    rep3 = check_quantization(1.0, 0.3)
    assert not rep3.satisfied
    assert_allclose(rep3.n_real, 0.6, rtol=1e-15)
    d = rep3.to_dict()
    assert set(d) == {"n_real", "n_nearest", "residual", "satisfied"}


def test_string_invisibility_examples():
    assert string_invisibility(1.0, 0.5)
    assert not string_invisibility(1.0, 0.3)
    assert string_invisibility(0.0, 7.13)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(q=st.one_of(st.floats(-4, 4), _FINITE),
       g=st.one_of(st.floats(-4, 4), _FINITE))
# 2qg = 1e8, where one ulp of the full angle q*4*pi*g is 1.9e-8 turns
@example(q=1.0, g=5e7)
# 2*q alone overflows; 2*(q*g) is 1.9999999999999998
@example(q=1e308, g=1e-308)
@example(q=1e200, g=1e200)
def test_three_predicates_agree(q, g):
    tol = 1e-9
    try:
        resid = check_quantization(q, g, tol=tol).residual
    except DomainError:
        # 2*(q*g) is not finite, and all three refuse it
        with pytest.raises(DomainError):
            string_invisibility(q, g, tol=tol)
        with pytest.raises(DomainError):
            transition_function(q, g, 2 * np.pi)
        return
    # knife-edge inputs where the verdict flips inside one tolerance are
    # legitimate disagreement territory for the amplitude form; skip them
    assume(abs(resid - tol) > 1e-12)
    a = check_quantization(q, g, tol=tol).satisfied
    b = string_invisibility(q, g, tol=tol)
    c = abs(transition_function(q, g, 2 * np.pi) - 1.0) \
        <= 2.0 * math.sin(math.pi * tol)
    assert a == b == c


def test_predicates_on_knife_edge_lattice():
    for n in range(-6, 7):
        for wobble, ok in ((0.0, True), (1e-12, True), (1e-6, False)):
            g = 0.5 * (n + wobble)
            assert check_quantization(1.0, g).satisfied is ok
            assert string_invisibility(1.0, g) is ok


# ---------------------------------------------------------------------------
# patch mismatch
# ---------------------------------------------------------------------------

def test_patch_mismatch_is_the_gauge_gradient():
    # equator, r=1, g=1: magnitude (1-c)+(1+c) = 2
    m = patch_mismatch(1.0, (1.0, 0.0, 0.0))
    assert_allclose(m, [0.0, 2.0, 0.0], atol=1e-15)
    # in-band point off the equator: theta = pi/2 + 0.25, r = 2, g = 0.5
    theta, r = np.pi / 2 + 0.25, 2.0
    p = (r * math.sin(theta), 0.0, r * math.cos(theta))
    m = patch_mismatch(0.5, p)
    assert_allclose(np.linalg.norm(m), 0.5 / math.sin(theta), rtol=1e-13)
    assert_allclose(np.linalg.norm(m), 0.5160425119921928, rtol=1e-13)
    assert_allclose(patch_mismatch(0.0, (1.0, 0.2, 0.1)), 0.0, atol=0)


def test_patch_mismatch_random_band_points():
    lo, hi = OVERLAP_BAND
    for _ in range(200):
        theta = RNG.uniform(lo, hi)
        phi = RNG.uniform(0, 2 * np.pi)
        r = RNG.uniform(0.3, 4.0)
        g = RNG.uniform(-2.0, 2.0)
        p = r * np.array([math.sin(theta) * math.cos(phi),
                          math.sin(theta) * math.sin(phi),
                          math.cos(theta)])
        got = patch_mismatch(g, p)
        phat = np.array([-math.sin(phi), math.cos(phi), 0.0])
        want = (2.0 * g / (r * math.sin(theta))) * phat
        assert np.max(np.abs(got - want)) < 1e-10


def test_patch_mismatch_outside_band_rejected():
    with pytest.raises(DomainError):
        patch_mismatch(1.0, (0.1, 0.0, 1.0))     # near north pole
    with pytest.raises(DomainError):
        patch_mismatch(1.0, (0.05, 0.0, -2.0))


def test_patch_mismatch_curl_free():
    # a pure gradient has no curl; central differences on the band
    g = 0.7
    h = 1e-5
    for _ in range(20):
        theta = RNG.uniform(np.pi / 2 - 0.2, np.pi / 2 + 0.2)
        phi = RNG.uniform(0, 2 * np.pi)
        p = 1.5 * np.array([math.sin(theta) * math.cos(phi),
                            math.sin(theta) * math.sin(phi),
                            math.cos(theta)])
        curl = np.empty(3)
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            ej, ek = np.eye(3)[j], np.eye(3)[k]
            curl[i] = ((patch_mismatch(g, p + h * ej)[k]
                        - patch_mismatch(g, p - h * ej)[k])
                       - (patch_mismatch(g, p + h * ek)[j]
                          - patch_mismatch(g, p - h * ek)[j])) / (2 * h)
        assert np.max(np.abs(curl)) < 1e-6


# ---------------------------------------------------------------------------
# loops and holonomy
# ---------------------------------------------------------------------------

def test_loop_path_validation():
    with pytest.raises(DomainError):
        LoopPath(vertices=np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]]))
    square = np.array([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0],
                       [1, 0, 0]], dtype=float)
    loop = LoopPath(vertices=square)
    rev = LoopPath(vertices=square[::-1])
    spec = TubeSpec(g=0.5, R=10.0)
    fwd = line_integral(lambda r: tube_potential(spec, r), loop)[0]
    bwd = line_integral(lambda r: tube_potential(spec, r), rev)[0]
    assert_allclose(bwd, -fwd, rtol=0, atol=1e-14)


def test_line_integral_against_dense_trapezoid():
    g = 0.5
    loop = polar_circle(1.0, np.pi / 2, n=64)
    val, err = line_integral(lambda r: wu_yang_potential("north", g, r), loop)
    # trapezoid converges like 1/refine^2, so 1024 points per chord pins the
    # reference to ~1e-7 relative; good enough to catch sign or factor slips
    ref = dense_trapezoid_flux(lambda r: wu_yang_potential("north", g, r),
                               loop, refine=1024)
    assert err < 1e-10
    assert_allclose(val, ref, rtol=1e-6)


def test_equator_holonomy():
    g, q = 0.5, 1.0
    loop = polar_circle(1.0, np.pi / 2, n=512)
    phase, flux = loop_holonomy(
        lambda r: wu_yang_potential("north", g, r), loop, q)
    # polygon flux is slightly below the smooth-circle value 2 pi g (1-cos)
    assert_allclose(flux, np.pi, rtol=1e-4)
    assert_allclose(phase, np.exp(1j * flux), rtol=1e-12)


def test_tube_holonomy_quantized():
    spec = TubeSpec(g=0.5, R=1.0)
    loop = circle_loop(5.0, n=1024)
    phase, flux = loop_holonomy(lambda r: tube_potential(spec, r), loop, 1.0)
    assert_allclose(flux, 2 * np.pi, rtol=1e-5)
    assert abs(phase - 1.0) < 1e-4
    phase0, _ = loop_holonomy(lambda r: tube_potential(spec, r), loop, 0.0)
    assert phase0 == 1.0


def test_holonomy_additive_on_shared_edge():
    spec = TubeSpec(g=0.5, R=10.0)   # loops sit inside the uniform field
    left = rectangle_loop(-2.0, 0.0, -1.0, 1.0)
    right = rectangle_loop(0.0, 2.0, -1.0, 1.0)
    both = rectangle_loop(-2.0, 2.0, -1.0, 1.0)
    fl = line_integral(lambda r: tube_potential(spec, r), left)[0]
    fr = line_integral(lambda r: tube_potential(spec, r), right)[0]
    fb = line_integral(lambda r: tube_potential(spec, r), both)[0]
    assert_allclose(fl + fr, fb, rtol=0, atol=1e-12)
    # and the flux equals B * area exactly for the uniform interior
    assert_allclose(fb, spec.interior_field * 8.0, rtol=1e-12)


def test_circle_flux_hits_smooth_limit():
    spec = TubeSpec(g=0.5, R=1.0)
    flux, err = circle_flux(lambda r: tube_potential(spec, r), (0.0, 0.0, 0.0),
                            (5.0, 0.0, 0.0), (0.0, 5.0, 0.0))
    assert_allclose(flux, 2 * np.pi, rtol=1e-14)
    assert err < 1e-14


@pytest.mark.parametrize("theta, tilt", [(0.4, 0.7), (1.0, 1.2), (2.2, 0.5),
                                         (1.0, 2.5)])
def test_tilted_and_pierced_caps(theta, tilt):
    # a cap of opening theta on the unit sphere, about an axis tilted from +z:
    # A varies along its rim. Its flux is 2 pi g (1 - cos theta), less the
    # north patch's string flux 4 pi g when the cap holds the -z axis, as the
    # (1.0, 2.5) cap does
    g = 0.5
    axis = np.array([math.sin(tilt), 0.0, math.cos(tilt)])
    u = math.sin(theta) * np.array([math.cos(tilt), 0.0, -math.sin(tilt)])
    v = math.sin(theta) * np.array([0.0, 1.0, 0.0])   # u x v along the axis
    expected = 2 * np.pi * g * (1 - math.cos(theta))
    if math.pi - tilt < theta:
        expected -= 4 * np.pi * g
    for n0 in (32, 64, 128):
        flux, err = circle_flux(lambda r: wu_yang_potential("north", g, r),
                                math.cos(theta) * axis, u, v, n0=n0, levels=2)
        # geometric convergence: 2 n0 = 64 nodes or more reach rounding, and
        # the estimate bounds the error it reports on
        assert abs(flux - expected) < 1e-12
        assert abs(flux - expected) <= err + 1e-14


class _Built(Exception):
    pass


def test_finest_rule_is_bounded(monkeypatch):
    # refused before any node is built: no potential is evaluated, and the
    # sizes past int64 would fail in the shift or in numpy, not with the
    # refusal, had the node count been formed first. A finest rule of
    # exactly MAX_NODES nodes is evaluated
    seen = []

    def record(patch, g, r):
        seen.append(np.shape(r))
        raise _Built

    monkeypatch.setattr(gauge, "wu_yang_potential", record)
    for n0, levels in [(MAX_NODES // 2 + 1, 2), (64, 100000), (64, 10**18),
                       (10**30, 2), (10**30, 10**18)]:
        with pytest.raises(DomainError, match="at most"):
            cap_flux(0.5, 2.2, n0=n0, levels=levels)
    for n0, levels in [(2, 3), (64, 1), (-1, 3)]:
        with pytest.raises(DomainError, match="n0 >= 3 and levels >= 2"):
            cap_flux(0.5, 2.2, n0=n0, levels=levels)
    assert seen == []
    with pytest.raises(_Built):
        cap_flux(0.5, 2.2, n0=MAX_NODES // 4, levels=3)
    assert seen == [(MAX_NODES, 3)]


def test_cap_flux_formula():
    g = 0.5
    for theta in (0.4, 1.0, np.pi / 2, 2.2, 2.9):
        flux, _ = cap_flux(g, theta, r=2.0)
        assert abs(flux - 2 * np.pi * g * (1 - math.cos(theta))) < 1e-13
    for r, theta in [(0.0, 1.0), (-2.0, 1.0), (math.nan, 1.0), (1.0, 0.0),
                     (1.0, math.pi), (1.0, 3.5)]:
        with pytest.raises(DomainError, match="a cap needs"):
            cap_flux(g, theta, r=r)
    # the full-sphere limit approaches the total string flux 4 pi g
    near_full, _ = cap_flux(g, np.pi - 1e-3, r=1.0)
    assert abs(near_full - 4 * np.pi * g) < 4 * np.pi * g * 1e-3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cap_flux_of_a_huge_pole(monkeypatch):
    # 4 pi g = 1.26e308 is finite: each term of the rule takes its weight
    # before the sum, so the sum is the integral and does not overflow
    g, theta = 1e307, 2.2
    flux, err = cap_flux(g, theta)
    expected = 2 * np.pi * g * (1 - math.cos(theta))
    assert math.isfinite(flux) and abs(flux - expected) < 1e-8 * expected
    assert math.isfinite(err)
    # past that the string flux is not finite, and the rule never runs
    ran = []

    def record(*args, **kwargs):
        ran.append(args)
        raise _Built

    monkeypatch.setattr(gauge, "circle_flux", record)
    for g in (8e307, math.inf, math.nan):
        with pytest.raises(DomainError, match="4\\*pi\\*g"):
            cap_flux(g, theta)
    assert ran == []


def test_holonomy_gauge_invariant():
    spec = TubeSpec(g=0.5, R=1.0)

    def grad_lambda(r):
        # gradient of sin(x) cos(y) exp(-z^2): single-valued, smooth
        arr = np.asarray(r, dtype=float)
        x, y, z = arr[..., 0], arr[..., 1], arr[..., 2]
        e = np.exp(-z**2)
        out = np.empty_like(arr)
        out[..., 0] = np.cos(x) * np.cos(y) * e
        out[..., 1] = -np.sin(x) * np.sin(y) * e
        out[..., 2] = -2 * z * np.sin(x) * np.cos(y) * e
        return out

    loop = circle_loop(3.0, n=256)
    base = line_integral(lambda r: tube_potential(spec, r), loop)[0]
    shifted = line_integral(
        lambda r: tube_potential(spec, r) + grad_lambda(r), loop)[0]
    assert abs(base - shifted) < 1e-10


def test_loop_through_singular_axis_is_loud():
    loop = polar_circle(1.0, np.pi - 1e-12, n=8)
    with pytest.raises(SingularPointError):
        line_integral(lambda r: wu_yang_potential("north", 1.0, r), loop)


# ---------------------------------------------------------------------------
# covariant-derivative residual
# ---------------------------------------------------------------------------

def higgs_covariant_residual(q, gauge_fn, H0, points, h=1e-3):
    """max |(grad - i*q*grad(Lambda)) H| for H = H0 * e^{i*q*Lambda}.

    gauge_fn is the gauge scalar Lambda, callable on points of shape (..., 3);
    both gradients are central differences with step h, evaluated at each of
    the sample points. For any smooth Lambda the residual is O(h^2): the field
    H is covariantly constant when the potential is the gradient of the gauge
    function, no matter whether that gauge function is single-valued.
    """
    pts = as_vec3(points)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[0] == 0 or not np.isfinite(h) or h <= 0:
        raise DomainError("need a non-empty sample set and step h > 0")

    def H(p):
        return H0 * np.exp(1j * q * np.asarray(gauge_fn(p)))

    h_center = H(pts)
    res2 = np.zeros(pts.shape[0])
    for axis in range(3):
        step = np.zeros(3)
        step[axis] = h
        lam_p = np.asarray(gauge_fn(pts + step))
        lam_m = np.asarray(gauge_fn(pts - step))
        grad_h = (H(pts + step) - H(pts - step)) / (2.0 * h)
        grad_lam = (lam_p - lam_m) / (2.0 * h)
        res2 = res2 + np.abs(grad_h - 1j * q * grad_lam * h_center) ** 2
    return float(np.sqrt(np.max(res2)))


def _band_points(count, phi_lo=0.2, phi_hi=np.pi - 0.2):
    # default azimuth range stays clear of the arctan2 branch cut at phi=pi,
    # where finite differences of the gauge scalar would see the 2*pi jump
    theta = RNG.uniform(np.pi / 2 - 0.25, np.pi / 2 + 0.25, count)
    phi = RNG.uniform(phi_lo, phi_hi, count)
    r = RNG.uniform(0.8, 1.2, count)
    return np.stack([r * np.sin(theta) * np.cos(phi),
                     r * np.sin(theta) * np.sin(phi),
                     r * np.cos(theta)], axis=-1)


def test_covariant_residual_constant_gauge():
    pts = _band_points(40)
    res = higgs_covariant_residual(1.0, lambda r: np.full(r.shape[:-1], 1.7),
                                   1.0, pts)
    assert res < 1e-12


def test_covariant_residual_vanishing_vev():
    pts = _band_points(10)

    def lam(r):
        arr = np.asarray(r)
        return 2.0 * 0.5 * np.arctan2(arr[..., 1], arr[..., 0])

    assert higgs_covariant_residual(1.0, lam, 0.0, pts) == 0.0


def test_covariant_residual_shrinks_quadratically():
    pts = _band_points(60)

    def lam(r):
        arr = np.asarray(r)
        return 2.0 * 0.5 * np.arctan2(arr[..., 1], arr[..., 0])

    r1 = higgs_covariant_residual(1.0, lam, 1.0, pts, h=2e-3)
    r2 = higgs_covariant_residual(1.0, lam, 1.0, pts, h=1e-3)
    assert r1 < 1e-4
    assert r1 / r2 == pytest.approx(4.0, rel=0.2)


def test_covariant_residual_degenerate_grid():
    with pytest.raises(DomainError):
        higgs_covariant_residual(1.0, lambda r: np.zeros(r.shape[:-1]), 1.0,
                                 _band_points(5), h=0.0)

"""Gauge-sector checks: transition function, the winding predicate in its
three equivalent forms, the flux and holonomy around circles, and the
covariant-derivative residual.

Independent oracles: closed-form fluxes (caps about the z axis and about
tilted axes, a uniform field times the enclosed area, the quantized tube
flux), exact identities of the rule (orientation, the vanishing circulation
of a gradient) and the excluded Dirac-string axis.
"""

import math

import mpmath
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
    CircleRule,
    HolonomyConfig,
    cap_flux,
    check_quantization,
    circle_flux,
    patch_mismatch,
    string_invisibility,
    transition_function,
)

RNG = np.random.default_rng(7)

# the unit circle about the z axis, counterclockwise seen from +z
ORIGIN, X_HAT, Y_HAT = (0.0, 0.0, 0.0), np.eye(3)[0], np.eye(3)[1]


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
# flux and holonomy around circles
# ---------------------------------------------------------------------------

def test_equator_holonomy():
    g, q = 0.5, 1.0
    flux, err = circle_flux(lambda r: wu_yang_potential("north", g, r),
                            ORIGIN, X_HAT, Y_HAT)
    # the equator bounds the north hemisphere: 2 pi g (1 - cos(pi/2)) = pi,
    # half the string flux, so a charge with 2qg = 1 picks up e^{i pi}
    assert_allclose(flux, np.pi, rtol=1e-14)
    assert err < 1e-14
    assert_allclose(np.exp(1j * q * flux), -1.0, rtol=0, atol=1e-14)


def test_tube_holonomy_quantized():
    # a loop outside the tube holds its whole flux 4 pi g = 2 pi: the
    # holonomy is trivial for an integer 2qg, -1 for a half-integer one,
    # and exactly 1 for q = 0
    spec = TubeSpec(g=0.5, R=1.0)
    flux, _ = circle_flux(lambda r: tube_potential(spec, r), ORIGIN,
                          5.0 * X_HAT, 5.0 * Y_HAT)
    assert abs(np.exp(1j * 1.0 * flux) - 1.0) < 1e-14
    assert abs(np.exp(1j * 0.5 * flux) + 1.0) < 1e-14
    assert np.exp(1j * 0.0 * flux) == 1.0


def test_swapping_u_and_v_reverses_the_flux():
    spec = TubeSpec(g=0.5, R=10.0)
    center = np.array([0.3, -0.2, 0.1])
    u, v = np.array([1.0, 0.5, 0.0]), np.array([-0.5, 1.0, 0.2])
    fwd, _ = circle_flux(lambda r: tube_potential(spec, r), center, u, v)
    bwd, _ = circle_flux(lambda r: tube_potential(spec, r), center, v, u)
    assert fwd != 0.0
    assert_allclose(bwd, -fwd, rtol=0, atol=1e-14)


def test_flux_inside_uniform_tube_is_b_times_area():
    # inside the tube B is uniform, so any circle of radius 2 normal to it
    # holds B * pi * 2^2, on the axis or off it, where A varies on the rim
    spec = TubeSpec(g=0.5, R=10.0)
    for center in (ORIGIN, (1.5, -2.0, 0.7)):
        flux, _ = circle_flux(lambda r: tube_potential(spec, r), center,
                              2.0 * X_HAT, 2.0 * Y_HAT)
        assert_allclose(flux, spec.interior_field * np.pi * 4.0, rtol=1e-13)


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
                                math.cos(theta) * axis, u, v,
                                CircleRule(n0, 2))
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
            cap_flux(HolonomyConfig(g=0.5, theta=2.2, base_segments=n0,
                                    levels=levels))
    for n0, levels in [(2, 3), (64, 1), (-1, 3)]:
        with pytest.raises(DomainError, match="must lie in \\[[23], inf\\]"):
            cap_flux(HolonomyConfig(g=0.5, theta=2.2, base_segments=n0,
                                    levels=levels))
    for n0, levels in [(64.0, 3), (64, 3.0), (64.5, 3), (64, math.nan),
                       ("64", 3), (None, 3)]:
        with pytest.raises(DomainError, match="expected an integer, got"):
            cap_flux(HolonomyConfig(g=0.5, theta=2.2, base_segments=n0,
                                    levels=levels))
    assert seen == []
    with pytest.raises(_Built):
        cap_flux(HolonomyConfig(g=0.5, theta=2.2,
                                base_segments=MAX_NODES // 4, levels=3))
    assert seen == [(MAX_NODES, 3)]
    # numpy integers pass, and are checked as Python ints
    with pytest.raises(DomainError, match="at most"):
        cap_flux(HolonomyConfig(g=0.5, theta=2.2, base_segments=np.int64(64),
                                levels=np.int64(10**18)))
    monkeypatch.undo()
    assert cap_flux(HolonomyConfig(g=0.5, theta=2.2,
                                   base_segments=np.int32(64),
                                   levels=np.uint8(3))) \
        == cap_flux(HolonomyConfig(g=0.5, theta=2.2))


def test_cap_flux_formula():
    g = 0.5
    for theta in (0.4, 1.0, np.pi / 2, 2.2, 2.9):
        flux, _ = cap_flux(HolonomyConfig(g=g, theta=theta, radius=2.0))
        assert abs(flux - 2 * np.pi * g * (1 - math.cos(theta))) < 1e-13
    for r, theta in [(0.0, 1.0), (-2.0, 1.0), (math.nan, 1.0), (1.0, 0.0),
                     (1.0, math.pi), (1.0, 3.5)]:
        with pytest.raises(DomainError, match="a cap needs"):
            cap_flux(HolonomyConfig(g=g, theta=theta, radius=r))
    # the full-sphere limit approaches the total string flux 4 pi g
    near_full, _ = cap_flux(HolonomyConfig(g=g, theta=np.pi - 1e-3,
                                           radius=1.0))
    assert abs(near_full - 4 * np.pi * g) < 4 * np.pi * g * 1e-3


@pytest.mark.parametrize("g, r", [(0.5, 1.0), (0.5, 2.0), (-1.5, 1e-3),
                                  (7.0, 1e4)])
def test_cap_flux_holds_to_its_estimate_near_both_poles(g, r):
    # the north form g/(r*(r + z)) used to form r + z by cancellation as
    # z -> -r, and the integrand is constant on the rim, so every rule
    # rounded alike and the estimate read 0: at pi - 1e-7 the flux was
    # 8e-4 off. The closed form is 4 pi g sin^2(theta/2), which does not
    # cancel at small theta as 2 pi g (1 - cos theta) does. The rule's
    # rounding reached 5 ulp of 4 pi |g| over 400 angles per side at six
    # (g, r), from r = 1e-100 to 1e100, and the estimate, floored at the
    # pairwise sum's rounding bound, holds it
    for d in np.geomspace(1e-8, 1.0, 60):
        for theta in (d, np.pi - d):
            flux, err = cap_flux(HolonomyConfig(g=g, theta=theta, radius=r))
            expected = 4.0 * np.pi * g * np.sin(0.5 * theta) ** 2
            assert abs(flux - expected) <= err, (theta, flux)


@pytest.mark.parametrize("g", [1e-308, 1e-310, 1e-315, 1e-320, 1.5e-323])
def test_cap_flux_holds_to_its_estimate_below_the_least_normal(g):
    # the terms of the rule, the amplitude g/(r*(r + z)), or both lie below
    # the least normal float, where each rounding is absolute: at N = 256
    # the flux missed by 110 * 2^-1074 with an estimate of 45 * 2^-1074
    # (g = 1e-308, theta = 3), and at N = 6 by 14 * 2^-1074, so the floor
    # is not N * 2^-1074 alone. The exact flux is 4 pi g sin^2(theta/2)
    for theta in (1e-160, 1e-20, 1e-5, 0.3, 1.0, 2.2, 3.0, 3.1415925,
                  math.pi - 1e-9):
        with mpmath.workdps(50):
            exact = 4 * mpmath.pi * mpmath.mpf(g) \
                * mpmath.sin(mpmath.mpf(theta) / 2) ** 2
        for base, levels in [(3, 2), (64, 3), (MAX_NODES // 2, 2)]:
            flux, err = cap_flux(HolonomyConfig(
                g=g, theta=theta, base_segments=base, levels=levels))
            with mpmath.workdps(50):
                assert abs(mpmath.mpf(flux) - exact) <= err, (theta, base)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cap_flux_of_a_huge_pole(monkeypatch):
    # 4 pi g = 1.26e308 is finite: each term of the rule takes its weight
    # before the sum, so the sum is the integral and does not overflow
    g, theta = 1e307, 2.2
    flux, err = cap_flux(HolonomyConfig(g=g, theta=theta, radius=1.0))
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
            cap_flux(HolonomyConfig(g=g, theta=theta, radius=1.0))
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

    tilt = 0.6   # out of the x-y plane
    for center, u, v in [
            (ORIGIN, 3.0 * X_HAT, 3.0 * Y_HAT),
            ((0.4, -0.3, 0.5),
             2.5 * np.array([math.cos(tilt), 0.0, -math.sin(tilt)]),
             2.5 * Y_HAT)]:
        base, _ = circle_flux(lambda r: tube_potential(spec, r), center, u, v)
        shifted, _ = circle_flux(
            lambda r: tube_potential(spec, r) + grad_lambda(r), center, u, v)
        assert abs(base - shifted) < 1e-13


def test_loop_through_singular_axis_is_loud():
    # a north-patch rim 1e-12 from the -z axis, where the patch is singular
    with pytest.raises(SingularPointError):
        circle_flux(lambda r: wu_yang_potential("north", 1.0, r),
                    (0.0, 0.0, -1.0), 1e-12 * X_HAT, 1e-12 * Y_HAT)


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

"""Field-configuration checks.

The quantitative expectations here are produced by independent oracles
written before the implementation was consulted: surface quadrature for
enclosed charge/flux, finite-difference curl and divergence, the integral
representation of K0, and dumb dense-polyline loop integrals. Closed-form
values are frozen as literals next to the oracle that reproduced them.
"""

import math
import re
from functools import partial

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from polelab.errors import DomainError, SingularPointError
from polelab.fields import (
    _K1_SERIES_BELOW,
    FLUX_PER_POLE,
    PhysicalConfig,
    TubeSpec,
    local_charge,
    monopole_field,
    proca_tube_potential,
    proca_tube_profile,
    tube_potential,
    wu_yang_potential,
    yukawa_electric_field,
)

RNG = np.random.default_rng(20260816)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def sphere_flux(vector_field, radius, n_theta=96, n_phi=64):
    """Outward flux by Gauss-Legendre in cos(theta) x trapezoid in phi."""
    x_gl, w_gl = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    ct = x_gl[:, None]
    st = np.sqrt(1.0 - ct**2)
    nhat = np.stack(
        np.broadcast_arrays(st * np.cos(phi), st * np.sin(phi),
                            ct * np.ones_like(phi)), axis=-1)
    values = vector_field(radius * nhat)
    radial = np.sum(values * nhat, axis=-1)
    return radius**2 * (2.0 * np.pi / n_phi) * float(w_gl @ radial.sum(axis=1))


def fd_curl(vector_field, point, h=1e-5):
    point = np.asarray(point, dtype=float)
    out = np.empty(3)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        ej, ek = np.eye(3)[j], np.eye(3)[k]
        dk_dj = (vector_field(point + h * ej)[k]
                 - vector_field(point - h * ej)[k]) / (2 * h)
        dj_dk = (vector_field(point + h * ek)[j]
                 - vector_field(point - h * ek)[j]) / (2 * h)
        out[i] = dk_dj - dj_dk
    return out


def fd_divergence(vector_field, point, h):
    point = np.asarray(point, dtype=float)
    acc = 0.0
    for i in range(3):
        e = np.eye(3)[i]
        acc += (vector_field(point + h * e)[i]
                - vector_field(point - h * e)[i]) / (2 * h)
    return acc


def k0_by_integral(x):
    """K0(x) = int_0^inf exp(-x cosh t) dt, evaluated blind to scipy.special."""
    val, err = quad(lambda t: math.exp(-x * math.cosh(t)), 0.0, 30.0,
                    limit=200, epsabs=1e-14, epsrel=1e-13)
    assert err < 1e-11
    return val


def polyline_loop_integral(vector_field, radius, z=0.0, n=4096):
    """Trapezoid of A.dl around a dense circle; deliberately naive."""
    ang = 2.0 * np.pi * np.arange(n + 1) / n
    pts = np.stack([radius * np.cos(ang), radius * np.sin(ang),
                    np.full(n + 1, z)], axis=-1)
    vals = vector_field(pts)
    dl = np.diff(pts, axis=0)
    mids = 0.5 * (vals[1:] + vals[:-1])
    return float(np.sum(mids * dl))


# ---------------------------------------------------------------------------
# electric sector: Coulomb, Yukawa, local charge
# ---------------------------------------------------------------------------

def test_coulomb_limit_point_value():
    cfg = PhysicalConfig(q=1.0, g=0.0, mu=0.0)
    e = yukawa_electric_field(cfg, (0.0, 0.0, 2.0))
    assert_allclose(e, [0.0, 0.0, 0.25], rtol=0, atol=1e-15)


def test_screened_field_point_value():
    cfg = PhysicalConfig(q=1.0, g=0.0, mu=1.0)
    e = yukawa_electric_field(cfg, (1.0, 0.0, 0.0))
    # (1 + 1) e^-1 / 1 = 2/e
    assert_allclose(np.linalg.norm(e), 2.0 * math.exp(-1.0), rtol=1e-15)
    assert e[1] == e[2] == 0.0


def test_no_source_no_field():
    cfg = PhysicalConfig(q=0.0, g=0.0, mu=5.0)
    assert_allclose(yukawa_electric_field(cfg, (1.0, 1.0, 1.0)), 0.0)


def test_fields_finite_near_the_source():
    # |r|^3 underflows to 0 at |r| = 1e-120, but |r|^2 and the field
    # 1/r^2 = 1e240 do not
    cfg = PhysicalConfig(q=1.0, g=1.0, mu=1.0)
    for field in (yukawa_electric_field, monopole_field):
        b = field(cfg, (0.0, 0.0, 1e-120))
        assert np.all(np.isfinite(b))
        assert_allclose(b, [0.0, 0.0, 1e240], rtol=1e-12)


def test_field_singular_at_origin():
    cfg = PhysicalConfig(q=1.0, g=0.5)
    with pytest.raises(SingularPointError):
        yukawa_electric_field(cfg, (0.0, 0.0, 0.0))
    with pytest.raises(SingularPointError):
        monopole_field(cfg, np.zeros(3))


def test_a_subnormal_radius_squared_is_refused_by_its_cause():
    # |r|^2 = 1e-320 is below the least normal float and has lost digits:
    # b_over_coulomb read 1.0000055664551364 at r = 1e-160, and at 1e-170,
    # where |r|^2 underflows to 0, the point was taken for a source point
    cfg = PhysicalConfig(q=1e-300, g=1e-300)
    for r in (1e-160, 1e-170, 1e-155):
        for field in (yukawa_electric_field, monopole_field):
            with pytest.raises(DomainError, match="least normal") as exc:
                field(cfg, (r, 0.0, 0.0))
            assert not isinstance(exc.value, SingularPointError)
    # r*(r + z) = 1e-314 is below it at a normal |r|^2 = 1e-300, next to
    # the north patch's excluded axis
    point = 1e-150 * np.array([math.sin(1e-7), 0.0, -math.cos(1e-7)])
    with pytest.raises(DomainError, match="r\\*\\(r \\+- z\\) for .* at least"):
        wu_yang_potential("north", 1e-308, point)
    # from 1.5e-154 up |r|^2 is normal and the field exact to rounding
    b = monopole_field(cfg, (1.5e-154, 0.0, 0.0))
    assert_allclose(b[0] * 1.5e-154**2, 1e-300, rtol=1e-15)


def test_local_charge_against_surface_quadrature():
    cfg = PhysicalConfig(q=1.0, g=0.0, mu=2.0)
    flux = sphere_flux(lambda r: yukawa_electric_field(cfg, r), 10.0)
    assert_allclose(flux / (4.0 * np.pi), local_charge(cfg, 10.0), rtol=1e-12)
    # 21 e^-20
    assert_allclose(local_charge(cfg, 10.0), 4.328422607120972e-08, rtol=1e-13)


def test_local_charge_limits_and_errors():
    assert local_charge(PhysicalConfig(1.0, 0.0, mu=0.0), 10.0) == 1.0
    assert_allclose(local_charge(PhysicalConfig(1.0, 0.0, mu=1.0), 1.0),
                    2.0 * math.exp(-1.0), rtol=1e-15)
    with pytest.raises(DomainError):
        local_charge(PhysicalConfig(1.0, 0.0), 0.0)
    with pytest.raises(DomainError):
        local_charge(PhysicalConfig(1.0, 0.0), -3.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_screened_charge_of_a_huge_charge():
    # the weight (1 + mu*R) e^-(mu*R) is formed before q multiplies it, so
    # the charge 11 e^-10 * 1e308 is finite though q*(1 + mu*R) is not
    cfg = PhysicalConfig(q=1e308, g=1.0, mu=1.0)
    assert_allclose(local_charge(cfg, 10.0), 11.0 * math.exp(-10.0) * 1e308,
                    rtol=1e-15)
    e = yukawa_electric_field(cfg, (10.0, 0.0, 0.0))
    assert_allclose(e[0], 11.0 * math.exp(-10.0) * 1e306, rtol=1e-15)
    # a field past the float range is refused with its cause, not inf
    with pytest.raises(DomainError, match="overflows at"):
        yukawa_electric_field(cfg, (1e-10, 0.0, 0.0))
    with pytest.raises(DomainError, match="g/r\\^2 overflows"):
        monopole_field(PhysicalConfig(q=1.0, g=1e308), (0.1, 0.0, 0.0))


def test_screening_strictly_monotone():
    radii = np.geomspace(0.05, 40.0, 60)
    vals = local_charge(PhysicalConfig(1.0, 0.0, mu=1.0), radii)
    assert np.all(np.diff(vals) < 0)
    flat = local_charge(PhysicalConfig(1.0, 0.0, mu=0.0), radii)
    assert_allclose(flat, 1.0, rtol=0, atol=0)


def test_massless_limit_is_continuous():
    pts = RNG.normal(size=(20, 3))
    e0 = yukawa_electric_field(PhysicalConfig(1.0, 0.0, mu=0.0), pts)
    e1 = yukawa_electric_field(PhysicalConfig(1.0, 0.0, mu=1e-7), pts)
    assert np.max(np.linalg.norm(e1 - e0, axis=1)
                  / np.linalg.norm(e0, axis=1)) < 1e-6


# ---------------------------------------------------------------------------
# magnetic sector: pole field, Wu-Yang patches
# ---------------------------------------------------------------------------

def test_pole_field_point_values():
    assert_allclose(monopole_field(PhysicalConfig(0.0, 0.5), (0, 0, 1.0)),
                    [0.0, 0.0, 0.5], rtol=1e-15)
    assert_allclose(monopole_field(PhysicalConfig(0.0, 1.0), (2.0, 0, 0)),
                    [0.25, 0.0, 0.0], rtol=1e-15)


def test_pole_field_ignores_photon_mass():
    pts = RNG.normal(size=(10, 3))
    b0 = monopole_field(PhysicalConfig(1.0, 0.7, mu=0.0), pts)
    b5 = monopole_field(PhysicalConfig(1.0, 0.7, mu=5.0), pts)
    assert np.array_equal(b0, b5)


def test_pole_flux_spheres():
    cfg = PhysicalConfig(q=0.0, g=0.8)
    for radius in (0.5, 1.0, 2.0, 5.0):
        flux = sphere_flux(lambda r: monopole_field(cfg, r), radius)
        assert_allclose(flux, FLUX_PER_POLE * cfg.g, rtol=1e-6)


def test_pole_field_divergence_free():
    cfg = PhysicalConfig(q=0.0, g=0.5)
    pts = RNG.normal(size=(12, 3))
    pts *= (1.5 / np.linalg.norm(pts, axis=1))[:, None]
    for p in pts:
        coarse = fd_divergence(lambda r: monopole_field(cfg, r), p, 2e-4)
        fine = fd_divergence(lambda r: monopole_field(cfg, r), p, 1e-4)
        assert abs(fine) < 1e-8
        assert abs(fine) <= abs(coarse) + 1e-12


def test_wu_yang_equator_magnitudes():
    a_n = wu_yang_potential("north", 1.0, (1.0, 0.0, 0.0))
    a_s = wu_yang_potential("south", 1.0, (1.0, 0.0, 0.0))
    # (1 -+ cos theta)/sin theta = 1 at the equator, azimuthal direction
    assert_allclose(a_n, [0.0, 1.0, 0.0], rtol=0, atol=1e-15)
    assert_allclose(a_s, [0.0, -1.0, 0.0], rtol=0, atol=1e-15)


def test_wu_yang_curl_matches_pole_field():
    cfg = PhysicalConfig(q=0.0, g=0.5)
    for patch, z_sign in (("north", 1.0), ("south", -1.0)):
        count = 0
        while count < 100:
            p = RNG.normal(size=3)
            r = np.linalg.norm(p)
            if r < 0.5 or r > 3.0:
                continue
            # keep away from the patch's excluded axis
            if z_sign * p[2] < -0.5 * r or abs(p[2]) > 0.9 * r:
                continue
            count += 1
            curl = fd_curl(lambda x: wu_yang_potential(patch, cfg.g, x), p)
            assert_allclose(curl, monopole_field(cfg, p), atol=1e-6)


def test_wu_yang_excluded_axis_is_loud():
    with pytest.raises(SingularPointError):
        wu_yang_potential("north", 1.0, (0.0, 0.0, -2.0))
    with pytest.raises(SingularPointError):
        wu_yang_potential("south", 1.0, (0.0, 0.0, 2.0))
    # barely off-axis counts as on-axis
    with pytest.raises(SingularPointError):
        wu_yang_potential("north", 1.0, (1e-11, 0.0, -1.0))
    with pytest.raises(DomainError):
        wu_yang_potential("east", 1.0, (1.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# flux tubes
# ---------------------------------------------------------------------------

def test_uniform_tube_geometry():
    spec = TubeSpec(g=0.5, R=1.0)
    assert spec.interior_field == 4.0 * spec.g / spec.R**2
    assert_allclose(tube_potential(spec, (0.0, 0.0, 0.0)), 0.0)
    a = tube_potential(spec, (2.0, 0.0, 0.0))
    assert_allclose(np.linalg.norm(a), 0.5, rtol=1e-15)   # 2g/rho
    assert_allclose(a, [0.0, 0.5, 0.0], atol=1e-15)


def test_uniform_tube_loop_integral():
    # the polygon underestimates the circle by O(1/n^2); 4096 chords put
    # that deficit near 2e-7, so the tolerance sits just above it
    spec = TubeSpec(g=0.5, R=1.0)
    flux = polyline_loop_integral(lambda r: tube_potential(spec, r), 5.0)
    assert_allclose(flux, 2.0 * np.pi, rtol=1e-6)
    # interior loop sees only the enclosed fraction
    inner = polyline_loop_integral(lambda r: tube_potential(spec, r), 0.5)
    assert_allclose(inner, FLUX_PER_POLE * spec.g * 0.25, rtol=1e-6)


def test_tube_spec_validation():
    with pytest.raises(DomainError):
        TubeSpec(g=1.0, R=0.0)
    with pytest.raises(DomainError):
        TubeSpec(g=1.0, R=-2.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tube_potentials_refuse_what_their_squares_lose():
    # R^2 = 1e-320 is subnormal: a point outside such a tube divided 2g by
    # a subnormal rho^2 and read A_y = inf; R^2 and 4g/R^2 that overflow
    # are refused with it
    for g, R in [(0.5, 1e-160), (0.5, 1e200), (1e308, 0.1)]:
        with pytest.raises(DomainError, match="R\\^2"):
            TubeSpec(g=g, R=R)
    # an off-axis point whose rho^2 is subnormal (9e-316 keeps about 27 of
    # float64's 53 bits), underflows to 0 or overflows is refused by its rho,
    # inside the tube too; one on the axis still gives 0
    spec = TubeSpec(g=0.5, R=1e-150)
    for potential in (partial(tube_potential, spec),
                      partial(proca_tube_potential, 0.5, 1.0)):
        for x in (2e-160, 3e-158, 1e-170, 1e200):
            with pytest.raises(DomainError, match=re.escape(f"rho = {x}: rho^2")):
                potential((x, 0.0, 0.0))
            with pytest.raises(DomainError, match=re.escape(f"rho = {x}: rho^2")):
                potential([(0.0, 0.0, 1.0), (0.0, x, 0.0)])
        assert np.all(potential((0.0, 0.0, 5.0)) == 0.0)
    # the screened tube's amplitude 2g(1 - x K1(x))/rho^2 overflows here
    with pytest.raises(DomainError, match=re.escape("not finite at rho = 0.1")):
        proca_tube_potential(1e308, 1.0, (0.1, 0.0, 0.0))
    # at mu*rho = inf, 1 - x K1(x) is 1, and at mu*rho = 0 it is 0: both
    # used to read nan and be refused
    assert_allclose(proca_tube_potential(0.5, 1e300, (1e10, 0.0, 0.0)),
                    [0.0, 2.0 * 0.5 / 1e10, 0.0], rtol=1e-15)
    assert np.all(proca_tube_potential(0.5, 1e-300, (1e-150, 0.0, 0.0))
                  == 0.0)
    # inside and outside, the uniform tube's amplitude is at most 2g/R^2,
    # half the interior field TubeSpec checks
    wide = TubeSpec(g=4e307, R=1.0)
    assert np.all(np.isfinite(tube_potential(wide, [(0.5, 0.0, 0.0),
                                                    (1e150, 0.0, 0.0)])))


def test_proca_tube_flux_conserved():
    for g, mu in ((0.5, 1.0), (1.0, 2.0), (0.3, 0.25)):
        val, err = quad(lambda rho: 2 * np.pi * rho
                        * proca_tube_profile(g, mu, rho),
                        0.0, 60.0 / mu, limit=300)
        assert_allclose(val, FLUX_PER_POLE * g, rtol=1e-6)


def test_proca_profile_ratio_matches_bessel_oracle():
    ratio = (proca_tube_profile(1.0, 1.0, 1.0)
             / proca_tube_profile(1.0, 1.0, 3.0))
    oracle = k0_by_integral(1.0) / k0_by_integral(3.0)
    assert_allclose(ratio, oracle, rtol=1e-9)
    assert_allclose(ratio, 12.119471641253276, rtol=1e-10)


def test_proca_profile_edge_cases():
    assert proca_tube_profile(0.0, 1.0, 2.0) == 0.0
    with pytest.raises(DomainError):
        proca_tube_profile(1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        proca_tube_profile(1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        proca_tube_profile(1.0, -1.0, 1.0)


def test_proca_potential_reproduces_profile_flux():
    # loop integral of the screened-tube potential approaches 4*pi*g only
    # as the loop grows; at mu*rho = 30 the deficit is exponentially small
    g, mu = 0.7, 1.5
    flux = polyline_loop_integral(
        lambda r: proca_tube_potential(g, mu, r), 30.0 / mu, n=65536)
    assert_allclose(flux, FLUX_PER_POLE * g, rtol=1e-8)
    # near the axis the potential must vanish linearly, not diverge
    a_small = proca_tube_potential(g, mu, (1e-8, 0.0, 0.0))
    assert np.linalg.norm(a_small) < 1e-6


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mu", [1.0, 3.0])
def test_proca_potential_near_the_axis_matches_mpmath(mu):
    # 1 - x K1(x), x = mu rho, cancels as x -> 0: formed directly it read
    # |A| = 8.88e-8 at g = 0.5, mu = 1, rho = 1e-8, where mpmath reads
    # 9.518e-8; below the switch it is summed from its series
    g = 0.5
    rho = np.geomspace(1e-12, 1.0, 200)
    a = proca_tube_potential(g, mu, np.outer(rho, (1.0, 0.0, 0.0)))[:, 1]
    with mpmath.workdps(40):
        exact = [float(2 * g * (1 - mpmath.mpf(mu * r)
                                * mpmath.besselk(1, mpmath.mpf(mu * r)))
                       / mpmath.mpf(r)) for r in rho]
    assert_allclose(a, exact, rtol=1e-13, atol=0.0)
    # the series and the direct form meet at the switch
    below = np.nextafter(_K1_SERIES_BELOW, 0.0) / mu
    at = _K1_SERIES_BELOW / mu
    a_below = proca_tube_potential(g, mu, (below, 0.0, 0.0))[1] * below
    a_at = proca_tube_potential(g, mu, (at, 0.0, 0.0))[1] * at
    assert a_below == pytest.approx(a_at, rel=4e-15, abs=0.0)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(DomainError):
        PhysicalConfig(q=1.0, g=1.0, mu=-0.5)
    with pytest.raises(DomainError):
        PhysicalConfig(q=np.inf, g=1.0)
    cfg = PhysicalConfig(q=2.0, g=0.25)
    assert cfg.mu == 0.0

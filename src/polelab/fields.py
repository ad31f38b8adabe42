"""Static field configurations for charges, poles, and flux tubes with a
massive photon.

Conventions used throughout the package: natural units (hbar = c = 1) with
Gaussian-style normalization, so a point charge q has radial field q/r^2, a
pole of strength g has radial field g/r^2 and carries total flux 4*pi*g, and
the photon mass mu has dimension 1/length. A massive photon screens the
electric field of a charge (Yukawa falloff) but cannot screen the return flux
of a pole once that flux is squeezed into a tube: the tube's profile spreads
over a scale 1/mu while its integrated flux stays exactly 4*pi*g.

All field functions accept a single point of shape (3,) or a batch of points
of shape (..., 3) and return arrays of matching shape.

The screened tube's Bessel functions K0 and K1 are imported inside the two
proca_tube_* functions, the only callers of scipy.special in the package, so
importing polelab (and so every CLI command) does not load it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (TINY, DomainError, SingularPointError, check_count,
                     check_finite, check_normal, check_positive)

# Angular distance to a patch's excluded axis below which evaluation is refused.
AXIS_TOL = 1e-9

# Total flux carried by a unit-strength pole.
FLUX_PER_POLE = 4.0 * np.pi

# mu*r past which exp(-mu*r), and so the screening weight, is exactly 0.
_SCREENING_CLAMP = 800.0

# FieldsConfig refuses more samples than this before anything is allocated
MAX_SAMPLES = 2**20

# 1 - x K1(x) cancels as x -> 0: formed directly it is 4.5e-13 off at
# x = 0.01 and 6.7% at 1e-8. Below this x the series of Abramowitz &
# Stegun 9.6.11, summed to 7 terms, is within 9e-16 of mpmath at 40
# digits; above it the direct form is within 1.4e-15 (up to x = 3)
_K1_SERIES_BELOW = 0.5
# [psi(k+1) + psi(k+2)] / (k! (k+1)!), psi(k+1) = H_k - euler_gamma
_K1_SERIES = [(2.0 * sum(1.0 / j for j in range(1, k + 1)) + 1.0 / (k + 1)
               - 2.0 * np.euler_gamma) / (math.factorial(k)
                                          * math.factorial(k + 1))
              for k in range(7)]


@dataclass(frozen=True)
class PhysicalConfig:
    """Charge q, pole strength g, photon mass mu >= 0."""

    q: float
    g: float
    mu: float = 0.0

    def __post_init__(self):
        check_finite("q, g, mu", self.q, self.g, self.mu)
        if self.mu < 0:
            raise DomainError("photon mass mu must be >= 0")


@dataclass(frozen=True)
class FieldsConfig(PhysicalConfig):
    """A PhysicalConfig with g nonzero and its fields' samples (2 to
    MAX_SAMPLES) radii from r_min to r_max: 0 < r_min < r_max, with r_min^2
    and r_max^2 normal, since every field squares |r|, and both fields
    finite at r_min, where they are largest; checked on construction."""

    q: float = 1.0
    g: float = 0.5
    mu: float = 1.0
    r_min: float = 0.1
    r_max: float = 10.0
    samples: int = 64

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.r_min < self.r_max:
            raise DomainError("need 0 < r_min < r_max")
        check_normal("r_min^2, r_max^2", self.r_min * self.r_min,
                     self.r_max * self.r_max)
        check_count("samples", self.samples, 2, MAX_SAMPLES)
        if self.g == 0:
            raise DomainError("g must be nonzero: b_over_coulomb divides "
                              "by it")
        # both fields are largest at r_min, the first sample's |r|
        r_min = np.float64(self.r_min)
        _electric_magnitude(self, r_min)
        _magnetic_magnitude(self, r_min)


@dataclass(frozen=True)
class TubeSpec:
    """Uniform flux tube: pole strength g squeezed into a cylinder of radius R.

    The interior field B = 4*g/R**2 along +z reproduces the pole's total flux
    4*pi*g; outside the tube the potential is pure gauge. R^2 must be normal
    and finite, and B finite: tube_potential divides 2*g by rho^2 >= R^2
    outside, so its amplitude is then finite everywhere.
    """

    g: float
    R: float

    def __post_init__(self):
        check_finite("g", self.g)
        check_positive("R", self.R)
        with np.errstate(over="ignore"):
            R2 = np.float64(self.R) ** 2
            check_normal(f"R^2 = {R2}", R2)
            check_finite("the interior field 4*g/R^2", 4.0 * self.g / R2)

    @property
    def interior_field(self):
        return 4.0 * self.g / self.R**2


def as_vec3(r):
    """Validate and return r as a float array with trailing axis of length 3."""
    arr = np.asarray(r, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != 3:
        raise DomainError("expected a 3-vector or an array of shape (..., 3)")
    check_finite("coordinates", arr)
    return arr


def _radii(arr):
    """|r| of finite points. The origin is a SingularPointError. A point
    whose |r|^2 overflows, or is below the least normal float, is a
    DomainError: its field would come out as an exact 0, or lose digits."""
    if np.any(np.all(arr == 0.0, axis=-1)):
        raise SingularPointError("field evaluated at a source point")
    with np.errstate(over="ignore"):
        r2 = np.sum(arr * arr, axis=-1)
    check_normal("|r|^2 of the coordinates", r2)
    return np.sqrt(r2)


def _axial_squares(arr):
    """rho^2 = x^2 + y^2 of finite points. An off-axis point whose rho^2 is
    below the least normal float or overflows is a DomainError naming its
    rho, as _radii refuses such an |r|^2: 1/rho^2 would lose digits, or
    come out as inf or 0. A point on the z axis has rho^2 = 0."""
    with np.errstate(over="ignore"):
        rho2 = arr[..., 0] ** 2 + arr[..., 1] ** 2
    off_axis = (arr[..., 0] != 0.0) | (arr[..., 1] != 0.0)
    bad = off_axis & ~((TINY <= rho2) & (rho2 < np.inf))
    if np.any(bad):
        rho = np.hypot(arr[..., 0], arr[..., 1])[bad].flat[0]
        raise DomainError(f"rho = {rho}: rho^2 must be finite and at least "
                          f"{TINY}, the least normal float")
    return rho2


def _screening_argument(mu, r):
    """x = mu*r clamped at _SCREENING_CLAMP, with no overflow warning. Every
    weight (1 + x) exp(-x) below the clamp is unchanged bit for bit, and
    above it the weight is 0, not inf * 0 = nan."""
    with np.errstate(over="ignore"):
        return np.minimum(mu * r, _SCREENING_CLAMP)


def _screened_charge(q, mu, R):
    """q*(1 + mu*R)*exp(-mu*R); the weight, at most 1, is formed first."""
    x = _screening_argument(mu, R)
    return q * ((1.0 + x) * np.exp(-x))


def _inverse_square(numerator, rmag, field):
    """numerator/|r|^2, the magnitude of a radial field. One that overflows
    is refused with its cause instead of returned as inf."""
    with np.errstate(over="ignore"):
        amp = numerator / rmag**2
    if not np.all(np.isfinite(amp)):
        raise DomainError(f"the field {field} overflows at |r| = "
                          f"{np.min(rmag)}")
    return amp


def _electric_magnitude(cfg, rmag):
    """|E| of yukawa_electric_field at the radii rmag."""
    return _inverse_square(_screened_charge(cfg.q, cfg.mu, rmag), rmag,
                           "q*(1 + mu*r)*exp(-mu*r)/r^2")


def _magnetic_magnitude(cfg, rmag):
    """|B| of monopole_field at the radii rmag."""
    return _inverse_square(cfg.g, rmag, "g/r^2")


def _radial(arr, rmag, amp):
    """The radial vector amp * r/|r| at the points arr."""
    return amp[..., None] * (arr / rmag[..., None])


def _azimuthal(arr, amp):
    """The azimuthal vector (-y*amp, x*amp, 0) at the points arr."""
    out = np.zeros_like(arr)
    out[..., 0] = -arr[..., 1] * amp
    out[..., 1] = arr[..., 0] * amp
    return out


def yukawa_electric_field(cfg, r):
    """Screened electric field q*(1 + mu*r)*exp(-mu*r)/r^2 in the radial direction.

    Reduces to the Coulomb field for mu = 0. The prefactor (1 + mu*r) is what
    the gradient of the screened potential q*exp(-mu*r)/r produces; it keeps
    the small-r field Coulombic while the large-r field dies exponentially.
    A field that overflows is a DomainError.
    """
    arr = as_vec3(r)
    rmag = _radii(arr)
    return _radial(arr, rmag, _electric_magnitude(cfg, rmag))


def local_charge(cfg, R):
    """Charge seen by a Gauss sphere of radius R: q*(1 + mu*R)*exp(-mu*R).

    For mu > 0 this decays exponentially: a massive photon hides the charge
    from distant flux measurements even though the charge itself is intact.
    """
    R = np.asarray(R, dtype=float)
    check_positive("Gauss sphere radius", R)
    out = _screened_charge(cfg.q, cfg.mu, R)
    return float(out) if out.ndim == 0 else out


def monopole_field(cfg, r):
    """Unscreened pole field g/r^2 in the radial direction.

    Independent of mu: no local mass term can terminate the return flux of a
    point source of B, so the pole's field keeps its 1/r^2 form. A field
    that overflows is a DomainError.
    """
    arr = as_vec3(r)
    rmag = _radii(arr)
    return _radial(arr, rmag, _magnetic_magnitude(cfg, rmag))


def wu_yang_potential(patch, g, r):
    """Vector potential of a pole on one patch of the two-patch construction.

    patch "north" is regular except on the negative z axis, patch "south"
    except on the positive z axis. Azimuthal magnitudes:

        north:  g*(1 - cos(theta)) / (r*sin(theta))
        south: -g*(1 + cos(theta)) / (r*sin(theta))

    Both are evaluated here in the equivalent forms +-g/(r*(r +- z)) *
    (-y, x, 0), which stay finite on the allowed axis. On the far half of
    each patch r +- z would cancel as its excluded axis nears, so there it
    is formed as rho^2/(r -+ z), since (r + z)*(r - z) = rho^2.
    Evaluation within angular distance AXIS_TOL of the excluded axis raises
    SingularPointError, and an amplitude g/(r*(r +- z)) that is not finite
    (at a tiny or a huge |r|), or whose r*(r +- z) is below the least
    normal float and so has lost digits, DomainError.
    """
    arr, amp = _patch_amplitude(patch, g, r)
    return _azimuthal(arr, amp)


def _patch_amplitude(patch, g, r):
    """The points r as an array, and the azimuthal amplitude of
    wu_yang_potential at them, refused as that function states."""
    if patch not in ("north", "south"):
        raise DomainError("patch must be 'north' or 'south'")
    arr = as_vec3(r)
    rmag = _radii(arr)
    z = arr[..., 2]
    rho = np.hypot(arr[..., 0], arr[..., 1])
    theta = np.arctan2(rho, z)
    if patch == "north":
        # excluded axis theta = pi
        if np.any(np.pi - theta < AXIS_TOL):
            raise SingularPointError("north patch evaluated on its excluded (-z) axis")
        num, sign = g, 1.0
    else:
        if np.any(theta < AXIS_TOL):
            raise SingularPointError("south patch evaluated on its excluded (+z) axis")
        num, sign = -g, -1.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # rho * (rho/(r -+ z)): the ratio is at most 1, so neither factor
        # overflows or underflows where rho^2 would
        side = np.where(sign * z < 0, rho * (rho / (rmag - sign * z)),
                        rmag + sign * z)
        den = rmag * side
        amp = num / den
    where = f"for |r| in [{np.min(rmag)}, {np.max(rmag)}]"
    check_normal(f"the {patch} patch's r*(r +- z) {where}", den)
    check_finite(f"the {patch} patch's g/(r*(r +- z)) {where}", amp)
    return arr, amp


def tube_potential(spec, r):
    """Potential of the uniform flux tube: A = B*(z_hat x r)/2 inside rho <= R,
    pure gauge with azimuthal magnitude 2*g/rho outside. Continuous at rho = R
    and regular everywhere (zero on the axis). An off-axis point whose rho^2
    is not normal and finite is a DomainError (_axial_squares)."""
    arr = as_vec3(r)
    # 2g/R^2 inside (the axis included), 2g/rho^2 outside: at most half
    # the interior field, which TubeSpec checks, so finite
    amp = 2.0 * spec.g / np.maximum(_axial_squares(arr), spec.R**2)
    return _azimuthal(arr, amp)


def proca_tube_profile(g, mu, rho):
    """Axial field profile B_z(rho) = 2*g*mu^2*K0(mu*rho) of the screened tube.

    This is the steady profile a massive photon forces on a line of flux: the
    Meissner-like screening spreads the flux over the scale 1/mu, but since
    int_0^inf K0(x) x dx = 1 the integrated flux stays exactly 4*pi*g for
    every mu.
    """
    # imported here, not at module level: no CLI command needs scipy.special
    from scipy.special import k0

    check_positive("mu", mu)
    rho = np.asarray(rho, dtype=float)
    check_positive("rho", rho)
    out = 2.0 * g * mu**2 * k0(mu * rho)
    return float(out) if out.ndim == 0 else out


def proca_tube_potential(g, mu, r):
    """Vector potential whose curl is the screened tube profile.

    Azimuthal magnitude (2*g/rho)*(1 - mu*rho*K1(mu*rho)); the enclosed flux
    2*pi*rho*A_phi = 4*pi*g*(1 - mu*rho*K1(mu*rho)) climbs to the full 4*pi*g
    once mu*rho >> 1. Regular on the axis (A -> 0 like rho*log(rho)), where
    1 - x K1(x) is summed from its series, since formed directly it cancels.
    x is clamped at _SCREENING_CLAMP, where 1 - x K1(x) is exactly 1, and
    the series' x below at TINY, where it is exactly 0. An off-axis point
    whose rho^2 is not normal and finite (_axial_squares), or where the
    amplitude is not finite, is a DomainError naming its rho.
    """
    # imported here, not at module level: no CLI command needs scipy.special
    from scipy.special import i1, k1

    check_positive("mu", mu)
    arr = as_vec3(r)
    rho2 = _axial_squares(arr)
    rho = np.sqrt(rho2)
    safe = np.where(rho > 0, rho, 1.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = _screening_argument(mu, safe)
        # A&S 9.6.11: 1 - x K1(x) = (x^2/4) sum_k c_k (x^2/4)^k
        # - x ln(x/2) I1(x), summed at x clamped below the switch, where its
        # terms stay small
        xs = np.clip(x, TINY, _K1_SERIES_BELOW)
        u = 0.25 * xs * xs
        series = 0.0
        for c in reversed(_K1_SERIES):
            series = series * u + c
        deficit = np.where(x < _K1_SERIES_BELOW,
                           u * series - xs * np.log(0.5 * xs) * i1(xs),
                           1.0 - x * k1(x))
        amp = np.where(rho > 0, 2.0 * g * deficit / safe**2, 0.0)
    if not np.all(np.isfinite(amp)):
        raise DomainError(f"the screened tube's amplitude is not finite at "
                          f"rho = {rho[~np.isfinite(amp)].flat[0]}")
    return _azimuthal(arr, amp)

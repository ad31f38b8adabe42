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

import numpy as np
from dataclasses import dataclass

from .errors import DomainError, SingularPointError

# Angular distance to a patch's excluded axis below which evaluation is refused.
AXIS_TOL = 1e-9

# Total flux carried by a unit-strength pole.
FLUX_PER_POLE = 4.0 * np.pi

# mu*r past which exp(-mu*r), and so the screening weight, is exactly 0.
_SCREENING_CLAMP = 800.0


@dataclass(frozen=True)
class PhysicalConfig:
    """Charge q, pole strength g, photon mass mu >= 0."""

    q: float
    g: float
    mu: float = 0.0

    def __post_init__(self):
        for name in ("q", "g", "mu"):
            if not np.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.mu < 0:
            raise DomainError("photon mass mu must be >= 0")


@dataclass(frozen=True)
class TubeSpec:
    """Uniform flux tube: pole strength g squeezed into a cylinder of radius R.

    The interior field B = 4*g/R**2 along +z reproduces the pole's total flux
    4*pi*g; outside the tube the potential is pure gauge.
    """

    g: float
    R: float

    def __post_init__(self):
        if not (np.isfinite(self.g) and np.isfinite(self.R)):
            raise DomainError("tube parameters must be finite")
        if self.R <= 0:
            raise DomainError("tube radius R must be > 0")

    @property
    def interior_field(self):
        return 4.0 * self.g / self.R**2


def as_vec3(r):
    """Validate and return r as a float array with trailing axis of length 3."""
    arr = np.asarray(r, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != 3:
        raise DomainError("expected a 3-vector or an array of shape (..., 3)")
    if not np.all(np.isfinite(arr)):
        raise DomainError("coordinates must be finite")
    return arr


def _radii(arr):
    """|r| of finite points; a point whose |r|^2 overflows is refused, since
    its field would come out as an exact 0 instead of the true value."""
    with np.errstate(over="ignore"):
        r = np.sqrt(np.sum(arr * arr, axis=-1))
    if not np.all(np.isfinite(r)):
        raise DomainError("|r|^2 overflows: coordinates too large")
    if np.any(r == 0.0):
        raise SingularPointError("field evaluated at a source point")
    return r


def _screening_argument(mu, r):
    """x = mu*r clamped at _SCREENING_CLAMP, with no overflow warning. Every
    weight (1 + x) exp(-x) below the clamp is unchanged bit for bit, and
    above it the weight is 0, not inf * 0 = nan."""
    with np.errstate(over="ignore"):
        return np.minimum(mu * r, _SCREENING_CLAMP)


def _radial(arr, rmag, numerator, field):
    """The radial field numerator/|r|^2 at the points arr. A magnitude that
    overflows is refused with its cause instead of returned as inf."""
    with np.errstate(over="ignore"):
        amp = numerator / rmag**2
    if not np.all(np.isfinite(amp)):
        raise DomainError(f"the field {field} overflows at |r| = "
                          f"{np.min(rmag)}")
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
    x = _screening_argument(cfg.mu, rmag)
    # the weight (1 + x) exp(-x) is at most 1, so q times it cannot overflow
    return _radial(arr, rmag, cfg.q * ((1.0 + x) * np.exp(-x)),
                   "q*(1 + mu*r)*exp(-mu*r)/r^2")


def local_charge(cfg, R):
    """Charge seen by a Gauss sphere of radius R: q*(1 + mu*R)*exp(-mu*R).

    For mu > 0 this decays exponentially: a massive photon hides the charge
    from distant flux measurements even though the charge itself is intact.
    """
    R = np.asarray(R, dtype=float)
    if np.any(R <= 0) or not np.all(np.isfinite(R)):
        raise DomainError("Gauss sphere radius must be finite and > 0")
    x = _screening_argument(cfg.mu, R)
    out = cfg.q * ((1.0 + x) * np.exp(-x))
    return float(out) if out.ndim == 0 else out


def monopole_field(cfg, r):
    """Unscreened pole field g/r^2 in the radial direction.

    Independent of mu: no local mass term can terminate the return flux of a
    point source of B, so the pole's field keeps its 1/r^2 form. A field
    that overflows is a DomainError.
    """
    arr = as_vec3(r)
    rmag = _radii(arr)
    return _radial(arr, rmag, cfg.g, "g/r^2")


def wu_yang_potential(patch, g, r):
    """Vector potential of a pole on one patch of the two-patch construction.

    patch "north" is regular except on the negative z axis, patch "south"
    except on the positive z axis. Azimuthal magnitudes:

        north:  g*(1 - cos(theta)) / (r*sin(theta))
        south: -g*(1 + cos(theta)) / (r*sin(theta))

    Both are evaluated here in the equivalent cancellation-free forms
    +-g/(r*(r +- z)) * (-y, x, 0), which stay finite on the allowed axis.
    Evaluation within angular distance AXIS_TOL of the excluded axis raises
    SingularPointError, and an amplitude g/(r*(r +- z)) that is not finite
    (at a tiny or a huge |r|) DomainError.
    """
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
        num, side = g, rmag + z
    else:
        if np.any(theta < AXIS_TOL):
            raise SingularPointError("south patch evaluated on its excluded (+z) axis")
        num, side = -g, rmag - z
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        den = rmag * side
        amp = num / den
    if not (np.all(np.isfinite(den)) and np.all(np.isfinite(amp))):
        raise DomainError(f"the {patch} patch's g/(r*(r +- z)) is not finite "
                          f"for |r| in [{np.min(rmag)}, {np.max(rmag)}]")
    return _azimuthal(arr, amp)


def tube_potential(spec, r):
    """Potential of the uniform flux tube: A = B*(z_hat x r)/2 inside rho <= R,
    pure gauge with azimuthal magnitude 2*g/rho outside. Continuous at rho = R
    and regular everywhere (zero on the axis)."""
    arr = as_vec3(r)
    rho2 = arr[..., 0] ** 2 + arr[..., 1] ** 2
    inside = rho2 <= spec.R**2
    amp = np.where(inside, 2.0 * spec.g / spec.R**2,
                   2.0 * spec.g / np.where(rho2 > 0, rho2, 1.0))
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

    if not np.isfinite(mu) or mu <= 0:
        raise DomainError("proca tube profile requires mu > 0")
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0) or not np.all(np.isfinite(rho)):
        raise DomainError("rho must be finite and > 0")
    out = 2.0 * g * mu**2 * k0(mu * rho)
    return float(out) if out.ndim == 0 else out


def proca_tube_potential(g, mu, r):
    """Vector potential whose curl is the screened tube profile.

    Azimuthal magnitude (2*g/rho)*(1 - mu*rho*K1(mu*rho)); the enclosed flux
    2*pi*rho*A_phi = 4*pi*g*(1 - mu*rho*K1(mu*rho)) climbs to the full 4*pi*g
    once mu*rho >> 1. Regular on the axis (A -> 0 like rho*log(rho)).
    """
    # imported here, not at module level: no CLI command needs scipy.special
    from scipy.special import k1

    if not np.isfinite(mu) or mu <= 0:
        raise DomainError("proca tube potential requires mu > 0")
    arr = as_vec3(r)
    rho2 = arr[..., 0] ** 2 + arr[..., 1] ** 2
    rho = np.sqrt(rho2)
    safe = np.where(rho > 0, rho, 1.0)
    amp = np.where(rho > 0,
                   2.0 * g * (1.0 - mu * safe * k1(mu * safe)) / safe**2,
                   0.0)
    return _azimuthal(arr, amp)

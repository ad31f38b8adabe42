"""Gauge structure around a pole: patch transition functions, the flux
around a circle, and the flux-quantization predicate.

The single-valuedness of the two-patch transition function e^{i*2*q*g*phi}
requires 2*q*g to be an integer; the same condition makes a 4*pi*g flux
string invisible to a charge q and makes the patch mismatch a pure gauge
gradient. The three formulations are exposed as separate predicates that
take their phase from one winding, 2*(q*g), and its distance from the
nearest integer, so they agree as booleans for every finite q and g, not
just generic ones, and refuse together where 2*(q*g) is not finite.

circle_flux is the one integral of A . dl: a periodic trapezoid rule on a
circle. A cap's flux is the north patch's circulation on its rim, and the
holonomy a charge q picks up around a loop is e^{i*q*flux}.
"""

import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .errors import DomainError, check_count, check_finite, check_positive
from .fields import as_vec3, wu_yang_potential

# Polar-angle band on which both patches are regular and may be compared.
OVERLAP_BAND = (np.pi / 2 - 0.3, np.pi / 2 + 0.3)

DEFAULT_TOL = 1e-9

# circle_flux refuses a finest rule above this many nodes before it builds
# any: at 2^14 `polelab holonomy` takes 6 ms and peaks at 38 MiB RSS (36 MiB
# at the default 256) on a 2-core Xeon, and a few hundred reach rounding
MAX_NODES = 2**14


@dataclass(frozen=True)
class QuantizationReport:
    n_real: float
    n_nearest: int
    residual: float
    satisfied: bool

    def to_dict(self):
        return asdict(self)


def transition_function(q, g, phi):
    """Patch transition factor e^{i*2*q*g*phi} at azimuth phi, formed from
    the fractional part (fmod, exact) of the turns 2*q*g * phi/(2*pi), which
    at phi = 2*pi are 2*q*g itself. Turns that are not finite raise
    DomainError."""
    n_real = _winding(q, g)[0]
    phi = np.asarray(phi, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        turns = n_real * (phi / (2.0 * np.pi))
    check_finite(f"the transition phase 2*q*g*phi/(2*pi), 2*q*g = {n_real},",
                 turns)
    out = np.exp(2j * np.pi * np.fmod(turns, 1.0))
    return complex(out) if out.ndim == 0 else out


def _winding(q, g):
    """2*q*g, its distance from the nearest integer, and that integer. The
    product is formed as 2*(q*g): 2*q alone overflows for a huge q and a
    tiny g, while doubling a finite q*g is exact unless it overflows."""
    n_real = 2.0 * (q * g)
    check_finite(f"2*q*g = {n_real}", n_real)
    n_nearest = int(np.rint(n_real))
    return n_real, abs(n_real - n_nearest), n_nearest


def check_quantization(q, g, tol=DEFAULT_TOL):
    """Report whether 2*q*g is an integer to within tol."""
    check_positive("tol", tol)
    n_real, residual, n_nearest = _winding(q, g)
    return QuantizationReport(
        n_real=n_real,
        n_nearest=n_nearest,
        residual=residual,
        satisfied=bool(residual <= tol),
    )


def string_invisibility(q, g, tol=DEFAULT_TOL):
    """True iff the holonomy e^{i*q*4*pi*g} of the full string flux is trivial.

    The factor is e^{2*pi*i*r}, r the winding's exact distance from its
    nearest integer; reading r back from its argument makes the predicate the
    amplitude-level statement of check_quantization's arithmetic one. tol is
    in winding units (fraction of a full turn), identical to that one's.
    """
    check_positive("tol", tol)
    holonomy = np.exp(2j * np.pi * _winding(q, g)[1])
    residual = abs(np.angle(holonomy)) / (2.0 * np.pi)
    return bool(residual <= tol)


def patch_mismatch(g, point):
    """A_north - A_south at a point of the overlap band.

    The mismatch is the azimuthal vector of magnitude 2*g/(r*sin(theta)),
    i.e. the gradient of 2*g*phi: pure gauge, so it is removable exactly when
    e^{i*2*q*g*phi} is single-valued. Points outside the overlap band raise
    DomainError.
    """
    arr = as_vec3(point)
    rho = np.hypot(arr[..., 0], arr[..., 1])
    theta = np.arctan2(rho, arr[..., 2])
    if np.any(theta < OVERLAP_BAND[0]) or np.any(theta > OVERLAP_BAND[1]):
        raise DomainError("patch mismatch is only defined on the overlap band")
    return wu_yang_potential("north", g, arr) - wu_yang_potential("south", g, arr)


def circle_flux(potential, center, u, v, n0=64, levels=3):
    """Integral of A . dl around the circle center + u cos(t) + v sin(t).

    A(gamma(t)) . gamma'(t) is smooth and 2 pi-periodic, so the trapezoid
    rule in t converges geometrically (Trefethen & Weideman, SIAM Review 56
    (2014) 385). A is evaluated once, at N = n0 * 2^(levels - 1) nodes (at
    most MAX_NODES); every other node gives the rule I(N/2). Returns
    (I(N), |I(N) - I(N/2)|). The potential takes points of shape (N, 3).
    """
    n0, levels = check_count("n0", n0, 3), check_count("levels", levels, 2)
    # in Python ints, and by a shift, so no size of n0 or levels overflows
    if n0 > MAX_NODES >> (levels - 1):
        raise DomainError(f"the finest rule, n0 * 2^(levels - 1), may have "
                          f"at most {MAX_NODES} nodes")
    n = n0 << (levels - 1)
    t = 2.0 * np.pi * np.arange(n) / n
    cos, sin = np.cos(t)[:, None], np.sin(t)[:, None]
    a = potential(center + cos * u + sin * v)
    # each term takes its weight 2 pi / N before the sum, so the sum is the
    # integral, not N times it, and does not overflow where the integral
    # does not
    terms = np.einsum("nc,nc->n", a, cos * v - sin * u) * (2.0 * np.pi / n)
    fine = float(np.sum(terms))
    return fine, abs(fine - 2.0 * float(np.sum(terms[::2])))


def cap_flux(g, theta, r=1.0, n0=64, levels=3):
    """Flux of a pole g through the cap of opening angle theta on the sphere
    of radius r: the north patch's circle_flux around the rim. Each of the
    levels rules doubles the n0 nodes of the one before, and the error
    estimate is the distance between the two finest. g must carry a finite
    string flux 4 pi g, the bound of every cap's flux."""
    if not (r > 0 and 0 < theta < math.pi):
        raise DomainError("a cap needs r > 0 and 0 < theta < pi")
    string_flux = 4.0 * math.pi * float(g)
    check_finite(f"the string flux 4*pi*g = {string_flux}", string_flux)
    pot = partial(wu_yang_potential, "north", g)
    rho = r * math.sin(theta)
    return circle_flux(pot, (0.0, 0.0, r * math.cos(theta)), (rho, 0.0, 0.0),
                       (0.0, rho, 0.0), n0=n0, levels=levels)

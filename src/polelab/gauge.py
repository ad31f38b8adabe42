"""Gauge structure around a pole: patch transition functions, loop holonomy,
and the flux-quantization predicate.

The single-valuedness of the two-patch transition function e^{i*2*q*g*phi}
requires 2*q*g to be an integer; the same condition makes a 4*pi*g flux
string invisible to a charge q and makes the patch mismatch a pure gauge
gradient. The three formulations are exposed as separate predicates that
share one residual definition (distance of 2*q*g from the nearest integer),
so they agree as booleans for every input, not just generic ones.
"""

import math
from dataclasses import asdict, dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import DomainError
from .fields import as_vec3, wu_yang_potential

# Polar-angle band on which both patches are regular and may be compared.
OVERLAP_BAND = (np.pi / 2 - 0.3, np.pi / 2 + 0.3)

DEFAULT_TOL = 1e-9

# refined_circle_flux refuses a largest polygon above this many vertices
# before it builds any: at 2^14 `polelab holonomy` peaks at 93 MiB RSS and
# takes 0.5 s (59 MiB at the default 256) on a 2-core Xeon, and each
# further doubling adds about 35 and then 70 MiB
MAX_POLYGON = 2**14


@dataclass(frozen=True)
class QuantizationReport:
    n_real: float
    n_nearest: int
    residual: float
    satisfied: bool

    def to_dict(self):
        return asdict(self)


def transition_function(q, g, phi):
    """Patch transition factor e^{i*2*q*g*phi} at azimuth phi."""
    phi = np.asarray(phi, dtype=float)
    out = np.exp(2j * q * g * phi)
    return complex(out) if out.ndim == 0 else out


def _winding(q, g):
    """2*q*g, its distance from the nearest integer, and that integer. The
    product is formed as 2*(q*g): 2*q alone overflows for a huge q and a
    tiny g, while doubling a finite q*g is exact unless it overflows."""
    n_real = 2.0 * (q * g)
    if not np.isfinite(n_real):
        raise DomainError(f"2*q*g = {n_real} is not finite")
    n_nearest = int(np.rint(n_real))
    return n_real, abs(n_real - n_nearest), n_nearest


def winding_residual(q, g):
    """Distance of 2*q*g from the nearest integer, with that integer."""
    return _winding(q, g)[1:]


def check_quantization(q, g, tol=DEFAULT_TOL):
    """Report whether 2*q*g is an integer to within tol."""
    if not 0 < tol < np.inf:
        raise DomainError("tol must be finite and > 0")
    n_real, residual, n_nearest = _winding(q, g)
    return QuantizationReport(
        n_real=n_real,
        n_nearest=n_nearest,
        residual=residual,
        satisfied=bool(residual <= tol),
    )


def string_invisibility(q, g, tol=DEFAULT_TOL):
    """True iff the holonomy e^{i*q*4*pi*g} of the full string flux is trivial.

    The winding residual is recovered from the argument of the actual phase
    factor, so the predicate is the amplitude-level statement of the same
    condition check_quantization tests arithmetically. tol is in winding
    units (fraction of a full turn), identical to check_quantization's.
    """
    if not 0 < tol < np.inf:
        raise DomainError("tol must be finite and > 0")
    holonomy = np.exp(1j * q * 4.0 * np.pi * g)
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


# ---------------------------------------------------------------------------
# loops and line integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoopPath:
    """Closed polyline. vertices has shape (N, 3) with first row equal to the
    last."""

    vertices: np.ndarray

    def __post_init__(self):
        arr = as_vec3(self.vertices)
        if arr.ndim != 2 or arr.shape[0] < 4:
            raise DomainError("a closed loop needs at least 3 distinct vertices plus closure")
        if not np.allclose(arr[0], arr[-1], rtol=0.0, atol=1e-12):
            raise DomainError("loop is not closed: first vertex must equal the last")
        object.__setattr__(self, "vertices", arr)


def circle_loop(rho, z=0.0, n=64):
    """n-vertex closed polygon inscribed in the circle of cylindrical radius
    rho at height z."""
    if rho <= 0 or n < 3:
        raise DomainError("circle loop needs rho > 0 and n >= 3")
    ang = 2.0 * np.pi * np.arange(n + 1) / n
    ang[-1] = 0.0  # exact closure
    verts = np.empty((n + 1, 3))
    verts[:, 0] = rho * np.cos(ang)
    verts[:, 1] = rho * np.sin(ang)
    verts[:, 2] = z
    return LoopPath(verts)


@lru_cache(maxsize=16)
def _gl_nodes(order):
    x, w = np.polynomial.legendre.leggauss(order)
    # map from [-1, 1] to [0, 1]
    return 0.5 * (x + 1.0), 0.5 * w


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


def line_integral(potential, loop):
    """Integral of A . dl around the polyline.

    Composite 12-point Gauss-Legendre panels per segment, doubling the panel
    count, at most 8 times, until successive values agree to 1e-13 relative
    to max(1, |value|). Returns (value, error_estimate). The potential must
    accept points of shape (..., 3).
    """
    verts = loop.vertices
    starts, ends = verts[:-1], verts[1:]
    seg = ends - starts  # (S, 3)
    nodes, weights = _gl_nodes(12)

    def value(panels):
        # panel offsets p/panels + node/panels, all segments at once
        offs = (np.arange(panels)[:, None] + nodes[None, :]) / panels  # (P, O)
        pts = starts[:, None, None, :] + offs[None, :, :, None] * seg[:, None, None, :]
        a = potential(pts)  # (S, P, O, 3)
        integrand = np.einsum("spoc,sc->spo", a, seg)
        # the weights, not the sum, take the 1/panels: the sum is then the
        # integral itself, not panels times it, and 1/panels is a power of
        # two, so each term is scaled exactly
        scaled = weights * (1.0 / panels)
        return float(np.sum(integrand * scaled[None, None, :]))

    prev = value(1)
    for doubling in range(1, 9):
        cur = value(2**doubling)
        err = abs(cur - prev)
        prev = cur
        if err <= 1e-13 * max(1.0, abs(cur)):
            break
    return prev, err


def loop_holonomy(potential, loop, q):
    """(e^{i*q*closed-loop integral}, integral) for a charge q.

    The complex factor is the phase a charge picks up around the loop; the
    real number is the enclosed flux as seen through A.
    """
    flux, _ = line_integral(potential, loop)
    return np.exp(1j * q * flux), flux


def refined_circle_flux(potential, rho, z=0.0, n0=64, levels=3):
    """Flux through the smooth circle, extrapolated from inscribed polygons.

    A fixed N-gon's line integral differs from the smooth circle's by
    O(1/N^2), so the values at N, 2N, 4N, ... are Neville-extrapolated in
    1/N^2. Returns (flux, error_estimate). n0 >= 64 keeps the leading
    polygon error small enough for the extrapolation to reach ~1e-10, and
    the largest polygon, n0 * 2^(levels - 1), may have at most MAX_POLYGON
    vertices.
    """
    if levels < 2:
        raise DomainError("refined flux needs at least 2 refinement levels")
    # in Python ints, and by a shift, so no size of n0 or levels overflows
    if n0 > MAX_POLYGON >> (levels - 1):
        raise DomainError(f"the largest polygon, n0 * 2^(levels - 1), may "
                          f"have at most {MAX_POLYGON} vertices")
    ns = [n0 * 2**k for k in range(levels)]
    vals = []
    for n in ns:
        flux, _ = line_integral(potential, circle_loop(rho, z=z, n=n))
        vals.append(flux)
    return _neville_at_zero(1.0 / np.array(ns, dtype=float) ** 2, vals)


def cap_flux(g, theta, r=1.0, n0=64, levels=3):
    """Flux of a pole g through the spherical cap of opening angle theta,
    measured as the extrapolated circle holonomy of the north patch. g must
    carry a finite string flux 4 pi g, the bound of every cap's flux."""
    string_flux = 4.0 * math.pi * float(g)
    if not math.isfinite(string_flux):
        raise DomainError(f"the string flux 4*pi*g = {string_flux} is not "
                          "finite")
    pot = partial(wu_yang_potential, "north", g)
    return refined_circle_flux(pot, r * np.sin(theta), z=r * np.cos(theta),
                               n0=n0, levels=levels)

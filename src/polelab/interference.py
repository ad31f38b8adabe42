"""Charged-wave scattering off a flux line: the quantization condition as
an interference null.

A thin solenoid (the return string of a pole, carrying flux 4*pi*g = Phi)
threads a 2-D lattice on which a charged Schroedinger particle propagates.
On the lattice the string is a set of Peierls phases e^{i q Phi} on the
vertical links crossing a half-line cut from the puncture to the boundary;
any loop around the puncture picks up e^{i q Phi} and nothing else, so the
string is exactly invisible iff q*Phi is a multiple of 2*pi. Two executable
consequences:

  * far-field intensity with the string matches free propagation when
    q*Phi in 2*pi*Z, and differs otherwise (invisibility_metric);
  * a two-slit pattern straddling the string shifts by (q*Phi/2*pi) mod 1
    of a fringe period (fringe_shift vs two_path_fringe_shift).

Time stepping is a Strang split of Cayley (Crank-Nicolson) half-steps,
x(dt/2) y(dt) x(dt/2). Each axis has one free factor 1 + A, A = i tau H/2
with H the Hermitian hopping tridiagonal, prefactored once; a step applies
(1 + A)^-1 (1 - A) = 2 (1 + A)^-1 - 1, which is exactly unitary, and the
split is second order in dt. The flux line's cut is a pure gauge shift on
the open y chains it crosses: the phased-link y step equals U^dag Y U, with
Y the free step and U = e^{i q Phi} on the rows past the cut in the cut's
columns, so the string costs two diagonal multiplies and no second factor.
Open boundaries are faked by a cosine-ramp absorbing sponge, disabled for
norm accounting.
"""

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import DomainError, StabilityError

MIN_GRID = 64
DEFAULT_SPONGE_FRACTION = 0.10
DEFAULT_SPONGE_STRENGTH = 0.5


def two_path_fringe_shift(q, flux):
    """Fringe displacement, as a fraction of one period, for a two-path
    interferometer enclosing the given flux: ((q*flux / 2*pi) mod 1)."""
    q = float(q)
    flux = float(flux)
    if not (np.isfinite(q) and np.isfinite(flux)):
        raise DomainError("q and flux must be finite")
    return (q * flux / (2.0 * np.pi)) % 1.0


@dataclass
class WaveGrid:
    """2-D wavefunction sample: psi[ix, iy] at x = ix*h, y = iy*h."""

    psi: np.ndarray
    h: float
    m: float
    dt: float

    def __post_init__(self):
        psi = np.asarray(self.psi)
        if psi.ndim != 2:
            raise DomainError("psi must be a 2-D array")
        if psi.shape[0] < MIN_GRID or psi.shape[1] < MIN_GRID:
            raise DomainError(f"grid must be at least {MIN_GRID} x {MIN_GRID}")
        if not all(np.isfinite(v) and v > 0
                   for v in (self.h, self.m, self.dt)):
            raise DomainError("h, m, dt must be finite and > 0")
        self.psi = np.array(psi, dtype=np.complex128, order="C")

    @property
    def nx(self):
        return self.psi.shape[0]

    @property
    def ny(self):
        return self.psi.shape[1]

    def norm(self):
        """sqrt(sum |psi|^2 h^2), the discrete L2 norm."""
        return float(np.sqrt(np.sum(np.abs(self.psi) ** 2)) * self.h)

    def intensity(self):
        return np.abs(self.psi) ** 2

    def copy(self):
        return replace(self, psi=self.psi.copy())


@dataclass(frozen=True)
class FluxLine:
    """Flux tube puncturing the plane at `position`, seen by charge q.

    cut selects the gauge: the half-line of phased links runs from the
    puncture toward +x or -x. Physics must not depend on the choice when
    q*flux is a multiple of 2*pi; that is the point.
    """

    position: tuple
    flux: float
    charge: float
    cut: str = "+x"

    def __post_init__(self):
        if len(self.position) != 2:
            raise DomainError("position must be a 2-D point")
        if not all(np.isfinite(p) for p in self.position):
            raise DomainError("position must be finite")
        if not (np.isfinite(self.flux) and np.isfinite(self.charge)):
            raise DomainError("flux and charge must be finite")
        if self.cut not in ("+x", "-x"):
            raise DomainError("cut must be '+x' or '-x'")
        object.__setattr__(self, "position", (float(self.position[0]),
                                              float(self.position[1])))


def make_wave_grid(nx, ny, h=1.0, m=1.0, dt=0.4):
    return WaveGrid(psi=np.zeros((nx, ny), dtype=np.complex128), h=h, m=m, dt=dt)


def gaussian_packet(grid, center, width, momentum):
    """Fill grid.psi with a normalized Gaussian exp(-|r-c|^2/(2 w^2) + i k.r)."""
    if width < 8.0 * grid.h:
        raise DomainError("packet width must be at least 8 lattice spacings")
    x = grid.h * np.arange(grid.nx)[:, None]
    y = grid.h * np.arange(grid.ny)[None, :]
    cx, cy = center
    kx, ky = momentum
    env = np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * width**2))
    grid.psi = (env * np.exp(1j * (kx * x + ky * y))).astype(np.complex128)
    grid.psi /= grid.norm()
    return grid


def two_gaussian_packet(grid, center, separation, width, momentum):
    """Coherent pair of Gaussians split by `separation` along y: a two-slit
    source aimed along the momentum direction."""
    cx, cy = center
    a = grid.copy()
    gaussian_packet(a, (cx, cy + 0.5 * separation), width, momentum)
    b = grid.copy()
    gaussian_packet(b, (cx, cy - 0.5 * separation), width, momentum)
    grid.psi = a.psi + b.psi
    grid.psi /= grid.norm()
    return grid


# ---------------------------------------------------------------------------
# propagation engine
# ---------------------------------------------------------------------------

class _Tridiag:
    """Prefactored complex tridiagonal solve (LAPACK gttrf/gttrs)."""

    def __init__(self, lower, diag, upper):
        gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"),
                                        (np.empty(0, dtype=np.complex128),))
        dl, d, du, du2, ipiv, info = gttrf(lower, diag, upper)
        if info != 0:
            raise RuntimeError(f"tridiagonal factorization failed (info={info})")
        self._args = (dl, d, du, du2, ipiv)
        self._gttrs = gttrs

    def solve(self, b):
        x, info = self._gttrs(*self._args, b)
        if info != 0:
            raise RuntimeError(f"tridiagonal solve failed (info={info})")
        return x

    def cayley(self, b):
        """For this matrix 1 + A: (1 + A)^-1 (1 - A) b = 2 (1 + A)^-1 b - b.

        b is (n, nrhs) and stays intact; Fortran order spares gttrs a
        reordering copy.
        """
        x = self.solve(b)
        x *= 2.0
        x -= b
        return x


def _free_factor(n, tau, m, h):
    """1 + i tau H/2 for the free hopping Hamiltonian of an open n-chain."""
    alpha = tau / (4.0 * m * h * h)
    off = np.full(n - 1, -1j * alpha)
    return _Tridiag(off, np.full(n, 1.0 + 2j * alpha), off)


def _check_stability(grid):
    # Cayley factors are unitary for any dt, but the per-step phase error at
    # the band edge (E_max = 4/(m h^2) in 2-D) is O(1) once dt exceeds
    # m h^2 / 2; past that the step no longer resolves the dynamics at all.
    limit = 0.5 * grid.m * grid.h**2
    if grid.dt > limit:
        raise StabilityError(
            f"dt = {grid.dt} exceeds the accuracy bound 0.5*m*h^2 = {limit}")


def _snap_cut(grid, line):
    """Puncture snapped to a plaquette center; returns (split_col, j_row).

    Phased vertical links join rows j_row and j_row+1. For cut '+x' they sit
    at columns ix >= split_col; for '-x' at ix < split_col.
    """
    x0, y0 = line.position
    i0 = int(round(x0 / grid.h - 0.5))
    j0 = int(round(y0 / grid.h - 0.5))
    if not (0 <= i0 < grid.nx - 1 and 0 <= j0 < grid.ny - 1):
        raise DomainError("flux line position outside the grid")
    return i0 + 1, j0


def _validate_line_margin(grid, line, sponge_width):
    margin = sponge_width + 2.0 * grid.h
    x0, y0 = line.position
    lx, ly = grid.h * (grid.nx - 1), grid.h * (grid.ny - 1)
    if not (margin < x0 < lx - margin and margin < y0 < ly - margin):
        raise DomainError("flux line must sit inside the grid, clear of the "
                          "boundary sponge")


def _sponge_mask(grid, fraction, strength):
    """Cosine-ramp absorber: per-step amplitude factor, 1 in the interior,
    Fortran-ordered like psi after a step."""

    def ramp(n):
        w = max(int(round(fraction * n)), 2)
        prof = np.ones(n)
        s = np.arange(w) / w           # 0 at the inner edge, 1 at the wall
        damp = np.exp(-grid.dt * strength * 0.5 * (1.0 - np.cos(np.pi * s)))
        prof[:w] = damp[::-1]
        prof[n - w:] = damp
        return prof

    return np.asfortranarray(ramp(grid.nx)[:, None] * ramp(grid.ny)[None, :])


def _propagate(grid, line, steps, sponge, sponge_fraction, sponge_strength):
    if not isinstance(steps, (int, np.integer)) or steps < 0:
        raise DomainError("steps must be a nonnegative integer")
    _check_stability(grid)

    sponge_width = sponge_fraction * grid.h * grid.nx if sponge else 0.0
    # gauge shift U: psi[gauge] *= phase; a free run shifts an empty region
    gauge, phase = (slice(0), slice(0)), 1.0
    if line is not None:
        _validate_line_margin(grid, line, sponge_width)
        split, j0 = _snap_cut(grid, line)
        cols = slice(split, None) if line.cut == "+x" else slice(None, split)
        gauge = (cols, slice(j0 + 1, None))
        phase = np.exp(1j * line.charge * line.flux)

    half_x = _free_factor(grid.nx, grid.dt / 2.0, grid.m, grid.h)
    full_y = _free_factor(grid.ny, grid.dt, grid.m, grid.h)
    mask = _sponge_mask(grid, sponge_fraction, sponge_strength) if sponge else None

    # psi[ix, iy] is Fortran-ordered for the x solves and C-ordered (so
    # psi.T is Fortran-ordered) for the y solve
    psi = np.asfortranarray(grid.psi)
    for _ in range(steps):
        psi = np.ascontiguousarray(half_x.cayley(psi))
        psi[gauge] *= phase
        psi = full_y.cayley(psi.T).T
        psi[gauge] *= np.conj(phase)
        psi = half_x.cayley(np.asfortranarray(psi))
        if mask is not None:
            psi *= mask
    grid.psi = np.ascontiguousarray(psi)
    return grid


def propagate_free(grid, steps, sponge=True,
                   sponge_fraction=DEFAULT_SPONGE_FRACTION,
                   sponge_strength=DEFAULT_SPONGE_STRENGTH):
    """Evolve the grid with no flux line. Mutates and returns grid."""
    return _propagate(grid, None, steps, sponge, sponge_fraction,
                      sponge_strength)


def propagate_with_flux(grid, line, steps, sponge=True,
                        sponge_fraction=DEFAULT_SPONGE_FRACTION,
                        sponge_strength=DEFAULT_SPONGE_STRENGTH):
    """Evolve the grid minimally coupled to the flux line's cut phases.

    The y step runs the free factor between the gauge shift U, which
    multiplies the rows past the cut in the cut's columns by e^{i q flux},
    and its inverse U^dag; that equals the Cayley step of the chain with the
    phased link. With q*flux = 0, U is exactly 1 and the evolution
    reproduces propagate_free bit for bit.
    """
    if line is None:
        raise DomainError("flux line required; use propagate_free otherwise")
    return _propagate(grid, line, steps, sponge, sponge_fraction,
                      sponge_strength)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def invisibility_metric(grid_with_flux, grid_free, x_min=None,
                        exclude_fraction=0.12):
    """Relative L2 distance between the two |psi|^2 fields on the far side
    of the flux line (x >= x_min), excluding the sponge fringe."""
    a, b = grid_with_flux, grid_free
    if a.psi.shape != b.psi.shape:
        raise DomainError("grids must have identical shapes")
    nx, ny = a.nx, a.ny
    if x_min is None:
        x_min = 0.5 * a.h * nx
    i_lo = max(int(math.ceil(x_min / a.h)), 0)
    i_hi = nx - max(int(round(exclude_fraction * nx)), 1)
    j_lo = max(int(round(exclude_fraction * ny)), 1)
    j_hi = ny - j_lo
    if i_lo >= i_hi or j_lo >= j_hi:
        raise DomainError("comparison window is empty")
    ia = a.intensity()[i_lo:i_hi, j_lo:j_hi]
    ib = b.intensity()[i_lo:i_hi, j_lo:j_hi]
    ref = float(np.linalg.norm(ib))
    if ref == 0.0:
        return 0.0
    return float(np.linalg.norm(ia - ib) / ref)


def intensity_slice(grid, x_probe):
    """(y coordinates, |psi|^2) along the grid column nearest x_probe."""
    ix = int(round(x_probe / grid.h))
    if not 0 <= ix < grid.nx:
        raise DomainError("probe column outside the grid")
    y = grid.h * np.arange(grid.ny)
    return y, np.abs(grid.psi[ix, :]) ** 2


def fringe_shift(grid_with_flux, grid_free, x_probe, y_center, window):
    """Measured fringe displacement (fraction of a period, in [0,1)) between
    the two intensity patterns on the probe column.

    The dominant fringe wavenumber is located in the free pattern's spectrum;
    the displacement is the phase advance of that component, so it needs a
    window holding at least a couple of fringe periods.
    """
    if grid_with_flux.psi.shape != grid_free.psi.shape:
        raise DomainError("grids must have identical shapes")
    y, i_a = intensity_slice(grid_with_flux, x_probe)
    _, i_b = intensity_slice(grid_free, x_probe)
    sel = np.abs(y - y_center) <= window
    if np.count_nonzero(sel) < 16:
        raise DomainError("fringe window too narrow")
    wa = i_a[sel] - np.mean(i_a[sel])
    wb = i_b[sel] - np.mean(i_b[sel])
    taper = np.hanning(len(wa))
    fa = np.fft.rfft(wa * taper)
    fb = np.fft.rfft(wb * taper)
    k_star = 1 + int(np.argmax(np.abs(fb[1:])))
    # pattern displaced toward +y by delta shows phase -k*delta at the
    # fringe bin; report the displacement fraction with that sign undone
    dphi = np.angle(fa[k_star]) - np.angle(fb[k_star])
    return float((-dphi / (2.0 * np.pi)) % 1.0)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def save_snapshot(grid, bin_path, meta_path=None):
    """Write |psi|^2 as flat row-major float64 plus a JSON sidecar giving
    shape and spacing. Returns (bin_path, meta_path)."""
    if meta_path is None:
        meta_path = bin_path + ".json"
    intensity = np.ascontiguousarray(grid.intensity(), dtype=np.float64)
    with open(bin_path, "wb") as fh:
        fh.write(intensity.tobytes(order="C"))
    meta = {
        "shape": [int(grid.nx), int(grid.ny)],
        "order": "C",
        "dtype": "float64",
        "h": grid.h,
        "m": grid.m,
        "dt": grid.dt,
    }
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return bin_path, meta_path


def load_snapshot(bin_path, meta_path=None):
    """Inverse of save_snapshot: returns (intensity array, metadata dict)."""
    if meta_path is None:
        meta_path = bin_path + ".json"
    with open(meta_path) as fh:
        meta = json.load(fh)
    if meta.get("dtype") != "float64" or meta.get("order") != "C":
        raise DomainError("unsupported snapshot encoding")
    shape = tuple(meta["shape"])
    expected = shape[0] * shape[1] * 8
    size = os.path.getsize(bin_path)
    if size != expected:
        raise DomainError(f"snapshot size {size} does not match shape {shape}")
    data = np.fromfile(bin_path, dtype=np.float64).reshape(shape)
    return data, meta


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterferenceConfig:
    """Geometry of the canonical runs; lengths in units of h."""

    nx: int = 512
    ny: int = 512
    h: float = 1.0
    m: float = 1.0
    dt: float = 0.4
    k: float = 0.9                  # carrier momentum along +x
    packet_width: float = 10.0
    slit_separation: float = 100.0
    source_x_fraction: float = 0.22
    flux_x_fraction: float = 0.50
    probe_x_fraction: float = 0.78
    fringe_window: float = 0.0      # 0: auto, a fixed fraction of the slit gap
    sponge_fraction: float = DEFAULT_SPONGE_FRACTION
    sponge_strength: float = DEFAULT_SPONGE_STRENGTH
    steps: int = 0                  # 0: derive from the group velocity

    def geometry(self):
        lx = self.h * self.nx
        ly = self.h * self.ny
        src = (self.source_x_fraction * lx, 0.5 * ly)
        flux_pos = (self.flux_x_fraction * lx, 0.5 * ly)
        probe_x = self.probe_x_fraction * lx
        return src, flux_pos, probe_x

    def resolved_steps(self):
        if self.steps:
            return int(self.steps)
        v_g = math.sin(self.k * self.h) / (self.m * self.h)
        src, _, probe_x = self.geometry()
        travel = probe_x - src[0]
        return int(math.ceil(travel / (v_g * self.dt)))


def run_invisibility(q, flux, config=None, cut="+x"):
    """Propagate one packet head-on at the flux line, with and without it.

    Returns a dict with the far-field metric, the free-run norm drift, and
    the run geometry.
    """
    cfg = config or InterferenceConfig()
    src, flux_pos, probe_x = cfg.geometry()
    # the grid rejects a non-finite h, m or dt before the step count uses it
    grid0 = make_wave_grid(cfg.nx, cfg.ny, cfg.h, cfg.m, cfg.dt)
    steps = cfg.resolved_steps()
    gaussian_packet(grid0, src, cfg.packet_width, (cfg.k, 0.0))

    free = grid0.copy()
    propagate_free(free, steps, sponge_fraction=cfg.sponge_fraction,
                   sponge_strength=cfg.sponge_strength)
    flux_grid = grid0.copy()
    line = FluxLine(position=flux_pos, flux=flux, charge=q, cut=cut)
    propagate_with_flux(flux_grid, line, steps,
                        sponge_fraction=cfg.sponge_fraction,
                        sponge_strength=cfg.sponge_strength)

    x_min = flux_pos[0] + 0.08 * cfg.h * cfg.nx
    metric = invisibility_metric(flux_grid, free, x_min=x_min)
    return {
        "metric": metric,
        "q_flux_over_2pi": (q * flux) / (2.0 * np.pi),
        "steps": steps,
        "probe_x": probe_x,
        "free": free,
        "with_flux": flux_grid,
        "line": line,
    }


def run_fringe(q, flux, config=None, cut="+x"):
    """Two-slit pair straddling the flux line; compares the measured fringe
    displacement against the two-path prediction."""
    cfg = config or InterferenceConfig()
    src, flux_pos, probe_x = cfg.geometry()
    # the grid rejects a non-finite h, m or dt before the step count uses it
    grid0 = make_wave_grid(cfg.nx, cfg.ny, cfg.h, cfg.m, cfg.dt)
    steps = cfg.resolved_steps()
    two_gaussian_packet(grid0, src, cfg.slit_separation, cfg.packet_width,
                        (cfg.k, 0.0))

    free = grid0.copy()
    propagate_free(free, steps, sponge_fraction=cfg.sponge_fraction,
                   sponge_strength=cfg.sponge_strength)
    flux_grid = grid0.copy()
    line = FluxLine(position=flux_pos, flux=flux, charge=q, cut=cut)
    propagate_with_flux(flux_grid, line, steps,
                        sponge_fraction=cfg.sponge_fraction,
                        sponge_strength=cfg.sponge_strength)

    # the two-path loop encloses the puncture only for screen points within
    # about half the slit gap of the axis; keep the window inside that zone
    window = cfg.fringe_window or 0.36 * cfg.slit_separation
    measured = fringe_shift(flux_grid, free, probe_x, 0.5 * cfg.h * cfg.ny,
                            window)
    predicted = two_path_fringe_shift(q, flux)
    err = abs(measured - predicted)
    return {
        "shift_measured": measured,
        "shift_predicted": predicted,
        "circular_error": min(err, 1.0 - err),
        "steps": steps,
        "probe_x": probe_x,
        "free": free,
        "with_flux": flux_grid,
        "line": line,
    }

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

Time stepping is a Strang split of Cayley (Crank-Nicolson) factors,
x(dt/2) y(dt) x(dt/2) per step, with the adjacent x half-steps of
consecutive steps fused: a run of N steps applies, in time order,

    x(dt/2) [y M x(dt)]^(N-1) y M x(dt/2),

2N + 1 solves instead of 3N, and N = 0 applies nothing. M is the sponge's
per-step mask, applied after each y step. Each factor is 1 + A,
A = i tau H/2 with H the Hermitian hopping tridiagonal, prefactored once;
applying it as (1 + A)^-1 (1 - A) = 2 (1 + A)^-1 - 1, the (1,1) Pade
approximant of exp(-i tau H), keeps every factor exactly unitary and the
fused split second order in dt (Strang, SIAM J. Numer. Anal. 5 (1968) 506).
Every factor is a pivot-free Thomas sweep of psi[ix, iy] in place, one
BLAS axpy per line: the x factors over its rows, vectorised over the
columns, and the y factor over its columns, vectorised over the rows, so a
step makes no layout copy. psi is stepped as the leading columns of a
buffer whose rows are ROW_PAD zero entries (64 bytes) longer: with rows of
2^k entries every element of a column would sit a multiple of 4 KiB from
the next, all in one L1 cache set, and the y sweep would evict its own
lines. The pad stays zero, so the x sweeps and the elementwise arithmetic
run over the whole contiguous buffer.

The steps run on 2^s psi, with s chosen so that the l2 norm of 2^s psi
lies just below 2^1000. The scheme is linear and 2^s a power of two, so
every value in the normal range is exactly 2^s times that of the unscaled
run; the factors are unitary and the mask at most 1, so no entry, nor the
scratch 2 (1 + A)^-1 psi, comes near overflow at 2^1024. Unscaled, the
sweeps spread psi into the exact zeros around the packet with tails that
fall about tenfold per site, so every step would make subnormal numbers,
whose arithmetic takes a slow path (Goldberg, ACM Comput. Surv. 23 (1991)
5). Scaled, an entry turns subnormal only 2^1000 times further below the
norm, and only the values that underflowed unscaled change.

The flux line enters only the y factor. On the y chains of the rows its
cut crosses, the link past the puncture carries e^{i q Phi}; there the
factor is U^dag (1 + A) U, with U = e^{i q Phi} on the entries past the
link, so it keeps the free pivots, and its sweep is the free one with the
two updates across the link scaled by e^{-i q Phi} going down and
e^{+i q Phi} going up on those rows. The string thus costs no multiply of
psi and no second factor, and q Phi = 0 leaves every coefficient, and the
run, that of the free one bit for bit. Open boundaries are faked by a
cosine-ramp absorbing sponge, disabled for norm accounting; its mask is
exactly 1 inside a band along the walls, so M multiplies only the band's
four edge slabs.

A WaveGrid is a value: the packet builders and the propagations return a
new grid and never write the one they are given. Both experiments go
through one driver, run_experiment: it checks every flux line, then
propagates the packet free once and once per line, so the free reference
is shared by all lines. measure_invisibility and measure_fringe read the
two consequences off fixed windows of the canonical geometry (module
constants, like the sponge's width and rate). check_fringe_window refuses a
fringe window that the flux barely changes (fringe_sensitivity): there the
geometry forms no two-path interferometer, and every measured shift is
about 0 whatever the flux.
"""

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.blas import get_blas_funcs

from .errors import AccuracyError, DomainError, StabilityError

MIN_GRID = 64
ROW_PAD = 4     # zero columns after each row of the stepped psi: 64 bytes,
                # so a row stride is never a multiple of 4 KiB
SPONGE_FRACTION = 0.10          # absorber width per side, fraction of the grid
SPONGE_STRENGTH = 0.5           # absorption rate at the wall, per unit time
# canonical geometry along x, as fractions of the grid width
SOURCE_X_FRACTION = 0.22
FLUX_X_FRACTION = 0.50
PROBE_X_FRACTION = 0.78
# measurement windows: the far field starts this fraction of the grid width
# past the flux line; the fringe window's half-width is this fraction of the
# slit gap
INVISIBILITY_GAP_FRACTION = 0.08
FRINGE_WINDOW_FRACTION = 0.36
# a fringe window that sees the flux changes by more than this (relative L2)
# for some line whose predicted shift is FRINGE_EXEMPT_SHIFT or more from an
# integer; windows that form no two-path interferometer change by 0.01-0.02
FRINGE_MIN_SENSITIVITY = 0.1
FRINGE_EXEMPT_SHIFT = 0.1
EDGE_EXCLUDE_FRACTION = 0.12    # sponge fringe left out of invisibility_metric


def two_path_fringe_shift(q, flux):
    """Fringe displacement, as a fraction of one period, for a two-path
    interferometer enclosing the given flux: ((q*flux / 2*pi) mod 1)."""
    q = float(q)
    flux = float(flux)
    if not (np.isfinite(q) and np.isfinite(flux)):
        raise DomainError("q and flux must be finite")
    return (q * flux / (2.0 * np.pi)) % 1.0


@dataclass(frozen=True)
class WaveGrid:
    """2-D wavefunction sample: psi[ix, iy] at x = ix*h, y = iy*h. psi is
    held as C-ordered complex128, taken without a copy when it is one."""

    psi: np.ndarray
    h: float
    m: float
    dt: float

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=np.complex128, order="C")
        if psi.ndim != 2:
            raise DomainError("psi must be a 2-D array")
        if psi.shape[0] < MIN_GRID or psi.shape[1] < MIN_GRID:
            raise DomainError(f"grid must be at least {MIN_GRID} x {MIN_GRID}")
        if not all(np.isfinite(v) and v > 0
                   for v in (self.h, self.m, self.dt)):
            raise DomainError("h, m, dt must be finite and > 0")
        object.__setattr__(self, "psi", psi)

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
    """The normalized Gaussian exp(-|r-c|^2/(2 w^2) + i k.r) on a grid like
    `grid`."""
    if width < 8.0 * grid.h:
        raise DomainError("packet width must be at least 8 lattice spacings")
    x = grid.h * np.arange(grid.nx)[:, None]
    y = grid.h * np.arange(grid.ny)[None, :]
    cx, cy = center
    kx, ky = momentum
    # the envelope is multiplied into the phase in place, so no third
    # grid-sized array is live at once
    psi = np.exp(1j * (kx * x + ky * y))
    psi *= np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * width**2))
    packet = replace(grid, psi=psi)
    norm = packet.norm()
    if not norm > 0:
        raise DomainError(f"packet norm {norm} on the grid; the packet must "
                          "overlap the grid")
    psi /= norm
    return packet


def two_gaussian_packet(grid, center, separation, width, momentum):
    """Coherent pair of Gaussians split by `separation` along y: a two-slit
    source aimed along the momentum direction."""
    cx, cy = center
    psi = gaussian_packet(grid, (cx, cy + 0.5 * separation), width,
                          momentum).psi
    psi += gaussian_packet(grid, (cx, cy - 0.5 * separation), width,
                           momentum).psi
    pair = replace(grid, psi=psi)
    psi /= pair.norm()
    return pair


# ---------------------------------------------------------------------------
# propagation engine
# ---------------------------------------------------------------------------

def _rows(a, row):
    """The whole rows of the C-ordered buffer whose leading columns are a:
    a.shape[0] rows of `row` entries, pad columns included."""
    return np.lib.stride_tricks.as_strided(a, (a.shape[0], row))


class _Thomas:
    """Factor 1 + A of an open n-chain, A = i tau H/2, as a pivot-free LU
    (Thomas), applied along one axis of a row-major 2-D array.

    1 + A has d = 1 + 2i alpha on the diagonal and c = -i alpha on both
    off-diagonals, alpha = tau/(4 m h^2). It is strictly diagonally
    dominant (|d| > 2 alpha), so LU without pivoting is stable (Golub & Van
    Loan, Matrix Computations, 4th ed., sec. 4.3). With u_k the pivots,
    w = 2 U^-1 L^-1 b is swept as w_k = (2/u_k) b_k - (c/u_k) w_{k-1} down
    the lines of the axis and back up as w_k -= (c/u_k) w_{k+1}; each line
    update is one BLAS axpy over the flattened array, contiguous for the
    rows (axis 0) and strided by the row stride for the columns (axis 1).

    link = (cut, j, phase) puts a Peierls phase on the bond between lines j
    and j + 1 in the entries `cut` (a slice) of every line. There the
    factor is U^dag (1 + A) U, U = phase on lines j + 1 on, so its LU has
    the same pivots: (U^dag (1 + A) U)^-1 = U^dag (1 + A)^-1 U is the free
    sweep with the update of line j + 1 from line j scaled by conj(phase)
    on the cut entries and that of line j from line j + 1 by phase. A phase
    of exactly 1 leaves every coefficient unchanged.
    """

    def __init__(self, n, tau, m, h, link=None):
        alpha = tau / (4.0 * m * h * h)
        c, d = -1j * alpha, 1.0 + 2j * alpha
        pivots = [d]
        for _ in range(n - 1):
            pivots.append(d - c * c / pivots[-1])
        # zeros past the chain, for the pad columns of a row
        self._scale = np.array([2.0 / u for u in pivots] + [0.0] * ROW_PAD)
        self._coef = [-c / u for u in pivots]
        self._axpy = get_blas_funcs("axpy", (self._scale,))
        # the sweep as (line, line it is updated from, phase across the
        # link on the cut entries or None), down the lines and back up
        self._cut, j, phase = link if link is not None else (None, -1, None)
        self._updates = (
            [(k, k - 1, np.conj(phase) if k == j + 1 else None)
             for k in range(1, n)]
            + [(k, k + 1, phase if k == j else None)
               for k in range(n - 2, -1, -1)])

    def cayley(self, psi, work, axis):
        """psi := (1 + A)^-1 (1 - A) psi = 2 (1 + A)^-1 psi - psi along
        `axis`, in place.

        psi has n entries along `axis`. psi and the scratch work are
        C-ordered, or the leading columns of C-ordered buffers with the row
        stride of psi.strides. psi's remaining pad columns, at most ROW_PAD,
        must be zero and stay zero, so the x sweep and the elementwise
        arithmetic run over the whole buffer.
        """
        axpy, coef = self._axpy, self._coef
        rows, row = psi.shape[0], psi.strides[0] // psi.itemsize
        whole, scratch = _rows(psi, row), _rows(work, row)
        if axis == 0:
            # line k is row k, pad columns and all
            scale, stride, inc, size = self._scale[:rows, None], row, 1, row
        else:
            # line k is column k
            scale, stride, inc, size = self._scale[:row], 1, row, rows
        np.multiply(whole, scale, out=scratch)
        flat = scratch.reshape(-1)
        if self._cut is not None:
            lo, hi, _ = self._cut.indices(size)
        for dst, src, phase in self._updates:
            a = coef[dst]
            if phase is None:
                axpy(flat, flat, size, a, src * stride, inc, dst * stride,
                     inc)
                continue
            for first, end, w in ((0, lo, a), (lo, hi, a * phase),
                                  (hi, size, a)):
                if end > first:
                    axpy(flat, flat, end - first, w,
                         src * stride + first * inc, inc,
                         dst * stride + first * inc, inc)
        np.subtract(scratch, whole, out=whole)


def _check_stability(grid):
    # Cayley factors are unitary for any dt, but the per-step phase error at
    # the band edge (E_max = 4/(m h^2) in 2-D) is O(1) once dt exceeds
    # m h^2 / 2; past that the step no longer resolves the dynamics at all.
    limit = 0.5 * grid.m * grid.h**2
    if grid.dt > limit:
        raise StabilityError(
            f"dt = {grid.dt} exceeds the accuracy bound 0.5*m*h^2 = {limit}")


def _cut_link(grid, line, sponge):
    """Check that the line sits on the grid, clear of the sponge, and return
    its cut as the y factor's link (rows, j0, e^{i q flux}): the puncture
    snaps to the center of the plaquette (i0..i0 + 1, j0..j0 + 1), and in
    the rows of psi the cut crosses, ix > i0 for '+x' and ix <= i0 for
    '-x', the link between columns j0 and j0 + 1 carries the phase. The
    margin of at least 2h keeps i0 and j0 inside the grid."""
    margin = (SPONGE_FRACTION * grid.h * grid.nx if sponge else 0.0) \
        + 2.0 * grid.h
    x0, y0 = line.position
    lx, ly = grid.h * (grid.nx - 1), grid.h * (grid.ny - 1)
    if not (margin < x0 < lx - margin and margin < y0 < ly - margin):
        raise DomainError("flux line must sit inside the grid, clear of the "
                          "boundary sponge")
    i0 = int(round(x0 / grid.h - 0.5))
    j0 = int(round(y0 / grid.h - 0.5))
    cut = slice(i0 + 1, None) if line.cut == "+x" else slice(None, i0 + 1)
    return cut, j0, np.exp(1j * line.charge * line.flux)


def _sponge_width(n):
    return max(int(round(SPONGE_FRACTION * n)), 2)


def _sponge_mask(grid):
    """Cosine-ramp absorber: per-step amplitude factor, 1 in the interior."""

    def ramp(n):
        w = _sponge_width(n)
        prof = np.ones(n)
        s = np.arange(w) / w           # 0 at the inner edge, 1 at the wall
        damp = np.exp(-grid.dt * SPONGE_STRENGTH * 0.5
                      * (1.0 - np.cos(np.pi * s)))
        prof[:w] = damp[::-1]
        prof[n - w:] = damp
        return prof

    return ramp(grid.nx)[:, None] * ramp(grid.ny)[None, :]


def _sponge_band(grid):
    """The sponge mask as [(index, slab)] over its four edge slabs. Inside
    them the mask is exactly 1, so multiplying each psi[index] by its slab
    gives the values of multiplying psi by the whole mask."""
    mask = _sponge_mask(grid)
    wx, wy = _sponge_width(grid.nx), _sponge_width(grid.ny)
    inner = slice(wx, grid.nx - wx)
    return [(index, mask[index].copy()) for index in
            (np.s_[:wx], np.s_[grid.nx - wx:],
             np.s_[inner, :wy], np.s_[inner, grid.ny - wy:])]


def _scale_exponent(psi):
    """The s that puts the l2 norm of 2^s psi in [2^999, 2^1000), clamped
    to 0 <= s <= 1000; 0 when the norm is 0 or not finite."""
    norm = math.sqrt(np.vdot(psi, psi).real)
    if not (math.isfinite(norm) and norm > 0.0):
        return 0
    return min(max(1000 - math.frexp(norm)[1], 0), 1000)


def _propagate(grid, line, steps, sponge):
    """The grid after `steps` fused Strang steps (see the module
    docstring): x(dt/2) [y M x(dt)]^(steps-1) y M x(dt/2), with the line's
    phased link in y when a line is given and M = 1 without the sponge.
    Everything is checked before the first factor; zero steps apply
    nothing. The steps run on 2^s psi, s = _scale_exponent(psi): the copy
    into the stepping buffer multiplies by 2^s and the copy out by 2^-s."""
    if not isinstance(steps, (int, np.integer)) or steps < 0:
        raise DomainError("steps must be a nonnegative integer")
    _check_stability(grid)
    link = _cut_link(grid, line, sponge) if line is not None else None
    if steps == 0:
        return grid

    nx, ny = grid.psi.shape
    half_x = _Thomas(nx, grid.dt / 2.0, grid.m, grid.h)
    full_x = _Thomas(nx, grid.dt, grid.m, grid.h)
    full_y = _Thomas(ny, grid.dt, grid.m, grid.h, link)
    band = _sponge_band(grid) if sponge else []

    # psi is stepped in place as the leading columns of a zero-padded
    # buffer, work is the one scratch array
    s = _scale_exponent(grid.psi)
    psi = np.zeros((nx, ny + ROW_PAD), dtype=np.complex128)[:, :ny]
    np.multiply(grid.psi, 2.0**s, out=psi)
    work = np.empty((nx, ny + ROW_PAD), dtype=np.complex128)[:, :ny]
    half_x.cayley(psi, work, 0)
    for step in range(1, steps + 1):
        full_y.cayley(psi, work, 1)
        for index, slab in band:
            psi[index] *= slab
        (full_x if step < steps else half_x).cayley(psi, work, 0)
    del work
    return replace(grid, psi=np.multiply(psi, 2.0**-s, order="C"))


def propagate_free(grid, steps, sponge=True):
    """The grid evolved with no flux line."""
    return _propagate(grid, None, steps, sponge)


def propagate_with_flux(grid, line, steps, sponge=True):
    """The grid evolved minimally coupled to the flux line's cut phases.

    Each of the fused run's y steps is the Cayley step of the y chains
    with the cut's phased link, swept as the free factor gauged by U, which
    multiplies the entries past the link in the rows the cut crosses by
    e^{i q flux}. The x factors and the sponge mask, applied after each y
    step, are those of propagate_free. With q*flux = 0 the phase is exactly
    1 and the evolution reproduces propagate_free bit for bit.
    """
    if line is None:
        raise DomainError("flux line required; use propagate_free otherwise")
    return _propagate(grid, line, steps, sponge)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def invisibility_metric(grid_with_flux, grid_free, x_min):
    """Relative L2 distance between the two |psi|^2 fields on the far side
    of the flux line (x >= x_min), excluding the sponge fringe."""
    a, b = grid_with_flux, grid_free
    if a.psi.shape != b.psi.shape:
        raise DomainError("grids must have identical shapes")
    nx, ny = a.nx, a.ny
    i_lo = max(int(math.ceil(x_min / a.h)), 0)
    i_hi = nx - max(int(round(EDGE_EXCLUDE_FRACTION * nx)), 1)
    j_lo = max(int(round(EDGE_EXCLUDE_FRACTION * ny)), 1)
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


def _fringe_window(grid_with_flux, grid_free, x_probe, y_center, window):
    """The two |psi|^2 patterns on the probe column within window of
    y_center."""
    if grid_with_flux.psi.shape != grid_free.psi.shape:
        raise DomainError("grids must have identical shapes")
    y, i_a = intensity_slice(grid_with_flux, x_probe)
    _, i_b = intensity_slice(grid_free, x_probe)
    sel = np.abs(y - y_center) <= window
    if np.count_nonzero(sel) < 16:
        raise DomainError("fringe window too narrow")
    return i_a[sel], i_b[sel]


def fringe_shift(grid_with_flux, grid_free, x_probe, y_center, window):
    """Measured fringe displacement (fraction of a period, in [0,1)) between
    the two intensity patterns on the probe column.

    The dominant fringe wavenumber is located in the free pattern's spectrum;
    the displacement is the phase advance of that component, so it needs a
    window holding at least a couple of fringe periods.
    """
    i_a, i_b = _fringe_window(grid_with_flux, grid_free, x_probe, y_center,
                              window)
    wa = i_a - np.mean(i_a)
    wb = i_b - np.mean(i_b)
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

def save_snapshot(grid, bin_path):
    """Write |psi|^2 as flat row-major float64 plus a JSON sidecar giving
    shape and spacing, meta_path = bin_path + ".json". Returns both paths."""
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


def load_snapshot(bin_path):
    """Inverse of save_snapshot: returns (intensity array, metadata dict)."""
    with open(bin_path + ".json") as fh:
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
    """Size, packet and step count of the canonical runs; lengths in units
    of h. The source, flux line and probe sit at fixed fractions of the grid
    width (SOURCE_X_FRACTION, FLUX_X_FRACTION, PROBE_X_FRACTION)."""

    nx: int = 512
    ny: int = 512
    h: float = 1.0
    m: float = 1.0
    dt: float = 0.4
    k: float = 0.9                  # carrier momentum along +x
    packet_width: float = 10.0
    slit_separation: float = 100.0
    steps: int = 0                  # 0: derive from the group velocity

    def geometry(self):
        lx = self.h * self.nx
        ly = self.h * self.ny
        src = (SOURCE_X_FRACTION * lx, 0.5 * ly)
        flux_pos = (FLUX_X_FRACTION * lx, 0.5 * ly)
        probe_x = PROBE_X_FRACTION * lx
        return src, flux_pos, probe_x

    def resolved_steps(self):
        if self.steps:
            return int(self.steps)
        v_g = math.sin(self.k * self.h) / (self.m * self.h)
        advance = v_g * self.dt
        if not (math.isfinite(advance) and advance > 0):
            raise DomainError(f"group velocity * dt = {advance}; it must be "
                              "finite and > 0 to derive the step count")
        src, _, probe_x = self.geometry()
        return int(math.ceil((probe_x - src[0]) / advance))

    def flux_line(self, flux, charge, cut="+x"):
        """A flux line at the canonical puncture, mid-grid."""
        return FluxLine(position=self.geometry()[1], flux=flux, charge=charge,
                        cut=cut)


def run_experiment(config, packet, lines):
    """Propagate one packet free and once along each flux line.

    packet is "single", one Gaussian aimed head-on at the lines, or
    "two_slit", a coherent pair straddling them. The grid, the step count,
    every line and the packet are checked before the first step. All runs
    start from the same packet; returns (free grid, [grid per line]) in line
    order.
    """
    # the grid rejects a non-finite h, m or dt before the step count uses it
    grid = make_wave_grid(config.nx, config.ny, config.h, config.m,
                          config.dt)
    steps = config.resolved_steps()
    for line in lines:
        _cut_link(grid, line, sponge=True)
    src, _, _ = config.geometry()
    if packet == "single":
        grid = gaussian_packet(grid, src, config.packet_width,
                               (config.k, 0.0))
    elif packet == "two_slit":
        grid = two_gaussian_packet(grid, src, config.slit_separation,
                                   config.packet_width, (config.k, 0.0))
    else:
        raise DomainError("packet must be 'single' or 'two_slit'")
    return propagate_free(grid, steps), [
        propagate_with_flux(grid, line, steps) for line in lines]


def measure_invisibility(config, grid_with_flux, grid_free):
    """invisibility_metric over the far field: x beyond the flux line by
    INVISIBILITY_GAP_FRACTION of the grid width."""
    _, flux_pos, _ = config.geometry()
    x_min = flux_pos[0] + INVISIBILITY_GAP_FRACTION * config.h * config.nx
    return invisibility_metric(grid_with_flux, grid_free, x_min=x_min)


def _fringe_probe(config):
    """(x_probe, y_center, window) of the fringe measurement. The two-path
    loop encloses the puncture only for screen points within about half the
    slit gap of the axis; the window stays inside that zone."""
    _, _, probe_x = config.geometry()
    return (probe_x, 0.5 * config.h * config.ny,
            FRINGE_WINDOW_FRACTION * config.slit_separation)


def measure_fringe(config, line, grid_with_flux, grid_free):
    """Fringe displacement of a two-slit run on the probe column against the
    two-path prediction for the line: (predicted, measured, circular error),
    all fractions of a period."""
    measured = fringe_shift(grid_with_flux, grid_free, *_fringe_probe(config))
    predicted = two_path_fringe_shift(line.charge, line.flux)
    err = abs(measured - predicted)
    return predicted, measured, min(err, 1.0 - err)


def fringe_sensitivity(config, grid_with_flux, grid_free):
    """||I_line - I_free|| / ||I_free|| on measure_fringe's window: how much
    the line changes the pattern that the fringe shift is read from."""
    i_a, i_b = _fringe_window(grid_with_flux, grid_free,
                              *_fringe_probe(config))
    ref = float(np.linalg.norm(i_b))
    if ref == 0.0:
        return 0.0
    return float(np.linalg.norm(i_a - i_b) / ref)


def check_fringe_window(lines, sensitivities):
    """Raise AccuracyError unless the fringe window sees the flux: the
    largest fringe_sensitivity over the lines whose predicted shift lies
    FRINGE_EXEMPT_SHIFT or more from an integer must reach
    FRINGE_MIN_SENSITIVITY. Lines with q*flux near 2*pi*Z are exempt, since
    physics makes them invisible. A window that fails measures a shift of
    about 0 for every flux: the geometry forms no two-path interferometer
    (a slit gap too wide for the grid, say)."""
    seen = []
    for line, sensitivity in zip(lines, sensitivities):
        shift = two_path_fringe_shift(line.charge, line.flux)
        if min(shift, 1.0 - shift) >= FRINGE_EXEMPT_SHIFT:
            seen.append(sensitivity)
    if seen and max(seen) < FRINGE_MIN_SENSITIVITY:
        raise AccuracyError(
            f"fringe window does not see the flux: sensitivity {max(seen):.3g}"
            f" < {FRINGE_MIN_SENSITIVITY}; the geometry forms no two-path "
            "interferometer (try a smaller slit_separation)")

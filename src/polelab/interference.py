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
    q*Phi in 2*pi*Z, and differs otherwise (measure_invisibility);
  * a two-slit pattern straddling the string shifts by (q*Phi/2*pi) mod 1
    of a fringe period (measure_fringe vs two_path_fringe_shift).

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
Every factor is a pivot-free Thomas sweep of psi[ix, iy] in place, a BLAS
axpy per line update: the x factors over its rows, vectorised over the
columns, and the y factor over its columns, vectorised over the rows, so a
step makes no layout copy. Each propagation binds its three factors to its
two buffers once: binding lists every axpy call of the sweep with its
operands, and each step replays the lists, so the per-line work left in
Python is one call from a prepared argument tuple. psi is stepped as the
leading columns of a buffer whose rows are ROW_PAD zero entries (64 bytes)
longer: with rows of 2^k entries every element of a column would sit a
multiple of 4 KiB from the next, all in one L1 cache set, and the y sweep
would evict its own lines. The pad stays zero, so the x sweeps and the
elementwise arithmetic run over the whole contiguous buffer.

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

A WaveGrid is a value: gaussian_packet, the one packet builder, and the
propagations return a new grid and never write the one they are given.
Each input is checked where it enters: _check_lattice the sides, h, m, dt
and the bound dt <= m h^2/2, for a WaveGrid and for the InterferenceConfig
it is made from; FluxLine its position, cut and q*flux; InterferenceConfig
its step count; _check_packet a packet's width, carrier phase and centres
for gaussian_packet and the config, at packet_centers' single packet and,
in fringe_window, its two slits; _cut_link the line's place.
Both experiments go through run_experiment alone: it propagates the
packet free once and once per line, so the free reference is shared by
all lines, and returns an ExperimentStats. These runs are independent, so
they run in parallel, one worker process per CPU at most, forked for the
call (so Linux only). The workers inherit the packet and the lines' cuts
rather than receive them, and each writes its result into its own slot of
one anonymous shared memory map; the returned grids are views of the
slots, so no grid is pickled either way. Each worker reports only the norm
its run's sponge absorbed, which the stats collect.

The canonical geometry (module constants, like the sponge's width and
rate) places everything that is read, and InterferenceConfig alone turns
it into grid indices: probe_column, the one rounding of the probe's x;
invisibility_window, the far field past the flux line that
measure_invisibility compares; and fringe_window, the rows of the probe
column that measure_fringe reads, which refuses a window of fewer than 16
rows. All three are functions of the config alone, so a caller can refuse
a window before any propagation, and each reader refuses a grid of
another shape than the config's. intensity_slice reads the probe column.
measure_fringe reads every line of one experiment through its window in
one pass into a FringeReading. check_fringe_window judges a reading by
itself: it refuses a fringe window that the flux barely changes (the
reading's sensitivity, for the lines whose predicted shift in the
reading's table is not near an integer): there the geometry forms no
two-path interferometer, and every measured shift is about 0 whatever the
flux. It also refuses a window whose fringe bin k* is not near the periods
it spans: there the free pattern's strongest bin is its envelope, not a
fringe.
"""

import json
import math
import mmap
import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import starmap
from typing import NamedTuple

import numpy as np

from .errors import (AccuracyError, DomainError, StabilityError, check_count,
                     check_finite, check_positive)

MIN_GRID = 64
# one 4096^2 grid is 256 MiB and a propagation holds four such arrays;
# larger sides are refused before anything is allocated
MAX_GRID = 4096
# a step takes about 0.16 ms on a 64^2 grid and 5.7 ms on the default 512^2
# one (2-core Xeon), so a propagation of this many steps, over 100 times the
# default run's 916, takes 16 s and 10 min there; more are refused before
# any worker starts
MAX_STEPS = 100_000
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
# a fringe window reads its phases at a fringe bin k* within this many bins
# of the periods it spans (window_periods): of 50 slit gaps measured on
# 128^2, 256^2 and 512^2 grids, the 30 that read every shift to 0.13 or
# better have k* at most 0.871 from it, and the 20 that read the free
# pattern's envelope at k* = 1 (errors 0.49-0.50) at least 0.948
FRINGE_MAX_BIN_OFFSET = 0.9
EDGE_EXCLUDE_FRACTION = 0.12    # sponge fringe left out of invisibility_window


def two_path_fringe_shift(q, flux):
    """Fringe displacement, as a fraction of one period, for a two-path
    interferometer enclosing the given flux: ((q*flux / 2*pi) mod 1)."""
    phase = float(q) * float(flux)
    check_finite("q * flux", phase)
    return (phase / (2.0 * np.pi)) % 1.0


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
        _check_lattice(*psi.shape, self.h, self.m, self.dt)
        object.__setattr__(self, "psi", psi)

    @property
    def nx(self):
        return self.psi.shape[0]

    @property
    def ny(self):
        return self.psi.shape[1]

    def norm(self):
        """sqrt(sum |psi|^2 h^2), the discrete L2 norm."""
        return float(np.sqrt(np.sum(self.intensity())) * self.h)

    def intensity(self):
        """|psi|^2 as a new C-ordered float64 array, squared in place."""
        intensity = np.abs(self.psi)
        return np.square(intensity, out=intensity)


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
        check_finite("position", *self.position)
        check_finite("charge * flux", self.charge * self.flux)
        if self.cut not in ("+x", "-x"):
            raise DomainError("cut must be '+x' or '-x'")
        object.__setattr__(self, "position", (float(self.position[0]),
                                              float(self.position[1])))


def _check_lattice(nx, ny, h, m, dt):
    """The lattice rule of a WaveGrid and of its config: sides in [MIN_GRID,
    MAX_GRID], h, m and dt finite and > 0, and dt <= m h^2 / 2."""
    check_count("grid sides", (nx, ny), MIN_GRID, MAX_GRID)
    check_positive("h, m, dt", h, m, dt)
    # Cayley factors are unitary for any dt, but the per-step phase error at
    # the band edge (E_max = 4/(m h^2) in 2-D) is O(1) once dt exceeds
    # m h^2 / 2; past that the step no longer resolves the dynamics at all
    limit = 0.5 * m * h * h      # inf, not an overflow
    if dt > limit:
        raise StabilityError(f"dt = {dt} exceeds the accuracy bound "
                             f"0.5*m*h^2 = {limit}")


def make_wave_grid(nx, ny, h=1.0, m=1.0, dt=0.4):
    _check_lattice(nx, ny, h, m, dt)
    return WaveGrid(psi=np.zeros((nx, ny), dtype=np.complex128), h=h, m=m, dt=dt)


def _check_packet(lattice, width, momentum, *centers):
    """The packet rule on the lattice (nx, ny, h) of a WaveGrid or a config:
    width >= 8 h with a finite square, k.r and each |r - c|^2 finite on it."""
    if not centers:
        raise DomainError("a packet needs at least one centre")
    if not (width >= 8.0 * lattice.h and math.isfinite(width * width)):
        raise DomainError("packet width must be at least 8 lattice spacings "
                          "and have a finite square")
    kx, ky = momentum
    # k.r and |r - c|^2 are largest in size at a corner of the grid
    corners = [(x, y) for x in (0.0, lattice.h * (lattice.nx - 1))
               for y in (0.0, lattice.h * (lattice.ny - 1))]
    if not all(math.isfinite(kx * x + ky * y) for x, y in corners):
        raise DomainError("carrier phase k.r is not finite on the grid: the "
                          "momentum is too large")
    if not all(math.isfinite((x - cx) * (x - cx) + (y - cy) * (y - cy))
               for cx, cy in centers for x, y in corners):
        raise DomainError("|r - c|^2 from the packet centre is not finite on "
                          "the grid: the centre lies too far from the grid")


def gaussian_packet(grid, width, momentum, *centers):
    """The normalized coherent sum of the Gaussians exp(-|r-c|^2/(2 w^2)
    + i k.r), one per centre c, on a grid like `grid`."""
    _check_packet(grid, width, momentum, *centers)
    kx, ky = momentum
    x = grid.h * np.arange(grid.nx)[:, None]
    y = grid.h * np.arange(grid.ny)[None, :]
    # one carrier e^{i k.r} multiplies the summed envelopes. One centre
    # needs psi and one float scratch alone: the scratch holds k.r, then the
    # envelope, each exp taken in place; later centres go through a second
    # one. Both are dropped before the norm allocates its own
    scratch = np.add(kx * x, ky * y)
    psi = np.multiply(1j, scratch)
    np.exp(psi, out=psi)
    envelope = term = scratch
    for i, (cx, cy) in enumerate(centers):
        term = np.empty_like(envelope) if i == 1 else term
        np.add((x - cx) ** 2, (y - cy) ** 2, out=term)
        np.divide(term, -2.0 * width**2, out=term)
        np.exp(term, out=term)
        if i:
            envelope += term
    psi *= envelope
    del scratch, envelope, term
    packet = replace(grid, psi=psi)
    norm = packet.norm()
    if not norm > 0:
        raise DomainError(f"packet norm {norm} on the grid; the packet must "
                          "overlap the grid")
    psi /= norm
    return packet


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
        # imported here, not at module level: check, fields, holonomy and
        # angmom never load scipy.linalg; run_experiment loads it before its
        # workers fork
        from scipy.linalg.blas import get_blas_funcs
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

    def bind(self, psi, work, axis):
        """The step psi := (1 + A)^-1 (1 - A) psi = 2 (1 + A)^-1 psi - psi
        along `axis`, in place, for these two buffers.

        psi has n entries along `axis`. psi and the scratch work are
        C-ordered, or the leading columns of C-ordered buffers with the row
        stride of psi.strides. psi's remaining pad columns, at most ROW_PAD,
        must be zero and stay zero, so the x sweep and the elementwise
        arithmetic run over the whole buffer. The sweep's axpy calls, with
        their operands, are listed here once; each call of the step replays
        the list. The step holds both buffers.
        """
        rows, row = psi.shape[0], psi.strides[0] // psi.itemsize
        whole, scratch = _rows(psi, row), _rows(work, row)
        if axis == 0:
            # line k is row k, pad columns and all
            scale, stride, inc, size = self._scale[:rows, None], row, 1, row
        else:
            # line k is column k
            scale, stride, inc, size = self._scale[:row], 1, row, rows
        flat = scratch.reshape(-1)
        if self._cut is not None:
            lo, hi, _ = self._cut.indices(size)
        plan = []
        for dst, src, phase in self._updates:
            a = self._coef[dst]
            pieces = ([(0, size, a)] if phase is None else
                      [(0, lo, a), (lo, hi, a * phase), (hi, size, a)])
            plan += [(flat, flat, end - first, w, src * stride + first * inc,
                      inc, dst * stride + first * inc, inc)
                     for first, end, w in pieces if end > first]
        axpy = self._axpy

        def step():
            np.multiply(whole, scale, out=scratch)
            deque(starmap(axpy, plan), maxlen=0)
            np.subtract(scratch, whole, out=whole)

        return step


def _cut_link(grid, line, sponge):
    """Check that the line sits on the grid, clear of the sponge, and return
    its cut as the y factor's link (rows, j0, e^{i q flux}): the puncture
    snaps to the center of the plaquette (i0..i0 + 1, j0..j0 + 1), and in
    the rows of psi the cut crosses, ix > i0 for '+x' and ix <= i0 for
    '-x', the link between columns j0 and j0 + 1 carries the phase. The
    margin along each axis is the sponge's width on that axis plus 2h; the
    2h keeps i0 and j0 inside the grid."""
    sponge_h = SPONGE_FRACTION * grid.h if sponge else 0.0
    mx, my = (sponge_h * n + 2.0 * grid.h for n in (grid.nx, grid.ny))
    x0, y0 = line.position
    lx, ly = grid.h * (grid.nx - 1), grid.h * (grid.ny - 1)
    if not (mx < x0 < lx - mx and my < y0 < ly - my):
        raise DomainError("flux line must sit inside the grid, clear of the "
                          "boundary sponge")
    i0 = int(round(x0 / grid.h - 0.5))
    j0 = int(round(y0 / grid.h - 0.5))
    cut = slice(i0 + 1, None) if line.cut == "+x" else slice(None, i0 + 1)
    return cut, j0, np.exp(1j * line.charge * line.flux)


def _sponge_width(n):
    return max(int(round(SPONGE_FRACTION * n)), 2)


def _sponge_ramp(grid, n):
    """Cosine-ramp absorber along one axis of n sites: per-step amplitude
    factor, 1 in the interior."""
    w = _sponge_width(n)
    prof = np.ones(n)
    s = np.arange(w) / w           # 0 at the inner edge, 1 at the wall
    damp = np.exp(-grid.dt * SPONGE_STRENGTH * 0.5
                  * (1.0 - np.cos(np.pi * s)))
    prof[:w] = damp[::-1]
    prof[n - w:] = damp
    return prof


def _sponge_band(grid):
    """The sponge mask, rx[i] * ry[j] for the two axes' ramps, as
    [(index, slab)] over its four edge slabs. Inside them the mask is
    exactly 1, so multiplying each psi[index] by its slab gives the values
    of multiplying psi by the whole mask; each slab is built from the ramps'
    pieces, with the same single product per element."""
    rx, ry = _sponge_ramp(grid, grid.nx), _sponge_ramp(grid, grid.ny)
    wx, wy = _sponge_width(grid.nx), _sponge_width(grid.ny)
    inner = slice(wx, grid.nx - wx)
    return [(index, rx[index[0], None] * ry[None, index[1]]) for index in
            (np.s_[:wx, :], np.s_[grid.nx - wx:, :],
             np.s_[inner, :wy], np.s_[inner, grid.ny - wy:])]


def _scale_exponent(psi):
    """The s that puts the l2 norm of 2^s psi in [2^999, 2^1000), clamped
    to 0 <= s <= 1000; 0 when the norm is 0 or not finite."""
    norm = math.sqrt(np.vdot(psi, psi).real)
    if not (math.isfinite(norm) and norm > 0.0):
        return 0
    return min(max(1000 - math.frexp(norm)[1], 0), 1000)


def _propagate(grid, link, steps, sponge, out=None):
    """The grid after `steps` fused Strang steps (see the module
    docstring): x(dt/2) [y M x(dt)]^(steps-1) y M x(dt/2), with a line's
    _cut_link in y when one is given and M = 1 without the sponge. Zero
    steps apply nothing. The steps run on 2^s psi, s = _scale_exponent(psi):
    the copy into the stepping buffer multiplies by 2^s and the copy out by
    2^-s. That copy goes into out, a C-ordered array of psi's shape, when
    one is given, and into a new array otherwise; zero steps write nothing."""
    steps = check_count("steps", steps, 0)
    if steps == 0:
        return grid

    nx, ny = grid.psi.shape
    band = _sponge_band(grid) if sponge else []

    # psi is stepped in place as the leading columns of a zero-padded
    # buffer, work is the one scratch array
    s = _scale_exponent(grid.psi)
    psi = np.zeros((nx, ny + ROW_PAD), dtype=np.complex128)[:, :ny]
    np.multiply(grid.psi, 2.0**s, out=psi)
    work = np.empty((nx, ny + ROW_PAD), dtype=np.complex128)[:, :ny]
    half_x = _Thomas(nx, grid.dt / 2.0, grid.m, grid.h).bind(psi, work, 0)
    full_x = _Thomas(nx, grid.dt, grid.m, grid.h).bind(psi, work, 0)
    full_y = _Thomas(ny, grid.dt, grid.m, grid.h, link).bind(psi, work, 1)
    half_x()
    for step in range(1, steps + 1):
        full_y()
        for index, slab in band:
            psi[index] *= slab
        (full_x if step < steps else half_x)()
    # the steps hold work: drop them before the copy out allocates
    del work, half_x, full_x, full_y
    return replace(grid, psi=np.multiply(psi, 2.0**-s, out=out, order="C"))


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
    return _propagate(grid, _cut_link(grid, line, sponge), steps, sponge)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _check_shapes(config, *grids):
    if any(g.psi.shape != (config.nx, config.ny) for g in grids):
        raise DomainError("grids must have identical shapes, the config's")


def _relative_l2(a, b):
    """||a - b|| / ||b||, and 0 when b is 0."""
    ref = float(np.linalg.norm(b))
    if ref == 0.0:
        return 0.0
    return float(np.linalg.norm(a - b) / ref)


def intensity_slice(config, grid):
    """(y coordinates, |psi|^2) along the config's probe column of a grid of
    the config's shape."""
    _check_shapes(config, grid)
    y = grid.h * np.arange(grid.ny)
    return y, np.abs(grid.psi[config.probe_column(), :]) ** 2


def _spectrum(pattern):
    """rfft of the pattern with its mean removed, under a Hann taper."""
    taper = np.hanning(len(pattern))
    return np.fft.rfft((pattern - np.mean(pattern)) * taper)


def _fringe_phase(pattern, free, k_star):
    """Displacement of a window pattern against the free window, as a
    fraction of a period in [0, 1): the phase advance of the pattern's
    component at the free spectrum's fringe bin k_star.

    The window need not hold many fringe periods: lattice_fringe's 256^2
    geometry with a slit gap of 40 holds 1.15 (fringe_window's
    window_periods) and reads every phase at bin k* = 1, and its circular
    errors, 0.038 / 0.008 / 0.028, meet criterion 7's 0.05; the default
    512^2 geometry holds 3.60 periods and reads k* = 3.
    """
    fa = _spectrum(pattern)
    # pattern displaced toward +y by delta shows phase -k*delta at the
    # fringe bin; report the displacement fraction with that sign undone
    dphi = np.angle(fa[k_star]) - np.angle(free[k_star])
    return float((-dphi / (2.0 * np.pi)) % 1.0)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def save_snapshot(grid, bin_path):
    """Write |psi|^2 as flat row-major float64 plus a JSON sidecar giving
    shape and spacing, meta_path = bin_path + ".json". Returns both paths."""
    meta_path = bin_path + ".json"
    with open(bin_path, "wb") as fh:
        fh.write(memoryview(grid.intensity()))
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
    shape = meta.get("shape")
    if not (isinstance(shape, list) and len(shape) == 2):
        raise DomainError(f"snapshot shape {shape} is not two positive ints")
    shape = check_count("snapshot shape", tuple(shape), 1)
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
    width (SOURCE_X_FRACTION, FLUX_X_FRACTION, PROBE_X_FRACTION). The
    lattice, the packet and the step count, given or derived, are checked."""

    nx: int = 512
    ny: int = 512
    h: float = 1.0
    m: float = 1.0
    dt: float = 0.4
    k: float = 0.9                  # carrier momentum along +x
    packet_width: float = 10.0
    slit_separation: float = 100.0
    steps: int = 0                  # 0: derive from the group velocity

    def __post_init__(self):
        _check_lattice(self.nx, self.ny, self.h, self.m, self.dt)
        # k.r finite on the lattice makes k h finite for _steps_to_probe
        _check_packet(self, self.packet_width, (self.k, 0.0),
                      *self.packet_centers("single"))
        count = check_count("steps", self.steps, 0) or self._steps_to_probe()
        if not 0 < count <= MAX_STEPS:
            raise DomainError(
                f"{count} steps; the step count, given or derived from the "
                f"group velocity, must lie in [1, {MAX_STEPS}]")

    def geometry(self):
        lx = self.h * self.nx
        ly = self.h * self.ny
        src = (SOURCE_X_FRACTION * lx, 0.5 * ly)
        flux_pos = (FLUX_X_FRACTION * lx, 0.5 * ly)
        probe_x = PROBE_X_FRACTION * lx
        return src, flux_pos, probe_x

    def packet_centers(self, packet):
        """A packet kind's centres: "single" at the source, "two_slit" at
        two slits slit_separation apart along y, one each side of it."""
        (sx, sy), _, _ = self.geometry()
        if packet == "single":
            return [(sx, sy)]
        if packet == "two_slit":
            half = 0.5 * self.slit_separation
            return [(sx, sy + half), (sx, sy - half)]
        raise DomainError("packet must be 'single' or 'two_slit'")

    def _steps_to_probe(self):
        """The steps at the group velocity sin(k h)/(m h) from the source
        to the probe, unrounded; nan where it does not advance the packet."""
        advance = math.sin(self.k * self.h) / (self.m * self.h) * self.dt
        src, _, probe_x = self.geometry()
        return (probe_x - src[0]) / advance if advance > 0 else math.nan

    def resolved_steps(self):
        return self.steps or math.ceil(self._steps_to_probe())

    def probe_column(self):
        """The grid column nearest the probe: round(probe x / h)."""
        return int(round(self.geometry()[2] / self.h))

    def invisibility_window(self):
        """The far field that measure_invisibility compares, as the index
        window (x slice, y slice) of psi[ix, iy]: x at least INVISIBILITY_GAP_FRACTION of the
        grid width past the flux line, and EDGE_EXCLUDE_FRACTION of each
        side (at least one site) clear of the walls. Both fractions leave it
        non-empty on every grid of MIN_GRID sites or more a side; on the
        default 512^2 grid it is [297:451, 61:451]."""
        _, flux_pos, _ = self.geometry()
        x_min = flux_pos[0] + INVISIBILITY_GAP_FRACTION * self.h * self.nx
        edge_x, edge_y = (max(int(round(EDGE_EXCLUDE_FRACTION * n)), 1)
                          for n in (self.nx, self.ny))
        return np.s_[max(math.ceil(x_min / self.h), 0):self.nx - edge_x,
                     edge_y:self.ny - edge_y]

    def fringe_window(self):
        """The fringe window on the probe column: (probe column ix, the
        window's row indices, window_periods). DomainError if _check_packet
        refuses a slit's packet or the window holds fewer than 16 rows.

        The two-path loop encloses the puncture only for screen points
        within about half the slit gap s of the axis, so the window keeps
        to FRINGE_WINDOW_FRACTION s either side of it. window_periods is
        the window's width, 2 FRINGE_WINDOW_FRACTION s, over the far-field
        fringe period 2 pi L / (k s) of slits s apart seen at the probe a
        distance L past the source: FRINGE_WINDOW_FRACTION k s^2 / (pi L),
        with k the carrier momentum.
        """
        src, _, probe_x = self.geometry()
        gap = self.slit_separation
        _check_packet(self, self.packet_width, (self.k, 0.0),
                      *self.packet_centers("two_slit"))
        y = self.h * np.arange(self.ny)
        rows = np.flatnonzero(np.abs(y - 0.5 * self.h * self.ny)
                              <= FRINGE_WINDOW_FRACTION * gap)
        if len(rows) < 16:
            raise DomainError(f"fringe window too narrow: {len(rows)} rows, "
                              "fewer than 16 (raise slit_separation)")
        # gap * gap is inf where the square overflows; gap**2 would raise
        periods = (FRINGE_WINDOW_FRACTION * self.k * (gap * gap)
                   / (math.pi * (probe_x - src[0])))
        return self.probe_column(), rows, periods

    def flux_line(self, flux, charge, cut=FluxLine.cut):
        """A flux line at the canonical puncture, mid-grid."""
        return FluxLine(position=self.geometry()[1], flux=flux, charge=charge,
                        cut=cut)


class ExperimentStats(NamedTuple):
    """What one run_experiment call did: propagations (free and one per
    line), fused steps in each (at least 1), Cayley solves (2N + 1 per
    propagation of N steps), worker processes, ms_per_step, the call's
    wall time over propagations x steps, and absorbed, 1 - the final norm
    of each propagation of the unit-norm packet, the part the sponge took:
    the free run's first, then one per line. The propagations run in
    parallel, so ms_per_step is below one step's time in one worker."""

    propagations: int
    steps: int
    solves: int
    workers: int
    ms_per_step: float
    absorbed: list


_worker_args = ()   # (packet, steps, links, slots), set in each worker


def _init_worker(*args):
    global _worker_args
    _worker_args = args


def _run_into_slot(i):
    """Propagate run i of the worker's experiment, the free run for i = 0,
    into slot i, and return the norm its sponge absorbed."""
    packet, steps, links, slots = _worker_args
    return 1.0 - _propagate(packet, links[i], steps, True, slots[i]).norm()


def run_experiment(config, packet, lines):
    """Propagate one packet free and once along each flux line.

    packet is a kind of config.packet_centers: "single", one Gaussian aimed
    head-on at the lines, or "two_slit", a coherent pair straddling them.
    The grid, every line's cut and the packet, in that order, are made, and
    so checked, before any worker starts.
    All runs start from the same packet and are independent, so they run in
    parallel, one worker per run and at most one per CPU this process may
    run on, in a pool forked for this call alone. The workers inherit the
    packet, the step count and the cuts, and so never pickle them. Run i
    writes its psi into slot i of one anonymous shared memory map, made
    before the fork, and the returned grids are views of their slots;
    nothing but the run index, the run's absorbed norm and a worker's
    exception crosses a pipe. A run's values are those of the same
    propagation in this process, bit for bit. The pool is shut down, and
    its workers joined, before the call returns or raises. Returns (free
    grid, [grid per line], stats).
    """
    t0 = time.perf_counter()
    grid = make_wave_grid(config.nx, config.ny, config.h, config.m,
                          config.dt)
    links = [None] + [_cut_link(grid, line, sponge=True) for line in lines]
    grid = gaussian_packet(grid, config.packet_width, (config.k, 0.0),
                           *config.packet_centers(packet))
    # fork, not spawn: the workers inherit the packet, the anonymous map and
    # scipy.linalg, which a spawned worker could only get pickled, by name
    # or by importing it again
    import scipy.linalg.blas  # noqa: F401
    runs, steps = len(links), config.resolved_steps()
    workers = min(runs, len(os.sched_getaffinity(0)))
    slots = np.frombuffer(mmap.mmap(-1, runs * grid.psi.nbytes),
                          np.complex128).reshape(runs, *grid.psi.shape)
    with ProcessPoolExecutor(workers,
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_init_worker,
                             initargs=(grid, steps, links, slots)) as pool:
        absorbed = list(pool.map(_run_into_slot, range(runs)))
    free, *grids = [replace(grid, psi=slot) for slot in slots]
    ms = 1e3 * (time.perf_counter() - t0) / (runs * steps)
    return free, grids, ExperimentStats(runs, steps, runs * (2 * steps + 1),
                                        workers, ms, absorbed)


def measure_invisibility(config, grid_with_flux, grid_free):
    """Relative L2 distance between the two |psi|^2 fields in the config's
    invisibility_window; both grids must have the config's shape."""
    _check_shapes(config, grid_with_flux, grid_free)
    window = config.invisibility_window()
    return _relative_l2(np.abs(grid_with_flux.psi[window]) ** 2,
                        np.abs(grid_free.psi[window]) ** 2)


class FringeRow(NamedTuple):
    """One line's row of a FringeReading's table, shifts in periods; the
    names are absim_fringe.csv's header and fringe_table's keys."""
    flux: float
    shift_predicted: float
    shift_measured: float
    circular_error: float


class FringeReading(NamedTuple):
    """What measure_fringe read off one two-slit experiment. Per line, in
    line order: the table's FringeRow and the sensitivity ||I_line -
    I_free|| / ||I_free|| of the window to the line. Then the bin k every
    phase is read at, chosen from the free pattern alone, the window's
    points, and window_periods, the fringe periods the window spans."""

    table: list
    sensitivity: list
    k: int
    window_points: int
    window_periods: float


def measure_fringe(config, lines, grid_free, grids):
    """Read the fringe displacement of each line's two-slit run in the
    config's fringe_window against the two-path prediction, and how much
    the line changes that window: one read and one spectrum of the free
    window, and one read of each line's window for both. Every grid must
    have the config's shape."""
    if len(lines) != len(grids):
        raise DomainError("need one grid per flux line")
    _check_shapes(config, grid_free, *grids)
    ix, rows, periods = config.fringe_window()
    free = np.abs(grid_free.psi[ix, rows]) ** 2
    spectrum = _spectrum(free)
    # the fringe bin k*: the strongest nonzero bin of the free spectrum
    k_star = 1 + int(np.argmax(np.abs(spectrum[1:])))
    table, sensitivity = [], []
    for line, grid in zip(lines, grids):
        pattern = np.abs(grid.psi[ix, rows]) ** 2
        measured = _fringe_phase(pattern, spectrum, k_star)
        predicted = two_path_fringe_shift(line.charge, line.flux)
        err = abs(measured - predicted)
        table.append(FringeRow(line.flux, predicted, measured,
                               min(err, 1.0 - err)))
        sensitivity.append(_relative_l2(pattern, free))
    return FringeReading(table, sensitivity, k_star, len(free), periods)


def check_fringe_window(reading):
    """Raise AccuracyError unless measure_fringe's reading reads fringes
    that see the flux.

    The largest sensitivity over the lines whose predicted shift (from the
    reading's table) lies FRINGE_EXEMPT_SHIFT or more from an integer must
    reach FRINGE_MIN_SENSITIVITY. Lines with q*flux near 2*pi*Z are exempt,
    since physics makes them invisible. A window that fails measures a
    shift of about 0 for every flux: the geometry forms no two-path
    interferometer (a slit gap too wide for the grid, say). Then the fringe
    bin k* must lie within FRINGE_MAX_BIN_OFFSET of window_periods. A
    window that fails reads its phases at the free pattern's envelope
    (k* = 1 where about 2 or 3 periods fit), and its shifts are off by up
    to half a period."""
    seen = [sensitivity for row, sensitivity
            in zip(reading.table, reading.sensitivity)
            if min(row.shift_predicted, 1.0 - row.shift_predicted)
            >= FRINGE_EXEMPT_SHIFT]
    if seen and max(seen) < FRINGE_MIN_SENSITIVITY:
        raise AccuracyError(
            f"fringe window does not see the flux: sensitivity {max(seen):.3g}"
            f" < {FRINGE_MIN_SENSITIVITY}; the geometry forms no two-path "
            "interferometer (try a smaller slit_separation)")
    if abs(reading.k - reading.window_periods) > FRINGE_MAX_BIN_OFFSET:
        raise AccuracyError(
            f"fringe window reads bin k* = {reading.k} but spans "
            f"{reading.window_periods:.3g} fringe periods, more than "
            f"{FRINGE_MAX_BIN_OFFSET} apart: the free pattern's strongest bin "
            "is its envelope, not a fringe (try a smaller slit_separation)")

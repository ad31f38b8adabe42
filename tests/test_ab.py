"""Lattice flux-line interference checks.

The propagation scheme is exactly unitary (Cayley factors), the flux line
enters only through phased links on a half-line cut, and every quantization
statement reduces to e^{i q Phi} = 1 making the cut literally disappear from
the arithmetic. Fringe-measurement mechanics are validated on synthetic
patterns with a known displacement; the full two-slit law on the production
grid runs in the acceptance suite.
"""

import json
import multiprocessing
import os
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from polelab import interference
from polelab.errors import AccuracyError, DomainError, StabilityError
from polelab.interference import (
    FRINGE_MAX_BIN_OFFSET,
    MAX_GRID,
    MAX_STEPS,
    MIN_GRID,
    ExperimentStats,
    FluxLine,
    FringeReading,
    FringeRow,
    InterferenceConfig,
    WaveGrid,
    check_fringe_window,
    gaussian_packet,
    intensity_slice,
    load_snapshot,
    make_wave_grid,
    measure_fringe,
    measure_invisibility,
    propagate_free,
    propagate_with_flux,
    run_experiment,
    save_snapshot,
    two_path_fringe_shift,
)

CFG128 = InterferenceConfig(nx=128, ny=128)


@pytest.fixture(scope="module")
def packet128():
    src, _, _ = CFG128.geometry()
    grid = make_wave_grid(128, 128)
    return gaussian_packet(grid, CFG128.packet_width, (CFG128.k, 0.0), src)


def _flux_run(packet, flux, cut="+x", steps=None):
    return propagate_with_flux(
        packet, CFG128.flux_line(flux, 1.0, cut),
        CFG128.resolved_steps() if steps is None else steps)


# ---------------------------------------------------------------------------
# the two-path prediction
# ---------------------------------------------------------------------------

def test_two_path_fringe_shift_values():
    assert two_path_fringe_shift(1.0, 2.0 * np.pi) == 0.0
    assert two_path_fringe_shift(1.0, 4.0 * np.pi) == 0.0
    assert two_path_fringe_shift(1.0, np.pi) == 0.5
    assert two_path_fringe_shift(0.5, np.pi) == 0.25
    assert two_path_fringe_shift(0.0, 7.13) == 0.0
    assert two_path_fringe_shift(-1.0, np.pi / 2.0) == 0.75
    with pytest.raises(DomainError):
        two_path_fringe_shift(float("nan"), 1.0)
    # each factor is finite, their product is not
    with pytest.raises(DomainError):
        two_path_fringe_shift(1e308, 10.0)


# ---------------------------------------------------------------------------
# propagation invariants
# ---------------------------------------------------------------------------

def test_norm_preserved_without_sponge(packet128):
    g = propagate_free(packet128, 1000, sponge=False)
    assert abs(g.norm() - packet128.norm()) < 1e-8


def test_zero_flux_is_bitwise_free(packet128):
    _, flux_pos, _ = CFG128.geometry()
    free = propagate_free(packet128, 100)
    gauged = propagate_with_flux(packet128, FluxLine(position=flux_pos,
                                                     flux=0.0, charge=1.0),
                                 100)
    assert np.array_equal(free.psi, gauged.psi)


def test_stability_bound_rejects_coarse_dt(packet128):
    # the grid owns the bound dt <= 0.5 * m * h^2: no grid past it is made,
    # so no propagation sees one
    with pytest.raises(StabilityError, match="0.5\\*m\\*h\\^2"):
        replace(packet128, dt=0.6)
    # the config a grid is made from keeps the same bound, so no experiment
    # sees a config past it
    with pytest.raises(StabilityError, match="0.5\\*m\\*h\\^2"):
        replace(CFG128, dt=0.6)
    with pytest.raises(StabilityError):
        make_wave_grid(128, 128, m=0.5, dt=0.26)
    assert make_wave_grid(128, 128, dt=0.5).dt == 0.5
    # the bound of a huge h is inf, not an overflow; of a tiny one 0
    assert make_wave_grid(64, 64, h=1e300).h == 1e300
    with pytest.raises(StabilityError):
        make_wave_grid(64, 64, h=1e-200)


def test_cut_direction_matters_only_when_unquantized(packet128):
    quant_p = _flux_run(packet128, 2.0 * np.pi, "+x")
    quant_m = _flux_run(packet128, 2.0 * np.pi, "-x")
    assert np.abs(quant_p.intensity() - quant_m.intensity()).max() < 1e-10
    # an unquantized string scatters, so which side it leaves the puncture
    # on is observable
    for flux in (np.pi, np.pi / 2.0):
        vis_p = _flux_run(packet128, flux, "+x")
        vis_m = _flux_run(packet128, flux, "-x")
        assert np.abs(vis_p.intensity() - vis_m.intensity()).max() > 1e-4


@pytest.mark.parametrize("cut", ["+x", "-x"])
def test_flux_step_matches_dense_phased_link_reference(cut):
    # the same fused Strang run built densely,
    # x(dt/2) [y x(dt)]^(steps-1) y x(dt/2), with the phased link written
    # into the y Hamiltonian instead of applied as a gauge shift around the
    # free factor; a conjugated phase flips the sign of theta and fails this
    n, dt, steps, theta = 64, 0.4, 12, np.pi / 2.0
    grid = gaussian_packet(make_wave_grid(n, n, dt=dt), 8.0, (0.9, 0.0),
                           (24.0, 32.0))
    line = FluxLine(position=(30.5, 33.5), flux=theta, charge=1.0, cut=cut)
    split, j0 = 31, 33          # puncture at the plaquette (30..31, 33..34)

    def cayley(tau, link=1.0):
        hop = np.diag(np.full(n - 1, -1.0 + 0j), 1)
        hop[j0, j0 + 1] *= link
        ham = (hop + hop.conj().T + 2.0 * np.eye(n)) / 2.0     # m = h = 1
        a = 0.5j * tau * ham
        return np.linalg.solve(np.eye(n) + a, np.eye(n) - a)

    half_x, full_x, free_y = cayley(dt / 2.0), cayley(dt), cayley(dt)
    cut_y = cayley(dt, np.exp(1j * theta))
    cut_cols = np.arange(n) >= split if cut == "+x" else np.arange(n) < split
    psi = half_x @ grid.psi
    for step in range(1, steps + 1):
        psi[~cut_cols] = psi[~cut_cols] @ free_y.T
        psi[cut_cols] = psi[cut_cols] @ cut_y.T
        psi = (full_x if step < steps else half_x) @ psi

    grid = propagate_with_flux(grid, line, steps, sponge=False)
    assert np.abs(grid.psi - psi).max() < 1e-12


def _stepping_layout(a, padded):
    """A copy of a, C-ordered or as the leading columns of a zero-padded
    buffer, the layout _propagate steps psi in."""
    if not padded:
        return a.copy()
    buf = np.zeros((a.shape[0], a.shape[1] + interference.ROW_PAD),
                   dtype=np.complex128)
    buf[:, :a.shape[1]] = a
    return buf[:, :a.shape[1]]


def _pad_is_zero(a):
    return a.base is None or not a.base[:, a.shape[1]:].any()


@pytest.mark.parametrize("padded", [False, True],
                         ids=["contiguous", "padded"])
def test_free_factors_match_dense_cayley(padded):
    # the x factor sweeps the rows of a C-ordered array and the y factor its
    # columns; a non-square grid makes an axis mix-up fail
    nx, ny, tau = 64, 70, 0.4
    rng = np.random.default_rng(7)
    psi = rng.standard_normal((nx, ny)) + 1j * rng.standard_normal((nx, ny))

    def dense(n):
        hop = np.diag(np.full(n - 1, -1.0 + 0j), 1)
        a = 0.25j * tau * (hop + hop.T + 2.0 * np.eye(n))     # m = h = 1
        return np.linalg.solve(np.eye(n) + a, np.eye(n) - a)

    x = _stepping_layout(psi, padded)
    work = _stepping_layout(np.zeros_like(psi), padded)
    interference._Thomas(nx, tau, 1.0, 1.0).bind(x, work, 0)()
    assert np.abs(x - dense(nx) @ psi).max() <= 1e-14
    y = _stepping_layout(psi, padded)
    interference._Thomas(ny, tau, 1.0, 1.0).bind(y, work, 1)()
    assert np.abs(y - psi @ dense(ny).T).max() <= 1e-14
    assert _pad_is_zero(x) and _pad_is_zero(y) and _pad_is_zero(work)


@pytest.mark.parametrize("padded", [False, True],
                         ids=["contiguous", "padded"])
@pytest.mark.parametrize("cut", ["+x", "-x"])
def test_folded_link_is_gauged_free_factor(cut, padded):
    # the y factor with the line's phased link folded into its sweep equals
    # the free factor between the gauge shift U and U^dag, U = e^{i q flux}
    # on the entries past the link in the rows the cut crosses; the +x
    # cut's rows reach row nx, the -x cut's start at row 0
    nx, ny, tau = 64, 70, 0.4
    grid = make_wave_grid(nx, ny, dt=tau)
    line = FluxLine(position=(30.5, 40.5), flux=1.3, charge=1.0, cut=cut)
    link = interference._cut_link(grid, line, sponge=False)
    rows, j0, phase = link
    assert (rows.start, rows.stop) == ((31, None) if cut == "+x"
                                       else (None, 31))
    assert j0 == 40
    rng = np.random.default_rng(11)
    psi = rng.standard_normal((nx, ny)) + 1j * rng.standard_normal((nx, ny))

    explicit = psi.copy()
    explicit[rows, j0 + 1:] *= phase
    interference._Thomas(ny, tau, 1.0, 1.0).bind(
        explicit, np.empty_like(explicit), 1)()
    explicit[rows, j0 + 1:] *= np.conj(phase)

    folded = _stepping_layout(psi, padded)
    work = _stepping_layout(np.zeros_like(psi), padded)
    interference._Thomas(ny, tau, 1.0, 1.0, link).bind(folded, work, 1)()
    assert np.abs(folded - explicit).max() <= 1e-14
    assert _pad_is_zero(folded) and _pad_is_zero(work)


def cayley_by_update(thomas, psi, work, axis):
    """The reference for _Thomas.bind: the same factor applied by one loop
    over the sweep's updates, each axpy call built as it is made."""
    axpy, coef = thomas._axpy, thomas._coef
    rows, row = psi.shape[0], psi.strides[0] // psi.itemsize
    whole = interference._rows(psi, row)
    scratch = interference._rows(work, row)
    if axis == 0:
        scale, stride, inc, size = thomas._scale[:rows, None], row, 1, row
    else:
        scale, stride, inc, size = thomas._scale[:row], 1, row, rows
    np.multiply(whole, scale, out=scratch)
    flat = scratch.reshape(-1)
    if thomas._cut is not None:
        lo, hi, _ = thomas._cut.indices(size)
    for dst, src, phase in thomas._updates:
        a = coef[dst]
        if phase is None:
            axpy(flat, flat, size, a, src * stride, inc, dst * stride, inc)
            continue
        for first, end, w in ((0, lo, a), (lo, hi, a * phase),
                              (hi, size, a)):
            if end > first:
                axpy(flat, flat, end - first, w, src * stride + first * inc,
                     inc, dst * stride + first * inc, inc)
    np.subtract(scratch, whole, out=whole)


def propagate_by_update(grid, line, steps):
    """_propagate's fused sponge run, every factor applied by
    cayley_by_update."""
    nx, ny = grid.psi.shape
    link = (interference._cut_link(grid, line, sponge=True)
            if line is not None else None)
    half_x = interference._Thomas(nx, grid.dt / 2.0, grid.m, grid.h)
    full_x = interference._Thomas(nx, grid.dt, grid.m, grid.h)
    full_y = interference._Thomas(ny, grid.dt, grid.m, grid.h, link)
    s = interference._scale_exponent(grid.psi)
    psi = _stepping_layout(grid.psi * 2.0**s, True)
    work = _stepping_layout(np.zeros_like(grid.psi), True)
    cayley_by_update(half_x, psi, work, 0)
    for step in range(1, steps + 1):
        cayley_by_update(full_y, psi, work, 1)
        for index, slab in interference._sponge_band(grid):
            psi[index] *= slab
        cayley_by_update(full_x if step < steps else half_x, psi, work, 0)
    return psi * 2.0**-s


@pytest.mark.parametrize("padded", [False, True],
                         ids=["contiguous", "padded"])
@pytest.mark.parametrize("axis, cut", [(0, None), (1, None), (1, "+x"),
                                       (1, "-x")],
                         ids=["x", "y", "y+x", "y-x"])
def test_bound_step_replays_the_update_loop(axis, cut, padded):
    # the same axpy calls with the same operands in the same order: equal
    # to the last bit, on the first call and on a replay of the same list;
    # the +x cut's rows reach row nx, the -x cut's start at row 0
    nx, ny, tau = 64, 70, 0.4
    link = None
    if cut is not None:
        line = FluxLine(position=(30.5, 40.5), flux=1.3, charge=1.0, cut=cut)
        link = interference._cut_link(make_wave_grid(nx, ny, dt=tau), line,
                                      sponge=False)
    thomas = interference._Thomas((nx, ny)[axis], tau, 1.0, 1.0, link)
    rng = np.random.default_rng(5)
    psi = rng.standard_normal((nx, ny)) + 1j * rng.standard_normal((nx, ny))
    ref = _stepping_layout(psi, padded)
    ref_work = _stepping_layout(np.zeros_like(psi), padded)
    bound = _stepping_layout(psi, padded)
    work = _stepping_layout(np.zeros_like(psi), padded)
    step = thomas.bind(bound, work, axis)
    for _ in range(2):
        cayley_by_update(thomas, ref, ref_work, axis)
        step()
        assert np.array_equal(bound, ref)
    assert _pad_is_zero(bound) and _pad_is_zero(work)


@pytest.mark.parametrize("cut", [None, "+x", "-x"])
def test_sponge_run_replays_the_update_loop(cut):
    grid = gaussian_packet(make_wave_grid(64, 70), 8.0, (0.9, 0.0),
                           (20.0, 35.0))
    if cut is None:
        line, run = None, propagate_free(grid, 20)
    else:
        line = FluxLine(position=(30.5, 40.5), flux=1.3, charge=1.0, cut=cut)
        run = propagate_with_flux(grid, line, 20)
    assert np.array_equal(run.psi, propagate_by_update(grid, line, 20))


def sponge_mask(grid):
    """The whole nx x ny cosine-ramp absorber (per-step amplitude factor,
    1 in the interior): the reference that the band's slabs, built from
    the two ramps alone, must reproduce."""

    def ramp(n):
        w = interference._sponge_width(n)
        prof = np.ones(n)
        s = np.arange(w) / w           # 0 at the inner edge, 1 at the wall
        damp = np.exp(-grid.dt * interference.SPONGE_STRENGTH * 0.5
                      * (1.0 - np.cos(np.pi * s)))
        prof[:w] = damp[::-1]
        prof[n - w:] = damp
        return prof

    return ramp(grid.nx)[:, None] * ramp(grid.ny)[None, :]


@pytest.mark.parametrize("shape", [(64, 70), (128, 128)])
def test_sponge_band_equals_whole_mask(shape):
    # the mask is exactly 1 inside the four edge slabs, so multiplying only
    # the slabs gives the values of the whole-mask multiply
    grid = make_wave_grid(*shape)
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    banded = psi.copy()
    for index, slab in interference._sponge_band(grid):
        banded[index] *= slab
    assert np.array_equal(banded, psi * sponge_mask(grid))


def test_fused_split_is_second_order():
    # the fused run x(dt/2) [y M x(dt)]^(N-1) y M x(dt/2) keeps the Strang
    # order: halving dt cuts the error against a fine run about fourfold
    line = FluxLine(position=(30.5, 33.5), flux=np.pi / 2.0, charge=1.0)

    def run(dt, t_end=8.0):
        grid = gaussian_packet(make_wave_grid(64, 64, dt=dt), 8.0,
                               (0.9, 0.0), (24.0, 32.0))
        return propagate_with_flux(grid, line, int(round(t_end / dt)),
                                   sponge=False).psi

    ref = run(0.0125)
    errs = [np.abs(run(dt) - ref).max() for dt in (0.4, 0.2, 0.1)]
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


def test_zero_steps_apply_nothing(packet128):
    g = propagate_free(packet128, 0)
    assert np.array_equal(g.psi, packet128.psi)
    g = propagate_with_flux(packet128, CFG128.flux_line(np.pi, 1.0), 0)
    assert np.array_equal(g.psi, packet128.psi)


@pytest.fixture(scope="module")
def packet512():
    cfg = InterferenceConfig()
    src, _, _ = cfg.geometry()
    return gaussian_packet(make_wave_grid(512, 512), cfg.packet_width,
                           (cfg.k, 0.0), src)


@pytest.mark.parametrize("k", [16, 200, 600])
def test_steps_commute_with_power_of_two_scale(packet512, k):
    # the canonical 512^2 packet has subnormal tails; stepped at a fixed
    # power-of-two scale, a and 2^k a give the same values, scaled by 2^k,
    # down to the last bit of every entry
    a = propagate_free(packet512, 10)
    b = propagate_free(replace(packet512, psi=packet512.psi * 2.0**k), 10)
    assert np.array_equal(a.psi, b.psi * 2.0**-k)


def test_copy_out_drops_the_stepping_buffers(packet512):
    # the bound steps hold work; dropped with it before the copy out, psi,
    # work and the result are never live together, three padded buffers
    tracemalloc.start()
    try:
        propagate_free(packet512, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 512 * (512 + interference.ROW_PAD) * 16


def test_zero_grid_steps_to_zero():
    g = propagate_free(make_wave_grid(64, 64), 5)
    assert not g.psi.any()


def test_overflowing_norm_steps_unscaled():
    # |psi|^2 overflows, so the run takes the unscaled path and its
    # entries stay finite
    g = make_wave_grid(64, 64)
    g.psi[32, 32] = 1e300
    assert interference._scale_exponent(g.psi) == 0
    g = propagate_free(g, 5, sponge=False)
    assert np.all(np.isfinite(g.psi))
    assert np.abs(g.psi).max() > 1e298


def test_flux_periodicity(packet128):
    lo = _flux_run(packet128, np.pi / 2.0, steps=100)
    hi = _flux_run(packet128, np.pi / 2.0 + 2.0 * np.pi, steps=100)
    assert np.abs(lo.intensity() - hi.intensity()).max() < 1e-10


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def test_invisibility_dichotomy():
    lines = [CFG128.flux_line(2.0 * np.pi, 1.0),
             CFG128.flux_line(np.pi, 1.0)]
    free, (quant, vis), _ = run_experiment(CFG128, "single", lines)
    assert measure_invisibility(CFG128, quant, free) < 1e-8
    assert measure_invisibility(CFG128, vis, free) > 0.1
    assert isinstance(free, WaveGrid)


def test_fringe_law_mid_grid():
    cfg = InterferenceConfig(nx=256, ny=256, slit_separation=60.0)
    line = cfg.flux_line(np.pi, 1.0)
    free, grids, _ = run_experiment(cfg, "two_slit", [line])
    ((flux, predicted, _, err),) = measure_fringe(cfg, [line], free,
                                                  grids).table
    assert (flux, predicted) == (np.pi, 0.5)
    assert err < 0.02


@pytest.mark.parametrize("n, separation, periods, points", [
    (512, 100.0, 3.60, 73), (256, 40.0, 1.15, 29)])
def test_fringe_window_periods(n, separation, periods, points):
    # window / period = FRINGE_WINDOW_FRACTION k s^2 / (pi L) depends on the
    # config alone, so a reading of no lines off a zero grid gives it
    cfg = InterferenceConfig(nx=n, ny=n, slit_separation=separation)
    free = make_wave_grid(n, n)
    reading = measure_fringe(cfg, [], free, [])
    assert round(reading.window_periods, 2) == periods
    assert reading.window_points == points
    assert reading.table == [] and reading.sensitivity == []
    with pytest.raises(DomainError, match="one grid per flux line"):
        measure_fringe(cfg, [cfg.flux_line(np.pi, 1.0)], free, [])


@pytest.mark.parametrize("separation, blind", [(100.0, True), (24.0, False)])
def test_fringe_window_must_see_the_flux(separation, blind):
    # at 128^2 a slit gap of 100 forms no two-path interferometer: the
    # window barely changes with the flux and every measured shift is ~0
    cfg = InterferenceConfig(nx=128, ny=128, slit_separation=separation)
    lines = [cfg.flux_line(flux, 1.0)
             for flux in (0.5 * np.pi, np.pi, 1.5 * np.pi, 0.0)]
    free, grids, _ = run_experiment(cfg, "two_slit", lines)
    reading = measure_fringe(cfg, lines, free, grids)
    sensitivity = reading.sensitivity
    assert sensitivity[-1] == 0.0          # zero flux is bitwise free
    if blind:
        assert max(sensitivity) < 0.05
        measured = [row[2] for row in reading.table]
        assert all(min(m, 1.0 - m) < 1e-6 for m in measured)
        with pytest.raises(AccuracyError, match="sensitivity"):
            check_fringe_window(reading)
    else:
        assert min(sensitivity[:3]) > 0.3
        check_fringe_window(reading)


def _reading(lines, sensitivity, k=1, window_periods=1.0):
    """A FringeReading that only check_fringe_window's inputs are set in:
    each line's table row carries its predicted shift."""
    table = [FringeRow(line.flux,
                       two_path_fringe_shift(line.charge, line.flux), 0.0,
                       0.0) for line in lines]
    return FringeReading(table, sensitivity, k, 29, window_periods)


def test_fringe_window_check_exempts_near_integer_shifts():
    cfg = InterferenceConfig(nx=128, ny=128)
    # shifts 0, 0.0016, 1 - 0.05 and 0.05: physics hides them all
    exempt = [cfg.flux_line(flux, 1.0) for flux in
              (2.0 * np.pi, 0.01, 1.9 * np.pi, 0.1 * np.pi)]
    check_fringe_window(_reading(exempt, [0.0] * 4))
    # a shift of 0.1 or more from an integer is not exempt
    seen = exempt + [cfg.flux_line(0.2 * np.pi, 1.0)]
    with pytest.raises(AccuracyError):
        check_fringe_window(_reading(seen, [0.0] * 4 + [0.09]))
    check_fringe_window(_reading(seen, [0.0] * 4 + [0.1]))


@pytest.mark.parametrize("k, window_periods, envelope", [
    (3, 3.60, False), (1, 1.15, False), (1, 0.83, False), (1, 1.87, False),
    (1, 1.95, True), (1, 2.95, True), (2, 0.9, True), (1, 1.9, False),
    (1, 1.0 + FRINGE_MAX_BIN_OFFSET + 1e-9, True)])
def test_fringe_window_check_refuses_the_envelope_bin(k, window_periods,
                                                      envelope):
    # the gate (3.60 at k* = 3), lattice_fringe (1.15 at 1), the tiny 128^2
    # pass (0.83 at 1) and 256^2 gap 51 (1.87 at 1) read the fringe; 128^2
    # gap 36.8 (1.95 at 1) and 256^2 gap 64 (2.95 at 1) read the envelope
    lines = [InterferenceConfig().flux_line(np.pi, 1.0)]
    reading = _reading(lines, [0.5], k, window_periods)
    if envelope:
        with pytest.raises(AccuracyError, match="envelope"):
            check_fringe_window(reading)
    else:
        check_fringe_window(reading)


def test_experiment_matches_separate_runs():
    # the shared free run and every line run are the plain propagations of
    # the same packet, bit for bit
    cfg = InterferenceConfig(nx=128, ny=128, steps=40)
    lines = [cfg.flux_line(2.0 * np.pi, 1.0, "-x"),
             cfg.flux_line(np.pi / 2.0, -1.0)]
    for packet in ("single", "two_slit"):
        free, grids, stats = run_experiment(cfg, packet, lines)
        # three propagations of 40 steps, 81 solves each
        assert stats[:4] == (3, 40, 243, min(3, len(os.sched_getaffinity(0))))
        assert stats.ms_per_step > 0.0
        grid0 = gaussian_packet(make_wave_grid(128, 128), cfg.packet_width,
                                (cfg.k, 0.0), *cfg.packet_centers(packet))
        assert np.array_equal(free.psi, propagate_free(grid0, 40).psi)
        assert len(grids) == len(lines)
        for line, grid in zip(lines, grids):
            alone = propagate_with_flux(grid0, line, 40)
            assert np.array_equal(grid.psi, alone.psi)


@pytest.mark.parametrize("changes, packet, bad, error", [
    ({}, "single", FluxLine(position=(5.0, 64.0), flux=1.0, charge=1.0),
     DomainError),
    ({}, "single", FluxLine(position=(64.0, 500.0), flux=1.0, charge=1.0),
     DomainError),
    ({}, "wide", None, DomainError),
    ({"dt": 0.6}, "single", None, StabilityError),
], ids=["single-bad0", "single-bad1", "wide-None", "unstable-dt"])
def test_experiment_checks_everything_before_propagating(monkeypatch, changes,
                                                         packet, bad, error):
    # a line in the sponge, a line off the grid, an unknown packet or a
    # time step past 0.5 m h^2 fails before the worker pool starts, even
    # after a good line; the time step is refused as the config is made
    calls = []
    monkeypatch.setattr(interference, "ProcessPoolExecutor",
                        lambda *args, **kw: calls.append(args))
    lines = [CFG128.flux_line(2.0 * np.pi, 1.0)] + ([bad] if bad else [])
    with pytest.raises(error):
        run_experiment(replace(CFG128, **changes), packet, lines)
    assert calls == []


def test_experiment_cuts_each_line_once(monkeypatch):
    # each line's cut is made in the calling process, once per experiment,
    # and the forked workers inherit it; a worker that made one would raise
    parent, cut = os.getpid(), interference._cut_link
    calls = []

    def spy(grid, line, sponge):
        assert os.getpid() == parent, "a worker made a cut"
        calls.append(line)
        return cut(grid, line, sponge)

    monkeypatch.setattr(interference, "_cut_link", spy)
    lines = [CFG128.flux_line(np.pi, 1.0), CFG128.flux_line(np.pi, 1.0, "-x")]
    free, grids, stats = run_experiment(replace(CFG128, steps=2), "single",
                                        lines)
    assert calls == lines and stats.propagations == 3
    assert isinstance(stats, ExperimentStats)


def test_workers_report_the_absorbed_norm():
    # each worker returns 1 - the final norm of its run, the part of the
    # unit-norm packet the sponge took: the free run's first, then one per
    # line
    lines = [CFG128.flux_line(2.0 * np.pi, 1.0), CFG128.flux_line(np.pi, 1.0)]
    free, grids, stats = run_experiment(CFG128, "single", lines)
    assert len(stats.absorbed) == 1 + len(lines)
    for absorbed, grid in zip(stats.absorbed, [free, *grids]):
        assert absorbed == 1.0 - grid.norm()
        assert 0.0 < absorbed < 0.1


def test_failing_worker_is_reraised_and_reaped(monkeypatch):
    # no worker outlives the call, whether it returns or raises; the forked
    # workers inherit the patched propagation, and its exception reaches
    # the caller
    cfg, lines = replace(CFG128, steps=5), [CFG128.flux_line(np.pi, 1.0)]
    run_experiment(cfg, "single", lines)
    assert multiprocessing.active_children() == []

    def fail(*args):
        raise ZeroDivisionError("run failed")

    monkeypatch.setattr(interference, "_propagate", fail)
    with pytest.raises(ZeroDivisionError, match="run failed"):
        run_experiment(cfg, "single", lines)
    assert multiprocessing.active_children() == []


def test_config_step_resolution():
    assert InterferenceConfig().resolved_steps() == 916
    assert InterferenceConfig(steps=7).resolved_steps() == 7
    assert InterferenceConfig(steps=MAX_STEPS).resolved_steps() == MAX_STEPS
    src, flux_pos, probe_x = InterferenceConfig().geometry()
    assert src == (0.22 * 512.0, 256.0)
    assert flux_pos == (256.0, 256.0)
    assert probe_x == 0.78 * 512.0
    # the config checks its step count on construction: a packet that does
    # not move toward the probe has none, and a count that is not a
    # nonnegative int or resolves above MAX_STEPS is refused
    bad = [{"k": k} for k in (0.0, -0.9, float("nan"), float("inf"), 1e-10)]
    bad += [{"dt": 1e-320}, {"steps": 2.5}, {"steps": -1},
            {"steps": MAX_STEPS + 1}, {"steps": 10**12}]
    for kwargs in bad:
        with pytest.raises(DomainError):
            InterferenceConfig(**kwargs)
    # 0.5 m h^2 underflows to 0 here: the lattice's accuracy bound refuses
    # it before any step count is derived
    with pytest.raises(StabilityError):
        InterferenceConfig(m=5e-324, h=5e-324)


@pytest.mark.parametrize("kwargs, error, match", [
    ({"nx": 10, "ny": 10}, DomainError, "grid sides"),
    ({"nx": MAX_GRID + 1}, DomainError, "grid sides"),
    ({"h": 0.0}, DomainError, "h, m, dt"),
    ({"h": -1.0}, DomainError, "h, m, dt"),
    ({"m": 0.0}, DomainError, "h, m, dt"),
    ({"dt": float("nan")}, DomainError, "h, m, dt"),
    ({"dt": 10.0}, StabilityError, "0.5\\*m\\*h\\^2"),
])
def test_config_refuses_the_lattice_its_grids_would_refuse(kwargs, error,
                                                           match):
    # the config and every grid made from it share one lattice rule, and
    # the config applies it first, naming the lattice as the cause
    with pytest.raises(error, match=match):
        InterferenceConfig(**kwargs)
    cfg = {**dict(nx=128, ny=128, h=1.0, m=1.0, dt=0.4), **kwargs}
    with pytest.raises(error, match=match):
        make_wave_grid(cfg["nx"], cfg["ny"], cfg["h"], cfg["m"], cfg["dt"])


# ---------------------------------------------------------------------------
# measurement mechanics
# ---------------------------------------------------------------------------

# a 64 x 256 grid whose probe column, round(PROBE_X_FRACTION * 64) = 50,
# holds the synthetic pattern; a slit gap of 140 makes the fringe window
# FRINGE_WINDOW_FRACTION * 140 = 50.4 around y = 128, 101 samples
CFG_SYNTHETIC = InterferenceConfig(nx=64, ny=256, slit_separation=140.0)


def _synthetic_pair(displacement, period=20.0):
    a = make_wave_grid(64, 256)
    b = make_wave_grid(64, 256)
    y = np.arange(256.0)
    env = np.exp(-(((y - 128.0) / 60.0) ** 2))
    kf = 2.0 * np.pi / period
    b.psi[50, :] = np.sqrt(env * (1.0 + np.cos(kf * (y - 128.0))))
    a.psi[50, :] = np.sqrt(env * (1.0 + np.cos(kf * (y - 128.0
                                                     - displacement))))
    return a, b


def test_measure_fringe_recovers_known_displacement():
    a, b = _synthetic_pair(7.0)      # 0.35 of a 20-unit period
    line = CFG_SYNTHETIC.flux_line(0.7 * np.pi, 1.0)
    ((_, _, got, _),) = measure_fringe(CFG_SYNTHETIC, [line], b, [a]).table
    assert abs(got - 0.35) < 2e-3
    same, ref = _synthetic_pair(0.0)
    reading = measure_fringe(CFG_SYNTHETIC, [CFG_SYNTHETIC.flux_line(0.0, 1.0)],
                             ref, [same])
    assert reading.table[0][2] == 0.0


def test_measure_fringe_window_validation():
    a, b = _synthetic_pair(5.0)
    line = CFG_SYNTHETIC.flux_line(np.pi, 1.0)
    # a slit gap of 20 makes a window of 7.2 around y = 128: 15 samples
    narrow = InterferenceConfig(nx=64, ny=256, slit_separation=20.0)
    with pytest.raises(DomainError, match="too narrow"):
        measure_fringe(narrow, [line], b, [a])
    small = make_wave_grid(64, 64)
    with pytest.raises(DomainError, match="identical shapes"):
        measure_fringe(CFG_SYNTHETIC, [line], b, [small])


def test_measure_invisibility_edges(packet128):
    # the window is the config's: no x_min past the grid, and so no empty
    # window, can be asked for
    assert measure_invisibility(CFG128, packet128, packet128) == 0.0
    with pytest.raises(DomainError, match="identical shapes"):
        measure_invisibility(CFG128, packet128, make_wave_grid(128, 256))


def test_intensity_slice_bounds(packet128):
    # the column is the config's probe column: no probe off the grid can be
    # asked for
    y, intensity = intensity_slice(CFG128, packet128)
    assert y.shape == (128,) and intensity.shape == (128,)
    assert np.all(intensity >= 0.0)
    assert np.array_equal(intensity,
                          packet128.intensity()[CFG128.probe_column()])
    with pytest.raises(DomainError, match="identical shapes"):
        intensity_slice(CFG128, make_wave_grid(128, 256))


def test_config_places_the_probe_column_and_both_windows():
    # probe_column is the one rounding of the probe's x, and the fringe
    # window lies on it
    cfg = InterferenceConfig()
    assert cfg.probe_column() == round(0.78 * 512) == 399
    assert cfg.fringe_window()[0] == cfg.probe_column()
    assert cfg.invisibility_window() == np.s_[297:451, 61:451]
    # on every side the lattice allows, the probe column lies on the grid
    # and the far-field window is not empty
    for n in range(MIN_GRID, MAX_GRID + 1):
        cfg = InterferenceConfig(nx=n, ny=n, steps=1)
        xs, ys = cfg.invisibility_window()
        assert 0 <= cfg.probe_column() < n
        assert 0 <= xs.start < xs.stop <= n
        assert 0 <= ys.start < ys.stop <= n


def test_packet_centers_place_the_source_and_the_slits():
    # a single packet sits at the source; the two slits sit slit_separation
    # apart along y, one on each side of it
    cfg = InterferenceConfig(nx=256, ny=256, slit_separation=40.0)
    (sx, sy), _, _ = cfg.geometry()
    assert cfg.packet_centers("single") == [(sx, sy)]
    assert cfg.packet_centers("two_slit") == [(sx, sy + 20.0), (sx, sy - 20.0)]
    with pytest.raises(DomainError, match="packet must be 'single' or "):
        cfg.packet_centers("wide")


# ---------------------------------------------------------------------------
# state preparation and validation
# ---------------------------------------------------------------------------

def test_packet_normalization_and_symmetry():
    grid = gaussian_packet(make_wave_grid(128, 128), 10.0, (0.9, 0.0),
                           (28.0, 84.0), (28.0, 44.0))
    assert abs(grid.norm() - 1.0) < 1e-12
    intensity = grid.intensity()
    # mirror symmetry about the source row y = 64
    assert_allclose(intensity[:, 65:], intensity[:, 63:0:-1], atol=1e-15)


@pytest.mark.parametrize("shape", [(128, 96), (512, 512)])
def test_packets_match_reference_formula(shape):
    # the packets are, bit for bit, the normalized sum of the Gaussians
    # exp(-|r-c|^2/(2 w^2) + i k.r): the envelopes summed, times the one
    # carrier, normalized once
    nx, ny = shape
    x = np.arange(nx)[:, None] * 1.0
    y = np.arange(ny)[None, :] * 1.0
    width, (kx, ky) = 10.0, (0.9, -0.3)

    def envelope(cx, cy):
        return np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * width**2))

    def normalized(env):
        psi = (env * np.exp(1j * (kx * x + ky * y))).astype(np.complex128)
        return psi / np.sqrt(np.sum(np.abs(psi) ** 2))

    cx, cy, gap = 0.22 * nx, 0.5 * ny, 40.0
    single = gaussian_packet(make_wave_grid(nx, ny), width, (kx, ky),
                             (cx, cy))
    assert np.array_equal(single.psi, normalized(envelope(cx, cy)))
    pair = normalized(envelope(cx, cy + 0.5 * gap)
                      + envelope(cx, cy - 0.5 * gap))
    grid = gaussian_packet(make_wave_grid(nx, ny), width, (kx, ky),
                           (cx, cy + 0.5 * gap), (cx, cy - 0.5 * gap))
    assert np.array_equal(grid.psi, pair)


def test_packet_width_validation():
    grid = make_wave_grid(128, 128)
    # too narrow for the lattice, not a number, or with no finite square
    for width in (7.9, float("nan"), 1e308, float("inf")):
        with pytest.raises(DomainError):
            gaussian_packet(grid, width, (0.9, 0.0), (28.0, 64.0))
    with pytest.raises(DomainError, match="at least one centre"):
        gaussian_packet(grid, 10.0, (0.9, 0.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_packet_overflow_is_refused_with_its_cause():
    # k.r or |r - c|^2 past the float range used to warn and end in a
    # misleading "packet norm nan" (or 0.0) refusal
    grid = make_wave_grid(64, 64)
    for momentum in ((1e308, 0.0), (0.0, 1e308), (1e307, 1e307),
                     (float("nan"), 0.0)):
        with pytest.raises(DomainError, match="carrier phase"):
            gaussian_packet(grid, 10.0, momentum, (14.0, 32.0))
    for center in ((14.0, 1e308), (-1e155, -1e155), (float("inf"), 32.0)):
        with pytest.raises(DomainError, match="packet centre"):
            gaussian_packet(grid, 10.0, (0.9, 0.0), center)
    with pytest.raises(DomainError, match="packet centre"):
        gaussian_packet(grid, 10.0, (0.9, 0.0), (14.0, 32.0 + 0.5e308),
                        (14.0, 32.0 - 0.5e308))
    # a large but finite phase still makes a packet
    gaussian_packet(grid, 10.0, (1e300, 0.0), (14.0, 32.0))


def test_grid_validation():
    with pytest.raises(DomainError):
        make_wave_grid(32, 128)
    with pytest.raises(DomainError):
        make_wave_grid(128, 128, h=0.0)
    with pytest.raises(DomainError):
        make_wave_grid(128, 128, dt=-0.1)
    with pytest.raises(DomainError):
        make_wave_grid(128, 128, dt=float("nan"))
    with pytest.raises(DomainError):
        WaveGrid(psi=np.zeros(128, dtype=complex), h=1.0, m=1.0, dt=0.4)


def test_grid_is_a_value(monkeypatch, packet128):
    # the builders, the propagations and run_experiment's runs each return
    # a new grid and leave the grid they are given, its array and every
    # byte of it, as it was
    line = CFG128.flux_line(np.pi, 1.0)
    zeros = make_wave_grid(128, 128)
    calls = [(gaussian_packet, zeros, 10.0, (0.9, 0.0), (28.0, 64.0)),
             (gaussian_packet, zeros, 10.0, (0.9, 0.0), (28.0, 84.0),
              (28.0, 44.0)),
             (propagate_free, packet128, 5),
             (propagate_with_flux, packet128, line, 5)]
    for run, grid, *args in calls:
        psi, before = grid.psi, grid.psi.tobytes()
        assert run(grid, *args) is not grid
        assert grid.psi is psi and psi.tobytes() == before
    made = []

    def spy(*args, _make=interference.gaussian_packet):
        grid = _make(*args)
        made.append((grid, grid.psi.tobytes()))
        return grid
    monkeypatch.setattr(interference, "gaussian_packet", spy)
    packets, grids = [], []
    for packet in ("single", "two_slit"):
        free, lines, _ = run_experiment(replace(CFG128, steps=5), packet,
                                        [line, line])
        # the packet run_experiment propagated is the last one built
        packets.append(made[-1])
        grids += [free, *lines]
    assert len(grids) == 6
    assert all(grid.psi.tobytes() == before for grid, before in packets)
    arrays = [grid.psi for grid, _ in packets] + [g.psi for g in grids]
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(arrays) for b in arrays[i + 1:])

    with pytest.raises(FrozenInstanceError):
        packet128.psi = zeros.psi
    a = np.arange(4096.0).reshape(64, 64) * (1.0 + 1.0j)
    assert WaveGrid(psi=a, h=1.0, m=1.0, dt=0.4).psi is a
    for b in (np.asfortranarray(a), a.real.copy()):
        psi = WaveGrid(psi=b, h=1.0, m=1.0, dt=0.4).psi
        assert psi.dtype == np.complex128 and psi.flags.c_contiguous
        assert np.array_equal(psi, b)


def test_flux_line_validation(packet128):
    with pytest.raises(DomainError):
        FluxLine(position=(1.0, 2.0, 3.0), flux=1.0, charge=1.0)
    with pytest.raises(DomainError):
        FluxLine(position=(1.0, float("inf")), flux=1.0, charge=1.0)
    with pytest.raises(DomainError):
        FluxLine(position=(10.0, 10.0), flux=1.0, charge=1.0, cut="y")
    # q * flux must be finite: each factor alone may be, and overflow
    for flux, charge in ((10.0, 1e308), (float("inf"), 0.0),
                         (1.0, float("nan"))):
        with pytest.raises(DomainError):
            FluxLine(position=(10.0, 10.0), flux=flux, charge=charge)
    # inside the sponge margin: rejected
    with pytest.raises(DomainError):
        propagate_with_flux(packet128, FluxLine(position=(5.0, 64.0),
                                                flux=1.0, charge=1.0), 1)
    with pytest.raises(DomainError):
        propagate_with_flux(packet128, None, 1)


def test_sponge_margin_follows_each_axis():
    # on a 64 x 1000 grid the y sponge is 100 sites wide: a line at y = 50
    # sits in it, one at y = 500 is clear of it
    grid = make_wave_grid(64, 1000)
    with pytest.raises(DomainError):
        propagate_with_flux(grid, FluxLine(position=(32.0, 50.0), flux=1.0,
                                           charge=1.0), 0)
    assert propagate_with_flux(grid, FluxLine(position=(32.0, 500.0),
                                              flux=1.0, charge=1.0), 0) \
        is grid


def test_steps_validation(packet128):
    with pytest.raises(DomainError):
        propagate_free(packet128, -1)
    with pytest.raises(DomainError):
        propagate_free(packet128, 2.5)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def test_snapshot_roundtrip(tmp_path, packet128):
    bin_path = str(tmp_path / "field.f64")
    out_bin, out_meta = save_snapshot(packet128, bin_path)
    assert out_meta == bin_path + ".json"
    data, meta = load_snapshot(bin_path)
    assert np.array_equal(data, packet128.intensity())
    assert meta["shape"] == [128, 128] and meta["h"] == 1.0

    with open(out_meta) as fh:
        raw = json.load(fh)
    assert raw["dtype"] == "float64" and raw["order"] == "C"


def test_snapshot_validation(tmp_path, packet128):
    bin_path = str(tmp_path / "field.f64")
    save_snapshot(packet128, bin_path)
    with open(bin_path, "r+b") as fh:
        fh.truncate(1000)
    with pytest.raises(DomainError):
        load_snapshot(bin_path)

    bin2 = str(tmp_path / "other.f64")
    save_snapshot(packet128, bin2)
    meta2 = bin2 + ".json"
    with open(meta2) as fh:
        meta = json.load(fh)
    meta["dtype"] = "float32"
    with open(meta2, "w") as fh:
        json.dump(meta, fh)
    with pytest.raises(DomainError):
        load_snapshot(bin2)


@pytest.mark.parametrize("shape", [[4], ["2", "2"], [2, 2, 1], [True, 4],
                                   [4, 1.0], 4, None])
def test_snapshot_shape_is_two_positive_ints(tmp_path, shape):
    # a 4-entry file: [4] used to raise IndexError, ["2", "2"] TypeError,
    # and [2, 2, 1] loaded as a 3-D array
    bin_path = str(tmp_path / "s.f64")
    np.arange(4.0).tofile(bin_path)
    meta = {"dtype": "float64", "order": "C", "shape": shape}
    with open(bin_path + ".json", "w") as fh:
        json.dump(meta, fh)
    with pytest.raises(DomainError, match="snapshot shape"):
        load_snapshot(bin_path)
    meta["shape"] = [2, 2]
    with open(bin_path + ".json", "w") as fh:
        json.dump(meta, fh)
    assert load_snapshot(bin_path)[0].tolist() == [[0.0, 1.0], [2.0, 3.0]]

"""Lattice flux-line interference checks.

The propagation scheme is exactly unitary (Cayley factors), the flux line
enters only through phased links on a half-line cut, and every quantization
statement reduces to e^{i q Phi} = 1 making the cut literally disappear from
the arithmetic. Fringe-measurement mechanics are validated on synthetic
patterns with a known displacement; the full two-slit law on the production
grid runs in the acceptance suite.
"""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from polelab.errors import DomainError, StabilityError
from polelab.interference import (
    FluxLine,
    InterferenceConfig,
    WaveGrid,
    fringe_shift,
    gaussian_packet,
    intensity_slice,
    invisibility_metric,
    load_snapshot,
    make_wave_grid,
    propagate_free,
    propagate_with_flux,
    run_fringe,
    run_invisibility,
    save_snapshot,
    two_gaussian_packet,
    two_path_fringe_shift,
)

CFG128 = InterferenceConfig(nx=128, ny=128)


@pytest.fixture(scope="module")
def packet128():
    src, _, _ = CFG128.geometry()
    grid = make_wave_grid(128, 128)
    return gaussian_packet(grid, src, CFG128.packet_width, (CFG128.k, 0.0))


def _flux_run(packet, flux, cut="+x", steps=None):
    _, flux_pos, _ = CFG128.geometry()
    g = packet.copy()
    line = FluxLine(position=flux_pos, flux=flux, charge=1.0, cut=cut)
    propagate_with_flux(g, line, CFG128.resolved_steps() if steps is None
                        else steps)
    return g


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


# ---------------------------------------------------------------------------
# propagation invariants
# ---------------------------------------------------------------------------

def test_norm_preserved_without_sponge(packet128):
    g = packet128.copy()
    n0 = g.norm()
    propagate_free(g, 1000, sponge=False)
    assert abs(g.norm() - n0) < 1e-8


def test_zero_flux_is_bitwise_free(packet128):
    _, flux_pos, _ = CFG128.geometry()
    free = packet128.copy()
    propagate_free(free, 100)
    gauged = packet128.copy()
    propagate_with_flux(gauged, FluxLine(position=flux_pos, flux=0.0,
                                         charge=1.0), 100)
    assert np.array_equal(free.psi, gauged.psi)


def test_stability_bound_rejects_coarse_dt(packet128):
    g = packet128.copy()
    g.dt = 0.6                       # above 0.5 * m * h^2
    before = g.psi.copy()
    with pytest.raises(StabilityError):
        propagate_free(g, 1)
    assert np.array_equal(g.psi, before)   # rejected before stepping
    _, flux_pos, _ = CFG128.geometry()
    with pytest.raises(StabilityError):
        propagate_with_flux(g, FluxLine(position=flux_pos, flux=1.0,
                                        charge=1.0), 1)


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
    # the same Strang step built densely, with the phased link written into
    # the y Hamiltonian instead of applied as a gauge shift around the free
    # factor; a conjugated phase flips the sign of theta and fails this
    n, dt, steps, theta = 64, 0.4, 12, np.pi / 2.0
    grid = gaussian_packet(make_wave_grid(n, n, dt=dt), (24.0, 32.0), 8.0,
                           (0.9, 0.0))
    line = FluxLine(position=(30.5, 33.5), flux=theta, charge=1.0, cut=cut)
    split, j0 = 31, 33          # puncture at the plaquette (30..31, 33..34)

    def cayley(tau, link=1.0):
        hop = np.diag(np.full(n - 1, -1.0 + 0j), 1)
        hop[j0, j0 + 1] *= link
        ham = (hop + hop.conj().T + 2.0 * np.eye(n)) / 2.0     # m = h = 1
        a = 0.5j * tau * ham
        return np.linalg.solve(np.eye(n) + a, np.eye(n) - a)

    half_x, free_y = cayley(dt / 2.0), cayley(dt)
    cut_y = cayley(dt, np.exp(1j * theta))
    cut_cols = np.arange(n) >= split if cut == "+x" else np.arange(n) < split
    psi = grid.psi.copy()
    for _ in range(steps):
        psi = half_x @ psi
        psi[~cut_cols] = psi[~cut_cols] @ free_y.T
        psi[cut_cols] = psi[cut_cols] @ cut_y.T
        psi = half_x @ psi

    propagate_with_flux(grid, line, steps, sponge=False)
    assert np.abs(grid.psi - psi).max() < 1e-12


def test_flux_periodicity(packet128):
    lo = _flux_run(packet128, np.pi / 2.0, steps=100)
    hi = _flux_run(packet128, np.pi / 2.0 + 2.0 * np.pi, steps=100)
    assert np.abs(lo.intensity() - hi.intensity()).max() < 1e-10


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def test_invisibility_dichotomy():
    quant = run_invisibility(1.0, 2.0 * np.pi, CFG128)
    vis = run_invisibility(1.0, np.pi, CFG128)
    assert quant["metric"] < 1e-8
    assert vis["metric"] > 0.1
    assert quant["q_flux_over_2pi"] == 1.0 and vis["q_flux_over_2pi"] == 0.5
    assert quant["steps"] == CFG128.resolved_steps()
    assert isinstance(quant["free"], WaveGrid)
    assert isinstance(quant["line"], FluxLine)


def test_fringe_law_mid_grid():
    cfg = InterferenceConfig(nx=256, ny=256, slit_separation=60.0)
    out = run_fringe(1.0, np.pi, cfg)
    assert out["shift_predicted"] == 0.5
    assert out["circular_error"] < 0.02


def test_config_step_resolution():
    assert InterferenceConfig().resolved_steps() == 916
    assert InterferenceConfig(steps=7).resolved_steps() == 7
    src, flux_pos, probe_x = InterferenceConfig().geometry()
    assert src == (0.22 * 512.0, 256.0)
    assert flux_pos == (256.0, 256.0)
    assert probe_x == 0.78 * 512.0


# ---------------------------------------------------------------------------
# measurement mechanics
# ---------------------------------------------------------------------------

def _synthetic_pair(displacement, period=20.0):
    a = make_wave_grid(64, 256)
    b = make_wave_grid(64, 256)
    y = np.arange(256.0)
    env = np.exp(-(((y - 128.0) / 60.0) ** 2))
    kf = 2.0 * np.pi / period
    b.psi[32, :] = np.sqrt(env * (1.0 + np.cos(kf * (y - 128.0))))
    a.psi[32, :] = np.sqrt(env * (1.0 + np.cos(kf * (y - 128.0
                                                     - displacement))))
    return a, b


def test_fringe_shift_recovers_known_displacement():
    a, b = _synthetic_pair(7.0)      # 0.35 of a 20-unit period
    got = fringe_shift(a, b, 32.0, 128.0, 50.0)
    assert abs(got - 0.35) < 2e-3
    same, ref = _synthetic_pair(0.0)
    assert fringe_shift(same, ref, 32.0, 128.0, 50.0) == 0.0


def test_fringe_shift_window_validation():
    a, b = _synthetic_pair(5.0)
    with pytest.raises(DomainError):
        fringe_shift(a, b, 32.0, 128.0, 6.0)    # fewer than 16 samples
    small = make_wave_grid(64, 64)
    with pytest.raises(DomainError):
        fringe_shift(a, small, 32.0, 32.0, 20.0)


def test_invisibility_metric_edges(packet128):
    g = packet128.copy()
    assert invisibility_metric(g, g.copy()) == 0.0
    with pytest.raises(DomainError):
        invisibility_metric(g, make_wave_grid(128, 256))
    with pytest.raises(DomainError):
        invisibility_metric(g, g.copy(), x_min=1e9)


def test_intensity_slice_bounds(packet128):
    y, intensity = intensity_slice(packet128, 28.0)
    assert y.shape == (128,) and intensity.shape == (128,)
    assert np.all(intensity >= 0.0)
    with pytest.raises(DomainError):
        intensity_slice(packet128, -5.0)
    with pytest.raises(DomainError):
        intensity_slice(packet128, 1e4)


# ---------------------------------------------------------------------------
# state preparation and validation
# ---------------------------------------------------------------------------

def test_packet_normalization_and_symmetry():
    grid = make_wave_grid(128, 128)
    two_gaussian_packet(grid, (28.0, 64.0), 40.0, 10.0, (0.9, 0.0))
    assert abs(grid.norm() - 1.0) < 1e-12
    intensity = grid.intensity()
    # mirror symmetry about the source row y = 64
    assert_allclose(intensity[:, 65:], intensity[:, 63:0:-1], atol=1e-15)


def test_packet_width_validation():
    grid = make_wave_grid(128, 128)
    with pytest.raises(DomainError):
        gaussian_packet(grid, (28.0, 64.0), 7.9, (0.9, 0.0))


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


def test_grid_copy_is_independent(packet128):
    g = packet128.copy()
    g.psi[:] = 0.0
    assert packet128.norm() > 0.9


def test_flux_line_validation(packet128):
    with pytest.raises(DomainError):
        FluxLine(position=(1.0, 2.0, 3.0), flux=1.0, charge=1.0)
    with pytest.raises(DomainError):
        FluxLine(position=(1.0, float("inf")), flux=1.0, charge=1.0)
    with pytest.raises(DomainError):
        FluxLine(position=(10.0, 10.0), flux=1.0, charge=1.0, cut="y")
    g = packet128.copy()
    # inside the sponge margin: rejected
    with pytest.raises(DomainError):
        propagate_with_flux(g, FluxLine(position=(5.0, 64.0), flux=1.0,
                                        charge=1.0), 1)
    with pytest.raises(DomainError):
        propagate_with_flux(g, None, 1)


def test_steps_validation(packet128):
    g = packet128.copy()
    with pytest.raises(DomainError):
        propagate_free(g, -1)
    with pytest.raises(DomainError):
        propagate_free(g, 2.5)


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

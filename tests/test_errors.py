"""The three input rules of polelab.errors, and every count input that
applies the count rule."""

import numpy as np
import pytest

from polelab.angmom import QuadratureSpec
from polelab.errors import (DomainError, check_count, check_finite,
                            check_positive)
from polelab.gauge import cap_flux
from polelab.interference import (InterferenceConfig, make_wave_grid,
                                  propagate_free)
from polelab.vortex import HiggsModel, VortexProfile, solve_vortex

CRITICAL = HiggsModel(q=1.0, v=1.0, lam=2.0)
RHO = np.linspace(0.0, 10.0, 600)

# (name in the refusal, a call that takes the count, an accepted value)
COUNT_INPUTS = {
    "InterferenceConfig.nx": (
        "grid sides", lambda k: InterferenceConfig(nx=k, ny=64, steps=2), 64),
    "InterferenceConfig.ny": (
        "grid sides", lambda k: InterferenceConfig(nx=64, ny=k, steps=2), 64),
    "InterferenceConfig.steps": (
        "steps", lambda k: InterferenceConfig(nx=64, ny=64, steps=k), 2),
    "make_wave_grid.nx": ("grid sides", lambda k: make_wave_grid(k, 64), 64),
    "propagate_free.steps": (
        "steps", lambda k: propagate_free(make_wave_grid(64, 64), k), 2),
    "QuadratureSpec.levels": (
        "levels", lambda k: QuadratureSpec(levels=k), 3),
    "QuadratureSpec.gl_order": (
        "gl_order", lambda k: QuadratureSpec(gl_order=k), 8),
    "circle_flux.n0": ("n0", lambda k: cap_flux(0.5, 2.2, n0=k), 64),
    "circle_flux.levels": ("levels", lambda k: cap_flux(0.5, 2.2, levels=k),
                           3),
    "solve_vortex.n": (
        "winding number n", lambda k: solve_vortex(CRITICAL, k), 1),
    "solve_vortex.grid": (
        "grid", lambda k: solve_vortex(CRITICAL, 1, grid=k), 512),
    "solve_vortex.max_iter": (
        "max_iter", lambda k: solve_vortex(CRITICAL, 1, max_iter=k), 200),
    "VortexProfile.n": (
        "winding number n",
        lambda k: VortexProfile(k, RHO, np.tanh(RHO), np.tanh(RHO)), 1),
}


@pytest.mark.parametrize("key", COUNT_INPUTS)
def test_every_count_input_takes_integers_only(key):
    # a bool used to pass as 0 or 1 and a float to build and then fail in
    # range() or np.zeros with a TypeError; each is now a DomainError that
    # names the input, and a numpy integer is accepted as an int
    name, call, good = COUNT_INPUTS[key]
    for bad in (True, 2.5):
        with pytest.raises(DomainError, match=f"^{name}: expected an integer"):
            call(bad)
    call(np.int64(good))


def test_the_three_rules():
    assert check_count("n", np.int64(3), 1) == 3
    assert type(check_count("n", np.uint8(3), 1)) is int
    assert check_count("sides", (64, np.int32(70)), 64, 4096) == (64, 70)
    for bad, cause in [(False, "expected an integer, got False"),
                       ("3", "expected an integer, got '3'"),
                       (np.float64(3.0), "expected an integer"),
                       (0, "must lie in [1, inf], not 0")]:
        with pytest.raises(DomainError) as info:
            check_count("n", bad, 1)
        assert cause in str(info.value)
    with pytest.raises(DomainError, match="not 10 x 10"):
        check_count("sides", (10, 10), 64, 4096)
    check_finite("x", 1.0, np.zeros(3), -5.0)
    check_positive("x", 1e-300, np.ones(3))
    for bad in (np.nan, np.inf, -np.inf, np.array([1.0, np.nan])):
        with pytest.raises(DomainError, match="^x must be finite$"):
            check_finite("x", 1.0, bad)
    for bad in (0.0, -1.0, np.nan, np.inf, np.array([1.0, 0.0])):
        with pytest.raises(DomainError, match="^x must be finite and > 0$"):
            check_positive("x", 1.0, bad)

"""Fixtures shared by the test modules."""

import pytest


def _replayed_dtau(history, sweeps):
    """The pseudo-timestep of solve_vortex's last sweep, replayed from the
    residual before each sweep: sweep k runs at min(dtau * max(2, r_{k-1} /
    r_k), 1e12), the first at 2; 0 if no sweep was taken."""
    dtau = 1.0
    for k in range(sweeps):
        growth = history[k - 1] / history[k] if k else 2.0
        dtau = min(dtau * max(2.0, growth), 1e12)
    return dtau if sweeps else 0.0


@pytest.fixture
def replayed_dtau():
    return _replayed_dtau

"""Shared fixtures: grids, a reference smooth vorticity, and the two
expensive session-scoped runs (rigid-rotation trajectories and the
viscosity sweep) that several acceptance criteria read."""

import numpy as np
import pytest

from slipdisk.geometry import build_grid
from slipdisk.field import ScalarField
from slipdisk.ns_solver import SimConfig, simulate
from slipdisk.sweep import SweepConfig, run_sweep

BUMP_IC = {"bump": {"center": (0.3, 0.0), "radius": 0.4, "amplitude": 8.0}}


@pytest.fixture(scope="session")
def grid32():
    return build_grid(32, 32)


@pytest.fixture(scope="session")
def grid48():
    return build_grid(48, 64)


@pytest.fixture(scope="session")
def grid64():
    return build_grid(64, 64)


@pytest.fixture(scope="session")
def grid128():
    return build_grid(128, 128)


def smooth_vorticity(grid, seed: int = 0, k_max: int = 4) -> ScalarField:
    """Random low-mode vorticity with geometrically decaying amplitudes,
    the standing test pattern for solver and ratio measurements."""
    rng = np.random.default_rng(seed)
    vals = np.zeros(grid.shape)
    for k in range(k_max + 1):
        a, b = rng.normal(size=2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        prof = 0.6 ** k * grid.r ** k * (a + b * grid.r ** 2)
        vals += prof[:, None] * np.cos(k * grid.theta - phase)[None, :]
    return ScalarField(grid, vals)


@pytest.fixture(scope="session")
def rigid_trajectories():
    """Rigid rotation omega = 2 over a unit of time, inviscid and viscous."""
    out = {}
    for nu in (0.0, 0.1):
        config = SimConfig(nu=nu, t_end=1.0, initial_condition={"const": 2.0},
                           alpha=0.0, n_r=64, n_theta=64, output_stride=200)
        out[nu] = simulate(config)
    return out


@pytest.fixture(scope="session")
def sweep_result():
    """The off-center bump viscosity sweep at acceptance scale, with the
    underlying trajectories kept for the per-snapshot estimates."""
    config = SweepConfig(
        base=SimConfig(nu=0.0, t_end=0.5, initial_condition=BUMP_IC,
                       alpha=1.0, n_r=64, n_theta=64, output_stride=50,
                       lp_exponents=(2.0, 4.0)),
        nu_list=(0.1, 0.03, 0.01, 0.003, 0.001),
        q_list=(2.0,), p=4.0, euler_refinement_factor=2)
    report = run_sweep(config)
    return {"config": config, "report": report, "runs": report.runs}

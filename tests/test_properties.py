"""Property-based tests of exact identities: the forked split diagnose
walk against one pass over the whole run, a trajectory's save and load,
and a config's dict and pickle round trips.

Every property runs under one settings profile, derandomized and without
an example database, so Tier-1 sees the same examples on every run. The
strategies bound the grids to 4-16 rings and 2-16 angles, and draw no
run longer than 21 steps, so that no example allocates or runs without
bound.
"""

import pickle
import tempfile
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from slipdisk import SimConfig, Trajectory, simulate

from conftest import BUMP_IC
from test_diagnostics import check_split_walk_is_one_pass

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=25)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
N_THETA = st.integers(1, 8).map(lambda half: 2 * half)


@lru_cache(maxsize=None)
def _run(n_r: int, n_theta: int) -> Trajectory:
    """The README bump at n_r x n_theta, one snapshot per step of 0.005
    to t = 0.1: 21 snapshots."""
    return simulate(SimConfig(nu=0.02, t_end=0.1, dt=0.005, initial_condition=BUMP_IC,
                              alpha=1.0, n_r=n_r, n_theta=n_theta, output_stride=1))


@PROFILE
@given(n_r=st.integers(8, 16), n_theta=st.integers(4, 8).map(lambda half: 2 * half),
       data=st.data())
def test_forked_split_walk_equals_one_pass_over_the_run(n_r, n_theta, data):
    run = _run(n_r, n_theta)
    n = data.draw(st.integers(2, len(run.times)), label="snapshots")
    start = data.draw(st.integers(0, len(run.times) - n), label="first snapshot")
    traj = replace(run, times=run.times[start:start + n], omega=run.omega[start:start + n])
    with pytest.MonkeyPatch.context() as monkeypatch:
        check_split_walk_is_one_pass(monkeypatch, traj)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


@st.composite
def trajectories(draw) -> Trajectory:
    """A config on a drawn grid and lp exponents, with drawn finite times
    (strictly increasing), vorticity and series over the whole float range."""
    config = SimConfig(nu=0.1, t_end=1.0, initial_condition={"const": 0.0},
                       n_r=draw(st.integers(4, 16)), n_theta=draw(N_THETA),
                       lp_exponents=draw(st.lists(st.floats(min_value=1.0, allow_infinity=False),
                                                  max_size=3, unique=True)))
    times = np.array(sorted(draw(st.lists(FINITE, min_size=1, max_size=4, unique=True))))
    omega = draw(arrays(np.float64, (len(times),) + config.grid.shape, elements=FINITE))
    steps = draw(st.integers(1, 5))
    columns = Trajectory(config, times, omega, {}).series_columns()
    series = {c: draw(arrays(np.float64, steps, elements=FINITE)) for c in columns}
    return Trajectory(config, times, omega, series)


@PROFILE
@given(traj=trajectories())
def test_save_then_load_keeps_every_array_bitwise(traj):
    with tempfile.TemporaryDirectory() as run_dir:
        traj.save(run_dir)
        again = Trajectory.load(run_dir)
    assert again.config == traj.config
    assert _hex(again.times) == _hex(traj.times)
    assert again.omega.shape == traj.omega.shape and _hex(again.omega) == _hex(traj.omega)
    assert list(again.series) == list(traj.series)
    for column, values in traj.series.items():
        assert _hex(again.series[column]) == _hex(values), column


@st.composite
def configs(draw) -> SimConfig:
    """A SimConfig over the whole float range where its rules allow it; a
    bump meets the disk, and alpha and modes stay where their samples are
    finite."""
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    initial = draw(st.one_of(
        st.builds(lambda c: {"const": c}, FINITE),
        st.builds(lambda x, y, radius, amplitude: {"bump": {
            "center": [x, y], "radius": radius, "amplitude": amplitude}},
            st.floats(-0.7, 0.7), st.floats(-0.7, 0.7), st.floats(1.5e-154, 1e3), FINITE),
        st.builds(lambda k, coeffs: {"modes": [[k, coeffs]]},
                  st.integers(0, 8), st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3))))
    alpha = draw(st.one_of(
        st.floats(-1e6, 1e6),
        st.builds(lambda k, a, b: {"fourier": [[k, a, b]]},
                  st.integers(1, 8), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))))
    tol = draw(st.dictionaries(st.sampled_from(["navier", "weakform", "balance"]),
                               st.floats(min_value=0.0, allow_infinity=False)))
    return SimConfig(
        nu=draw(st.floats(min_value=0.0, allow_infinity=False)), t_end=draw(positive),
        initial_condition=initial, alpha=alpha, dt=draw(st.one_of(st.just("auto"), positive)),
        n_r=draw(st.integers(4, 16)), n_theta=draw(N_THETA),
        output_stride=draw(st.integers(1, 1000)),
        lp_exponents=tuple(draw(st.lists(st.floats(min_value=1.0, allow_infinity=False),
                                         max_size=3, unique=True))),
        tol=tol)


@PROFILE
@given(config=configs())
def test_config_survives_its_dict_and_a_pickle(config):
    for again in (SimConfig.from_dict(config.to_dict()), pickle.loads(pickle.dumps(config))):
        assert again == config
        assert again.grid == config.grid
        assert again.omega0.tobytes() == config.omega0.tobytes()
        assert not again.omega0.flags.writeable

"""Time integration of the vorticity equation.

Steady-state preservation (rigid rotation for every viscosity),
inviscid invariants, an independent separation-of-variables oracle for
the viscous decay of a radial profile, step-size safety (the stepper
must refuse to run outside its advective stability bound), initial
condition construction, and trajectory serialization.
"""

import builtins
import json
import os
import pickle
import weakref
import zipfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from slipdisk import (
    CflError,
    ConvergenceReport,
    DivergenceError,
    ScalarField,
    SimConfig,
    Trajectory,
    VectorField,
    biot_savart,
    boundary_trace,
    build_grid,
    initial_vorticity,
    lp_norm,
    main,
    simulate,
    solve_poisson_dirichlet,
)
from slipdisk.biot_savart import PoissonDirichletSolver, cached_solver
from slipdisk.field import boundary_values, bump_values, perp_grad, to_modes
from slipdisk.ns_solver import (_DiffusionCN, _Stepper, _State, cfl_bound,
                                simulate_ensemble)

DATA = Path(__file__).parent / "data"
NAN, INF = float("nan"), float("inf")


# ---------------------------------------------------------------------------
# configuration and initial data
# ---------------------------------------------------------------------------

def test_config_validation():
    good = dict(nu=0.1, t_end=1.0, initial_condition={"const": 2.0})
    SimConfig(**good)
    with pytest.raises(ValueError):
        SimConfig(**{**good, "nu": -0.1})
    with pytest.raises(ValueError):
        SimConfig(**{**good, "t_end": 0.0})
    with pytest.raises(ValueError):
        SimConfig(**{**good, "dt": -1e-3})
    with pytest.raises(ValueError):
        SimConfig(**{**good, "output_stride": 0})
    with pytest.raises(ValueError):
        SimConfig(**{**good, "lp_exponents": (0.5,)})


@pytest.mark.parametrize("field", ["nu", "t_end", "dt"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite_nu_t_end_and_dt(field, value):
    # nu=nan used to run inviscid (the stepper tests nu > 0), t_end=nan or
    # inf gave a trajectory of 0 steps, nu=inf died in the tridiagonal solve
    good = dict(nu=0.1, t_end=1.0, initial_condition={"const": 2.0})
    with pytest.raises(ValueError, match=f"{field} must be .*finite"):
        SimConfig(**{**good, field: value})


@pytest.mark.parametrize("field, value, match", [
    ("n_r", 3, "n_r must be >= 4"),
    ("n_theta", 31, "n_theta must be positive and even"),
    ("n_theta", 0, "n_theta must be positive and even"),
    ("n_theta", -8, "n_theta must be positive and even"),
    ("n_r", 32.0, "n_r must be an integer"),
    ("n_theta", "32", "n_theta must be an integer"),
    ("n_r", True, "n_r must be an integer"),
    # a fractional stride used to snapshot every ceil(stride) steps and
    # broke the sweep's time alignment; it takes the grid sizes' check
    ("output_stride", 2.5, "output_stride must be an integer"),
    ("output_stride", True, "output_stride must be an integer"),
])
def test_config_rejects_bad_grid_sizes(field, value, match):
    good = dict(nu=0.1, t_end=1.0, initial_condition={"const": 2.0})
    with pytest.raises(ValueError, match=match):
        SimConfig(**{**good, field: value})
    with pytest.raises(ValueError, match=match):
        SimConfig.from_dict({**good, field: value})


@pytest.mark.parametrize("spec, match", [
    ({"initial_condition": {"tent": {}}}, "unknown initial condition"),
    ({"initial_condition": {"bump": {"radius": 0.0}}}, "radius"),
    ({"initial_condition": {"bump": {"radius": float("inf")}}}, "radius"),
    ({"initial_condition": {"bump": [0.5]}}, "malformed 'bump'"),
    ({"initial_condition": {"singular": {"gamma": 1.0}}}, "malformed 'singular'"),
    ({"initial_condition": {"modes": [[2]]}}, "malformed 'modes'"),
    ({"alpha": "x"}, "unrecognized alpha spec"),
    # non-finite numbers inside the specs used to pass and fail mid-run
    ({"initial_condition": {"bump": {"center": [NAN, 0.0]}}}, "bump center must be finite"),
    ({"initial_condition": {"bump": {"amplitude": INF}}}, "bump amplitude must be finite"),
    ({"initial_condition": {"const": NAN}}, "const initial condition must be finite"),
    ({"initial_condition": {"singular": {"center": [0.0, INF], "gamma": 0.4, "p": 4.0}}},
     "singular center must be finite"),
    ({"initial_condition": {"singular": {"gamma": NAN, "p": 4.0}}},
     "singular gamma must be finite"),
    ({"initial_condition": {"singular": {"gamma": 0.4, "p": -INF}}}, "singular p must be finite"),
    ({"initial_condition": {"modes": [[2, [1.0, NAN]]]}}, "modes coefficient must be finite"),
    ({"alpha": NAN}, "alpha must be finite"),
    ({"alpha": {"const": -INF}}, "alpha must be finite"),
    ({"alpha": {"fourier": [[1, 0.5, NAN]]}}, "alpha fourier coefficient must be finite"),
    ({"lp_exponents": (2.0, NAN)}, "lp exponents must be >= 1"),
    # the profile lies in L^p only for 0 < gamma p; a negative p slipped through
    ({"initial_condition": {"singular": {"gamma": 0.4, "p": -1.0}}}, "0 < gamma\\*p < 2"),
    # unknown keys inside a spec were ignored: a misspelt amplitude ran 1.0,
    # a misspelt center ran the origin, and const silently beat fourier
    ({"initial_condition": {"bump": {"radius": 0.3, "amplitud": 5.0}}},
     r"unknown 'bump' initial condition keys: \['amplitud'\]"),
    ({"initial_condition": {"singular": {"gamma": 0.4, "p": 3.0, "centre": [0.2, 0.0]}}},
     r"unknown 'singular' initial condition keys: \['centre'\]"),
    ({"alpha": {"const": 1.0, "fourier": [[1, 2, 3]]}}, "exactly one of const or fourier"),
    ({"alpha": {"cnst": 1.0}}, r"unknown alpha keys: \['cnst'\]"),
    # a callable alpha ran, then failed in Trajectory.save, which cannot
    # write a function into config-resolved.json
    ({"alpha": lambda theta: 1.0 + 0.5 * np.cos(theta)}, "unrecognized alpha spec"),
    # a fourth item was dropped, an object's keys were read as mode numbers,
    # and an empty coefficient list failed only when the run started
    ({"initial_condition": {"modes": [[1, [1.0], 0.0, 9]]}}, "malformed 'modes'"),
    ({"initial_condition": {"modes": {"a": 1}}}, "malformed 'modes'"),
    ({"initial_condition": {"modes": [[1, 2.0]]}}, "malformed 'modes'"),
    ({"initial_condition": {"modes": [[1, []]]}}, "malformed 'modes'"),
    # 2 and 2.0 both named the column enstrophy_2: series.csv wrote it twice
    ({"lp_exponents": [2, 4.0, 2.0]}, r"lp exponent 2.0 is repeated in \[2.0, 4.0, 2.0\]"),
    ({"tol": {"balance": -1e-3}}, r"tol balance must be >= 0, got -0.001"),
    # a radius whose square underflows: 1e-200 warned of a division by
    # zero and sampled a zero field
    ({"initial_condition": {"bump": {"radius": 1e-200}}}, "bump radius must be at least"),
    ({"initial_condition": {"bump": {"radius": 1e-160}}}, "bump radius must be at least"),
    # a bump whose support misses the disk sampled a zero field and ran
    ({"initial_condition": {"bump": {"center": [5.0, 0.0], "radius": 0.4}}},
     r"bump support misses the disk: center \(5.0, 0.0\), radius 0.4"),
    ({"initial_condition": {"bump": {"center": [1e200, 0.0], "radius": 0.4}}},
     r"bump support misses the disk: center \(1e\+200, 0.0\), radius 0.4"),
])
def test_config_rejects_specs_that_cannot_be_built(spec, match):
    # these used to pass construction and fail (or, for a zero bump
    # radius, silently give a zero field) only once a run started
    good = dict(nu=0.1, t_end=1.0, initial_condition={"const": 2.0})
    with pytest.raises(ValueError, match=match):
        SimConfig(**{**good, **spec})


def test_bump_overlapping_the_wall_is_sampled():
    # |center| < 1 + radius: the support meets the disk near the wall
    config = SimConfig(nu=0.1, t_end=1.0, n_r=16, n_theta=16, initial_condition={
        "bump": {"center": [1.3, 0.0], "radius": 0.4}})
    assert config.omega0.max() > 0.0


def test_config_roundtrip(tmp_path):
    config = SimConfig(nu=0.01, t_end=0.5, initial_condition={"const": 2.0},
                       alpha=1.0, n_r=32, n_theta=32, lp_exponents=(2.0, 4.0))
    again = SimConfig.from_dict(config.to_dict())
    assert again == config
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    assert SimConfig.from_json(path) == config


def _bitwise_equal(a, b) -> bool:
    """Dataclasses of arrays and numbers equal field by field, bit for bit."""
    return type(a) is type(b) and all(
        np.asarray(getattr(a, f.name)).tobytes() == np.asarray(getattr(b, f.name)).tobytes()
        for f in fields(a))


@pytest.mark.parametrize("spec", [
    dict(initial_condition={"bump": {"center": (0.3, 0.0), "radius": 0.4}}, alpha=1.0),
    dict(initial_condition={"modes": [[2, [0.0, 0.0, 1.5], 0.3]]},
         alpha={"fourier": [[1, 0.5, 0.25]]}, n_r=12, n_theta=20),
    dict(initial_condition={"singular": {"center": (0.1, 0.2), "gamma": 0.5, "p": 3.0}}),
])
def test_config_keeps_the_grid_trace_and_initial_vorticity_it_samples(spec):
    config = SimConfig(**{"nu": 0.1, "t_end": 1.0, "n_r": 16, "n_theta": 16, **spec})
    grid = build_grid(config.n_r, config.n_theta)
    assert _bitwise_equal(config.grid, grid)
    assert _bitwise_equal(config.trace, boundary_trace(grid, config.alpha))
    want = initial_vorticity(config.initial_condition, grid).values
    assert config.omega0.dtype == want.dtype and config.omega0.tobytes() == want.tobytes()
    assert not config.omega0.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        config.omega0[0, 0] = 1.0
    # kept beside the fields, not among them: the config's files, equality
    # and replace see only the fields
    assert set(config.to_dict()) == {f.name for f in fields(SimConfig)} - {"tol"}
    assert SimConfig.from_dict(config.to_dict()) == config == replace(config)
    assert replace(config, n_r=2 * config.n_r).omega0.shape == (2 * config.n_r, config.n_theta)


@pytest.mark.parametrize("spec", [
    dict(initial_condition={"bump": {"center": (0.3, 0.0), "radius": 0.4}}, alpha=1.0),
    dict(initial_condition={"modes": [[2, [0.0, 0.0, 1.5], 0.3]]},
         alpha={"fourier": [[1, 0.5, 0.25]]}, n_r=12, n_theta=20),
])
def test_config_crosses_a_pickle_as_its_fields(spec):
    # the pickle holds the fields alone; unpickling samples again, so
    # omega0 comes back read-only and bitwise equal
    config = SimConfig(**{"nu": 0.1, "t_end": 1.0, "n_r": 16, "n_theta": 16, **spec})
    blob = pickle.dumps(config)
    assert b"ndarray" not in blob and len(blob) < 1_000
    again = pickle.loads(blob)
    assert again == config
    assert not again.omega0.flags.writeable
    assert again.omega0.tobytes() == config.omega0.tobytes()
    assert _bitwise_equal(again.grid, config.grid)
    assert _bitwise_equal(again.trace, config.trace)


def test_simulate_starts_from_the_configs_samples(monkeypatch):
    # the run builds no grid, trace or initial vorticity of its own
    from slipdisk import ns_solver
    config = SimConfig(nu=0.05, t_end=0.02, initial_condition={
        "bump": {"center": (0.2, 0.1), "radius": 0.5, "amplitude": 3.0}},
        alpha=0.5, n_r=16, n_theta=16, output_stride=5)

    def refuse(*args, **kwargs):
        raise AssertionError("simulate rebuilt what its config keeps")

    for name in ("build_grid", "boundary_trace", "initial_profile", "initial_vorticity"):
        monkeypatch.setattr(ns_solver, name, refuse)
    traj = simulate(config)
    assert traj.omega[0].tobytes() == config.omega0.tobytes()
    assert traj.grid is config.grid and traj.trace is config.trace


def test_loaded_trajectory_takes_its_configs_grid_and_trace(tmp_path):
    simulate(SimConfig(nu=0.05, t_end=0.01, initial_condition={"const": 1.0},
                       alpha=1.0, n_r=8, n_theta=8)).save(tmp_path)
    again = Trajectory.load(tmp_path)
    assert again.grid is again.config.grid
    assert again.trace is again.config.trace


def test_trajectory_grid_and_trace_are_its_configs(tmp_path):
    # a trajectory keeps no grid or trace of its own: however it is made,
    # it reads them through its config
    from slipdisk.sweep import SweepConfig, run_sweep
    base = SimConfig(nu=0.05, t_end=0.02, initial_condition={"const": 1.0},
                     alpha=1.0, n_r=8, n_theta=8, output_stride=1)
    traj = simulate(base)
    traj.save(tmp_path)
    configs = [replace(base, nu=nu) for nu in (0.1, 0.0)]
    members = simulate_ensemble(configs)
    assert all(m.config is c for m, c in zip(members, configs))
    half = replace(traj, times=traj.times[1:], omega=traj.omega[1:])  # as the split walk's
    refined = run_sweep(SweepConfig(base=replace(base, nu=0.0), nu_list=(0.1,),
                                    q_list=(2.0,), p=4.0)).runs["euler_refined"]
    for run in (traj, *members, Trajectory.load(tmp_path), half, refined):
        assert run.grid is run.config.grid and run.trace is run.config.trace
    assert refined.grid.shape == (16, 16)
    with pytest.raises(AttributeError):
        traj.grid = members[0].grid


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        SimConfig.from_dict({"nu": 0.1, "t_end": 1.0,
                             "initial_condition": {"const": 2.0},
                             "viscosity": 0.1})


def test_initial_vorticity_const(grid32):
    om = initial_vorticity({"const": 2.0}, grid32)
    assert np.all(om.values == 2.0)


def test_initial_vorticity_bump_support(grid64):
    om = initial_vorticity(
        {"bump": {"center": (0.3, 0.0), "radius": 0.4, "amplitude": 8.0}}, grid64)
    x = grid64.r_col * np.cos(grid64.theta)[None, :]
    y = grid64.r_col * np.sin(grid64.theta)[None, :]
    outside = np.hypot(x - 0.3, y) >= 0.4
    assert np.all(om.values[outside] == 0.0)
    assert np.max(om.values) > 7.0  # peak value A e^{1 - 1/(1 - s^2)} -> A at center
    assert np.max(om.values) <= 8.0


def test_initial_vorticity_singular_capped(grid32):
    om = initial_vorticity(
        {"singular": {"center": (0.0, 0.0), "gamma": 0.5, "p": 3.0}}, grid32)
    assert np.max(om.values) <= grid32.dr ** -0.5 + 1e-12
    assert np.isfinite(om.values).all()
    assert lp_norm(om, 3.0) < np.inf


def test_initial_vorticity_singular_rejects_non_integrable(grid32):
    with pytest.raises(ValueError, match="gamma"):
        initial_vorticity({"singular": {"gamma": 1.0, "p": 2.0}}, grid32)


def test_initial_vorticity_modes(grid32):
    om = initial_vorticity({"modes": [[2, [0.0, 0.0, 1.0], 0.5]]}, grid32)
    want = grid32.r_col ** 2 * np.cos(2 * grid32.theta - 0.5)[None, :]
    assert np.allclose(om.values, want)


def test_initial_vorticity_rejects_unknown_or_compound_specs(grid32):
    with pytest.raises(ValueError, match="unknown initial condition"):
        initial_vorticity({"vortex": 1.0}, grid32)
    with pytest.raises(ValueError, match="exactly one key"):
        initial_vorticity({"const": 1.0, "bump": {}}, grid32)


# ---------------------------------------------------------------------------
# stepping basics
# ---------------------------------------------------------------------------

def test_vorticity_boundary_rigid(grid32):
    psi = np.broadcast_to((grid32.r_col ** 2 - 1.0) / 2.0, grid32.shape)
    for alpha in (0.0, 0.5, 2.0):
        tr = boundary_trace(grid32, alpha)
        bc = _Stepper(grid32, tr, [0.0]).boundary_vorticity(psi)
        assert np.max(np.abs(bc - (2.0 - alpha))) < 1e-12


def test_cfl_bound_scales():
    grid = build_grid(32, 32)
    u = biot_savart(initial_vorticity({"const": 2.0}, grid))
    # max |u| is ~ r at the last ring
    bound = cfl_bound(u)
    h = min(grid.dr, grid.r[0] * grid.dtheta)
    assert abs(bound - 0.5 * h / np.max(u.magnitude())) < 1e-15
    zero = biot_savart(initial_vorticity({"const": 0.0}, grid))
    assert cfl_bound(zero) == np.inf


def test_each_recorded_level_evaluates_its_speed_once(monkeypatch):
    # One u_r^2 + u_theta^2 per recorded time level serves the CFL check,
    # the automatic dt and the record; the midpoint stage never needs one.
    # max|u| is the square root of the largest square, so no np.hypot runs.
    squares, hypots = [], []
    speed2, hypot = _State.speed2, np.hypot

    def counting_speed2(self):
        squares.append(self._speed2 is None)
        return speed2(self)

    def counting_hypot(*args, **kwargs):
        hypots.append(args)
        return hypot(*args, **kwargs)

    monkeypatch.setattr(_State, "speed2", counting_speed2)
    monkeypatch.setattr(np, "hypot", counting_hypot)
    config = SimConfig(nu=0.01, t_end=0.1, initial_condition={
        "bump": {"center": (0.3, 0.0), "radius": 0.4, "amplitude": 8.0}},
        alpha=1.0, n_r=16, n_theta=16, output_stride=3)
    traj = simulate(config)
    n_steps = len(traj.series["t"]) - 1
    assert n_steps > 10
    assert sum(squares) == n_steps + 1
    assert hypots == []


def _level(grid, omega):
    """The stepper time level of the vorticity node values omega (B, n_r, n_theta)."""
    stepper = _Stepper(grid, boundary_trace(grid, 1.0), [0.01] * len(omega))
    return stepper, stepper.state(to_modes(omega), omega)


def test_level_cfl_bound_is_the_square_root_bound_bitwise():
    # Four members: a bump; the zero field, bound inf; the bump with a near
    # tie planted, where squares and np.hypot rank the top two nodes apart;
    # and the bump with a top node whose np.hypot is not the square root of
    # its square, so that a bound through np.hypot differs there.
    grid = build_grid(16, 16)
    bump = initial_vorticity({"bump": {"center": (0.3, 0.0), "radius": 0.4,
                                       "amplitude": 8.0}}, grid).values
    _, level = _level(grid, np.stack([bump, 0.0 * bump, bump, bump]))
    # two velocities of one length, 1% above the bump's top speed, rotated
    speed = 1.01 * np.sqrt(np.max(level.speed2()[2]))
    angle = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, (2, 200_000))
    a, b = speed * np.cos(angle[0]), speed * np.sin(angle[0])
    c, d = np.hypot(a, b) * np.cos(angle[1]), np.hypot(a, b) * np.sin(angle[1])
    squares, hypots = c * c + d * d - (a * a + b * b), np.hypot(c, d) - np.hypot(a, b)
    k = np.flatnonzero(squares * hypots < 0)[0]
    level.u_r[2, 3, 0], level.u_theta[2, 3, 0] = a[k], b[k]
    level.u_r[2, 3, 8], level.u_theta[2, 3, 8] = c[k], d[k]
    h = min(grid.dr, grid.r[0] * grid.dtheta)
    k = np.flatnonzero(0.5 * h / np.sqrt(a * a + b * b) != 0.5 * h / np.hypot(a, b))[0]
    level.u_r[3, 3, 0], level.u_theta[3, 3, 0] = a[k], b[k]
    level._speed2 = None
    assert np.argmax(level.speed2()[2]) != np.argmax(np.hypot(level.u_r[2],
                                                             level.u_theta[2]))
    bound = cfl_bound(level)
    assert bound.shape == (4,) and bound[1] == np.inf
    for k in range(4):
        u_r, u_theta = level.u_r[k], level.u_theta[k]
        with np.errstate(divide="ignore"):
            want = 0.5 * h / np.sqrt(np.max(u_r * u_r + u_theta * u_theta))
        assert bound[k] == want, k
        assert cfl_bound(VectorField(grid, u_r, u_theta)) == want, k
    assert bound[3] != 0.5 * h / np.max(np.hypot(level.u_r[3], level.u_theta[3]))
    # and a CFL trip on member 3's velocity reports that square root as max|u|
    stepper, one = _level(grid, bump[None])
    one.u_r[0], one.u_theta[0] = level.u_r[3], level.u_theta[3]
    one._speed2 = None
    with pytest.raises(CflError) as exc:
        stepper.advance(one, float(np.nextafter(bound[3], np.inf)))
    max_u = np.sqrt(np.max(one.speed2()))
    assert exc.value.max_u == max_u != np.max(np.hypot(one.u_r, one.u_theta))


def test_fixed_dt_at_the_level_bound_steps_and_one_ulp_above_trips():
    # A step of dt runs exactly when dt <= cfl_bound(level), for levels
    # whose bounds round either way.
    grid = build_grid(16, 16)
    bump = initial_vorticity({"bump": {"center": (0.3, 0.0), "radius": 0.4,
                                       "amplitude": 8.0}}, grid).values
    stepper, level = _level(grid, np.stack([bump, 0.5 * bump, -bump]))
    bound = cfl_bound(level)
    k = int(np.argmin(bound))
    with pytest.raises(CflError) as exc:
        stepper.advance(level, float(np.nextafter(bound[k], np.inf)))
    assert exc.value.bound == bound[k] and exc.value.nu == 0.01
    # max|u| is the square root of the member's largest squared speed
    assert exc.value.max_u == np.sqrt(np.max(level.speed2()[k]))
    for scale in np.linspace(1.0, 2.0, 24):
        stepper, level = _level(grid, scale * bump[None])
        dt = float(cfl_bound(level)[0])
        assert np.all(np.isfinite(stepper.advance(level, dt).omega)), scale
        with pytest.raises(CflError) as exc:
            stepper.advance(level, float(np.nextafter(dt, np.inf)))
        assert exc.value.max_u == np.sqrt(np.max(level.speed2())), scale


def test_auto_dt_is_t_end_when_every_squared_speed_underflows():
    # At amplitude 1e-170 the velocity is not 0 but every u_r^2 + u_theta^2
    # underflows to 0; the automatic dt still takes the run in one step, as
    # it does for the zero field. Both CFL bounds are infinite.
    grid = build_grid(16, 16)
    for initial_condition, moving in (
            ({"bump": {"center": (0.3, 0.0), "radius": 0.4, "amplitude": 1e-170}}, True),
            ({"const": 0.0}, False)):
        config = SimConfig(nu=0.01, t_end=0.1, initial_condition=initial_condition,
                           alpha=1.0, n_r=16, n_theta=16)
        _, level = _level(grid, initial_vorticity(initial_condition, grid).values[None])
        assert (np.max(np.abs(level.u_r)) > 0.0) == moving
        assert np.all(level.speed2() == 0.0) and cfl_bound(level) == np.inf
        traj = simulate(config)
        assert traj.series["t"].tolist() == [0.0, 0.1]
        assert traj.times.tolist() == [0.0, 0.1]
        assert np.all(np.isfinite(traj.omega))
        assert (np.max(np.abs(traj.omega[-1])) > 0.0) == moving


def test_level_cfl_bound_matches_its_velocity_field():
    # sweep.run_sweep takes the bound of a VectorField; simulate takes it of a level.
    grid = build_grid(16, 16)
    omega = initial_vorticity({"bump": {"center": (0.3, 0.0), "radius": 0.4,
                                        "amplitude": 8.0}}, grid).values[None]
    level = _Stepper(grid, boundary_trace(grid, 1.0), [0.01]).state(to_modes(omega), omega)
    u = VectorField(grid, level.u_r[0], level.u_theta[0])
    assert cfl_bound(level)[0] == cfl_bound(u)
    assert cfl_bound(level)[0] == cfl_bound(biot_savart(ScalarField(grid, omega[0])))


def test_level_velocity_is_the_perp_grad_of_its_stream_function():
    # A level's u_r comes out of the inverse transform with psi's theta
    # multiplier ik / (-r), the -1/r folded in; perp_grad divides the theta
    # derivative by -r on the nodes. u_theta is the same radial stencil.
    grid = build_grid(32, 32)
    omega = initial_vorticity({"bump": {"center": (0.3, 0.0), "radius": 0.4,
                                        "amplitude": 8.0}}, grid).values
    stepper = _Stepper(grid, boundary_trace(grid, 1.0), [0.01, 0.0])
    omega = np.stack([omega, omega])
    level = stepper.state(to_modes(omega), omega)
    dt = 0.5 * float(np.min(cfl_bound(level)))
    for _ in range(5):
        level = stepper.advance(level, dt)
    u = perp_grad(ScalarField(grid, level.psi))
    for b in range(2):
        scale = np.max(np.abs(u.u_r[b]))
        assert np.max(np.abs(level.u_r[b] - u.u_r[b])) <= 1e-12 * scale
    assert np.array_equal(level.u_theta, u.u_theta)


def test_snapshots_own_their_memory():
    # A member's snapshots are one array that owns exactly its values: a
    # view of a time level's node buffer would keep the whole buffer
    # (vorticity, stream function and derivatives) alive, and a view of
    # an ensemble-wide stack every member's snapshots.
    config = SimConfig(nu=0.01, t_end=0.02, initial_condition={"const": 2.0},
                       dt=0.005, n_r=16, n_theta=16, output_stride=2)
    members = simulate_ensemble([config, SimConfig(**{**config.to_dict(), "nu": 0.0})])
    for traj in [simulate(config), *members]:
        omega = traj.omega
        assert omega.shape == (len(traj.times), 16, 16) == (3, 16, 16)
        owner = omega if omega.base is None else omega.base
        assert owner.flags.owndata and owner.nbytes == omega.size * 8 == 3 * 16 * 16 * 8
        assert omega.flags.c_contiguous


def test_trajectory_views_its_snapshot_array(monkeypatch):
    # omegas and the walk's batches are views of omega, not copies
    from slipdisk import ns_solver

    traj = simulate(SimConfig(nu=0.01, t_end=0.02, initial_condition={"const": 2.0},
                              dt=0.005, n_r=16, n_theta=16, output_stride=2))
    assert traj.omegas is traj.omegas and len(traj.omegas) == 3
    for k, om in enumerate(traj.omegas):
        assert np.shares_memory(om.values, traj.omega[k])
        assert np.array_equal(om.values, traj.omega[k])
    monkeypatch.setattr(ns_solver, "SNAPSHOT_BATCH", 2)
    batches = [(sl, om.values) for sl, om, _ in traj._batches()]
    assert [sl for sl, _ in batches] == [slice(0, 2), slice(2, 4)]
    for sl, values in batches:
        assert np.shares_memory(values, traj.omega[sl])
        assert np.array_equal(values, traj.omega[sl])


def test_simulate_rejects_oversized_fixed_dt():
    config = SimConfig(nu=0.0, t_end=0.5, initial_condition={"const": 2.0},
                       dt=0.1, n_r=32, n_theta=32)
    with pytest.raises(CflError) as exc:
        simulate(config)
    assert exc.value.dt == 0.1
    assert exc.value.bound < 0.1


def test_auto_dt_run_holds_one_diffusion_factorization(monkeypatch):
    # The automatic dt moves every 10 steps and never comes back, so the
    # stepper keeps only the Crank-Nicolson factorization of the current dt.
    live = weakref.WeakSet()
    built, held = [], []
    init, step_modes = _DiffusionCN.__init__, _DiffusionCN.step

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        live.add(self)
        built.append(1)

    def counting_step(self, *args, **kwargs):
        held.append(len(live))
        return step_modes(self, *args, **kwargs)

    monkeypatch.setattr(_DiffusionCN, "__init__", counting_init)
    monkeypatch.setattr(_DiffusionCN, "step", counting_step)
    config = SimConfig(nu=0.01, t_end=0.25, initial_condition={
        "bump": {"center": (0.3, 0.0), "radius": 0.4, "amplitude": 8.0}},
        alpha=1.0, n_r=32, n_theta=32, output_stride=50)
    simulate(config)
    assert len(built) >= 10
    assert max(held) == 1


def _dense_crank_nicolson(bands, nus, dt, omega, g):
    """(I - lam T)^-1 ((I + lam T) omega + 2 lam d g) per member and mode,
    lam = nu dt / 2, by dense solves on the Dirichlet bands."""
    lower, diag, upper, d = bands
    n_r = diag.shape[-1]
    T = np.zeros(diag.shape + (n_r,))
    rows = np.arange(n_r)
    T[:, rows, rows] = diag
    T[:, rows[1:], rows[:-1]] = lower[:, 1:]
    T[:, rows[:-1], rows[1:]] = upper[:, :-1]
    eye = np.eye(n_r)
    want = np.empty_like(omega)
    g_modes = np.fft.rfft(g, axis=-1)
    for b, nu in enumerate(nus):
        lam = 0.5 * nu * dt
        rhs = np.einsum("kij,kj->ki", eye + lam * T, omega[b])
        rhs[:, -1] += 2.0 * lam * d * g_modes[b]
        want[b] = np.linalg.solve(eye - lam * T, rhs[..., None])[..., 0]
    return want


def test_crank_nicolson_step_matches_dense_solve():
    # (I - lam T) omega' = (I + lam T) omega + 2 lam d g per mode, lam = nu dt / 2,
    # for viscous and inviscid members on the Poisson solver's Dirichlet bands
    rng = np.random.default_rng(3)
    grid = build_grid(8, 8)
    bands = cached_solver(PoissonDirichletSolver, grid).bands
    nus, dt = np.array([0.05, 0.0]), 0.01
    n_modes = grid.n_theta // 2 + 1
    omega = (rng.standard_normal((2, n_modes, grid.n_r))
             + 1j * rng.standard_normal((2, n_modes, grid.n_r)))
    g = 1.0 + rng.standard_normal((2, grid.n_theta))
    got = _DiffusionCN(bands, nus, dt).step(omega, g)
    want = _dense_crank_nicolson(bands, nus, dt, omega, g)
    for b, nu in enumerate(nus):
        for k in range(n_modes):
            assert np.max(np.abs(got[b, k] - want[b, k])) <= 1e-12, (nu, k)
    assert np.array_equal(got[1], omega[1])
    # The stiff end: 64^2 at the sweep's refined dt, lam |Lambda_k| up to
    # about 433, past lam |Lambda| = 1, where the solve y is about omega / 2
    # and the step's 2 y - omega cancels; each mode to 1e-13 of its largest
    # entry.
    grid = build_grid(64, 64)
    bands = cached_solver(PoissonDirichletSolver, grid).bands
    nus, dt = np.array([0.1, 0.001, 0.0]), 0.5 / 969
    n_modes = grid.n_theta // 2 + 1
    omega = (rng.standard_normal((3, n_modes, grid.n_r))
             + 1j * rng.standard_normal((3, n_modes, grid.n_r)))
    g = 1.0 + rng.standard_normal((3, grid.n_theta))
    got = _DiffusionCN(bands, nus, dt).step(omega, g)
    want = _dense_crank_nicolson(bands, nus, dt, omega, g)
    scale = np.max(np.abs(want), axis=-1)
    assert np.all(np.max(np.abs(got - want), axis=-1) <= 1e-13 * scale)
    assert np.array_equal(got[2], omega[2])


def test_viscous_run_leaves_the_shared_dirichlet_bands_unchanged():
    bands = cached_solver(PoissonDirichletSolver, build_grid(16, 16)).bands
    before = [band.copy() for band in bands[:3]]
    simulate(SimConfig(nu=0.05, t_end=0.02, initial_condition={
        "bump": {"center": (0.3, 0.0), "radius": 0.4, "amplitude": 8.0}},
        alpha=1.0, n_r=16, n_theta=16, output_stride=10))
    for band, old in zip(bands[:3], before):
        assert not band.flags.writeable
        assert np.array_equal(band, old)


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

def _ensemble_config(**kw):
    defaults = dict(nu=0.0, t_end=0.05, initial_condition={
        "bump": {"center": (0.3, 0.0), "radius": 0.4, "amplitude": 8.0}},
        alpha=1.0, dt=5e-4, n_r=32, n_theta=32, output_stride=20,
        lp_exponents=(2.0, 4.0))
    defaults.update(kw)
    return SimConfig(**defaults)


def _close(a, b, rel=1e-12):
    return np.max(np.abs(a - b)) <= rel * max(np.max(np.abs(b)), 1e-300)


def test_ensemble_members_match_standalone_runs():
    configs = [_ensemble_config(nu=nu) for nu in (0.05, 0.0, 0.005)]
    members = simulate_ensemble(configs)
    assert len(members) == len(configs)
    for config, got in zip(configs, members):
        want = simulate(config)
        assert got.config is config
        assert np.array_equal(got.times, want.times)
        assert len(got.omegas) == len(want.omegas) == 6
        for k in range(len(want.times)):
            assert _close(got.omegas[k].values, want.omegas[k].values), (config.nu, k)
            assert _close(got.us[k].u_r, want.us[k].u_r), (config.nu, k)
            assert _close(got.us[k].u_theta, want.us[k].u_theta), (config.nu, k)
        assert got.series_columns() == want.series_columns()
        for col in want.series_columns():
            assert len(got.series[col]) == 101
            assert _close(got.series[col], want.series[col]), (config.nu, col)


@pytest.mark.parametrize("change", [
    {"n_r": 16}, {"n_theta": 16}, {"alpha": 0.0}, {"dt": 2.5e-4},
    {"t_end": 0.1}, {"output_stride": 10},
])
def test_ensemble_rejects_configs_differing_beyond_nu(change):
    with pytest.raises(ValueError, match="differ only in nu"):
        simulate_ensemble([_ensemble_config(nu=0.01),
                           _ensemble_config(nu=0.001, **change)])


def test_ensemble_of_no_configs_is_refused():
    with pytest.raises(ValueError, match="at least one config"):
        simulate_ensemble([])


def test_divergence_names_only_the_member_that_diverged():
    # The stacked Crank-Nicolson solve spreads one member's non-finite
    # values into its neighbours, which must not be blamed for them.
    grid = build_grid(16, 16)
    stepper = _Stepper(grid, boundary_trace(grid, 1.0), [0.1, 0.05, 0.0])
    omega = np.repeat(initial_vorticity({"const": 2.0}, grid).values[None], 3, axis=0)
    state = stepper.state(to_modes(omega), omega)
    state.omega_modes[1, 2, 5] = np.inf
    with np.errstate(invalid="ignore"), \
            pytest.raises(DivergenceError, match=r"nu=\[0.05\]$"):
        stepper.advance(state, 1e-3)


def test_ensemble_cfl_trip_names_the_member():
    configs = [_ensemble_config(nu=0.02, dt=0.04), _ensemble_config(nu=0.0, dt=0.04)]
    with pytest.raises(CflError, match=r"step 1 at t=0: nu=0.02: dt=0.04 exceeds") as exc:
        simulate_ensemble(configs)
    assert exc.value.nu == 0.02
    assert exc.value.bound < 0.04


def test_solver_errors_survive_pickling():
    # The sweep's refined run raises in a worker process, whose errors
    # reach the caller pickled; CflError(message) could not be rebuilt.
    with pytest.raises(CflError) as cfl:
        simulate_ensemble([_ensemble_config(nu=0.02, dt=0.04)])
    divergence = DivergenceError("non-finite vorticity")
    divergence.args = (f"step 7 at t=0.1: {divergence}",)
    for err in (cfl.value, CflError(0.1, 0.05, 3.0, 0.01), divergence):
        again = pickle.loads(pickle.dumps(err))
        assert type(again) is type(err) and again.args == err.args
        assert str(again) == str(err)
        if isinstance(err, CflError):
            assert (again.dt, again.bound, again.max_u, again.nu) == \
                (err.dt, err.bound, err.max_u, err.nu)
    assert str(cfl.value).startswith("step 1 at t=0: nu=0.02")


# ---------------------------------------------------------------------------
# steady states and invariants
# ---------------------------------------------------------------------------

def test_rigid_rotation_steady_inviscid_and_viscous(rigid_trajectories):
    # omega = 2 with alpha = 0 is steady for every viscosity: the
    # advection of a constant vanishes and the slip condition is met by
    # the rotation itself.
    for nu, traj in rigid_trajectories.items():
        drift = max(np.max(np.abs(om.values - 2.0)) for om in traj.omegas)
        assert drift < 1e-7, f"nu={nu}: {drift}"


def test_inviscid_enstrophy_conserved():
    config = SimConfig(nu=0.0, t_end=0.2, initial_condition={
        "bump": {"center": (0.3, 0.0), "radius": 0.4, "amplitude": 4.0}},
        alpha=1.0, n_r=48, n_theta=48, output_stride=50)
    traj = simulate(config)
    ens = traj.series["enstrophy_2"]
    assert np.max(np.abs(ens - ens[0])) / ens[0] < 1e-5


def test_viscous_decay_matches_separation_of_variables():
    # Radial data omega_0 = 1 - r^2 with alpha = 2 gives a pure decay
    # problem: the swirl is azimuthal so advection vanishes identically,
    # and (2 kappa - alpha) = 0 zeroes the vorticity boundary value.  The
    # exact solution is the Dirichlet heat series
    #   omega(r, t) = sum_m 8 / (j_m^3 J_1(j_m)) J_0(j_m r) e^{-nu j_m^2 t}
    # with j_m the zeros of J_0 (coefficients from the standard integrals
    # int_0^1 r J_0(j r) dr = J_1(j)/j and
    # int_0^1 r^3 J_0(j r) dr = (j^2 - 4) J_1(j)/j^3 at J_0(j) = 0).
    special = pytest.importorskip("scipy.special")
    nu, t_end = 0.5, 0.2
    config = SimConfig(nu=nu, t_end=t_end, initial_condition={
        "modes": [[0, [1.0, 0.0, -1.0]]]}, alpha=2.0,
        n_r=64, n_theta=32, output_stride=10 ** 6)
    traj = simulate(config)
    grid = traj.grid

    zeros = special.jn_zeros(0, 60)
    exact = np.zeros_like(grid.r)
    for j in zeros:
        exact += 8.0 / (j ** 3 * special.j1(j)) * special.j0(j * grid.r) \
            * np.exp(-nu * j ** 2 * t_end)
    got = traj.omegas[-1].values
    err = np.max(np.abs(got - exact[:, None]))
    assert err < 2e-4, err


def test_energy_decays_viscous():
    config = SimConfig(nu=0.05, t_end=0.3, initial_condition={
        "bump": {"center": (0.3, 0.0), "radius": 0.4, "amplitude": 4.0}},
        alpha=1.0, n_r=48, n_theta=48, output_stride=100)
    traj = simulate(config)
    e = traj.series["energy"]
    assert np.all(np.diff(e) <= 1e-9 * e[0])
    assert e[-1] < e[0]


# ---------------------------------------------------------------------------
# trajectory bookkeeping and serialization
# ---------------------------------------------------------------------------

def test_simulate_series_and_snapshots():
    config = SimConfig(nu=0.01, t_end=0.05, initial_condition={"const": 2.0},
                       n_r=24, n_theta=32, output_stride=5,
                       lp_exponents=(2.0, 3.0))
    traj = simulate(config)
    assert traj.series_columns() == ["t", "energy", "enstrophy_2", "enstrophy_3",
                                     "bc_residual"]
    assert traj.times[0] == 0.0
    assert abs(traj.times[-1] - 0.05) < 1e-12
    assert len(traj.times) == len(traj.omegas) == len(traj.us)
    assert len(traj.series["t"]) >= len(traj.times)
    # snapshots at stride multiples plus endpoints
    assert len(traj.times) >= 3


def test_bump_run_matches_recorded_values():
    """A 32^2 bump run against values recorded from the Thomas-loop,
    physical-space stepper: the LAPACK solves and the mode-space step
    reorder roundoff only, so everything holds to 1e-10 relative."""
    config = SimConfig(nu=0.01, t_end=0.25, initial_condition={
        "bump": {"center": (0.3, 0.0), "radius": 0.4, "amplitude": 8.0}},
        alpha=1.0, n_r=32, n_theta=32, output_stride=50)
    traj = simulate(config)
    assert len(traj.series["t"]) - 1 == 154
    recorded = {"energy": 0.5501677594956391, "enstrophy_2": 2.724499016808271,
                "enstrophy_4": 3.945025237922802, "bc_residual": 0.009160045864830879}
    for key, want in recorded.items():
        assert abs(traj.series[key][-1] - want) <= 1e-10 * abs(want), key
    omega = np.load(DATA / "bump32_omega_final.npy")
    assert np.max(np.abs(traj.omegas[-1].values - omega)) <= 1e-10 * np.max(np.abs(omega))


def test_trajectory_save_load_roundtrip(tmp_path):
    config = SimConfig(nu=0.02, t_end=0.04, initial_condition={
        "modes": [[1, [0.0, 1.0]]]}, alpha=1.0, n_r=24, n_theta=32,
        output_stride=10)
    traj = simulate(config)
    run_dir = tmp_path / "run"
    traj.save(run_dir)
    assert (run_dir / "config-resolved.json").exists()
    assert (run_dir / "series.csv").exists()
    assert (run_dir / "snapshots.npz").exists()

    with np.load(run_dir / "snapshots.npz") as data:
        assert sorted(data.files) == ["omega", "series_names", "series_values", "times"]
    with zipfile.ZipFile(run_dir / "snapshots.npz") as archive:  # stored, not deflated
        assert {m.compress_type for m in archive.infolist()} == {zipfile.ZIP_STORED}

    again = Trajectory.load(run_dir)
    assert np.allclose(again.times, traj.times)
    assert np.array_equal(again.omega, traj.omega)
    # u is derived from omega by one code path, loaded or not
    for a, b in zip(again.us, traj.us):
        assert np.array_equal(a.u_r, b.u_r)
        assert np.array_equal(a.u_theta, b.u_theta)
    assert np.allclose(again.series["energy"], traj.series["energy"])
    assert again.config.nu == config.nu

    # a run directory of the earlier compressed format loads to the same arrays
    _rewrite_snapshots(run_dir)
    deflated = Trajectory.load(run_dir)
    assert np.array_equal(deflated.times, again.times)
    assert np.array_equal(deflated.omega, again.omega)
    assert all(np.array_equal(deflated.series[c], again.series[c]) for c in again.series)

    # a run directory of the earlier format, with psi and u stored too, loads
    _rewrite_snapshots(run_dir, psi=np.stack([solve_poisson_dirichlet(om).values
                                               for om in traj.omegas]),
                       u_r=np.stack([u.u_r for u in traj.us]),
                       u_theta=np.stack([u.u_theta for u in traj.us]),
                       u_tau=np.stack([u.u_theta[-1] for u in traj.us]))
    older = Trajectory.load(run_dir)
    assert all(np.array_equal(a.u_r, b.u_r) and np.array_equal(a.u_theta, b.u_theta)
               for a, b in zip(older.us, traj.us))

    # the stepper's own psi is the Biot-Savart stream function of its omega
    stepper = _Stepper(traj.grid, traj.trace, [config.nu])
    omega = traj.omegas[-1].values[None]
    s = stepper.advance(stepper.state(to_modes(omega), omega), 1e-3)
    derived = solve_poisson_dirichlet(ScalarField(traj.grid, s.omega[0])).values
    assert np.max(np.abs(derived - s.psi[0])) <= 1e-12 * np.max(np.abs(s.psi[0]))


def test_trajectory_derives_psi_and_u_once_per_snapshot(monkeypatch):
    from slipdisk import ns_solver

    traj = simulate(SimConfig(nu=0.02, t_end=0.02, initial_condition={"const": 2.0},
                              dt=0.005, n_r=16, n_theta=16, output_stride=2))
    calls = []

    def counting(omega):
        calls.append(omega)
        return biot_savart(omega)

    monkeypatch.setattr(ns_solver, "biot_savart", counting)
    us = traj.us
    assert traj.us is us
    # every snapshot once, in one solve per batch of SNAPSHOT_BATCH
    assert [c.values.shape for c in calls] == [(len(traj.omegas),) + traj.grid.shape]
    assert len(traj.omegas) <= ns_solver.SNAPSHOT_BATCH
    for u, om in zip(us, traj.omegas):  # bitwise the one-snapshot derivation
        alone = biot_savart(om)
        assert np.array_equal(u.u_r, alone.u_r) and np.array_equal(u.u_theta, alone.u_theta)


def _rewrite_snapshots(run_dir, **replace):
    path = run_dir / "snapshots.npz"
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    arrays.update(replace)
    np.savez_compressed(path, **arrays)


def test_trajectory_load_rejects_inconsistent_snapshots(tmp_path):
    config = SimConfig(nu=0.02, t_end=0.02, initial_condition={"const": 2.0},
                       dt=0.005, n_r=16, n_theta=16, output_stride=2)
    traj = simulate(config)
    assert len(traj.times) == 3
    omega = traj.omega
    cases = {
        "missing snapshot": (dict(omega=omega[:2]), r"omega has shape \(2, 16, 16\)"),
        "wrong grid": (dict(omega=omega[:, :8]), r"omega has shape \(3, 8, 16\)"),
        "series names": (dict(series_names=np.array(["t", "energy"])), "series_names"),
        "series rows": (dict(series_values=np.zeros((2, 5))), "with 2 rows"),
        "non-finite snapshot": (dict(omega=np.where(np.arange(3)[:, None, None] >= 1,
                                                    np.inf, omega)),
                                "omega of snapshot 1 has non-finite entries"),
    }
    for name, (replace, match) in cases.items():
        run_dir = tmp_path / name.replace(" ", "_")
        traj.save(run_dir)
        _rewrite_snapshots(run_dir, **replace)
        with pytest.raises(ValueError, match=match) as info:
            Trajectory.load(run_dir)
        assert "snapshots.npz" in str(info.value), name

    # a file cut short, or emptied, is reported as unreadable, not as a zip error
    run_dir = tmp_path / "truncated"
    traj.save(run_dir)
    path = run_dir / "snapshots.npz"
    whole = path.read_bytes()
    for size in (len(whole) // 2, 0):
        path.write_bytes(whole[:size])
        with pytest.raises(ValueError, match="snapshots.npz: unreadable snapshot file"):
            Trajectory.load(run_dir)


_TINY = dict(nu=0.02, t_end=0.02, initial_condition={"const": 2.0}, dt=0.005,
             n_r=16, n_theta=16, output_stride=2)


def _write_save(tmp_path, out):
    simulate(SimConfig(**_TINY)).save(out)


def _write_simulate(tmp_path, out):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(_TINY))
    assert main(["simulate", str(config), "--out", str(out)]) == 0


def _write_sweep(tmp_path, out):
    row = {"nu": 0.1, "q": 2.0, "sup_lq_diff": 1e-3, "sup_lp_enstrophy": 2.0,
           "energy_ok": True, "renorm_slack": 0.0, "wall_ms": 1.0}
    ConvergenceReport(rows=(row,), euler_floor={2.0: 1e-4}, config={"p": 4.0},
                      metadata={"n_steps": 1}).write(out)


def _write_diagnose(tmp_path, out):
    if not out.exists():
        simulate(SimConfig(**_TINY)).save(out)
    assert main(["diagnose", str(out)]) == 0


def _write_adn(tmp_path, out):
    out.mkdir(exist_ok=True)
    problem = out / "slip.json"
    problem.write_text(json.dumps({"builtin": "navier_laplacian", "alpha": 1.0}))
    assert main(["adn", str(problem), "--out", str(out / "slip.report.json")]) == 0


_WRITERS = {"save": _write_save, "simulate": _write_simulate, "sweep": _write_sweep,
            "diagnose": _write_diagnose, "adn": _write_adn}


class _TornFile:
    """A file whose first write stores half its data, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[:len(data) // 2])
        raise OSError("disk full")

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.mark.parametrize("writer, name", [
    ("save", "config-resolved.json"), ("save", "series.csv"), ("save", "snapshots.npz"),
    ("simulate", "report.json"),
    ("sweep", "series.csv"), ("sweep", "report.json"), ("sweep", "config-resolved.json"),
    ("diagnose", "diagnostics.json"), ("adn", "slip.report.json"),
])
def test_output_files_are_replaced_atomically(tmp_path, monkeypatch, writer, name):
    # every output file but snapshots.npz used to be opened in place, so
    # a write that failed midway left the file cut short
    out = tmp_path / "out"
    _WRITERS[writer](tmp_path, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert name in before
    real_open = builtins.open

    def torn_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        base = os.path.basename(str(file))
        if "w" in mode and (base == name or base.startswith(name + ".")):
            return _TornFile(fh)
        return fh

    monkeypatch.setattr(builtins, "open", torn_open)
    with pytest.raises(OSError, match="disk full"):
        _WRITERS[writer](tmp_path, out)
    monkeypatch.undo()
    # the earlier file is untouched and no temporary file is left behind
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert after.keys() == before.keys() and after[name] == before[name]


def test_bump_values_signature(grid32):
    vals, _, _ = bump_values(grid32, center=(0.0, 0.0), radius=0.5, amplitude=2.0)
    assert np.max(vals) <= 2.0
    assert np.min(vals) >= 0.0


def test_boundary_residual_series_small_for_rigid(rigid_trajectories):
    traj = rigid_trajectories[0.1]
    assert np.max(traj.series["bc_residual"]) < 1e-8
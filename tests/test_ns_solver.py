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
    biot_savart,
    boundary_trace,
    build_grid,
    initial_vorticity,
    lp_norm,
    main,
    simulate,
    solve_poisson_dirichlet,
)
from slipdisk.field import boundary_values, to_modes
from slipdisk.ns_solver import (_boundary_vorticity, _DiffusionCN, _Stepper, bump_values,
                                cfl_bound, simulate_ensemble)

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
])
def test_config_rejects_specs_that_cannot_be_built(spec, match):
    # these used to pass construction and fail (or, for a zero bump
    # radius, silently give a zero field) only once a run started
    good = dict(nu=0.1, t_end=1.0, initial_condition={"const": 2.0})
    with pytest.raises(ValueError, match=match):
        SimConfig(**{**good, **spec})


def test_config_roundtrip(tmp_path):
    config = SimConfig(nu=0.01, t_end=0.5, initial_condition={"const": 2.0},
                       alpha=1.0, n_r=32, n_theta=32, lp_exponents=(2.0, 4.0))
    again = SimConfig.from_dict(config.to_dict())
    assert again == config
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    assert SimConfig.from_json(path) == config


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
        bc = _boundary_vorticity(psi, grid32, tr)
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
    for a, b in zip(again.omegas, traj.omegas):
        assert np.allclose(a.values, b.values)
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
    assert all(np.array_equal(a.values, b.values)
               for a, b in zip(deflated.omegas, again.omegas))
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
    omega = np.stack([f.values for f in traj.omegas])
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
    vals = bump_values(grid32, center=(0.0, 0.0), radius=0.5, amplitude=2.0)
    assert np.max(vals) <= 2.0
    assert np.min(vals) >= 0.0


def test_boundary_residual_series_small_for_rigid(rigid_trajectories):
    traj = rigid_trajectories[0.1]
    assert np.max(traj.series["bc_residual"]) < 1e-8
"""Time integration of the vorticity equation.

Steady-state preservation (rigid rotation for every viscosity),
inviscid invariants, an independent separation-of-variables oracle for
the viscous decay of a radial profile, step-size safety (the stepper
must refuse to run outside its advective stability bound), initial
condition construction, and trajectory serialization.
"""

import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from slipdisk import (
    CflError,
    DivergenceError,
    ScalarField,
    SimConfig,
    Trajectory,
    biot_savart,
    boundary_trace,
    build_grid,
    initial_vorticity,
    lp_norm,
    simulate,
    step,
)
from slipdisk.field import boundary_values, to_modes
from slipdisk.ns_solver import (_DiffusionCN, _Stepper, bump_values, cfl_bound,
                                simulate_ensemble, vorticity_boundary)

DATA = Path(__file__).parent / "data"


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


@pytest.mark.parametrize("field, value, match", [
    ("n_r", 3, "n_r must be >= 4"),
    ("n_theta", 31, "n_theta must be positive and even"),
    ("n_theta", 0, "n_theta must be positive and even"),
    ("n_theta", -8, "n_theta must be positive and even"),
    ("n_r", 32.0, "n_r must be an integer"),
    ("n_theta", "32", "n_theta must be an integer"),
    ("n_r", True, "n_r must be an integer"),
])
def test_config_rejects_bad_grid_sizes(field, value, match):
    good = dict(nu=0.1, t_end=1.0, initial_condition={"const": 2.0})
    with pytest.raises(ValueError, match=match):
        SimConfig(**{**good, field: value})
    with pytest.raises(ValueError, match=match):
        SimConfig.from_dict({**good, field: value})


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
    psi = ScalarField(grid32, np.broadcast_to(
        (grid32.r_col ** 2 - 1.0) / 2.0, grid32.shape).copy())
    for alpha in (0.0, 0.5, 2.0):
        tr = boundary_trace(grid32, alpha)
        bc = vorticity_boundary(psi, tr)
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


def test_step_rejects_oversized_dt(grid32):
    omega = initial_vorticity({"const": 2.0}, grid32)
    from slipdisk import solve_poisson_dirichlet
    psi = solve_poisson_dirichlet(omega)
    config = SimConfig(nu=0.0, t_end=1.0, initial_condition={"const": 2.0},
                       n_r=32, n_theta=32)
    tr = boundary_trace(grid32, 0.0)
    with pytest.raises(CflError) as exc:
        step(omega, psi, config, tr, dt=0.1)
    assert exc.value.dt == 0.1
    assert exc.value.bound < 0.1


def test_simulate_rejects_oversized_fixed_dt():
    config = SimConfig(nu=0.0, t_end=0.5, initial_condition={"const": 2.0},
                       dt=0.1, n_r=32, n_theta=32)
    with pytest.raises(CflError):
        simulate(config)


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
            assert _close(got.psis[k].values, want.psis[k].values), (config.nu, k)
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
    assert len(traj.times) == len(traj.omegas) == len(traj.psis) == len(traj.us)
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

    again = Trajectory.load(run_dir)
    assert np.allclose(again.times, traj.times)
    for a, b in zip(again.omegas, traj.omegas):
        assert np.allclose(a.values, b.values)
    for a, b in zip(again.us, traj.us):
        assert np.allclose(a.u_theta, b.u_theta)
    assert np.allclose(again.series["energy"], traj.series["energy"])
    assert again.config.nu == config.nu


def test_bump_values_signature(grid32):
    vals = bump_values(grid32, center=(0.0, 0.0), radius=0.5, amplitude=2.0)
    assert np.max(vals) <= 2.0
    assert np.min(vals) >= 0.0


def test_boundary_residual_series_small_for_rigid(rigid_trajectories):
    traj = rigid_trajectories[0.1]
    assert np.max(traj.series["bc_residual"]) < 1e-8
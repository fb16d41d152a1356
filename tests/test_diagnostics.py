"""Residual diagnostics: slip-condition curves, the weak momentum
balance, the shifted enstrophy balance with the extended tangent field,
the renormalized vorticity inequality, and the two elliptic ratios.

Rigid rotation supplies exact targets for nearly all of them; sampled
slip fields check that the wall functionals hold at roundoff while the
purely diagnostic curl identity converges at the stencil order.
"""

import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from slipdisk import (
    ExtendedTangent,
    ScalarField,
    SimConfig,
    VectorField,
    biot_savart,
    boundary_trace,
    build_grid,
    curl,
    cz_ratio,
    enstrophy_balance_residual,
    extended_tangent,
    h2_ratio,
    initial_vorticity,
    navier_residuals,
    perp_grad,
    renormalized_slack,
    simulate,
    weak_form_residual,
)
from slipdisk.diagnostics import shifted_vorticity

from _fields import sample_navier_field
from conftest import smooth_vorticity


def _rigid(grid):
    omega = initial_vorticity({"const": 2.0}, grid)
    return biot_savart(omega), omega


# ---------------------------------------------------------------------------
# slip-condition residual curves
# ---------------------------------------------------------------------------

def test_navier_residuals_rigid(grid64):
    # omega = 2, u_theta = r satisfies the slip condition with alpha = 0
    # exactly; every stencil involved is quadratic-exact, so all three
    # curves are roundoff.
    u, omega = _rigid(grid64)
    tr = boundary_trace(grid64, 0.0)
    report = navier_residuals(u, omega, tr)
    assert sorted(report) == ["curl_identity", "navier_condition", "normal_derivative"]
    for name, value in report.items():
        assert value < 1e-12, name


def test_navier_residuals_flag_violations(grid64):
    # the same rigid field against alpha = 1 violates the condition by
    # exactly alpha * u_tau = 1 at the wall
    u, omega = _rigid(grid64)
    tr = boundary_trace(grid64, 1.0)
    report = navier_residuals(u, omega, tr)
    assert abs(report["navier_condition"] - 1.0) < 1e-10
    assert report["curl_identity"] <= 1e-6  # identity holds regardless of alpha


def test_navier_residuals_sampled_fields(grid64):
    # sampled slip fields meet the two enforced functionals at roundoff
    for alpha, seed in ((0.0, 1), (1.0, 2), (2.5, 3)):
        u = sample_navier_field(seed, alpha, grid64)
        tr = boundary_trace(grid64, alpha)
        report = navier_residuals(u, curl(u), tr)
        assert report["navier_condition"] < 1e-8, alpha
        assert report["normal_derivative"] < 1e-8, alpha


def test_navier_residuals_on_a_stack_take_the_max(grid48):
    # a stack of snapshots reports, per curve, the max of its snapshots
    tr = boundary_trace(grid48, 0.5)
    us = [sample_navier_field(seed, 1.0, grid48) for seed in (1, 2, 3)]
    singles = [navier_residuals(u, curl(u), tr) for u in us]
    u = VectorField(grid48, np.stack([v.u_r for v in us]), np.stack([v.u_theta for v in us]))
    stacked = navier_residuals(u, curl(u), tr)
    assert stacked == {k: max(one[k] for one in singles) for k in stacked}
    assert min(stacked.values()) > 0.0


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("b", [2, 4, 8])
def test_navier_residuals_of_a_stack_are_its_snapshots_bitwise(n, b):
    # A snapshot's curves do not depend on the stack it is taken in. A
    # (b, n_theta) stack of wall traces is one matrix-product slice whose
    # rows change with b, so d_theta u_r is taken on the last three rings,
    # one slice per snapshot. Random fields: smooth or zero-padded stacks
    # did not show the difference.
    grid = build_grid(n, n)
    tr = boundary_trace(grid, {"fourier": [[0, 1.0, 0.0], [1, 0.5, 0.25]]})
    rng = np.random.default_rng(100 * n + b)
    for _ in range(20):
        u_r, u_theta, omega = rng.standard_normal((3, b) + grid.shape)
        stacked = navier_residuals(VectorField(grid, u_r, u_theta),
                                   ScalarField(grid, omega), tr)
        singles = [navier_residuals(VectorField(grid, u_r[k], u_theta[k]),
                                    ScalarField(grid, omega[k]), tr) for k in range(b)]
        assert stacked == {key: max(one[key] for one in singles) for key in stacked}


def test_curl_identity_converges():
    errs = []
    for n in (48, 96):
        grid = build_grid(n, 64)
        u = sample_navier_field(1, 1.0, grid)
        tr = boundary_trace(grid, 1.0)
        errs.append(navier_residuals(u, curl(u), tr)["curl_identity"])
    assert errs[0] / errs[1] > 1.8


# ---------------------------------------------------------------------------
# weak momentum balance
# ---------------------------------------------------------------------------

def test_weak_form_rigid_steady(rigid_trajectories):
    # steady solution, steady test field: every term is time independent
    # and the balance holds at roundoff (alpha = 0 kills the wall term's
    # mismatch with kappa = 1... the term itself is retained).
    traj = rigid_trajectories[0.1]
    v, _ = _rigid(traj.grid)
    residual = weak_form_residual(traj, v)
    assert residual.shape == (len(traj.times),)
    assert residual.max() < 1e-9


def test_weak_form_rejects_bad_test_fields(grid48, rigid_trajectories):
    traj = rigid_trajectories[0.0]
    psi = ScalarField(traj.grid, traj.grid.r_col * np.cos(traj.grid.theta)[None, :])
    not_tangent = perp_grad(psi)  # uniform translation punctures the wall
    with pytest.raises(ValueError, match="tangent"):
        weak_form_residual(traj, not_tangent)


# ---------------------------------------------------------------------------
# extended tangent field
# ---------------------------------------------------------------------------

def test_extended_tangent_vanishes_inside(grid64):
    tr = boundary_trace(grid64, 1.0)
    ext = extended_tangent(grid64, tr)
    inner = grid64.r < 0.5
    assert np.all(ext.field.u_theta[inner] == 0.0)
    assert np.all(ext.field.u_r == 0.0)
    for key in ("rr", "rt", "tr", "tt"):
        assert np.all(ext.gradient[key][inner] == 0.0)


def test_extended_tangent_wall_value(grid64):
    # on the boundary tau_bar = (2 kappa - alpha) e_theta
    from slipdisk.field import boundary_values
    for alpha_spec, want in ((0.0, 2.0), (1.0, 1.0), (3.0, -1.0)):
        tr = boundary_trace(grid64, alpha_spec)
        ext = extended_tangent(grid64, tr)
        wall = boundary_values(ext.field.u_theta)
        assert np.max(np.abs(wall - want)) < 1e-3, alpha_spec


def test_extended_tangent_gradient_tracks_discrete(grid128):
    # analytic gradient entries must agree with the discrete
    # vector_gradient of the field at stencil accuracy; the cutoff's
    # third derivative is large (|eta''' * 8| up to 480) so the constant
    # is generous but the order is two.
    from slipdisk.field import vector_gradient
    errs = []
    for n in (64, 128):
        grid = build_grid(n, 64)
        tr = boundary_trace(grid, {"fourier": [[0, 1.0, 0.0], [1, 0.5, 0.0]]})
        ext = extended_tangent(grid, tr)
        g = vector_gradient(ext.field)
        errs.append(max(np.max(np.abs(g[key] - ext.gradient[key]))
                        for key in ("rr", "rt", "tr", "tt")))
    assert errs[1] < 2e-2
    assert errs[0] / errs[1] > 3.0


def test_extended_tangent_formulas_match_symbolic_oracle(grid64):
    # On the smooth piece r > 1/2 every stated entry (gradient tensor and
    # both vector-Laplacian components, including the -2/r^2 d_theta
    # coupling into the radial component) must equal an independently
    # differentiated closed form to roundoff.
    sp = pytest.importorskip("sympy")
    r, th = sp.symbols("r theta", positive=True)
    t = 2 * r - 1
    eta = t ** 3 * (10 - 15 * t + 6 * t ** 2)
    coeff = 2 - (1 + sp.Rational(2, 5) * sp.cos(2 * th)
                 + sp.Rational(3, 10) * sp.sin(2 * th))
    g = eta * coeff
    oracles = {
        "lap_theta": sp.diff(g, r, 2) + sp.diff(g, r) / r
                     + sp.diff(g, th, 2) / r ** 2 - g / r ** 2,
        "lap_r": -2 / r ** 2 * sp.diff(g, th),
        "rt": sp.diff(g, r),
        "tr": -g / r,
        "tt": sp.diff(g, th) / r,
    }
    tr_ = boundary_trace(grid64, {"fourier": [[0, 1.0, 0.0], [2, 0.4, 0.3]]})
    ext = extended_tangent(grid64, tr_)
    got = {
        "lap_theta": ext.laplacian.u_theta,
        "lap_r": ext.laplacian.u_r,
        "rt": ext.gradient["rt"],
        "tr": ext.gradient["tr"],
        "tt": ext.gradient["tt"],
    }
    mask = grid64.r > 0.5 + 1e-9
    rr = grid64.r_col
    tt_grid = grid64.theta[None, :]
    for name, sym in oracles.items():
        f = sp.lambdify((r, th), sym, "numpy")
        want = np.broadcast_to(f(rr, tt_grid), grid64.shape)
        err = np.max(np.abs(got[name][mask] - want[mask]))
        assert err < 1e-11, (name, err)
    assert np.max(np.abs(ext.gradient["rr"])) == 0.0


def test_shifted_vorticity_trace_vanishes(grid64):
    # for a slip field, omega - u.tau_bar has zero trace: that is the
    # point of the extension
    from slipdisk.field import boundary_values
    u = sample_navier_field(7, 1.0, grid64)
    tr = boundary_trace(grid64, 1.0)
    bar = shifted_vorticity(curl(u), u, extended_tangent(grid64, tr))
    wall = boundary_values(bar.values)
    interior = np.max(np.abs(bar.values))
    assert np.max(np.abs(wall)) < 3e-2 * interior


# ---------------------------------------------------------------------------
# shifted enstrophy balance
# ---------------------------------------------------------------------------

def _balance_setup(nu, alpha, n=48, stride=40):
    config = SimConfig(nu=nu, t_end=0.2, initial_condition={
        "bump": {"center": (0.3, 0.0), "radius": 0.4, "amplitude": 4.0}},
        alpha=alpha, n_r=n, n_theta=n, output_stride=stride)
    return simulate(config)


def _zero_tangent(grid):
    # tau_bar = 0 reduces the shifted enstrophy balance to the plain one
    zero = VectorField(grid, np.zeros(grid.shape), np.zeros(grid.shape))
    return ExtendedTangent(field=zero, laplacian=zero,
                           gradient={k: np.zeros(grid.shape) for k in ("rr", "rt", "tr", "tt")})


def test_extended_tangent_refuses_a_radial_part(grid32):
    # tau_bar is tangential; the balance source and the shifted vorticity
    # leave out its radial products, so a radial part is refused
    _zero_tangent(grid32)
    ext = extended_tangent(grid32, boundary_trace(grid32, 1.0))
    bump = np.zeros(grid32.shape)
    bump[5, 7] = 1e-3
    with pytest.raises(ValueError, match="tangential"):
        ExtendedTangent(field=VectorField(grid32, bump, ext.field.u_theta),
                        gradient=ext.gradient, laplacian=ext.laplacian)
    with pytest.raises(ValueError, match="tangential"):
        ExtendedTangent(field=ext.field, gradient={**ext.gradient, "rr": bump},
                        laplacian=ext.laplacian)


def _subset(traj, sl):
    from slipdisk import Trajectory
    return Trajectory(config=traj.config, times=traj.times[sl], omega=traj.omega[sl],
                      series=traj.series)


def test_enstrophy_balance_viscous(grid48):
    # A bump released from rest violates the slip law at t = 0 (zero
    # vorticity trace, nonzero slip), so the first interval carries the
    # impulsive boundary layer and is excluded; on the settled tail the
    # per-interval defect is trapezoid-in-time and must inflate by about
    # four when the snapshot grid is thinned by two.
    traj = _balance_setup(nu=0.05, alpha=1.0, stride=10)
    tau_bar = extended_tangent(traj.grid, traj.trace)
    tail = _subset(traj, slice(1, None))
    defect = enstrophy_balance_residual(tail, tau_bar)
    assert defect.shape == (len(tail.times) - 1,)
    scale = float(np.max(traj.series["enstrophy_2"])) ** 2
    assert defect.max() < 5e-4 * max(scale, 1.0)

    coarse = enstrophy_balance_residual(_subset(traj, slice(1, None, 2)), tau_bar)
    assert coarse.max() / max(defect.max(), 1e-15) > 3.0


def _bump16():
    # 17 snapshots, one per step: not a whole number of analysis batches
    config = SimConfig(nu=0.02, t_end=0.1, initial_condition={
        "bump": {"center": (0.3, 0.0), "radius": 0.4, "amplitude": 8.0}},
        alpha=1.0, n_r=16, n_theta=16, output_stride=1)
    return simulate(config)


# weak_form_residual against the rigid test field u_theta = r,
# enstrophy_balance_residual with the quintic cutoff and renormalized_slack
# on _bump16(), as the per-snapshot implementation computed them; the weak
# form and balance re-recorded (moved by at most 1.1e-10 and 2.0e-12
# relative) when the Poisson lift's trace became field.boundary_values
BUMP16_WEAK_FORM = [
    0.029405424645402217, 0.026600596668995294, 0.021466456002933128,
    0.017197356621609684, 0.013642044241415553, 0.01068139917841305,
    0.008219270133100379, 0.006176595804698613, 0.004487539837843814,
    0.003096826318454503, 0.0019602362267720913, 0.0009931421742039037,
    0.00021910579690988946, 0.0003916507900954408, 0.000866609992709863,
    0.0012359001533694056, 0.0013728482622705554]
BUMP16_BALANCE = [
    0.004903265897353615, 0.004178100320558592, 0.0035674285479448883,
    0.0030532786972855153, 0.0026209147670006186, 0.0022578586801444388,
    0.001953448450162276, 0.0016985496911981013, 0.001485347307691311,
    0.0013071736266524292, 0.0012138350415676442, 0.0010777877361942685,
    0.0009652258350792574, 0.0008720547514146954, 0.0007948679349648844,
    0.0005029045628184756]
BUMP16_SLACK = 0.561548897338719


def test_batched_trajectory_diagnostics_match_recorded_values():
    from slipdisk.ns_solver import SNAPSHOT_BATCH
    traj = _bump16()
    assert len(traj.times) == 17 and len(traj.times) % SNAPSHOT_BATCH != 0
    grid = traj.grid
    v = VectorField(grid, np.zeros(grid.shape), np.tile(grid.r_col, (1, grid.n_theta)))
    weak = weak_form_residual(traj, v)
    balance = enstrophy_balance_residual(traj, extended_tangent(traj.grid, traj.trace))
    np.testing.assert_allclose(weak, BUMP16_WEAK_FORM, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(balance, BUMP16_BALANCE, rtol=1e-12, atol=0.0)
    slack = renormalized_slack(traj, {"bump": {"center": (0.0, 0.0), "radius": 0.9}}, q=2.0)
    assert abs(slack - BUMP16_SLACK) <= 1e-12 * BUMP16_SLACK


def _count_gradients(monkeypatch):
    """Leading sizes of the stacks passed to vector_gradient, in order."""
    from slipdisk import diagnostics, field, pressure
    counted = []

    def counting(u):
        counted.append(int(np.prod(u.u_r.shape[:-2])))
        return field.vector_gradient(u)

    for module in (diagnostics, pressure):
        monkeypatch.setattr(module, "vector_gradient", counting)
    return counted


def test_enstrophy_balance_differentiates_each_velocity_once(monkeypatch):
    # the pressure recovery's velocity gradient also feeds the balance
    # source: one gradient per snapshot, summed over the stacks' leading
    # axes, plus one for the walk's rigid weak-form test field
    traj = _bump16()
    counted = _count_gradients(monkeypatch)
    enstrophy_balance_residual(traj, extended_tangent(traj.grid, traj.trace))
    assert sum(counted) == len(traj.times) + 1


def test_diagnose_walks_the_trajectory_once(monkeypatch):
    # one velocity solve, one pressure recovery and one gradient per
    # snapshot batch serve the slip curves, the weak form and the balance
    from slipdisk import diagnostics, ns_solver
    from slipdisk.diagnostics import diagnose
    traj = _bump16()
    n_batches = -(-len(traj.times) // ns_solver.SNAPSHOT_BATCH)
    assert n_batches > 1
    counted = _count_gradients(monkeypatch)
    calls = {"biot_savart": 0, "recover_pressure": 0}
    for module, name in ((ns_solver, "biot_savart"), (diagnostics, "recover_pressure")):
        def counting(*args, _inner=getattr(module, name), _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(module, name, counting)
    report = diagnose(traj)
    assert sum(counted) == len(traj.times) + 1  # the snapshots and the test field
    assert calls == {"biot_savart": n_batches, "recover_pressure": n_batches}
    assert report["weak_form"]["max"] == pytest.approx(max(BUMP16_WEAK_FORM), rel=1e-12)
    assert report["balance"]["max"] == pytest.approx(max(BUMP16_BALANCE), rel=1e-12)


def test_diagnose_reads_no_pressure_certificate(monkeypatch):
    # the walk reads the pressure, its acceleration and its gradient, so
    # the Neumann operator is never applied for the residual certificate
    from slipdisk.diagnostics import diagnose
    from slipdisk.pressure import PoissonNeumannSolver
    applied = []
    apply = PoissonNeumannSolver.apply

    def counting(self, *args):
        applied.append(1)
        return apply(self, *args)

    monkeypatch.setattr(PoissonNeumannSolver, "apply", counting)
    report = diagnose(_bump16())
    assert applied == []
    assert report["balance"]["max"] == pytest.approx(max(BUMP16_BALANCE), rel=1e-12)


def _first(traj, n):
    """traj cut to its first n snapshots."""
    return replace(traj, times=traj.times[:n], omega=traj.omega[:n])


def _walk_rigid(traj):
    from slipdisk.diagnostics import _rigid_rotation, _walk
    return _walk(traj, _rigid_rotation(traj.grid), extended_tangent(traj.grid, traj.trace))


def _walk_split_in_two(monkeypatch, traj=None):
    """_walk of traj (default _bump16()) against the rigid rotation, with
    the threshold at 0 so that a forked child walks the second half of its
    snapshots; returns the walk's outputs, the number of children started
    and the snapshot counts of the halves, this process's first."""
    from slipdisk import diagnostics
    traj = _bump16() if traj is None else traj
    started, halves, parent = [], [], os.getpid()
    walk_batches = diagnostics._walk_batches

    def counted_walk(half, *args):
        # each half views a slice of traj's snapshots, in either process
        assert np.shares_memory(half.omega, traj.omega)
        if os.getpid() == parent:
            halves.append(len(half.omega))
        return walk_batches(half, *args)

    class Counted(diagnostics.ForkedCall):
        def __init__(self, fn):
            started.append(fn)
            super().__init__(fn)

        def result(self):
            out = super().result()
            halves.append(out[1].shape[1])
            return out

    monkeypatch.setattr(diagnostics, "FORK_NODE_VALUES", 0)
    monkeypatch.setattr(diagnostics, "ForkedCall", Counted)
    monkeypatch.setattr(diagnostics, "_walk_batches", counted_walk)
    try:
        out = _walk_rigid(traj)
    finally:
        assert multiprocessing.active_children() == []
    return out, len(started), halves


@pytest.mark.parametrize("n", [2, 8, 9, 17])
def test_split_walk_equals_the_walk_in_one_process(monkeypatch, n):
    # this process walks the first n // 2 snapshots, the child the rest,
    # whatever the batch size; the rows do not depend on the cut
    traj = _first(_bump16(), n)
    worst, weak, balance = _walk_rigid(traj)
    (split_worst, split_weak, split_balance), children, halves = _walk_split_in_two(
        monkeypatch, traj)
    assert children == 1
    assert halves == [n // 2, n - n // 2] and min(halves) > 0
    assert split_worst == worst
    assert np.array_equal(split_weak, weak)
    assert np.array_equal(split_balance, balance)


def _in_the_child(monkeypatch, act):
    """Make diagnostics.navier_residuals call act() in any process but this one."""
    from slipdisk import diagnostics
    parent, inner = os.getpid(), diagnostics.navier_residuals

    def navier_residuals(*args):
        if os.getpid() != parent:
            act()
        return inner(*args)

    monkeypatch.setattr(diagnostics, "navier_residuals", navier_residuals)


def test_split_walk_raises_the_childs_error(monkeypatch):
    def fail():
        raise ValueError("bad batch in the child")

    _in_the_child(monkeypatch, fail)
    with pytest.raises(ValueError, match="bad batch in the child"):
        _walk_split_in_two(monkeypatch)


def test_split_walk_names_the_exit_code_of_a_child_that_dies(monkeypatch):
    _in_the_child(monkeypatch, lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="exited with code 3"):
        _walk_split_in_two(monkeypatch)


def test_diagnose_below_the_threshold_starts_no_child(monkeypatch):
    from slipdisk import diagnostics

    def refuse(fn):
        raise AssertionError("a trajectory below the threshold started a child")

    traj = _bump16()
    assert len(traj.times) * traj.grid.n_r * traj.grid.n_theta < diagnostics.FORK_NODE_VALUES
    monkeypatch.setattr(diagnostics, "ForkedCall", refuse)
    report = diagnostics.diagnose(traj)
    assert report["weak_form"]["max"] == pytest.approx(max(BUMP16_WEAK_FORM), rel=1e-12)


def test_walk_of_one_snapshot_starts_no_child(monkeypatch):
    # above the threshold a single snapshot has no second half to fork
    from slipdisk import diagnostics

    def refuse(fn):
        raise AssertionError("a walk of one snapshot started a child")

    traj = _bump16()
    monkeypatch.setattr(diagnostics, "FORK_NODE_VALUES", 0)
    monkeypatch.setattr(diagnostics, "ForkedCall", refuse)
    worst, weak, balance = _walk_rigid(_first(traj, 1))
    assert weak.shape == (1,) and balance.shape == (0,)
    assert set(worst) == {"navier_condition", "curl_identity", "normal_derivative"}


def test_walk_of_no_snapshots_names_the_count():
    # numpy's "need at least one array to concatenate" named nothing
    empty = _first(_bump16(), 0)
    with pytest.raises(ValueError, match="at least 1 snapshot, got 0"):
        weak_form_residual(empty, _rigid(empty.grid)[0])
    with pytest.raises(ValueError, match="at least 1 snapshot, got 0"):
        enstrophy_balance_residual(empty, extended_tangent(empty.grid, empty.trace))


def test_diagnose_and_slack_of_one_snapshot_name_the_count():
    # diagnose died in numpy ("zero-size array to reduction operation
    # maximum"), and the slack divided by T = 0 and returned its t = 0 term
    from slipdisk.diagnostics import diagnose
    one = _first(_bump16(), 1)
    with pytest.raises(ValueError, match="diagnose needs at least 2 snapshots, got 1"):
        diagnose(one)
    with pytest.raises(ValueError, match="renormalized_slack needs at least 2 snapshots, got 1"):
        renormalized_slack(one, {"bump": {"center": (0.0, 0.0), "radius": 0.9}}, q=2.0)


def test_enstrophy_balance_zero_cutoff_inviscid(grid48):
    # with tau_bar = 0 and nu = 0 the balance reduces to conservation of
    # enstrophy, which the scheme tracks to time-integration accuracy
    traj = _balance_setup(nu=0.0, alpha=1.0)
    assert enstrophy_balance_residual(traj, _zero_tangent(traj.grid)).max() < 1e-5


# ---------------------------------------------------------------------------
# renormalized inequality
# ---------------------------------------------------------------------------

def _euler_bump(center, n=48, t_end=0.3):
    config = SimConfig(nu=0.0, t_end=t_end, initial_condition={
        "bump": {"center": center, "radius": 0.35, "amplitude": 4.0}},
        alpha=1.0, n_r=n, n_theta=n, output_stride=30)
    return simulate(config)


def test_renormalized_slack_centered_bump_is_exact_zero():
    # a centered bump spins without moving: omega is steady, u is
    # azimuthal and phi radial, so u . grad phi = 0 pointwise and the
    # time integral telescopes against the initial term exactly.
    traj = _euler_bump((0.0, 0.0))
    s = renormalized_slack(traj, {"bump": {"center": (0.0, 0.0), "radius": 0.8}}, q=2.0)
    assert abs(s) < 1e-12


def test_renormalized_slack_off_center_small(grid48):
    traj = _euler_bump((0.25, 0.0))
    s = renormalized_slack(traj, {"bump": {"center": (0.0, 0.0), "radius": 0.9}}, q=2.0)
    assert s > -1e-4  # inviscid: defect is pure discretization error


def test_renormalized_slack_validation(grid48):
    traj = _euler_bump((0.0, 0.0), n=32, t_end=0.05)
    good_phi = {"bump": {"center": (0.0, 0.0), "radius": 0.5}}
    with pytest.raises(ValueError, match="q must lie"):
        renormalized_slack(traj, good_phi, q=4.0)
    with pytest.raises(ValueError, match="strictly inside"):
        renormalized_slack(traj, {"bump": {"center": (0.5, 0.0), "radius": 0.6}}, q=2.0)
    with pytest.raises(ValueError, match="nonnegative"):
        renormalized_slack(traj, {"bump": {"center": (0.0, 0.0), "radius": 0.5,
                                           "amplitude": -1.0}}, q=2.0)
    with pytest.raises(ValueError, match="phi_spec"):
        renormalized_slack(traj, {"tent": {}}, q=2.0)
    assert renormalized_slack(traj, {"zero": {}}, q=2.0) == 0.0
    # a run that tracks no exponent died in max() of an empty sequence
    untracked = replace(traj, config=replace(traj.config, lp_exponents=()))
    with pytest.raises(ValueError, match="needs a tracked lp exponent above q=2.0"):
        renormalized_slack(untracked, good_phi, q=2.0)


# ---------------------------------------------------------------------------
# elliptic ratios
# ---------------------------------------------------------------------------

def test_h2_ratio_rigid_rotation(grid64):
    # u = (-y, x): ||u||^2 = pi/2, first derivatives contribute 2 pi,
    # seconds vanish, Laplace u = 0, so the ratio is
    # sqrt(pi/2 + 2 pi) / sqrt(pi/2) = sqrt(5).
    u, _ = _rigid(grid64)
    assert abs(h2_ratio(u) - np.sqrt(5.0)) < 1e-2


def test_h2_ratio_rejects_zero_field(grid32):
    zero = biot_savart(initial_vorticity({"const": 0.0}, grid32))
    with pytest.raises(ValueError, match="zero velocity"):
        h2_ratio(zero)


def test_h2_ratio_stable_across_sampled_fields(grid64):
    ratios = [h2_ratio(sample_navier_field(seed, 1.0, grid64))
              for seed in range(8)]
    assert max(ratios) < 10.0
    assert min(ratios) > 0.1


def test_cz_ratio_bounded_and_positive(grid64):
    for seed in range(4):
        omega = smooth_vorticity(grid64, seed=seed)
        for p in (2.0, 3.0, 4.0):
            ratio = cz_ratio(omega, p)
            assert 0.05 < ratio < 10.0, (seed, p)


def test_cz_ratio_rejects_zero(grid32):
    zero = ScalarField(grid32, np.zeros(grid32.shape))
    with pytest.raises(ValueError, match="zero vorticity"):
        cz_ratio(zero, 2.0)

def test_ratios_refuse_a_stack_of_snapshots(grid32):
    # one-snapshot measurements: a stack, even of one, is refused with a
    # ValueError that names lp_norms
    from slipdisk import pressure_estimate_slack, recover_pressure
    omega = ScalarField(grid32, smooth_vorticity(grid32, seed=1).values[None])
    u = biot_savart(omega)
    with pytest.raises(ValueError, match="lp_norms"):
        cz_ratio(omega, 2.0)
    with pytest.raises(ValueError, match="lp_norms"):
        h2_ratio(u)
    with pytest.raises(ValueError, match="lp_norms"):
        pressure_estimate_slack(recover_pressure(u, omega, 0.02), omega, 0.02)

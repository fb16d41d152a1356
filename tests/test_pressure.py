"""Pressure recovery from velocity snapshots.

The Neumann solve is checked against the rigid-rotation closed form
(p = r^2/2 + const), on reconstructed and sampled fields via its own
reported residuals, for gauge invariance of the Neumann data, and for
the norm inequality between the pressure gradient and its sources.
"""

import numpy as np
import pytest

from slipdisk import (
    ScalarField,
    VectorField,
    biot_savart,
    boundary_trace,
    build_grid,
    curl,
    grad,
    initial_vorticity,
    lp_norm,
    perp_grad,
    pressure_estimate_slack,
    recover_pressure,
)
from slipdisk.field import vector_gradient
from slipdisk.field import boundary_values, theta_derivative, wall_derivative
from slipdisk.pressure import (PoissonNeumannSolver, directional_derivative,
                               flux_divergence, project_neumann_data)

from _fields import sample_navier_field
from conftest import smooth_vorticity


def _rigid(grid):
    omega = initial_vorticity({"const": 2.0}, grid)
    return biot_savart(omega), omega


def advective_acceleration(u):
    """(u.grad)u as recover_pressure builds it."""
    return directional_derivative(u, vector_gradient(u))


# ---------------------------------------------------------------------------
# closed form: rigid rotation
# ---------------------------------------------------------------------------

def test_advective_acceleration_rigid_rotation(grid64):
    # u_theta = r has (u.grad)u = -u_theta^2/r e_r = (-r, 0): the whole
    # acceleration is the curvature term, with no stencil error
    grid = grid64
    u = VectorField(grid, np.zeros(grid.shape), np.tile(grid.r_col, (1, grid.n_theta)))
    a = advective_acceleration(u)
    assert np.max(np.abs(a.u_r + grid.r_col)) < 1e-13
    assert np.max(np.abs(a.u_theta)) < 1e-13


def test_advective_acceleration_matches_lamb_form():
    # (u.grad)u = grad(|u|^2/2) + omega (-u_theta, u_r) holds for any
    # smooth field; the two discretizations must agree to second order
    errs = []
    for n in (32, 64):
        grid = build_grid(n, n)
        u = sample_navier_field(1, 1.0, grid)
        om = curl(u).values
        a = advective_acceleration(u)
        k = grad(ScalarField(grid, 0.5 * (u.u_r ** 2 + u.u_theta ** 2)))
        errs.append(lp_norm(VectorField(grid, a.u_r - k.u_r + om * u.u_theta,
                                        a.u_theta - k.u_theta - om * u.u_r), 2.0))
    assert errs[1] < 1e-2
    assert errs[0] / errs[1] > 3.0


def test_rigid_rotation_pressure(grid64):
    # u = (-y, x): a . = (u . grad) u = -r e_r, so grad p = r e_r and
    # p = r^2 / 2 up to an additive constant, for every viscosity.
    u, omega = _rigid(grid64)
    solve = recover_pressure(u, omega, nu=0.1)
    assert solve.pde_residual < 1e-9
    assert solve.bc_residual < 1e-12
    assert solve.compatibility_defect < 1e-12

    # align the free constant over the quadrature measure before comparing
    p = solve.p.values
    want = grid64.r_col ** 2 / 2.0
    shift = np.sum(grid64.weights * (want - p)) / np.pi
    assert np.max(np.abs(p + shift - want)) < 1e-9


def test_rigid_rotation_pressure_gradient(grid64):
    u, omega = _rigid(grid64)
    solve = recover_pressure(u, omega, nu=0.0)
    g = grad(solve.p)
    assert np.max(np.abs(g.u_r - grid64.r_col)) < 1e-9
    assert np.max(np.abs(g.u_theta)) < 1e-9


def test_rigid_rotation_slack_is_tight(grid64):
    # For rigid rotation |grad p| = |a| pointwise and the viscous term
    # vanishes, so the inequality ||grad p|| <= ||a|| + nu ||grad omega||
    # is saturated: the slack must be zero to roundoff (and nonnegative).
    u, omega = _rigid(grid64)
    solve = recover_pressure(u, omega, nu=0.1)
    slack = pressure_estimate_slack(solve, omega, nu=0.1)
    assert -1e-12 < slack < 1e-9


# ---------------------------------------------------------------------------
# reconstructed and sampled snapshots
# ---------------------------------------------------------------------------

def test_pressure_on_reconstructed_velocity(grid64):
    omega = smooth_vorticity(grid64, seed=4)
    u = biot_savart(omega)
    solve = recover_pressure(u, omega, nu=0.01)
    assert solve.pde_residual < 1e-6
    assert solve.compatibility_defect < 1e-6
    slack = pressure_estimate_slack(solve, omega, nu=0.01)
    assert slack > -1e-10


def test_pressure_on_sampled_velocity(grid64):
    from slipdisk import curl
    u = sample_navier_field(3, 1.0, grid64)
    omega = curl(u)
    tr = boundary_trace(grid64, 1.0)
    solve = recover_pressure(u, omega, nu=0.05, trace=tr)
    assert solve.pde_residual < 1e-6
    slack = pressure_estimate_slack(solve, omega, nu=0.05)
    assert slack > -1e-10


def test_pressure_zero_mean(grid64):
    omega = smooth_vorticity(grid64, seed=6)
    u = biot_savart(omega)
    solve = recover_pressure(u, omega, nu=0.0)
    mean = np.sum(grid64.weights * solve.p.values)
    assert abs(mean) < 1e-10


# ---------------------------------------------------------------------------
# gauge structure
# ---------------------------------------------------------------------------

def test_neumann_projection_reports_defect(grid48):
    rhs = ScalarField(grid48, np.ones(grid48.shape))
    g = np.zeros(grid48.n_theta)
    # int rhs = pi but the flux of g is 0: defect pi / (boundary measure)
    g_fixed, defect = project_neumann_data(rhs, g)
    assert defect > 0.1
    # after projection the data is exactly compatible
    flux = np.sum(g_fixed) * grid48.dtheta
    total = np.sum(grid48.weights * rhs.values)
    assert abs(flux - total) < 1e-12


def test_pressure_gauge_invariance(grid64):
    # Adding a constant to the Neumann data of the projected problem (the
    # projection removes it again) must not change the pressure: the
    # recovery is a function of the velocity snapshot alone, and repeated
    # solves are bitwise deterministic.
    omega = smooth_vorticity(grid64, seed=8)
    u = biot_savart(omega)
    a = recover_pressure(u, omega, nu=0.02)
    b = recover_pressure(u, omega, nu=0.02)
    assert np.array_equal(a.p.values, b.p.values)


def test_rejects_non_divergence_free(grid48):
    bad = VectorField(grid48, np.broadcast_to(grid48.r_col, grid48.shape).copy(),
                      np.zeros(grid48.shape))
    omega = ScalarField(grid48, np.zeros(grid48.shape))
    with pytest.raises(ValueError, match="divergence-free"):
        recover_pressure(bad, omega, nu=0.0)


def test_rejects_non_tangent(grid48):
    # perp_grad of a stream function that does not vanish at the wall:
    # psi = x gives the uniform translation (0, 1), which is exactly
    # divergence-free on the grid but has u.n = sin(theta) at r = 1.
    from slipdisk import perp_grad
    psi = ScalarField(grid48, grid48.r_col * np.cos(grid48.theta)[None, :])
    bad = perp_grad(psi)
    omega = ScalarField(grid48, np.zeros(grid48.shape))
    with pytest.raises(ValueError, match="not tangent"):
        recover_pressure(bad, omega, nu=0.0)


def test_grid_mismatch_rejected(grid48, grid64):
    u, _ = _rigid(grid48)
    omega = initial_vorticity({"const": 2.0}, grid64)
    with pytest.raises(ValueError, match="different grids"):
        recover_pressure(u, omega, nu=0.0)


def test_data_of_another_grid_rejected(grid32, grid48):
    # grid32 has 32 angles, grid48 64
    u, omega = _rigid(grid48)
    with pytest.raises(ValueError, match="boundary trace does not match the grid"):
        recover_pressure(u, omega, nu=0.0, trace=boundary_trace(grid32, 1.0))
    with pytest.raises(ValueError, match="Neumann data must be sampled on the theta grid"):
        PoissonNeumannSolver(grid48).solve(omega, np.zeros(grid32.n_theta))


# ---------------------------------------------------------------------------
# snapshot stacks
# ---------------------------------------------------------------------------

def _stack(grid, seeds):
    omega = ScalarField(grid, np.stack([smooth_vorticity(grid, seed=s).values
                                        for s in seeds]))
    return biot_savart(omega), omega


def test_stack_recovery_matches_single_snapshots_bitwise(grid48):
    # one Neumann solve over a stack is the per-snapshot recovery, bit for bit
    seeds = (1, 2, 3)
    u, omega = _stack(grid48, seeds)
    stacked = recover_pressure(u, omega, nu=0.02)
    assert stacked.p.values.shape == (len(seeds),) + grid48.shape
    for k in range(len(seeds)):
        one = recover_pressure(VectorField(grid48, u.u_r[k], u.u_theta[k]),
                               ScalarField(grid48, omega.values[k]), nu=0.02)
        assert np.array_equal(stacked.p.values[k], one.p.values)
        assert stacked.pde_residual[k] == one.pde_residual
        assert stacked.bc_residual[k] == one.bc_residual
        assert stacked.compatibility_defect[k] == one.compatibility_defect


def test_stack_recovery_names_the_failing_snapshot(grid48):
    # each check names snapshot 2 of a stack of 4 when only it fails
    u, omega = _stack(grid48, (1, 2, 3, 4))
    # the wall flux of d_theta(omega) cancels only to roundoff, so a
    # vorticity of size 1e12 leaves a defect far above the tolerance
    huge = omega.values.copy()
    huge[2] *= 1e12
    with pytest.raises(ValueError, match=r"Neumann data \(snapshot 2\) incompatible"):
        recover_pressure(u, ScalarField(grid48, huge), nu=1.0)
    # the uniform translation psi = x is divergence-free but not tangent
    translation = perp_grad(ScalarField(grid48, grid48.r_col * np.cos(grid48.theta)[None, :]))
    u.u_r[2], u.u_theta[2] = translation.u_r, translation.u_theta
    with pytest.raises(ValueError, match=r"velocity \(snapshot 2\) is not tangent"):
        recover_pressure(u, omega, nu=0.0)
    u.u_r[2] = grid48.r_col  # radial outflow: not divergence-free
    with pytest.raises(ValueError, match=r"velocity \(snapshot 2\) is not divergence-free"):
        recover_pressure(u, omega, nu=0.0)
    with pytest.raises(ValueError, match="different snapshot stacks"):
        recover_pressure(u, ScalarField(grid48, omega.values[0]), nu=0.0)


def _eager_certificate(u, omega, nu):
    """pde_residual and bc_residual as recover_pressure computed them when
    it built the certificate with the pressure: rebuilt here from the
    source and Neumann data, with a solver of its own."""
    grid = u.grid
    div_a, a_r1 = flux_divergence(advective_acceleration(u))
    rhs = ScalarField(grid, -div_a)
    lap_u_r = -theta_derivative(boundary_values(omega.values, grid))
    g, _ = project_neumann_data(rhs, nu * lap_u_r - a_r1)
    solver = PoissonNeumannSolver(grid)
    p = solver.solve(rhs, g)
    residual = solver.apply(p, g).values - rhs.values
    return (np.abs(residual).max(axis=(-2, -1)),
            np.abs(wall_derivative(p.values, grid) - g).max(axis=-1))


def test_certificate_is_computed_on_first_read(grid48, monkeypatch):
    # recovery makes no operator application; the first read of
    # pde_residual makes one and later reads reuse it, and both residuals
    # equal the certificate built eagerly with the pressure, bit for bit,
    # on a stack and on one snapshot
    applied = []
    apply = PoissonNeumannSolver.apply

    def counting(self, p, neumann):
        applied.append(p.values.shape)
        return apply(self, p, neumann)

    monkeypatch.setattr(PoissonNeumannSolver, "apply", counting)
    u, omega = _stack(grid48, (1, 2, 3))
    one_u = VectorField(grid48, u.u_r[1], u.u_theta[1])
    one_omega = ScalarField(grid48, omega.values[1])
    for vel, om in ((u, omega), (one_u, one_omega)):
        solve = recover_pressure(vel, om, nu=0.02)
        assert applied == []
        pde, bc = _eager_certificate(vel, om, 0.02)
        applied.clear()
        assert np.array_equal(solve.pde_residual, pde)
        assert np.array_equal(solve.bc_residual, bc)
        assert solve.pde_residual is solve.pde_residual
        assert applied == [om.values.shape]
        applied.clear()

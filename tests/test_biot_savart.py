"""Velocity reconstruction from vorticity.

The Dirichlet Poisson solve is checked against closed-form pairs
(constant, quartic, single azimuthal modes), the reconstruction against
its defining contracts (tangency at the wall, linearity, vorticity of
the velocity returns the input), and the slip-compatible sampler against
every property it advertises: discrete divergence-free, tangent,
slip-condition residual at the wall, determinism, and rejection of the
degenerate friction values where the mode system is singular.
"""

import numpy as np
import pytest

from slipdisk import (
    ScalarField,
    biot_savart,
    boundary_trace,
    build_grid,
    curl,
    divergence,
    lp_norm,
    perp_grad,
    solve_poisson_dirichlet,
)
from slipdisk.biot_savart import PoissonDirichletSolver, cached_solver
from slipdisk.field import boundary_values
from slipdisk.ns_solver import initial_vorticity

from _fields import sample_navier_field
from conftest import smooth_vorticity


def _mode_field(grid, k, radial, phase=0.0):
    return radial(grid.r_col) * np.cos(k * grid.theta[None, :] + phase)


# ---------------------------------------------------------------------------
# closed-form Poisson pairs
# ---------------------------------------------------------------------------

def test_constant_vorticity_gives_parabolic_stream(grid64):
    # Laplacian((r^2 - 1)/2) = 2 with zero trace.
    omega = ScalarField(grid64, np.full(grid64.shape, 2.0))
    psi = solve_poisson_dirichlet(omega)
    want = (grid64.r_col ** 2 - 1.0) / 2.0
    assert np.max(np.abs(psi.values - want)) < 1e-12


def test_constant_vorticity_gives_rigid_rotation(grid64):
    omega = ScalarField(grid64, np.full(grid64.shape, 2.0))
    u = biot_savart(omega)
    assert np.max(np.abs(u.u_r)) < 1e-12
    assert np.max(np.abs(u.u_theta - grid64.r_col)) < 1e-12


def test_quartic_pair_solution_error_and_order():
    # Laplacian(r^4 - 1) = 16 r^2 with zero trace.  The solve is second
    # order; the 64-ring error is frozen from the same run that set the
    # tolerance.
    errs = []
    for n in (32, 64, 128):
        grid = build_grid(n, 32)
        omega = ScalarField(grid, np.broadcast_to(
            16.0 * grid.r_col ** 2, grid.shape).copy())
        psi = solve_poisson_dirichlet(omega)
        want = grid.r_col ** 4 - 1.0
        errs.append(np.max(np.abs(psi.values - want)))
    assert errs[1] < 4e-4
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


def test_mode_k_pairs():
    # Laplacian((r^k - r^{k+2}) cos k theta) = -(4k + 4) r^k cos k theta,
    # zero trace at r = 1.
    grid = build_grid(64, 64)
    for k in (1, 2, 3, 5):
        omega = ScalarField(grid, _mode_field(
            grid, k, lambda r, k=k: -(4.0 * k + 4.0) * r ** k))
        psi = solve_poisson_dirichlet(omega)
        want = _mode_field(grid, k, lambda r, k=k: r ** k - r ** (k + 2))
        err = np.max(np.abs(psi.values - want))
        assert err < 5e-4, f"mode {k}: {err}"


def test_solver_linearity(grid48):
    rng = np.random.default_rng(3)
    a = ScalarField(grid48, rng.standard_normal(grid48.shape))
    b = ScalarField(grid48, rng.standard_normal(grid48.shape))
    lhs = solve_poisson_dirichlet(ScalarField(grid48, 2.0 * a.values - 3.0 * b.values))
    rhs = 2.0 * solve_poisson_dirichlet(a).values - 3.0 * solve_poisson_dirichlet(b).values
    assert np.max(np.abs(lhs.values - rhs)) < 1e-12


# ---------------------------------------------------------------------------
# reconstruction contracts
# ---------------------------------------------------------------------------

def test_velocity_is_tangent_at_wall(grid64):
    # The stream function's lift kills the extrapolated wall-normal
    # velocity mode by mode, so the trace of u_r is roundoff even for
    # rough vorticity data.
    rng = np.random.default_rng(11)
    omega = ScalarField(grid64, rng.standard_normal(grid64.shape))
    u = biot_savart(omega)
    assert np.max(np.abs(boundary_values(u.u_r))) < 1e-11


def test_velocity_is_divergence_free(grid64):
    u = biot_savart(smooth_vorticity(grid64))
    assert np.max(np.abs(divergence(u).values)) < 1e-10


def test_vorticity_roundtrip_self_consistency():
    # curl(K omega) reproduces omega at second order in L^2; the 64-ring
    # level must sit an order of magnitude inside the 1e-2 budget.
    errs = []
    for n in (32, 64, 128):
        grid = build_grid(n, 64)
        omega = smooth_vorticity(grid)
        back = curl(biot_savart(omega))
        diff = ScalarField(grid, back.values - omega.values)
        errs.append(lp_norm(diff, 2.0) / lp_norm(omega, 2.0))
    assert errs[1] < 1e-2
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_roundtrip_on_bump_vorticity(grid64):
    omega = initial_vorticity(
        {"bump": {"center": (0.3, 0.0), "radius": 0.4, "amplitude": 8.0}}, grid64)
    back = curl(biot_savart(omega))
    rel = lp_norm(ScalarField(grid64, back.values - omega.values), 2.0) / lp_norm(omega, 2.0)
    assert rel < 1e-2


# ---------------------------------------------------------------------------
# slip-compatible sampler
# ---------------------------------------------------------------------------

def test_sampled_field_is_divergence_free(grid48):
    u = sample_navier_field(0, 1.0, grid48)
    assert np.max(np.abs(divergence(u).values)) < 1e-10


def test_sampled_field_is_tangent(grid48):
    u = sample_navier_field(1, 1.0, grid48)
    assert np.max(np.abs(boundary_values(u.u_r))) < 1e-11


def test_sampled_field_satisfies_slip_functional(grid64):
    # The sampler solves for the wall functionals with the same one-sided
    # stencils the diagnostics use, so d(u.tau)/dr + (alpha - 1) u.tau at
    # r = 1 is roundoff, not merely O(h^2).
    for alpha in (0.0, 1.0, 3.5):
        u = sample_navier_field(5, alpha, grid64)
        dut = (2.0 * u.u_theta[-1] - 3.0 * u.u_theta[-2] + u.u_theta[-3]) / grid64.dr
        u_tau = boundary_values(u.u_theta)
        assert np.max(np.abs(dut + (alpha - 1.0) * u_tau)) < 1e-8, f"alpha={alpha}"


def test_sampled_slip_law_through_vorticity_trace_refines():
    # The same condition read through the extrapolated vorticity trace,
    # omega = (2 - alpha) u.tau, carries the O(h^2) extrapolation error of
    # curl and must shrink at second order.
    errs = []
    for n in (48, 96):
        grid = build_grid(n, 64)
        u = sample_navier_field(5, 1.0, grid)
        om_wall = boundary_values(curl(u).values)
        u_tau = boundary_values(u.u_theta)
        errs.append(np.max(np.abs(om_wall - u_tau)))
    assert errs[0] / errs[1] > 3.0


def test_sampler_deterministic_and_seed_sensitive(grid48):
    a = sample_navier_field(9, 1.0, grid48)
    b = sample_navier_field(9, 1.0, grid48)
    c = sample_navier_field(10, 1.0, grid48)
    assert np.array_equal(a.u_r, b.u_r) and np.array_equal(a.u_theta, b.u_theta)
    assert not np.allclose(a.u_theta, c.u_theta)


def test_sampler_rejects_variable_alpha(grid48):
    tr = boundary_trace(grid48, {"fourier": [[1, 0.5, 0.0], [0, 1.0, 0.0]]})
    with pytest.raises(ValueError, match="constant alpha"):
        sample_navier_field(0, 1.0, grid48, trace=tr)


def test_sampler_rejects_unresolvable_modes(grid48):
    with pytest.raises(ValueError, match="not representable"):
        sample_navier_field(0, 1.0, grid48, k_max=grid48.n_theta // 2)


def test_sampler_rejects_degenerate_friction(grid48):
    # alpha = -(2k + 4) makes the k-mode boundary system singular.
    with pytest.raises(ValueError):
        sample_navier_field(0, -4.0, grid48, k_max=2)


def test_sampled_field_matches_trace_argument(grid48):
    tr = boundary_trace(grid48, 2.0)
    u_tr = sample_navier_field(4, 2.0, grid48, trace=tr)
    u_no = sample_navier_field(4, 2.0, grid48)
    assert np.array_equal(u_tr.u_theta, u_no.u_theta)


def test_sampled_stream_is_resolved(grid48):
    # geometric amplitude decay: the top retained mode carries little of
    # the total energy, so refinement cannot discover unresolved content.
    u = sample_navier_field(2, 1.0, grid48)
    coeffs = np.fft.rfft(u.u_theta, axis=1)
    energy = np.sum(np.abs(coeffs) ** 2, axis=0)
    assert energy[6] < 0.2 * energy.max()
    assert np.all(energy[7:] < 1e-20 * energy.max())


def test_cached_solver_is_shared_by_equal_grids():
    g1, g2 = build_grid(16, 16), build_grid(16, 16)
    solver = cached_solver(PoissonDirichletSolver, g1)
    assert cached_solver(PoissonDirichletSolver, g2) is solver
    assert cached_solver(PoissonDirichletSolver, build_grid(16, 8)) is not solver

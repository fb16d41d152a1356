"""Pressure recovery from velocity snapshots on the disk.

Taking the divergence of the momentum equation removes the time
derivative of a divergence-free tangent field, leaving the Neumann
problem

    Laplace(p) = -div((u.grad)u),
    dp/dr |_{r=1} = nu (Laplace u).r - ((u.grad)u).r,

where (Laplace u).r on the boundary is evaluated as the rotated gradient
of the vorticity, -(1/r) d_theta omega, so no second radial derivatives
of u are needed at the wall.

The operator is the stream-function solver's flux-form radial Laplacian,
built by the one flux_laplacian_bands with the Neumann closure passed as
data: the outer-face flux is the datum itself, so the last row is exact
for radial quadratics with exact data. The right-hand side is assembled
in flux form on the same staggered faces, and the boundary face value of
the radial acceleration equals the trace used in the Neumann data. With
that shared value the discrete compatibility identity

    integral(rhs) + boundary integral(g) = 0

telescopes to roundoff whenever u is divergence-free, so the mode-0
Neumann system is consistent by construction; the data is nevertheless
projected (its mean subtracted) and the defect reported. The recovered
pressure is normalized to zero quadrature mean. Its certificate, the
residuals of the discrete system and of the Neumann condition, is
computed when it is first read, since diagnose reads only the pressure
and the velocity terms it was built from.

A stack of snapshots (B, n_r, n_theta) is recovered in one pass, its B
right-hand sides in one tridiagonal solve; one snapshot is a stack
without the snapshot axis.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._tridiag import TridiagonalBatch, apply_tridiagonal
from .biot_savart import cached_solver, flux_laplacian_bands
from .field import (ScalarField, VectorField, boundary_values, divergence,
                    from_modes, grad, lp_norm, theta_derivative, to_modes,
                    vector_gradient, wall_derivative)
from .geometry import BoundaryTrace, PolarGrid, integrate

TANGENT_FIELD_TOL = 1e-6
COMPATIBILITY_TOL = 1e-6


def directional_derivative(u: VectorField, g: dict[str, np.ndarray]) -> VectorField:
    """(u.grad)w from the gradient tensor g = vector_gradient(w), as the
    contraction u . g:

    a_r     = u_r G_rr + u_theta G_tr
    a_theta = u_r G_rt + u_theta G_tt
    """
    return VectorField(u.grid, u.u_r * g["rr"] + u.u_theta * g["tr"],
                       u.u_r * g["rt"] + u.u_theta * g["tt"])


def _require(values, tol: float, message: str) -> None:
    """Raise ValueError(message.format(value=..., at=...)) for the first
    snapshot whose value exceeds tol; at names it when values is a stack."""
    flat = np.ravel(values)
    bad = np.flatnonzero(~(flat <= tol))
    if bad.size:
        at = f" (snapshot {bad[0]})" if np.ndim(values) else ""
        raise ValueError(message.format(at=at, value=flat[bad[0]]))


def check_tangent_field(v: VectorField, name: str) -> None:
    """Raise ValueError unless v, or each snapshot of a stack, is discretely
    divergence-free and tangent at r = 1, both in max norm to
    TANGENT_FIELD_TOL."""
    _require(np.abs(divergence(v).values).max(axis=(-2, -1)), TANGENT_FIELD_TOL,
             name + "{at} is not divergence-free: max |div| = {value:.3e}")
    _require(np.abs(boundary_values(v.u_r)).max(axis=-1), TANGENT_FIELD_TOL,
             name + "{at} is not tangent: max |u_r| at r=1 is {value:.3e}")


def flux_divergence(a: VectorField) -> tuple[np.ndarray, np.ndarray]:
    """Divergence of a vector field in flux form on the staggered faces.

    Radial fluxes live on the faces j dr: interior face values are
    arithmetic means of the neighbouring nodes, the pole face carries no
    flux (r = 0 factor), and the outer face takes the quadratically
    extrapolated trace of a_r. Returns the divergence's node values and
    that trace; a caller that reuses the trace in boundary data inherits
    the exact telescoping of the radial fluxes under the disk quadrature.
    """
    grid = a.grid
    r, dr = grid.r, grid.dr
    faces = grid.r_face
    a_r1 = boundary_values(a.u_r)
    flux = np.empty(a.u_r.shape[:-2] + (grid.n_r + 1, grid.n_theta))
    flux[..., 0, :] = 0.0
    flux[..., 1:-1, :] = faces[1:-1, None] * 0.5 * (a.u_r[..., :-1, :] + a.u_r[..., 1:, :])
    flux[..., -1, :] = a_r1
    div = (flux[..., 1:, :] - flux[..., :-1, :]) / (r[:, None] * dr)
    div += theta_derivative(a.u_theta) / r[:, None]
    return div, a_r1


class PoissonNeumannSolver:
    """Factorized mode-wise solver for Laplace(p) = f, dp/dr(1) = g.

    The mode-0 operator annihilates constants; its first row is replaced
    by the gauge condition p_0 = 0 and the solution is re-normalized to
    zero quadrature mean afterwards. Immutable after construction.
    """

    def __init__(self, grid: PolarGrid):
        self.grid = grid
        # Neumann closure: the outer-face flux is the datum itself, dr g_k
        *self._bands, self._data_coeff = flux_laplacian_bands(grid, (0.0, 0.0, 1.0, 1))
        lower, diag, upper = self._bands
        # the gauge row of mode 0; TridiagonalBatch zeroes lower[..., 0] itself
        diag, upper = diag.copy(), upper.copy()
        diag[0, 0], upper[0, 0] = 1.0, 0.0
        self._lu = TridiagonalBatch(lower, diag, upper)

    def solve(self, rhs: ScalarField, neumann: np.ndarray) -> ScalarField:
        grid = self.grid
        n = grid.n_theta
        if neumann.shape != rhs.values.shape[:-2] + (n,):
            raise ValueError("Neumann data must be sampled on the theta grid")
        f_modes = to_modes(rhs.values)
        f_modes[..., -1] -= self._data_coeff * np.fft.rfft(neumann, axis=-1)
        f_modes[..., 0, 0] = 0.0  # pinned gauge row
        p = from_modes(self._lu.solve(f_modes), n)
        p -= integrate(grid, p)[..., None, None] / np.sum(grid.weights)
        return ScalarField(grid, p)

    def apply(self, p: ScalarField, neumann: np.ndarray) -> ScalarField:
        """Unpinned operator action plus boundary data, for residual checks."""
        out = apply_tridiagonal(*self._bands, to_modes(p.values))
        out[..., -1] += self._data_coeff * np.fft.rfft(neumann, axis=-1)
        return ScalarField(self.grid, from_modes(out, self.grid.n_theta))


def project_neumann_data(rhs: ScalarField, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shift g by a constant so the discrete Gauss identity
    integral(rhs) = boundary integral(g) holds exactly, making the mode-0
    Neumann system consistent. Returns the projected data and the defect
    that was removed (per snapshot). Any constant shift of g is absorbed
    here, which is what makes the recovery gauge invariant in the data.
    """
    vol = integrate(rhs.grid, rhs.values)
    flux = np.sum(g, axis=-1) * rhs.grid.dtheta
    return g - ((flux - vol) / (2.0 * np.pi))[..., None], np.abs(vol - flux)


@dataclass(frozen=True)
class PressureSolve:
    """Recovered pressure with its certificate, per snapshot of a stack.

    p has zero quadrature mean. compatibility_defect is |integral(f) -
    boundary integral(g)| before projection, an array (B,) for a stack.
    acceleration is the (u.grad)u the source was built from, gradient the
    vector_gradient(u), and neumann the projected data g that p solves
    for. The certificate's two residuals are computed on first read, so a
    caller that reads only p and the fields above pays for no operator
    application.
    """
    p: ScalarField
    compatibility_defect: float | np.ndarray
    acceleration: VectorField
    gradient: dict
    neumann: np.ndarray

    @functools.cached_property
    def pde_residual(self) -> float | np.ndarray:
        """Max-norm residual of the discrete Poisson system, boundary row
        included, per snapshot, against the source -div((u.grad)u) rebuilt
        from acceleration."""
        solver = cached_solver(PoissonNeumannSolver, self.p.grid)
        rhs = -flux_divergence(self.acceleration)[0]
        return np.abs(solver.apply(self.p, self.neumann).values - rhs).max(axis=(-2, -1))

    @functools.cached_property
    def bc_residual(self) -> float | np.ndarray:
        """Independent one-sided check of dp/dr(1) against the Neumann
        data, max over the wall, per snapshot."""
        return np.abs(wall_derivative(self.p.values, self.p.grid) - self.neumann).max(axis=-1)


def recover_pressure(u: VectorField, omega: ScalarField, nu: float,
                     trace: BoundaryTrace | None = None) -> PressureSolve:
    """Solve the pressure Poisson problem for one velocity snapshot, or for
    a stack (B, n_r, n_theta) of them in one Neumann solve.

    u must pass check_tangent_field; fields reconstructed by this package
    do so to roundoff. (u.grad)u is directional_derivative(u, gu) with
    gu = vector_gradient(u); the result keeps both, for
    pressure_estimate_slack and the enstrophy balance, with the Neumann
    data that its residuals are computed from when first read.
    The compatibility defect of the Neumann data is projected out and
    reported; a defect above 1e-6 signals an inconsistent velocity field
    and raises. Both checks are per snapshot, and an error names the first
    failing one.
    trace, when given, is only checked against the grid (its alpha's
    shape): the Neumann data holds no slip coefficient, so the pressure
    does not depend on it.
    """
    grid = u.grid
    if omega.grid != grid:
        raise ValueError("omega and u live on different grids")
    if omega.values.shape != u.u_r.shape:
        raise ValueError(f"omega {omega.values.shape} and u {u.u_r.shape} "
                         f"hold different snapshot stacks")
    if trace is not None and trace.alpha.shape != grid.theta.shape:
        raise ValueError("boundary trace does not match the grid")
    check_tangent_field(u, "velocity")

    gu = vector_gradient(u)
    a = directional_derivative(u, gu)
    div_a, a_r1 = flux_divergence(a)
    rhs = ScalarField(grid, -div_a)

    lap_u_r = -boundary_values(theta_derivative(omega.values[..., -3:, :]))
    g, defect = project_neumann_data(rhs, nu * lap_u_r - a_r1)
    _require(defect, COMPATIBILITY_TOL, "Neumann data{at} incompatible with the source "
             "(defect {value:.3e}); velocity snapshot inconsistent")

    p = cached_solver(PoissonNeumannSolver, grid).solve(rhs, g)
    return PressureSolve(p=p, compatibility_defect=defect, acceleration=a,
                         gradient=gu, neumann=g)


def pressure_estimate_slack(p: PressureSolve, omega: ScalarField, nu: float) -> float:
    """Slack of the gradient bound

        ||grad p||_2 <= ||(u.grad)u||_2 + nu ||grad omega||_2,

    returned as RHS - LHS, for a one-snapshot p. The bound is the
    contraction property of the gradient part of the Helmholtz
    decomposition, so the slack is nonnegative up to discretization error.
    (u.grad)u is the acceleration p was recovered with.
    """
    rhs = lp_norm(p.acceleration, 2.0) + nu * lp_norm(grad(omega), 2.0)
    lhs = lp_norm(grad(p.p), 2.0)
    return rhs - lhs

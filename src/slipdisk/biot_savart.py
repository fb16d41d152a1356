"""Velocity recovery from vorticity on the disk.

The Biot-Savart operator is realized without ever forming the Green's
kernel: solve the Dirichlet problem Laplace(psi) = omega, psi(1, .) = 0
mode by mode in theta, then take the rotated gradient. The radial operator
d_rr + (1/r) d_r - k^2/r^2 is discretized in flux form on the staggered
nodes,

    (L_k psi)_j = [r_{j+1/2} (psi_{j+1}-psi_j) - r_{j-1/2} (psi_j-psi_{j-1})]
                  / (r_j dr^2)  -  k^2 psi_j / r_j^2,

so the pole needs no ghost value (the inner face of the first cell sits at
r = 0 where the flux vanishes) and radial quadratics are differentiated
exactly. The last row's outer-face flux is a closure, passed as data to
the one band builder flux_laplacian_bands, which the pressure module's
Neumann solve shares. The Dirichlet closure eliminates a ghost node behind
r = 1 by the quadratic interpolant through the last two nodes and the
boundary value, which keeps quadratics exact through the Dirichlet solve.
"""

from __future__ import annotations

import functools

import numpy as np

from ._tridiag import TridiagonalBatch
from .field import ScalarField, VectorField, boundary_values, from_modes, perp_grad, to_modes
from .geometry import PolarGrid


def flux_laplacian_bands(grid: PolarGrid, outer):
    """Read-only tridiagonal bands T_k of L_k for every rfft mode, shape
    (n_theta//2 + 1, n_r), and the coefficient d that carries the boundary
    datum g_k into the last row: L_k psi = T_k psi + d g_k.

    The last row's outer-face difference psi_ghost - psi_n is the closure
    outer = (a, b, c, m): a psi_{n-1} + b psi_n + c dr^m g_k, for a datum
    g_k that prescribes the m-th radial derivative at r = 1. Returns
    (lower, diag, upper, d).
    """
    dr, r, faces = grid.dr, grid.r, grid.r_face
    a, b, c, m = outer
    k2 = np.arange(grid.n_theta // 2 + 1, dtype=float) ** 2
    shape = (k2.size, grid.n_r)
    lower = np.broadcast_to(faces[:-1] / (r * dr ** 2), shape).copy()
    upper = np.broadcast_to(faces[1:] / (r * dr ** 2), shape).copy()
    diag = np.broadcast_to(-(faces[:-1] + faces[1:]) / (r * dr ** 2), shape).copy()
    diag -= k2[:, None] / r[None, :] ** 2
    rn, face = r[-1], faces[-2]
    lower[:, -1] = (face + a) / (rn * dr ** 2)
    diag[:, -1] = (b - face) / (rn * dr ** 2) - k2 / rn ** 2
    upper[:, -1] = 0.0
    for band in (lower, diag, upper):
        band.flags.writeable = False
    return lower, diag, upper, c / (rn * dr ** (2 - m))


@functools.cache
def cached_solver(solver_cls, grid: PolarGrid):
    """The one solver_cls instance that every caller on a grid equal to
    grid shares, built on the first such grid; solvers are immutable."""
    return solver_cls(grid)


class PoissonDirichletSolver:
    """Factorized mode-wise solver for Laplace(psi) = omega, psi(1,.) = 0.

    After the tridiagonal solve, each mode k >= 1 receives a small radial
    lift delta_k * r^(2 + k mod 2) sized so that the quadratically
    extrapolated trace of psi_k / r vanishes exactly.
    That trace is (i/k times) the wall-normal velocity of the recovered
    field, so every velocity reconstructed from this solver satisfies the
    discrete impermeability condition to roundoff rather than to the
    stencil's O(dr^3); the lift itself is O(dr^3), below the scheme's
    accuracy, and vanishes for radially quadratic data, which keeps rigid
    rotation exact. The exponent parity matches the half-turn pole
    symmetry of mode k.

    bands is flux_laplacian_bands(grid, Dirichlet closure), read-only, for
    every operator built on the same T_k. Immutable after construction;
    solves on distinct right-hand sides may run concurrently.
    """

    def __init__(self, grid: PolarGrid):
        self.grid = grid
        # Dirichlet closure: psi_ghost = (8/3) g - 2 psi_n + (1/3) psi_{n-1}
        self.bands = flux_laplacian_bands(grid, (1.0 / 3.0, -3.0, 8.0 / 3.0, 0))
        self._lu = TridiagonalBatch(*self.bands[:3])
        r = grid.r
        n_modes = grid.n_theta // 2 + 1
        parity = np.arange(n_modes) % 2
        self._lift = np.where(parity[:, None] == 0, r ** 2, r ** 3)
        self._lift_trace = np.where(parity == 0, *boundary_values(np.column_stack((r, r ** 2))))

    def solve_modes(self, rhs_modes: np.ndarray) -> np.ndarray:
        """Solve T_k psi_k = rhs_k for all modes at once, then lift so the
        trace of psi_k / r, field.boundary_values of its last three rings,
        vanishes exactly for k >= 1.

        rhs_modes has shape (..., n_modes, n_r), leading axes solved as
        further right-hand sides; returns the same layout.
        """
        psi = self._lu.solve(np.asarray(rhs_modes, dtype=complex))
        rings = (psi[..., -3:] / self.grid.r[-3:]).swapaxes(-1, -2)
        delta = -boundary_values(rings) / self._lift_trace
        delta[..., 0] = 0.0
        psi += delta[..., None] * self._lift
        return psi

    def solve(self, omega: ScalarField) -> ScalarField:
        psi_modes = self.solve_modes(to_modes(omega.values))
        return ScalarField(self.grid, from_modes(psi_modes, self.grid.n_theta))


def solve_poisson_dirichlet(omega: ScalarField) -> ScalarField:
    return cached_solver(PoissonDirichletSolver, omega.grid).solve(omega)


def biot_savart(omega: ScalarField) -> VectorField:
    """K_Omega: vorticity to velocity, tangent to the boundary by construction."""
    return perp_grad(solve_poisson_dirichlet(omega))

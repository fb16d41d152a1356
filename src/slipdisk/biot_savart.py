"""Velocity recovery from vorticity on the disk, and samplers for slip fields.

The Biot-Savart operator is realized without ever forming the Green's
kernel: solve the Dirichlet problem Laplace(psi) = omega, psi(1, .) = 0
mode by mode in theta, then take the rotated gradient. The radial operator
d_rr + (1/r) d_r - k^2/r^2 is discretized in flux form on the staggered
nodes,

    (L_k psi)_j = [r_{j+1/2} (psi_{j+1}-psi_j) - r_{j-1/2} (psi_j-psi_{j-1})]
                  / (r_j dr^2)  -  k^2 psi_j / r_j^2,

so the pole needs no ghost value (the inner face of the first cell sits at
r = 0 where the flux vanishes) and radial quadratics are differentiated
exactly. The boundary closure eliminates a ghost node behind r = 1 by the
quadratic interpolant through the last two nodes and the boundary value,
which keeps quadratics exact through the Dirichlet solve as well.
"""

from __future__ import annotations

import functools

import numpy as np

from ._tridiag import TridiagonalBatch
from .field import (ScalarField, VectorField, boundary_values, from_modes, perp_grad,
                    radial_derivative, to_modes, wall_derivative)
from .geometry import BoundaryTrace, PolarGrid, build_grid


def flux_laplacian_bands(grid: PolarGrid):
    """Tridiagonal bands of L_k for every rfft mode, shape (n_theta//2 + 1,
    n_r), with the interior flux-form stencil in every row and no upper
    entry in the last; a boundary closure overwrites the last row's lower
    and diagonal entries.

    Returns (lower, diag, upper, k2), k2 the squared mode numbers.
    """
    dr, r, faces = grid.dr, grid.r, grid.r_face
    k2 = np.arange(grid.n_theta // 2 + 1, dtype=float) ** 2
    shape = (k2.size, grid.n_r)
    lower = np.broadcast_to(faces[:-1] / (r * dr ** 2), shape).copy()
    upper = np.broadcast_to(faces[1:] / (r * dr ** 2), shape).copy()
    diag = np.broadcast_to(-(faces[:-1] + faces[1:]) / (r * dr ** 2), shape).copy()
    diag -= k2[:, None] / r[None, :] ** 2
    upper[:, -1] = 0.0
    return lower, diag, upper, k2


def dirichlet_laplacian_bands(grid: PolarGrid):
    """Tridiagonal bands of L_k for every rfft mode, plus the coefficient
    that carries the Dirichlet boundary value into the last row.

    Returns (lower, diag, upper, data_coeff) with band shape
    (n_theta//2 + 1, n_r); the full operator action on mode k is
    L_k psi = T_k psi + data_coeff * g_k with g_k the boundary value.
    """
    lower, diag, upper, k2 = flux_laplacian_bands(grid)
    dr, rn, face = grid.dr, grid.r[-1], grid.r_face[-2]
    # ghost elimination at the outer node: psi_ghost = (8/3) g - 2 psi_{n-1} + (1/3) psi_{n-2}
    lower[:, -1] = (face + 1.0 / 3.0) / (rn * dr ** 2)
    diag[:, -1] = -(face + 3.0) / (rn * dr ** 2) - k2 / rn ** 2
    return lower, diag, upper, (8.0 / 3.0) / (rn * dr ** 2)


@functools.cache
def cached_solver(solver_cls, n_r: int, n_theta: int):
    """The one solver_cls instance, built on build_grid(n_r, n_theta), that
    every caller on that grid shares; solvers are immutable."""
    return solver_cls(build_grid(n_r, n_theta))


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

    Immutable after construction; solves on distinct right-hand sides may
    run concurrently.
    """

    def __init__(self, grid: PolarGrid):
        self.grid = grid
        lower, diag, upper, _ = dirichlet_laplacian_bands(grid)
        self._lu = TridiagonalBatch(lower, diag, upper)
        r = grid.r
        n_modes = grid.n_theta // 2 + 1
        parity = np.arange(n_modes) % 2
        self._lift = np.where(parity[:, None] == 0, r ** 2, r ** 3)
        self._lift_trace = np.where(parity == 0, *boundary_values(
            np.column_stack((r, r ** 2)), grid))

    def solve_modes(self, rhs_modes: np.ndarray) -> np.ndarray:
        """Solve T_k psi_k = rhs_k for all modes at once, then lift so the
        trace of psi_k / r vanishes exactly for k >= 1.

        rhs_modes has shape (..., n_modes, n_r), leading axes solved as
        further right-hand sides; returns the same layout.
        """
        psi = self._lu.solve(np.asarray(rhs_modes, dtype=complex))
        # boundary_values of psi / r, written out: dividing after the
        # weights is the rounding every stored trajectory was computed with
        r = self.grid.r
        trace = (15.0 * psi[..., -1] / r[-1] - 10.0 * psi[..., -2] / r[-2]
                 + 3.0 * psi[..., -3] / r[-3]) / 8.0
        delta = -trace / self._lift_trace
        delta[..., 0] = 0.0
        psi += delta[..., None] * self._lift
        return psi

    def solve(self, omega: ScalarField) -> ScalarField:
        psi_modes = self.solve_modes(to_modes(omega.values))
        return ScalarField(self.grid, from_modes(psi_modes, self.grid.n_theta))


def solve_poisson_dirichlet(omega: ScalarField) -> ScalarField:
    return cached_solver(PoissonDirichletSolver, *omega.grid.shape).solve(omega)


def biot_savart(omega: ScalarField) -> VectorField:
    """K_Omega: vorticity to velocity, tangent to the boundary by construction."""
    return perp_grad(solve_poisson_dirichlet(omega))


# ---------------------------------------------------------------------------
# sampler for the slip-compatible space W
# ---------------------------------------------------------------------------

def navier_mode_basis(grid: PolarGrid, alpha_const: float, k: int) -> np.ndarray:
    """Radial coefficients (a, b, c) of psi_k = a r^k + b r^{k+2} + c r^{k+4}
    with a = 1, chosen so that the discretely evaluated boundary functionals
    vanish: the extrapolated trace of psi_k / r (the wall-normal velocity,
    up to the factor -ik) and the slip residual
    d_r u_theta - u_theta + (1/r) d_theta u_r + alpha u_theta at r = 1.

    Solving the discrete rather than the analytic 2x2 system makes the
    sampled field tangent and slip-compliant as the residual operators see
    it (to roundoff); the u_theta entering the slip row is the discrete
    radial derivative of the stream profile, matching what perp_grad
    produces on the synthesized field. The coefficients converge to the
    analytic ones at the stencils' order; in the continuum limit the trace
    row reproduces psi_k(1) = 0, so the system tends to the analytic one
    with determinant 2 (2k + 4 + alpha).
    """
    r = grid.r
    exps = (k, k + 2, k + 4)
    pole_sign = 1.0 if k % 2 == 0 else -1.0
    # radial profiles as (n_r, 3) columns, one per exponent; the derivative
    # takes each as a one-angle field, whose pole ghost is its own value
    # times the half-turn parity of mode k
    utheta_prof = radial_derivative(np.stack([r ** m for m in exps])[..., None],
                                    grid, pole_sign)[..., 0].T
    trace_row = boundary_values(np.column_stack([r ** (m - 1) for m in exps]), grid)
    slip_row = (wall_derivative(utheta_prof, grid)
                + (alpha_const - 1.0) * boundary_values(utheta_prof, grid)
                + k ** 2 * trace_row)
    mat = np.array([[trace_row[1], trace_row[2]],
                    [slip_row[1], slip_row[2]]])
    rhs = -np.array([trace_row[0], slip_row[0]])
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    scale = max(np.max(np.abs(mat)), 1.0)
    # the discrete determinant tends to 2 (2k + 4 + alpha), so the system
    # degenerates exactly when that vanishes; the discrete det alone only
    # reaches O(dr^2) there and cannot flag it reliably
    if abs(2 * k + 4 + alpha_const) < 1e-8 or abs(det) < 1e-12 * scale ** 2:
        raise ValueError(f"degenerate slip boundary system at mode k={k} "
                         f"(alpha={alpha_const}, det={det:.3e})")
    b, c = np.linalg.solve(mat, rhs)
    return np.array([1.0, b, c])


def _synthesize(grid: PolarGrid, profiles: dict[int, np.ndarray]) -> np.ndarray:
    """Real field from per-mode complex radial profiles: sum_k Re(prof_k e^{ik theta})."""
    n = grid.n_theta
    coeffs = np.zeros((grid.n_r, n // 2 + 1), dtype=complex)
    for k, prof in profiles.items():
        coeffs[:, k] = prof * (n if k == 0 else n / 2.0)
    return np.fft.irfft(coeffs, n=n, axis=1)


def sample_navier_field(seed: int, alpha_const: float, grid: PolarGrid,
                        trace: BoundaryTrace | None = None,
                        k_max: int = 6, decay: float = 0.6) -> VectorField:
    """Random velocity field in W: divergence-free, tangent, and satisfying
    the slip condition with constant friction alpha_const.

    Per mode k <= k_max the stream profile is r^k (a + b r^2 + c r^4) with
    a random complex amplitude and (b, c) solved from the boundary system;
    amplitudes decay geometrically so the field stays well resolved. The
    velocity is the discrete perp_grad of the synthesized stream function,
    so its compatible divergence vanishes identically and the boundary
    functionals are met to roundoff. Variable alpha couples Fourier modes
    and is rejected.
    """
    if trace is not None and np.ptp(trace.alpha) > 1e-12:
        raise ValueError("sample_navier_field needs constant alpha; "
                         "variable alpha couples Fourier modes")
    if k_max >= grid.n_theta // 2:
        raise ValueError(f"k_max={k_max} not representable on n_theta={grid.n_theta}")
    rng = np.random.default_rng(seed)
    r = grid.r
    psi_profiles: dict[int, np.ndarray] = {}
    for k in range(k_max + 1):
        coeffs = navier_mode_basis(grid, alpha_const, k)
        if k == 0:
            z = complex(rng.standard_normal())
        else:
            z = complex(rng.standard_normal(), rng.standard_normal())
        z *= decay ** k
        psi = np.zeros_like(r)
        for a, m in zip(coeffs, (k, k + 2, k + 4)):
            psi += a * r ** m
        psi_profiles[k] = z * psi
    stream = ScalarField(grid, _synthesize(grid, psi_profiles))
    return perp_grad(stream)

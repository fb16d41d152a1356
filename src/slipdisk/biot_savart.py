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

import numpy as np

from ._tridiag import TridiagonalBatch, apply_tridiagonal
from .field import (ScalarField, VectorField, from_modes, perp_grad,
                    radial_derivative, to_modes)
from .geometry import BoundaryTrace, PolarGrid


def dirichlet_laplacian_bands(grid: PolarGrid):
    """Tridiagonal bands of L_k for every rfft mode, plus the coefficient
    that carries the Dirichlet boundary value into the last row.

    Returns (lower, diag, upper, data_coeff) with band shape
    (n_theta//2 + 1, n_r); the full operator action on mode k is
    L_k psi = T_k psi + data_coeff * g_k with g_k the boundary value.
    """
    n_r, dr = grid.n_r, grid.dr
    r = grid.r
    faces = grid.r_face
    k = np.arange(grid.n_theta // 2 + 1, dtype=float)
    k2 = (k ** 2)[:, None]

    lower_r = faces[:-1] / (r * dr ** 2)
    upper_r = faces[1:] / (r * dr ** 2)
    diag_r = -(faces[:-1] + faces[1:]) / (r * dr ** 2)

    lower = np.broadcast_to(lower_r, (k.size, n_r)).copy()
    upper = np.broadcast_to(upper_r, (k.size, n_r)).copy()
    diag = np.broadcast_to(diag_r, (k.size, n_r)).copy()
    diag -= k2 / r[None, :] ** 2

    # ghost elimination at the outer node: psi_ghost = (8/3) g - 2 psi_{n-1} + (1/3) psi_{n-2}
    rn = r[-1]
    lower[:, -1] = (faces[-2] + 1.0 / 3.0) / (rn * dr ** 2)
    diag[:, -1] = -(faces[-2] + 3.0) / (rn * dr ** 2) - k2[:, 0] / rn ** 2
    upper[:, -1] = 0.0
    data_coeff = (8.0 / 3.0) / (rn * dr ** 2)
    return lower, diag, upper, data_coeff


class PoissonDirichletSolver:
    """Factorized mode-wise solver for Laplace(psi) = omega, psi(1,.) = 0.

    After the tridiagonal solve, each mode k >= 1 receives a small radial
    lift delta_k * r^(2 + k mod 2) sized so that the quadratically
    extrapolated trace of psi_k / r matches the boundary data exactly.
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
        bands = dirichlet_laplacian_bands(grid)
        self._lower, self._diag, self._upper, self._data_coeff = bands
        self._lu = TridiagonalBatch(self._lower, self._diag, self._upper)
        r = grid.r
        n_modes = grid.n_theta // 2 + 1
        parity = np.arange(n_modes) % 2
        self._lift = np.where(parity[:, None] == 0, r ** 2, r ** 3)
        self._lift_trace = np.where(parity == 0, _trace_1d(r), _trace_1d(r ** 2))

    def solve_modes(self, rhs_modes: np.ndarray,
                    boundary_modes: np.ndarray | None = None) -> np.ndarray:
        """Solve T_k psi_k = rhs_k - data_coeff * g_k for all modes at once,
        then lift so the trace of psi_k / r equals g_k exactly for k >= 1.

        rhs_modes has shape (..., n_modes, n_r), leading axes solved as
        further right-hand sides; returns the same layout.
        """
        rhs = np.array(rhs_modes, dtype=complex)
        if boundary_modes is not None:
            rhs[..., -1] -= self._data_coeff * boundary_modes
        psi = self._lu.solve(rhs)
        r = self.grid.r
        trace = (15.0 * psi[..., -1] / r[-1] - 10.0 * psi[..., -2] / r[-2]
                 + 3.0 * psi[..., -3] / r[-3]) / 8.0
        target = np.zeros_like(trace)
        if boundary_modes is not None:
            target += boundary_modes
        delta = (target - trace) / self._lift_trace
        delta[..., 0] = 0.0
        psi += delta[..., None] * self._lift
        return psi

    def solve(self, omega: ScalarField) -> ScalarField:
        psi_modes = self.solve_modes(to_modes(omega.values))
        return ScalarField(self.grid, from_modes(psi_modes, self.grid.n_theta))

    def apply(self, psi: ScalarField,
              boundary: np.ndarray | None = None) -> ScalarField:
        """Discrete Laplacian with the solver's boundary closure (boundary
        value 0 unless given); used for residual checks."""
        out = apply_tridiagonal(self._lower, self._diag, self._upper,
                                to_modes(psi.values))
        if boundary is not None:
            out[:, -1] += self._data_coeff * np.fft.rfft(boundary)
        return ScalarField(self.grid, from_modes(out, self.grid.n_theta))


_solver_cache: dict[tuple[int, int], PoissonDirichletSolver] = {}


def _cached_solver(grid: PolarGrid) -> PoissonDirichletSolver:
    key = (grid.n_r, grid.n_theta)
    solver = _solver_cache.get(key)
    if solver is None:
        solver = _solver_cache[key] = PoissonDirichletSolver(grid)
    return solver


def solve_poisson_dirichlet(omega: ScalarField) -> ScalarField:
    return _cached_solver(omega.grid).solve(omega)


def biot_savart(omega: ScalarField) -> VectorField:
    """K_Omega: vorticity to velocity, tangent to the boundary by construction."""
    return perp_grad(solve_poisson_dirichlet(omega))


# ---------------------------------------------------------------------------
# sampler for the slip-compatible space W
# ---------------------------------------------------------------------------

def _trace_1d(prof: np.ndarray) -> float:
    """Quadratic extrapolation of a radial profile to r = 1 (matches the
    field-module boundary trace)."""
    return (15.0 * prof[-1] - 10.0 * prof[-2] + 3.0 * prof[-3]) / 8.0


def _deriv_1d(prof: np.ndarray, dr: float) -> float:
    """One-sided second-order d/dr at r = 1 (matches boundary_tangential_velocity)."""
    return (2.0 * prof[-1] - 3.0 * prof[-2] + prof[-3]) / dr


def _deriv_profile(prof: np.ndarray, grid: PolarGrid, pole_sign: float) -> np.ndarray:
    """radial_derivative of a single-mode radial profile; pole_sign is the
    half-turn parity (-1)^k of the mode."""
    return radial_derivative(prof[:, None], grid, parity=pole_sign)[:, 0]


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
    r, dr = grid.r, grid.dr
    exps = (k, k + 2, k + 4)
    pole_sign = 1.0 if k % 2 == 0 else -1.0
    trace_row = np.empty(3)
    slip_row = np.empty(3)
    for col, m in enumerate(exps):
        utheta_prof = _deriv_profile(r ** m, grid, pole_sign)
        psi_over_r = r ** (m - 1)
        trace_row[col] = _trace_1d(psi_over_r)
        slip_row[col] = (_deriv_1d(utheta_prof, dr)
                         + (alpha_const - 1.0) * _trace_1d(utheta_prof)
                         + k ** 2 * _trace_1d(psi_over_r))
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

"""A random sampler of the slip-compatible space W: velocity fields that
are divergence-free, tangent to the wall and satisfy the slip condition
with constant friction. Tests measure residuals, pressures and the H^2
ratio on them.
"""

import numpy as np

from slipdisk.field import (ScalarField, VectorField, boundary_values, perp_grad,
                            radial_derivative, wall_derivative)
from slipdisk.geometry import BoundaryTrace, PolarGrid


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
    trace_row = boundary_values(np.column_stack([r ** (m - 1) for m in exps]))
    slip_row = (wall_derivative(utheta_prof, grid)
                + (alpha_const - 1.0) * boundary_values(utheta_prof)
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

"""Scalar and vector fields on the staggered polar grid, and their calculus.

Derivatives are spectral in theta (FFT) and second-order centered in r.
Radial stencils close across the pole with parity ghost values: a scalar
sampled at the reflected node (-r, theta) equals its value at
(r, theta + pi), while polar vector components flip sign under the same
reflection. At the outer node the radial derivative uses a one-sided
stencil whose leading truncation error matches the centered interior one
(the boundary circle carries no node), so that composed operators such
as curl of perp_grad keep second order up to the last ring.

The stencils act on node arrays (..., n_r, n_theta) and mode arrays
(..., n_theta//2 + 1, n_r): leading axes, such as the member axis of the
time stepper's ensemble, pass through untouched. The field classes
themselves hold one (n_r, n_theta) sample each.

Boundary traces at r = 1 use quadratic extrapolation from the last three
node rings; it is exact for radial polynomials of degree <= 2, which keeps
rigid rotation exact throughout the package.

Sign conventions: perp_grad(psi) = (-(1/r) dpsi/dtheta, dpsi/dr) in polar
components (u = grad^perp psi), and curl(u) = (1/r)(d(r u_theta)/dr
- du_r/dtheta), so curl(perp_grad(psi)) is the Laplacian of psi.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import PolarGrid

SCALAR_PARITY = 1.0
VECTOR_PARITY = -1.0


def _check_values(grid: PolarGrid, values: np.ndarray, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise ValueError(f"{name} has shape {values.shape}, expected {grid.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} contains non-finite entries")
    return values


@dataclass
class ScalarField:
    grid: PolarGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = _check_values(self.grid, self.values, "scalar field")

    def __add__(self, other: "ScalarField") -> "ScalarField":
        return ScalarField(self.grid, self.values + other.values)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return ScalarField(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "ScalarField":
        return ScalarField(self.grid, self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "ScalarField":
        return ScalarField(self.grid, -self.values)


@dataclass
class VectorField:
    """Vector field in polar components (u_r, u_theta) on the grid nodes."""

    grid: PolarGrid
    u_r: np.ndarray = field(repr=False)
    u_theta: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.u_r = _check_values(self.grid, self.u_r, "u_r")
        self.u_theta = _check_values(self.grid, self.u_theta, "u_theta")

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.grid, self.u_r + other.u_r, self.u_theta + other.u_theta)

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.grid, self.u_r - other.u_r, self.u_theta - other.u_theta)

    def __mul__(self, c: float) -> "VectorField":
        return VectorField(self.grid, self.u_r * float(c), self.u_theta * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "VectorField":
        return VectorField(self.grid, -self.u_r, -self.u_theta)

    def magnitude(self) -> np.ndarray:
        return np.hypot(self.u_r, self.u_theta)

    def to_cartesian(self) -> tuple[np.ndarray, np.ndarray]:
        """Cartesian components (u_x, u_y) on the grid nodes; for output and
        for stencils that want scalar pole parity."""
        th = self.grid.theta[None, :]
        cos, sin = np.cos(th), np.sin(th)
        return self.u_r * cos - self.u_theta * sin, self.u_r * sin + self.u_theta * cos


# ---------------------------------------------------------------------------
# core stencils
# ---------------------------------------------------------------------------

def to_modes(values: np.ndarray) -> np.ndarray:
    """rfft coefficients in theta of node values (..., n_r, n_theta), laid
    out (..., n_theta//2 + 1, n_r): one row per mode, like the radial
    solvers' bands."""
    return np.fft.rfft(values, axis=-1).swapaxes(-1, -2)


def from_modes(modes: np.ndarray, n_theta: int) -> np.ndarray:
    """Node values (..., n_r, n_theta) from to_modes coefficients."""
    return np.fft.irfft(modes.swapaxes(-1, -2), n=n_theta, axis=-1)


def theta_derivative(values: np.ndarray, order: int = 1,
                     modes: np.ndarray | None = None) -> np.ndarray:
    """Spectral d/dtheta along the last axis. The Nyquist mode of
    odd-order derivatives is dropped (its sine partner is not
    representable). A caller that already holds to_modes(values) passes
    it as modes."""
    n = values.shape[-1]
    coeffs = np.fft.rfft(values, axis=-1) if modes is None else modes.swapaxes(-1, -2)
    k = np.arange(n // 2 + 1)
    ik = (1j * k) ** order
    if order % 2 == 1 and n % 2 == 0:
        ik[-1] = 0.0
    return np.fft.irfft(coeffs * ik, n=n, axis=-1)


def _pole_ghost(row: np.ndarray, parity: float) -> np.ndarray:
    """Value at the reflected node (-r_1, theta) = parity * value at (r_1, theta+pi)."""
    cut = row.shape[-1] - row.shape[-1] // 2  # np.roll by n // 2, without its overhead
    return parity * np.concatenate((row[..., cut:], row[..., :cut]), axis=-1)


def radial_derivative(values: np.ndarray, grid: PolarGrid,
                      parity: float = SCALAR_PARITY) -> np.ndarray:
    """d/dr: centered in the interior, closed across the pole by a parity
    ghost, one-sided at the outer node.

    The outer stencil (4, -7, 4, -1)/(2 dr) is built to carry the same
    leading truncation term as the centered interior stencil, namely
    (dr^2/6) f'''.  A generic one-sided closure would leave an O(dr^2)
    kink in the error field at the last ring, and composed operators such
    as curl(perp_grad(psi)) differentiate that kink into an O(dr) error.
    Matching the error constant keeps the error field smooth up to the
    boundary, so compositions stay second order.  Exact for quadratics.
    """
    if grid.n_r < 4:
        raise ValueError("radial stencils need n_r >= 4")
    dr = grid.dr
    v = values
    out = np.empty_like(v)
    out[..., 1:-1, :] = (v[..., 2:, :] - v[..., :-2, :]) / (2.0 * dr)
    out[..., 0, :] = (v[..., 1, :] - _pole_ghost(v[..., 0, :], parity)) / (2.0 * dr)
    out[..., -1, :] = (4.0 * v[..., -1, :] - 7.0 * v[..., -2, :]
                       + 4.0 * v[..., -3, :] - v[..., -4, :]) / (2.0 * dr)
    return out


def boundary_values(values: np.ndarray, grid: PolarGrid) -> np.ndarray:
    """Quadratic extrapolation of a node-sampled quantity to r = 1."""
    if grid.n_r < 3:
        raise ValueError("boundary extrapolation needs n_r >= 3")
    return (15.0 * values[..., -1, :] - 10.0 * values[..., -2, :]
            + 3.0 * values[..., -3, :]) / 8.0


def dealias_modes(modes: np.ndarray, n_theta: int) -> np.ndarray:
    """2/3-rule filter on to_modes coefficients, in place: zero the modes
    with k > n_theta/3."""
    modes[..., n_theta // 3 + 1:, :] = 0.0
    return modes


def dealias_theta(values: np.ndarray) -> np.ndarray:
    """2/3-rule filter in theta: zero modes with k > n_theta/3."""
    n = values.shape[-1]
    return from_modes(dealias_modes(to_modes(values), n), n)


# ---------------------------------------------------------------------------
# vector calculus
# ---------------------------------------------------------------------------

def perp_grad(psi: ScalarField, modes: np.ndarray | None = None) -> VectorField:
    """Velocity of a stream function; modes is to_modes(psi.values) when
    the caller already holds it."""
    return VectorField(psi.grid, *perp_grad_values(psi.values, psi.grid, modes))


def perp_grad_values(psi: np.ndarray, grid: PolarGrid,
                     modes: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """perp_grad on node arrays: (u_r, u_theta) of the stream-function
    values psi (..., n_r, n_theta), whose to_modes the caller may pass."""
    u_r = -theta_derivative(psi, modes=modes) / grid.r_col
    u_theta = radial_derivative(psi, grid, SCALAR_PARITY)
    return u_r, u_theta


def curl(u: VectorField) -> ScalarField:
    """Scalar vorticity (1/r)(d(r u_theta)/dr - du_r/dtheta).

    r*u_theta transforms with scalar parity across the pole (both factors
    flip), so the radial stencil uses the scalar ghost.
    """
    grid = u.grid
    d_r = radial_derivative(grid.r_col * u.u_theta, grid, SCALAR_PARITY)
    return ScalarField(grid, (d_r - theta_derivative(u.u_r)) / grid.r_col)


def divergence(u: VectorField) -> ScalarField:
    """(1/r)(d(r u_r)/dr + du_theta/dtheta), with the same scalar-parity
    radial stencil as curl; exactly annihilates perp_grad fields."""
    grid = u.grid
    d_r = radial_derivative(grid.r_col * u.u_r, grid, SCALAR_PARITY)
    return ScalarField(grid, (d_r + theta_derivative(u.u_theta)) / grid.r_col)


def grad(f: ScalarField) -> VectorField:
    grid = f.grid
    return VectorField(grid,
                       radial_derivative(f.values, grid, SCALAR_PARITY),
                       theta_derivative(f.values) / grid.r_col)


def vector_gradient(u: VectorField) -> dict[str, np.ndarray]:
    """Full gradient tensor in the orthonormal polar frame.

    Entry 'ab' is (e_a . grad) u . e_b, including the frame terms:
        G_rr = du_r/dr                  G_rt = du_theta/dr
        G_tr = (1/r) du_r/dtheta - u_theta/r
        G_tt = (1/r) du_theta/dtheta + u_r/r
    The Frobenius pairing of two such tensors is frame-invariant, which is
    all downstream consumers (grad u : grad v, trace(grad u^T grad tau))
    rely on.
    """
    grid = u.grid
    r = grid.r_col
    return {
        "rr": radial_derivative(u.u_r, grid, VECTOR_PARITY),
        "rt": radial_derivative(u.u_theta, grid, VECTOR_PARITY),
        "tr": theta_derivative(u.u_r) / r - u.u_theta / r,
        "tt": theta_derivative(u.u_theta) / r + u.u_r / r,
    }


def gradient_frobenius(g: dict[str, np.ndarray], h: dict[str, np.ndarray]) -> np.ndarray:
    return sum(g[key] * h[key] for key in ("rr", "rt", "tr", "tt"))


def cartesian_gradient(values: np.ndarray, grid: PolarGrid) -> tuple[np.ndarray, np.ndarray]:
    """(d/dx, d/dy) of a scalar-parity quantity, via the polar chain rule."""
    th = grid.theta[None, :]
    cos, sin = np.cos(th), np.sin(th)
    d_r = radial_derivative(values, grid, SCALAR_PARITY)
    d_t = theta_derivative(values) / grid.r_col
    return cos * d_r - sin * d_t, sin * d_r + cos * d_t


# ---------------------------------------------------------------------------
# norms and traces
# ---------------------------------------------------------------------------

def lp_norm(f: ScalarField | VectorField, p: float) -> float:
    """Quadrature L^p norm on the disk; p = inf is the grid max (a lower
    bound of the true sup norm, since nodes sample the field)."""
    mag = np.abs(f.values) if isinstance(f, ScalarField) else f.magnitude()
    return float(lp_norms(mag, f.grid, p))


def lp_norms(mag: np.ndarray, grid: PolarGrid, p: float) -> np.ndarray:
    """lp_norm of node magnitudes (..., n_r, n_theta), one per leading index."""
    if np.isinf(p):
        return np.max(mag, axis=(-2, -1))
    if p < 1:
        raise ValueError(f"lp_norm needs p >= 1, got {p}")
    return np.sum(grid.weights * mag ** p, axis=(-2, -1)) ** (1.0 / p)


def boundary_tangential_velocity(psi: ScalarField) -> np.ndarray:
    """u . tau at r = 1, the one-sided second-order radial derivative of the
    stream function at the boundary; exact for radial quadratics."""
    if psi.grid.n_r < 3:
        raise ValueError("boundary derivative needs n_r >= 3")
    return wall_derivative(psi.values, psi.grid)


def wall_derivative(values: np.ndarray, grid: PolarGrid) -> np.ndarray:
    """One-sided second-order d/dr at r = 1 of node values (..., n_r, n_theta)."""
    return (2.0 * values[..., -1, :] - 3.0 * values[..., -2, :]
            + values[..., -3, :]) / grid.dr


def field_to_csv(f: ScalarField | VectorField, path) -> None:
    """Serialize node samples as CSV rows (r, theta, value...) for plotting."""
    grid = f.grid
    rr = np.repeat(grid.r, grid.n_theta)
    tt = np.tile(grid.theta, grid.n_r)
    if isinstance(f, ScalarField):
        data = np.column_stack([rr, tt, f.values.ravel()])
        header = "r,theta,value"
    else:
        data = np.column_stack([rr, tt, f.u_r.ravel(), f.u_theta.ravel()])
        header = "r,theta,u_r,u_theta"
    np.savetxt(path, data, delimiter=",", header=header, comments="")

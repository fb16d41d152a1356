"""Scalar and vector fields on the staggered polar grid, and their calculus.

Derivatives are spectral in theta and second-order centered in r. A theta
derivative is one product with a cached spectral differentiation matrix
per trailing (rows, n_theta) slice (theta_derivative), so a snapshot's
derivative does not depend on the stack it is taken in; the time
stepper keeps its fields as rfft modes (to_modes, from_modes).
Radial stencils close across the pole with parity ghost values: a scalar
sampled at the reflected node (-r, theta) equals its value at
(r, theta + pi), while polar vector components flip sign under the same
reflection. At the outer node the radial derivative uses a one-sided
stencil whose leading truncation error matches the centered interior one
(the boundary circle carries no node), so that composed operators such
as curl of perp_grad keep second order up to the last ring.

The stencils act on node arrays (..., n_r, n_theta) and mode arrays
(..., n_theta//2 + 1, n_r): leading axes, such as the member axis of the
time stepper's ensemble or the snapshot axis of a trajectory batch, pass
through untouched. They rely on build_grid's sizes, n_r >= 4 and an even
n_theta, and do not check them again. A field holds one validated sample
(n_r, n_theta) or a stack of them (..., n_r, n_theta), and the vector
calculus below maps a stack to a stack. The field classes carry no
arithmetic: code that combines fields works on their arrays.

Boundary traces at r = 1 use quadratic extrapolation from the last three
node rings; it is exact for radial polynomials of degree <= 2, which keeps
rigid rotation exact throughout the package.

Sign conventions: perp_grad(psi) = (-(1/r) dpsi/dtheta, dpsi/dr) in polar
components (u = grad^perp psi), and curl(u) = (1/r)(d(r u_theta)/dr
- du_r/dtheta), so curl(perp_grad(psi)) is the Laplacian of psi.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field

import numpy as np

from .geometry import PolarGrid

SCALAR_PARITY = 1.0
VECTOR_PARITY = -1.0


def _check_values(grid: PolarGrid, values: np.ndarray, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape[-2:] != grid.shape:
        raise ValueError(f"{name} has shape {values.shape}, expected (..., "
                         f"{grid.n_r}, {grid.n_theta})")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} contains non-finite entries")
    return values


@dataclass
class ScalarField:
    grid: PolarGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = _check_values(self.grid, self.values, "scalar field")


@dataclass
class VectorField:
    """Vector field in polar components (u_r, u_theta) on the grid nodes."""

    grid: PolarGrid
    u_r: np.ndarray = field(repr=False)
    u_theta: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.u_r = _check_values(self.grid, self.u_r, "u_r")
        self.u_theta = _check_values(self.grid, self.u_theta, "u_theta")

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


@functools.cache
def theta_multiplier(n_theta: int, order: int = 1) -> np.ndarray:
    """(ik)^order for the rfft modes k of n_theta angles: the spectral
    d^order/dtheta^order. The Nyquist entry of an odd order is zero (its
    sine partner is not representable). Shared by every caller; read-only."""
    k = np.arange(n_theta // 2 + 1)
    ik = (1j * k) ** order
    if order % 2 == 1 and n_theta % 2 == 0:
        ik[-1] = 0.0
    ik.flags.writeable = False
    return ik


@functools.cache
def theta_matrix(n_theta: int, order: int = 1) -> np.ndarray:
    """The (n_theta, n_theta) matrix D with v @ D the spectral
    d^order/dtheta^order of node rows v: row i is the rfft round trip of
    the unit row e_i through theta_multiplier, so the Nyquist handling is
    theta_multiplier's. Shared by every caller; read-only."""
    eye = np.eye(n_theta)
    d = np.fft.irfft(np.fft.rfft(eye, axis=-1) * theta_multiplier(n_theta, order),
                     n=n_theta, axis=-1)
    d.flags.writeable = False
    return d


def theta_derivative(values: np.ndarray, order: int = 1) -> np.ndarray:
    """Spectral d^order/dtheta^order along the last axis: values @
    theta_matrix(n_theta, order), the same linear map as the rfft round
    trip through theta_multiplier, to roundoff.

    numpy takes one BLAS product per trailing (rows, n_theta) slice, so a
    snapshot (n_r, n_theta) has the same bits alone or in any stack
    (b, n_r, n_theta). The rows of one slice are not independent: a
    (b, n_theta) stack of wall traces is one slice, whose rows change
    with b. A wall trace's derivative is therefore taken on its stack's
    last three rings, boundary_values(theta_derivative(f[..., -3:, :])),
    one (3, n_theta) slice per snapshot.

    Per call on an (8, n_theta, n_theta) stack, round trip -> product,
    medians of 15 on a 2-CPU x86 machine, one BLAS thread [two]:
    n_theta = 32: 66 -> 10 us [54 -> 8]; 64: 311 -> 51 us [330 -> 52];
    128: 1,317 -> 609 us [1,346 -> 541]; 256: 4,338 -> 4,512 us
    [4,260 -> 3,253]. The product's O(n_theta^2) work per row overtakes
    the transforms' O(n_theta log n_theta) near n_theta = 256.
    """
    return values @ theta_matrix(values.shape[-1], order)


def _pole_ghost(row: np.ndarray, parity: float) -> np.ndarray:
    """Value at the reflected node (-r_1, theta) = parity * value at (r_1, theta+pi)."""
    cut = row.shape[-1] - row.shape[-1] // 2  # np.roll by n // 2, without its overhead
    return parity * np.concatenate((row[..., cut:], row[..., :cut]), axis=-1)


_OUTER_WEIGHTS = np.array([1.0, 4.0, 7.0, 4.0])[:, None]


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
    v = values
    out = np.empty_like(v)
    # Each row's difference is written in place, then all are divided by 2 dr.
    np.subtract(v[..., 2:, :], v[..., :-2, :], out=out[..., 1:-1, :])
    np.subtract(v[..., 1, :], _pole_ghost(v[..., 0, :], parity), out=out[..., 0, :])
    # 4 v_n - 7 v_n-1 + 4 v_n-2 - v_n-3, summed in this order, from one
    # weighted slice of the last four rings
    t = v[..., -4:, :] * _OUTER_WEIGHTS
    last = out[..., -1, :]
    np.subtract(t[..., 3, :], t[..., 2, :], out=last)
    last += t[..., 1, :]
    last -= t[..., 0, :]
    out /= 2.0 * grid.dr
    return out


def boundary_values(values: np.ndarray) -> np.ndarray:
    """Quadratic extrapolation to r = 1 of the last three rings of values
    (..., rings, n_theta), node values or anything laid out like them."""
    return (15.0 * values[..., -1, :] - 10.0 * values[..., -2, :]
            + 3.0 * values[..., -3, :]) / 8.0


def dealias_modes(modes: np.ndarray, n_theta: int) -> np.ndarray:
    """2/3-rule filter on to_modes coefficients, in place: zero the modes
    with k > n_theta/3."""
    modes[..., n_theta // 3 + 1:, :] = 0.0
    return modes


# ---------------------------------------------------------------------------
# vector calculus
# ---------------------------------------------------------------------------

def perp_grad(psi: ScalarField) -> VectorField:
    """Velocity of a stream function."""
    grid = psi.grid
    return VectorField(grid, -theta_derivative(psi.values) / grid.r_col,
                       radial_derivative(psi.values, grid, SCALAR_PARITY))


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


def bump_values(grid: PolarGrid, center, radius: float,
                amplitude: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smooth compactly supported bump A exp(1 - 1/(1 - q)) for q < 1, q
    the squared distance from the center over radius^2, and its analytic
    Cartesian gradient: (values, d/dx, d/dy) on the grid nodes. It is
    simulate's bump initial vorticity and renormalized_slack's phi."""
    x = grid.r_col * np.cos(grid.theta)[None, :]
    y = grid.r_col * np.sin(grid.theta)[None, :]
    q = ((x - center[0]) ** 2 + (y - center[1]) ** 2) / radius ** 2
    inside = q < 1.0
    gap = 1.0 - q[inside]
    vals = np.zeros(grid.shape)
    vals[inside] = amplitude * np.exp(1.0 - 1.0 / gap)
    dfdq = np.zeros(grid.shape)
    dfdq[inside] = -vals[inside] / gap ** 2
    return (vals, dfdq * 2.0 * (x - center[0]) / radius ** 2,
            dfdq * 2.0 * (y - center[1]) / radius ** 2)


# ---------------------------------------------------------------------------
# norms and traces
# ---------------------------------------------------------------------------

def lp_norm(f: ScalarField | VectorField, p: float) -> float:
    """Quadrature L^p norm on the disk of a one-sample field; p = inf is the
    grid max (a lower bound of the true sup norm, since nodes sample the
    field). It is lp_norms of a stack of one, so a snapshot's norm does not
    depend on whether it is taken alone or in a stack. A stacked field,
    even a stack of one, raises ValueError: lp_norms takes stacks."""
    mag = np.abs(f.values) if isinstance(f, ScalarField) else f.magnitude()
    if mag.ndim != 2:
        raise ValueError(f"lp_norm takes one sample, got a field of shape {mag.shape}; "
                         f"use lp_norms for a stack")
    return float(lp_norms(mag[None], f.grid, p)[0])


def lp_norms(mag: np.ndarray, grid: PolarGrid, p: float) -> np.ndarray:
    """lp_norm of node magnitudes (..., n_r, n_theta), one per leading index.

    The plain sum of w mag^p overflows for a large p or mag, and underflows
    for a small one, to 0 or to a subnormal float that has lost digits. A
    leading index whose sum is not a finite normal float is summed again
    with its max scaled out, max (sum w (mag / max)^p)^(1/p), which is 0
    for a zero field and keeps an inf or nan; every other index keeps the
    bits of the plain sum."""
    if np.isinf(p):
        return np.max(mag, axis=(-2, -1))
    if p < 1:
        raise ValueError(f"lp_norm needs p >= 1, got {p}")
    with np.errstate(over="ignore"):
        sums = np.sum(grid.weights * mag ** p, axis=(-2, -1))
    norms = sums ** (1.0 / p)
    tiny = sys.float_info.min  # the least normal float
    if not all(tiny <= s < np.inf for s in sums.flat):  # few sums: cheaper than array tests
        redo = ~((sums >= tiny) & (sums < np.inf))
        norms, mag = np.array(norms), mag[redo]
        top = np.max(mag, axis=(-2, -1), keepdims=True)
        scale = np.where(np.isfinite(top) & (top > 0), top, 1.0)
        norms[redo] = top[..., 0, 0] * np.sum(grid.weights * (mag / scale) ** p,
                                              axis=(-2, -1)) ** (1.0 / p)
    return norms


def wall_derivative(values: np.ndarray, grid: PolarGrid) -> np.ndarray:
    """One-sided second-order d/dr at r = 1 of node values (..., n_r, n_theta)."""
    return (2.0 * values[..., -1, :] - 3.0 * values[..., -2, :]
            + values[..., -3, :]) / grid.dr


"""Staggered polar grid on the unit disk and its boundary trace.

The grid places nodes at cell centers in radius, r_j = (j - 1/2) dr with
dr = 1/n_r, so neither the pole nor the boundary circle carries a node.
Angles are uniform, theta_i = i * dtheta with dtheta = 2*pi/n_theta.
Quadrature is the midpoint rule in r times the exact trapezoid rule in
theta, with weights w = r * dr * dtheta; the weights sum to pi exactly
(up to roundoff).

The grid's sizes are checked in build_grid alone; grids of equal sizes
compare and hash equal. The boundary trace carries the friction
coefficient alpha and the curvature kappa (identically 1 on the unit
circle) at the grid angles; on the circle the outward normal and the
counterclockwise tangent are the polar unit vectors e_r and e_theta, so
fields in polar components need no separate frame.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class PolarGrid:
    """Staggered polar grid on the unit disk, built by build_grid; it compares
    and hashes by its sizes, which fix its arrays r, theta and weights."""

    n_r: int
    n_theta: int
    r: np.ndarray = field(repr=False, compare=False)
    theta: np.ndarray = field(repr=False, compare=False)
    dr: float
    dtheta: float
    weights: np.ndarray = field(repr=False, compare=False)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_r, self.n_theta)

    @property
    def r_col(self) -> np.ndarray:
        """Node radii as an (n_r, 1) column, broadcastable against fields."""
        return self.r[:, None]

    @property
    def r_face(self) -> np.ndarray:
        """Cell-face radii j*dr, j = 0..n_r; faces 0 and n_r sit at the pole and boundary."""
        return np.arange(self.n_r + 1) * self.dr


def build_grid(n_r: int, n_theta: int) -> PolarGrid:
    """Build the staggered polar grid, or ValueError for sizes the stencils
    cannot use: n_r < 4 (the outer radial stencil reads four rings), or an
    n_theta that is not positive and even (radial stencils close across
    the pole by the half-turn theta -> theta + pi, a grid angle)."""
    if n_r < 4:
        raise ValueError(f"n_r must be >= 4 for the radial stencils, got {n_r}")
    if n_theta <= 0 or n_theta % 2 != 0:
        raise ValueError(f"n_theta must be positive and even for the pole "
                         f"parity ghosts, got {n_theta}")
    dr = 1.0 / n_r
    dtheta = 2.0 * np.pi / n_theta
    r = (np.arange(1, n_r + 1) - 0.5) * dr
    theta = np.arange(n_theta) * dtheta
    weights = np.broadcast_to(r[:, None] * dr * dtheta, (n_r, n_theta)).copy()
    return PolarGrid(n_r=n_r, n_theta=n_theta, r=r, theta=theta,
                     dr=dr, dtheta=dtheta, weights=weights)


def integrate(grid: PolarGrid, values: np.ndarray) -> np.ndarray:
    """Quadrature over the disk of node values (..., n_r, n_theta), one per
    leading index; a single sample gives a scalar."""
    return np.sum(grid.weights * values, axis=(-2, -1))


@dataclass(frozen=True)
class BoundaryTrace:
    """Per-angle data on the boundary circle r = 1, at the grid angles."""

    alpha: np.ndarray = field(repr=False)
    kappa: np.ndarray = field(repr=False)


def real(value, name: str) -> float:
    """float(value), or ValueError naming the entry unless it is a real
    number; a bool or a numeric string is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def reals(values, name: str) -> tuple:
    """The entries of a list or tuple as real() floats, or ValueError
    naming the entry."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{name} must be an array of numbers, got {values!r}")
    return tuple(real(v, name) for v in values)


def distinct(values: tuple, name: str) -> None:
    """ValueError naming the first entry of values equal to an earlier one."""
    repeated = [v for k, v in enumerate(values) if v in values[:k]]
    if repeated:
        raise ValueError(f"{name} {repeated[0]} is repeated in {list(values)}")


def finite(value, name: str) -> float:
    """real(value), or ValueError naming the entry unless it is finite."""
    value = real(value, name)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def bump_radius(value, name: str) -> float:
    """finite(value), or ValueError naming the entry unless its square, a
    bump's denominator, is a normal float: at least sqrt(sys.float_info.min)
    ~ 1.49e-154. The initial bump and the sweep's phi read their radius here."""
    value, least = finite(value, name), np.sqrt(np.finfo(float).tiny)
    if not value >= least:
        raise ValueError(f"{name} must be at least {least:.4g}, so that its square is "
                         f"a normal float, got {value}")
    return value


def point(values, name: str) -> tuple:
    """A point (x, y) of two finite() floats, or ValueError naming the
    entry."""
    if not isinstance(values, (list, tuple)) or len(values) != 2:
        raise ValueError(f"{name} must be an array of two numbers, got {values!r}")
    return tuple(finite(v, name) for v in values)


def integer(value, name: str) -> int:
    """int(value), or ValueError naming the entry unless it is an integer;
    a bool or an integral float is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def table(value, name: str, keys) -> dict:
    """value, or ValueError naming the entry unless it is an object whose
    keys all lie in keys; the message names the unknown keys."""
    if not isinstance(value, dict):
        raise ValueError(f"malformed {name}: must be an object, got {value!r}")
    unknown = set(value) - set(keys)
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
    return value


def alpha_function(alpha_spec):
    """Turn a friction-coefficient spec into a callable of theta.

    Accepted specs: a finite number (constant), an object holding exactly
    one of {"const": c} or {"fourier": [[k, a_k, b_k], ...]}, the latter
    meaning sum of a_k cos(k theta) + b_k sin(k theta) with finite
    coefficients. Any other spec, a callable included, is refused: a run
    records its alpha in config-resolved.json.
    """
    if isinstance(alpha_spec, dict):
        if len(table(alpha_spec, "alpha", ("const", "fourier"))) != 1:
            raise ValueError(f"alpha must hold exactly one of const or fourier, "
                             f"got {alpha_spec!r}")
        if "const" in alpha_spec:
            alpha_spec = finite(alpha_spec["const"], "alpha")
    if isinstance(alpha_spec, (int, float)):
        c = finite(alpha_spec, "alpha")
        return lambda theta: np.full_like(np.asarray(theta, dtype=float), c)
    if isinstance(alpha_spec, dict):
        terms = alpha_spec["fourier"]
        if not (isinstance(terms, (list, tuple))
                and all(isinstance(t, (list, tuple)) and len(t) == 3 for t in terms)):
            raise ValueError(f"alpha fourier must be an array of [k, a_k, b_k] "
                             f"triples, got {terms!r}")
        terms = [(integer(k, "alpha fourier k"), finite(a, "alpha fourier coefficient"),
                  finite(b, "alpha fourier coefficient"))
                 for k, a, b in terms]

        def alpha(theta, terms=terms):
            theta = np.asarray(theta, dtype=float)
            out = np.zeros_like(theta)
            for k, a, b in terms:
                out += a * np.cos(k * theta) + b * np.sin(k * theta)
            return out

        return alpha
    raise ValueError(f"unrecognized alpha spec: {alpha_spec!r}")


def boundary_trace(grid: PolarGrid, alpha_spec) -> BoundaryTrace:
    """Sample alpha and kappa at the grid angles."""
    alpha = alpha_function(alpha_spec)(grid.theta)
    if not np.all(np.isfinite(alpha)):
        raise ValueError("alpha samples must be finite")
    return BoundaryTrace(alpha=alpha, kappa=np.ones_like(grid.theta))

"""Batched tridiagonal solves through LAPACK.

Every per-Fourier-mode radial operator in this package is tridiagonal.
A batch of them is one block-diagonal tridiagonal matrix: the modes'
bands are laid end to end and the entries that would couple the last
row of one block to the first row of the next are zero. LAPACK's
`dgttrf` factors that matrix once (LU with partial pivoting; a row
interchange never crosses a block boundary, because the coupling entry
there is zero) and `dgttrs` solves every mode in one compiled call.
Complex right-hand sides go in as two real ones, Re and Im, since the
bands are real, and right-hand sides with further leading axes (several
states of one operator) go in as further columns of the same call.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack


class TridiagonalBatch:
    """LU factorization of a batch of tridiagonal systems.

    Bands have shape (..., n), every leading axis a batch axis:
    lower[..., j] multiplies x_{j-1} in row j (lower[..., 0] is ignored),
    upper[..., j] multiplies x_{j+1} (upper[..., -1] is ignored). A
    singular system raises ZeroDivisionError. Immutable after
    construction; solves may run concurrently.
    """

    def __init__(self, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray):
        lower = np.array(lower, dtype=float)
        diag = np.asarray(diag, dtype=float)
        upper = np.array(upper, dtype=float)
        if not (lower.shape == diag.shape == upper.shape) or diag.ndim < 2:
            raise ValueError("bands must share a common (..., n_batch, n) shape")
        lower[..., 0] = 0.0
        upper[..., -1] = 0.0
        dl, d, du, du2, ipiv, info = lapack.dgttrf(
            lower.ravel()[1:], diag.ravel(), upper.ravel()[:-1])
        if info > 0 or not (np.all(np.isfinite(d)) and np.all(np.isfinite(du))):
            raise ZeroDivisionError("singular tridiagonal system in the batch")
        self._factors = (dl, d, du, du2, ipiv)
        self.shape = diag.shape
        self._rows = diag.size

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for each batch row; rhs has the bands' shape, optionally
        behind further leading axes that are solved as more right-hand
        sides of the same systems. Real or complex."""
        rhs = np.asarray(rhs)
        if rhs.shape[-len(self.shape):] != self.shape:
            raise ValueError(f"rhs shape {rhs.shape} does not match bands {self.shape}")
        parts = (rhs.real, rhs.imag) if np.iscomplexobj(rhs) else (rhs,)
        # One column per real right-hand side, in LAPACK's column-major layout.
        b = np.empty((len(parts),) + rhs.shape)
        for column, part in zip(b, parts):
            column[...] = part
        x, info = lapack.dgttrs(*self._factors, b.reshape(-1, self._rows).T,
                                overwrite_b=True)
        if info != 0:
            raise ValueError(f"dgttrs rejected argument {-info}")
        x = x.T.reshape(b.shape)
        if len(parts) == 1:
            return x[0]
        out = np.empty(rhs.shape, dtype=complex)
        out.real = x[0]
        out.imag = x[1]
        return out


def apply_tridiagonal(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                      x: np.ndarray) -> np.ndarray:
    """Matrix-vector product for the same banded layout, batched; x may
    carry leading axes beyond the bands'."""
    out = diag * x
    out[..., 1:] += lower[..., 1:] * x[..., :-1]
    out[..., :-1] += upper[..., :-1] * x[..., 1:]
    return out

"""Batched tridiagonal solves through LAPACK.

Every per-Fourier-mode radial operator in this package is tridiagonal.
A batch of them is one block-diagonal tridiagonal matrix: the modes'
bands are laid end to end and the entries that would couple the last
row of one block to the first row of the next are zero. LAPACK's
`zgttrf` factors that matrix once (LU with partial pivoting; a row
interchange never crosses a block boundary, because the coupling entry
there is zero) and `zgttrs` solves every mode in one compiled call.
The bands are real and enter as complex numbers with zero imaginary
part, so a complex right-hand side is solved in one pass with the same
bits as its Re and Im solved apart by `dgttrf`/`dgttrs`; a real one
goes in as complex and comes back real. Right-hand sides with further
leading axes (several states of one operator) go in as further columns
of the same call.

`zgttrf` and `zgttrs` are all this package takes from SciPy. They live in
the compiled f2py wrapper `scipy.linalg._flapack`, which
`scipy.linalg.lapack` only re-exports, so `_load_flapack` loads that
extension module on its own: importing the `scipy.linalg` package would
load about 290 further modules and 23 MB into every process for
nothing this package calls.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
import scipy


def _load_flapack():
    """Return `scipy.linalg._flapack` without importing `scipy.linalg`.

    The module is registered under its own name, so a later import of
    `scipy.linalg` reuses it, and an earlier one is reused here.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(path, "linalg") for path in scipy.__path__])
    if spec is None:
        raise ImportError(f"SciPy {scipy.__version__} has no {name}", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


lapack = _load_flapack()


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
        dl, d, du, du2, ipiv, info = lapack.zgttrf(
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
        # A private copy whose transpose is LAPACK's column-major layout,
        # one column per right-hand side; zgttrs overwrites it.
        b = np.array(rhs, dtype=complex, order="C")
        x, info = lapack.zgttrs(*self._factors, b.reshape(-1, self._rows).T,
                                overwrite_b=True)
        if info != 0:
            raise ValueError(f"zgttrs rejected argument {-info}")
        x = x.T.reshape(rhs.shape)
        return x if np.iscomplexobj(rhs) else x.real.copy()


def apply_tridiagonal(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                      x: np.ndarray) -> np.ndarray:
    """Matrix-vector product for the same banded layout, batched; x may
    carry leading axes beyond the bands'."""
    out = diag * x
    out[..., 1:] += lower[..., 1:] * x[..., :-1]
    out[..., :-1] += upper[..., :-1] * x[..., 1:]
    return out

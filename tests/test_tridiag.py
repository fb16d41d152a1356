"""The batched tridiagonal solve behind every radial operator: agreement
with a dense solve per batch row, shape checking, and singular rows."""

import numpy as np
import pytest

from slipdisk._tridiag import TridiagonalBatch


def _bands(seed: int, n_batch: int = 5, n: int = 9):
    """Random bands that differ per row, with a dominant diagonal."""
    rng = np.random.default_rng(seed)
    lower = rng.uniform(-1.0, 1.0, (n_batch, n))
    upper = rng.uniform(-1.0, 1.0, (n_batch, n))
    diag = rng.uniform(2.5, 4.0, (n_batch, n)) * rng.choice([-1.0, 1.0], (n_batch, 1))
    return lower, diag, upper


def _dense(lower, diag, upper, row):
    return (np.diag(diag[row]) + np.diag(lower[row, 1:], -1)
            + np.diag(upper[row, :-1], 1))


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_solve_matches_dense_per_row(kind):
    lower, diag, upper = _bands(seed=1)
    rng = np.random.default_rng(2)
    rhs = rng.standard_normal(diag.shape)
    if kind == "complex":
        rhs = rhs + 1j * rng.standard_normal(diag.shape)
    x = TridiagonalBatch(lower, diag, upper).solve(rhs)
    assert x.shape == rhs.shape
    assert np.iscomplexobj(x) == (kind == "complex")
    for row in range(diag.shape[0]):
        expected = np.linalg.solve(_dense(lower, diag, upper, row), rhs[row])
        assert np.allclose(x[row], expected, rtol=1e-13, atol=1e-13)


def test_solve_accepts_transposed_rhs_and_leaves_it_unchanged():
    lower, diag, upper = _bands(seed=3)
    rhs = np.random.default_rng(4).standard_normal(diag.shape[::-1]).T
    before = rhs.copy()
    batch = TridiagonalBatch(lower, diag, upper)
    assert np.array_equal(batch.solve(rhs), batch.solve(before))
    assert np.array_equal(rhs, before)


def test_shape_mismatch_raises():
    lower, diag, upper = _bands(seed=5)
    with pytest.raises(ValueError, match="common"):
        TridiagonalBatch(lower[:, :-1], diag, upper)
    with pytest.raises(ValueError, match="common"):
        TridiagonalBatch(lower[0], diag[0], upper[0])
    batch = TridiagonalBatch(lower, diag, upper)
    with pytest.raises(ValueError, match="does not match"):
        batch.solve(np.zeros((diag.shape[0], diag.shape[1] + 1)))


def test_singular_row_raises():
    lower, diag, upper = _bands(seed=6)
    # Batch row 2 becomes rank deficient: its last two equations coincide.
    lower[2, -2] = 0.0
    lower[2, -1], diag[2, -1] = diag[2, -2], upper[2, -2]
    with pytest.raises(ZeroDivisionError):
        TridiagonalBatch(lower, diag, upper)
    lower, diag, upper = _bands(seed=7)
    lower[3], diag[3], upper[3] = 0.0, 0.0, 0.0
    with pytest.raises(ZeroDivisionError):
        TridiagonalBatch(lower, diag, upper)


def test_stacked_bands_and_extra_rhs_axes_solve_each_system():
    # Bands with two batch axes, and a right-hand side with one more
    # leading axis that is solved against the same factorization.
    lower, diag, upper = (b.reshape(2, 3, 9) for b in _bands(seed=8, n_batch=6))
    rng = np.random.default_rng(9)
    shape = (4,) + diag.shape
    rhs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x = TridiagonalBatch(lower, diag, upper).solve(rhs)
    assert x.shape == rhs.shape
    for e in range(4):
        for i in range(2):
            for j in range(3):
                dense = _dense(lower[i], diag[i], upper[i], j)
                assert np.allclose(x[e, i, j], np.linalg.solve(dense, rhs[e, i, j]),
                                   rtol=1e-13, atol=1e-13)

"""Grid construction and quadrature identities."""

import numpy as np
import pytest

from slipdisk.geometry import (alpha_function, boundary_trace, build_grid,
                               bump_radius, integrate)


def test_weights_sum_to_disk_area_exactly(grid64):
    assert abs(np.sum(grid64.weights) - np.pi) <= 1e-13


def test_integral_of_one_is_area(grid48):
    assert abs(integrate(grid48, np.ones(grid48.shape)) - np.pi) <= 1e-13


def test_integral_of_r_squared_has_closed_form_defect(grid64):
    # midpoint quadrature of r^3 dr: exact value pi/2 minus pi/(4 n^2)
    expected = np.pi / 2.0 - np.pi / (4.0 * grid64.n_r ** 2)
    got = integrate(grid64, np.tile(grid64.r[:, None] ** 2, (1, grid64.n_theta)))
    assert abs(got - expected) <= 1e-13


def test_nodes_are_cell_midpoints():
    grid = build_grid(16, 32)
    assert grid.dr == pytest.approx(1.0 / 16)
    assert np.allclose(grid.r, (np.arange(16) + 0.5) / 16.0)
    assert np.allclose(grid.theta, np.arange(32) * 2.0 * np.pi / 32.0)
    assert grid.shape == (16, 32)


def test_odd_angular_count_rejected():
    with pytest.raises(ValueError):
        build_grid(16, 31)


@pytest.mark.parametrize("n_r, n_theta, match", [
    # the outer radial stencil reads four rings, the wall traces three
    (3, 8, "n_r must be >= 4"),
    (2, 8, "n_r must be >= 4"),
    (0, 8, "n_r must be >= 4"),
    # the pole closes by a half-turn of the angles
    (16, 31, "n_theta must be positive and even"),
    (16, 0, "n_theta must be positive and even"),
    (16, -8, "n_theta must be positive and even"),
])
def test_build_grid_refuses_sizes_the_stencils_cannot_use(n_r, n_theta, match):
    with pytest.raises(ValueError, match=match):
        build_grid(n_r, n_theta)


def test_grids_of_equal_sizes_are_one_value():
    # the arrays made the generated == raise ValueError and hash TypeError
    a, b, other = build_grid(8, 8), build_grid(8, 8), build_grid(8, 16)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other and build_grid(16, 8) != a
    assert {a, b, other} == {a, other}
    assert {a: 1, other: 2}[b] == 1


def test_bump_radius_is_the_least_whose_square_is_normal():
    least = np.sqrt(np.finfo(float).tiny)
    assert least ** 2 >= np.finfo(float).tiny > np.nextafter(least, 0.0) ** 2
    for radius in (least, 1.5e-154, 0.4):
        assert bump_radius(radius, "r") == radius
    for radius in (np.nextafter(least, 0.0), 1e-160, 1e-200, 0.0, -0.4):
        with pytest.raises(ValueError, match=f"r must be at least 1.492e-154, .*got {radius}"):
            bump_radius(radius, "r")


def test_alpha_function_forms():
    assert alpha_function(2.5)(0.3) == pytest.approx(2.5)
    assert alpha_function({"const": 1.5})(1.0) == pytest.approx(1.5)
    f = alpha_function({"fourier": [[0, 1.0, 0.0], [1, 0.5, 0.0]]})
    theta = np.linspace(0.0, 2.0 * np.pi, 7)
    assert np.allclose(f(theta), 1.0 + 0.5 * np.cos(theta))
    # a run records its alpha as JSON, which a callable cannot be
    with pytest.raises(ValueError, match="alpha"):
        alpha_function(lambda th: np.sin(th))


def test_boundary_trace_geometry(grid32):
    trace = boundary_trace(grid32, {"fourier": [[1, 1.0, 0.0]]})
    assert np.allclose(trace.kappa, 1.0)
    assert np.allclose(trace.alpha, np.cos(grid32.theta))
    with pytest.raises(ValueError):
        boundary_trace(grid32, {"unknown": 1})

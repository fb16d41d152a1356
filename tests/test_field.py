"""Discrete calculus on the polar grid.

Exactness contracts (quadratics through the pole ghost, trig modes under
the spectral theta derivative), parity handling, composition identities
(div o perp_grad = 0, curl o perp_grad = Laplacian), quadrature norms
against closed forms, and the input validation that keeps bad arrays out
of the solvers.  Generic-function derivatives are checked against a
symbolically differentiated oracle at two resolutions.
"""

import warnings

import numpy as np
import pytest

from slipdisk import (
    ScalarField,
    VectorField,
    biot_savart,
    boundary_trace,
    build_grid,
    curl,
    divergence,
    grad,
    integrate,
    lp_norm,
    perp_grad,
    recover_pressure,
)
from slipdisk.field import (
    VECTOR_PARITY,
    boundary_values,
    bump_values,
    dealias_modes,
    from_modes,
    gradient_frobenius,
    lp_norms,
    radial_derivative,
    theta_derivative,
    theta_matrix,
    theta_multiplier,
    to_modes,
    vector_gradient,
    wall_derivative,
)

from conftest import smooth_vorticity


# ---------------------------------------------------------------------------
# containers and validation
# ---------------------------------------------------------------------------

def test_to_cartesian_rigid_rotation(grid32):
    # u = (-y, x) has polar components u_r = 0, u_theta = r.
    u = VectorField(grid32, np.zeros(grid32.shape),
                    np.broadcast_to(grid32.r_col, grid32.shape).copy())
    ux, uy = u.to_cartesian()
    x = grid32.r_col * np.cos(grid32.theta[None, :])
    y = grid32.r_col * np.sin(grid32.theta[None, :])
    assert np.allclose(ux, -y, atol=1e-14)
    assert np.allclose(uy, x, atol=1e-14)


def test_field_rejects_wrong_shape(grid32):
    with pytest.raises(ValueError):
        ScalarField(grid32, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        VectorField(grid32, np.zeros(grid32.shape), np.zeros((3, 3)))


def test_field_rejects_non_finite(grid32):
    bad = np.zeros(grid32.shape)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        ScalarField(grid32, bad)
    with pytest.raises(ValueError):
        VectorField(grid32, bad, np.zeros(grid32.shape))


def test_lp_norm_rejects_p_below_one(grid32):
    f = ScalarField(grid32, np.ones(grid32.shape))
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


# ---------------------------------------------------------------------------
# theta derivative (spectral)
# ---------------------------------------------------------------------------

def test_theta_derivative_exact_on_trig_modes(grid32):
    th = grid32.theta[None, :]
    for k in (1, 2, 5, 9):
        vals = np.broadcast_to(np.cos(k * th), grid32.shape)
        want = np.broadcast_to(-k * np.sin(k * th), grid32.shape)
        assert np.max(np.abs(theta_derivative(vals) - want)) < 1e-12


def test_theta_second_derivative(grid32):
    th = grid32.theta[None, :]
    vals = np.broadcast_to(np.sin(3 * th), grid32.shape)
    want = np.broadcast_to(-9.0 * np.sin(3 * th), grid32.shape)
    assert np.max(np.abs(theta_derivative(vals, order=2) - want)) < 1e-11


def test_theta_derivative_drops_nyquist_for_odd_orders(grid32):
    # cos(n/2 * theta) is representable but its derivative partner
    # sin(n/2 * theta) is not; first derivative must return zero, while
    # the second derivative (a cosine again) is kept.
    n = grid32.n_theta
    th = grid32.theta[None, :]
    vals = np.broadcast_to(np.cos((n // 2) * th), grid32.shape)
    assert np.max(np.abs(theta_derivative(vals))) < 1e-12
    want = -((n // 2) ** 2) * np.cos((n // 2) * th)
    assert np.allclose(theta_derivative(vals, order=2),
                       np.broadcast_to(want, grid32.shape), atol=1e-9)


def _round_trip(values, order):
    """The rfft -> multiply -> irfft form of theta_derivative: the reference
    that the matrix product must agree with to roundoff."""
    n = values.shape[-1]
    return np.fft.irfft(np.fft.rfft(values, axis=-1) * theta_multiplier(n, order),
                        n=n, axis=-1)


@pytest.mark.parametrize("n", [8, 16, 64, 128])
@pytest.mark.parametrize("order", [1, 2])
def test_theta_derivative_equals_the_fft_round_trip(n, order):
    rng = np.random.default_rng(n + order)
    vals = rng.standard_normal((3, 10, n))
    got, want = theta_derivative(vals, order), _round_trip(vals, order)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # a pure Nyquist mode: an odd order sends it to 0, an even one keeps it
    nyquist = np.cos((n // 2) * 2 * np.pi * np.arange(n) / n)[None, :] * np.ones((4, 1))
    got, want = theta_derivative(nyquist, order), _round_trip(nyquist, order)
    scale = (n // 2) ** order
    assert np.max(np.abs(got - want)) <= 1e-13 * scale
    if order % 2:
        assert np.max(np.abs(got)) <= 1e-13 * scale
    else:
        assert np.allclose(got, -(n // 2) ** 2 * nyquist, rtol=1e-13, atol=0)


def test_theta_derivative_of_a_stack_equals_its_slices_bitwise():
    # one product per trailing slice: a snapshot, or the last three rings
    # of one, has the same bits alone as in a stack
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((5, 24, 64))
    for vals in (stack, stack[..., -3:, :]):
        for order in (1, 2):
            whole = theta_derivative(vals, order)
            for i in range(len(vals)):
                assert whole[i].tobytes() == theta_derivative(vals[i], order).tobytes()


def test_theta_matrix_is_cached_and_read_only():
    d = theta_matrix(32, 1)
    assert theta_matrix(32, 1) is d and theta_matrix(32, 2) is not d
    assert not d.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        d[0, 0] = 1.0


# ---------------------------------------------------------------------------
# radial derivative: exactness and parity
# ---------------------------------------------------------------------------

def test_radial_derivative_exact_on_even_quadratic(grid32):
    # f = 2 + 3 r^2 is smooth on the disk with scalar parity; every
    # stencil row (pole ghost, centered interior, matched outer) is
    # quadratic-exact.
    r = grid32.r_col
    vals = np.broadcast_to(2.0 + 3.0 * r ** 2, grid32.shape)
    want = np.broadcast_to(6.0 * r, grid32.shape)
    assert np.max(np.abs(radial_derivative(vals, grid32) - want)) < 1e-12


def test_radial_derivative_exact_on_linear_mode(grid32):
    # f = r cos(theta) = x is smooth on the disk; its reflection through
    # the pole picks up the scalar-parity sign via theta -> theta + pi.
    r = grid32.r_col
    th = grid32.theta[None, :]
    vals = r * np.cos(th)
    want = np.broadcast_to(np.cos(th), grid32.shape)
    assert np.max(np.abs(radial_derivative(vals, grid32) - want)) < 1e-13


def test_radial_derivative_vector_parity_rigid_rotation(grid32):
    # u_theta = r reflects through the pole as a vector component:
    # u_theta(-r, theta) = -u_theta(r, theta + pi) = -r, so the pole row
    # sees the odd extension and the centered stencil lands exactly on 1.
    vals = np.broadcast_to(grid32.r_col, grid32.shape).copy()
    d = radial_derivative(vals, grid32, VECTOR_PARITY)
    assert np.max(np.abs(d - 1.0)) < 1e-13


def test_radial_derivative_matches_symbolic_oracle_at_second_order():
    sympy = pytest.importorskip("sympy")
    r_s, th_s = sympy.symbols("r theta", real=True)
    # exp(r cos theta) = exp(x): entire on the disk, no special symmetry.
    expr = sympy.exp(r_s * sympy.cos(th_s))
    f = sympy.lambdify((r_s, th_s), expr, "numpy")
    df = sympy.lambdify((r_s, th_s), sympy.diff(expr, r_s), "numpy")

    errs = []
    for n in (32, 64):
        grid = build_grid(n, 64)
        rr = np.broadcast_to(grid.r_col, (n, 64))
        tt = np.broadcast_to(grid.theta[None, :], (n, 64))
        got = radial_derivative(f(rr, tt), grid)
        errs.append(np.max(np.abs(got - df(rr, tt))))
    assert errs[0] / errs[1] > 3.5  # second order: halving dr quarters the error


# ---------------------------------------------------------------------------
# composition identities
# ---------------------------------------------------------------------------

def test_divergence_annihilates_perp_grad(grid48):
    rng = np.random.default_rng(7)
    # arbitrary smooth stream function assembled from disk-smooth modes
    r = grid48.r_col
    th = grid48.theta[None, :]
    psi_vals = np.zeros(grid48.shape)
    for k in range(5):
        a, b = rng.standard_normal(2)
        psi_vals += r ** k * (a + b * r ** 2) * np.cos(k * th + rng.uniform(0, 2 * np.pi))
    u = perp_grad(ScalarField(grid48, psi_vals))
    div = divergence(u)
    assert np.max(np.abs(div.values)) < 1e-10


def test_curl_of_perp_grad_is_laplacian_on_quadratic(grid32):
    # psi = r^2: perp_grad gives u_theta = 2r, and curl recovers
    # Laplacian(psi) = 4 exactly (all stencils quadratic-exact).
    psi = ScalarField(grid32, np.broadcast_to(grid32.r_col ** 2, grid32.shape).copy())
    om = curl(perp_grad(psi))
    assert np.max(np.abs(om.values - 4.0)) < 1e-11


def test_curl_of_perp_grad_converges_to_laplacian():
    # psi = r^3 cos(theta) = x (x^2 + y^2): Laplacian = 8 r cos(theta).
    # Odd azimuthal modes pay a price at the innermost rings -- the 1/r in
    # curl divides a second-order numerator error by r_1 ~ dr/2 -- so the
    # composition is measured in L^2, where the near-pole rings carry
    # vanishing weight and second order survives.
    errs = []
    for n in (32, 64):
        grid = build_grid(n, 64)
        r = grid.r_col
        th = grid.theta[None, :]
        psi = ScalarField(grid, r ** 3 * np.cos(th))
        om = curl(perp_grad(psi))
        errs.append(lp_norm(ScalarField(grid, om.values - 8.0 * r * np.cos(th)), 2.0))
    assert errs[0] / errs[1] > 3.2


def test_grad_components(grid32):
    # f = r cos(theta) = x: grad = (cos, -sin), exact for every stencil.
    # (r^2 cos(theta) = x |x| would NOT do: a mode-k profile must be r^k
    # times an even polynomial to be smooth through the pole, and the
    # ghost reflection assumes that structure.)
    r = grid32.r_col
    th = grid32.theta[None, :]
    g = grad(ScalarField(grid32, r * np.cos(th)))
    assert np.max(np.abs(g.u_r - np.cos(th))) < 1e-12
    assert np.max(np.abs(g.u_theta + np.sin(th))) < 1e-12


# ---------------------------------------------------------------------------
# gradient tensor and cartesian chain rule
# ---------------------------------------------------------------------------

def test_vector_gradient_rigid_rotation(grid32):
    # u = (-y, x): the polar-frame gradient tensor has G_rt = 1,
    # G_tr = -1, zero diagonal, Frobenius norm squared = 2 everywhere.
    u = VectorField(grid32, np.zeros(grid32.shape),
                    np.broadcast_to(grid32.r_col, grid32.shape).copy())
    g = vector_gradient(u)
    assert np.max(np.abs(g["rr"])) < 1e-12
    assert np.max(np.abs(g["rt"] - 1.0)) < 1e-12
    assert np.max(np.abs(g["tr"] + 1.0)) < 1e-12
    assert np.max(np.abs(g["tt"])) < 1e-12
    assert np.max(np.abs(gradient_frobenius(g, g) - 2.0)) < 1e-12


def test_cartesian_gradient_of_r_squared(grid32):
    # f = x^2 + y^2: (df/dx, df/dy) = (2x, 2y).
    vals = np.broadcast_to(grid32.r_col ** 2, grid32.shape).copy()
    gx, gy = grad(ScalarField(grid32, vals)).to_cartesian()
    x = grid32.r_col * np.cos(grid32.theta[None, :])
    y = grid32.r_col * np.sin(grid32.theta[None, :])
    assert np.max(np.abs(gx - 2.0 * x)) < 1e-12
    assert np.max(np.abs(gy - 2.0 * y)) < 1e-12


def test_bump_gradient_matches_centred_differences_to_second_order(grid32):
    # f at the node x + h e_x for center c is f at x for center c - h e_x,
    # so shifted centers give exact Cartesian centred differences
    center, radius, amplitude = (0.2, -0.1), 0.5, 3.0
    _, gx, gy = bump_values(grid32, center, radius, amplitude)
    errors = []
    for h in (1e-2, 5e-3):
        cx, cy = center
        dx = (bump_values(grid32, (cx - h, cy), radius, amplitude)[0]
              - bump_values(grid32, (cx + h, cy), radius, amplitude)[0]) / (2.0 * h)
        dy = (bump_values(grid32, (cx, cy - h), radius, amplitude)[0]
              - bump_values(grid32, (cx, cy + h), radius, amplitude)[0]) / (2.0 * h)
        errors.append(max(np.max(np.abs(dx - gx)), np.max(np.abs(dy - gy))))
    assert 3.5 < errors[0] / errors[1] < 4.5
    assert errors[1] < 1e-2 * np.max(np.hypot(gx, gy))


# ---------------------------------------------------------------------------
# norms against closed forms
# ---------------------------------------------------------------------------

def test_lp_norm_of_one_equals_area_root(grid64):
    f = ScalarField(grid64, np.ones(grid64.shape))
    for p in (1.0, 2.0, 3.0, 4.0):
        assert abs(lp_norm(f, p) - np.pi ** (1.0 / p)) < 1e-12


def test_l2_norm_of_r_matches_midpoint_quadrature_exactly(grid64):
    # The midpoint rule integrates r * r^2 with a known defect:
    # sum w r^2 = pi/2 - pi/(4 n^2) exactly (cubics in r are handled
    # exactly except for the outermost correction).
    n = grid64.n_r
    f = ScalarField(grid64, np.broadcast_to(grid64.r_col, grid64.shape).copy())
    want = np.sqrt(np.pi / 2.0 - np.pi / (4.0 * n ** 2))
    assert abs(lp_norm(f, 2.0) - want) < 1e-13


def test_lp_norm_sup_is_grid_max(grid32):
    vals = np.zeros(grid32.shape)
    vals[10, 3] = -7.5
    f = ScalarField(grid32, vals)
    assert lp_norm(f, np.inf) == 7.5


def test_normalized_lp_norms_increase_with_p(grid48):
    # On a fixed-measure domain, p -> ||f||_p / |D|^{1/p} is non-decreasing
    # (power-mean inequality); the quadrature weights are a fixed measure,
    # so the discrete norms must inherit the monotonicity.
    r = grid48.r_col
    th = grid48.theta[None, :]
    f = ScalarField(grid48, 1.0 + r ** 2 * np.cos(2 * th) + 0.5 * r ** 3 * np.sin(3 * th))
    area = integrate(grid48, np.ones(grid48.shape))
    means = [lp_norm(f, p) / area ** (1.0 / p) for p in (1.0, 1.5, 2.0, 3.0, 4.0, 6.0)]
    assert all(b >= a - 1e-13 for a, b in zip(means, means[1:]))


def test_vector_field_arithmetic_and_magnitude(grid32):
    # VectorField has no operators; arithmetic is done on the component arrays.
    u = VectorField(grid32, np.full(grid32.shape, 3.0), np.full(grid32.shape, 4.0))
    v = VectorField(grid32, np.ones(grid32.shape), np.ones(grid32.shape))
    assert np.allclose(u.magnitude(), 5.0)
    w = VectorField(grid32, u.u_r - v.u_r, 0.5 * u.u_theta)
    assert np.allclose(w.magnitude(), np.sqrt(8.0))


def test_vector_lp_norm_uses_magnitude(grid32):
    u = VectorField(grid32, np.full(grid32.shape, 3.0), np.full(grid32.shape, 4.0))
    assert abs(lp_norm(u, 2.0) - 5.0 * np.sqrt(np.pi)) < 1e-12


def test_lp_norm_of_a_snapshot_equals_its_entry_in_a_stack(grid48):
    # a 0-d sum ** 0.5 calls pow while an array ** 0.5 calls sqrt, which
    # once put snapshot 2's pressure-gradient L^2 norm one ulp off its
    # value in the stack (the velocity's L^4 norm of snapshot 0 too)
    omega = ScalarField(grid48, np.stack([smooth_vorticity(grid48, seed=s).values
                                          for s in (0, 1, 2)]))
    u = biot_savart(omega)
    grad_p = grad(recover_pressure(u, omega, 0.02, boundary_trace(grid48, 1.0)).p)
    for p in (1.0, 2.0, 3.0, 4.0, np.inf):
        for f, mag in ((omega, np.abs(omega.values)), (u, u.magnitude()),
                       (grad_p, grad_p.magnitude())):
            stacked = lp_norms(mag, grid48, p)
            for k in range(3):
                one = (ScalarField(grid48, f.values[k]) if f is omega
                       else VectorField(grid48, f.u_r[k], f.u_theta[k]))
                assert lp_norm(one, p) == stacked[k], (p, k)


@pytest.mark.parametrize("c, p", [(1e80, 4.0), (-1e80, 4.0), (0.1, 400.0), (8.0, 400.0),
                                  (0.16, 400.0), (1e-80, 4.0)])
def test_lp_norms_out_of_the_plain_sums_range_scale_out_their_max(grid32, c, p):
    # 1e80^4 overflows the sum of w |f|^p and 0.1^400 underflows it to 0;
    # 0.16^400 and 1e-80^4 leave a subnormal sum, short of digits. The norm
    # is |c| (sum w)^(1/p) all the same, with no warning
    mag = np.abs(np.full((2,) + grid32.shape, c))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lp_norms(mag, grid32, p)
        one = lp_norm(ScalarField(grid32, mag[0]), p)
    want = abs(c) * np.sum(grid32.weights) ** (1.0 / p)
    assert np.all(np.abs(got / want - 1.0) <= 1e-14), (got, want)
    assert one == got[0]


def test_lp_norms_of_a_zero_field_is_zero_and_the_other_indices_keep_their_bits(grid32):
    vals = np.stack([np.zeros(grid32.shape), smooth_vorticity(grid32).values,
                     np.full(grid32.shape, 1e200)])
    mag = np.abs(vals)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lp_norms(mag, grid32, 3.0)
    assert got[0] == 0.0
    assert got[1] == np.sum(grid32.weights * mag[1] ** 3.0) ** (1.0 / 3.0)
    assert np.isfinite(got[2]) and got[2] > 1e200
    assert lp_norms(np.zeros((3,) + grid32.shape), grid32, 2.0).tolist() == [0.0] * 3


def test_lp_norm_refuses_a_stack_and_points_to_lp_norms(grid32):
    # a stack, even of one, is refused by name instead of failing inside
    # float(); lp_norms is the stack path
    ones = np.ones((1,) + grid32.shape)
    for f in (ScalarField(grid32, ones), VectorField(grid32, ones, ones),
              ScalarField(grid32, np.ones((2, 3) + grid32.shape))):
        shape = (f.values if isinstance(f, ScalarField) else f.u_r).shape
        with pytest.raises(ValueError, match=rf"shape \({', '.join(map(str, shape))}\).*lp_norms"):
            lp_norm(f, 2.0)


# ---------------------------------------------------------------------------
# boundary extrapolation
# ---------------------------------------------------------------------------

def test_boundary_values_exact_on_radial_quadratics(grid32):
    r = grid32.r_col
    vals = np.broadcast_to(1.0 - 2.0 * r + 3.0 * r ** 2, grid32.shape).copy()
    tr = boundary_values(vals)
    assert np.max(np.abs(tr - 2.0)) < 1e-12  # 1 - 2 + 3 at r = 1


def test_boundary_tangential_velocity_rigid_rotation(grid32):
    # psi = (r^2 - 1)/2 generates u_theta = r, so the wall slip d_r psi is 1.
    psi = np.broadcast_to((grid32.r_col ** 2 - 1.0) / 2.0, grid32.shape)
    assert np.max(np.abs(wall_derivative(psi, grid32) - 1.0)) < 1e-12
    # leading axes pass through
    stacked = np.stack([psi, 2.0 * psi])
    assert np.max(np.abs(wall_derivative(stacked, grid32) - [[1.0], [2.0]])) < 1e-12


# ---------------------------------------------------------------------------
# dealiasing
# ---------------------------------------------------------------------------

def test_dealias_zeroes_high_modes_keeps_low(grid32):
    n = grid32.n_theta
    th = grid32.theta[None, :]
    low = np.broadcast_to(np.cos(3 * th), grid32.shape)
    high = np.broadcast_to(np.cos((n // 2 - 1) * th), grid32.shape)
    modes = to_modes(np.stack([low, high]))
    assert dealias_modes(modes, n) is modes     # filters in place
    assert np.allclose(from_modes(modes[0], n), low, atol=1e-13)
    assert np.max(np.abs(from_modes(modes[1], n))) < 1e-13


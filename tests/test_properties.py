"""Property-based tests of exact identities: the forked split diagnose
walk against one pass over the whole run, a trajectory's save and load,
a config's dict and pickle round trips, the field kernels on functions
they differentiate or extrapolate exactly, the L^p norms under scaling by
powers of two, and the ADN complementing check against the root count.

Every property runs under one settings profile, derandomized and without
an example database, so Tier-1 sees the same examples on every run. The
strategies bound the grids to 4-32 rings and 2-64 angles, and draw no
run longer than 21 steps, so that no example allocates or runs without
bound. A bound on roundoff is stated and derived in its test's
docstring, with u = 2^-53 the unit roundoff.
"""

import math
import pickle
import tempfile
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from slipdisk import (SimConfig, Trajectory, complementing_check, disk_boundary,
                      load_problem, principal_parts, roots_positive_imag, simulate)
from slipdisk.adn import ComplementingVerdict, DegenerateConfigurationError
from slipdisk.field import (boundary_values, lp_norms, radial_derivative,
                            theta_derivative, wall_derivative)
from slipdisk.geometry import build_grid

from conftest import BUMP_IC
from test_adn import _RECORDED, _TILTED_BITSADZE
from test_diagnostics import check_split_walk_is_one_pass

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=25)
U = 2.0 ** -53

FINITE = st.floats(allow_nan=False, allow_infinity=False)
N_THETA = st.integers(1, 8).map(lambda half: 2 * half)


@lru_cache(maxsize=None)
def _run(n_r: int, n_theta: int) -> Trajectory:
    """The README bump at n_r x n_theta, one snapshot per step of 0.005
    to t = 0.1: 21 snapshots."""
    return simulate(SimConfig(nu=0.02, t_end=0.1, dt=0.005, initial_condition=BUMP_IC,
                              alpha=1.0, n_r=n_r, n_theta=n_theta, output_stride=1))


@PROFILE
@given(n_r=st.integers(8, 16), n_theta=st.integers(4, 8).map(lambda half: 2 * half),
       data=st.data())
def test_forked_split_walk_equals_one_pass_over_the_run(n_r, n_theta, data):
    run = _run(n_r, n_theta)
    n = data.draw(st.integers(2, len(run.times)), label="snapshots")
    start = data.draw(st.integers(0, len(run.times) - n), label="first snapshot")
    traj = replace(run, times=run.times[start:start + n], omega=run.omega[start:start + n])
    with pytest.MonkeyPatch.context() as monkeypatch:
        check_split_walk_is_one_pass(monkeypatch, traj)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


@st.composite
def trajectories(draw) -> Trajectory:
    """A config on a drawn grid and lp exponents, with drawn finite times
    (strictly increasing), vorticity and series over the whole float range."""
    config = SimConfig(nu=0.1, t_end=1.0, initial_condition={"const": 0.0},
                       n_r=draw(st.integers(4, 16)), n_theta=draw(N_THETA),
                       lp_exponents=draw(st.lists(st.floats(min_value=1.0, allow_infinity=False),
                                                  max_size=3, unique=True)))
    times = np.array(sorted(draw(st.lists(FINITE, min_size=1, max_size=4, unique=True))))
    omega = draw(arrays(np.float64, (len(times),) + config.grid.shape, elements=FINITE))
    steps = draw(st.integers(1, 5))
    columns = Trajectory(config, times, omega, {}).series_columns()
    series = {c: draw(arrays(np.float64, steps, elements=FINITE)) for c in columns}
    return Trajectory(config, times, omega, series)


@PROFILE
@given(traj=trajectories())
def test_save_then_load_keeps_every_array_bitwise(traj):
    with tempfile.TemporaryDirectory() as run_dir:
        traj.save(run_dir)
        again = Trajectory.load(run_dir)
    assert again.config == traj.config
    assert _hex(again.times) == _hex(traj.times)
    assert again.omega.shape == traj.omega.shape and _hex(again.omega) == _hex(traj.omega)
    assert list(again.series) == list(traj.series)
    for column, values in traj.series.items():
        assert _hex(again.series[column]) == _hex(values), column


@st.composite
def configs(draw) -> SimConfig:
    """A SimConfig over the whole float range where its rules allow it; a
    bump meets the disk, and alpha and modes stay where their samples are
    finite."""
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    initial = draw(st.one_of(
        st.builds(lambda c: {"const": c}, FINITE),
        st.builds(lambda x, y, radius, amplitude: {"bump": {
            "center": [x, y], "radius": radius, "amplitude": amplitude}},
            st.floats(-0.7, 0.7), st.floats(-0.7, 0.7), st.floats(1.5e-154, 1e3), FINITE),
        st.builds(lambda k, coeffs: {"modes": [[k, coeffs]]},
                  st.integers(0, 8), st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3))))
    alpha = draw(st.one_of(
        st.floats(-1e6, 1e6),
        st.builds(lambda k, a, b: {"fourier": [[k, a, b]]},
                  st.integers(1, 8), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))))
    tol = draw(st.dictionaries(st.sampled_from(["navier", "weakform", "balance"]),
                               st.floats(min_value=0.0, allow_infinity=False)))
    return SimConfig(
        nu=draw(st.floats(min_value=0.0, allow_infinity=False)), t_end=draw(positive),
        initial_condition=initial, alpha=alpha, dt=draw(st.one_of(st.just("auto"), positive)),
        n_r=draw(st.integers(4, 16)), n_theta=draw(N_THETA),
        output_stride=draw(st.integers(1, 1000)),
        lp_exponents=tuple(draw(st.lists(st.floats(min_value=1.0, allow_infinity=False),
                                         max_size=3, unique=True))),
        tol=tol)


@PROFILE
@given(config=configs())
def test_config_survives_its_dict_and_a_pickle(config):
    for again in (SimConfig.from_dict(config.to_dict()), pickle.loads(pickle.dumps(config))):
        assert again == config
        assert again.grid == config.grid
        assert again.omega0.tobytes() == config.omega0.tobytes()
        assert not again.omega0.flags.writeable


@PROFILE
@given(n_r=st.integers(4, 16), n_theta=N_THETA, data=st.data(), k=st.integers(-960, 960))
def test_lp_norms_scale_with_a_power_of_two(n_r, n_theta, data, k):
    """lp_norms(c w) = c lp_norms(w) for c = 2^k and p in 1, 2, 4, 7.5,
    400 and inf, to the bound below.

    The entries of w are m 2^e with m in [0.5, 1) or 0 and |e| <= 40, so
    with |k| <= 960 every c w and c lp_norms(w) is a normal float and
    scaling by c is exact. The norm of a grid of N = n_r n_theta nodes is
    (sum w_i m_i^p)^q with q = fl(1/p) = (1 + eps)/p, |eps| <= u; both
    calls compute it the same way, and each lands within rho of the exact
    norm S^(1/p):
    - a term carries 3u (pow and the weight product) and, where it falls
      below the normal floats, an absolute 2^-1074, at most 2u S because
      a plain sum is used only when it is a normal float;
    - a sum of N non-negative terms adds (N - 1)u in any order, so the
      sum is within (3N + 2)u, which the power divides by p;
    - the power adds 2u, the scaled path's product by the max another u;
    - q in place of 1/p moves the result by |eps ln S| / p <= 709u / p
      for a sum in the normal range, and for the scaled path's sum of
      at most pi and at least the smallest weight, by less;
    so rho = ((3N + 711) / p + 3)u and the two sides differ by at most
    2 rho relative. p = inf is the max, which scaling keeps exactly.
    """
    n = n_r * n_theta
    mantissa = data.draw(arrays(np.float64, n, elements=st.one_of(
        st.just(0.0), st.floats(0.5, 1.0, exclude_max=True))), label="mantissa")
    exponent = data.draw(arrays(np.int64, n, elements=st.integers(-40, 40)), label="exponent")
    mag = np.ldexp(mantissa, exponent).reshape(1, n_r, n_theta)
    grid = build_grid(n_r, n_theta)
    c = math.ldexp(1.0, k)
    for p in (1.0, 2.0, 4.0, 7.5, 400.0, np.inf):
        got, want = lp_norms(c * mag, grid, p)[0], c * lp_norms(mag, grid, p)[0]
        rho = 0.0 if np.isinf(p) else ((3 * n + 711) / p + 3) * U
        assert abs(got - want) <= 2 * rho * want, (p, got, want)


@PROFILE
@given(n_theta=st.integers(1, 32).map(lambda half: 2 * half), data=st.data())
def test_theta_derivative_is_exact_below_nyquist(n_theta, data):
    """theta_derivative of f = sum_k a_k cos(k theta) + b_k sin(k theta),
    k < n_theta / 2, is f' at the grid angles to the bound tau below.

    With n = n_theta, K the top frequency, A = sum |a_k| + |b_k| >= max |f|
    and the exact spectral matrix's entries at most cot(pi / n) / 2 <=
    n / (2 pi):
    - theta_matrix is an rfft/irfft round trip of unit rows; an FFT of
      length n has relative 2-norm error at most 7 log2(n) u (Higham,
      Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 24.2,
      twiddles to u), so through the ik scaling (at most n / 2) and the
      1 / n of the inverse each entry is within n (7 log2(n) + 3)u, which
      n samples of size at most A turn into n^2 A (7 log2(n) + 3)u;
    - the product adds n u sum_i |v_i| |D_ij| <= n^3 A u / (2 pi);
    - the computed angles 2 pi j / n are within 6 pi u of the exact ones
      and k theta within 8 pi K u, so with cos and sin to 2u and the
      products and the sum over k, each sample is within
      A (8 pi K + K + 3)u of f at its exact angle, which the matrix maps
      to at most n^2 A (5K + 1)u, and the reference f' is within
      K A ((8 pi + 1)K + 4)u;
    so tau = A u (n^2 (7 log2(n) + 4 + n / (2 pi) + 5K)
    + K ((8 pi + 1)K + 4)).
    """
    top = data.draw(st.integers(0, n_theta // 2 - 1), label="top frequency")
    coeffs = st.floats(-1e3, 1e3)
    a = np.array(data.draw(st.lists(coeffs, min_size=top + 1, max_size=top + 1), label="a"))
    b = np.array(data.draw(st.lists(coeffs, min_size=top + 1, max_size=top + 1), label="b"))
    b[0] = 0.0
    k = np.arange(top + 1)[:, None]
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    f = (a[:, None] * np.cos(k * theta) + b[:, None] * np.sin(k * theta)).sum(axis=0)
    df = (k * (b[:, None] * np.cos(k * theta) - a[:, None] * np.sin(k * theta))).sum(axis=0)
    amplitude = np.abs(a).sum() + np.abs(b).sum()
    tau = amplitude * U * (n_theta ** 2 * (7 * math.log2(n_theta) + 4 + n_theta / (2 * np.pi)
                                           + 5 * top) + top * ((8 * np.pi + 1) * top + 4))
    assert np.abs(theta_derivative(f[None]) - df).max() <= tau


@st.composite
def radial_quadratics(draw):
    """A grid of 4-32 rings and 2-16 angles, and in each angle's column a
    quadratic a + b r + c r^2 with coefficients in [-1e3, 1e3], sampled
    at the grid's nodes; with M = |a| + |b| + |c| per column.

    A node value a + r (b + r c) is within 4u M of the quadratic at the
    computed radius, and the radius ((i - 1/2) dr, dr rounded) within 2u
    of the exact node, which moves the value by at most |f'| 2u <= 4u M:
    each node value is within 8u M."""
    grid = build_grid(draw(st.integers(4, 32)), draw(N_THETA))
    a, b, c = (draw(arrays(np.float64, grid.n_theta, elements=st.floats(-1e3, 1e3)))
               for _ in range(3))
    r = grid.r_col
    return grid, a, b, c, a + r * (b + r * c), np.abs(a) + np.abs(b) + np.abs(c)


@PROFILE
@given(quadratic=radial_quadratics())
def test_wall_trace_and_derivative_are_exact_on_radial_quadratics(quadratic):
    """boundary_values and wall_derivative take a + b + c and b + 2c at
    r = 1 from the last three rings, exactly for quadratics in r.

    boundary_values weighs three node values, each within 8u M,
    by 15/8, 10/8 and 3/8 (sum 3.5) and rounds three products and two
    sums (3.5 M 3u); the reference a + b + c rounds twice: 41u M in all.
    wall_derivative weighs them by 2, 3 and 1 (sum 6) and rounds 6 M 3u,
    which dividing by dr = 1 / n_r scales by n_r; the rounded dr and the
    division add 2u to a result of at most 2 M, and the reference b + 2c
    2u M: (66 n_r + 6)u M.
    """
    grid, a, b, c, f, size = quadratic
    assert np.all(np.abs(boundary_values(f) - (a + b + c)) <= 41 * U * size)
    assert np.all(np.abs(wall_derivative(f, grid) - (b + 2 * c))
                  <= (66 * grid.n_r + 6) * U * size)


@PROFILE
@given(quadratic=radial_quadratics())
def test_radial_derivative_is_exact_on_radial_quadratics_off_the_pole_row(quadratic):
    """radial_derivative is b + 2 c r on every ring but the pole row, whose
    parity ghost is exact only for even functions of r.

    Its stencils, (v_i+1 - v_i-1) / (2 dr) inside and
    (4 v_n - 7 v_n-1 + 4 v_n-2 - v_n-3) / (2 dr) at the last ring, are
    exact for quadratics. The outer one weighs four node values, each
    within 8u M, by weights of sum 16, and rounds its products
    and sums (16 M 4u): 192u M, which 1 / (2 dr) scales by n_r / 2; the
    interior one is smaller. The rounded 2 dr and the division add 2u to
    a result of at most 2 M. The reference b + 2 c r rounds twice (4u M)
    at the computed radius, within 2u of the node, where f' = b + 2 c r
    differs by at most 4u M: (96 n_r + 12)u M.
    """
    grid, a, b, c, f, size = quadratic
    got = radial_derivative(f, grid)[1:]
    want = b + 2.0 * c * grid.r_col[1:]
    assert np.all(np.abs(got - want) <= (96 * grid.n_r + 12) * U * size)


CHAIN_PROBLEMS = {**_RECORDED, "tilted_bitsadze": _TILTED_BITSADZE}


@PROFILE
@given(key=st.sampled_from(sorted(CHAIN_PROBLEMS)),
       theta=st.floats(0.0, 2.0 * np.pi, exclude_max=True),
       scale=st.floats(1e-3, 1e3), sign=st.sampled_from([1.0, -1.0]))
def test_complementing_check_fails_exactly_where_the_root_count_does(key, theta, scale,
                                                                     sign):
    """complementing_check(problem, point, c tau) is check_all's chain on
    one sample, so it does what roots_positive_imag on the same pencil
    implies: it raises DegenerateConfigurationError exactly when that
    does, the ValueError naming k exactly when that finds k != m stable
    roots, and otherwise returns a verdict. The tilted Bitsadze system's
    stable root count is 0, 1 or 2 across the samples. The scalings stay
    within 1e-3..1e3 of the unit tangent: the checker's dependence on the
    units of L and B is a separate open defect, and this property is
    about the chain, not about scale."""
    problem = CHAIN_PROBLEMS[key]
    if isinstance(problem, dict):
        problem = load_problem(problem)
    point = disk_boundary(theta)
    xi = sign * scale * np.asarray(point.tau)
    try:
        roots = roots_positive_imag(principal_parts(problem)[0], point, xi, point.n)
    except DegenerateConfigurationError:
        with pytest.raises(DegenerateConfigurationError):
            complementing_check(problem, point, xi)
        return
    if len(roots) != problem.m:
        with pytest.raises(ValueError, match=f"^{len(roots)} stable pencil roots for "
                                             f"half-order m={problem.m} "):
            complementing_check(problem, point, xi)
    else:
        assert isinstance(complementing_check(problem, point, xi), ComplementingVerdict)

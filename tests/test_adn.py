"""Ellipticity checker for weighted boundary value systems.

The polynomial kernels, which act on complex coefficient arrays (the
polyc and matpolyc tests: single polynomials and polynomial matrices),
are tested against algebraic invariants (division, adjugate identity,
root recovery); the checker itself against the velocity Laplacian with
slip rows, whose pencil algebra has closed forms: the pencil is
(sigma^2 + |xi|^2) I, the stable root i|xi| is double, and the boundary
remainders modulo the stable factor are 2k(k + i sigma) n and
2ik^2 (k + i sigma) tau for |xi| = k.  Negative controls (a degenerate
diagonal operator, duplicated boundary rows) must fail with meaningful
witnesses.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from slipdisk import (
    check_all,
    check_ellipticity,
    complementing_check,
    disk_boundary,
    load_problem,
    navier_laplacian_problem,
    principal_parts,
    roots_positive_imag,
)
from slipdisk import adn
from slipdisk.adn import (DegenerateConfigurationError, _adjugate, _degrees, _det,
                          _matmul, _monic, _polydiv, _polymul, _root_table,
                          _upper_roots, _xi_scalings)

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# polynomial kernels
# ---------------------------------------------------------------------------

def test_polyc_arithmetic_and_eval():
    p = np.array([1.0, 2.0, 1.0], dtype=complex)     # (1 + sigma)^2
    q = _monic(np.array([-1.0, -1.0]))
    assert np.allclose(p, q)
    assert _degrees(p) == 2
    assert _degrees(p - q) == -1
    assert _degrees(_polymul(p, np.zeros(1))) == -1
    assert _degrees(np.ones(1)) == 0
    assert _degrees(np.zeros(1)) == -1
    # (1 + sigma)^2 (1 - sigma) at sigma = i
    prod = _polymul(p, np.array([1.0, -1.0]))
    assert abs(np.polynomial.polynomial.polyval(1j, prod)
               - (1 + 1j) ** 2 * (1 - 1j)) < 1e-14


def test_polyc_trims_relative_noise():
    assert _degrees(np.array([1.0, 1e-15, 1.0])) == 2   # tiny middle term stays
    assert _degrees(np.array([1.0, 0.0, 1e-16])) == 0   # tiny LEADING term trims away
    # per polynomial along leading axes, each relative to its own scale
    batch = np.array([[1e-20, 1e-33, 0.0], [0.0, 0.0, 0.0], [3.0, 1e-13, 1e-11]])
    assert _degrees(batch).tolist() == [0, -1, 2]


def test_polyc_divmod_invariant():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        quot, rem = _polydiv(a, d)
        recon = _polymul(quot, d)
        recon[:rem.size] += rem
        assert _degrees(rem) < _degrees(d)
        err = np.max(np.abs(recon - a))
        assert err < 1e-11, err


def _table_rows(c):
    """_root_table of the rows of c as one array per row: the values up
    to the row's count, real where no companion matrix was solved, the
    dtype np.roots gives."""
    roots, count, solved = _root_table(c)
    return [r[:n] if ok else r[:n].real for r, n, ok in zip(roots, count, solved)]


def test_polyc_roots_recovered():
    wanted = [1j, 2j, (-1 + 1j) / 2]
    p = _monic(np.array(wanted))
    (got,) = _table_rows(p[None])
    got = sorted(got, key=lambda z: (z.real, z.imag))
    for g, w in zip(got, sorted(wanted, key=lambda z: (z.real, z.imag))):
        assert abs(g - w) < 1e-12


def test_matpolyc_det_and_adjugate_identity():
    # one (3, 3, K) matrix without sample axes, the per-sample layout
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    det = _det(a)
    prod = _matmul(a, _adjugate(a))
    # A adj(A) = det(A) I
    want = np.eye(3)[:, :, None] * det
    assert prod.shape == want.shape
    assert np.abs(prod - want).max() < 1e-12 * max(np.abs(det).max(), 1.0)


def test_batched_det_and_adjugate_hold_for_every_sample():
    # A adj(A) = det(A) I per sample, and det agrees with the numeric
    # determinant of A(sigma) at sample points of sigma
    rng = np.random.default_rng(8)
    a = rng.standard_normal((6, 3, 3, 3)) + 1j * rng.standard_normal((6, 3, 3, 3))
    det, adj = _det(a), _adjugate(a)
    prod = _matmul(a, adj)
    for s in range(6):
        scale = np.abs(det[s]).max()
        want = np.eye(3)[:, :, None] * det[s]
        assert np.abs(prod[s] - want).max() < 1e-12 * scale, s
        for sigma in (0.3, -1.1 + 0.5j):
            numeric = np.linalg.det(np.polynomial.polynomial.polyval(
                sigma, np.moveaxis(a[s], -1, 0)))
            got = np.polynomial.polynomial.polyval(sigma, det[s])
            assert abs(got - numeric) < 1e-12 * max(1.0, abs(numeric)), s


def test_batched_roots_equal_np_roots_per_sample():
    rng = np.random.default_rng(9)
    polys = np.zeros((7, 6), dtype=complex)
    polys[0, :4] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    polys[1] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    polys[2, 1:5] = rng.standard_normal(4)            # zero constant term
    polys[3, 2:4] = [2.0, 1.0j]                       # two zero low-order terms
    polys[4, :3] = [1.0, 0.5, 2.0]
    polys[4, 5] = 1e-16                               # trimmed leading term
    polys[5, 0] = 3.0                                 # constant
    # polys[6] is the zero polynomial
    got = _table_rows(polys)
    for s in range(len(polys)):
        want = np.roots(polys[s, :_degrees(polys[s]) + 1][::-1])
        assert got[s].dtype == want.dtype and np.array_equal(got[s], want), s


def test_matpolyc_adjugate_one_by_one():
    adj = _adjugate(np.array([[[3.0, 1.0]]], dtype=complex))
    assert adj.shape == (1, 1, 1)
    assert np.allclose(adj[0, 0], [1.0])


def test_scalar_pencil_is_self_adjugate():
    # (sigma^2 + k^2) I2 has adjugate (sigma^2 + k^2) I2
    k = 1.5
    p = np.array([k ** 2, 0.0, 1.0], dtype=complex)
    a = np.eye(2)[:, :, None] * p
    adj = _adjugate(a)
    assert np.allclose(adj[0, 0], p)
    assert _degrees(adj[0, 1]) == -1
    assert np.allclose(_det(a), _polymul(p, p))


# ---------------------------------------------------------------------------
# principal parts of the slip problem
# ---------------------------------------------------------------------------

def test_pencil_closed_form_every_angle():
    # L(xi + sigma n) = (sigma^2 + |xi|^2) I2 for unit n orthogonal to xi
    problem = navier_laplacian_problem(1.0)
    lp, _ = principal_parts(problem)
    k = 1.3
    want = np.eye(2)[:, :, None] * np.array([k ** 2, 0.0, 1.0])
    for theta in np.linspace(0.0, 2 * np.pi, 16, endpoint=False):
        point = disk_boundary(float(theta))
        xi = k * np.asarray(point.tau)
        pencil = lp(point, xi, point.n)
        assert pencil.shape == want.shape
        assert np.abs(pencil - want).max() < 1e-14


def test_boundary_pencil_closed_form():
    # rows n^T and sigma tau^T: the zeroth-order slip term drops from the
    # principal part, so the pencil is alpha-independent
    for alpha in (0.0, 7.0):
        problem = navier_laplacian_problem(alpha)
        _, bp = principal_parts(problem)
        point = disk_boundary(0.7)
        xi = 2.0 * np.asarray(point.tau)
        b = bp(point, xi, point.n)
        for j in range(2):
            assert np.allclose(b[0, j], [point.n[j], 0.0])
            assert np.allclose(b[1, j], [0.0, point.tau[j]], atol=1e-15)


def test_numeric_symbol_matches_pencil_at_sigma_zero():
    problem = navier_laplacian_problem(0.0)
    lp, _ = principal_parts(problem)
    point = disk_boundary(1.1)
    xi = np.array([0.3, -0.4])
    numeric = lp(point, xi)
    pencil = lp(point, xi, point.n)
    assert np.allclose(numeric, pencil[..., 0])


def test_degree_bookkeeping_violations_are_named():
    problem = navier_laplacian_problem(0.0)
    with pytest.raises(ValueError, match=r"L entry \(1,1\).*order 3"):
        problem.__class__(M=2, L_coeffs=((0, 0, (3, 0), 1.0),),
                          B_coeffs=problem.B_coeffs, s=problem.s,
                          t=problem.t, r=problem.r)
    with pytest.raises(ValueError, match=r"B entry \(2,1\)"):
        problem.__class__(M=2, L_coeffs=problem.L_coeffs,
                          B_coeffs=((1, 0, (2, 0), 1.0),), s=problem.s,
                          t=problem.t, r=problem.r)


# ---------------------------------------------------------------------------
# roots of the pencil
# ---------------------------------------------------------------------------

def test_double_root_at_i_xi():
    problem = navier_laplacian_problem(1.0)
    lp, _ = principal_parts(problem)
    for theta in (0.0, 0.9, 2.2):
        point = disk_boundary(theta)
        for c in (0.5, -1.0, 2.0):
            xi = c * np.asarray(point.tau)
            roots = roots_positive_imag(lp, point, xi, point.n)
            assert len(roots) == 2
            for z in roots:
                assert abs(z - 1j * abs(c)) < 1e-9


def test_roots_reject_parallel_directions():
    problem = navier_laplacian_problem(0.0)
    lp, _ = principal_parts(problem)
    point = disk_boundary(0.3)
    xi = np.asarray(point.tau)
    with pytest.raises(ValueError, match="linearly independent"):
        roots_positive_imag(lp, point, xi, 2.0 * xi)


def test_real_axis_root_raises_degenerate():
    # d_11^2 alone: pencil det (xi_1 + sigma n_1)^2 ... pick the angle
    # where a root lands on the real axis
    problem = load_problem({
        "M": 1, "s": [0], "t": [2], "r": [-2],
        "L": [{"i": 1, "j": 1, "mi": [2, 0], "c": 1},
              {"i": 1, "j": 1, "mi": [0, 2], "c": -1}],
        "B": [{"i": 1, "j": 1, "mi": [0, 0], "c": 1}],
        "name": "wave"})
    lp, _ = principal_parts(problem)
    point = disk_boundary(0.0)   # n = (1, 0), tau = (0, 1)
    # det = (xi + sigma n)_1^2 - (xi + sigma n)_2^2 = sigma^2 - xi_2^2 for
    # xi along tau: real roots
    with pytest.raises(DegenerateConfigurationError):
        roots_positive_imag(lp, point, np.asarray(point.tau), point.n)


# ---------------------------------------------------------------------------
# ellipticity determinant conditions
# ---------------------------------------------------------------------------

def _sphere(count):
    return [(np.cos(p), np.sin(p))
            for p in np.linspace(0.0, 2 * np.pi, count, endpoint=False)]


def _points(count):
    return [disk_boundary(float(a))
            for a in np.linspace(0.0, 2 * np.pi, count, endpoint=False)]


def test_ellipticity_constants_identity_laplacian():
    report = check_ellipticity(navier_laplacian_problem(0.0), _points(8), _sphere(8))
    assert report.verdicts["ellipticity"]
    assert report.verdicts["uniform_ellipticity"]
    assert abs(report.ellipticity_min - 1.0) < 1e-12
    assert abs(report.ellipticity_max - 1.0) < 1e-12
    assert report.m == 2


def test_ellipticity_constants_scaled_laplacian():
    data = {"M": 2, "s": [0, 0], "t": [2, 2], "r": [-2, -1],
            "L": [{"i": i, "j": i, "mi": mi, "c": 3}
                  for i in (1, 2) for mi in ([2, 0], [0, 2])],
            "B": [{"i": 1, "j": 1, "mi": [0, 0], "c": "n1"},
                  {"i": 1, "j": 2, "mi": [0, 0], "c": "n2"},
                  {"i": 2, "j": 1, "mi": [1, 0], "c": "n1*tau1"},
                  {"i": 2, "j": 2, "mi": [1, 0], "c": "n1*tau2"},
                  {"i": 2, "j": 1, "mi": [0, 1], "c": "n2*tau1"},
                  {"i": 2, "j": 2, "mi": [0, 1], "c": "n2*tau2"}]}
    report = check_ellipticity(load_problem(data), _points(8), _sphere(8))
    assert abs(report.ellipticity_min - 9.0) < 1e-12
    assert abs(report.ellipticity_max - 9.0) < 1e-12


def test_check_ellipticity_builds_one_symbol_batch(monkeypatch):
    # the half-order comes from the weights, so the determinant check
    # builds one batch, the numeric symbols as pencils along xi' = 0
    calls, principal_array = [], adn._principal_array

    def counting(problem, boundary, points, xi, xi_prime):
        calls.append((boundary, np.asarray(xi_prime)))
        return principal_array(problem, boundary, points, xi, xi_prime)

    monkeypatch.setattr(adn, "_principal_array", counting)
    report = check_ellipticity(navier_laplacian_problem(0.0), _points(8), _sphere(8))
    assert len(calls) == 1
    boundary, xi_prime = calls[0]
    assert not boundary and not xi_prime.any()
    assert report.m == 2


def test_check_ellipticity_needs_an_x_and_a_xi_sample():
    problem = navier_laplacian_problem(0.0)
    for points, xi in (([], _sphere(8)), (_points(8), [])):
        with pytest.raises(ValueError, match="at least one x sample and one xi sample"):
            check_ellipticity(problem, points, xi)


def test_degenerate_diagonal_fails_with_witness():
    # L = diag(d_1^2, d_2^2) vanishes at xi = (1, 0): not elliptic
    data = {"M": 2, "s": [0, 0], "t": [2, 2], "r": [-2, -2],
            "L": [{"i": 1, "j": 1, "mi": [2, 0], "c": 1},
                  {"i": 2, "j": 2, "mi": [0, 2], "c": 1}],
            "B": [{"i": 1, "j": 1, "mi": [0, 0], "c": 1},
                  {"i": 2, "j": 2, "mi": [0, 0], "c": 1}]}
    xi_samples = [(1.0, 0.0), (0.6, 0.8)]
    report = check_ellipticity(load_problem(data), _points(8), xi_samples)
    assert not report.verdicts["ellipticity"]
    w = report.witnesses["ellipticity"]
    assert abs(w["xi"][0] - 1.0) < 1e-12 and abs(w["xi"][1]) < 1e-12
    assert w["det"] < 1e-10


# ---------------------------------------------------------------------------
# complementing condition
# ---------------------------------------------------------------------------

def test_complementing_passes_for_slip_rows():
    problem = navier_laplacian_problem(1.0)
    for theta in np.linspace(0.0, 2 * np.pi, 8, endpoint=False):
        point = disk_boundary(float(theta))
        verdict = complementing_check(problem, point, 1.5 * np.asarray(point.tau))
        assert verdict.passed
        assert verdict.singular_ratio > 1e-3


def test_complementing_remainders_match_hand_reduction():
    # Dirichlet rows B = I2: remainder of (sigma^2 + k^2) mod
    # (sigma - ik)^2 is 2k^2 + 2ik sigma, so the stacked rows are
    # 2k(k + i sigma) e_j -- independent, and the check passes.
    data = {"M": 2, "s": [0, 0], "t": [2, 2], "r": [-2, -2],
            "L": [{"i": i, "j": i, "mi": mi, "c": 1}
                  for i in (1, 2) for mi in ([2, 0], [0, 2])],
            "B": [{"i": 1, "j": 1, "mi": [0, 0], "c": 1},
                  {"i": 2, "j": 2, "mi": [0, 0], "c": 1}],
            "name": "dirichlet"}
    problem = load_problem(data)
    lp, bp = principal_parts(problem)
    point = disk_boundary(0.4)
    k = 2.0
    xi = k * np.asarray(point.tau)
    m_plus = _monic(np.array(roots_positive_imag(lp, point, xi, point.n)))
    product = _matmul(bp(point, xi, point.n), _adjugate(lp(point, xi, point.n)))
    _, rem = _polydiv(product, m_plus)
    want = np.array([2.0 * k ** 2, 2.0j * k])
    for j in range(2):
        assert np.max(np.abs(rem[j, j] - want)) < 1e-12
        assert _degrees(rem[j, 1 - j]) == -1
    assert complementing_check(problem, point, xi).passed


def test_duplicated_rows_fail_with_witness():
    # both boundary rows the normal trace: rank drops, witness (1, -1)
    data = {"M": 2, "s": [0, 0], "t": [2, 2], "r": [-2, -2],
            "L": [{"i": i, "j": i, "mi": mi, "c": 1}
                  for i in (1, 2) for mi in ([2, 0], [0, 2])],
            "B": [{"i": 1, "j": 1, "mi": [0, 0], "c": "n1"},
                  {"i": 1, "j": 2, "mi": [0, 0], "c": "n2"},
                  {"i": 2, "j": 1, "mi": [0, 0], "c": "n1"},
                  {"i": 2, "j": 2, "mi": [0, 0], "c": "n2"}]}
    problem = load_problem(data)
    point = disk_boundary(0.9)
    verdict = complementing_check(problem, point, np.asarray(point.tau))
    assert not verdict.passed
    w = np.asarray(verdict.witness)
    assert abs(w[0] - 1.0) < 1e-8 and abs(w[1] + 1.0) < 1e-8


def test_slip_row_without_its_first_order_terms_fails_complementing():
    # the slip row's principal part is its first-order terms; without them
    # the row vanishes, and the witness is that row alone
    problem = navier_laplacian_problem(1.0)
    problem = replace(problem, B_coeffs=tuple(b for b in problem.B_coeffs
                                              if sum(b[2]) == 0))
    report = check_all(problem, 8, 8)
    assert not report.verdicts["complementing"]
    witness = report.witnesses["complementing"]
    assert witness["combination"] == (0.0, 1.0)
    assert witness["singular_ratio"] == 0.0


def test_complementing_preconditions():
    problem = navier_laplacian_problem(0.0)
    point = disk_boundary(0.2)
    with pytest.raises(ValueError, match="nonzero"):
        complementing_check(problem, point, np.zeros(2))
    with pytest.raises(ValueError, match="orthogonal"):
        complementing_check(problem, point, np.asarray(point.n))


# ---------------------------------------------------------------------------
# the full verdict
# ---------------------------------------------------------------------------

def test_check_all_passes_slip_problem_for_each_alpha():
    for alpha in (0.0, 5.0, {"fourier": [[0, 1.0, 0.0], [1, 1.0, 0.0]]}):
        report = check_all(navier_laplacian_problem(alpha))
        assert report.passed, alpha
        assert report.verdicts == {"ellipticity": True,
                                   "uniform_ellipticity": True,
                                   "supplementary": True,
                                   "complementing": True}
        assert report.m == 2
        assert report.sample_counts["pencil"] == 32 * 8


_LAPLACE_ROWS = [{"i": i, "j": i, "mi": mi, "c": 1}
                 for i in (1, 2) for mi in ([2, 0], [0, 2])]
_RECORDED = {
    "navier_laplacian_alpha1": navier_laplacian_problem(1.0),
    "wave": {"M": 1, "s": [0], "t": [2], "r": [-2],
             "L": [{"i": 1, "j": 1, "mi": [2, 0], "c": 1},
                   {"i": 1, "j": 1, "mi": [0, 2], "c": -1}],
             "B": [{"i": 1, "j": 1, "mi": [0, 0], "c": 1}], "name": "wave"},
    "duplicated_rows": {"M": 2, "s": [0, 0], "t": [2, 2], "r": [-2, -2],
                        "L": _LAPLACE_ROWS,
                        "B": [{"i": 1, "j": 1, "mi": [0, 0], "c": "n1"},
                              {"i": 1, "j": 2, "mi": [0, 0], "c": "n2"},
                              {"i": 2, "j": 1, "mi": [0, 0], "c": "n1"},
                              {"i": 2, "j": 2, "mi": [0, 0], "c": "n2"}],
                        "name": "duplicated_rows"},
    "degenerate_diagonal": {"M": 2, "s": [0, 0], "t": [2, 2], "r": [-2, -2],
                            "L": [{"i": 1, "j": 1, "mi": [2, 0], "c": 1},
                                  {"i": 2, "j": 2, "mi": [0, 2], "c": 1}],
                            "B": [{"i": 1, "j": 1, "mi": [0, 0], "c": 1},
                                  {"i": 2, "j": 2, "mi": [0, 0], "c": 1}],
                            "name": "degenerate_diagonal"},
}


def _assert_close(got, want, path):
    # floats to 1e-12 relative; values below 1e-15 are roundoff of an
    # exact zero (the duplicated rows' singular ratio, the wave's det)
    if isinstance(want, dict) and set(want) == {"re", "im"}:
        got, want = complex(got["re"], got["im"]), complex(want["re"], want["im"])
    if isinstance(want, dict):
        assert set(got) == set(want), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{k}]")
    elif isinstance(want, (float, complex)) and not isinstance(want, bool):
        assert abs(got - want) <= max(1e-12 * abs(want), 1e-15), (path, got, want)
    else:
        assert got == want, path


@pytest.mark.parametrize("key", sorted(_RECORDED))
def test_check_all_matches_reports_recorded_before_batching(key):
    # reports of the per-sample polynomial-object checker at 64 x 16
    # samples, recorded before the kernels were batched; the
    # witnesses must name the same sample with the same content
    recorded = json.loads((DATA / "adn_reports.json").read_text())[key]
    problem = _RECORDED[key]
    if isinstance(problem, dict):
        problem = load_problem(problem)
    report = check_all(problem, 64, 16).to_dict()
    for field in ("name", "passed", "verdicts", "m", "sample_counts"):
        assert report[field] == recorded[field], field
    for name, witness in recorded["witnesses"].items():
        assert report["witnesses"][name].keys() == witness.keys(), name
        assert report["witnesses"][name]["theta"] == witness["theta"], name
        assert report["witnesses"][name]["xi"] == witness["xi"], name
    _assert_close(report, recorded, key)


def test_complementing_check_agrees_with_check_all_per_sample():
    # complementing_check runs check_all's pencil chain on a batch of one
    # sample: at the batched witness it finds the same combination and
    # the same singular ratio, bit for bit
    problem = load_problem(_RECORDED["duplicated_rows"])
    witness = check_all(problem, 64, 16).witnesses["complementing"]
    verdict = complementing_check(problem, disk_boundary(witness["theta"]), witness["xi"])
    assert not verdict.passed
    assert verdict.witness == witness["combination"]
    assert verdict.singular_ratio == witness["singular_ratio"]
    # and the slip problem passes at every sample where check_all passes
    problem = navier_laplacian_problem(1.0)
    assert check_all(problem, 8, 8).passed
    for theta in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
        point = disk_boundary(float(theta))
        for c in _xi_scalings(8):
            assert complementing_check(problem, point, c * np.asarray(point.tau)).passed


def test_check_all_row_scaling_invariance():
    # scaling a boundary row must not change any verdict (rows are
    # normalized before the rank test)
    base = navier_laplacian_problem(0.0)
    scaled = base.__class__(
        M=2, L_coeffs=base.L_coeffs,
        B_coeffs=tuple((i, j, mi, (lambda p, f=c: 1e6 * _val(f, p)) if i == 1 else c)
                       for (i, j, mi, c) in base.B_coeffs),
        s=base.s, t=base.t, r=base.r)
    report = check_all(scaled)
    assert report.passed


def _val(coeff, point):
    return coeff(point) if callable(coeff) else complex(coeff)


def test_check_all_rejects_small_sample_counts():
    with pytest.raises(ValueError, match="at least 8"):
        check_all(navier_laplacian_problem(0.0), n_boundary_samples=4)
    with pytest.raises(ValueError, match="at least 8"):
        check_all(navier_laplacian_problem(0.0), n_xi_samples=4)


def test_check_all_rejects_row_count_mismatch():
    # refused when the problem is built, before check_all runs
    data = {"M": 2, "s": [0, 0], "t": [2, 2], "r": [-2],
            "L": [{"i": i, "j": i, "mi": mi, "c": 1}
                  for i in (1, 2) for mi in ([2, 0], [0, 2])],
            "B": [{"i": 1, "j": 1, "mi": [0, 0], "c": 1}]}
    with pytest.raises(ValueError, match="boundary rows for half-order"):
        check_all(load_problem(data))


def test_check_all_flags_degenerate_supplementary():
    # the wave-like operator has real pencil roots: supplementary fails
    # and the verdict records the witness instead of crashing
    data = {"M": 1, "s": [0], "t": [2], "r": [-2],
            "L": [{"i": 1, "j": 1, "mi": [2, 0], "c": 1},
                  {"i": 1, "j": 1, "mi": [0, 2], "c": -1}],
            "B": [{"i": 1, "j": 1, "mi": [0, 0], "c": 1}]}
    report = check_all(load_problem(data))
    assert not report.verdicts["supplementary"]
    assert not report.verdicts["complementing"]
    assert "supplementary" in report.witnesses
    assert not report.passed


# ---------------------------------------------------------------------------
# the batched root pass
# ---------------------------------------------------------------------------

# Laplace + 2 n1 (d1 + i d2)^2: elliptic, but its pencil has 0, 1 or 2
# stable roots depending on the sample, so the root count varies and the
# complementing condition runs on the samples with exactly m = 1
_TILTED_BITSADZE = {"M": 1, "s": [0], "t": [2], "r": [-2],
                    "L": [{"i": 1, "j": 1, "mi": [2, 0], "c": 1},
                          {"i": 1, "j": 1, "mi": [0, 2], "c": 1},
                          {"i": 1, "j": 1, "mi": [2, 0], "c": "2*n1"},
                          {"i": 1, "j": 1, "mi": [1, 1], "c": "4j*n1"},
                          {"i": 1, "j": 1, "mi": [0, 2], "c": "-2*n1"}],
                    "B": [{"i": 1, "j": 1, "mi": [0, 0], "c": 1}],
                    "name": "tilted_bitsadze"}
_ROOT_PASS = {"alpha0": navier_laplacian_problem(0.0),
              "alpha1": navier_laplacian_problem(1.0),
              "alpha5": navier_laplacian_problem(5.0),
              "tilted_bitsadze": _TILTED_BITSADZE,
              "wave": _RECORDED["wave"],
              "degenerate_diagonal": _RECORDED["degenerate_diagonal"]}


def _problem(key):
    problem = _ROOT_PASS[key]
    return load_problem(problem) if isinstance(problem, dict) else problem


def _upper_roots_by_loop(roots):
    """The stable roots of one sample as the per-sample checker found
    them: sorted by (Re, Im), chained at CLUSTER_TOL, each root replaced
    by complex(np.mean) of its cluster."""
    upper = sorted(roots[roots.imag > adn.REAL_AXIS_TOL], key=lambda z: (z.real, z.imag))
    clusters = []
    for z in upper:
        if clusters and abs(z - clusters[-1][-1]) <= adn.CLUSTER_TOL:
            clusters[-1].append(z)
        else:
            clusters.append([z])
    return [complex(np.mean(group)) for group in clusters for _ in group]


def _bits(roots):
    return np.asarray(roots, dtype=complex).view(np.uint64).tolist()


def _check_all_root_pass(monkeypatch, problem, n_points, n_xi):
    """check_all's determinant rows and the output of its one pass over
    their roots."""
    seen = {}
    root_table, stable_roots = adn._root_table, adn._stable_roots

    def table(c):
        seen.setdefault("det", c.copy())
        return root_table(c)

    def stable(roots):
        out = stable_roots(roots)
        seen.setdefault("stable", out)
        return out

    monkeypatch.setattr(adn, "_root_table", table)
    monkeypatch.setattr(adn, "_stable_roots", stable)
    check_all(problem, n_points, n_xi)
    monkeypatch.undo()
    return seen["det"], seen["stable"]


def test_check_all_solves_each_distinct_determinant_once(monkeypatch):
    # like the symbol batch above: the companion eigenproblems go to
    # np.linalg.eigvals for the bitwise-distinct determinant rows only
    seen, eigvals = [], np.linalg.eigvals

    def counting(a):
        seen.extend(a)
        return eigvals(a)

    det, _ = _check_all_root_pass(monkeypatch, navier_laplacian_problem(1.0), 64, 16)
    monkeypatch.setattr(np.linalg, "eigvals", counting)
    assert check_all(navier_laplacian_problem(1.0), 64, 16).passed
    distinct = {row.tobytes() for row in det}
    assert len(det) == 64 * 16 and len(distinct) < len(det) // 4
    assert len(seen) == len(distinct)


@pytest.mark.parametrize("key", sorted(_ROOT_PASS))
def test_batched_stable_roots_equal_the_one_sample_pass(monkeypatch, key):
    # every sample's stable roots in check_all's one pass are, bit for
    # bit, those _upper_roots finds for that sample alone and those the
    # per-sample loop found; a sample with a root on the real axis raises
    problem = _problem(key)
    det, (stable, count, on_axis) = _check_all_root_pass(monkeypatch, problem, 16, 9)
    assert len(det) == 16 * 9
    for s, row in enumerate(det):
        assert np.isnan(stable[s, count[s]:]).all()
        if on_axis[s] >= 0:
            with pytest.raises(DegenerateConfigurationError):
                _upper_roots(row, 0.0, np.zeros(2))
            continue
        want = _upper_roots(row, 0.0, np.zeros(2))
        by_loop = _upper_roots_by_loop(_table_rows(row[None])[0])
        assert _bits(stable[s, :count[s]]) == _bits(want) == _bits(by_loop)
    if key == "tilted_bitsadze":
        assert set(count.tolist()) == {0, 1, 2}


@pytest.mark.parametrize("key", ["degenerate_diagonal", "tilted_bitsadze", "wave"])
def test_supplementary_witness_is_the_first_failing_sample(key):
    # the degenerate controls keep the witness of the first sample, in
    # (point, scaling) order, where the one-sample roots_positive_imag
    # raises or finds a stable root count other than m
    problem = _problem(key)
    lp, _ = principal_parts(problem)

    def failure(point, xi):
        try:
            roots = roots_positive_imag(lp, point, xi, point.n)
        except DegenerateConfigurationError as err:
            return {"error": str(err)}
        return None if len(roots) == problem.m else {"roots": roots}

    samples = ((point, c * np.asarray(point.tau)) for point in _points(16)
               for c in _xi_scalings(9))
    point, xi, found = next((p, x, f) for p, x in samples if (f := failure(p, x)))
    witness = check_all(problem, 16, 9).witnesses["supplementary"]
    assert witness == {"theta": point.theta, "xi": tuple(xi.tolist()), **found}


def test_report_to_dict_roundtrips_through_json():
    report = check_all(navier_laplacian_problem(1.0))
    parsed = json.loads(json.dumps(report.to_dict()))
    assert parsed["verdicts"]["complementing"] is True
    assert parsed["m"] == 2
    assert abs(parsed["ellipticity_min"] - 1.0) < 1e-12


def test_load_problem_from_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"builtin": "navier_laplacian", "alpha": 2.0}))
    problem = load_problem(str(path))
    assert problem.name == "navier_laplacian"
    assert check_all(problem).passed


def test_load_problem_accepts_a_path(tmp_path):
    path = tmp_path / "dirichlet.json"
    path.write_text(json.dumps({
        "M": 1, "s": [0], "t": [2], "r": [-2],
        "L": [{"i": 1, "j": 1, "mi": [2, 0], "c": 1},
              {"i": 1, "j": 1, "mi": [0, 2], "c": 1}],
        "B": [{"i": 1, "j": 1, "mi": [0, 0], "c": 1}]}))
    assert load_problem(path) == load_problem(str(path))


def test_load_problem_unknown_builtin():
    with pytest.raises(ValueError, match="unknown builtin"):
        load_problem({"builtin": "stokes"})


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda d: d["L"].append({"i": 0, "j": 0, "mi": [2, 0], "c": 1}),
                 r"L entry 5 \(0,0\): row 0 is outside 1..2", id="L-row-0"),
    pytest.param(lambda d: d["L"].append({"i": 1, "j": 3, "mi": [2, 0], "c": 1}),
                 r"L entry 5 \(1,3\): column 3 is outside 1..2", id="L-column-3"),
    pytest.param(lambda d: d["B"].append({"i": 3, "j": 1, "mi": [0, 0], "c": 1}),
                 r"B entry 3 \(3,1\): row 3 is outside 1..2", id="B-row-3"),
    pytest.param(lambda d: d["B"].append({"i": 1, "j": 0, "mi": [0, 0], "c": 1}),
                 r"B entry 3 \(1,0\): column 0 is outside 1..2", id="B-column-0"),
    pytest.param(lambda d: d.update(s=[0]),
                 r"s and t need M=2 weights each, got 1 and 2", id="short-s"),
    pytest.param(lambda d: d.update(t=[2, 2, 2]),
                 r"s and t need M=2 weights each, got 2 and 3", id="long-t"),
    pytest.param(lambda d: d["L"][0].update(mi=[2, 0, 0]),
                 r"L entry 1 \(1,1\): multi-index", id="three-axes"),
    pytest.param(lambda d: d["L"][0].update(mi=[-1, 3]),
                 r"multi-index \(-1, 3\) must be two", id="negative-order"),
    pytest.param(lambda d: d["B"][1].update(mi=[0.5, 0]),
                 r"B entry 2 \(2,2\): multi-index", id="fractional-order"),
    # a fractional or string index was truncated or parsed, a fractional M
    # truncated, a bool weight taken as 1, a fractional weight or a NaN
    # coefficient failed late with "pencil determinant degree -1", and a
    # NaN literal in a symbol product with "SVD did not converge"
    pytest.param(lambda d: d["L"][0].update(i=1.7),
                 r"L entry 1 row must be an integer, got 1.7", id="fractional-row"),
    pytest.param(lambda d: d["B"][1].update(j="2"),
                 r"B entry 2 column must be an integer, got '2'", id="string-column"),
    pytest.param(lambda d: d.update(M=2.9), r"M must be an integer, got 2.9",
                 id="fractional-M"),
    pytest.param(lambda d: d.update(M=0), r"M must be a positive integer, got 0",
                 id="zero-M"),
    pytest.param(lambda d: d.update(r=[-2, True]), r"r must be an integer, got True",
                 id="bool-weight"),
    pytest.param(lambda d: d.update(s=[0, 0.5]), r"s must be an integer, got 0.5",
                 id="fractional-weight"),
    pytest.param(lambda d: d["L"][0].update(c=float("nan")),
                 r"L entry 1 coefficient must be finite", id="nan-coefficient"),
    pytest.param(lambda d: d["B"][0].update(c="nan*n1"),
                 r"B entry 1 coefficient must be finite", id="nan-literal"),
    # unknown keys were ignored: a misspelt built-in alpha ran alpha = 0,
    # and a misspelt entry or problem key went unnoticed
    pytest.param(lambda d: (d.clear(), d.update(builtin="navier_laplacian", alpah=1.0)),
                 r"unknown builtin problem keys: \['alpah'\]", id="builtin-alpah"),
    pytest.param(lambda d: d["B"][0].update(coef=2.0),
                 r"unknown B entry 1 keys: \['coef'\]", id="entry-coef"),
    pytest.param(lambda d: d.update(nmae="dirichlet"),
                 r"unknown ADN problem keys: \['nmae'\]", id="problem-nmae"),
    pytest.param(lambda d: d["L"].append(3), r"malformed L entry 5: must be an object",
                 id="entry-not-object"),
    # a number where an array belongs failed with "'int' object is not
    # iterable", and a missing key with a bare KeyError
    pytest.param(lambda d: d.update(s=0), r"^s must be an array, got 0$", id="scalar-s"),
    pytest.param(lambda d: d.update(t=2), r"^t must be an array, got 2$", id="scalar-t"),
    pytest.param(lambda d: d.update(r=-2), r"^r must be an array, got -2$", id="scalar-r"),
    pytest.param(lambda d: d.update(L=1), r"^L must be an array, got 1$", id="scalar-L"),
    pytest.param(lambda d: d.update(B=1), r"^B must be an array, got 1$", id="scalar-B"),
    pytest.param(lambda d: d["L"][2].update(mi=2),
                 r"^L entry 3 multi-index must be an array, got 2$", id="scalar-mi"),
    pytest.param(lambda d: d["B"][1].pop("c"),
                 r"^B entry 2 coefficient is missing \(key 'c'\)$", id="missing-c"),
    pytest.param(lambda d: d.pop("B"), r"^B is missing \(key 'B'\)$", id="missing-B"),
    pytest.param(lambda d: d.pop("M"), r"^M is missing \(key 'M'\)$", id="missing-M"),
    pytest.param(lambda d: d["L"][0].pop("j"),
                 r"^L entry 1 column is missing \(key 'j'\)$", id="missing-j"),
    # a string coefficient that is neither a number nor a symbol product
    # failed with a bare "complex() arg is a malformed string"
    pytest.param(lambda d: d["B"][0].update(c="n3"),
                 r"^B entry 1 coefficient 'n3': factor 'n3' is neither", id="unknown-symbol"),
    pytest.param(lambda d: d["L"][1].update(c="2*x"),
                 r"^L entry 2 coefficient '2\*x': factor 'x' is neither", id="unknown-factor"),
    pytest.param(lambda d: d["B"][1].update(c=""),
                 r"^B entry 2 coefficient '': factor '' is neither", id="empty-string"),
    pytest.param(lambda d: d["L"][3].update(c="n1*"),
                 r"^L entry 4 coefficient 'n1\*': factor '' is neither", id="dangling-star"),
    # the half-order is read from the weights when the problem is built
    pytest.param(lambda d: d.update(t=[2, 1]),
                 r"s \+ t = 3 is not an even positive integer", id="odd-order"),
    pytest.param(lambda d: d.update(r=[-2, -2, -1]),
                 r"3 boundary rows for half-order m=2", id="three-rows"),
])
def test_load_problem_rejects_malformed_entries(edit, message):
    # 1-indexed entries outside the weights' range used to wrap around
    # (row 0 became the last row) or fail deep inside check_all
    data = {"M": 2, "s": [0, 0], "t": [2, 2], "r": [-2, -2],
            "L": [dict(e) for e in _LAPLACE_ROWS],
            "B": [{"i": 1, "j": 1, "mi": [0, 0], "c": 1},
                  {"i": 2, "j": 2, "mi": [0, 0], "c": 1}]}
    assert check_all(load_problem(data)).passed
    edit(data)
    with pytest.raises(ValueError, match=message):
        load_problem(data)


def test_check_all_rejects_zero_order_systems():
    # a zeroth-order L has half-order 0 and no boundary rows to check;
    # refused when the problem is built, before check_all runs
    data = {"M": 1, "s": [0], "t": [0], "r": [],
            "L": [{"i": 1, "j": 1, "mi": [0, 0], "c": 1}], "B": []}
    with pytest.raises(ValueError, match="not an even positive integer"):
        check_all(load_problem(data))


def test_load_problem_symbol_products():
    data = {"M": 1, "s": [0], "t": [2], "r": [-1],
            "L": [{"i": 1, "j": 1, "mi": [2, 0], "c": "2*n1"},
                  {"i": 1, "j": 1, "mi": [0, 2], "c": "2*n2"}],
            "B": [{"i": 1, "j": 1, "mi": [1, 0], "c": "n1*tau1"}]}
    problem = load_problem(data)
    lp, _ = principal_parts(problem)
    point = disk_boundary(0.25)
    got = lp(point, np.array([1.0, 1.0]))
    want = 2.0 * (point.n[0] + point.n[1])
    assert abs(got[0, 0] - want) < 1e-14
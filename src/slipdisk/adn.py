"""Executable ellipticity theory for boundary value systems with weights.

Given a matrix operator L, boundary operators B on the unit circle, and
integer weights (s, t, r), this module checks the conditions that make the
system elliptic in the weighted sense: a nonvanishing and two-sided-bounded
determinant on the unit sphere, the root-count (supplementary) condition
for the pencil sigma -> L(xi + sigma n), and the complementing condition
that the boundary rows stay linearly independent modulo the stable factor
M+ of that pencil. The weights fix the half-order m = (sum s + sum t) / 2:
det L(xi) has degree 2m and the system takes m boundary rows. An
AdnProblem that breaks its weights, has no half-order or has another row
count is refused when it is built, not given a failing verdict.

Everything is numeric sampling: quantifiers over boundary points and
cotangent directions are replaced by finite deterministic sample sets,
and each verdict records the samples used. Failures always carry a
witness (the sample and the vanishing combination).

A polynomial in the pencil variable is its complex coefficient vector in
ascending order, and a matrix of such polynomials is one array of shape
(rows, cols, K). Any axes in front of those are sample axes: the kernels
below (product, cofactor determinant and adjugate, matrix product,
division by a monic M+, roots) broadcast over them, so check_all builds
the pencils of every boundary point and tangential frequency as one
(samples, rows, cols, K) array and evaluates all samples in one pass;
complementing_check runs the same chain on a batch of one sample.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field as dataclass_field
import numpy as np

from .geometry import alpha_function, finite, integer, table

REAL_AXIS_TOL = 1e-9
CLUSTER_TOL = 1e-7
DET_TOL = 1e-10
RANK_RATIO_TOL = 1e-8
TRIM_TOL = 1e-12


class DegenerateConfigurationError(ValueError):
    """A pencil root landed on the real axis: the sampled configuration
    does not separate stable from unstable factors."""


# ---------------------------------------------------------------------------
# polynomial kernels: coefficients ascending along the last axis, leading
# axes broadcast
# ---------------------------------------------------------------------------

def _degrees(c: np.ndarray) -> np.ndarray:
    """Degree of each polynomial once its leading coefficients within
    TRIM_TOL of zero, relative to its largest magnitude, are dropped;
    -1 for the zero polynomial."""
    mag = np.abs(c)
    keep = mag > TRIM_TOL * mag.max(axis=-1, keepdims=True)
    top = c.shape[-1] - 1 - np.argmax(keep[..., ::-1], axis=-1)
    return np.where(keep.any(axis=-1), top, -1)


def _polymul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    kb = b.shape[-1]
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    out = np.zeros(shape + (a.shape[-1] + kb - 1,), dtype=complex)
    for k in range(a.shape[-1]):
        out[..., k:k + kb] += a[..., k:k + 1] * b
    return out


def _det(a: np.ndarray) -> np.ndarray:
    """Determinant of (..., n, n, K) polynomial matrices by cofactor
    expansion along the first row."""
    if a.shape[-3] == 1:
        return a[..., 0, 0, :]
    return _polymul(a[..., 0, :, :], _adjugate(a)[..., :, 0, :]).sum(axis=-2)


def _adjugate(a: np.ndarray) -> np.ndarray:
    """Cofactor transpose of (..., n, n, K); A @ adj(A) = det(A) I."""
    n, k = a.shape[-3], a.shape[-1]
    if n == 1:
        return np.ones(a.shape[:-3] + (1, 1, 1), dtype=complex)
    out = np.empty(a.shape[:-3] + (n, n, (n - 1) * (k - 1) + 1), dtype=complex)
    for i in range(n):
        rows = np.delete(a, i, axis=-3)
        for j in range(n):
            c = _det(np.delete(rows, j, axis=-2))
            out[..., j, i, :] = c if (i + j) % 2 == 0 else -c
    return out


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., n, k, Ka) @ (..., k, m, Kb) -> (..., n, m, Ka + Kb - 1)."""
    if a.shape[-2] != b.shape[-3]:
        raise ValueError(f"shape mismatch {a.shape[-3:-1]} @ {b.shape[-3:-1]}")
    return _polymul(a[..., :, :, None, :], b[..., None, :, :, :]).sum(axis=-3)


def _polydiv(p: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean division by d, whose last coefficient must be nonzero;
    stable for the monic divisors built from root lists. Returns the
    quotient and the remainder, which has deg d coefficients."""
    dd, n = d.shape[-1] - 1, p.shape[-1]
    shape = np.broadcast_shapes(p.shape[:-1], d.shape[:-1])
    rem = np.zeros(shape + (max(n, dd),), dtype=complex)
    rem[..., :n] = p
    quot = np.zeros(shape + (max(n - dd, 0),), dtype=complex)
    lead = d[..., -1]
    for k in range(n - 1, dd - 1, -1):
        q = rem[..., k] / lead
        quot[..., k - dd] = q
        rem[..., k - dd:k + 1] -= q[..., None] * d
    return quot, rem[..., :dd]


def _monic(roots: np.ndarray) -> np.ndarray:
    """prod_k (sigma - roots[..., k])."""
    out = np.ones(roots.shape[:-1] + (1,), dtype=complex)
    for k in range(roots.shape[-1]):
        r = roots[..., k]
        out = _polymul(out, np.stack([-r, np.ones_like(r)], axis=-1))
    return out


def _roots(c: np.ndarray) -> list:
    """Roots of each row of c (samples, K) after the TRIM_TOL rule,
    exactly as np.roots finds them: companion-matrix eigenvalues, one
    np.linalg.eigvals call per core size, followed by one exact zero per
    vanishing low-order coefficient."""
    deg = _degrees(c)
    low = np.argmax(c != 0, axis=-1)
    size = np.where(deg >= 0, deg - low + 1, 0)
    out = [np.zeros(low[s] if deg[s] >= 0 else 0) for s in range(len(c))]
    for n in np.unique(size[size > 1]):
        idx = np.nonzero(size == n)[0]
        p = c[idx[:, None], low[idx, None] + np.arange(n - 1, -1, -1)]
        companion = np.zeros((idx.size, n - 1, n - 1), dtype=complex)
        sub = np.arange(n - 2)
        companion[:, sub + 1, sub] = 1
        companion[:, 0, :] = -p[:, 1:] / p[:, :1]
        for s, eig in zip(idx, np.linalg.eigvals(companion)):
            out[s] = np.concatenate([eig, out[s]])
    return out


# ---------------------------------------------------------------------------
# problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryPoint:
    """A boundary sample: position, outward normal, tangent, and the
    parameter angle they came from."""
    x: tuple
    n: tuple
    tau: tuple
    theta: float


def disk_boundary(theta: float) -> BoundaryPoint:
    c, s = np.cos(theta), np.sin(theta)
    return BoundaryPoint(x=(c, s), n=(c, s), tau=(-s, c), theta=theta)


def _is_order(p) -> bool:
    return isinstance(p, (int, np.integer)) and not isinstance(p, bool) and p >= 0


@dataclass(frozen=True)
class AdnProblem:
    """A weighted boundary value system on the unit circle (disk_boundary).

    L_coeffs entries are (i, j, multi_index, coefficient), 0-indexed rows
    and columns, coefficient a number or a function of a BoundaryPoint;
    B_coeffs likewise with boundary row l, one row per weight in r.

    Construction refuses a problem the checkers cannot read: non-integer
    M, weights, rows or columns; s or t not of length M; a weight sum
    sum s + sum t that is not an even positive integer 2m; a row count
    len(r) other than m; rows or columns out of range; multi-indices that
    are not two non-negative integers; and entries above their weight,
    deg L_ij > s_i + t_j or deg B_lj > r_l + t_j. Messages count entries
    and indices from 1.
    """
    M: int
    L_coeffs: tuple
    B_coeffs: tuple
    s: tuple
    t: tuple
    r: tuple
    name: str = ""

    def __post_init__(self):
        if integer(self.M, "M") < 1:
            raise ValueError(f"M must be a positive integer, got {self.M!r}")
        for label in ("s", "t", "r"):
            for weight in getattr(self, label):
                integer(weight, label)
        if len(self.s) != self.M or len(self.t) != self.M:
            raise ValueError(f"s and t need M={self.M} weights each, "
                             f"got {len(self.s)} and {len(self.t)}")
        order = sum(self.s) + sum(self.t)
        if order <= 0 or order % 2:
            raise ValueError(f"weight sum s + t = {order} is not an even positive integer")
        if len(self.r) != self.m:
            raise ValueError(f"{len(self.r)} boundary rows for half-order "
                             f"m={self.m}: the counts must agree")
        for label, entries, weights, bound in (("L", self.L_coeffs, self.s, "s_i"),
                                               ("B", self.B_coeffs, self.r, "r_l")):
            for k, (i, j, mi, _) in enumerate(entries):
                i = integer(i, f"{label} entry {k + 1} row")
                j = integer(j, f"{label} entry {k + 1} column")
                entry = f"{label} entry {k + 1} ({i + 1},{j + 1})"
                if not 0 <= i < len(weights):
                    raise ValueError(f"{entry}: row {i + 1} is outside 1..{len(weights)}")
                if not 0 <= j < self.M:
                    raise ValueError(f"{entry}: column {j + 1} is outside 1..{self.M}")
                if len(mi) != 2 or not all(_is_order(p) for p in mi):
                    raise ValueError(f"{entry}: multi-index {tuple(mi)} must be two "
                                     f"non-negative integers")
                limit = weights[i] + self.t[j]
                if sum(mi) > limit:
                    raise ValueError(f"{label} entry ({i + 1},{j + 1}) multi-index "
                                     f"{tuple(mi)} has order {sum(mi)} > {bound} + t_j "
                                     f"= {limit}")

    @property
    def m(self) -> int:
        """The half-order: det L(xi) is homogeneous of degree 2m."""
        return (sum(self.s) + sum(self.t)) // 2


def _principal_array(problem: AdnProblem, boundary: bool, points, xi,
                     xi_prime=None) -> np.ndarray:
    """Principal part of L (boundary=False) or B (boundary=True) as one
    coefficient array of shape (P X, rows, M, K).

    points has length P and xi, xi_prime have shape (P, X, 2): sample
    p X + x sits at points[p] with direction xi[p, x]. The array holds the
    pencil along xi + sigma xi_prime; without xi_prime K = 1 and it holds
    the numeric symbol at xi. Only terms of exact weighted degree survive.
    """
    entries, weights = ((problem.B_coeffs, problem.r) if boundary
                        else (problem.L_coeffs, problem.s))
    terms = [(i, j, mi, c) for (i, j, mi, c) in entries
             if sum(mi) == weights[i] + problem.t[j]]
    lin = xi[..., None] if xi_prime is None else np.stack([xi, xi_prime], axis=-1)
    order = max((sum(mi) for (_, _, mi, _) in terms), default=0)
    out = np.zeros(xi.shape[:2] + (len(weights), problem.M,
                                   order * (lin.shape[-1] - 1) + 1), dtype=complex)
    for (i, j, mi, coeff) in terms:
        values = np.array([coeff(p) if callable(coeff) else coeff for p in points],
                          dtype=complex)
        mono = np.ones(xi.shape[:2] + (1,))
        for d, power in enumerate(mi):
            for _ in range(power):
                mono = _polymul(mono, lin[..., d, :])
        out[..., i, j, :mono.shape[-1]] += values[:, None, None] * mono
    return out.reshape((-1,) + out.shape[2:])


def principal_parts(problem: AdnProblem):
    """The principal-part evaluators of L and of B, in that order.

    Each evaluator maps (point, xi) to a numeric complex matrix, or
    (point, xi, xi_prime) to the (rows, M, K) coefficient array of the
    pencil along xi + sigma xi_prime. Only terms of exact weighted degree
    survive; the weights were checked when the problem was built.
    """
    def build(boundary):
        def evaluate(point, xi, xi_prime=None):
            xi = np.asarray(xi, dtype=float)[None, None]
            if xi_prime is None:
                return _principal_array(problem, boundary, [point], xi)[0, ..., 0]
            xp = np.asarray(xi_prime, dtype=float)[None, None]
            return _principal_array(problem, boundary, [point], xi, xp)[0]
        return evaluate

    return build(False), build(True)


# ---------------------------------------------------------------------------
# the four conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdnReport:
    """Verdicts for the four ellipticity conditions with the constants
    measured on the sample set. Failed conditions carry a witness."""
    verdicts: dict[str, bool]
    ellipticity_min: float
    ellipticity_max: float
    m: int
    witnesses: dict = dataclass_field(default_factory=dict)
    sample_counts: dict = dataclass_field(default_factory=dict)
    name: str = ""

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def to_dict(self) -> dict:
        def clean(obj):
            if isinstance(obj, complex):
                return {"re": obj.real, "im": obj.imag}
            if isinstance(obj, (np.floating, np.integer)):
                return obj.item()
            if isinstance(obj, (list, tuple, np.ndarray)):
                return [clean(v) for v in obj]
            if isinstance(obj, dict):
                return {k: clean(v) for k, v in obj.items()}
            return obj
        return {"name": self.name, "passed": self.passed,
                "verdicts": self.verdicts, "m": self.m,
                "ellipticity_min": self.ellipticity_min,
                "ellipticity_max": self.ellipticity_max,
                "witnesses": clean(self.witnesses),
                "sample_counts": self.sample_counts}


def check_ellipticity(problem: AdnProblem, x_samples, xi_samples) -> AdnReport:
    """Conditions on the determinant alone: nonvanishing on the unit
    sphere (tolerance DET_TOL) and the measured two-sided constants,
    from one batch of numeric symbols. The report's m is problem.m."""
    if not len(x_samples) or not len(xi_samples):
        raise ValueError("need at least one x sample and one xi sample")
    points = list(x_samples)
    xi = np.asarray(xi_samples, dtype=float)
    unit = xi / np.linalg.norm(xi, axis=-1, keepdims=True)
    symbols = _principal_array(problem, False, points,
                               np.broadcast_to(unit, (len(points),) + unit.shape))
    dets = np.abs(np.linalg.det(symbols[..., 0]))
    det_min, det_max = float(dets.min()), float(dets.max())
    witnesses = {}
    if det_min < DET_TOL:
        p, x = divmod(int(np.argmin(dets)), len(unit))
        witnesses["ellipticity"] = {"x": points[p].x, "theta": points[p].theta,
                                    "xi": tuple(unit[x].tolist()), "det": det_min}
    verdicts = {"ellipticity": bool(det_min >= DET_TOL),
                "uniform_ellipticity": bool(det_min >= DET_TOL and np.isfinite(det_max))}
    return AdnReport(verdicts=verdicts, ellipticity_min=det_min,
                     ellipticity_max=det_max, m=problem.m, witnesses=witnesses,
                     sample_counts={"x": len(x_samples), "xi": len(xi_samples)},
                     name=problem.name)


def _upper_roots(roots: np.ndarray, theta: float, xi: np.ndarray) -> list:
    """The roots in the upper half plane, clustered (tolerance
    CLUSTER_TOL) with each cluster averaged; a root within REAL_AXIS_TOL
    of the real axis raises DegenerateConfigurationError."""
    on_axis = roots[np.abs(roots.imag) <= REAL_AXIS_TOL]
    if on_axis.size:
        raise DegenerateConfigurationError(
            f"pencil root {on_axis[0]:.3e} on the real axis at theta={theta:.4f}, "
            f"xi={tuple(xi.tolist())}")
    upper = sorted(roots[roots.imag > REAL_AXIS_TOL],
                   key=lambda z: (z.real, z.imag))
    clustered = []
    for z in upper:
        if clustered and abs(z - clustered[-1][-1]) <= CLUSTER_TOL:
            clustered[-1].append(z)
        else:
            clustered.append([z])
    out = []
    for group in clustered:
        center = complex(np.mean(group))
        out.extend([center] * len(group))
    return out


def roots_positive_imag(lp_eval, point: BoundaryPoint, xi, xi_prime) -> list:
    """Roots of sigma -> det L(point, xi + sigma xi_prime) in the upper
    half plane, with multiplicity recovered by clustering (tolerance
    CLUSTER_TOL) and each cluster averaged.

    A root within REAL_AXIS_TOL of the real axis means the pencil does
    not split into stable and unstable factors and raises
    DegenerateConfigurationError.
    """
    xi = np.asarray(xi, dtype=float)
    xip = np.asarray(xi_prime, dtype=float)
    cross = xi[0] * xip[1] - xi[1] * xip[0]
    if abs(cross) < 1e-12 * max(1.0, np.linalg.norm(xi) * np.linalg.norm(xip)):
        raise ValueError("xi and xi_prime must be linearly independent")
    det = _det(lp_eval(point, xi, xip))
    return _upper_roots(_roots(det[None])[0], point.theta, xi)


@dataclass(frozen=True)
class ComplementingVerdict:
    passed: bool
    singular_ratio: float
    witness: tuple | None
    point: BoundaryPoint
    xi: tuple


def _remainder_rows(lpen: np.ndarray, bpen: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """B adj(L) of each sample reduced modulo M+ = prod (sigma - root),
    the remainder coefficients of row l laid out column by column:
    (samples, rows, M m) from pencils (samples, ., M, K) and roots
    (samples, m)."""
    product = _matmul(bpen, _adjugate(lpen))
    _, rem = _polydiv(product, _monic(roots)[:, None, None, :])
    return rem.reshape(rem.shape[:-2] + (-1,))


def _rank_test(stacked: np.ndarray):
    """Full row rank of each (rows, cols) stack by the singular value
    ratio (threshold RANK_RATIO_TOL) after per-row max normalization.
    Returns the pass flags, the ratios (0 for a vanishing row) and a
    function giving sample s's vanishing row combination."""
    n_rows = stacked.shape[-2]
    scales = np.abs(stacked).max(axis=-1)
    zero = scales < 1e-300
    normalized = stacked / np.where(zero, 1.0, scales)[..., None]
    u, sing, _ = np.linalg.svd(normalized)
    ratio = sing[:, -1] / sing[:, 0] if n_rows > 1 else np.ones(len(stacked))
    ratio = np.where(zero.any(axis=-1), 0.0, ratio)
    passed = ~zero.any(axis=-1) & (ratio >= RANK_RATIO_TOL) & (sing.shape[-1] == n_rows)

    def combination(s: int) -> tuple:
        if zero[s].any():
            l = int(np.argmin(scales[s]))
            return tuple(1.0 + 0.0j if k == l else 0.0j for k in range(n_rows))
        c = np.conj(u[s, :, -1])
        first = int(np.nonzero(np.abs(c) >= 0.5 * np.abs(c).max())[0][0])
        return tuple((c / c[first]).tolist())

    return passed, ratio, combination


def complementing_check(problem: AdnProblem, point: BoundaryPoint, xi) -> ComplementingVerdict:
    """Linear independence of the boundary rows modulo the stable pencil
    factor M+.

    Builds B(point, xi + sigma n) adj(L)(point, xi + sigma n), reduces
    every entry modulo M+ = prod (sigma - root), stacks the remainder
    coefficients row by row, and tests full row rank by the singular
    value ratio (threshold RANK_RATIO_TOL after per-row max
    normalization). A failing verdict carries the vanishing row
    combination as witness. This is check_all's chain on a batch of one
    sample, so the verdicts agree bit for bit. A sample whose stable root
    count is not problem.m has no M+ of degree m: check_all fails the
    root-count condition there, and this check raises ValueError.
    """
    xi = np.asarray(xi, dtype=float)
    normal = np.asarray(point.n, dtype=float)
    if np.linalg.norm(xi) < 1e-14:
        raise ValueError("xi must be nonzero")
    if abs(xi @ normal) > 1e-12 * np.linalg.norm(xi):
        raise ValueError(f"xi must be orthogonal to the normal at the sample: "
                         f"xi.n = {xi @ normal:.3e}")
    lpen = _principal_array(problem, False, [point], xi[None, None], normal[None, None])
    bpen = _principal_array(problem, True, [point], xi[None, None], normal[None, None])
    roots = _upper_roots(_roots(_det(lpen))[0], point.theta, xi)
    if len(roots) != problem.m:
        raise ValueError(f"{len(roots)} stable pencil roots for half-order m={problem.m} "
                         f"at theta={point.theta:.4f}, xi={tuple(xi.tolist())}: the "
                         f"root-count condition fails")
    passed, ratio, combination = _rank_test(
        _remainder_rows(lpen, bpen, np.array([roots], dtype=complex)))
    return ComplementingVerdict(bool(passed[0]), float(ratio[0]),
                                None if passed[0] else combination(0),
                                point, tuple(xi.tolist()))


def _xi_scalings(count: int) -> np.ndarray:
    mags = 0.5 * (1 + np.arange((count + 1) // 2))
    out = np.empty(count)
    out[0::2] = mags[: out[0::2].size]
    out[1::2] = -mags[: out[1::2].size]
    return out


def check_all(problem: AdnProblem, n_boundary_samples: int = 32,
              n_xi_samples: int = 8) -> AdnReport:
    """All four conditions on the deterministic sample set: boundary
    angles uniform on the circle, unit-sphere directions for the
    determinant, and tangential xi = c tau over both-sign scalings c for
    the root and complementing conditions.

    The n_boundary_samples x n_xi_samples pencils are evaluated as one
    batch; each sample's roots serve both the root-count and the
    complementing condition, and witnesses belong to the first failing
    sample in (point, scaling) order."""
    if n_boundary_samples < 8 or n_xi_samples < 8:
        raise ValueError("need at least 8 boundary and 8 xi samples")
    angles = np.linspace(0.0, 2.0 * np.pi, n_boundary_samples, endpoint=False)
    points = [disk_boundary(float(a)) for a in angles]
    sphere = [(np.cos(p), np.sin(p))
              for p in np.linspace(0.0, 2.0 * np.pi, n_xi_samples, endpoint=False)]
    report = check_ellipticity(problem, points, sphere)
    verdicts = dict(report.verdicts)
    witnesses = dict(report.witnesses)

    tau = np.array([p.tau for p in points], dtype=float)
    normal = np.array([p.n for p in points], dtype=float)
    xi = _xi_scalings(n_xi_samples)[None, :, None] * tau[:, None, :]
    normal = np.broadcast_to(normal[:, None, :], xi.shape)
    lpen = _principal_array(problem, False, points, xi, normal)
    bpen = _principal_array(problem, True, points, xi, normal)
    xi = xi.reshape(-1, 2)

    valid, stable = [], []
    for s, roots in enumerate(_roots(_det(lpen))):
        theta = points[s // n_xi_samples].theta
        try:
            upper = _upper_roots(roots, theta, xi[s])
            failure = None if len(upper) == problem.m else {"roots": upper}
        except DegenerateConfigurationError as err:
            failure = {"error": str(err)}
        if failure is None:
            valid.append(s)
            stable.append(upper)
        else:
            witnesses.setdefault("supplementary", {"theta": theta,
                                                   "xi": tuple(xi[s].tolist()), **failure})

    if valid:
        passed, ratio, combination = _rank_test(_remainder_rows(
            lpen[valid], bpen[valid], np.array(stable, dtype=complex)))
        failing = np.nonzero(~passed)[0]
        if failing.size:
            k, s = failing[0], valid[failing[0]]
            witnesses["complementing"] = {"theta": points[s // n_xi_samples].theta,
                                          "xi": tuple(xi[s].tolist()),
                                          "combination": combination(k),
                                          "singular_ratio": float(ratio[k])}
    verdicts["supplementary"] = "supplementary" not in witnesses
    verdicts["complementing"] = (verdicts["supplementary"]
                                 and "complementing" not in witnesses)
    counts = dict(report.sample_counts)
    counts["pencil"] = len(xi)
    return AdnReport(verdicts=verdicts, ellipticity_min=report.ellipticity_min,
                     ellipticity_max=report.ellipticity_max, m=problem.m,
                     witnesses=witnesses, sample_counts=counts, name=problem.name)


# ---------------------------------------------------------------------------
# instances and JSON I/O
# ---------------------------------------------------------------------------

def navier_laplacian_problem(alpha_spec=0.0) -> AdnProblem:
    """The velocity Laplacian with impermeability and slip rows.

    L = I2 Laplace, weights s = (0,0), t = (2,2). Boundary row 1 is the
    normal trace n.u (weight -2); row 2 is tau.(n.grad)u + (alpha - kappa)
    tau.u (weight -1) with the unit circle's curvature kappa = 1. Its
    zeroth-order term drops from the principal part, so no verdict depends
    on alpha or kappa; the alpha spec is still parsed, and refused if bad.
    """
    alpha = alpha_function(alpha_spec)
    lap = [(i, i, mi, 1.0) for i in range(2) for mi in ((2, 0), (0, 2))]
    b = [(0, 0, (0, 0), lambda p: complex(p.n[0])),
         (0, 1, (0, 0), lambda p: complex(p.n[1])),
         (1, 0, (0, 0), lambda p: complex((alpha(p.theta) - 1.0) * p.tau[0])),
         (1, 1, (0, 0), lambda p: complex((alpha(p.theta) - 1.0) * p.tau[1])),
         (1, 0, (1, 0), lambda p: complex(p.n[0] * p.tau[0])),
         (1, 1, (1, 0), lambda p: complex(p.n[0] * p.tau[1])),
         (1, 0, (0, 1), lambda p: complex(p.n[1] * p.tau[0])),
         (1, 1, (0, 1), lambda p: complex(p.n[1] * p.tau[1]))]
    return AdnProblem(M=2, L_coeffs=tuple(lap), B_coeffs=tuple(b),
                      s=(0, 0), t=(2, 2), r=(-2, -1),
                      name="navier_laplacian")


_SYMBOLS = {"n1": lambda p: complex(p.n[0]), "n2": lambda p: complex(p.n[1]),
            "tau1": lambda p: complex(p.tau[0]), "tau2": lambda p: complex(p.tau[1])}


def _parse_coeff(c, name: str):
    """Numbers stay numbers; strings are '*'-separated products of the
    geometric symbols n1, n2, tau1, tau2 and numeric literals. Every
    number must be finite."""
    if not isinstance(c, str):
        return finite(c, name)
    factors = []
    for token in c.split("*"):
        token = token.strip()
        if token in _SYMBOLS:
            factors.append(_SYMBOLS[token])
        else:
            try:
                value = complex(token)
            except ValueError:
                raise ValueError(f"{name} {c!r}: factor {token!r} is neither a number "
                                 f"nor one of {', '.join(_SYMBOLS)}") from None
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {c!r}")
            factors.append(lambda p, v=value: v)
    def coeff(point):
        out = 1.0 + 0.0j
        for f in factors:
            out *= f(point)
        return out
    return coeff


def load_problem(source) -> AdnProblem:
    """Build an AdnProblem from a JSON file path or an already-parsed
    dict. Entries use 1-indexed rows and columns:

        {"M": 2, "s": [0, 0], "t": [2, 2], "r": [-2, -1],
         "L": [{"i": 1, "j": 1, "mi": [2, 0], "c": 1}, ...],
         "B": [{"i": 1, "j": 1, "mi": [0, 0], "c": "n1"}, ...]}

    or name a built-in: {"builtin": "navier_laplacian", "alpha": 1.0}.
    Every object is read strictly: a key outside these, or a missing one
    but "name", is refused; s, t, r, L, B and each mi must be arrays, rows
    and columns integers and a numeric coefficient finite.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source) as fh:
            data = json.load(fh)
    else:
        data = source
    if isinstance(data, dict) and "builtin" in data:
        table(data, "builtin problem", ("builtin", "alpha"))
        if data["builtin"] != "navier_laplacian":
            raise ValueError(f"unknown builtin problem {data['builtin']!r}")
        return navier_laplacian_problem(data.get("alpha", 0.0))
    table(data, "ADN problem", ("M", "s", "t", "r", "L", "B", "name"))

    def read(obj, key, name, convert):
        """convert(obj[key], name), or a ValueError naming the missing key."""
        if key not in obj:
            raise ValueError(f"{name} is missing (key {key!r})")
        return convert(obj[key], name)

    def array(value, name):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name} must be an array, got {value!r}")
        return tuple(value)

    def entries(label):
        out = []
        for k, e in enumerate(read(data, label, label, array), 1):
            name = f"{label} entry {k}"
            table(e, name, ("i", "j", "mi", "c"))
            out.append((read(e, "i", f"{name} row", integer) - 1,
                        read(e, "j", f"{name} column", integer) - 1,
                        read(e, "mi", f"{name} multi-index", array),
                        read(e, "c", f"{name} coefficient", _parse_coeff)))
        return tuple(out)

    s, t, r = (read(data, label, label, array) for label in ("s", "t", "r"))
    return AdnProblem(M=read(data, "M", "M", integer), L_coeffs=entries("L"),
                      B_coeffs=entries("B"), s=s, t=t, r=r, name=str(data.get("name", "")))

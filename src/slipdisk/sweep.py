"""The vanishing viscosity sweep: one initial datum run at descending
viscosities, and inviscidly on the base grid and on a refined grid. The
report reads each viscous run's distance from the refined inviscid run
against the base-grid inviscid run's own (the Euler floor).

The ensemble of base-grid runs steps in this process while the refined
run steps in a forked child, which has its own interpreter lock; an
attempt that the ensemble fails kills its child instead of waiting for
it.

The post-processing works on each trajectory's snapshot stack
(n_snapshots, n_r, n_theta): the refined run reaches the base grid
through one cached not-a-knot cubic spline matrix in the radius, applied
to the whole stack in one matmul, and each sup over time is the max of
one lp_norms call.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import asdict, dataclass, field as dataclass_field, fields, replace

import numpy as np

from ._forked import ForkedCall
from .biot_savart import biot_savart
from .diagnostics import phi_bump, renormalized_slack
from .field import lp_norms
from .geometry import build_grid, integer, real, reals, table
from .ns_solver import (CflError, SimConfig, cfl_bound, initial_vorticity, simulate,
                        simulate_ensemble, write_atomically, write_json)

ENERGY_RATE_TOL = 1e-6
DEFAULT_PHI = {"bump": {"center": (0.0, 0.0), "radius": 0.9, "amplitude": 1.0}}
CSV_COLUMNS = ("nu", "q", "sup_lq_diff", "sup_lp_enstrophy",
               "energy_ok", "renorm_slack", "wall_ms")


@dataclass
class SweepConfig:
    """The viscosity sweep: one initial datum, descending viscosities, a
    refined inviscid reference run."""
    base: SimConfig
    nu_list: tuple
    q_list: tuple
    p: float
    euler_refinement_factor: int = 2
    slack_q: float = 2.0
    phi: dict = dataclass_field(default_factory=lambda: dict(DEFAULT_PHI))

    def __post_init__(self):
        self.nu_list = reals(self.nu_list, "nu_list")
        self.q_list = reals(self.q_list, "q_list")
        self.p = real(self.p, "p")
        self.slack_q = real(self.slack_q, "slack_q")
        if not self.nu_list or not all(np.isfinite(v) and v > 0 for v in self.nu_list):
            raise ValueError(f"nu_list must be nonempty finite positive reals, "
                             f"got {self.nu_list}")
        if not self.q_list:
            raise ValueError(f"q_list must be a nonempty array of exponents, "
                             f"got {self.q_list}")
        if any(a <= b for a, b in zip(self.nu_list, self.nu_list[1:])):
            raise ValueError(f"nu_list must be strictly descending, got {self.nu_list}")
        if self.p <= 2:
            raise ValueError(f"p must exceed 2, got {self.p}")
        for q in self.q_list + (self.slack_q,):
            if not 1.0 <= q < self.p:
                raise ValueError(f"exponent q={q} must lie in [1, p={self.p})")
        self.euler_refinement_factor = integer(self.euler_refinement_factor,
                                               "euler_refinement_factor")
        if self.euler_refinement_factor < 2:
            raise ValueError(f"euler_refinement_factor must be an integer >= 2, "
                             f"got {self.euler_refinement_factor}")
        phi_bump(self.phi)
        if self.p not in self.base.lp_exponents:
            self.base = replace(self.base,
                                lp_exponents=self.base.lp_exponents + (self.p,))

    @classmethod
    def from_dict(cls, d: dict) -> "SweepConfig":
        kwargs = dict(table(d, "sweep config", [f.name for f in fields(cls)]))
        if not isinstance(d.get("base"), dict):
            raise ValueError(f"base must be an object of simulation settings, "
                             f"got {d.get('base')!r}")
        kwargs["base"] = SimConfig.from_dict(d["base"])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path) -> "SweepConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {**asdict(self), "base": self.base.to_dict()}


@dataclass(frozen=True)
class ConvergenceReport:
    """One row per (nu, q) pair plus the inviscid reference's own
    discretization floor, against which the convergence column is read.

    runs holds the trajectories the report was read from, as
    {"viscous": [...], "euler_base": ..., "euler_refined": ...}; it is
    not part of the report's files or of its equality.
    """
    rows: tuple
    euler_floor: dict
    config: dict
    metadata: dict
    runs: dict = dataclass_field(default=None, repr=False, compare=False)

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            lines.append(",".join(
                repr(int(row[c])) if c == "energy_ok"
                else repr(float(row[c])) for c in CSV_COLUMNS))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {"rows": list(self.rows), "euler_floor": self.euler_floor,
                "config": self.config, "metadata": self.metadata}

    def write(self, out_dir) -> None:
        write_atomically(os.path.join(out_dir, "series.csv"), self.to_csv())
        write_json(os.path.join(out_dir, "report.json"), self.to_dict())
        write_json(os.path.join(out_dir, "config-resolved.json"), self.config)


def _energy_ok(series: dict) -> bool:
    e = np.asarray(series["energy"])
    t = np.asarray(series["t"])
    slack = ENERGY_RATE_TOL * e[0] * np.diff(t)
    return bool(np.all(np.diff(e) <= slack))


@functools.cache
def _spline_matrix(n_base: int, n_fine: int) -> np.ndarray:
    """W of shape (n_base, n_fine): W @ y is the not-a-knot cubic spline
    through the values y at the radial nodes of build_grid(n_fine, .),
    evaluated at those of build_grid(n_base, .). Shared by every caller;
    read-only."""
    x = build_grid(n_fine, 2).r
    t = build_grid(n_base, 2).r
    n, h = n_fine, np.diff(x)
    # Second derivatives M from A M = B y: the interior rows ask for a
    # continuous slope, the first and last for a continuous third
    # derivative across the second and the second-to-last node.
    A = np.zeros((n, n))
    B = np.zeros((n, n))
    i = np.arange(1, n - 1)
    A[i, i - 1], A[i, i], A[i, i + 1] = h[:-1], 2.0 * (h[:-1] + h[1:]), h[1:]
    B[i, i - 1], B[i, i + 1] = 6.0 / h[:-1], 6.0 / h[1:]
    B[i, i] = -B[i, i - 1] - B[i, i + 1]
    A[0, :3] = h[1], -(h[0] + h[1]), h[0]
    A[-1, -3:] = h[-1], -(h[-2] + h[-1]), h[-2]
    M = np.linalg.solve(A, B)
    # On [x_j, x_j+1], with a = (x_j+1 - t)/h_j and b = 1 - a:
    # S(t) = a y_j + b y_j+1 + h_j^2/6 ((a^3 - a) M_j + (b^3 - b) M_j+1).
    j = np.clip(np.searchsorted(x, t) - 1, 0, n - 2)
    a = (x[j + 1] - t) / h[j]
    b = 1.0 - a
    c = h[j] ** 2 / 6.0
    W = ((c * (a ** 3 - a))[:, None] * M[j]
         + (c * (b ** 3 - b))[:, None] * M[j + 1])
    rows = np.arange(len(t))
    W[rows, j] += a
    W[rows, j + 1] += b
    W.flags.writeable = False
    return W


def _interpolate_to_base(values: np.ndarray, factor: int, base_grid,
                         fine_grid) -> np.ndarray:
    """Refined-grid field (..., n_r, n_theta) to the base grid: the angular
    nodes nest, so subsample; the radial nodes are staggered, so apply the
    cached not-a-knot cubic spline matrix to every angle and leading
    index in one matmul."""
    return _spline_matrix(base_grid.n_r, fine_grid.n_r) @ values[..., ::factor]


def _timed_run(run, arg):
    """run(arg) and its wall time in milliseconds."""
    start = time.perf_counter()
    result = run(arg)
    return result, 1e3 * (time.perf_counter() - start)


def _omega_stack(traj) -> np.ndarray:
    return np.stack([om.values for om in traj.omegas])


def run_sweep(config: SweepConfig) -> ConvergenceReport:
    """Run the sweep and assemble the report.

    All runs share one fixed dt, so snapshot times align exactly across
    the sweep. The step is sized by the CFL bound of the initial velocity
    on the refined grid: refining the grid by a factor shrinks the
    near-center angular bound by its square while the reference step
    shrinks only linearly, so the refined run is the binding constraint.
    The viscous runs and the base-grid inviscid run share everything but
    the viscosity and are stepped as one ensemble in this process, while
    the refined run executes beside it in a forked child (ForkedCall),
    which has its own interpreter lock; euler_refined_wall_ms is the
    child's own time for it. A CflError from the ensemble is reported
    before one from the refined run. A refined run that an ensemble
    failure abandons is killed, so none outlives the attempt that
    started it.
    """
    base = config.base
    m = config.euler_refinement_factor
    base_grid = build_grid(base.n_r, base.n_theta)
    fine_grid = build_grid(m * base.n_r, m * base.n_theta)

    if base.dt == "auto":
        omega0 = initial_vorticity(base.initial_condition, fine_grid)
        bound = cfl_bound(biot_savart(omega0))
        if not np.isfinite(bound):
            bound = base.t_end
        # The velocity maximum can grow during the run, so the initial
        # bound is tried with successively harder margins; a CFL trip in
        # any run restarts the whole sweep so the shared step survives.
        candidates = [m * margin * bound for margin in (0.6, 0.3, 0.15)]
    else:
        candidates = [float(base.dt)]

    for attempt, dt_try in enumerate(candidates, start=1):
        n_steps = max(1, int(np.ceil(base.t_end / dt_try - 1e-12)))
        dt = base.t_end / n_steps
        members = [replace(base, nu=nu, dt=dt) for nu in config.nu_list + (0.0,)]
        refined = replace(base, nu=0.0, dt=dt / m, n_r=m * base.n_r,
                          n_theta=m * base.n_theta,
                          output_stride=m * base.output_stride)
        # Leaving the with block stops the child, so a refined run that an
        # ensemble failure abandons is killed, not waited for.
        with ForkedCall(functools.partial(_timed_run, simulate, refined)) as refined_run:
            try:
                base_runs, ensemble_ms = _timed_run(simulate_ensemble, members)
                euler_fine, euler_fine_ms = refined_run.result()
                break
            except CflError as err:
                if attempt == len(candidates):
                    raise RuntimeError(f"sweep failed at its smallest step "
                                       f"dt={dt}: {err}") from err
    viscous, euler_base = base_runs[:-1], base_runs[-1]

    if not np.allclose(euler_fine.times, euler_base.times, atol=1e-9):
        raise RuntimeError("reference snapshot times do not align with the sweep")
    ref = _interpolate_to_base(_omega_stack(euler_fine), m, base_grid, fine_grid)

    def sup_diff(stack, q):
        return float(np.max(lp_norms(np.abs(stack - ref), base_grid, q)))

    base_stack = _omega_stack(euler_base)
    euler_floor = {q: sup_diff(base_stack, q) for q in config.q_list}

    rows = []
    for traj in viscous:
        stack = _omega_stack(traj)
        sup_lp = float(np.max(lp_norms(np.abs(stack), base_grid, config.p)))
        slack = renormalized_slack(traj, config.phi, config.slack_q)
        ok = _energy_ok(traj.series)
        for q in config.q_list:
            rows.append({"nu": traj.config.nu, "q": q, "sup_lq_diff": sup_diff(stack, q),
                         "sup_lp_enstrophy": sup_lp, "energy_ok": ok,
                         "renorm_slack": slack, "wall_ms": ensemble_ms})
    for row in rows:
        for key, value in row.items():
            if not np.isfinite(float(value)):
                raise RuntimeError(f"non-finite report entry {key} at nu={row['nu']}")

    resolved = config.to_dict()
    resolved["base"]["dt"] = dt
    metadata = {"n_steps": n_steps, "dt": dt, "attempts": attempt,
                "refined_n_steps": len(euler_fine.series["t"]) - 1,
                "base_grid": [base.n_r, base.n_theta],
                "refined_grid": [m * base.n_r, m * base.n_theta],
                "ensemble_wall_ms": ensemble_ms,
                "euler_refined_wall_ms": euler_fine_ms}
    return ConvergenceReport(rows=tuple(rows), euler_floor=euler_floor,
                             config=resolved, metadata=metadata,
                             runs={"viscous": viscous, "euler_base": euler_base,
                                   "euler_refined": euler_fine})

"""Command line entry points: single simulations, the vanishing viscosity
sweep, ellipticity checks, and trajectory diagnostics.

Verbs:

    slipdisk simulate <config.json> [--out DIR]
    slipdisk sweep    <config.json> [--out DIR]
    slipdisk adn      <problem.json> [--out FILE] (exit 0 pass, 1 fail, 2 parse error)
    slipdisk diagnose <trajectory-dir> [--out FILE]

Run directories hold config-resolved.json, series.csv, and (simulate)
snapshots.npz. Identical configs reproduce identical outputs except the
wall_ms column, which reports measured wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
# Unused: perfbench/layers.py looks this name up; the next benchmark change removes it.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np
from scipy.interpolate import CubicSpline

from . import adn as adn_mod
from .biot_savart import solve_poisson_dirichlet
from .diagnostics import (enstrophy_balance_residual, extended_tangent,
                          navier_residuals, renormalized_slack,
                          weak_form_residual)
from .field import ScalarField, VectorField, lp_norm, perp_grad
from .geometry import build_grid
from .ns_solver import (CflError, SimConfig, Trajectory, cfl_bound,
                        initial_vorticity, simulate, simulate_ensemble)
from .pressure import recover_pressure

ENERGY_RATE_TOL = 1e-6
DEFAULT_PHI = {"bump": {"center": (0.0, 0.0), "radius": 0.9, "amplitude": 1.0}}
CSV_COLUMNS = ("nu", "q", "sup_lq_diff", "sup_lp_enstrophy",
               "energy_ok", "renorm_slack", "wall_ms")


# ---------------------------------------------------------------------------
# sweep configuration and report
# ---------------------------------------------------------------------------

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
        self.nu_list = tuple(float(v) for v in self.nu_list)
        self.q_list = tuple(float(q) for q in self.q_list)
        self.p = float(self.p)
        if not self.nu_list or any(v <= 0 for v in self.nu_list):
            raise ValueError("nu_list must be nonempty positive reals")
        if any(a <= b for a, b in zip(self.nu_list, self.nu_list[1:])):
            raise ValueError(f"nu_list must be strictly descending, got {self.nu_list}")
        if self.p <= 2:
            raise ValueError(f"p must exceed 2, got {self.p}")
        for q in self.q_list + (self.slack_q,):
            if not 1.0 <= q < self.p:
                raise ValueError(f"exponent q={q} must lie in [1, p={self.p})")
        if self.euler_refinement_factor < 2:
            raise ValueError("euler_refinement_factor must be >= 2")
        if self.p not in self.base.lp_exponents:
            self.base = replace(self.base,
                                lp_exponents=self.base.lp_exponents + (self.p,))

    @classmethod
    def from_dict(cls, d: dict) -> "SweepConfig":
        known = {"base", "nu_list", "q_list", "p", "euler_refinement_factor",
                 "slack_q", "phi"}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown sweep config keys: {sorted(unknown)}")
        kwargs = dict(d)
        kwargs["base"] = SimConfig.from_dict(d["base"])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path) -> "SweepConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {"base": self.base.to_dict(), "nu_list": list(self.nu_list),
                "q_list": list(self.q_list), "p": self.p,
                "euler_refinement_factor": self.euler_refinement_factor,
                "slack_q": self.slack_q, "phi": self.phi}


@dataclass(frozen=True)
class ConvergenceReport:
    """One row per (nu, q) pair plus the inviscid reference's own
    discretization floor, against which the convergence column is read."""
    rows: tuple
    euler_floor: dict
    config: dict
    metadata: dict

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            lines.append(",".join(
                repr(int(row[c])) if c == "energy_ok"
                else repr(float(row[c])) for c in CSV_COLUMNS))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {"rows": list(self.rows), "euler_floor": self.euler_floor,
                   "config": self.config, "metadata": self.metadata}
        return json.dumps(payload, indent=2, sort_keys=True)

    def write(self, out_dir) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "series.csv"), "w") as fh:
            fh.write(self.to_csv())
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")
        with open(os.path.join(out_dir, "config-resolved.json"), "w") as fh:
            json.dump(self.config, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _energy_ok(series: dict) -> bool:
    e = np.asarray(series["energy"])
    t = np.asarray(series["t"])
    slack = ENERGY_RATE_TOL * e[0] * np.diff(t)
    return bool(np.all(np.diff(e) <= slack))


def _interpolate_to_base(values: np.ndarray, factor: int, base_grid,
                         fine_grid) -> np.ndarray:
    """Refined-grid field to the base grid: the angular nodes nest, so
    subsample; the radial nodes are staggered, so cubic-spline."""
    sub = values[:, ::factor]
    return CubicSpline(fine_grid.r, sub, axis=0)(base_grid.r)


def _timed_run(run, arg):
    """run(arg) and its wall time in milliseconds."""
    start = time.perf_counter()
    result = run(arg)
    return result, 1e3 * (time.perf_counter() - start)


def run_sweep(config: SweepConfig, return_runs: bool = False):
    """Run the sweep and assemble the report.

    All runs share one fixed dt, so snapshot times align exactly across
    the sweep. The step is sized by the CFL bound of the initial velocity
    on the refined grid: refining the grid by a factor shrinks the
    near-center angular bound by its square while the reference step
    shrinks only linearly, so the refined run is the binding constraint.
    The viscous runs and the base-grid inviscid run share everything but
    the viscosity and are stepped as one ensemble; the refined run
    follows it.

    With return_runs the trajectories come back too, as
    (report, {"viscous": [...], "euler_base": ..., "euler_refined": ...}).
    """
    base = config.base
    m = config.euler_refinement_factor
    base_grid = build_grid(base.n_r, base.n_theta)
    fine_grid = build_grid(m * base.n_r, m * base.n_theta)

    if base.dt == "auto":
        omega0 = initial_vorticity(base.initial_condition, fine_grid)
        u0 = perp_grad(solve_poisson_dirichlet(omega0))
        bound = cfl_bound(u0)
        if not np.isfinite(bound):
            bound = base.t_end
        # The velocity maximum can grow during the run, so the initial
        # bound is tried with successively harder margins; a CFL trip in
        # any run restarts the whole sweep so the shared step survives.
        candidates = [m * margin * bound for margin in (0.6, 0.3, 0.15)]
    else:
        candidates = [float(base.dt)]

    def variant(nu, n_r, n_theta, step, stride):
        return SimConfig(nu=nu, t_end=base.t_end,
                         initial_condition=base.initial_condition,
                         alpha=base.alpha, dt=step, n_r=n_r, n_theta=n_theta,
                         output_stride=stride,
                         lp_exponents=base.lp_exponents, tol=base.tol)

    for attempt, dt_try in enumerate(candidates, start=1):
        n_steps = max(1, int(np.ceil(base.t_end / dt_try - 1e-12)))
        dt = base.t_end / n_steps
        members = [variant(nu, base.n_r, base.n_theta, dt, base.output_stride)
                   for nu in config.nu_list + (0.0,)]
        refined = variant(0.0, m * base.n_r, m * base.n_theta, dt / m,
                          m * base.output_stride)
        try:
            base_runs, ensemble_ms = _timed_run(simulate_ensemble, members)
            euler_fine, euler_fine_ms = _timed_run(simulate, refined)
            break
        except CflError as err:
            if attempt == len(candidates):
                raise RuntimeError(f"sweep failed at its smallest step "
                                   f"dt={dt}: {err}") from err
    viscous, euler_base = base_runs[:-1], base_runs[-1]

    if not np.allclose(euler_fine.times, euler_base.times, atol=1e-9):
        raise RuntimeError("reference snapshot times do not align with the sweep")
    ref = [_interpolate_to_base(om.values, m, base_grid, fine_grid)
           for om in euler_fine.omegas]

    def sup_diff(traj, q):
        return max(lp_norm(ScalarField(base_grid, om.values - rv), q)
                   for om, rv in zip(traj.omegas, ref))

    euler_floor = {q: sup_diff(euler_base, q) for q in config.q_list}

    rows = []
    for nu, traj in zip(config.nu_list, viscous):
        if not np.allclose(traj.times, euler_fine.times, atol=1e-9):
            raise RuntimeError(f"snapshot times for nu={nu} do not align")
        sup_lp = max(lp_norm(om, config.p) for om in traj.omegas)
        slack = renormalized_slack(traj, config.phi, config.slack_q, nu)
        ok = _energy_ok(traj.series)
        for q in config.q_list:
            rows.append({"nu": nu, "q": q, "sup_lq_diff": sup_diff(traj, q),
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
    report = ConvergenceReport(rows=tuple(rows), euler_floor=euler_floor,
                               config=resolved, metadata=metadata)
    if return_runs:
        return report, {"viscous": viscous,
                        "euler_base": euler_base, "euler_refined": euler_fine}
    return report


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    config = SimConfig.from_json(args.config)
    out = args.out or os.path.join("runs", _stem(args.config))
    traj, wall_ms = _timed_run(simulate, config)
    traj.save(out)
    times = traj.series["t"]
    report = {"config": config.to_dict(),
              "dt_first_step": float(times[1] - times[0]) if len(times) > 1 else None,
              "n_steps": len(times) - 1, "n_snapshots": len(traj.times),
              "wall_ms": wall_ms}
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"simulate: {report['n_steps']} steps, {len(traj.times)} snapshots -> {out}")
    return 0


def _cmd_sweep(args) -> int:
    config = SweepConfig.from_json(args.config)
    out = args.out or os.path.join("runs", _stem(args.config))
    report = run_sweep(config)
    report.write(out)
    for row in report.rows:
        print(f"nu={row['nu']:.3g} q={row['q']:.3g}: sup_diff={row['sup_lq_diff']:.4e} "
              f"sup_lp={row['sup_lp_enstrophy']:.4e} energy_ok={int(row['energy_ok'])}")
    floors = " ".join(f"q={q:.3g}: {v:.4e}" for q, v in report.euler_floor.items())
    print(f"euler self-convergence floor: {floors}")
    print(f"report -> {out}")
    return 0


def _cmd_adn(args) -> int:
    try:
        problem = adn_mod.load_problem(args.problem)
    except (json.JSONDecodeError, KeyError, ValueError, OSError, TypeError) as err:
        print(f"cannot parse problem file {args.problem}: {err}", file=sys.stderr)
        return 2
    report = adn_mod.check_all(problem, args.boundary_samples, args.xi_samples)
    out = args.out or os.path.splitext(args.problem)[0] + ".report.json"
    with open(out, "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    status = "pass" if report.passed else "fail"
    print(f"{problem.name or 'problem'}: {status} "
          f"(m={report.m}, det in [{report.ellipticity_min:.3e}, "
          f"{report.ellipticity_max:.3e}]) -> {out}")
    return 0 if report.passed else 1


def _cmd_diagnose(args) -> int:
    traj = Trajectory.load(args.run_dir)
    config = traj.config
    nu = config.nu
    tol = config.tol or {}

    worst = {}
    for u, om in zip(traj.us, traj.omegas):
        rep = navier_residuals(u, om, traj.trace)
        for k, v in rep.residuals.items():
            worst[k] = max(worst.get(k, 0.0), v)
    v_field = VectorField(traj.grid, np.zeros(traj.grid.shape),
                          np.tile(traj.grid.r[:, None], (1, traj.grid.n_theta)))
    wf = weak_form_residual(traj, v_field, nu)
    pressures = [recover_pressure(u, om, nu, traj.trace)
                 for u, om in zip(traj.us, traj.omegas)]
    tau_bar = extended_tangent(traj.grid, traj.trace)
    eb = enstrophy_balance_residual(traj, tau_bar, nu, pressures)

    def section(value, key):
        entry = {"max": value, "tolerance": tol.get(key)}
        if tol.get(key) is not None:
            entry["pass"] = bool(value <= tol[key])
        return entry

    report = {"config": config.to_dict(),
              "navier": section(worst["navier_condition"], "navier"),
              "navier_curves": worst,
              "weak_form": section(wf.max_value, "weakform"),
              "balance": section(eb.max_value, "balance")}
    out = args.out or os.path.join(args.run_dir, "diagnostics.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    verdicts = [report[k].get("pass") for k in ("navier", "weak_form", "balance")]
    for key in ("navier", "weak_form", "balance"):
        entry = report[key]
        state = {True: "pass", False: "FAIL", None: "reported"}[entry.get("pass")]
        print(f"{key}: max {entry['max']:.4e} [{state}]")
    print(f"report -> {out}")
    return 1 if False in verdicts else 0


def _stem(path) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="slipdisk",
                                     description="Slip-boundary disk flow laboratory")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_sim = sub.add_parser("simulate", help="run one simulation")
    p_sim.add_argument("config")
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run the viscosity sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_adn = sub.add_parser("adn", help="check ellipticity conditions")
    p_adn.add_argument("problem")
    p_adn.add_argument("--out", default=None)
    p_adn.add_argument("--boundary-samples", type=int, default=32)
    p_adn.add_argument("--xi-samples", type=int, default=8)
    p_adn.set_defaults(func=_cmd_adn)

    p_diag = sub.add_parser("diagnose", help="evaluate residuals on a saved run")
    p_diag.add_argument("run_dir")
    p_diag.add_argument("--out", default=None)
    p_diag.set_defaults(func=_cmd_diagnose)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

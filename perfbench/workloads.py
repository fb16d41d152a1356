"""The three benchmark workloads: their inputs, one job each, and the
checks every job's outputs must pass.

Seed 0 reproduces the configurations in README.md and the acceptance
fixture exactly. Any other seed rotates the bump's center about the
origin by an angle drawn from the seed, keeping radius and amplitude, so
step counts stay comparable while the inputs differ bitwise. Outputs of
seed 0 are compared with `reference.json`; every seed is checked
against invariants any correct solver keeps.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time

import numpy as np

# Imported from the checkout's src/ by run.py before this module loads.
from slipdisk import cli, ns_solver, pressure

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Relative deviation from the seed-0 reference a deterministic output may
# show before the job fails: far above roundoff reordering (a changed
# tridiagonal or FFT path moves these by ~1e-12), far below any change
# to the discretization.
REL_TOL = 1e-6
# Pressure Poisson residual (max norm) treated as roundoff: the seed
# commit leaves about 5e-10 on the 64^2 bump run.
PRESSURE_RESIDUAL_MAX = 1e-7

ADN_PROBLEM = {"builtin": "navier_laplacian", "alpha": 1.0}
ADN_BOUNDARY_SAMPLES = 64
ADN_XI_SAMPLES = 16


def bump(seed: int) -> dict:
    """The README bump, its center rotated by a seed-drawn angle."""
    if seed == 0:
        center = [0.3, 0.0]
    else:
        phi = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi)
        center = [0.3 * math.cos(phi), 0.3 * math.sin(phi)]
    return {"bump": {"center": center, "radius": 0.4, "amplitude": 8.0}}


def sim_config(seed: int, output_stride: int = 50) -> ns_solver.SimConfig:
    return ns_solver.SimConfig(nu=0.01, t_end=0.5, initial_condition=bump(seed),
                               alpha=1.0, dt="auto", n_r=64, n_theta=64,
                               output_stride=output_stride, lp_exponents=(2.0, 4.0))


def sweep_config(seed: int) -> cli.SweepConfig:
    base = ns_solver.SimConfig(nu=0.0, t_end=0.5, initial_condition=bump(seed),
                               alpha=1.0, n_r=32, n_theta=32, output_stride=50,
                               lp_exponents=(2.0, 4.0))
    return cli.SweepConfig(base=base, nu_list=(0.1, 0.03, 0.01, 0.003, 0.001),
                           q_list=(2.0,), p=4.0, euler_refinement_factor=2)


class JobResult:
    """What one job produced: values compared with the reference,
    invariant verdicts, and facts reported but not checked."""

    def __init__(self):
        self.values: dict[str, float] = {}
        self.invariants: dict[str, bool] = {}
        self.info: dict[str, float] = {}


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> None:
        """Generate the job's inputs (untimed by the job)."""

    def run(self):
        """One job, the unit of work the benchmark times."""
        raise NotImplementedError

    def outputs(self, raw) -> JobResult:
        """Extract what `check` needs from a job's result (untimed)."""
        raise NotImplementedError


class Sim64(Workload):
    """simulate + Trajectory.save on the README config at 64^2."""
    name = "sim64"

    def run(self):
        traj = ns_solver.simulate(sim_config(self.seed))
        traj.save(os.path.join(self.work_dir, "sim64-run"))
        return traj

    def outputs(self, traj) -> JobResult:
        run_dir = os.path.join(self.work_dir, "sim64-run")
        out = JobResult()
        series = traj.series
        for key in ("energy", "enstrophy_2", "enstrophy_4", "bc_residual"):
            out.values[f"final.{key}"] = float(series[key][-1])
        out.invariants["finite"] = all(bool(np.all(np.isfinite(v))) for v in series.values())
        out.invariants["energy_ok"] = cli._energy_ok(series)
        out.info["steps"] = len(series["t"]) - 1
        out.info["snapshot_bytes"] = os.path.getsize(os.path.join(run_dir, "snapshots.npz"))
        return out


class Sweep32(Workload):
    """run_sweep on the acceptance fixture's sweep with a 32^2 base grid."""
    name = "sweep32"

    def run(self):
        return cli.run_sweep(sweep_config(self.seed))

    def outputs(self, report) -> JobResult:
        out = JobResult()
        finite = True
        for row in report.rows:
            tag = f"nu={row['nu']:g},q={row['q']:g}"
            for key in ("sup_lq_diff", "sup_lp_enstrophy", "renorm_slack"):
                out.values[f"{tag}.{key}"] = float(row[key])
                finite &= math.isfinite(row[key])
            out.invariants[f"{tag}.energy_ok"] = bool(row["energy_ok"])
        for q, floor in report.euler_floor.items():
            out.values[f"euler_floor.q={q:g}"] = float(floor)
            finite &= math.isfinite(floor)
        out.invariants["finite"] = finite
        out.info["steps"] = report.metadata["n_steps"]
        return out


class Analyze(Workload):
    """The diagnose verb on a saved 64^2 run with 236 snapshots, then the
    adn verb on the built-in slip problem, both through cli.main."""
    name = "analyze"

    def setup(self) -> None:
        traj = ns_solver.simulate(sim_config(self.seed, output_stride=5))
        self.run_dir = os.path.join(self.work_dir, "analyze-run")
        traj.save(self.run_dir)
        # The last snapshot stays in memory for the pressure invariant.
        self.last = (traj.us[-1], traj.omegas[-1], traj.config.nu, traj.trace)
        self.problem = os.path.join(self.work_dir, "slip.json")
        with open(self.problem, "w") as fh:
            json.dump(ADN_PROBLEM, fh)

    def run(self):
        diag_out = os.path.join(self.work_dir, "diagnostics.json")
        adn_out = os.path.join(self.work_dir, "adn.json")
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            diag_code = cli.main(["diagnose", self.run_dir, "--out", diag_out])
            mid = time.perf_counter()
            adn_code = cli.main(["adn", self.problem, "--out", adn_out,
                                 "--boundary-samples", str(ADN_BOUNDARY_SAMPLES),
                                 "--xi-samples", str(ADN_XI_SAMPLES)])
            end = time.perf_counter()
        return diag_code, adn_code, mid - start, end - mid

    def outputs(self, raw) -> JobResult:
        diag_code, adn_code, diagnose_s, adn_s = raw
        diag_out = os.path.join(self.work_dir, "diagnostics.json")
        adn_out = os.path.join(self.work_dir, "adn.json")
        out = JobResult()
        out.info["diagnose_s"] = diagnose_s
        out.info["adn_s"] = adn_s
        with open(diag_out) as fh:
            diag = json.load(fh)
        with open(adn_out) as fh:
            adn = json.load(fh)
        for key, value in diag["navier_curves"].items():
            out.values[f"navier.{key}"] = float(value)
        out.values["weak_form.max"] = float(diag["weak_form"]["max"])
        out.values["balance.max"] = float(diag["balance"]["max"])
        out.values["adn.det_min"] = float(adn["ellipticity_min"])
        out.values["adn.det_max"] = float(adn["ellipticity_max"])
        out.invariants["finite"] = all(math.isfinite(v) for v in out.values.values())
        out.invariants["diagnose_exit_0"] = diag_code == 0
        out.invariants["adn_pass"] = adn_code == 0 and adn["passed"] and all(
            adn["verdicts"].values())
        ps = pressure.recover_pressure(*self.last)
        out.invariants["pressure_residual"] = ps.pde_residual <= PRESSURE_RESIDUAL_MAX
        return out


WORKLOADS = {w.name: w for w in (Sim64, Sweep32, Analyze)}


def load_reference(workload: str, seed: int) -> dict | None:
    """Seed-0 reference values of a workload; None for other seeds."""
    if seed != 0:
        return None
    with open(REFERENCE) as fh:
        return json.load(fh)[workload]


def check(result: JobResult, reference: dict | None) -> tuple[list[str], float]:
    """Failed checks of one job, and its largest relative deviation from
    the reference (0 when there is no reference)."""
    failures = [name for name, ok in result.invariants.items() if not ok]
    max_dev = 0.0
    if reference is not None:
        if set(reference) != set(result.values):
            failures.append("reference keys differ: "
                            f"{sorted(set(reference) ^ set(result.values))}")
        for key in set(reference) & set(result.values):
            ref, got = reference[key], result.values[key]
            dev = abs(got - ref) / abs(ref) if ref else abs(got)
            max_dev = max(max_dev, dev)
            if not dev <= REL_TOL:
                failures.append(f"{key}: {got!r} vs reference {ref!r} (rel dev {dev:.3e})")
    return failures, max_dev

"""Argument parsing for the four verbs (also as python -m slipdisk <verb> ...):

    slipdisk simulate <config.json> [--out DIR] (exit 1 run stopped, 2 unreadable config)
    slipdisk sweep    <config.json> [--out DIR] (exit 1 run stopped, 2 unreadable config)
    slipdisk adn      <problem.json> [--out FILE] [--boundary-samples N] [--xi-samples N]
                      (exit 0 pass, 1 fail, 2 unusable problem or fewer than 8 samples)
    slipdisk diagnose <trajectory-dir> [--out FILE] (exit 0 pass or no verdict, 1 a failing
                                                     verdict, 2 unreadable run directory
                                                     or fewer than 2 snapshots)

Run directories hold config-resolved.json, series.csv, and (simulate)
snapshots.npz with the vorticity snapshots; diagnose takes everything
from the run directory. The engines live in ns_solver (simulate), sweep,
adn and diagnostics (diagnose); this module reads their inputs, calls
them, writes their reports and prints a summary; it holds no input rule
of its own. A verb that cannot go on raises _Refusal, and main alone
prints its one line "cannot <what> <path>: <reason>" on stderr and
returns its exit code, with nothing written. Code 2: an unusable input
or an --out the verb cannot write, refused by _load before any work (a
directory where a file goes, or an existing file where a directory goes
or on the way to one), an input size that cannot be allocated (a grid
or an adn sample count, numpy's MemoryError), or an engine's ValueError
(check_all's fewer than 8 samples, diagnose's fewer than 2 snapshots).
Code 1: a simulate or sweep run that stops on a CFL trip or a
divergence, a sweep's non-finite report entry included. Each output file
goes through ns_solver.write_atomically, which makes a missing --out
directory.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import adn as adn_mod
from .diagnostics import diagnose
from .ns_solver import (CflError, DivergenceError, SimConfig, Trajectory, simulate,
                        write_json)
from .sweep import SweepConfig, _timed_run, run_sweep

# Unused here: perfbench/ looks these two names up in this module.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from .sweep import _energy_ok  # noqa: F401


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

class _Refusal(Exception):
    """args (code, line): a verb's input it cannot use (code 2) or a run
    that cannot go on (code 1), and its one line "cannot <what> <path>:
    <reason>", which main prints on stderr before returning the code."""


def _run(what, path, call, errors=(CflError, DivergenceError), code=1):
    """call(), or a _Refusal with code if it raises one of errors: by
    default a simulate or sweep run that cannot go on (code 1). adn and
    diagnose pass ValueError, their engine's refusal of its input, with
    code 2 (adn also MemoryError, a sample count that cannot be
    allocated), so a TypeError or KeyError inside an engine keeps its
    traceback. Any other error propagates."""
    try:
        return call()
    except errors as err:
        raise _Refusal(code, f"cannot {what} {path}: {err}") from None


def _load(what, loader, path):
    """loader(path), or a _Refusal with code 2: the refusal of every
    verb's unusable input, a size that cannot be allocated included."""
    return _run(what, path, lambda: loader(path),
                (KeyError, ValueError, OSError, TypeError, MemoryError), 2)


def _out_dir(path):
    """path, or NotADirectoryError if the nearest of path and its
    ancestors that exists is not a directory: an output directory that
    cannot be made."""
    probe = path
    while probe and not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if probe and not os.path.isdir(probe):
        raise NotADirectoryError(f"{probe} is not a directory")
    return path


def _out_file(path):
    """path, or an OSError if no output file can be written there: path
    is a directory, or its directory cannot be made (_out_dir)."""
    if os.path.isdir(path):
        raise IsADirectoryError(f"{path} is a directory")
    _out_dir(os.path.dirname(path))
    return path


def _cmd_simulate(args) -> int:
    config = _load("read config", SimConfig.from_json, args.config)
    out = _load("write to", _out_dir, args.out or os.path.join("runs", _stem(args.config)))
    traj, wall_ms, cpu_ms = _run("simulate", args.config,
                                 lambda: _timed_run(simulate, config))
    traj.save(out)
    times = traj.series["t"]
    n_steps = len(times) - 1
    report = {"config": config.to_dict(),
              "dt_first_step": float(times[1] - times[0]),
              "n_steps": n_steps, "n_snapshots": len(traj.times),
              "wall_ms": wall_ms, "cpu_ms": cpu_ms, "ms_per_step": wall_ms / n_steps}
    write_json(os.path.join(out, "report.json"), report)
    print(f"simulate: {report['n_steps']} steps, {len(traj.times)} snapshots -> {out}")
    return 0


def _cmd_sweep(args) -> int:
    config = _load("read config", SweepConfig.from_json, args.config)
    out = _load("write to", _out_dir, args.out or os.path.join("runs", _stem(args.config)))
    report = _run("sweep", args.config, lambda: run_sweep(config))
    report.write(out)
    for row in report.rows:
        print(f"nu={row['nu']:.3g} q={row['q']:.3g}: sup_diff={row['sup_lq_diff']:.4e} "
              f"sup_lp={row['sup_lp_enstrophy']:.4e} energy_ok={int(row['energy_ok'])}")
    floors = " ".join(f"q={q:.3g}: {v:.4e}" for q, v in report.euler_floor.items())
    print(f"euler self-convergence floor: {floors}")
    print(f"report -> {out}")
    return 0


def _cmd_adn(args) -> int:
    problem = _load("parse problem file", adn_mod.load_problem, args.problem)
    out = _load("write to", _out_file,
                args.out or os.path.splitext(args.problem)[0] + ".report.json")
    report = _run("check problem", args.problem,
                  lambda: adn_mod.check_all(problem, args.boundary_samples, args.xi_samples),
                  (ValueError, MemoryError), 2)
    write_json(out, report.to_dict())
    status = "pass" if report.passed else "fail"
    print(f"{problem.name or 'problem'}: {status} "
          f"(m={report.m}, det in [{report.ellipticity_min:.3e}, "
          f"{report.ellipticity_max:.3e}]) -> {out}")
    return 0 if report.passed else 1


def _cmd_diagnose(args) -> int:
    traj = _load("load run directory", Trajectory.load, args.run_dir)
    out = _load("write to", _out_file, args.out or os.path.join(args.run_dir, "diagnostics.json"))
    report = _run("diagnose run directory", args.run_dir, lambda: diagnose(traj), ValueError, 2)
    write_json(out, report)
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
    try:
        return args.func(args)
    except _Refusal as refusal:
        code, line = refusal.args
        print(line, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

"""Argument parsing for the four verbs (also as python -m slipdisk <verb> ...):

    slipdisk simulate <config.json> [--out DIR] (exit 2 unreadable config)
    slipdisk sweep    <config.json> [--out DIR] (exit 2 unreadable config)
    slipdisk adn      <problem.json> [--out FILE] (exit 0 pass, 1 fail, 2 unusable problem)
    slipdisk diagnose <trajectory-dir> [--out FILE] (exit 2 unreadable run directory
                                                     or fewer than 2 snapshots)

Run directories hold config-resolved.json, series.csv, and (simulate)
snapshots.npz with the vorticity snapshots; diagnose takes everything
from the run directory. The engines live in ns_solver (simulate), sweep,
adn and diagnostics (diagnose); this module reads their inputs, calls
them, writes their reports and prints a summary. Each verb's input is
read by _load, which refuses it in one line; so is an --out the verb
cannot write (exit 2, before any work): a directory where a file goes,
or an existing file where a directory goes or on the way to one. Each
output file goes through ns_solver.write_atomically, which makes a
missing --out directory.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import adn as adn_mod
from .diagnostics import diagnose
from .ns_solver import SimConfig, Trajectory, simulate, write_json
from .sweep import SweepConfig, _timed_run, run_sweep

# Unused here: perfbench/ looks these two names up in this module.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from .sweep import _energy_ok  # noqa: F401


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _load(what, loader, path):
    """loader(path), or None after the one line "cannot <what> <path>: <err>"
    on stderr: the refusal of every verb's unusable input."""
    try:
        return loader(path)
    except (KeyError, ValueError, OSError, TypeError) as err:
        print(f"cannot {what} {path}: {err}", file=sys.stderr)
        return None


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
    if config is None:
        return 2
    out = _load("write to", _out_dir, args.out or os.path.join("runs", _stem(args.config)))
    if out is None:
        return 2
    traj, wall_ms = _timed_run(simulate, config)
    traj.save(out)
    times = traj.series["t"]
    report = {"config": config.to_dict(),
              "dt_first_step": float(times[1] - times[0]) if len(times) > 1 else None,
              "n_steps": len(times) - 1, "n_snapshots": len(traj.times),
              "wall_ms": wall_ms}
    write_json(os.path.join(out, "report.json"), report)
    print(f"simulate: {report['n_steps']} steps, {len(traj.times)} snapshots -> {out}")
    return 0


def _cmd_sweep(args) -> int:
    config = _load("read config", SweepConfig.from_json, args.config)
    if config is None:
        return 2
    out = _load("write to", _out_dir, args.out or os.path.join("runs", _stem(args.config)))
    if out is None:
        return 2
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
    problem = _load("parse problem file", adn_mod.load_problem, args.problem)
    if problem is None:
        return 2
    out = _load("write to", _out_file,
                args.out or os.path.splitext(args.problem)[0] + ".report.json")
    if out is None:
        return 2
    report = adn_mod.check_all(problem, args.boundary_samples, args.xi_samples)
    write_json(out, report.to_dict())
    status = "pass" if report.passed else "fail"
    print(f"{problem.name or 'problem'}: {status} "
          f"(m={report.m}, det in [{report.ellipticity_min:.3e}, "
          f"{report.ellipticity_max:.3e}]) -> {out}")
    return 0 if report.passed else 1


def _cmd_diagnose(args) -> int:
    traj = _load("load run directory", Trajectory.load, args.run_dir)
    if traj is None:
        return 2
    if len(traj.times) < 2:
        print(f"cannot diagnose run directory {args.run_dir}: {len(traj.times)} "
              f"snapshot(s), the balances need at least 2", file=sys.stderr)
        return 2
    out = _load("write to", _out_file, args.out or os.path.join(args.run_dir, "diagnostics.json"))
    if out is None:
        return 2
    report = diagnose(traj)
    write_json(out, report)
    verdicts = [report[k].get("pass") for k in ("navier", "weak_form", "balance")]
    for key in ("navier", "weak_form", "balance"):
        entry = report[key]
        state = {True: "pass", False: "FAIL", None: "reported"}[entry.get("pass")]
        print(f"{key}: max {entry['max']:.4e} [{state}]")
    print(f"report -> {out}")
    return 1 if False in verdicts else 0


def _sample_count(text: str) -> int:
    """argparse type of the adn sample counts: an integer of at least 8."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if count < 8:
        raise argparse.ArgumentTypeError(f"need at least 8 samples, got {count}")
    return count


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
    p_adn.add_argument("--boundary-samples", type=_sample_count, default=32)
    p_adn.add_argument("--xi-samples", type=_sample_count, default=8)
    p_adn.set_defaults(func=_cmd_adn)

    p_diag = sub.add_parser("diagnose", help="evaluate residuals on a saved run")
    p_diag.add_argument("run_dir")
    p_diag.add_argument("--out", default=None)
    p_diag.set_defaults(func=_cmd_diagnose)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

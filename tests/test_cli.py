"""Command line verbs and the viscosity sweep.

Sweep configuration validation, the frozen CSV schema, determinism of a
tiny sweep (identical output modulo wall-clock), the steady-state sweep
whose differences must be roundoff, and the four verbs driven through
main() with their exit code contract.
"""

import functools
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from slipdisk import (CflError, DivergenceError, ScalarField, SimConfig, SweepConfig,
                      Trajectory, load_problem, lp_norm, main, run_sweep, simulate, sweep)
from slipdisk.geometry import build_grid
from slipdisk.sweep import CSV_COLUMNS, _energy_ok, _interpolate_to_base


def _env_with_src_on_path():
    """os.environ with this checkout's src/ first on PYTHONPATH, for
    subprocesses."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _tiny_base(**kw):
    defaults = dict(nu=0.05, t_end=0.05,
                    initial_condition={"bump": {"center": (0.2, 0.0),
                                                "radius": 0.4, "amplitude": 2.0}},
                    alpha=1.0, n_r=16, n_theta=16, output_stride=20)
    defaults.update(kw)
    return SimConfig(**defaults)


# ---------------------------------------------------------------------------
# sweep configuration
# ---------------------------------------------------------------------------

def test_sweep_config_validation():
    base = _tiny_base()
    good = dict(base=base, nu_list=(0.1, 0.01), q_list=(2.0,), p=4.0)
    SweepConfig(**good)
    with pytest.raises(ValueError, match="descending"):
        SweepConfig(**{**good, "nu_list": (0.01, 0.1)})
    with pytest.raises(ValueError, match="positive"):
        SweepConfig(**{**good, "nu_list": (0.1, -0.01)})
    with pytest.raises(ValueError, match="must exceed 2"):
        SweepConfig(**{**good, "p": 2.0})
    # an empty q_list ran every simulation and reported no rows
    with pytest.raises(ValueError, match="q_list must be a nonempty"):
        SweepConfig(**{**good, "q_list": ()})
    with pytest.raises(ValueError, match="must lie in"):
        SweepConfig(**{**good, "q_list": (4.0,)})
    with pytest.raises(ValueError, match="must lie in"):
        SweepConfig(**{**good, "slack_q": 0.5})
    with pytest.raises(ValueError, match="refinement_factor"):
        SweepConfig(**{**good, "euler_refinement_factor": 1})
    # a repeated q wrote its rows twice while the Euler floor kept one
    for q_list in ((2.0, 2.0), (2, 3.0, 2.0)):
        with pytest.raises(ValueError, match=r"q_list entry 2.0 is repeated in \["):
            SweepConfig(**{**good, "q_list": q_list})


def test_sweep_config_rejects_nan_viscosity_and_phi_off_the_disk():
    # a NaN viscosity passed the descending check, and a test function
    # touching the wall raised only after every run had been simulated
    good = dict(base=_tiny_base(), nu_list=(0.1, 0.01), q_list=(2.0,), p=4.0)
    with pytest.raises(ValueError, match="finite positive"):
        SweepConfig(**{**good, "nu_list": (0.1, float("nan"))})
    with pytest.raises(ValueError, match="finite positive"):
        SweepConfig(**{**good, "nu_list": (float("inf"), 0.1)})
    with pytest.raises(ValueError, match="strictly inside the disk"):
        SweepConfig(**{**good, "phi": {"bump": {"center": (0.5, 0.0), "radius": 0.5}}})
    with pytest.raises(ValueError, match="nonnegative"):
        SweepConfig(**{**good, "phi": {"bump": {"radius": 0.5, "amplitude": -1.0}}})
    with pytest.raises(ValueError, match="phi_spec"):
        SweepConfig(**{**good, "phi": {"gauss": {"radius": 0.5}}})
    # a radius whose square underflows made phi's gradient 0/0
    for radius in (1e-200, 1e-160):
        with pytest.raises(ValueError, match=f"phi radius must be at least .*, got {radius}"):
            SweepConfig(**{**good, "phi": {"bump": {"radius": radius}}})
    least = _tiny_base(initial_condition={"bump": {"radius": 1.5e-154}})
    SweepConfig(**{**good, "base": least, "phi": {"bump": {"radius": 1.5e-154}}})
    SweepConfig(**{**good, "phi": {"zero": {}}})


def test_sweep_config_appends_p_to_tracked_exponents():
    base = _tiny_base(lp_exponents=(2.0,))
    config = SweepConfig(base=base, nu_list=(0.1,), q_list=(2.0,), p=4.0)
    assert 4.0 in config.base.lp_exponents


def test_sweep_config_leaves_callers_base_unchanged():
    base = _tiny_base(lp_exponents=(2.0,))
    before = SimConfig.from_dict(base.to_dict())
    config = SweepConfig(base=base, nu_list=(0.1,), q_list=(2.0,), p=4.0)
    assert base == before
    assert base.lp_exponents == (2.0,)
    assert config.base.lp_exponents == (2.0, 4.0)


def test_sweep_config_keeps_its_refined_runs_config():
    base = _tiny_base(lp_exponents=(2.0,), output_stride=7)
    config = SweepConfig(base=base, nu_list=(0.1,), q_list=(2.0,), p=4.0,
                         euler_refinement_factor=3)
    refined = config.refined
    assert (refined.nu, refined.n_r, refined.n_theta, refined.output_stride) == (
        0.0, 3 * base.n_r, 3 * base.n_theta, 3 * base.output_stride)
    assert refined.lp_exponents == (2.0, 4.0)
    assert refined == replace(config.base, nu=0.0, n_r=48, n_theta=48, output_stride=21)
    assert refined.omega0.shape == refined.grid.shape == (48, 48)
    assert "refined" not in config.to_dict()


def test_sweep_config_dict_roundtrip():
    config = SweepConfig(base=_tiny_base(), nu_list=(0.1, 0.01),
                         q_list=(2.0,), p=4.0)
    again = SweepConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert again.nu_list == config.nu_list
    assert again.base.nu == config.base.nu
    with pytest.raises(ValueError, match="unknown sweep config keys"):
        SweepConfig.from_dict({**config.to_dict(), "extra": 1})


def test_csv_schema_is_frozen():
    assert CSV_COLUMNS == ("nu", "q", "sup_lq_diff", "sup_lp_enstrophy",
                           "energy_ok", "renorm_slack", "wall_ms")


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def test_energy_ok_accepts_decay_rejects_growth():
    t = np.linspace(0.0, 1.0, 50)
    down = {"t": t, "energy": 1.0 + np.exp(-t)}
    up = {"t": t, "energy": 1.0 + 1e-3 * t}
    assert _energy_ok(down)
    assert not _energy_ok(up)


def test_interpolate_to_base_accuracy():
    base = build_grid(24, 16)
    fine = build_grid(48, 32)
    vals = np.cos(3.0 * fine.r)[:, None] * np.cos(2.0 * fine.theta)[None, :]
    got = _interpolate_to_base(vals, base, fine)
    want = np.cos(3.0 * base.r)[:, None] * np.cos(2.0 * base.theta)[None, :]
    assert got.shape == base.shape
    assert np.max(np.abs(got - want)) < 1e-5


@pytest.mark.parametrize("n_base", [16, 32])
def test_interpolate_to_base_reproduces_radial_cubics(n_base):
    # a not-a-knot spline is exact on cubics, whatever the node spacing
    base, fine = build_grid(n_base, 8), build_grid(2 * n_base, 16)

    def cubic(r):
        return 0.3 - 1.7 * r + 2.2 * r ** 2 - 0.9 * r ** 3

    vals = np.stack([k * cubic(fine.r)[:, None] * np.ones(16) for k in (1.0, -2.0)])
    got = _interpolate_to_base(vals, base, fine)
    want = np.stack([k * cubic(base.r)[:, None] * np.ones(8) for k in (1.0, -2.0)])
    assert got.shape == (2,) + base.shape
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("n_base", [16, 32])
def test_interpolate_to_base_matches_scipy_cubic_spline(n_base):
    interpolate = pytest.importorskip("scipy.interpolate")
    base, fine = build_grid(n_base, 8), build_grid(2 * n_base, 16)
    stack = np.random.default_rng(n_base).standard_normal((5, 2 * n_base, 16))
    got = _interpolate_to_base(stack, base, fine)
    want = interpolate.CubicSpline(fine.r, stack[..., ::2], axis=-2)(base.r)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_import_and_sweep_load_no_scipy_beyond_linalg():
    # scipy.interpolate pulls in optimize, special, sparse, spatial, fft
    # and constants: about 270 modules and 22 MB on every import; the
    # scipy.linalg package about 290 more and 23 MB, where the LAPACK
    # wrapper module alone is all the solver calls
    env = _env_with_src_on_path()
    script = """if True:
        import sys
        import slipdisk
        base = slipdisk.SimConfig(nu=0.0, t_end=0.02, initial_condition={"const": 1.0},
                                  n_r=8, n_theta=8, output_stride=10)
        slipdisk.run_sweep(slipdisk.SweepConfig(base=base, nu_list=(0.1,),
                                                q_list=(2.0,), p=4.0))
        print(" ".join(name for name in sys.modules if name.startswith("scipy.")))
    """
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "scipy.linalg._flapack" in loaded
    for name in ("scipy.linalg", "scipy.interpolate", "scipy.optimize", "scipy.special",
                 "scipy.sparse", "scipy.spatial"):
        assert name not in loaded


@pytest.mark.parametrize("first, second", [("slipdisk", "scipy.linalg"),
                                           ("scipy.linalg", "slipdisk")])
def test_one_lapack_module_whichever_is_imported_first(first, second):
    # the solver's wrapper module and scipy.linalg's are one object, so
    # neither import loads the extension a second time
    script = f"""if True:
        import sys
        import {first}
        import {second}
        from slipdisk import _tridiag
        assert _tridiag.lapack is sys.modules["scipy.linalg._flapack"]
        assert scipy.linalg.lapack.zgttrs is _tridiag.lapack.zgttrs
    """
    done = subprocess.run([sys.executable, "-c", script], env=_env_with_src_on_path(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------

def _rigid_sweep_config():
    base = SimConfig(nu=0.1, t_end=0.1, initial_condition={"const": 2.0},
                     alpha=0.0, n_r=16, n_theta=16, output_stride=50)
    return SweepConfig(base=base, nu_list=(0.1, 0.01), q_list=(2.0,), p=4.0,
                       phi={"bump": {"center": (0.0, 0.0), "radius": 0.8}})


def test_rigid_sweep_differences_are_roundoff():
    # rigid rotation is a steady solution of every viscosity, so the
    # viscous runs and the refined inviscid reference agree to grid
    # transfer error and the sup difference column is tiny
    report = run_sweep(_rigid_sweep_config())
    assert len(report.rows) == 2
    for row in report.rows:
        assert row["sup_lq_diff"] < 1e-6
        assert row["energy_ok"]
        assert abs(row["renorm_slack"]) < 1e-10
    assert report.euler_floor[2.0] < 1e-6


def test_rigid_sweep_reports_one_attempt_and_its_steps():
    report = run_sweep(_rigid_sweep_config())
    meta = report.metadata
    assert meta["attempts"] == 1
    assert meta["refined_n_steps"] == 2 * meta["n_steps"]
    assert all(row["wall_ms"] == meta["ensemble_wall_ms"] for row in report.rows)
    # CPU times beside the wall times: the ensemble's in this process, the
    # refined run's in the child that ran it
    for key in ("ensemble_cpu_ms", "euler_refined_cpu_ms"):
        assert isinstance(meta[key], float) and meta[key] > 0.0, key


def test_sweep_is_deterministic_modulo_wall_clock():
    a = run_sweep(_rigid_sweep_config())
    b = run_sweep(_rigid_sweep_config())
    cols = [c for c in CSV_COLUMNS if c != "wall_ms"]
    for ra, rb in zip(a.rows, b.rows):
        for c in cols:
            assert ra[c] == rb[c], c


def test_sweep_report_files(tmp_path):
    report = run_sweep(_rigid_sweep_config())
    out = tmp_path / "sweep"
    report.write(out)
    text = (out / "series.csv").read_text()
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert len(text.splitlines()) == 1 + len(report.rows)
    parsed = json.loads((out / "report.json").read_text())
    assert parsed["rows"][0]["nu"] == 0.1
    resolved = json.loads((out / "config-resolved.json").read_text())
    assert isinstance(resolved["base"]["dt"], float)  # dt resolved to a number


def test_sweep_report_keeps_its_runs():
    report = run_sweep(_rigid_sweep_config())
    runs = report.runs
    assert set(runs) == {"viscous", "euler_base", "euler_refined"}
    assert len(runs["viscous"]) == 2
    assert runs["euler_refined"].grid.n_r == 32
    assert "runs" not in report.to_dict()
    assert "runs" not in repr(report)


def test_sweep_rows_equal_a_per_snapshot_lp_norm_recomputation():
    # the sweep reads each trajectory's snapshot stack at once; snapshot by
    # snapshot, with lp_norm, the same rows and floor come out bit for bit
    config = SweepConfig(base=_tiny_base(nu=0.0), nu_list=(0.1, 0.01),
                         q_list=(1.0, 2.0, 3.0), p=4.0)
    report = run_sweep(config)
    runs = report.runs
    base_grid, fine_grid = runs["euler_base"].grid, runs["euler_refined"].grid
    ref = [_interpolate_to_base(om.values, base_grid, fine_grid)
           for om in runs["euler_refined"].omegas]

    def sup_diff(traj, q):
        return max(lp_norm(ScalarField(base_grid, om.values - rv), q)
                   for om, rv in zip(traj.omegas, ref))

    assert report.euler_floor == {q: sup_diff(runs["euler_base"], q) for q in config.q_list}
    want = [(traj.config.nu, q, sup_diff(traj, q),
             max(lp_norm(om, config.p) for om in traj.omegas))
            for traj in runs["viscous"] for q in config.q_list]
    assert [(r["nu"], r["q"], r["sup_lq_diff"], r["sup_lp_enstrophy"])
            for r in report.rows] == want


def test_sweep_refined_run_matches_an_in_process_run_bitwise():
    # the refined run executes in a worker process; its trajectory must be
    # the one simulate() computes here, bit for bit
    config = SweepConfig(base=_tiny_base(nu=0.0), nu_list=(0.1, 0.01), q_list=(2.0,), p=4.0)
    report = run_sweep(config)
    m, base = config.euler_refinement_factor, config.base
    refined = replace(base, nu=0.0, dt=report.metadata["dt"] / m, n_r=m * base.n_r,
                      n_theta=m * base.n_theta, output_stride=m * base.output_stride)
    here, there = simulate(refined), report.runs["euler_refined"]
    assert there.config == refined
    assert np.array_equal(there.times, here.times)
    assert len(there.omegas) == len(here.omegas) > 1
    assert all(np.array_equal(a.values, b.values) for a, b in zip(there.omegas, here.omegas))
    assert sorted(there.series) == sorted(here.series)
    assert all(np.array_equal(there.series[c], here.series[c]) for c in here.series)
    assert multiprocessing.active_children() == []


def test_sweep_restarts_when_a_candidate_step_trips(monkeypatch):
    # sweep.cfl_bound only sizes the candidates: scaled by 2.5, the first
    # refined step is 1.5x its true bound (the ensemble's stays inside its
    # own, so the trip is the worker's) and the second 0.75x
    true_bound = sweep.cfl_bound
    monkeypatch.setattr(sweep, "cfl_bound", lambda u: 2.5 * true_bound(u))
    report = run_sweep(_rigid_sweep_config())
    assert report.metadata["attempts"] == 2
    assert report.metadata["refined_n_steps"] == 2 * report.metadata["n_steps"]
    assert multiprocessing.active_children() == []


def test_sweep_fails_when_every_candidate_step_trips(monkeypatch):
    true_bound = sweep.cfl_bound
    monkeypatch.setattr(sweep, "cfl_bound", lambda u: 100.0 * true_bound(u))
    with pytest.raises(CflError, match="sweep failed at its smallest step") as info:
        run_sweep(_rigid_sweep_config())
    # both runs trip; the ensemble's error, naming its first member, is raised
    assert info.value.nu == 0.1
    assert multiprocessing.active_children() == []


def _simulate_unless_slept(trips, config):
    """simulate(config), after sleeping 60 s if trips is empty. Defined at
    module level, so that a pool that pickles its tasks can send it too."""
    if not trips:
        time.sleep(60.0)
    return simulate(config)


def test_sweep_kills_the_refined_run_of_a_failed_ensemble(monkeypatch):
    def diverge(members):
        raise DivergenceError("non-finite vorticity")

    monkeypatch.setattr(sweep, "simulate", functools.partial(_simulate_unless_slept, []))
    monkeypatch.setattr(sweep, "simulate_ensemble", diverge)
    start = time.perf_counter()
    with pytest.raises(DivergenceError, match="non-finite vorticity"):
        run_sweep(_rigid_sweep_config())
    assert time.perf_counter() - start < 10.0
    assert multiprocessing.active_children() == []


def test_sweep_restart_does_not_wait_for_the_abandoned_refined_run(monkeypatch):
    # the first attempt's ensemble trips while its refined run sleeps; the
    # second attempt's refined run, started after the trip, does not sleep
    true_ensemble, trips = sweep.simulate_ensemble, []

    def trip_once(members):
        if not trips:
            trips.append(members[0].dt)
            raise CflError(dt=members[0].dt, bound=0.0, max_u=1.0, nu=members[0].nu)
        return true_ensemble(members)

    monkeypatch.setattr(sweep, "simulate", functools.partial(_simulate_unless_slept, trips))
    monkeypatch.setattr(sweep, "simulate_ensemble", trip_once)
    start = time.perf_counter()
    report = run_sweep(_rigid_sweep_config())
    assert time.perf_counter() - start < 10.0
    assert report.metadata["attempts"] == 2
    assert multiprocessing.active_children() == []


def test_rough_data_sweep_converges_above_the_euler_floor():
    # the paper's regime: omega_0 only in L^p, here the capped power law
    # |x - x0|^-0.4 with gamma p = 1.6 < 2. Measured at 32^2 with a 64^2
    # reference: gaps 0.469 ... 0.111 (consecutive ratios <= 0.711), the
    # smallest 1.38x the floor 0.081, slack 0.199 ... 0.0043 (ratios <= 0.42)
    base = SimConfig(nu=0.0, t_end=0.25, alpha=1.0, n_r=32, n_theta=32,
                     initial_condition={"singular": {"center": [0.3, 0.0],
                                                     "gamma": 0.4, "p": 4}},
                     output_stride=50, lp_exponents=(2.0, 4.0))
    report = run_sweep(SweepConfig(base=base, nu_list=(0.1, 0.03, 0.01, 0.003, 0.001),
                                   q_list=(2.0,), p=4.0))
    gaps = [row["sup_lq_diff"] for row in report.rows]
    slack = [row["renorm_slack"] for row in report.rows]
    floor = report.euler_floor[2.0]
    print(f"rough sweep: gaps {np.round(gaps, 4).tolist()} floor {floor:.4f} "
          f"slack {np.round(slack, 4).tolist()}")
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert min(gaps) > floor
    assert all(row["energy_ok"] for row in report.rows)
    assert all(b < a for a, b in zip(slack, slack[1:]))


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def test_simulate_verb_writes_run(tmp_path):
    config = _tiny_base().to_dict()
    cpath = tmp_path / "run.json"
    cpath.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["simulate", str(cpath), "--out", str(out)]) == 0
    names = sorted(os.listdir(out))
    assert names == ["config-resolved.json", "report.json", "series.csv",
                     "snapshots.npz"]
    report = json.loads((out / "report.json").read_text())
    assert report["n_steps"] > 0
    assert report["dt_first_step"] > 0
    assert report["wall_ms"] > 0 and report["cpu_ms"] > 0
    assert report["ms_per_step"] == report["wall_ms"] / report["n_steps"]


def test_simulate_verb_of_one_step_reports_t_end_as_its_first_step(tmp_path):
    # SimConfig refuses t_end <= 0, so every run takes a first step
    config = _tiny_base(t_end=0.01, dt=0.01).to_dict()
    cpath, out = tmp_path / "one.json", tmp_path / "one"
    cpath.write_text(json.dumps(config))
    assert main(["simulate", str(cpath), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["n_steps"] == 1
    assert report["dt_first_step"] == 0.01


def test_diagnose_verb_exit_codes(tmp_path, capsys):
    # diagnose consumes a saved run directory produced by simulate
    # the balance tolerance reflects the 16-ring resolution: the cutoff's
    # large derivative constants put its quadrature defect near 2e-2 there
    config = SimConfig(nu=0.1, t_end=0.05, initial_condition={"const": 2.0},
                       alpha=0.0, n_r=16, n_theta=16, output_stride=20,
                       tol={"navier": 1e-6, "weakform": 1e-6, "balance": 0.05})
    cpath = tmp_path / "diag.json"
    cpath.write_text(json.dumps(config.to_dict()))
    run_dir = tmp_path / "run"
    assert main(["simulate", str(cpath), "--out", str(run_dir)]) == 0
    assert main(["diagnose", str(run_dir)]) == 0
    report = json.loads((run_dir / "diagnostics.json").read_text())
    assert report["navier"]["pass"] is True
    assert report["weak_form"]["pass"] is True
    assert report["balance"]["pass"] is True
    # an --out in a directory not made yet gets it made
    elsewhere = tmp_path / "new" / "deeper" / "diagnostics.json"
    assert main(["diagnose", str(run_dir), "--out", str(elsewhere)]) == 0
    assert json.loads(elsewhere.read_text()) == report

    # an unreachable tolerance flips the exit code
    config2 = SimConfig(nu=0.1, t_end=0.05, initial_condition={"const": 2.0},
                        alpha=0.0, n_r=16, n_theta=16, output_stride=20,
                        tol={"navier": 1e-30})
    cpath2 = tmp_path / "diag2.json"
    cpath2.write_text(json.dumps(config2.to_dict()))
    run2 = tmp_path / "run2"
    assert main(["simulate", str(cpath2), "--out", str(run2)]) == 0
    out2 = tmp_path / "verdict.json"
    assert main(["diagnose", str(run2), "--out", str(out2)]) == 1
    assert json.loads(out2.read_text())["navier"]["pass"] is False

    # an --out naming an existing directory, or a path under a file, is
    # refused in one line with exit 2 before the walk
    capsys.readouterr()
    for out in (run2, out2 / "diagnostics.json"):
        assert main(["diagnose", str(run2), "--out", str(out)]) == 2, out
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write to {out}: ") and err.count("\n") == 1, err
    assert json.loads(out2.read_text())["navier"]["pass"] is False


def test_diagnose_verb_rejects_unreadable_run(tmp_path, capsys):
    config = SimConfig(nu=0.1, t_end=0.02, initial_condition={"const": 2.0},
                       dt=0.005, n_r=16, n_theta=16, output_stride=2)
    cpath = tmp_path / "diag.json"
    cpath.write_text(json.dumps(config.to_dict()))
    run_dir = tmp_path / "run"
    assert main(["simulate", str(cpath), "--out", str(run_dir)]) == 0
    snapshots = run_dir / "snapshots.npz"
    with np.load(snapshots) as data:
        arrays = {name: data[name] for name in data.files}
    assert len(arrays["times"]) == 3
    arrays["omega"] = arrays["omega"][:2]
    np.savez_compressed(snapshots, **arrays)
    capsys.readouterr()
    assert main(["diagnose", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "snapshots.npz" in err and "omega" in err, err
    assert not (run_dir / "diagnostics.json").exists()

    snapshots.unlink()
    assert main(["diagnose", str(run_dir)]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_diagnose_verb_rejects_a_truncated_snapshot_file(tmp_path, capsys):
    # a half-written snapshots.npz ended diagnose in a BadZipFile traceback
    config = SimConfig(nu=0.1, t_end=0.02, initial_condition={"const": 2.0},
                       dt=0.005, n_r=16, n_theta=16, output_stride=2)
    cpath = tmp_path / "diag.json"
    cpath.write_text(json.dumps(config.to_dict()))
    run_dir = tmp_path / "run"
    assert main(["simulate", str(cpath), "--out", str(run_dir)]) == 0
    snapshots = run_dir / "snapshots.npz"
    snapshots.write_bytes(snapshots.read_bytes()[: snapshots.stat().st_size // 2])
    capsys.readouterr()
    assert main(["diagnose", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "snapshots.npz: unreadable snapshot file" in err, err
    assert not (run_dir / "diagnostics.json").exists()


def test_diagnose_verb_rejects_times_not_finite_and_increasing(tmp_path, capsys):
    # a duplicated time made the weak form's time derivative NaN, and
    # diagnose wrote a bare NaN into diagnostics.json and exited 0
    config = SimConfig(nu=0.1, t_end=0.02, initial_condition={"const": 2.0},
                       dt=0.005, n_r=16, n_theta=16, output_stride=2)
    cpath = tmp_path / "diag.json"
    cpath.write_text(json.dumps(config.to_dict()))
    run_dir = tmp_path / "run"
    assert main(["simulate", str(cpath), "--out", str(run_dir)]) == 0
    snapshots = run_dir / "snapshots.npz"
    with np.load(snapshots) as data:
        arrays = {name: data[name] for name in data.files}
    for bad in ([0.0, 0.01, 0.01], [0.0, np.nan, 0.02], [0.0, 0.02, 0.01]):
        np.savez_compressed(snapshots, **{**arrays, "times": np.array(bad)})
        with pytest.raises(ValueError, match="snapshots.npz.*strictly increasing"):
            Trajectory.load(run_dir)
        capsys.readouterr()
        assert main(["diagnose", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "snapshots.npz" in err, err
        assert not (run_dir / "diagnostics.json").exists()


def test_diagnose_verb_rejects_omega_that_is_not_real_floating_point(tmp_path, capsys):
    # a complex omega lost its imaginary part with only a ComplexWarning,
    # and an integer or boolean one gave residuals of truncated data; each
    # exited 0. So did complex or integer times, complex series_values, and
    # series_values of one dimension whose length was the column count.
    config = SimConfig(nu=0.1, t_end=0.02, initial_condition={"const": 2.0},
                       dt=0.005, n_r=16, n_theta=16, output_stride=2)
    cpath = tmp_path / "diag.json"
    cpath.write_text(json.dumps(config.to_dict()))
    run_dir = tmp_path / "run"
    assert main(["simulate", str(cpath), "--out", str(run_dir)]) == 0
    snapshots = run_dir / "snapshots.npz"
    with np.load(snapshots) as data:
        arrays = {name: data[name] for name in data.files}
    times, values = arrays["times"], arrays["series_values"]
    cases = [("omega", arrays["omega"].astype(dtype), f"omega has dtype {np.dtype(dtype)}")
             for dtype in (complex, np.int64, bool)]
    cases += [("times", times.astype(complex), "times has dtype complex128"),
              ("times", np.arange(len(times)), "times has dtype int64"),
              ("series_values", values.astype(complex), "series_values has dtype complex128"),
              ("series_values", values[:, 0], f"series_values has shape ({len(values)},)")]
    for name, array, message in cases:
        np.savez(snapshots, **{**arrays, name: array})
        with pytest.raises(ValueError, match=re.escape(message)):
            Trajectory.load(run_dir)
        capsys.readouterr()
        assert main(["diagnose", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err, err
        assert not (run_dir / "diagnostics.json").exists()


def test_diagnose_verb_rejects_runs_with_fewer_than_two_snapshots(tmp_path, capsys):
    # the balances difference snapshots in time; with one or none,
    # diagnose died in enstrophy_balance_residual on an empty reduction
    config = SimConfig(nu=0.1, t_end=0.02, initial_condition={"const": 2.0},
                       dt=0.005, n_r=16, n_theta=16, output_stride=2)
    cpath = tmp_path / "diag.json"
    cpath.write_text(json.dumps(config.to_dict()))
    run_dir = tmp_path / "run"
    assert main(["simulate", str(cpath), "--out", str(run_dir)]) == 0
    snapshots = run_dir / "snapshots.npz"
    with np.load(snapshots) as data:
        arrays = {name: data[name] for name in data.files}
    for keep in (1, 0):
        cut = {**arrays, "times": arrays["times"][:keep], "omega": arrays["omega"][:keep]}
        np.savez_compressed(snapshots, **cut)
        capsys.readouterr()
        assert main(["diagnose", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot diagnose run directory {run_dir}: "), err
        assert err.count("\n") == 1 and f"at least 2 snapshots, got {keep}\n" in err, err
        assert not (run_dir / "diagnostics.json").exists()


def test_sweep_steps_its_configs_refined_run():
    config = SweepConfig(base=_tiny_base(nu=0.0), nu_list=(0.1,), q_list=(2.0,), p=4.0)
    report = run_sweep(config)
    m = config.euler_refinement_factor
    assert report.runs["euler_refined"].config == replace(
        config.refined, dt=report.metadata["dt"] / m)
    assert report.metadata["refined_grid"] == [config.refined.n_r, config.refined.n_theta]


def test_sweep_refined_config_comes_back_from_its_child_read_only():
    # the refined run's config crosses the forked child's pipe as a pickle
    config = SweepConfig(base=_tiny_base(nu=0.0), nu_list=(0.1,), q_list=(2.0,), p=4.0)
    refined = run_sweep(config).runs["euler_refined"].config
    assert not refined.omega0.flags.writeable


def test_sweep_at_a_large_p_exits_0_with_finite_norms(tmp_path):
    # the README bump's |omega|^400 overflows the plain sum, and a
    # tenth's underflows: the p = 400 sweep used to print an overflow
    # warning and die on a non-finite sup_lp_enstrophy entry
    bump = {"bump": {"center": [0.3, 0.0], "radius": 0.4, "amplitude": 8.0}}
    spec = {"base": {"nu": 0.0, "t_end": 0.05, "initial_condition": bump, "alpha": 1.0,
                     "n_r": 16, "n_theta": 16},
            "nu_list": [0.1, 0.01], "q_list": [2.0], "p": 400.0}
    cpath, out = tmp_path / "sweep.json", tmp_path / "sweep-out"
    cpath.write_text(json.dumps(spec))
    done = subprocess.run([sys.executable, "-m", "slipdisk", "sweep", str(cpath),
                           "--out", str(out)], env=_env_with_src_on_path(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and done.stderr == "", done.stderr
    rows = json.loads((out / "report.json").read_text())["rows"]
    assert [row["nu"] for row in rows] == [0.1, 0.01]
    for row in rows:
        assert 7.8 < row["sup_lp_enstrophy"] < 8.0  # the bump's amplitude is 8
    traj = simulate(replace(SimConfig.from_dict(spec["base"]), nu=0.01,
                            lp_exponents=(2.0, 400.0)))
    assert np.all(np.isfinite(traj.series["enstrophy_400"]))
    assert traj.series["enstrophy_400"][0] == lp_norm(traj.omegas[0], 400.0)


def test_sweep_whose_slack_leaves_the_float_range_stops_in_one_line(tmp_path):
    # |omega|^399 of the README bump (amplitude 8) overflows: the sweep
    # printed three overflow warnings and a 27-line traceback of a
    # RuntimeError on its non-finite renorm_slack entry
    bump = {"bump": {"center": [0.3, 0.0], "radius": 0.4, "amplitude": 8.0}}
    spec = {"base": {"nu": 0.0, "t_end": 0.05, "initial_condition": bump, "alpha": 1.0,
                     "n_r": 16, "n_theta": 16},
            "nu_list": [0.1, 0.01], "q_list": [2.0], "p": 400.0, "slack_q": 399.0}
    cpath, out = tmp_path / "sweep.json", tmp_path / "sweep-out"
    cpath.write_text(json.dumps(spec))
    done = subprocess.run([sys.executable, "-m", "slipdisk", "sweep", str(cpath),
                           "--out", str(out)], env=_env_with_src_on_path(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stderr
    assert done.stderr == (f"cannot sweep {cpath}: non-finite report entry "
                           f"renorm_slack at nu=0.1\n"), done.stderr
    assert not out.exists()


def test_python_m_slipdisk_runs_the_verbs(tmp_path):
    problem = tmp_path / "slip.json"
    problem.write_text(json.dumps({"builtin": "navier_laplacian", "alpha": 1.0}))
    env = _env_with_src_on_path()
    done = subprocess.run([sys.executable, "-m", "slipdisk", "adn", str(problem)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "slip.report.json").exists()


def test_simulate_and_sweep_verbs_reject_unreadable_configs(tmp_path, capsys):
    # each bad config ended in a traceback instead of one line and exit 2;
    # the third entry is a field name the message must contain
    sweep = _rigid_sweep_config().to_dict()
    cases = [
        ("simulate", {"nu": 0.1, "t_end": 0.1}, ""),
        ("simulate", {**_tiny_base().to_dict(), "t_end": float("nan")}, ""),
        ("simulate", {**_tiny_base().to_dict(), "typo": 1}, ""),
        ("sweep", {**sweep, "nu_list": [0.1, float("nan")]}, ""),
        ("sweep", {key: value for key, value in sweep.items() if key != "base"}, ""),
        ("sweep", {**sweep, "base": {"nu": 0.0}}, ""),
        # a tol value diagnose cannot compare, a misspelt tol key that
        # diagnose silently ignored, a fractional refinement factor
        ("simulate", {**_tiny_base().to_dict(), "tol": {"navier": "abc"}}, "navier"),
        ("simulate", {**_tiny_base().to_dict(), "tol": {"weak_form": 1e-3}}, "weak_form"),
        ("sweep", {**sweep, "euler_refinement_factor": 2.5}, "euler_refinement_factor"),
    ]
    # specs that passed the config read and failed mid-run: an unknown or
    # degenerate initial condition, an unparseable alpha, a fractional
    # stride, a non-finite alpha or bump amplitude
    for change in ({"initial_condition": {"tent": {}}},
                   {"initial_condition": {"bump": {"radius": 0.0}}},
                   {"alpha": "x"}, {"output_stride": 2.5},
                   {"alpha": float("nan")},
                   {"initial_condition": {"bump": {"amplitude": float("nan")}}}):
        cases.append(("simulate", {**_tiny_base().to_dict(), **change}, ""))
        cases.append(("sweep", {**sweep, "base": {**sweep["base"], **change}}, ""))
    # values read wrongly: a bool taken as 1, a numeric string taken as its
    # number, a string iterated into exponents, a mode number truncated,
    # or a refusal whose message did not name the field
    for change, name in (({"nu": True}, "nu"), ({"t_end": True}, "t_end"),
                         ({"dt": True}, "dt"), ({"alpha": True}, "alpha"),
                         ({"dt": "0.01"}, "dt"), ({"lp_exponents": "24"}, "lp_exponents"),
                         ({"initial_condition": {"const": True}}, "const"),
                         ({"initial_condition": {"bump": {"radius": True}}}, "radius"),
                         # a radius whose square underflows warned and ran
                         ({"initial_condition": {"bump": {"radius": 1e-200}}},
                          "bump radius must be at least"),
                         ({"initial_condition": {"singular": {"gamma": 0.5, "p": True}}},
                          "singular p"),
                         ({"initial_condition": {"modes": [[1.7, [0.0, 1.0]]]}}, "modes k"),
                         ({"alpha": {"fourier": [[2.5, 0.1, 0.0]]}}, "fourier k"),
                         ({"nu": "0.1"}, "nu"), ({"dt": "abc"}, "dt"),
                         ({"lp_exponents": 4.0}, "lp_exponents"),
                         ({"alpha": {"fourier": 3}}, "alpha"),
                         ({"alpha": {"fourier": [[1, 0.5]]}}, "alpha"),
                         ({"initial_condition": {"bump": {"center": [0.1]}}}, "bump center"),
                         # a bump off the disk sampled a zero field and ran
                         ({"initial_condition": {"bump": {"center": [5.0, 0.0]}}},
                          "bump support misses the disk"),
                         # unknown keys inside a spec, which used to be ignored
                         ({"initial_condition": {"bump": {"radius": 0.3, "amplitud": 5.0}}},
                          "amplitud"),
                         ({"initial_condition": {"singular": {"gamma": 0.4, "p": 3.0,
                                                              "centre": [0.2, 0.0]}}}, "centre"),
                         ({"alpha": {"const": 1.0, "fourier": [[1, 2, 3]]}}, "alpha")):
        cases.append(("simulate", {**_tiny_base().to_dict(), **change}, name))
        cases.append(("sweep", {**sweep, "base": {**sweep["base"], **change}}, name))
    for change, name in (({"nu_list": "1"}, "nu_list"), ({"nu_list": [True]}, "nu_list"),
                         ({"q_list": "2"}, "q_list"), ({"p": "4"}, "p must"),
                         ({"slack_q": True}, "slack_q"), ({"base": 3}, "base"),
                         ({"phi": 3}, "phi"), ({"phi": "zero"}, "phi"),
                         ({"phi": {"bump": {}}}, "phi"),
                         ({"phi": {"bump": {"radius": 0.3, "center": [0.1]}}}, "phi center"),
                         ({"phi": {"bump": {"radius": 0.3, "amplitde": 2.0}}}, "amplitde"),
                         ({"phi": {"bump": {"radius": 1e-200}}}, "phi radius must be at least"),
                         ({"phi": {"bump": {"radius": 0.3}, "zero": {}}},
                          "exactly one of bump or zero")):
        cases.append(("sweep", {**sweep, **change}, name))
    # specs whose samples overflow, which passed the config read and ended
    # in a traceback mid-run: an alpha series, a singular cap dr^-gamma on
    # 64 rings, a modes profile, and a singular datum finite on the base
    # grid but not on the sweep's refined 64 x 64 grid
    for change, name in (({"alpha": {"fourier": [[1, 1e308, 0], [2, 1e308, 0],
                                                  [3, 1e308, 0]]}}, "alpha samples"),
                         ({"n_r": 64, "initial_condition": {"singular": {
                             "center": [0, 0], "gamma": 200, "p": 0.005}}}, "64 x 16 grid"),
                         ({"initial_condition": {"modes": [[1, [1e308, 1e308]]]}},
                          "initial condition samples")):
        cases.append(("simulate", {**_tiny_base().to_dict(), **change}, name))
    cases.append(("sweep", {**sweep, "base": {**sweep["base"], "n_r": 32, "n_theta": 32,
                                              "initial_condition": {"singular": {
                                                  "center": [0, 0], "gamma": 190,
                                                  "p": 0.01}}}}, "64 x 64 grid"))
    for k, (verb, spec, name) in enumerate(cases):
        cpath = tmp_path / f"bad{k}.json"
        cpath.write_text(json.dumps(spec))
        out = tmp_path / f"out{k}"
        capsys.readouterr()
        assert main([verb, str(cpath), "--out", str(out)]) == 2, (verb, spec)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(cpath) in err, err
        assert name in err.replace(str(cpath), ""), (name, err)
        assert not out.exists()
    capsys.readouterr()
    assert main(["simulate", str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    # an --out that names an existing file, or a path under one, ran the
    # whole job and then died with a FileExistsError traceback
    taken = tmp_path / "taken"
    taken.write_text("kept")
    for verb, spec in (("simulate", _tiny_base().to_dict()), ("sweep", sweep)):
        cpath = tmp_path / f"good-{verb}.json"
        cpath.write_text(json.dumps(spec))
        for out in (taken, taken / "run"):
            assert main([verb, str(cpath), "--out", str(out)]) == 2, (verb, out)
            err = capsys.readouterr().err
            assert err.startswith(f"cannot write to {out}: ") and err.count("\n") == 1, err
            assert taken.read_text() == "kept"


def test_simulate_and_sweep_verbs_report_a_stopped_run_in_one_line(tmp_path, capsys,
                                                                   monkeypatch):
    # a fixed dt above the CFL bound ended in a traceback (31 lines for sweep)
    base = {**_tiny_base().to_dict(), "dt": 0.05}
    sweep_spec = {**_rigid_sweep_config().to_dict(), "base": base}
    for verb, spec in (("simulate", base), ("sweep", sweep_spec)):
        cpath = tmp_path / f"{verb}.json"
        cpath.write_text(json.dumps(spec))
        out = tmp_path / f"{verb}-out"
        assert main([verb, str(cpath), "--out", str(out)]) == 1, verb
        err = capsys.readouterr().err
        assert err.startswith(f"cannot {verb} {cpath}: ") and err.count("\n") == 1, err
        assert "exceeds CFL bound" in err
        assert not out.exists()
    assert multiprocessing.active_children() == []
    # a divergence is reported the same way; any other error keeps its traceback
    cpath, out = tmp_path / "simulate.json", tmp_path / "other"

    def diverge(config):
        raise DivergenceError("non-finite vorticity")

    monkeypatch.setattr("slipdisk.cli.simulate", diverge)
    assert main(["simulate", str(cpath), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"cannot simulate {cpath}: non-finite vorticity\n"

    def fail(config):
        raise RuntimeError("not a stopped run")

    monkeypatch.setattr("slipdisk.cli.simulate", fail)
    with pytest.raises(RuntimeError, match="not a stopped run"):
        main(["simulate", str(cpath), "--out", str(out)])
    assert not out.exists()


def test_a_level_whose_squared_speed_overflows_stops_at_step_one(tmp_path):
    # u_theta^2 of omega = 1e200 overflows, so the CFL bound is 0: an
    # automatic dt of 0.9 * 0 passed the dt > bound check and simulate never
    # returned, the sweep divided by its zero candidate step, and a fixed dt
    # printed overflow warnings before its line
    base = {"nu": 0.1, "t_end": 0.1, "initial_condition": {"const": 1e200},
            "n_r": 8, "n_theta": 8}
    sweep_spec = {"nu_list": [0.1], "q_list": [2.0], "p": 4.0}
    for verb, spec in (("simulate", base), ("simulate", {**base, "dt": 0.01}),
                       ("sweep", {**sweep_spec, "base": base}),
                       ("sweep", {**sweep_spec, "base": {**base, "dt": 0.01}})):
        cpath, out = tmp_path / f"{verb}.json", tmp_path / f"{verb}-out"
        cpath.write_text(json.dumps(spec))
        done = subprocess.run([sys.executable, "-m", "slipdisk", verb, str(cpath),
                               "--out", str(out)], env=_env_with_src_on_path(),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 1, (spec, done.stderr)
        assert done.stderr.count("\n") == 1, done.stderr
        assert done.stderr.startswith(f"cannot {verb} {cpath}: "), done.stderr
        assert done.stderr.endswith("CFL bound 0 (max|u|=inf)\n"), done.stderr
        assert not out.exists()


def test_sweep_of_a_zero_field_takes_one_step_of_t_end():
    # the zero field's CFL bound is infinite, so the step is t_end
    base = SimConfig(nu=0.1, t_end=0.1, initial_condition={"const": 0.0},
                     n_r=8, n_theta=8)
    report = run_sweep(SweepConfig(base=base, nu_list=(0.1, 0.01), q_list=(1.0, 2.0),
                                   p=4.0))
    assert report.metadata["n_steps"] == 1 and report.metadata["attempts"] == 1
    assert report.metadata["dt"] == 0.1
    assert report.metadata["refined_n_steps"] == 2
    assert len(report.rows) == 4
    for row in report.rows:
        assert row["sup_lq_diff"] == row["sup_lp_enstrophy"] == row["renorm_slack"] == 0.0
    assert report.euler_floor == {1.0: 0.0, 2.0: 0.0}


def test_sweep_verb(tmp_path):
    spec = _rigid_sweep_config().to_dict()
    cpath = tmp_path / "sweep.json"
    cpath.write_text(json.dumps(spec))
    out = tmp_path / "sweep-out"
    assert main(["sweep", str(cpath), "--out", str(out)]) == 0
    assert (out / "series.csv").exists()


def test_adn_verb_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"builtin": "navier_laplacian", "alpha": 1.0}))
    assert main(["adn", str(good)]) == 0
    assert (tmp_path / "good.report.json").exists()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "M": 2, "s": [0, 0], "t": [2, 2], "r": [-2, -2],
        "L": [{"i": 1, "j": 1, "mi": [2, 0], "c": 1},
              {"i": 2, "j": 2, "mi": [0, 2], "c": 1}],
        "B": [{"i": 1, "j": 1, "mi": [0, 0], "c": 1},
              {"i": 2, "j": 2, "mi": [0, 0], "c": 1}]}))
    assert main(["adn", str(bad)]) == 1

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["adn", str(broken)]) == 2

    missing = tmp_path / "missing.json"
    assert main(["adn", str(missing)]) == 2

    # unusable problems and sample counts: exit 2 with a one-line message
    laplace = [{"i": i, "j": i, "mi": mi, "c": 1}
               for i in (1, 2) for mi in ([2, 0], [0, 2])]
    unusable = {
        "one_row": {"M": 2, "s": [0, 0], "t": [2, 2], "r": [-2], "L": laplace,
                    "B": [{"i": 1, "j": 1, "mi": [0, 0], "c": 1}]},
        "overweight": {"M": 2, "s": [0, 0], "t": [2, 2], "r": [-2, -2],
                       "L": laplace + [{"i": 1, "j": 2, "mi": [3, 0], "c": 1}],
                       "B": [{"i": 1, "j": 1, "mi": [0, 0], "c": 1},
                             {"i": 2, "j": 2, "mi": [0, 0], "c": 1}]},
        "row_zero": {"M": 2, "s": [0, 0], "t": [2, 2], "r": [-2, -2],
                     "L": laplace + [{"i": 0, "j": 0, "mi": [2, 0], "c": 1}],
                     "B": [{"i": 1, "j": 1, "mi": [0, 0], "c": 1},
                           {"i": 2, "j": 2, "mi": [0, 0], "c": 1}]},
        "scalar_s": {"M": 2, "s": 0, "t": [2, 2], "r": [-2, -2], "L": laplace,
                     "B": [{"i": 1, "j": 1, "mi": [0, 0], "c": 1},
                           {"i": 2, "j": 2, "mi": [0, 0], "c": 1}]},
        "missing_c": {"M": 2, "s": [0, 0], "t": [2, 2], "r": [-2, -2], "L": laplace,
                      "B": [{"i": 1, "j": 1, "mi": [0, 0], "c": 1},
                            {"i": 2, "j": 2, "mi": [0, 0]}]},
    }
    for stem, data in unusable.items():
        path = tmp_path / f"{stem}.json"
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["adn", str(path)]) == 2, stem
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(path) in err, (stem, err)
        assert not (tmp_path / f"{stem}.report.json").exists()
    # too few samples is check_all's refusal, one line like any unusable
    # input; a count that is not an integer is still argparse's
    capsys.readouterr()
    out = tmp_path / "few.report.json"
    for flag, counts in (("--boundary-samples", "4 and 8"), ("--xi-samples", "32 and 4")):
        assert main(["adn", str(good), flag, "4", "--out", str(out)]) == 2, flag
        assert capsys.readouterr().err == (f"cannot check problem {good}: need at least 8 "
                                           f"boundary and 8 xi samples, got {counts}\n")
        assert not out.exists()
    with pytest.raises(SystemExit) as exit_info:
        main(["adn", str(good), "--xi-samples", "x", "--out", str(out)])
    assert exit_info.value.code == 2
    assert "invalid int value: 'x'" in capsys.readouterr().err
    assert not out.exists()

    # an --out that cannot be written is an unusable input (exit 2), not a
    # failed verdict (exit 1): an existing directory, a path under a file
    capsys.readouterr()
    for out in (tmp_path, tmp_path / "good.json" / "report.json"):
        assert main(["adn", str(good), "--out", str(out)]) == 2, out
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write to {out}: ") and err.count("\n") == 1, err


def test_adn_verb_custom_out(tmp_path):
    good = tmp_path / "p.json"
    good.write_text(json.dumps({"builtin": "navier_laplacian"}))
    # --out names a file in an existing directory or in one to be made
    for out in (tmp_path / "verdict.json", tmp_path / "new" / "deeper" / "verdict.json"):
        assert main(["adn", str(good), "--out", str(out)]) == 0
        parsed = json.loads(out.read_text())
        assert parsed["verdicts"]["ellipticity"] is True


# Sizes whose first array cannot be allocated on any machine: 2e17 angles
# ask for 1.39 EiB (build_grid's int64 angle index) and 1e17 adn samples
# for 711 PiB (np.linspace's float64 array). Both are above 2^57 bytes,
# past every x86-64 address space, so no overcommit setting grants them,
# and n_r = 8 keeps every array built before them small.
HUGE_N_THETA = 200_000_000_000_000_000
HUGE_SAMPLES = 100_000_000_000_000_000


def test_verbs_refuse_an_input_size_that_cannot_be_allocated(tmp_path, capsys):
    # numpy's MemoryError ended each verb in a traceback and exit 1
    assert min(8 * HUGE_N_THETA, 8 * HUGE_SAMPLES) > 2 ** 57
    base = {**_tiny_base(n_r=8, n_theta=8).to_dict(), "n_theta": HUGE_N_THETA}
    sweep = {"base": base, "nu_list": [0.1], "q_list": [2.0], "p": 4.0}
    for verb, spec in (("simulate", base), ("sweep", sweep)):
        cpath = tmp_path / f"{verb}.json"
        cpath.write_text(json.dumps(spec))
        out = tmp_path / f"out-{verb}"
        capsys.readouterr()
        assert main([verb, str(cpath), "--out", str(out)]) == 2, verb
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read config {cpath}: Unable to allocate "), err
        assert err.count("\n") == 1 and not out.exists(), verb

    # a run directory whose config-resolved.json has that n_theta fails in
    # the same SimConfig.from_json
    cpath = tmp_path / "tiny.json"
    cpath.write_text(json.dumps(_tiny_base(n_r=8, n_theta=8).to_dict()))
    run_dir = tmp_path / "run"
    assert main(["simulate", str(cpath), "--out", str(run_dir)]) == 0
    resolved = run_dir / "config-resolved.json"
    resolved.write_text(json.dumps({**json.loads(resolved.read_text()),
                                    "n_theta": HUGE_N_THETA}))
    capsys.readouterr()
    assert main(["diagnose", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot load run directory {run_dir}: Unable to allocate "), err
    assert err.count("\n") == 1 and not (run_dir / "diagnostics.json").exists()

    problem = tmp_path / "slip.json"
    problem.write_text(json.dumps({"builtin": "navier_laplacian", "alpha": 1.0}))
    out = tmp_path / "slip.report.json"
    for flag in ("--boundary-samples", "--xi-samples"):
        assert main(["adn", str(problem), flag, str(HUGE_SAMPLES), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot check problem {problem}: Unable to allocate "), err
        assert err.count("\n") == 1 and not out.exists(), flag


def test_readme_json_examples_are_accepted():
    # every complete JSON example in README.md goes through its reader, so
    # an example that drifts from the strict config tables fails here
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as fh:
        blocks = re.findall(r"```json\n(.*?)```", fh.read(), re.S)
    readers = {"builtin": load_problem, "base": SweepConfig.from_dict,
               "nu": SimConfig.from_dict}
    read = []
    for block in blocks:
        if '"..."' in block:
            continue  # an excerpt, not a complete config
        data = json.loads(block)
        key = next(k for k in readers if k in data)
        readers[key](data)
        read.append(key)
    assert sorted(read) == ["base", "builtin", "nu"]

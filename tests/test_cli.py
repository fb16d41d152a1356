"""Command line verbs and the viscosity sweep.

Sweep configuration validation, the frozen CSV schema, determinism of a
tiny sweep (identical output modulo wall-clock), the steady-state sweep
whose differences must be roundoff, and the four verbs driven through
main() with their exit code contract.
"""

import json
import os

import numpy as np
import pytest

from slipdisk import SimConfig, SweepConfig, main, run_sweep
from slipdisk.cli import CSV_COLUMNS, _energy_ok, _interpolate_to_base
from slipdisk.geometry import build_grid


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
    with pytest.raises(ValueError, match="must lie in"):
        SweepConfig(**{**good, "q_list": (4.0,)})
    with pytest.raises(ValueError, match="must lie in"):
        SweepConfig(**{**good, "slack_q": 0.5})
    with pytest.raises(ValueError, match="refinement_factor"):
        SweepConfig(**{**good, "euler_refinement_factor": 1})


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
    got = _interpolate_to_base(vals, 2, base, fine)
    want = np.cos(3.0 * base.r)[:, None] * np.cos(2.0 * base.theta)[None, :]
    assert got.shape == base.shape
    assert np.max(np.abs(got - want)) < 1e-5


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


def test_sweep_returns_runs_when_asked():
    report, runs = run_sweep(_rigid_sweep_config(), return_runs=True)
    assert set(runs) == {"viscous", "euler_base", "euler_refined"}
    assert len(runs["viscous"]) == 2
    assert runs["euler_refined"].grid.n_r == 32


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


def test_diagnose_verb_exit_codes(tmp_path):
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


def test_sweep_verb(tmp_path):
    spec = _rigid_sweep_config().to_dict()
    cpath = tmp_path / "sweep.json"
    cpath.write_text(json.dumps(spec))
    out = tmp_path / "sweep-out"
    assert main(["sweep", str(cpath), "--out", str(out)]) == 0
    assert (out / "series.csv").exists()


def test_adn_verb_exit_codes(tmp_path):
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


def test_adn_verb_custom_out(tmp_path):
    good = tmp_path / "p.json"
    good.write_text(json.dumps({"builtin": "navier_laplacian"}))
    out = tmp_path / "verdict.json"
    assert main(["adn", str(good), "--out", str(out)]) == 0
    parsed = json.loads(out.read_text())
    assert parsed["verdicts"]["ellipticity"] is True
"""Acceptance suite: one test per shipped guarantee, run at the stated
scale and tolerance. Each test prints the measured numbers next to the
gate it enforces, so `pytest -v` gives one pass/fail line per criterion
and `-s` (or a failure) shows the margins.

The expensive trajectories (rigid rotation, the off-center bump
viscosity sweep) come from session fixtures in conftest.py and are
shared across criteria.
"""

import json

import numpy as np
import pytest

from _fields import sample_navier_field
from conftest import BUMP_IC, smooth_vorticity
from slipdisk import (
    ScalarField,
    SimConfig,
    VectorField,
    biot_savart,
    check_all,
    check_ellipticity,
    complementing_check,
    curl,
    cz_ratio,
    disk_boundary,
    grad,
    h2_ratio,
    load_problem,
    lp_norm,
    navier_laplacian_problem,
    navier_residuals,
    pressure_estimate_slack,
    principal_parts,
    recover_pressure,
    renormalized_slack,
    roots_positive_imag,
    simulate,
    solve_poisson_dirichlet,
)
from slipdisk.adn import _adjugate, _degrees, _matmul, _monic, _polydiv, _polymul
from slipdisk.cli import main
from slipdisk.sweep import _energy_ok

XI_SCALINGS = (0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 2.0, -2.0)


def test_criterion_01_rigid_rotation_is_steady(rigid_trajectories):
    # omega = 2 with alpha = 0 is an exact steady state; over a unit of
    # time neither the vorticity nor the velocity may drift past 1e-6.
    for nu in sorted(rigid_trajectories):
        traj = rigid_trajectories[nu]
        r = traj.grid.r[:, None]
        drift_om = max(float(np.abs(om.values - 2.0).max()) for om in traj.omegas)
        drift_u = max(max(float(np.abs(u.u_r).max()),
                          float(np.abs(u.u_theta - r).max())) for u in traj.us)
        print(f"criterion 01: nu={nu:g} max|omega-2|={drift_om:.3e} "
              f"max|u-rigid|={drift_u:.3e} (gate 1e-6)")
        assert drift_om <= 1e-6
        assert drift_u <= 1e-6


def test_criterion_02_stream_solver_exact_on_quadratic_and_self_consistent(
        grid32, grid64, grid128):
    # Constant vorticity has a polynomial stream function the scheme must
    # reproduce to roundoff; on a generic smooth field curl o biot_savart
    # must return the input at second order.
    two = ScalarField(grid64, np.full(grid64.shape, 2.0))
    r = grid64.r[:, None]
    psi = solve_poisson_dirichlet(two)
    u = biot_savart(two)
    err_psi = float(np.abs(psi.values - (r ** 2 - 1.0) / 2.0).max())
    err_u = max(float(np.abs(u.u_r).max()), float(np.abs(u.u_theta - r).max()))
    print(f"criterion 02: quadratic errors psi={err_psi:.3e} u={err_u:.3e} (gate 1e-12)")
    assert err_psi <= 1e-12
    assert err_u <= 1e-12

    errs = []
    for grid in (grid32, grid64, grid128):
        om = smooth_vorticity(grid, seed=3)
        back = curl(biot_savart(om))
        errs.append(lp_norm(ScalarField(grid, back.values - om.values), 2.0)
                    / lp_norm(om, 2.0))
    print(f"criterion 02: roundtrip rel L2 errors {errs[0]:.3e}/{errs[1]:.3e}/"
          f"{errs[2]:.3e}, ratios {errs[0] / errs[1]:.2f}, {errs[1] / errs[2]:.2f}")
    assert errs[1] <= 1e-2
    assert errs[0] / errs[1] >= 3.0
    assert errs[1] / errs[2] >= 3.0


def test_criterion_03_energy_never_increases_for_any_slip_coefficient(sweep_result):
    # Kinetic energy must be non-increasing (within 1e-6 E(0) per unit
    # time) for alpha = 0, 1, and 1 + cos(theta)/2 across the full
    # viscosity sweep; the alpha = 1 runs come from the sweep fixture.
    rows = sweep_result["report"].rows
    assert all(row["energy_ok"] for row in rows)
    assert _energy_ok(sweep_result["runs"]["euler_base"].series)

    nu_list = sweep_result["config"].nu_list
    alphas = (0.0, {"fourier": [[0, 1.0, 0.0], [1, 0.5, 0.0]]})
    configs = [SimConfig(nu=nu, t_end=0.5, initial_condition=BUMP_IC, alpha=alpha,
                         n_r=64, n_theta=64, output_stride=50,
                         lp_exponents=(2.0,))
               for alpha in alphas for nu in nu_list]
    trajs = [simulate(c) for c in configs]
    worst = -np.inf
    for config, traj in zip(configs, trajs):
        e = np.asarray(traj.series["energy"])
        t = np.asarray(traj.series["t"])
        rate = float((np.diff(e) / np.diff(t)).max() / e[0])
        worst = max(worst, rate)
        assert _energy_ok(traj.series), (config.alpha, config.nu, rate)
    print(f"criterion 03: {len(rows)} sweep rows energy_ok, euler run ok, "
          f"{len(configs)} extra runs max growth rate {worst:.3e} E(0)/time (gate 1e-6)")


def test_criterion_04_enstrophy_snapshots_uniform_across_viscosity(sweep_result):
    # sup_t of the L4 vorticity norm must agree within 20% across the
    # whole viscosity sweep.
    vals = [row["sup_lp_enstrophy"] for row in sweep_result["report"].rows]
    spread = max(vals) / min(vals)
    print(f"criterion 04: sup_t L4 enstrophy in [{min(vals):.6f}, {max(vals):.6f}], "
          f"spread {spread:.4f} (gate 1.2)")
    assert spread <= 1.2


def test_criterion_05_velocity_gap_to_reference_shrinks_with_viscosity(sweep_result):
    # sup_t of the L2 distance to the inviscid run must decrease strictly
    # as nu decreases, losing at least half overall, while staying above
    # the grid-refinement floor of the inviscid run itself.
    report = sweep_result["report"]
    rows = [row for row in report.rows if row["q"] == 2.0]
    diffs = [row["sup_lq_diff"] for row in rows]
    floor = report.euler_floor[2.0]
    print(f"criterion 05: sup L2 diffs {['%.4f' % d for d in diffs]} "
          f"final/first={diffs[-1] / diffs[0]:.4f} floor={floor:.6f}")
    assert all(a > b for a, b in zip(diffs, diffs[1:]))
    assert diffs[-1] / diffs[0] <= 0.5
    assert all(d > floor for d in diffs)
    assert floor > 0.0


def test_criterion_06_wall_slip_residual_refines_between_grids():
    # The slip-condition residual of a viscous run at t = 0.5 must drop
    # by at least 1.8x from a 64^2 to a 128^2 grid.
    def run(n):
        config = SimConfig(nu=1e-2, t_end=0.5, initial_condition=BUMP_IC,
                           alpha=1.0, n_r=n, n_theta=n,
                           output_stride=10 ** 9, lp_exponents=(2.0,))
        return simulate(config)

    res = {}
    for traj in map(run, (64, 128)):
        rep = navier_residuals(traj.us[-1], traj.omegas[-1], traj.trace)
        res[traj.grid.n_r] = rep["navier_condition"]
    ratio = res[64] / res[128]
    print(f"criterion 06: slip residual 64^2={res[64]:.4e} 128^2={res[128]:.4e} "
          f"ratio {ratio:.2f} (gate 1.8)")
    assert ratio >= 1.8


def test_criterion_07_pressure_gradient_bound_holds_on_every_snapshot(
        sweep_result, grid64):
    # The recovered pressure must satisfy
    #   ||grad p||_2 <= ||(u.grad)u||_2 + nu ||grad omega||_2
    # up to 1e-6 of the right-hand side on every snapshot of the sweep,
    # and on the rigid state it must reproduce r^2/2 - 1/4 exactly.
    r = grid64.r[:, None]
    shape = grid64.shape
    rigid_u = VectorField(grid64, np.zeros(shape), np.broadcast_to(r, shape).copy())
    rigid_om = ScalarField(grid64, np.full(shape, 2.0))
    ps = recover_pressure(rigid_u, rigid_om, nu=0.1)
    want = r ** 2 / 2.0 - 0.25
    w = grid64.weights
    shift = float(np.sum(w * (want - ps.p.values)) / np.sum(w))
    err_rigid = float(np.abs(ps.p.values + shift - want).max())
    print(f"criterion 07: rigid pressure error {err_rigid:.3e} (gate 1e-6)")
    assert err_rigid <= 1e-6

    runs = sweep_result["runs"]
    trajs = list(runs["viscous"]) + [runs["euler_base"]]
    n_checked, worst = 0, np.inf
    for traj in trajs:
        nu = traj.config.nu
        for u, om in zip(traj.us, traj.omegas):
            psolve = recover_pressure(u, om, nu, traj.trace)
            rhs = lp_norm(psolve.acceleration, 2.0) + nu * lp_norm(grad(om), 2.0)
            slack = pressure_estimate_slack(psolve, om, nu)
            worst = min(worst, slack / rhs)
            n_checked += 1
            assert slack >= -1e-6 * rhs, (nu, slack, rhs)
    print(f"criterion 07: {n_checked} snapshots, worst slack/RHS {worst:.3e} "
          f"(gate -1e-6)")


def test_criterion_08_dissipation_slack_vanishes_with_viscosity(sweep_result):
    # The renormalized dissipation slack may only go negative by O(nu):
    # max(0, -S(nu))/nu stays bounded over the sweep and the inviscid
    # run's slack stays above -1e-3.
    cfg = sweep_result["config"]
    rows = sweep_result["report"].rows
    ratios = {row["nu"]: max(0.0, -row["renorm_slack"]) / row["nu"] for row in rows}
    slack0 = renormalized_slack(sweep_result["runs"]["euler_base"], cfg.phi, cfg.slack_q)
    print("criterion 08: max(0,-S)/nu = "
          + " ".join(f"{nu:g}:{v:.3e}" for nu, v in sorted(ratios.items()))
          + f"; S(0)={slack0:.3e} (gates 10, -1e-3)")
    assert max(ratios.values()) <= 10.0
    assert slack0 >= -1e-3


def test_criterion_09_slip_boundary_system_is_elliptic_for_each_alpha():
    # The Laplacian system with slip rows passes every ellipticity
    # condition for constant and angle-dependent slip coefficients, the
    # pencil satisfies L adj(L) = det(L) I to roundoff, and det L has the
    # double root i|xi| at every boundary sample.
    for alpha in (0.0, 5.0, {"fourier": [[0, 1.0, 0.0], [1, 1.0, 0.0]]}):
        report = check_all(navier_laplacian_problem(alpha), 32, 8)
        assert report.passed, (alpha, report.verdicts, report.witnesses)
        assert all(report.verdicts.values())
    print(f"criterion 09: check_all passed for 3 slip coefficients, "
          f"verdicts {sorted(report.verdicts)}")

    lp, _ = principal_parts(navier_laplacian_problem(1.0))
    worst_prod, worst_root, n_samples = 0.0, 0.0, 0
    for theta in np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False):
        point = disk_boundary(float(theta))
        tau = np.asarray(point.tau)
        for c in XI_SCALINGS:
            xi = c * tau
            pencil = lp(point, xi, point.n)
            det = (_polymul(pencil[0, 0], pencil[1, 1])
                   - _polymul(pencil[0, 1], pencil[1, 0]))
            prod = _matmul(pencil, _adjugate(pencil))
            diff = prod - np.eye(2)[:, :, None] * det
            worst_prod = max(worst_prod, float(np.abs(diff).max()))
            roots = roots_positive_imag(lp, point, xi, point.n)
            assert len(roots) == 2
            worst_root = max(worst_root,
                             max(abs(root - 1j * abs(c)) for root in roots))
            n_samples += 1
    print(f"criterion 09: {n_samples} samples, product identity {worst_prod:.3e} "
          f"(gate 1e-12), root error {worst_root:.3e} (gate 1e-9)")
    assert n_samples == 32 * 8
    assert worst_prod <= 1e-12
    assert worst_root <= 1e-9


def test_criterion_10_degenerate_problems_fail_with_witnesses(tmp_path):
    # Negative controls: duplicated boundary rows fail the complementing
    # condition with the (1, -1) combination as witness; diag(d1^2, d2^2)
    # fails ellipticity at xi = (1, 0); the singular L with every entry
    # d1^2 fails it with det 0; the Bitsadze operator (d1 + i d2)^2 and its
    # conjugate fail the root-count condition; and the Dirichlet system
    # passes, with its boundary remainders matching the hand reduction
    # (sigma^2 + k^2) mod (sigma - ik)^2 = 2k^2 + 2ik sigma.
    laplacian_rows = [{"i": i, "j": i, "mi": mi, "c": 1}
                      for i in (1, 2) for mi in ([2, 0], [0, 2])]
    dup = load_problem({"M": 2, "s": [0, 0], "t": [2, 2], "r": [-2, -2],
                        "L": laplacian_rows,
                        "B": [{"i": 1, "j": 1, "mi": [0, 0], "c": "n1"},
                              {"i": 1, "j": 2, "mi": [0, 0], "c": "n2"},
                              {"i": 2, "j": 1, "mi": [0, 0], "c": "n1"},
                              {"i": 2, "j": 2, "mi": [0, 0], "c": "n2"}]})
    point = disk_boundary(0.9)
    verdict = complementing_check(dup, point, np.asarray(point.tau))
    assert not verdict.passed
    wit = np.asarray(verdict.witness)
    assert abs(wit[0] - 1.0) <= 1e-8 and abs(wit[1] + 1.0) <= 1e-8

    diag = load_problem({"M": 2, "s": [0, 0], "t": [2, 2], "r": [-2, -2],
                         "L": [{"i": 1, "j": 1, "mi": [2, 0], "c": 1},
                               {"i": 2, "j": 2, "mi": [0, 2], "c": 1}],
                         "B": [{"i": 1, "j": 1, "mi": [0, 0], "c": 1},
                               {"i": 2, "j": 2, "mi": [0, 0], "c": 1}]})
    points = [disk_boundary(float(a))
              for a in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)]
    report = check_ellipticity(diag, points, [(1.0, 0.0), (0.6, 0.8)])
    assert not report.verdicts["ellipticity"]
    w = report.witnesses["ellipticity"]
    assert abs(w["xi"][0] - 1.0) <= 1e-12 and abs(w["xi"][1]) <= 1e-12
    assert w["det"] < 1e-10

    # det L = 0 everywhere: a failed verdict with a witness, not an
    # unusable problem, so the adn verb exits 1
    singular = {"M": 2, "s": [0, 0], "t": [2, 2], "r": [-2, -2],
                "L": [{"i": i, "j": j, "mi": [2, 0], "c": 1} for i in (1, 2) for j in (1, 2)],
                "B": [{"i": 1, "j": 1, "mi": [0, 0], "c": 1},
                      {"i": 2, "j": 2, "mi": [0, 0], "c": 1}]}
    report = check_all(load_problem(singular))
    assert not report.verdicts["ellipticity"]
    assert report.witnesses["ellipticity"]["det"] == 0.0
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(singular))
    assert main(["adn", str(path), "--out", str(tmp_path / "singular.report.json")]) == 1

    # (d1 +- i d2)^2 is elliptic with m = 1, but its pencil has a double
    # root on one side of the real axis: no stable factor of degree m
    for imag in ("2j", "-2j"):
        bitsadze = load_problem({"M": 1, "s": [0], "t": [2], "r": [-2],
                                 "L": [{"i": 1, "j": 1, "mi": [2, 0], "c": 1},
                                       {"i": 1, "j": 1, "mi": [1, 1], "c": imag},
                                       {"i": 1, "j": 1, "mi": [0, 2], "c": -1}],
                                 "B": [{"i": 1, "j": 1, "mi": [0, 0], "c": 1}]})
        report = check_all(bitsadze)
        assert report.verdicts["ellipticity"] and report.m == 1
        assert not report.verdicts["supplementary"], imag
        assert len(report.witnesses["supplementary"]["roots"]) in (0, 2), imag
        for c in (1.0, -1.0):
            point = disk_boundary(0.4)
            with pytest.raises(ValueError, match=r"[02] stable pencil roots for half-order m=1"):
                complementing_check(bitsadze, point, c * np.asarray(point.tau))

    dirichlet = load_problem({"M": 2, "s": [0, 0], "t": [2, 2], "r": [-2, -2],
                              "L": laplacian_rows,
                              "B": [{"i": 1, "j": 1, "mi": [0, 0], "c": 1},
                                    {"i": 2, "j": 2, "mi": [0, 0], "c": 1}],
                              "name": "dirichlet"})
    assert check_all(dirichlet).passed
    lp, bp = principal_parts(dirichlet)
    point = disk_boundary(0.4)
    k = 2.0
    xi = k * np.asarray(point.tau)
    m_plus = _monic(np.array(roots_positive_imag(lp, point, xi, point.n)))
    product = _matmul(bp(point, xi, point.n), _adjugate(lp(point, xi, point.n)))
    _, rem = _polydiv(product, m_plus)
    want = np.array([2.0 * k ** 2, 2.0j * k])
    worst = 0.0
    for j in range(2):
        worst = max(worst, float(np.abs(rem[j, j] - want).max()))
        assert _degrees(rem[j, 1 - j]) == -1
    print(f"criterion 10: dup-rows witness {tuple(np.round(wit, 10))}, "
          f"diag witness xi={tuple(w['xi'])}, dirichlet remainder error {worst:.3e}")
    assert worst <= 1e-12


def test_criterion_11_second_derivative_to_data_ratio_stable(grid64, grid128):
    # The H2-to-data ratio: sqrt(5) on the rigid field, and stable within
    # 10% between 64^2 and 128^2 on 50 sampled slip fields (alpha = 1).
    r = grid64.r[:, None]
    rigid = VectorField(grid64, np.zeros(grid64.shape),
                        np.broadcast_to(r, grid64.shape).copy())
    err_rigid = abs(h2_ratio(rigid) - np.sqrt(5.0))
    assert err_rigid <= 1e-2

    ratios = {}
    for grid in (grid64, grid128):
        ratios[grid.n_r] = np.array(
            [h2_ratio(sample_navier_field(seed, 1.0, grid)) for seed in range(50)])
    drift = np.abs(ratios[128] - ratios[64]) / ratios[64]
    print(f"criterion 11: rigid |ratio-sqrt5|={err_rigid:.3e}; 50 samples "
          f"ratio in [{ratios[64].min():.3f}, {ratios[64].max():.3f}], "
          f"max grid drift {drift.max():.4f} (gate 0.10)")
    assert np.isfinite(ratios[64]).all() and np.isfinite(ratios[128]).all()
    assert drift.max() <= 0.10


def test_criterion_12_gradient_to_vorticity_ratio_bounded_and_stable(
        grid64, grid128):
    # The Lp velocity-gradient to vorticity ratio stays within fixed
    # bounds for p = 2, 3, 4 over 20 random smooth fields and moves less
    # than 10% per field between 64^2 and 128^2.
    exponents = (2.0, 3.0, 4.0)
    vals = {grid.n_r: {p: [] for p in exponents} for grid in (grid64, grid128)}
    for grid in (grid64, grid128):
        for seed in range(20):
            om = smooth_vorticity(grid, seed=seed)
            for p in exponents:
                vals[grid.n_r][p].append(cz_ratio(om, p))
    worst_drift, lo, hi = 0.0, np.inf, 0.0
    for p in exponents:
        a64 = np.asarray(vals[64][p])
        a128 = np.asarray(vals[128][p])
        worst_drift = max(worst_drift, float((np.abs(a128 - a64) / a64).max()))
        lo, hi = min(lo, a64.min(), a128.min()), max(hi, a64.max(), a128.max())
    print(f"criterion 12: 20 fields x p in {exponents}: ratios in "
          f"[{lo:.4f}, {hi:.4f}], max grid drift {worst_drift:.4f} (gates "
          f"[0.02, 10], 0.10)")
    assert lo >= 0.02 and hi <= 10.0
    assert worst_drift <= 0.10

"""Residual evaluation for every identity and inequality the solver is
supposed to respect: slip boundary conditions, the weak momentum balance,
the shifted-vorticity enstrophy balance, the renormalized vorticity
inequality, and the elliptic regularity ratios.

All operations are pure functions of snapshots or trajectories and are
deterministic; every residual decreases under simultaneous grid and time
step refinement on smooth data, which is what the associated tests pin
down. Time derivatives of snapshot series use centered differences with
one-sided ends. Each diagnostic returns the plain values its callers
read: a dict of per-curve maxima, a per-snapshot or per-interval residual
array, or a float; diagnose() gathers the slip, weak-form and balance
residuals of a trajectory into the diagnose verb's report.

The trajectory diagnostics walk the snapshots in batches
(Trajectory._batches): every stencil, quadrature and pressure solve
acts on a batch's stacked fields (b, n_r, n_theta) at once, and only
per-snapshot numbers outlive the batch. diagnose() walks a trajectory
once (_walk), differentiating each snapshot's velocity once. A run of
2 or more snapshots is walked in two processes, each taking a view of
half its snapshots as a trajectory.
A snapshot's rows do not depend on where its batch starts, so the
halves' rows, joined in order, are bitwise those of one process's walk.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._forked import ForkedCall
from .biot_savart import biot_savart
from .field import (ScalarField, VectorField, boundary_values, bump_values, curl,
                    grad, gradient_frobenius, lp_norm, perp_grad, theta_derivative,
                    vector_gradient, wall_derivative)
from .geometry import BoundaryTrace, PolarGrid, bump_radius, finite, integrate, point, table
from .pressure import check_tangent_field, recover_pressure


# ---------------------------------------------------------------------------
# boundary condition residuals
# ---------------------------------------------------------------------------

def navier_residuals(u: VectorField, omega: ScalarField,
                     trace: BoundaryTrace) -> dict[str, float]:
    """Max over the wall angles of the three slip boundary statements at
    r = 1, keyed by curve name; for a stack of snapshots, the max over the
    stack too.

    On the disk the tangential symmetric strain is
    (Du)_S n.tau = (d_r u_theta - u_theta / r + (1/r) d_theta u_r) / 2,
    with the radial derivative one-sided at the wall. The curves are

      navier_condition:    2 (Du)_S n.tau + alpha u.tau
      curl_identity:       omega/2 - (Du)_S n.tau - kappa u.tau
      normal_derivative:   d_r u_theta + (alpha - kappa) u.tau

    The first and third vanish on fields that satisfy the slip condition;
    the second is an identity for any tangent field and measures how
    consistently the vorticity trace matches the velocity stencils.
    """
    grid = u.grid
    ut = boundary_values(u.u_theta)
    dut = wall_derivative(u.u_theta, grid)
    dur_dtheta = boundary_values(theta_derivative(u.u_r[..., -3:, :]))
    om_tr = boundary_values(omega.values)
    alpha, kappa = trace.alpha, trace.kappa

    strain = 0.5 * (dut - ut + dur_dtheta)
    curves = {
        "navier_condition": 2.0 * strain + alpha * ut,
        "curl_identity": 0.5 * om_tr - strain - kappa * ut,
        "normal_derivative": dut + (alpha - kappa) * ut,
    }
    return {k: float(np.abs(v).max()) for k, v in curves.items()}


# ---------------------------------------------------------------------------
# extended tangent field and the shifted vorticity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtendedTangent:
    """Interior extension tau_bar = eta(r) (2 kappa - alpha(theta)) e_theta
    with analytic gradient and vector Laplacian.

    The cutoff eta is the quintic smoothstep on [1/2, 1] (eta(1/2) = 0,
    eta(1) = 1, first and second derivatives vanishing at both ends), so
    tau_bar vanishes identically for r <= 1/2 and every 1/r factor below
    is harmless. On the boundary tau_bar equals (2 kappa - alpha) e_theta.

    tau_bar is tangential: construction refuses a nonzero field.u_r or
    gradient["rr"], and the shifted vorticity and the balance source skip
    those parts.
    """
    field: VectorField
    gradient: dict[str, np.ndarray]
    laplacian: VectorField

    def __post_init__(self):
        if np.any(self.field.u_r) or np.any(self.gradient["rr"]):
            raise ValueError("tau_bar must be tangential: field.u_r and gradient['rr'] "
                             "must vanish")


def extended_tangent(grid: PolarGrid, trace: BoundaryTrace) -> ExtendedTangent:
    """Build the extension of the trace's slip coefficient; its radial
    component and gradient["rr"] are zero, as ExtendedTangent requires."""
    r = grid.r
    t = np.clip(2.0 * r - 1.0, 0.0, 1.0)
    eta = t ** 3 * (10.0 - 15.0 * t + 6.0 * t ** 2)
    deta = 2.0 * 30.0 * t ** 2 * (1.0 - t) ** 2
    d2eta = 4.0 * 60.0 * t * (1.0 - t) * (1.0 - 2.0 * t)

    coeff = 2.0 * trace.kappa - trace.alpha          # (n_theta,)
    dcoeff = theta_derivative(coeff[None, :])[0]
    d2coeff = theta_derivative(coeff[None, :], order=2)[0]

    rc = r[:, None]
    g = eta[:, None] * coeff[None, :]
    tau = VectorField(grid, np.zeros(grid.shape), g)

    gradient = {
        "rr": np.zeros(grid.shape),
        "rt": deta[:, None] * coeff[None, :],
        "tr": -g / rc,
        "tt": eta[:, None] * dcoeff[None, :] / rc,
    }
    lap_g = (d2eta[:, None] * coeff[None, :]
             + deta[:, None] * coeff[None, :] / rc
             + eta[:, None] * d2coeff[None, :] / rc ** 2)
    lap = VectorField(grid,
                      -2.0 * eta[:, None] * dcoeff[None, :] / rc ** 2,
                      lap_g - g / rc ** 2)
    return ExtendedTangent(field=tau, gradient=gradient, laplacian=lap)


def shifted_vorticity(omega: ScalarField, u: VectorField,
                      tau_bar: ExtendedTangent) -> ScalarField:
    """omega - u.tau_bar: its trace vanishes for slip solutions, which is
    what makes its enstrophy balance boundary-term free. tau_bar is
    tangential, so u.tau_bar = u_theta tau_bar_theta."""
    return ScalarField(omega.grid, omega.values - u.u_theta * tau_bar.field.u_theta)


def balance_source(u: VectorField, pressure: ScalarField, nu: float,
                   tau_bar: ExtendedTangent, gu: dict) -> np.ndarray:
    """Node values of the source term of the shifted enstrophy balance,

    f = -u.(grad(tau_bar)^T u) + grad(p).tau_bar
        + 2 nu trace(grad(u)^T grad(tau_bar)) + nu u.Laplace(tau_bar),

    gu = vector_gradient(u) given. tau_bar is tangential, so the terms
    with its zero radial component or G_rr are left out, and of grad(p)
    only the angular component (1/r) dp/dtheta is taken.
    """
    gt = tau_bar.gradient
    quad = (u.u_r * u.u_theta * gt["rt"] + u.u_theta * u.u_r * gt["tr"]
            + u.u_theta * u.u_theta * gt["tt"])
    press = theta_derivative(pressure.values) / u.grid.r_col * tau_bar.field.u_theta
    cross = 2.0 * nu * (gu["rt"] * gt["rt"] + gu["tr"] * gt["tr"] + gu["tt"] * gt["tt"])
    lap = nu * (u.u_r * tau_bar.laplacian.u_r + u.u_theta * tau_bar.laplacian.u_theta)
    return -quad + press + cross + lap


# ---------------------------------------------------------------------------
# the weak momentum balance and the shifted enstrophy balance, in one walk
# ---------------------------------------------------------------------------

def _rigid_rotation(grid: PolarGrid) -> VectorField:
    """The rigid rotation r e_theta, diagnose's weak-form test field."""
    return VectorField(grid, np.zeros(grid.shape),
                       np.tile(grid.r[:, None], (1, grid.n_theta)))


def _walk_batches(traj, v: VectorField, tau_bar: ExtendedTangent):
    """(Navier curve maxima, rows) over traj._batches(): rows (5, n) holds,
    per snapshot in order, the mass (u, v), the rest of the weak form
    against v, and the shifted enstrophy, its dissipation and its balance
    source with tau_bar. Per batch, one recover_pressure's (u.grad)u and
    velocity gradient serve the weak form and the balance source alike."""
    grid = traj.grid
    nu = traj.config.nu
    gv = vector_gradient(v)
    weight = (traj.trace.kappa - traj.trace.alpha) * boundary_values(v.u_theta)
    worst, blocks = {}, []
    for _, om, u in traj._batches():
        for k, value in navier_residuals(u, om, traj.trace).items():
            worst[k] = max(worst.get(k, 0.0), value)
        ps = recover_pressure(u, om, nu, traj.trace)
        a, gu = ps.acceleration, ps.gradient
        mass = integrate(grid, u.u_r * v.u_r + u.u_theta * v.u_theta)
        adv = integrate(grid, a.u_r * v.u_r + a.u_theta * v.u_theta)
        visc = nu * integrate(grid, gradient_frobenius(gu, gv))
        bnd = nu * np.sum(weight * boundary_values(u.u_theta), axis=-1) * grid.dtheta
        bar = shifted_vorticity(om, u, tau_bar)
        gb = grad(bar)
        f = balance_source(u, ps.p, nu, tau_bar, gu)
        blocks.append(np.stack([mass, adv + visc - bnd,
                                integrate(grid, bar.values ** 2),
                                integrate(grid, gb.u_r ** 2 + gb.u_theta ** 2),
                                integrate(grid, f * bar.values)]))
    return worst, np.concatenate(blocks, axis=1)


def _walk(traj, v: VectorField, tau_bar: ExtendedTangent):
    """(Navier curve maxima, weak-form residual against v per snapshot,
    balance defect with tau_bar per interval) from one pass over the
    snapshots. A run of 2 or more snapshots is walked in two processes:
    this one walks its first n // 2 snapshots and a forked child the
    rest, each half a trajectory of its own viewing a slice of
    traj.omega; one concatenation and one max per Navier curve merge
    them. A run of 1 snapshot has no second half and is walked here.
    ValueError for a run without snapshots."""
    check_tangent_field(v, "test field")
    nu = traj.config.nu
    times = np.asarray(traj.times)
    if times.size == 0:
        raise ValueError("a trajectory walk needs at least 1 snapshot, got 0")
    if times.size < 2:
        parts = [_walk_batches(traj, v, tau_bar)]
    else:
        first, second = (replace(traj, times=times[s], omega=traj.omega[s])
                         for s in (slice(times.size // 2), slice(times.size // 2, None)))
        with ForkedCall(lambda: _walk_batches(second, v, tau_bar)) as child:
            parts = [_walk_batches(first, v, tau_bar), child.result()]
    worsts, rows = zip(*parts)
    worst = {k: max(w[k] for w in worsts) for k in worsts[0]}
    mass, rest, z, dissip, source = np.concatenate(rows, axis=1)
    dmass = np.gradient(mass, times) if times.size > 1 else np.zeros(1)
    dt = np.diff(times)
    defect = (0.5 * np.diff(z)
              + dt * nu * 0.5 * (dissip[:-1] + dissip[1:])
              - dt * 0.5 * (source[:-1] + source[1:]))
    return worst, np.abs(dmass + rest), np.abs(defect)


def weak_form_residual(traj, v: VectorField) -> np.ndarray:
    """Absolute residual per snapshot of the weak momentum balance against
    a steady test field:

        d/dt (u, v) + ((u.grad)u, v) + nu (grad u, grad v)
            = nu * boundary integral of (kappa - alpha)(u.tau)(v.tau),

    nu the trajectory's viscosity. v must pass check_tangent_field. The
    time derivative uses centered differences on the snapshot times
    (one-sided at the ends). (u.grad)u and grad u are those of the
    snapshot's pressure recovery (see _walk).
    """
    return _walk(traj, v, extended_tangent(traj.grid, traj.trace))[1]


def enstrophy_balance_residual(traj, tau_bar: ExtendedTangent) -> np.ndarray:
    """Absolute defect of the shifted enstrophy balance on each snapshot
    interval, one entry per consecutive pair of snapshots:

        1/2 d/dt ||omega_bar||^2 + nu ||grad omega_bar||^2 = (f, omega_bar),

    nu the trajectory's viscosity, time integrals by the trapezoid rule on
    the snapshot grid. f takes the pressure and the velocity gradient of
    one recover_pressure per batch (see _walk).
    """
    return _walk(traj, _rigid_rotation(traj.grid), tau_bar)[2]


def diagnose(traj) -> dict:
    """The diagnose verb's report of a trajectory with at least 2 snapshots,
    from one _walk: the Navier curves' maxima over the snapshots, the weak
    form against the rigid rotation r e_theta and the shifted enstrophy
    balance, each with its max, the config's tolerance, and a pass verdict
    when that is set. ValueError naming the count for a run of fewer than
    2 snapshots, the diagnose verb's exit 2."""
    if len(traj.times) < 2:
        raise ValueError(f"diagnose needs at least 2 snapshots, got {len(traj.times)}")
    tol = traj.config.tol
    worst, wf, eb = _walk(traj, _rigid_rotation(traj.grid),
                          extended_tangent(traj.grid, traj.trace))

    def section(value, key):
        entry = {"max": value, "tolerance": tol.get(key)}
        if key in tol:
            entry["pass"] = bool(value <= tol[key])
        return entry

    return {"config": traj.config.to_dict(),
            "navier": section(worst["navier_condition"], "navier"),
            "navier_curves": worst,
            "weak_form": section(float(wf.max()), "weakform"),
            "balance": section(float(eb.max()), "balance")}


# ---------------------------------------------------------------------------
# renormalized vorticity inequality
# ---------------------------------------------------------------------------

def phi_bump(phi_spec: dict) -> tuple | None:
    """Validated (center, radius, amplitude) of renormalized_slack's test
    function spec: None for {'zero': {}}. ValueError unless the spec is a
    nonnegative bump supported strictly inside the disk, its radius read by
    bump_radius; an object holding a key it does not take is refused too."""
    if len(table(phi_spec, "phi_spec", ("bump", "zero"))) != 1:
        raise ValueError(f"phi_spec must hold exactly one of bump or zero, got {phi_spec!r}")
    if "zero" in phi_spec:
        table(phi_spec["zero"], "phi zero", ())
        return None
    spec = table(phi_spec["bump"], "phi bump", ("center", "radius", "amplitude"))
    if "radius" not in spec:
        raise ValueError(f"phi bump must hold a radius, got {spec!r}")
    center = point(spec.get("center", (0.0, 0.0)), "phi center")
    radius = bump_radius(spec["radius"], "phi radius")
    amplitude = finite(spec.get("amplitude", 1.0), "phi amplitude")
    if not amplitude >= 0.0:
        raise ValueError(f"phi must be nonnegative: amplitude {amplitude}")
    if not np.hypot(*center) + radius < 1.0:
        raise ValueError(f"phi must be supported strictly inside the disk: center "
                         f"{center}, radius {radius}")
    return center, radius, amplitude


@np.errstate(over="ignore", invalid="ignore")
def renormalized_slack(traj, phi_spec: dict, q: float) -> float:
    """Value S(nu) of the renormalized inequality for the built-in test
    function family phi(t, x) = (1 - t/T) * bump(x):

        S = int_0^T int |omega|^q (d_t phi + u . grad phi) dx dt
            + int |omega_0|^q phi(0, .) dx.

    The inequality asserts S >= -nu C for the trajectory's viscosity nu;
    callers report max(0, -S)/nu as the measured constant. q must lie in
    [1, p) for the largest tracked exponent p (a run that tracks none is
    refused), phi_spec must pass phi_bump, and the run must hold at least
    2 snapshots (T > 0). A |omega|^q outside the float range warns of
    nothing: S is then not finite, and run_sweep stops on it.
    """
    if len(traj.times) < 2:
        raise ValueError(f"renormalized_slack needs at least 2 snapshots, "
                         f"got {len(traj.times)}")
    if not traj.config.lp_exponents:
        raise ValueError(f"renormalized_slack needs a tracked lp exponent above q={q}, "
                         f"the run tracks none")
    p_max = max(traj.config.lp_exponents)
    if not 1.0 <= q < p_max:
        raise ValueError(f"q must lie in [1, {p_max}), got {q}")
    phi = phi_bump(phi_spec)
    if phi is None:
        return 0.0

    grid = traj.grid
    bump, gx, gy = bump_values(grid, *phi)
    times = np.asarray(traj.times)
    t_final = times[-1]
    integrand = np.empty(times.size)
    for sl, om, u in traj._batches():
        ux, uy = u.to_cartesian()
        transport = (1.0 - times[sl, None, None] / t_final) * (ux * gx + uy * gy)
        integrand[sl] = integrate(grid, np.abs(om.values) ** q
                                  * (-bump / t_final + transport))
    s = float(np.trapezoid(integrand, times))
    return s + float(integrate(grid, np.abs(traj.omega[0]) ** q * bump))


# ---------------------------------------------------------------------------
# elliptic regularity ratios
# ---------------------------------------------------------------------------

def h2_ratio(u: VectorField) -> float:
    """Discrete ||u||_{H^2} / (||Laplace u||_2 + ||u||_2), the measurable
    shadow of the elliptic estimate for slip fields.

    Laplace u is evaluated as the rotated gradient of curl u, valid for
    divergence-free fields; the H^2 seminorms differentiate the cartesian
    velocity components by repeated first-derivative stencils.
    """
    grid = u.grid
    lap = perp_grad(curl(u))
    den = lp_norm(lap, 2.0) + lp_norm(u, 2.0)
    if den < 1e-14:
        raise ValueError("zero velocity field: H2 ratio undefined")
    ux, uy = u.to_cartesian()
    total = integrate(grid, ux ** 2 + uy ** 2)
    seconds = []
    for comp in (ux, uy):
        dx, dy = grad(ScalarField(grid, comp)).to_cartesian()
        total += integrate(grid, dx ** 2 + dy ** 2)
        seconds.extend(grad(ScalarField(grid, dx)).to_cartesian())
        seconds.extend(grad(ScalarField(grid, dy)).to_cartesian())
    for d2 in seconds:
        total += integrate(grid, d2 ** 2)
    return float(np.sqrt(total)) / den


def cz_ratio(omega: ScalarField, p: float) -> float:
    """||grad(K omega)||_p / ||omega||_p: the measured constant of the
    Lp gradient bound for the disk Biot-Savart operator."""
    den = lp_norm(omega, p)
    if den < 1e-14:
        raise ValueError("zero vorticity: ratio undefined")
    u = biot_savart(omega)
    gu = vector_gradient(u)
    frob = np.sqrt(gradient_frobenius(gu, gu))
    return lp_norm(ScalarField(omega.grid, frob), p) / den

"""Residual evaluation for every identity and inequality the solver is
supposed to respect: slip boundary conditions, the weak momentum balance,
the shifted-vorticity enstrophy balance, the renormalized vorticity
inequality, and the elliptic regularity ratios.

All operations are pure functions of snapshots or trajectories and are
deterministic; every residual decreases under simultaneous grid and time
step refinement on smooth data, which is what the associated tests pin
down. Time derivatives of snapshot series use centered differences with
one-sided ends.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .biot_savart import biot_savart
from .field import (ScalarField, VectorField, boundary_values, curl, divergence,
                    cartesian_gradient, grad, gradient_frobenius, lp_norm,
                    perp_grad, theta_derivative, vector_gradient, wall_derivative)
from .geometry import BoundaryTrace, PolarGrid, integrate
from .pressure import PressureSolve, advective_acceleration

MEMBERSHIP_TOL = 1e-6


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    """Named residual curves with their max norms and optional verdicts."""
    name: str
    n_r: int
    n_theta: int
    norm: str
    residuals: dict[str, float]
    curves: dict[str, np.ndarray]
    tolerance: float | None = None
    verdicts: dict[str, bool] = dataclass_field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "n_r": self.n_r,
            "n_theta": self.n_theta,
            "norm": self.norm,
            "residuals": self.residuals,
            "tolerance": self.tolerance,
            "verdicts": self.verdicts,
            "curves": {k: v.tolist() for k, v in self.curves.items()},
        }
        return json.dumps(payload, sort_keys=True)


@dataclass(frozen=True)
class TimeSeriesReport:
    """A residual sampled along a trajectory, with summary norms."""
    name: str
    times: np.ndarray
    values: np.ndarray
    max_value: float
    mean_value: float


def _series_report(name: str, times: np.ndarray, values: np.ndarray) -> TimeSeriesReport:
    return TimeSeriesReport(name=name, times=times, values=values,
                            max_value=float(np.max(np.abs(values))),
                            mean_value=float(np.mean(np.abs(values))))


# ---------------------------------------------------------------------------
# boundary condition residuals
# ---------------------------------------------------------------------------

def navier_residuals(u: VectorField, omega: ScalarField, trace: BoundaryTrace,
                     tolerance: float | None = None) -> ResidualReport:
    """Per-angle residuals of the three slip boundary statements at r = 1.

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
    ut = boundary_values(u.u_theta, grid)
    dut = wall_derivative(u.u_theta, grid)
    dur_dtheta = theta_derivative(boundary_values(u.u_r, grid)[None, :])[0]
    om_tr = boundary_values(omega.values, grid)
    alpha, kappa = trace.alpha, trace.kappa

    strain = 0.5 * (dut - ut + dur_dtheta)
    curves = {
        "navier_condition": 2.0 * strain + alpha * ut,
        "curl_identity": 0.5 * om_tr - strain - kappa * ut,
        "normal_derivative": dut + (alpha - kappa) * ut,
    }
    residuals = {k: float(np.abs(v).max()) for k, v in curves.items()}
    verdicts = ({k: bool(v <= tolerance) for k, v in residuals.items()}
                if tolerance is not None else {})
    return ResidualReport(name="navier_residuals", n_r=grid.n_r,
                          n_theta=grid.n_theta, norm="max", residuals=residuals,
                          curves=curves, tolerance=tolerance, verdicts=verdicts)


# ---------------------------------------------------------------------------
# weak momentum balance
# ---------------------------------------------------------------------------

def _check_test_field(v: VectorField) -> None:
    div_max = float(np.abs(divergence(v).values).max())
    if div_max > MEMBERSHIP_TOL:
        raise ValueError(f"test field is not divergence-free: max |div v| = {div_max:.3e}")
    tang = float(np.abs(boundary_values(v.u_r, v.grid)).max())
    if tang > MEMBERSHIP_TOL:
        raise ValueError(f"test field is not tangent: max |v.n| at r=1 is {tang:.3e}")


def weak_form_residual(traj, v: VectorField, nu: float,
                       trace: BoundaryTrace | None = None) -> TimeSeriesReport:
    """Residual of the weak momentum balance against a steady test field:

        d/dt (u, v) + ((u.grad)u, v) + nu (grad u, grad v)
            = nu * boundary integral of (kappa - alpha)(u.tau)(v.tau).

    v must be divergence-free and tangent. The time derivative uses
    centered differences on the snapshot times (one-sided at the ends).
    """
    _check_test_field(v)
    trace = traj.trace if trace is None else trace
    grid = traj.grid
    gv = vector_gradient(v)
    v_tau = boundary_values(v.u_theta, grid)
    weight = (trace.kappa - trace.alpha) * v_tau

    times = np.asarray(traj.times)
    mass = np.empty(times.size)
    rest = np.empty(times.size)
    for k, u in enumerate(traj.us):
        mass[k] = integrate(grid, u.u_r * v.u_r + u.u_theta * v.u_theta)
        a = advective_acceleration(u)
        adv = integrate(grid, a.u_r * v.u_r + a.u_theta * v.u_theta)
        visc = nu * integrate(grid, gradient_frobenius(vector_gradient(u), gv))
        bnd = nu * float(np.sum(weight * boundary_values(u.u_theta, grid))) * grid.dtheta
        rest[k] = adv + visc - bnd
    dmass = np.gradient(mass, times) if times.size > 1 else np.zeros(1)
    return _series_report("weak_form_residual", times, np.abs(dmass + rest))


# ---------------------------------------------------------------------------
# extended tangent field and the shifted enstrophy balance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtendedTangent:
    """Interior extension tau_bar = eta(r) (2 kappa - alpha(theta)) e_theta
    with analytic gradient and vector Laplacian.

    The cutoff eta is the quintic smoothstep on [1/2, 1] (eta(1/2) = 0,
    eta(1) = 1, first and second derivatives vanishing at both ends), so
    tau_bar vanishes identically for r <= 1/2 and every 1/r factor below
    is harmless. On the boundary tau_bar equals (2 kappa - alpha) e_theta.
    """
    field: VectorField
    gradient: dict[str, np.ndarray]
    laplacian: VectorField


def extended_tangent(grid: PolarGrid, trace: BoundaryTrace,
                     cutoff: str = "quintic") -> ExtendedTangent:
    """Build the extension. cutoff="zero" degenerates eta (and the whole
    field) to zero, which reduces the shifted enstrophy balance to the
    plain one."""
    r = grid.r
    if cutoff == "quintic":
        t = np.clip(2.0 * r - 1.0, 0.0, 1.0)
        eta = t ** 3 * (10.0 - 15.0 * t + 6.0 * t ** 2)
        deta = 2.0 * 30.0 * t ** 2 * (1.0 - t) ** 2
        d2eta = 4.0 * 60.0 * t * (1.0 - t) * (1.0 - 2.0 * t)
    elif cutoff == "zero":
        eta = np.zeros_like(r)
        deta = np.zeros_like(r)
        d2eta = np.zeros_like(r)
    else:
        raise ValueError(f"unknown cutoff {cutoff!r}")

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
    what makes its enstrophy balance boundary-term free."""
    t = tau_bar.field
    return ScalarField(omega.grid,
                       omega.values - u.u_r * t.u_r - u.u_theta * t.u_theta)


def balance_source(u: VectorField, pressure: ScalarField, nu: float,
                   tau_bar: ExtendedTangent) -> ScalarField:
    """Source term of the shifted enstrophy balance,

    f = -u.(grad(tau_bar)^T u) + grad(p).tau_bar
        + 2 nu trace(grad(u)^T grad(tau_bar)) + nu u.Laplace(tau_bar).
    """
    grid = u.grid
    gt = tau_bar.gradient
    tau = tau_bar.field
    quad = (u.u_r * u.u_r * gt["rr"] + u.u_r * u.u_theta * gt["rt"]
            + u.u_theta * u.u_r * gt["tr"] + u.u_theta * u.u_theta * gt["tt"])
    gp = grad(pressure)
    press = gp.u_r * tau.u_r + gp.u_theta * tau.u_theta
    gu = vector_gradient(u)
    cross = 2.0 * nu * gradient_frobenius(gu, gt)
    lap = nu * (u.u_r * tau_bar.laplacian.u_r + u.u_theta * tau_bar.laplacian.u_theta)
    return ScalarField(grid, -quad + press + cross + lap)


def enstrophy_balance_residual(traj, tau_bar: ExtendedTangent, nu: float,
                               pressures) -> TimeSeriesReport:
    """Defect of the shifted enstrophy balance on each snapshot interval:

        1/2 d/dt ||omega_bar||^2 + nu ||grad omega_bar||^2 = (f, omega_bar),

    time integrals by the trapezoid rule on the snapshot grid. pressures
    must hold one recovered pressure per snapshot.
    """
    times = np.asarray(traj.times)
    if len(pressures) != times.size:
        raise ValueError(f"need one pressure per snapshot: got {len(pressures)} "
                         f"for {times.size} snapshots")
    grid = traj.grid
    z = np.empty(times.size)
    dissip = np.empty(times.size)
    source = np.empty(times.size)
    for k, (om, u) in enumerate(zip(traj.omegas, traj.us)):
        p = pressures[k]
        p_field = p.p if isinstance(p, PressureSolve) else p
        bar = shifted_vorticity(om, u, tau_bar)
        z[k] = integrate(grid, bar.values ** 2)
        gb = grad(bar)
        dissip[k] = integrate(grid, gb.u_r ** 2 + gb.u_theta ** 2)
        f = balance_source(u, p_field, nu, tau_bar)
        source[k] = integrate(grid, f.values * bar.values)
    dt = np.diff(times)
    defect = (0.5 * np.diff(z)
              + dt * nu * 0.5 * (dissip[:-1] + dissip[1:])
              - dt * 0.5 * (source[:-1] + source[1:]))
    mid = 0.5 * (times[:-1] + times[1:])
    return _series_report("enstrophy_balance_residual", mid, np.abs(defect))


# ---------------------------------------------------------------------------
# renormalized vorticity inequality
# ---------------------------------------------------------------------------

def _bump_profile(grid: PolarGrid, center, radius: float, amplitude: float):
    """Compactly supported bump and its analytic cartesian gradient."""
    x = grid.r_col * np.cos(grid.theta)[None, :]
    y = grid.r_col * np.sin(grid.theta)[None, :]
    q = ((x - center[0]) ** 2 + (y - center[1]) ** 2) / radius ** 2
    inside = q < 1.0
    vals = np.zeros(grid.shape)
    vals[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - q[inside]))
    dfdq = np.zeros(grid.shape)
    dfdq[inside] = -vals[inside] / (1.0 - q[inside]) ** 2
    gx = dfdq * 2.0 * (x - center[0]) / radius ** 2
    gy = dfdq * 2.0 * (y - center[1]) / radius ** 2
    return vals, gx, gy


def renormalized_slack(traj, phi_spec: dict, q: float, nu: float) -> float:
    """Value S(nu) of the renormalized inequality for the built-in test
    function family phi(t, x) = (1 - t/T) * bump(x):

        S = int_0^T int |omega|^q (d_t phi + u . grad phi) dx dt
            + int |omega_0|^q phi(0, .) dx.

    The inequality asserts S >= -nu C; callers report max(0, -S)/nu as the
    measured constant. q must lie in [1, p) for the largest tracked
    exponent p, phi must be nonnegative with support strictly inside the
    disk, and nu must be the trajectory's viscosity.
    """
    p_max = max(traj.config.lp_exponents)
    if not 1.0 <= q < p_max:
        raise ValueError(f"q must lie in [1, {p_max}), got {q}")
    if nu != traj.config.nu:
        raise ValueError(f"nu={nu} does not match the trajectory ({traj.config.nu})")
    if "zero" in phi_spec:
        return 0.0
    if "bump" not in phi_spec:
        raise ValueError("phi_spec must be {'bump': {...}} or {'zero': {}}")
    spec = phi_spec["bump"]
    center = tuple(spec.get("center", (0.0, 0.0)))
    radius = float(spec["radius"])
    amplitude = float(spec.get("amplitude", 1.0))
    if amplitude < 0.0:
        raise ValueError("phi must be nonnegative: amplitude < 0")
    if np.hypot(*center) + radius >= 1.0:
        raise ValueError("phi must be supported strictly inside the disk")

    grid = traj.grid
    bump, gx, gy = _bump_profile(grid, center, radius, amplitude)
    if bump.min() < 0.0:
        raise ValueError("phi sampled negative")
    times = np.asarray(traj.times)
    t_final = times[-1]
    integrand = np.empty(times.size)
    for k, (om, u) in enumerate(zip(traj.omegas, traj.us)):
        ux, uy = u.to_cartesian()
        transport = (1.0 - times[k] / t_final) * (ux * gx + uy * gy)
        integrand[k] = integrate(grid, np.abs(om.values) ** q
                                 * (-bump / t_final + transport))
    s = float(np.trapezoid(integrand, times))
    s += integrate(grid, np.abs(traj.omegas[0].values) ** q * bump)
    return s


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
        dx, dy = cartesian_gradient(comp, grid)
        total += integrate(grid, dx ** 2 + dy ** 2)
        seconds.extend(cartesian_gradient(dx, grid))
        seconds.extend(cartesian_gradient(dy, grid))
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

"""Vorticity-form Navier-Stokes stepper on the disk with slip boundaries.

One step is IMEX: the advection u . grad(omega) advances by explicit
midpoint RK2 (spectral theta derivatives, centered radial derivatives,
2/3-rule dealiasing in theta), then diffusion advances by Crank-Nicolson
per Fourier mode. The vorticity boundary value is the slip relation
omega = (2 kappa - alpha) u . tau evaluated on the stage-lagged stream
function, so arbitrary initial vorticity is pulled onto the compatible
boundary value by the first diffusion solve rather than by projection.

A step runs in theta-mode space: the state carries the vorticity's rfft
modes, and the RK stages, the Poisson solves, the dealiasing and the
Crank-Nicolson solve act on modes. Fields go to the nodes only where a
product or a radial stencil needs them: each stage transforms its
advection product forward once, and the boundary data is transformed as
one ring. Each time level carries its velocity, built once from the
stream function's modes, and that velocity serves the CFL check, the
first RK stage, simulate()'s record and the automatic dt.

The viscosity-independent CFL bound dt <= 0.5 min(dr, r_1 dtheta)/max|u|
is a precondition of step(); simulate() re-evaluates an automatic dt
against it every 10 steps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ._tridiag import TridiagonalBatch, apply_tridiagonal
from .biot_savart import _cached_solver, dirichlet_laplacian_bands
from .field import (ScalarField, VectorField, boundary_tangential_velocity,
                    boundary_values, dealias_modes, from_modes, lp_norm,
                    perp_grad, radial_derivative, theta_derivative, to_modes)
from .geometry import BoundaryTrace, PolarGrid, boundary_trace, build_grid


class CflError(RuntimeError):
    """Advective CFL bound violated."""

    def __init__(self, dt: float, bound: float, max_u: float):
        super().__init__(f"dt={dt:.6g} exceeds CFL bound {bound:.6g} (max|u|={max_u:.6g})")
        self.dt = dt
        self.bound = bound
        self.max_u = max_u


class DivergenceError(RuntimeError):
    """Non-finite values appeared in the state."""


# ---------------------------------------------------------------------------
# configuration and initial data
# ---------------------------------------------------------------------------

@dataclass
class SimConfig:
    nu: float
    t_end: float
    initial_condition: dict
    alpha: object = 0.0
    dt: object = "auto"
    n_r: int = 64
    n_theta: int = 64
    output_stride: int = 10
    lp_exponents: tuple = (2.0, 4.0)
    tol: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError(f"nu must be nonnegative, got {self.nu}")
        if self.t_end <= 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.dt != "auto" and not float(self.dt) > 0:
            raise ValueError(f"dt must be 'auto' or positive, got {self.dt}")
        if self.output_stride < 1:
            raise ValueError(f"output_stride must be >= 1, got {self.output_stride}")
        for name in ("n_r", "n_theta"):
            size = getattr(self, name)
            if isinstance(size, bool) or not isinstance(size, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {size!r}")
            setattr(self, name, int(size))
        if self.n_r < 4:
            raise ValueError(f"n_r must be >= 4 for the radial stencils, got {self.n_r}")
        if self.n_theta <= 0 or self.n_theta % 2 != 0:
            raise ValueError(f"n_theta must be positive and even for the pole "
                             f"parity ghosts, got {self.n_theta}")
        self.lp_exponents = tuple(float(p) for p in self.lp_exponents)
        if any(p < 1 for p in self.lp_exponents):
            raise ValueError("lp exponents must be >= 1")

    def to_dict(self) -> dict:
        d = {
            "nu": self.nu, "t_end": self.t_end, "dt": self.dt,
            "n_r": self.n_r, "n_theta": self.n_theta,
            "alpha": self.alpha, "initial_condition": self.initial_condition,
            "output_stride": self.output_stride,
            "lp_exponents": list(self.lp_exponents),
        }
        if self.tol:
            d["tol"] = self.tol
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        known = {"nu", "t_end", "dt", "n_r", "n_theta", "alpha",
                 "initial_condition", "output_stride", "lp_exponents", "tol"}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {k: d[k] for k in known & set(d)}
        kwargs["lp_exponents"] = tuple(kwargs.get("lp_exponents", (2.0, 4.0)))
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path) -> "SimConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def bump_values(grid: PolarGrid, center=(0.0, 0.0), radius: float = 0.5,
                amplitude: float = 1.0) -> np.ndarray:
    """Smooth compactly supported bump: A exp(1 - 1/(1 - s^2)) for s < 1,
    s the scaled distance from the center."""
    x = grid.r_col * np.cos(grid.theta)[None, :]
    y = grid.r_col * np.sin(grid.theta)[None, :]
    q = ((x - center[0]) ** 2 + (y - center[1]) ** 2) / radius ** 2
    out = np.zeros(grid.shape)
    inside = q < 1.0
    out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - q[inside]))
    return out


def initial_vorticity(spec: dict, grid: PolarGrid) -> ScalarField:
    """Build initial vorticity from its config spec.

    Forms: {"const": c}; {"bump": {center, radius, amplitude}};
    {"singular": {center, gamma, p}} for the capped power-law
    min(dr^-gamma, |x - x0|^-gamma), requiring gamma * p < 2 so the
    profile lies in L^p; {"modes": [[k, coeffs], ...]} for radial
    polynomials sum_m coeffs[m] r^m times cos(k theta).
    """
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ValueError(f"initial condition spec must have exactly one key, got {spec!r}")
    kind, params = next(iter(spec.items()))
    if kind == "const":
        return ScalarField(grid, np.full(grid.shape, float(params)))
    if kind == "bump":
        vals = bump_values(grid, tuple(params.get("center", (0.0, 0.0))),
                           float(params.get("radius", 0.5)),
                           float(params.get("amplitude", 1.0)))
        return ScalarField(grid, vals)
    if kind == "singular":
        gamma = float(params["gamma"])
        p = float(params["p"])
        if gamma <= 0 or gamma * p >= 2.0:
            raise ValueError(f"singular profile needs 0 < gamma*p < 2, got gamma={gamma}, p={p}")
        cx, cy = params.get("center", (0.0, 0.0))
        cap = grid.dr ** (-gamma)
        x = grid.r_col * np.cos(grid.theta)[None, :]
        y = grid.r_col * np.sin(grid.theta)[None, :]
        dist = np.hypot(x - cx, y - cy)
        with np.errstate(divide="ignore"):
            vals = np.minimum(cap, dist ** (-gamma))
        return ScalarField(grid, vals)
    if kind == "modes":
        vals = np.zeros(grid.shape)
        for entry in params:
            k, coeffs = int(entry[0]), entry[1]
            phase = float(entry[2]) if len(entry) > 2 else 0.0
            prof = sum(float(c) * grid.r ** m for m, c in enumerate(coeffs))
            vals += prof[:, None] * np.cos(k * grid.theta - phase)[None, :]
        return ScalarField(grid, vals)
    raise ValueError(f"unknown initial condition kind {kind!r}")


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def cfl_bound(u: VectorField) -> float:
    """0.5 min(dr, r_1 dtheta) / max|u|; inf for the zero field."""
    grid = u.grid
    max_u = float(np.max(u.magnitude()))
    h = min(grid.dr, grid.r[0] * grid.dtheta)
    if max_u == 0.0:
        return np.inf
    return 0.5 * h / max_u


def vorticity_boundary(psi: ScalarField, trace: BoundaryTrace) -> np.ndarray:
    """Slip-compatible vorticity boundary value (2 kappa - alpha) u . tau."""
    return (2.0 * trace.kappa - trace.alpha) * boundary_tangential_velocity(psi)


def _advection(omega: np.ndarray, omega_modes: np.ndarray,
               u: VectorField) -> np.ndarray:
    """to_modes of u . grad(omega) in advective form, dealiased in theta;
    omega is given both on the nodes and as its modes."""
    grid = u.grid
    adv = (u.u_r * radial_derivative(omega, grid)
           + u.u_theta / grid.r_col * theta_derivative(omega, modes=omega_modes))
    return dealias_modes(to_modes(adv), grid.n_theta)


class _DiffusionCN:
    """Crank-Nicolson solve of the diffusion half with Dirichlet data g:
    (I - lam T) omega' = (I + lam T) omega + 2 lam d g, lam = nu dt / 2."""

    def __init__(self, grid: PolarGrid, lam: float):
        lower, diag, upper, data_coeff = dirichlet_laplacian_bands(grid)
        self._explicit = (lam * lower, 1.0 + lam * diag, lam * upper)
        self._lu = TridiagonalBatch(-lam * lower, 1.0 - lam * diag, -lam * upper)
        self._data = 2.0 * lam * data_coeff
        self.grid = grid
        self.lam = lam

    def step(self, omega_modes: np.ndarray, g: np.ndarray) -> np.ndarray:
        """New vorticity modes from omega_modes and the boundary values g."""
        rhs = apply_tridiagonal(*self._explicit, omega_modes)
        rhs[:, -1] += self._data * np.fft.rfft(g)
        return self._lu.solve(rhs)


@dataclass
class _State:
    """One time level: the vorticity as modes and on the nodes, and the
    stream function and velocity it induces."""

    omega_modes: np.ndarray
    omega: ScalarField
    psi: ScalarField
    u: VectorField


class _Stepper:
    """Holds the factorized solvers for one (grid, nu) pair."""

    def __init__(self, grid: PolarGrid, trace: BoundaryTrace, nu: float):
        self.grid = grid
        self.trace = trace
        self.nu = nu
        self.poisson = _cached_solver(grid)
        self._diffusion: dict[float, _DiffusionCN] = {}

    def diffusion(self, dt: float) -> _DiffusionCN:
        lam = 0.5 * self.nu * dt
        stepper = self._diffusion.get(lam)
        if stepper is None:
            if len(self._diffusion) > 8:
                self._diffusion.clear()
            stepper = self._diffusion[lam] = _DiffusionCN(self.grid, lam)
        return stepper

    def _velocity(self, omega_modes: np.ndarray) -> tuple[ScalarField, VectorField]:
        """Stream function and velocity of the vorticity modes."""
        psi_modes = self.poisson.solve_modes(omega_modes)
        psi = ScalarField(self.grid, from_modes(psi_modes, self.grid.n_theta))
        return psi, perp_grad(psi, psi_modes)

    def state(self, omega_modes: np.ndarray, omega: ScalarField) -> _State:
        """The time level of the vorticity omega, whose modes are omega_modes."""
        return _State(omega_modes, omega, *self._velocity(omega_modes))

    def advance(self, s: _State, dt: float) -> _State:
        u = s.u
        bound = cfl_bound(u)
        if dt > bound:
            raise CflError(dt, bound, float(np.max(u.magnitude())))
        n = self.grid.n_theta
        w_modes = s.omega_modes
        mid_modes = w_modes - 0.5 * dt * _advection(s.omega.values, w_modes, u)
        psi_mid, u_mid = self._velocity(mid_modes)
        star_modes = w_modes - dt * _advection(from_modes(mid_modes, n), mid_modes, u_mid)
        if self.nu > 0.0:
            g = vorticity_boundary(psi_mid, self.trace)
            new_modes = self.diffusion(dt).step(star_modes, g)
        else:
            new_modes = star_modes
        w_new = from_modes(new_modes, n)
        if not np.all(np.isfinite(w_new)):
            raise DivergenceError("non-finite vorticity after step")
        return self.state(new_modes, ScalarField(self.grid, w_new))


def step(omega: ScalarField, psi: ScalarField, config: SimConfig,
         trace: BoundaryTrace, dt: float | None = None
         ) -> tuple[ScalarField, ScalarField]:
    """Advance one IMEX step of size dt (config.dt when not given)."""
    if dt is None:
        if config.dt == "auto":
            raise ValueError("step needs a concrete dt; config.dt is 'auto'")
        dt = float(config.dt)
    stepper = _Stepper(omega.grid, trace, config.nu)
    s = stepper.advance(_State(to_modes(omega.values), omega, psi, perp_grad(psi)), dt)
    return s.omega, s.psi


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Snapshots plus per-step scalar series of one simulation."""

    config: SimConfig
    grid: PolarGrid
    trace: BoundaryTrace
    times: np.ndarray
    omegas: list
    psis: list
    us: list
    u_tau: list
    series: dict

    def snapshot(self, k: int) -> tuple[float, ScalarField, ScalarField, VectorField]:
        return float(self.times[k]), self.omegas[k], self.psis[k], self.us[k]

    def series_columns(self) -> list[str]:
        cols = ["t", "energy"]
        cols += [f"enstrophy_{_fmt_p(p)}" for p in self.config.lp_exponents]
        cols.append("bc_residual")
        return cols

    def save(self, run_dir) -> None:
        import os

        os.makedirs(run_dir, exist_ok=True)
        with open(os.path.join(run_dir, "config-resolved.json"), "w") as fh:
            json.dump(self.config.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        cols = self.series_columns()
        with open(os.path.join(run_dir, "series.csv"), "w") as fh:
            fh.write(",".join(cols) + "\n")
            for row in zip(*(self.series[c] for c in cols)):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        np.savez_compressed(
            os.path.join(run_dir, "snapshots.npz"),
            times=self.times,
            omega=np.stack([f.values for f in self.omegas]),
            psi=np.stack([f.values for f in self.psis]),
            u_r=np.stack([u.u_r for u in self.us]),
            u_theta=np.stack([u.u_theta for u in self.us]),
            u_tau=np.stack(self.u_tau),
            series_names=np.array(cols),
            series_values=np.stack([self.series[c] for c in cols]),
        )

    @classmethod
    def load(cls, run_dir) -> "Trajectory":
        import os

        config = SimConfig.from_json(os.path.join(run_dir, "config-resolved.json"))
        grid = build_grid(config.n_r, config.n_theta)
        trace = boundary_trace(grid, config.alpha)
        with np.load(os.path.join(run_dir, "snapshots.npz")) as data:
            times = data["times"]
            omegas = [ScalarField(grid, v) for v in data["omega"]]
            psis = [ScalarField(grid, v) for v in data["psi"]]
            us = [VectorField(grid, a, b) for a, b in zip(data["u_r"], data["u_theta"])]
            u_tau = list(data["u_tau"])
            names = [str(s) for s in data["series_names"]]
            series = {name: vals for name, vals in zip(names, data["series_values"])}
        return cls(config=config, grid=grid, trace=trace, times=times,
                   omegas=omegas, psis=psis, us=us, u_tau=u_tau, series=series)


def _fmt_p(p: float) -> str:
    return str(int(p)) if float(p).is_integer() else str(p).replace(".", "_")


def simulate(config: SimConfig) -> Trajectory:
    """Run the configured simulation; deterministic for a given config."""
    grid = build_grid(config.n_r, config.n_theta)
    trace = boundary_trace(grid, config.alpha)
    stepper = _Stepper(grid, trace, config.nu)
    omega = initial_vorticity(config.initial_condition, grid)
    state = stepper.state(to_modes(omega.values), omega)

    auto = config.dt == "auto"
    dt_nominal = None if auto else float(config.dt)

    omegas, psis, us, u_tau = [], [], [], []
    series: dict[str, list] = {c: [] for c in
                               ["t", "energy"]
                               + [f"enstrophy_{_fmt_p(p)}" for p in config.lp_exponents]
                               + ["bc_residual"]}

    def record(t, s: _State):
        series["t"].append(t)
        series["energy"].append(lp_norm(s.u, 2.0) ** 2)
        for p in config.lp_exponents:
            series[f"enstrophy_{_fmt_p(p)}"].append(lp_norm(s.omega, p))
        bc = boundary_values(s.omega.values, grid) - vorticity_boundary(s.psi, trace)
        series["bc_residual"].append(float(np.max(np.abs(bc))))

    def snapshot(s: _State):
        omegas.append(s.omega)
        psis.append(s.psi)
        us.append(s.u)
        u_tau.append(boundary_tangential_velocity(s.psi))

    snapshot(state)
    record(0.0, state)
    times = [0.0]

    t = 0.0
    step_idx = 0
    eps = 1e-12 * config.t_end
    while t < config.t_end - eps:
        if auto and step_idx % 10 == 0:
            bound = cfl_bound(state.u)
            dt_nominal = 0.9 * bound if np.isfinite(bound) else config.t_end
        dt = min(dt_nominal, config.t_end - t)
        try:
            state = stepper.advance(state, dt)
        except (CflError, DivergenceError) as exc:
            exc.args = (f"step {step_idx + 1} at t={t:.6g}: {exc}",)
            raise
        t += dt
        step_idx += 1
        record(t, state)
        if step_idx % config.output_stride == 0 or t >= config.t_end - eps:
            snapshot(state)
            times.append(t)

    return Trajectory(config=config, grid=grid, trace=trace,
                      times=np.array(times), omegas=omegas, psis=psis, us=us,
                      u_tau=u_tau,
                      series={k: np.array(v) for k, v in series.items()})

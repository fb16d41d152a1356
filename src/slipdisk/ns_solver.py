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
first RK stage, the per-step record and the automatic dt.

The stepper advances an ensemble: members that share the grid, the
slip coefficient, the initial datum and the time steps and differ only
in the viscosity. Every stage array carries a leading member axis, nodes
(B, n_r, n_theta) and modes (B, n_modes, n_r), so each FFT, Poisson
solve and Crank-Nicolson solve of a step is one call for all B members:
the Poisson solve takes the members as further right-hand sides of its
one factorization, and the Crank-Nicolson bands are stacked with each
member's lambda = nu dt / 2 (an inviscid member's lambda = 0 is an
identity solve). Fields are built per member only at snapshots, and the
per-step record is computed for all members at once. simulate() is the
ensemble of one.

The viscosity-independent CFL bound dt <= 0.5 min(dr, r_1 dtheta)/max|u|
is a precondition of step(), checked per member; simulate_ensemble()
re-evaluates an automatic dt against the smallest member bound every 10
steps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from ._tridiag import TridiagonalBatch, apply_tridiagonal
from .biot_savart import _cached_solver, dirichlet_laplacian_bands
from .field import (ScalarField, VectorField, boundary_values, dealias_modes,
                    from_modes, lp_norms, perp_grad, perp_grad_values,
                    radial_derivative, theta_derivative, to_modes, wall_derivative)
from .geometry import BoundaryTrace, PolarGrid, boundary_trace, build_grid


class CflError(RuntimeError):
    """Advective CFL bound violated by the member of viscosity nu."""

    def __init__(self, dt: float, bound: float, max_u: float, nu: float):
        super().__init__(f"nu={nu:.6g}: dt={dt:.6g} exceeds CFL bound {bound:.6g} "
                         f"(max|u|={max_u:.6g})")
        self.dt = dt
        self.bound = bound
        self.max_u = max_u
        self.nu = nu


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

def cfl_bound(u) -> float | np.ndarray:
    """0.5 min(dr, r_1 dtheta) / max|u|; inf for the zero field.

    u is a VectorField, or a stepper time level whose member axis gives
    one bound per member.
    """
    grid = u.grid
    max_u = np.max(np.hypot(u.u_r, u.u_theta), axis=(-2, -1))
    h = min(grid.dr, grid.r[0] * grid.dtheta)
    with np.errstate(divide="ignore"):
        return 0.5 * h / max_u


def vorticity_boundary(psi: ScalarField, trace: BoundaryTrace) -> np.ndarray:
    """Slip-compatible vorticity boundary value (2 kappa - alpha) u . tau."""
    return _boundary_vorticity(psi.values, psi.grid, trace)


def _boundary_vorticity(psi: np.ndarray, grid: PolarGrid,
                        trace: BoundaryTrace) -> np.ndarray:
    """vorticity_boundary of stream-function node values (..., n_r, n_theta)."""
    return (2.0 * trace.kappa - trace.alpha) * wall_derivative(psi, grid)


@dataclass
class _State:
    """One time level of every member, the member axis leading: the
    vorticity as modes (B, n_modes, n_r) and on the nodes (B, n_r,
    n_theta), and the stream function and velocity it induces."""

    grid: PolarGrid
    omega_modes: np.ndarray
    omega: np.ndarray
    psi: np.ndarray
    u_r: np.ndarray
    u_theta: np.ndarray


def _advection(s: _State) -> np.ndarray:
    """to_modes of u . grad(omega) in advective form, dealiased in theta,
    for every member of the time level s."""
    grid = s.grid
    adv = (s.u_r * radial_derivative(s.omega, grid)
           + s.u_theta / grid.r_col * theta_derivative(s.omega, modes=s.omega_modes))
    return dealias_modes(to_modes(adv), grid.n_theta)


class _DiffusionCN:
    """Crank-Nicolson solve of the diffusion half with Dirichlet data g,
    every member at once: (I - lam T) omega' = (I + lam T) omega + 2 lam d g,
    lam = nu dt / 2 per member."""

    def __init__(self, grid: PolarGrid, nus: np.ndarray, dt: float):
        lower, diag, upper, data_coeff = dirichlet_laplacian_bands(grid)
        lam = (0.5 * nus * dt)[:, None, None]
        self._explicit = (lam * lower, 1.0 + lam * diag, lam * upper)
        self._lu = TridiagonalBatch(-lam * lower, 1.0 - lam * diag, -lam * upper)
        self._data = 2.0 * lam[:, 0] * data_coeff
        self.dt = dt

    def step(self, omega_modes: np.ndarray, g: np.ndarray) -> np.ndarray:
        """New vorticity modes (B, n_modes, n_r) from omega_modes and the
        boundary values g (B, n_theta)."""
        rhs = apply_tridiagonal(*self._explicit, omega_modes)
        rhs[..., -1] += self._data * np.fft.rfft(g, axis=-1)
        return self._lu.solve(rhs)


class _Stepper:
    """Steps the members of one ensemble, viscosity nus[k] for member k,
    on a shared grid and boundary trace."""

    def __init__(self, grid: PolarGrid, trace: BoundaryTrace, nus):
        self.grid = grid
        self.trace = trace
        self.nus = np.array(nus, dtype=float)
        self.viscous = bool(np.any(self.nus > 0.0))
        self.poisson = _cached_solver(grid)
        self._diffusion: _DiffusionCN | None = None

    def diffusion(self, dt: float) -> _DiffusionCN:
        """The Crank-Nicolson solve for step dt. Only the latest is kept:
        an automatic dt moves every few steps and never returns."""
        if self._diffusion is None or self._diffusion.dt != dt:
            self._diffusion = _DiffusionCN(self.grid, self.nus, dt)
        return self._diffusion

    def state(self, omega_modes: np.ndarray, omega: np.ndarray | None = None) -> _State:
        """The time level of the vorticity modes omega_modes, whose node
        values omega the caller may already hold."""
        n = self.grid.n_theta
        if omega is None:
            omega = from_modes(omega_modes, n)
        psi_modes = self.poisson.solve_modes(omega_modes)
        psi = from_modes(psi_modes, n)
        return _State(self.grid, omega_modes, omega, psi,
                      *perp_grad_values(psi, self.grid, psi_modes))

    def advance(self, s: _State, dt: float) -> _State:
        bound = cfl_bound(s)
        over = np.flatnonzero(dt > bound)
        if over.size:
            k = over[0]
            max_u = float(np.max(np.hypot(s.u_r[k], s.u_theta[k])))
            raise CflError(dt, float(bound[k]), max_u, float(self.nus[k]))
        mid = self.state(s.omega_modes - 0.5 * dt * _advection(s))
        star_modes = s.omega_modes - dt * _advection(mid)
        if self.viscous:
            g = _boundary_vorticity(mid.psi, self.grid, self.trace)
            new_modes = self.diffusion(dt).step(star_modes, g)
        else:
            new_modes = star_modes
        w_new = from_modes(new_modes, self.grid.n_theta)
        if not np.all(np.isfinite(w_new)):
            # The stacked Crank-Nicolson solve carries one member's inf or
            # nan into the others (0 * inf), so a member whose solve input
            # was already non-finite is the source.
            bad = ~np.all(np.isfinite(star_modes), axis=(-2, -1))
            if not np.any(bad):
                bad = ~np.all(np.isfinite(w_new), axis=(-2, -1))
            raise DivergenceError(f"non-finite vorticity after step in the member(s) "
                                  f"nu={self.nus[bad].tolist()}")
        return self.state(new_modes, w_new)


def step(omega: ScalarField, psi: ScalarField, config: SimConfig,
         trace: BoundaryTrace, dt: float | None = None
         ) -> tuple[ScalarField, ScalarField]:
    """Advance one IMEX step of size dt (config.dt when not given)."""
    if dt is None:
        if config.dt == "auto":
            raise ValueError("step needs a concrete dt; config.dt is 'auto'")
        dt = float(config.dt)
    grid = omega.grid
    stepper = _Stepper(grid, trace, [config.nu])
    u = perp_grad(psi)
    w = omega.values[None]
    s = stepper.advance(_State(grid, to_modes(w), w, psi.values[None],
                               u.u_r[None], u.u_theta[None]), dt)
    return ScalarField(grid, s.omega[0]), ScalarField(grid, s.psi[0])


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
        return _series_columns(self.config.lp_exponents)

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


def _series_columns(lp_exponents) -> list[str]:
    return (["t", "energy"] + [f"enstrophy_{_fmt_p(p)}" for p in lp_exponents]
            + ["bc_residual"])


def simulate(config: SimConfig) -> Trajectory:
    """Run the configured simulation; deterministic for a given config."""
    return simulate_ensemble([config])[0]


def simulate_ensemble(configs) -> list[Trajectory]:
    """Run configs that differ only in nu as one ensemble, stepped together
    on a shared grid with shared steps and snapshot times.

    Member k's trajectory is simulate(configs[k]) up to roundoff, except
    that an automatic dt follows the smallest CFL bound among the members.
    A CflError or DivergenceError names the offending member's nu and the
    step.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("an ensemble needs at least one config")
    first = configs[0]
    for config in configs[1:]:
        differ = [f.name for f in fields(SimConfig) if f.name != "nu"
                  and getattr(config, f.name) != getattr(first, f.name)]
        if differ:
            raise ValueError(f"ensemble configs may differ only in nu; "
                             f"nu={config.nu} differs in {differ}")
    grid = build_grid(first.n_r, first.n_theta)
    trace = boundary_trace(grid, first.alpha)
    stepper = _Stepper(grid, trace, [config.nu for config in configs])
    omega = initial_vorticity(first.initial_condition, grid).values
    omega = np.repeat(omega[None], len(configs), axis=0)
    state = stepper.state(to_modes(omega), omega)

    auto = first.dt == "auto"
    dt_nominal = None if auto else float(first.dt)

    record_times, records, snapshots, times = [], [], [], []

    def record(t, s: _State):
        """The series columns after t, one entry per member in each."""
        bc = boundary_values(s.omega, grid) - _boundary_vorticity(s.psi, grid, trace)
        record_times.append(t)
        records.append([lp_norms(np.hypot(s.u_r, s.u_theta), grid, 2.0) ** 2,
                        *(lp_norms(np.abs(s.omega), grid, p) for p in first.lp_exponents),
                        np.max(np.abs(bc), axis=-1)])

    def snapshot(t, s: _State):
        times.append(t)
        snapshots.append((s.omega, s.psi, s.u_r, s.u_theta))

    snapshot(0.0, state)
    record(0.0, state)

    t = 0.0
    step_idx = 0
    eps = 1e-12 * first.t_end
    while t < first.t_end - eps:
        if auto and step_idx % 10 == 0:
            bound = float(np.min(cfl_bound(state)))
            dt_nominal = 0.9 * bound if np.isfinite(bound) else first.t_end
        dt = min(dt_nominal, first.t_end - t)
        try:
            state = stepper.advance(state, dt)
        except (CflError, DivergenceError) as exc:
            exc.args = (f"step {step_idx + 1} at t={t:.6g}: {exc}",)
            raise
        t += dt
        step_idx += 1
        record(t, state)
        if step_idx % first.output_stride == 0 or t >= first.t_end - eps:
            snapshot(t, state)

    # (member, column, record)
    series = np.array(records).transpose(2, 1, 0).copy()
    columns = _series_columns(first.lp_exponents)[1:]
    return [Trajectory(
        config=config, grid=grid, trace=trace, times=np.array(times),
        omegas=[ScalarField(grid, w[k]) for w, _, _, _ in snapshots],
        psis=[ScalarField(grid, p[k]) for _, p, _, _ in snapshots],
        us=[VectorField(grid, ur[k], ut[k]) for _, _, ur, ut in snapshots],
        u_tau=[wall_derivative(p[k], grid) for _, p, _, _ in snapshots],
        series={"t": np.array(record_times), **dict(zip(columns, series[k]))})
        for k, config in enumerate(configs)]

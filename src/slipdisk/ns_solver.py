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
product or a radial stencil needs them. A time level (the step's start,
its midpoint stage and its end) goes to the nodes in one inverse
transform of the stacked modes of the vorticity, the stream function
and their theta derivatives, and takes the radial derivatives of the
vorticity and the stream function in one stencil call; each stage
transforms its advection product forward once, and the boundary data is
transformed as one ring. A step thus makes five transforms, four when
every member is inviscid. Each time level computes its speed |u| at
most once, when first asked, and that one array serves the CFL check,
the per-step record and the automatic dt; the midpoint stage never
needs it.

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

A trajectory keeps each snapshot's vorticity and nothing else: the
stream function and the velocity follow from it by the Biot-Savart law,
and the Trajectory derives them on each walk over its snapshots,
SNAPSHOT_BATCH snapshots at a time (see Trajectory).

The viscosity-independent CFL bound dt <= 0.5 min(dr, r_1 dtheta)/max|u|
is a precondition of every step, checked per member before it is taken;
simulate_ensemble() re-evaluates an automatic dt against the smallest
member bound every 10 steps.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

import numpy as np

from ._tridiag import TridiagonalBatch, apply_tridiagonal
from .biot_savart import PoissonDirichletSolver, biot_savart, cached_solver
from .field import (ScalarField, VectorField, boundary_values, dealias_modes,
                    from_modes, lp_norms, radial_derivative, theta_multiplier,
                    to_modes, wall_derivative)
# Unused here: perfbench/test_tracing.py calls ns_solver.perp_grad.
from .field import perp_grad  # noqa: F401
from .geometry import (BoundaryTrace, PolarGrid, alpha_function, boundary_trace,
                       build_grid, finite, integer, point, reals, table)

# Snapshots stacked per batch of a trajectory analysis: on 64^2 runs,
# batches of 16 or 32 ran slower than 8 and hold more temporaries.
SNAPSHOT_BATCH = 8


class CflError(RuntimeError):
    """Advective CFL bound violated by the member of viscosity nu."""

    def __init__(self, dt: float, bound: float, max_u: float, nu: float):
        super().__init__(f"nu={nu:.6g}: dt={dt:.6g} exceeds CFL bound {bound:.6g} "
                         f"(max|u|={max_u:.6g})")
        self.dt = dt
        self.bound = bound
        self.max_u = max_u
        self.nu = nu

    def __reduce__(self):
        # The default rebuilds CflError(*self.args) from the message alone;
        # the fields rebuild it, and the state restores a step-prefixed message.
        return (type(self), (self.dt, self.bound, self.max_u, self.nu),
                {**self.__dict__, "args": self.args})


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
        self.nu = finite(self.nu, "nu")
        if not self.nu >= 0:
            raise ValueError(f"nu must be finite and nonnegative, got {self.nu}")
        self.t_end = finite(self.t_end, "t_end")
        if not self.t_end > 0:
            raise ValueError(f"t_end must be finite and positive, got {self.t_end}")
        if self.dt != "auto":
            self.dt = finite(self.dt, "dt")
            if not self.dt > 0:
                raise ValueError(f"dt must be 'auto' or finite and positive, got {self.dt}")
        for name in ("n_r", "n_theta", "output_stride"):
            setattr(self, name, integer(getattr(self, name), name))
        if self.output_stride < 1:
            raise ValueError(f"output_stride must be >= 1, got {self.output_stride}")
        if self.n_r < 4:
            raise ValueError(f"n_r must be >= 4 for the radial stencils, got {self.n_r}")
        if self.n_theta <= 0 or self.n_theta % 2 != 0:
            raise ValueError(f"n_theta must be positive and even for the pole "
                             f"parity ghosts, got {self.n_theta}")
        self.lp_exponents = reals(self.lp_exponents, "lp_exponents")
        if not all(p >= 1 for p in self.lp_exponents):
            raise ValueError(f"lp exponents must be >= 1, got {list(self.lp_exponents)}")
        for key, value in table(self.tol, "tol", ("navier", "weakform", "balance")).items():
            if not finite(value, f"tol {key}") >= 0:
                raise ValueError(f"tol {key} must be >= 0, got {value}")
        # Both specs are parsed here, by the code that builds them, so a
        # config that cannot be run is refused before any run starts.
        initial_profile(self.initial_condition)
        alpha_function(self.alpha)

    def to_dict(self) -> dict:
        d = asdict(self)
        if not self.tol:
            del d["tol"]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        return cls(**table(d, "config", [f.name for f in fields(cls)]))

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


def initial_profile(spec: dict):
    """Parse an initial-condition spec into a function grid -> vorticity
    samples, raising ValueError for any spec that cannot be built.

    Forms: {"const": c}; {"bump": {center, radius, amplitude}} with a
    finite radius > 0; {"singular": {center, gamma, p}} for the capped
    power-law min(dr^-gamma, |x - x0|^-gamma), requiring 0 < gamma * p < 2
    so the profile lies in L^p; {"modes": [[k, coeffs(, phase)], ...]} for
    radial polynomials sum_m coeffs[m] r^m times cos(k theta - phase).
    Every number in the spec must be finite, and a bump or singular object
    takes no keys beyond those listed.
    """
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ValueError(f"initial condition spec must have exactly one key, got {spec!r}")
    kind, params = next(iter(spec.items()))
    try:
        if kind == "const":
            c = finite(params, "const initial condition")
            return lambda grid: np.full(grid.shape, c)
        if kind == "bump":
            params = table(params, "'bump' initial condition", ("center", "radius", "amplitude"))
            cx, cy = point(params.get("center", (0.0, 0.0)), "bump center")
            radius = finite(params.get("radius", 0.5), "bump radius")
            amplitude = finite(params.get("amplitude", 1.0), "bump amplitude")
            if not radius > 0.0:
                raise ValueError(f"bump radius must be finite and positive, got {radius}")
            return lambda grid: bump_values(grid, (cx, cy), radius, amplitude)
        if kind == "singular":
            params = table(params, "'singular' initial condition", ("center", "gamma", "p"))
            gamma = finite(params["gamma"], "singular gamma")
            p = finite(params["p"], "singular p")
            if not (gamma > 0 and 0 < gamma * p < 2.0):
                raise ValueError(f"singular profile needs 0 < gamma*p < 2, "
                                 f"got gamma={gamma}, p={p}")
            cx, cy = point(params.get("center", (0.0, 0.0)), "singular center")

            def singular(grid):
                r, th = grid.r_col, grid.theta
                dist = np.hypot(r * np.cos(th) - cx, r * np.sin(th) - cy)
                with np.errstate(divide="ignore"):
                    return np.minimum(grid.dr ** (-gamma), dist ** (-gamma))

            return singular
        if kind == "modes":
            if not (isinstance(params, (list, tuple)) and all(
                    isinstance(e, (list, tuple)) and len(e) in (2, 3)
                    and isinstance(e[1], (list, tuple)) and e[1] for e in params)):
                raise ValueError(f"malformed 'modes' initial condition {params!r}: must be "
                                 f"an array of [k, coeffs] or [k, coeffs, phase] entries "
                                 f"with at least one coefficient")
            terms = [(integer(entry[0], "modes k"),
                      [finite(c, "modes coefficient") for c in entry[1]],
                      finite(entry[2], "modes phase") if len(entry) > 2 else 0.0)
                     for entry in params]

            def modes(grid):
                vals = np.zeros(grid.shape)
                for k, coeffs, phase in terms:
                    prof = sum(c * grid.r ** m for m, c in enumerate(coeffs))
                    vals += prof[:, None] * np.cos(k * grid.theta - phase)[None, :]
                return vals

            return modes
    except (AttributeError, IndexError, KeyError, TypeError) as err:
        raise ValueError(f"malformed {kind!r} initial condition {params!r}: "
                         f"{err!r}") from None
    raise ValueError(f"unknown initial condition kind {kind!r}")


def initial_vorticity(spec: dict, grid: PolarGrid) -> ScalarField:
    """Initial vorticity of a config spec (see initial_profile) on grid."""
    return ScalarField(grid, initial_profile(spec)(grid))


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def cfl_bound(u) -> float | np.ndarray:
    """0.5 min(dr, r_1 dtheta) / max|u|; inf for the zero field.

    u is a VectorField, or a stepper time level whose member axis gives
    one bound per member.
    """
    grid = u.grid
    max_u = np.max(u.magnitude(), axis=(-2, -1))
    h = min(grid.dr, grid.r[0] * grid.dtheta)
    with np.errstate(divide="ignore"):
        return 0.5 * h / max_u


def _boundary_vorticity(psi: np.ndarray, grid: PolarGrid,
                        trace: BoundaryTrace) -> np.ndarray:
    """Slip-compatible vorticity boundary value (2 kappa - alpha) u . tau of
    stream-function node values psi (..., n_r, n_theta)."""
    return (2.0 * trace.kappa - trace.alpha) * wall_derivative(psi, grid)


@dataclass
class _State:
    """One time level of every member, the member axis leading: the
    vorticity as modes (B, n_modes, n_r), and on the nodes (B, n_r,
    n_theta) the vorticity, its radial and theta derivatives, and the
    stream function and velocity it induces. The arrays view the buffers
    of _Stepper.state; a caller that keeps one past the level copies it."""

    grid: PolarGrid
    omega_modes: np.ndarray
    omega: np.ndarray
    psi: np.ndarray
    u_r: np.ndarray
    omega_theta: np.ndarray
    omega_r: np.ndarray
    u_theta: np.ndarray
    _speed: np.ndarray | None = field(default=None, init=False, repr=False)

    def magnitude(self) -> np.ndarray:
        """|u| on the nodes, computed on the first call and kept."""
        if self._speed is None:
            self._speed = np.hypot(self.u_r, self.u_theta)
        return self._speed


def _advection(s: _State) -> np.ndarray:
    """to_modes of u . grad(omega) in advective form, dealiased in theta,
    for every member of the time level s."""
    grid = s.grid
    adv = s.u_r * s.omega_r + s.u_theta / grid.r_col * s.omega_theta
    return dealias_modes(to_modes(adv), grid.n_theta)


class _DiffusionCN:
    """Crank-Nicolson solve of the diffusion half with Dirichlet data g,
    every member at once: (I - lam T) omega' = (I + lam T) omega + 2 lam d g,
    lam = nu dt / 2 per member, on the Dirichlet bands (lower, diag, upper, d)
    of the Poisson solver."""

    def __init__(self, bands, nus: np.ndarray, dt: float):
        lower, diag, upper, data_coeff = bands
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
        self.poisson = cached_solver(PoissonDirichletSolver, *grid.shape)
        self._diffusion: _DiffusionCN | None = None

    def diffusion(self, dt: float) -> _DiffusionCN:
        """The Crank-Nicolson solve for step dt. Only the latest is kept:
        an automatic dt moves every few steps and never returns."""
        if self._diffusion is None or self._diffusion.dt != dt:
            self._diffusion = _DiffusionCN(self.poisson.bands, self.nus, dt)
        return self._diffusion

    def state(self, omega_modes: np.ndarray, omega: np.ndarray | None = None) -> _State:
        """The time level of the vorticity modes omega_modes. A caller that
        holds their node values passes them as omega, which the level
        keeps: the rfft/irfft round trip does not return the same bits."""
        grid = self.grid
        psi_modes = self.poisson.solve_modes(omega_modes)
        ik = theta_multiplier(grid.n_theta)[:, None]
        nodes = from_modes(np.stack((omega_modes, psi_modes, psi_modes * ik,
                                     omega_modes * ik)), grid.n_theta)
        if omega is not None:
            nodes[0] = omega
        # u_r = -(1/r) dpsi/dtheta, in place of the psi derivative
        nodes[2] /= -grid.r_col
        return _State(grid, omega_modes, *nodes, *radial_derivative(nodes[:2], grid))

    def advance(self, s: _State, dt: float) -> _State:
        bound = cfl_bound(s)
        over = np.flatnonzero(dt > bound)
        if over.size:
            k = over[0]
            max_u = float(np.max(s.magnitude()[k]))
            raise CflError(dt, float(bound[k]), max_u, float(self.nus[k]))
        mid = self.state(s.omega_modes - 0.5 * dt * _advection(s))
        star_modes = s.omega_modes - dt * _advection(mid)
        if self.viscous:
            g = _boundary_vorticity(mid.psi, self.grid, self.trace)
            new_modes = self.diffusion(dt).step(star_modes, g)
        else:
            new_modes = star_modes
        del mid  # so that its buffers are free before the new level is built
        if not np.all(np.isfinite(new_modes)):
            # The stacked Crank-Nicolson solve carries one member's inf or
            # nan into the others (0 * inf), so a member whose solve input
            # was already non-finite is the source.
            bad = ~np.all(np.isfinite(star_modes), axis=(-2, -1))
            if not np.any(bad):
                bad = ~np.all(np.isfinite(new_modes), axis=(-2, -1))
            raise DivergenceError(f"non-finite vorticity after step in the member(s) "
                                  f"nu={self.nus[bad].tolist()}")
        return self.state(new_modes)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Vorticity snapshots plus per-step scalar series of one simulation.

    A snapshot stores only its vorticity omega: the Biot-Savart law fixes
    the rest. The velocity is derived one Poisson solve per batch of
    SNAPSHOT_BATCH snapshots (_batches) and lives as long as its batch;
    only us keeps every snapshot's velocity. A run in memory and the same
    run loaded from disk take that one path and give identical fields.
    """

    config: SimConfig
    grid: PolarGrid
    trace: BoundaryTrace
    times: np.ndarray
    omegas: list
    series: dict

    @cached_property
    def us(self) -> list:
        """One VectorField per snapshot, viewing the velocity of one
        _batches walk; computed once and kept."""
        return [VectorField(self.grid, r, t) for _, _, u in self._batches()
                for r, t in zip(u.u_r, u.u_theta)]

    def _batches(self):
        """Yield (sl, omega, u) per batch of at most SNAPSHOT_BATCH snapshots:
        their index slice, and their vorticity and velocity as stacked
        fields (b, n_r, n_theta). Each walk derives the velocity anew, one
        biot_savart per batch, and keeps none of it; a snapshot's fields
        do not depend on where its batch starts."""
        for start in range(0, len(self.omegas), SNAPSHOT_BATCH):
            sl = slice(start, start + SNAPSHOT_BATCH)
            omega = ScalarField(self.grid, np.stack([om.values for om in self.omegas[sl]]))
            yield sl, omega, biot_savart(omega)

    def series_columns(self) -> list[str]:
        return _series_columns(self.config.lp_exponents)

    def save(self, run_dir) -> None:
        """Write config-resolved.json, series.csv and the uncompressed
        snapshots.npz, which holds times, omega (n_snapshots, n_r,
        n_theta), series_names and series_values."""
        write_json(os.path.join(run_dir, "config-resolved.json"), self.config.to_dict())
        cols = self.series_columns()
        rows = zip(*(self.series[c] for c in cols))
        write_atomically(os.path.join(run_dir, "series.csv"), ",".join(cols) + "\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in rows))
        write_atomically(os.path.join(run_dir, "snapshots.npz"), lambda fh: np.savez(
            fh, times=self.times, omega=np.stack([f.values for f in self.omegas]),
            series_names=np.array(cols),
            series_values=np.stack([self.series[c] for c in cols])))

    @classmethod
    def load(cls, run_dir) -> "Trajectory":
        """Read a run directory written by save, or by its earlier
        compressed format. A snapshot file that is not a readable .npz,
        whose times are not finite and strictly increasing, whose omega is
        not finite, or whose omega or series names do not match
        config-resolved.json, raises ValueError."""
        config = SimConfig.from_json(os.path.join(run_dir, "config-resolved.json"))
        grid = build_grid(config.n_r, config.n_theta)
        trace = boundary_trace(grid, config.alpha)
        path = os.path.join(run_dir, "snapshots.npz")
        try:
            with open(path, "rb") as fh, np.load(fh) as data:
                times = data["times"]
                omega = data["omega"]
                names = [str(s) for s in data["series_names"]]
                values = data["series_values"]
        except (zipfile.BadZipFile, EOFError) as err:
            raise ValueError(f"{path}: unreadable snapshot file ({err})") from err
        if not (np.all(np.isfinite(times)) and np.all(np.diff(times) > 0)):
            raise ValueError(f"{path}: times must be finite and strictly increasing")
        if omega.shape != (len(times),) + grid.shape:
            raise ValueError(f"{path}: omega has shape {omega.shape}, expected "
                             f"{(len(times),) + grid.shape} for {len(times)} times "
                             f"on the configured grid")
        bad = np.flatnonzero(~np.isfinite(omega).all(axis=(-2, -1)))
        if bad.size:
            raise ValueError(f"{path}: omega of snapshot {bad[0]} has non-finite entries")
        columns = _series_columns(config.lp_exponents)
        if names != columns or len(values) != len(columns):
            raise ValueError(f"{path}: series_names {names} with {len(values)} rows of "
                             f"series_values differ from the configured columns {columns}")
        return cls(config=config, grid=grid, trace=trace, times=times,
                   omegas=[ScalarField(grid, v) for v in omega],
                   series=dict(zip(names, values)))


def write_atomically(path, content) -> None:
    """Write content (text, or a function that writes into the open binary
    file) to path under a temporary name, renamed into place: an
    interrupted write leaves the earlier file, never part of the new one.
    A missing parent directory of path is made first."""
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            if callable(content):
                content(fh)
            else:
                fh.write(content.encode())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_json(path, payload) -> None:
    """write_atomically the JSON of payload, indented by 2 with sorted
    keys and a trailing newline: the layout of every report and config file."""
    write_atomically(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


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
        abs_omega = np.abs(s.omega)
        record_times.append(t)
        records.append([lp_norms(s.magnitude(), grid, 2.0) ** 2,
                        *(lp_norms(abs_omega, grid, p) for p in first.lp_exponents),
                        np.max(np.abs(bc), axis=-1)])

    def snapshot(t, s: _State):
        times.append(t)
        # A copy, so that the snapshot does not keep the level's buffers.
        snapshots.append(s.omega.copy())

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
        omegas=[ScalarField(grid, w[k]) for w in snapshots],
        series={"t": np.array(record_times), **dict(zip(columns, series[k]))})
        for k, config in enumerate(configs)]

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
transform of the stacked modes of the vorticity, the stream function,
u_r (psi's theta multiplier carries the -1/r) and the vorticity's theta
derivative, and takes the radial derivatives of the vorticity and the
stream function in one stencil call; each stage transforms its
advection product forward once, and the boundary data is transformed as
one ring. A step thus makes five transforms, four when every member is
inviscid. Each time level computes its squared speed u_r^2 + u_theta^2
at most once, when first asked, and that one array serves the CFL bound
and the per-step record's energy sum w |u|^2; the midpoint stage never
needs it.

The stepper advances an ensemble: members that share the grid, the
slip coefficient, the initial datum and the time steps and differ only
in the viscosity. Every stage array carries a leading member axis, nodes
(B, n_r, n_theta) and modes (B, n_modes, n_r), so each FFT, Poisson
solve and Crank-Nicolson solve of a step is one call for all B members:
the Poisson solve takes the members as further right-hand sides of its
one factorization, and the Crank-Nicolson bands are stacked with each
member's lambda = nu dt / 2 (an inviscid member's lambda = 0 is an
identity solve). Each member's snapshots are copied off the member axis,
and stacked into one array when the run ends; the per-step record is
computed for all members at once. simulate() is the ensemble of one.

A trajectory keeps its snapshots' vorticity as one array and nothing
else: the stream function and the velocity follow from it by the
Biot-Savart law, and the Trajectory derives them on each walk over its
snapshots, SNAPSHOT_BATCH snapshots at a time (see Trajectory).

The viscosity-independent CFL bound (cfl_bound) is
0.5 min(dr, r_1 dtheta) / max|u|, max|u| = sqrt(max(u_r^2 + u_theta^2)).
A step of dt is taken only if dt does not exceed any member's bound;
simulate_ensemble() sets an automatic dt to 0.9 times the smallest
member bound every 10 steps, and the sweep sizes its shared dt from the
bound of the initial velocity.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

import numpy as np

from ._tridiag import TridiagonalBatch
from .biot_savart import PoissonDirichletSolver, biot_savart, cached_solver
from .field import (ScalarField, VectorField, boundary_values, bump_values,
                    dealias_modes, from_modes, lp_norms, radial_derivative,
                    theta_multiplier, to_modes, wall_derivative)
# Unused here: perfbench/test_tracing.py calls ns_solver.perp_grad.
from .field import perp_grad  # noqa: F401
from .geometry import (BoundaryTrace, PolarGrid, boundary_trace, build_grid, bump_radius,
                       distinct, finite, integer, point, reals, table)

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
    """Non-finite values appeared in the state, or in a value read from it
    (a sweep's report entry): the run cannot go on."""


# ---------------------------------------------------------------------------
# configuration and initial data
# ---------------------------------------------------------------------------

@dataclass
class SimConfig:
    """One run: the viscosity nu, the end time t_end, the initial_condition
    and alpha specs, the step dt (a number or "auto"), the n_r x n_theta
    grid, the output_stride in steps between snapshots, the lp_exponents
    of the enstrophy columns, and the diagnose tolerances tol.

    The config also keeps, as plain attributes that are not fields (so
    to_dict, equality and replace ignore them), what it samples to check
    itself: grid from build_grid, trace from boundary_trace, and omega0,
    the initial vorticity on grid, read-only. The run starts from them.
    """
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
        self.grid = build_grid(self.n_r, self.n_theta)
        self.lp_exponents = reals(self.lp_exponents, "lp_exponents")
        if not all(p >= 1 for p in self.lp_exponents):
            raise ValueError(f"lp exponents must be >= 1, got {list(self.lp_exponents)}")
        distinct(self.lp_exponents, "lp exponent")  # each names one series column
        for key, value in table(self.tol, "tol", ("navier", "weakform", "balance")).items():
            if not finite(value, f"tol {key}") >= 0:
                raise ValueError(f"tol {key} must be >= 0, got {value}")
        # Both specs are sampled here on the run's grid, by the code that
        # builds them, so a config that cannot be run is refused before any
        # run starts, and the run starts from these samples; an overflow is
        # refused as a non-finite sample, unwarned.
        with np.errstate(over="ignore", invalid="ignore"):
            self.omega0 = initial_profile(self.initial_condition, self.grid)
            if not np.all(np.isfinite(self.omega0)):
                raise ValueError(f"initial condition samples on the {self.n_r} x "
                                 f"{self.n_theta} grid are not finite")
            self.trace = boundary_trace(self.grid, self.alpha)
        self.omega0.flags.writeable = False

    def __reduce__(self):
        # A pickle holds the fields alone: unpickling runs __post_init__,
        # which samples grid, trace and omega0 again and marks omega0
        # read-only. The sweep's refined run returns from its forked child
        # this way.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

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


def initial_profile(spec: dict, grid: PolarGrid) -> np.ndarray:
    """The vorticity samples of an initial-condition spec on grid, or
    ValueError for any spec that cannot be built.

    Forms: {"const": c}; {"bump": {center, radius, amplitude}}, the radius
    read by bump_radius; {"singular": {center, gamma, p}} for the capped
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
            return np.full(grid.shape, finite(params, "const initial condition"))
        if kind == "bump":
            params = table(params, "'bump' initial condition", ("center", "radius", "amplitude"))
            center = point(params.get("center", (0.0, 0.0)), "bump center")
            radius = bump_radius(params.get("radius", 0.5), "bump radius")
            amplitude = finite(params.get("amplitude", 1.0), "bump amplitude")
            return bump_values(grid, center, radius, amplitude)[0]
        if kind == "singular":
            params = table(params, "'singular' initial condition", ("center", "gamma", "p"))
            gamma = finite(params["gamma"], "singular gamma")
            p = finite(params["p"], "singular p")
            if not (gamma > 0 and 0 < gamma * p < 2.0):
                raise ValueError(f"singular profile needs 0 < gamma*p < 2, "
                                 f"got gamma={gamma}, p={p}")
            cx, cy = point(params.get("center", (0.0, 0.0)), "singular center")
            r, th = grid.r_col, grid.theta
            dist = np.hypot(r * np.cos(th) - cx, r * np.sin(th) - cy)
            with np.errstate(divide="ignore"):
                return np.minimum(np.float64(grid.dr) ** -gamma, dist ** (-gamma))
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
            vals = np.zeros(grid.shape)
            for k, coeffs, phase in terms:
                prof = sum(c * grid.r ** m for m, c in enumerate(coeffs))
                vals += prof[:, None] * np.cos(k * grid.theta - phase)[None, :]
            return vals
    except (AttributeError, IndexError, KeyError, TypeError) as err:
        raise ValueError(f"malformed {kind!r} initial condition {params!r}: "
                         f"{err!r}") from None
    raise ValueError(f"unknown initial condition kind {kind!r}")


def initial_vorticity(spec: dict, grid: PolarGrid) -> ScalarField:
    """Initial vorticity of a config spec (see initial_profile) on grid."""
    return ScalarField(grid, initial_profile(spec, grid))


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def cfl_bound(u) -> float | np.ndarray:
    """0.5 min(dr, r_1 dtheta) / max|u|, max|u| = sqrt(max(u_r^2 + u_theta^2))
    over the nodes; inf when every squared speed is 0 (the zero field, or
    one whose squares underflow), and 0, which no step passes, when a
    squared speed overflows.

    u is a VectorField, or a stepper time level, whose cached speed2() is
    read and whose member axis gives one bound per member.
    """
    grid = u.grid
    with np.errstate(divide="ignore", over="ignore"):
        speed2 = u.speed2() if isinstance(u, _State) else u.u_r * u.u_r + u.u_theta * u.u_theta
        return (0.5 * min(grid.dr, grid.r[0] * grid.dtheta)
                / np.sqrt(np.max(speed2, axis=(-2, -1))))


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
    _speed2: np.ndarray | None = field(default=None, init=False, repr=False)

    def speed2(self) -> np.ndarray:
        """u_r^2 + u_theta^2 on the nodes (B, n_r, n_theta), bitwise the
        squared speed cfl_bound takes of a VectorField; computed on the
        first call and kept, for the CFL bound and the record's energy."""
        if self._speed2 is None:
            self._speed2 = self.u_r * self.u_r
            self._speed2 += self.u_theta * self.u_theta
        return self._speed2


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
    of the Poisson solver. As I + lam T = 2 I - (I - lam T), it returns
    2 (I - lam T)^-1 (omega + lam d g) - omega: one factored operator per dt
    and no explicit bands. An inviscid member returns its input bitwise."""

    def __init__(self, bands, nus: np.ndarray, dt: float):
        lower, diag, upper, data_coeff = bands
        lam = (0.5 * nus * dt)[:, None, None]
        self._lu = TridiagonalBatch(-lam * lower, 1.0 - lam * diag, -lam * upper)
        self._data = lam[:, 0] * data_coeff
        self.dt = dt

    def step(self, omega_modes: np.ndarray, g: np.ndarray) -> np.ndarray:
        """New vorticity modes (B, n_modes, n_r) from omega_modes and the
        boundary values g (B, n_theta)."""
        rhs = omega_modes.copy()
        rhs[..., -1] += self._data * np.fft.rfft(g, axis=-1)
        return 2.0 * self._lu.solve(rhs) - omega_modes


class _Stepper:
    """Steps the members of one ensemble, viscosity nus[k] for member k,
    on a shared grid and boundary trace."""

    def __init__(self, grid: PolarGrid, trace: BoundaryTrace, nus):
        self.grid = grid
        self.trace = trace
        self.nus = np.array(nus, dtype=float)
        self.viscous = bool(np.any(self.nus > 0.0))
        self.poisson = cached_solver(PoissonDirichletSolver, grid)
        self._diffusion: _DiffusionCN | None = None
        # Kept, not rebuilt per level or stage
        self._slip = 2.0 * trace.kappa - trace.alpha
        # The theta multipliers of psi and omega, modes-contiguous like
        # _modes: psi's is ik / (-r), so u_r = -(1/r) dpsi/dtheta
        ik = theta_multiplier(grid.n_theta)
        self._multipliers = np.stack(np.broadcast_arrays(
            ik / -grid.r_col, ik))[:, None].swapaxes(-1, -2)
        # The stacked modes a level goes to the nodes from, reused by
        # state(): (n_modes, n_r) like all modes, but stored modes-contiguous,
        # so that the inverse transform reads its rows in place
        self._modes = np.empty((4, len(self.nus), grid.n_r, grid.n_theta // 2 + 1),
                               dtype=complex).swapaxes(-1, -2)

    def diffusion(self, dt: float) -> _DiffusionCN:
        """The Crank-Nicolson solve for step dt. Only the latest is kept:
        an automatic dt moves every few steps and never returns."""
        if self._diffusion is None or self._diffusion.dt != dt:
            self._diffusion = _DiffusionCN(self.poisson.bands, self.nus, dt)
        return self._diffusion

    def boundary_vorticity(self, psi: np.ndarray) -> np.ndarray:
        """Slip-compatible vorticity boundary value (2 kappa - alpha) u . tau of
        stream-function node values psi (..., n_r, n_theta)."""
        return self._slip * wall_derivative(psi, self.grid)

    def state(self, omega_modes: np.ndarray, omega: np.ndarray | None = None) -> _State:
        """The time level of the vorticity modes omega_modes. A caller that
        holds their node values passes them as omega, which the level
        keeps: the rfft/irfft round trip does not return the same bits."""
        modes = self._modes
        modes[0] = omega_modes
        modes[1] = self.poisson.solve_modes(omega_modes)
        np.multiply(modes[1::-1], self._multipliers, out=modes[2:])
        nodes = from_modes(modes, self.grid.n_theta)
        if omega is not None:
            nodes[0] = omega
        return _State(self.grid, omega_modes, *nodes,
                      *radial_derivative(nodes[:2], self.grid))

    def advance(self, s: _State, dt: float) -> _State:
        bound = cfl_bound(s)
        # A bound of 0 (an overflowing speed) refuses even an automatic dt of 0
        over = np.flatnonzero((dt > bound) | (bound == 0))
        if over.size:
            k = over[0]
            raise CflError(dt, float(bound[k]), float(np.sqrt(np.max(s.speed2()[k]))),
                           float(self.nus[k]))
        mid = self.state(s.omega_modes - 0.5 * dt * _advection(s))
        star_modes = s.omega_modes - dt * _advection(mid)
        if self.viscous:
            g = self.boundary_vorticity(mid.psi)
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

    A snapshot stores only its vorticity, a row of the one array omega
    (n_snapshots, n_r, n_theta): the Biot-Savart law fixes the rest. The
    velocity is derived one Poisson solve per batch (_batches) and lives
    as long as its batch; only us keeps every snapshot's velocity. A run
    in memory and the same run loaded from disk give identical fields.
    grid and trace are the config's, read through it, not kept beside it.
    """

    config: SimConfig
    times: np.ndarray
    omega: np.ndarray
    series: dict

    @property
    def grid(self) -> PolarGrid:
        return self.config.grid

    @property
    def trace(self) -> BoundaryTrace:
        return self.config.trace

    @cached_property
    def omegas(self) -> list:
        """One ScalarField per snapshot, a view of its row of omega; kept."""
        return [ScalarField(self.grid, w) for w in self.omega]

    @cached_property
    def us(self) -> list:
        """One VectorField per snapshot, viewing the velocity of one
        _batches walk; computed once and kept."""
        return [VectorField(self.grid, r, t) for _, _, u in self._batches()
                for r, t in zip(u.u_r, u.u_theta)]

    def _batches(self):
        """Yield (sl, omega, u) per batch of at most SNAPSHOT_BATCH snapshots:
        their index slice, and their vorticity (a view of self.omega[sl])
        and velocity as stacked fields (b, n_r, n_theta). Each walk derives
        the velocity anew, one biot_savart per batch, and keeps none of it;
        a snapshot's fields do not depend on where its batch starts."""
        for start in range(0, len(self.omega), SNAPSHOT_BATCH):
            sl = slice(start, start + SNAPSHOT_BATCH)
            omega = ScalarField(self.grid, self.omega[sl])
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
            fh, times=self.times, omega=self.omega, series_names=np.array(cols),
            series_values=np.stack([self.series[c] for c in cols])))

    @classmethod
    def load(cls, run_dir) -> "Trajectory":
        """Read a run directory written by save, or by its earlier
        compressed format. A snapshot file that is not a readable .npz,
        whose times, omega or series_values are not real floating-point
        arrays of 1, 3 and 2 dimensions, whose times are not finite and
        strictly increasing, whose omega is not finite, or whose omega or
        series names do not match config-resolved.json, raises ValueError."""
        config = SimConfig.from_json(os.path.join(run_dir, "config-resolved.json"))
        path = os.path.join(run_dir, "snapshots.npz")
        try:
            with open(path, "rb") as fh, np.load(fh) as data:
                times = data["times"]
                omega = data["omega"]
                names = [str(s) for s in data["series_names"]]
                values = data["series_values"]
        except (zipfile.BadZipFile, EOFError) as err:
            raise ValueError(f"{path}: unreadable snapshot file ({err})") from err
        for name, array, ndim in (("times", times, 1), ("omega", omega, 3),
                                  ("series_values", values, 2)):
            if array.dtype.kind != "f":
                raise ValueError(f"{path}: {name} has dtype {array.dtype}, expected real "
                                 f"floating point")
            if array.ndim != ndim:
                raise ValueError(f"{path}: {name} has shape {array.shape}, expected "
                                 f"{ndim} dimensions")
        if not (np.all(np.isfinite(times)) and np.all(np.diff(times) > 0)):
            raise ValueError(f"{path}: times must be finite and strictly increasing")
        if omega.shape != (len(times),) + config.grid.shape:
            raise ValueError(f"{path}: omega has shape {omega.shape}, expected "
                             f"{(len(times),) + config.grid.shape} for {len(times)} times "
                             f"on the configured grid")
        bad = np.flatnonzero(~np.isfinite(omega).all(axis=(-2, -1)))
        if bad.size:
            raise ValueError(f"{path}: omega of snapshot {bad[0]} has non-finite entries")
        columns = _series_columns(config.lp_exponents)
        if names != columns or len(values) != len(columns):
            raise ValueError(f"{path}: series_names {names} with {len(values)} rows of "
                             f"series_values differ from the configured columns {columns}")
        return cls(config=config, times=times, omega=omega, series=dict(zip(names, values)))


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


@np.errstate(over="ignore")
def simulate_ensemble(configs) -> list[Trajectory]:
    """Run configs that differ only in nu as one ensemble, stepped together
    on a shared grid with shared steps and snapshot times.

    Member k's trajectory is simulate(configs[k]) up to roundoff, except
    that an automatic dt follows the smallest CFL bound among the members.
    A CflError or DivergenceError names the offending member's nu and the
    step. An overflow warns of nothing: an overflowing squared speed
    makes the CFL bound 0, and a non-finite vorticity stops the run.
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
    grid = first.grid
    stepper = _Stepper(grid, first.trace, [config.nu for config in configs])
    omega = np.repeat(first.omega0[None], len(configs), axis=0)
    state = stepper.state(to_modes(omega), omega)

    auto = first.dt == "auto"
    dt_nominal = None if auto else float(first.dt)

    record_times, records, times = [], [], []
    snapshots = [[] for _ in configs]  # per member

    def record(t, s: _State):
        """The series columns after t, one entry per member in each."""
        bc = boundary_values(s.omega) - stepper.boundary_vorticity(s.psi)
        abs_omega = np.abs(s.omega)
        record_times.append(t)
        records.append([np.sum(grid.weights * s.speed2(), axis=(-2, -1)),
                        *(lp_norms(abs_omega, grid, p) for p in first.lp_exponents),
                        np.max(np.abs(bc), axis=-1)])

    def snapshot(t, s: _State):
        times.append(t)
        # Copies, so that the snapshots do not keep the level's buffers.
        for member, w in zip(snapshots, s.omega):
            member.append(w.copy())

    snapshot(0.0, state)
    record(0.0, state)

    t = 0.0
    step_idx = 0
    eps = 1e-12 * first.t_end
    while t < first.t_end - eps:
        if auto and step_idx % 10 == 0:
            bound = float(np.min(cfl_bound(state)))
            dt_nominal = 0.9 * bound
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
    # pop: a member's copies are freed once its array is built
    return [Trajectory(
        config=config, times=np.array(times), omega=np.stack(snapshots.pop(0)),
        series={"t": np.array(record_times), **dict(zip(columns, series[k]))})
        for k, config in enumerate(configs)]

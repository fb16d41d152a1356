"""Desk-scale laboratory for incompressible flow on the unit disk with
slip boundary conditions, in vorticity form: a solver, velocity
reconstruction, pressure recovery, residual diagnostics for the
estimates the scheme is supposed to satisfy, and an ellipticity checker
for boundary value systems with weights.
"""

from .adn import (AdnProblem, AdnReport, check_all, check_ellipticity,
                  complementing_check, disk_boundary, load_problem,
                  navier_laplacian_problem, principal_parts, roots_positive_imag)
from .biot_savart import biot_savart, solve_poisson_dirichlet
from .cli import main
from .diagnostics import (ExtendedTangent, cz_ratio, enstrophy_balance_residual,
                          extended_tangent, h2_ratio, navier_residuals,
                          renormalized_slack, weak_form_residual)
from .field import (ScalarField, VectorField, curl, divergence, grad, lp_norm,
                    perp_grad)
from .geometry import PolarGrid, BoundaryTrace, boundary_trace, build_grid, integrate
from .ns_solver import (CflError, DivergenceError, SimConfig, Trajectory,
                        initial_vorticity, simulate, simulate_ensemble)
from .pressure import PressureSolve, pressure_estimate_slack, recover_pressure
from .sweep import ConvergenceReport, SweepConfig, run_sweep

__all__ = [
    "AdnProblem", "AdnReport", "BoundaryTrace", "CflError", "ConvergenceReport",
    "DivergenceError", "ExtendedTangent", "PolarGrid",
    "PressureSolve", "ScalarField", "SimConfig", "SweepConfig", "Trajectory",
    "VectorField", "biot_savart",
    "boundary_trace", "build_grid", "check_all", "check_ellipticity",
    "complementing_check", "curl", "cz_ratio", "disk_boundary", "divergence",
    "enstrophy_balance_residual", "extended_tangent", "grad", "h2_ratio",
    "initial_vorticity", "integrate", "load_problem", "lp_norm", "main",
    "navier_laplacian_problem", "navier_residuals", "perp_grad",
    "pressure_estimate_slack", "principal_parts", "recover_pressure",
    "renormalized_slack", "roots_positive_imag", "run_sweep",
    "simulate", "simulate_ensemble",
    "solve_poisson_dirichlet",
    "weak_form_residual",
]

__version__ = "0.1.0"

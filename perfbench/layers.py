"""The package's modules as benchmark layers: where their spans are
installed, and how spans become the per-layer metrics.

`geometry` only builds the grid, so it is part of set-up and has no span.
"""

from __future__ import annotations

import importlib
import statistics

import numpy as np

from tracing import Span, Tracer, summarize

FFT_SPANS = ("numpy.fft.rfft", "numpy.fft.irfft")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; undo with `tracer.restore()`."""
    mod = {name: importlib.import_module(f"slipdisk.{name}")
           for name in ("_tridiag", "field", "biot_savart", "ns_solver",
                        "pressure", "diagnostics", "adn", "cli")}
    # The package attribute `slipdisk.biot_savart` is the function of that
    # name, so the module is taken from sys.modules via import_module.
    tri, field, bs, ns = mod["_tridiag"], mod["field"], mod["biot_savart"], mod["ns_solver"]
    pr, dg, adn, cli = mod["pressure"], mod["diagnostics"], mod["adn"], mod["cli"]

    tracer.patch(tri.TridiagonalBatch, "__init__", "tridiag.factor")
    tracer.patch(tri.TridiagonalBatch, "solve", "tridiag.solve")
    tracer.patch(np.fft, "rfft", "numpy.fft.rfft")
    tracer.patch(np.fft, "irfft", "numpy.fft.irfft")
    tracer.patch_function(field._check_values, "field.check_values")
    tracer.patch_function(field.perp_grad, "field.perp_grad")
    tracer.patch_function(field.lp_norm, "field.lp_norm")
    tracer.patch(bs.PoissonDirichletSolver, "solve", "biot_savart.poisson_solve")
    tracer.patch_function(ns.simulate, "ns_solver.simulate")
    tracer.patch(ns._Stepper, "advance", "ns_solver.advance")
    tracer.patch_function(ns._advection, "ns_solver.advection")
    tracer.patch(ns._DiffusionCN, "step", "ns_solver.diffusion")
    tracer.patch_function(ns.cfl_bound, "ns_solver.cfl_bound")
    tracer.patch(ns.Trajectory, "save", "ns_solver.save")
    tracer.patch(ns.Trajectory, "load", "ns_solver.load")
    tracer.patch_function(pr.recover_pressure, "pressure.recover")
    tracer.patch(pr.PoissonNeumannSolver, "solve", "pressure.neumann")
    tracer.patch(pr.PoissonNeumannSolver, "apply", "pressure.neumann")
    tracer.patch_function(dg.navier_residuals, "diagnostics.navier_residuals")
    tracer.patch_function(dg.weak_form_residual, "diagnostics.weak_form")
    tracer.patch_function(dg.enstrophy_balance_residual, "diagnostics.enstrophy_balance")
    tracer.patch_function(dg.renormalized_slack, "diagnostics.renormalized_slack")
    tracer.patch_function(adn.check_all, "adn.check_all")
    tracer.patch_function(adn.check_ellipticity, "adn.check_ellipticity")
    tracer.patch_function(adn.roots_positive_imag, "adn.roots_positive_imag")
    tracer.patch_function(adn.complementing_check, "adn.complementing_check")
    tracer.patch_function(cli.run_sweep, "cli.sweep")
    tracer.patch_function(cli._timed_run, "cli.sweep.member")
    tracer.patch_function(cli._cmd_diagnose, "cli.diagnose")
    tracer.patch_function(cli._cmd_adn, "cli.adn")

    pool_cls = cli.ThreadPoolExecutor

    class TracedPool(pool_cls):
        """The sweep's pool: one span per pool lifetime, plus its width."""

        def __enter__(self):
            tracer.count("cli.sweep.threads", self._max_workers)
            tracer.begin("cli.sweep.pool")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.end()

    tracer.replace(cli, "ThreadPoolExecutor", TracedPool, pool_cls)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], counts: list, n_jobs: int) -> dict[str, float]:
    """Per-job means of the traced jobs' spans (ratios from totals)."""
    s = summarize(spans)

    def calls(*names):
        return sum(s.get(n, {}).get("calls", 0) for n in names)

    def self_s(*names):
        return sum(s.get(n, {}).get("self_s", 0.0) for n in names)

    def total_s(*names):
        return sum(s.get(n, {}).get("total_s", 0.0) for n in names)

    steps = calls("ns_solver.advance")
    per_job = 1.0 / n_jobs

    threads = [v for _, name, v in counts if name == "cli.sweep.threads"]
    pools = [sp for sp in spans if sp.name == "cli.sweep.pool"]
    pool_capacity = sum(w * p.duration for w, p in zip(threads, pools))
    post = []
    for sweep in (sp for sp in spans if sp.name == "cli.sweep"):
        last_pool = max((p.end for p in pools if p.job == sweep.job
                         and sweep.start <= p.start <= sweep.end), default=sweep.start)
        post.append(sweep.end - last_pool)

    return {
        "tridiag.solve.calls_per_step": _ratio(calls("tridiag.solve"), steps),
        "tridiag.solve.self_s": self_s("tridiag.solve") * per_job,
        "tridiag.solve.us_per_call": 1e6 * _ratio(total_s("tridiag.solve"),
                                                   calls("tridiag.solve")),
        "tridiag.factor.calls": calls("tridiag.factor") * per_job,
        "field.fft.calls_per_step": _ratio(calls(*FFT_SPANS), steps),
        "field.fft.self_s": self_s(*FFT_SPANS) * per_job,
        "field.perp_grad.calls_per_step": _ratio(calls("field.perp_grad"), steps),
        "field.perp_grad.self_s": self_s("field.perp_grad") * per_job,
        "field.check_values.calls_per_step": _ratio(calls("field.check_values"), steps),
        "field.check_values.self_s": self_s("field.check_values") * per_job,
        "field.lp_norm.self_s": self_s("field.lp_norm") * per_job,
        "biot_savart.poisson_solve.calls": calls("biot_savart.poisson_solve") * per_job,
        "biot_savart.poisson_solve.self_s": self_s("biot_savart.poisson_solve") * per_job,
        "biot_savart.poisson_solve.us_per_call": 1e6 * _ratio(
            total_s("biot_savart.poisson_solve"), calls("biot_savart.poisson_solve")),
        "ns_solver.steps": steps * per_job,
        "ns_solver.ms_per_step": 1e3 * _ratio(total_s("ns_solver.simulate"), steps),
        "ns_solver.advance.self_s": self_s("ns_solver.advance") * per_job,
        "ns_solver.advection.self_s": self_s("ns_solver.advection") * per_job,
        "ns_solver.diffusion.self_s": self_s("ns_solver.diffusion") * per_job,
        "ns_solver.cfl_bound.calls": calls("ns_solver.cfl_bound") * per_job,
        "ns_solver.save_s": total_s("ns_solver.save") * per_job,
        "ns_solver.load_s": total_s("ns_solver.load") * per_job,
        "pressure.recover.calls": calls("pressure.recover") * per_job,
        "pressure.recover.self_s": self_s("pressure.recover") * per_job,
        "pressure.recover.us_per_call": 1e6 * _ratio(total_s("pressure.recover"),
                                                     calls("pressure.recover")),
        "pressure.neumann.self_s": self_s("pressure.neumann") * per_job,
        "diagnostics.navier_residuals.self_s": self_s("diagnostics.navier_residuals") * per_job,
        "diagnostics.weak_form.self_s": self_s("diagnostics.weak_form") * per_job,
        "diagnostics.enstrophy_balance.self_s": self_s("diagnostics.enstrophy_balance") * per_job,
        "diagnostics.renormalized_slack.self_s": self_s("diagnostics.renormalized_slack") * per_job,
        "adn.check_ellipticity.self_s": self_s("adn.check_ellipticity") * per_job,
        "adn.roots_positive_imag.calls": calls("adn.roots_positive_imag") * per_job,
        "adn.roots_positive_imag.self_s": self_s("adn.roots_positive_imag") * per_job,
        "adn.complementing_check.calls": calls("adn.complementing_check") * per_job,
        "adn.complementing_check.self_s": self_s("adn.complementing_check") * per_job,
        "cli.sweep.attempts": len(pools) * per_job,
        "cli.sweep.member_s": total_s("cli.sweep.member") * per_job,
        "cli.sweep.pool_efficiency": _ratio(total_s("cli.sweep.member"), pool_capacity),
        "cli.sweep.post_s": statistics.fmean(post) if post else 0.0,
    }

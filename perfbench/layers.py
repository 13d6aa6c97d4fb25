"""Trace targets for each drtrack module and the per-layer metrics.

Layers are the modules of ``src/drtrack``.  ``targets()`` lists every
wrapper site: the module (or class) whose attribute the caller reads,
the attribute, and the span name ``<layer>.<function>``.
``layer_metrics`` turns the spans and counters of one traced round into
the per-layer metrics named in ``PER_LAYER``, each divided by the
number of passes in the round so that it reads per pass.
"""

from __future__ import annotations

import numpy as np

from drtrack import backtest, baselines, cli, data, model, projections, spg

from tracer import Target, Tracer, summarize

_CALLED = [
    "data.build_sample_set",
    "data.estimate_moments",
    "data.load_returns_csv",
    "model.AmbiguityParams",
    "model.evaluate_phi_n",
    "smoothing.smooth_phi",
    "smoothing.grad_smooth_phi",
    "projections.project_feasible",
    "projections.project_psd",
    "projections.project_simplex",
    "spg.spg_solve",
    "baselines.scvar_solve",
    "baselines.scvar_objective",
    "backtest.run_backtest",
    "cli.main",
]
_KERNELS = ["smoothing.smooth_phi", "smoothing.grad_smooth_phi"]

# name -> unit; BENCHMARK.json lists the same names in the same order.
PER_LAYER: dict[str, str] = {}
for _name in _CALLED:
    PER_LAYER[f"{_name}.calls"] = "count"
    if _name != "baselines.scvar_objective":
        PER_LAYER[f"{_name}.self_s"] = "s"
    if _name in _KERNELS:
        PER_LAYER[f"{_name}.computed_flops"] = "flop"
        PER_LAYER[f"{_name}.computed_bytes"] = "B"
        PER_LAYER[f"{_name}.gflops"] = "GFLOP/s"
PER_LAYER.update(
    {
        "model.DualPoint.constructions": "count",
        "model.DualPoint.self_s": "s",
        "spg.inner_iters": "count",
        "spg.outer_iters": "count",
        "spg.grad_evals": "count",
        "spg.status.converged": "count",
        "spg.status.iteration-cap": "count",
        "spg.status.stalled": "count",
        "baselines.scvar_solve.iters": "count",
        "spg.trials_per_step": "1/step",
        "spg.ms_per_step": "ms",
        "spg.residual": "1",
        "spg.mu_final": "1",
        "baselines.scvar_solve.converged_frac": "ratio",
        "backtest.fit_s.p50": "s",
        "backtest.fit_s.p90": "s",
        "backtest.teo": "1",
        "backtest.tei": "1",
        "backtest.grid.threads": "count",
        "backtest.grid.busy_s": "s",
        "backtest.grid.wall_s": "s",
        "backtest.grid.parallel_efficiency": "ratio",
        "cli.output_bytes": "B",
        "trace.spans": "count",
        "trace.run_s": "s",
        "trace.untraced_run_s": "s",
        "trace.overhead_s": "s",
    }
)


def kernel_cost(name: str, n: int, d: int) -> tuple[float, float]:
    """Computed (flops, bytes) of one call on N samples of d assets.

    Counted from the numpy expressions as written in
    ``drtrack.smoothing``: 2*N*m*m flops for each N x m by m x m
    product (m = d + 1), 2*N*k for each matrix-vector product with k
    columns, and one flop per element for each elementwise pass over an
    N-vector, transcendental functions included.  Bytes are 8 per
    double read or written by each of those operations.  Cache reuse is
    ignored, so these are computed counts, not measured traffic.
    """
    m = d + 1
    if name == "smoothing.smooth_phi":
        # s@lam, (.)*s, row sum, s@q, xi_b@x; 25 elementwise N-vector passes
        flops = 2 * n * m * m + 2 * n * m + 2 * n * m + 2 * n * d + 25 * n
        doubles = 2 * n * m + 3 * n * m + n * m + n * m + n * d + 3 * 25 * n
    elif name == "smoothing.grad_smooth_phi":
        # value part as above, plus xi_b.T@w, s.T@w, (s*w).T@s; 45 vector passes
        flops = 4 * n * m * m + 5 * n * m + 4 * n * d + 45 * n
        doubles = 2 * n * m + 3 * n * m + n * m + n * m + 2 * n * d
        doubles += n * m + 3 * n * m + n * m + 3 * 45 * n
    else:
        raise ValueError(f"no cost model for {name}")
    return float(flops), float(8 * doubles)


def _kernel_after(name: str):
    def after(args, kwargs, result, tracer: Tracer) -> None:
        samples = args[1] if len(args) > 1 else kwargs["samples"]
        n, cols = samples.samples.shape
        flops, nbytes = kernel_cost(name, n, cols - 1)
        tracer.add(f"{name}.computed_flops", flops)
        tracer.add(f"{name}.computed_bytes", nbytes)

    return after


def _spg_after(args, kwargs, result, tracer: Tracer) -> None:
    tracer.add("spg.inner_iters", result.inner_iters)
    tracer.add("spg.outer_iters", result.outer_iters)
    tracer.add("spg.grad_evals", result.grad_evals)
    tracer.add(f"spg.status.{result.status}", 1)
    tracer.sample("spg.residual", result.residual)
    tracer.sample("spg.mu_final", result.mu_final)


def _scvar_after(args, kwargs, result, tracer: Tracer) -> None:
    tracer.add("baselines.scvar_solve.iters", result.iters)
    tracer.add("baselines.scvar_solve.converged", result.status == "converged")


def _backtest_after(args, kwargs, result, tracer: Tracer) -> None:
    for window in result.windows:
        tracer.sample("backtest.fit_s", window.solve_seconds)
    tracer.sample("backtest.teo", result.teo)
    tracer.sample("backtest.tei", result.tei)


def targets() -> list[Target]:
    """Every wrapper site, on the name the caller looks up."""
    phi, grad = "smoothing.smooth_phi", "smoothing.grad_smooth_phi"
    return [
        Target(backtest, "build_sample_set", "data.build_sample_set"),
        Target(cli, "build_sample_set", "data.build_sample_set"),
        Target(backtest, "estimate_moments", "data.estimate_moments"),
        Target(cli, "estimate_moments", "data.estimate_moments"),
        Target(data, "estimate_moments", "data.estimate_moments"),
        Target(cli, "load_returns_csv", "data.load_returns_csv"),
        Target(model.AmbiguityParams, "__post_init__", "model.AmbiguityParams"),
        Target(model.DualPoint, "__post_init__", "model.DualPoint"),
        Target(spg, "evaluate_phi_n", "model.evaluate_phi_n"),
        Target(spg, "smooth_phi", phi, _kernel_after(phi)),
        Target(spg, "grad_smooth_phi", grad, _kernel_after(grad)),
        Target(spg, "project_feasible", "projections.project_feasible"),
        Target(projections, "project_psd", "projections.project_psd"),
        Target(projections, "project_simplex", "projections.project_simplex"),
        Target(baselines, "project_simplex", "projections.project_simplex"),
        Target(spg, "spg_solve", "spg.spg_solve", _spg_after),
        Target(backtest, "spg_solve", "spg.spg_solve", _spg_after),
        Target(cli, "spg_solve", "spg.spg_solve", _spg_after),
        Target(backtest, "scvar_solve", "baselines.scvar_solve", _scvar_after),
        Target(cli, "scvar_solve", "baselines.scvar_solve", _scvar_after),
        Target(baselines, "scvar_objective", "baselines.scvar_objective"),
        Target(backtest, "run_backtest", "backtest.run_backtest", _backtest_after),
        Target(cli, "run_backtest", "backtest.run_backtest", _backtest_after),
        Target(cli, "grid_search", "backtest.grid_search"),
        Target(cli, "report_to_dict", "backtest.report_to_dict"),
        Target(cli, "main", "cli.main"),
    ]


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def layer_metrics(
    tracer: Tracer, runs: list[int], grid_threads: int, output_bytes: float
) -> dict[str, float]:
    """Per-layer metrics of the passes ``runs``, per pass.

    ``grid_threads`` and ``output_bytes`` come from the workload, which
    knows its CLI arguments and output file.
    """
    passes = len(runs)
    wanted = set(runs)
    spans = [s for s in tracer.spans if s.run in wanted]
    table = summarize(spans)
    counters: dict[str, float] = {}
    samples: dict[str, list[float]] = {}
    for run in runs:
        for key, value in tracer.counters[run].items():
            counters[key] = counters.get(key, 0.0) + value
        for key, values in tracer.samples[run].items():
            samples.setdefault(key, []).extend(values)

    out: dict[str, float] = {}
    for name in _CALLED + ["model.DualPoint"]:
        calls, _total, own = table.get(name, (0, 0.0, 0.0))
        key = "constructions" if name == "model.DualPoint" else "calls"
        out[f"{name}.{key}"] = calls / passes
        if f"{name}.self_s" in PER_LAYER:
            out[f"{name}.self_s"] = own / passes
    for name in _KERNELS:
        calls, _, own = table.get(name, (0, 0.0, 0.0))
        flops = counters.get(f"{name}.computed_flops", 0.0)
        nbytes = counters.get(f"{name}.computed_bytes", 0.0)
        out[f"{name}.computed_flops"] = flops / calls if calls else 0.0
        out[f"{name}.computed_bytes"] = nbytes / calls if calls else 0.0
        out[f"{name}.gflops"] = flops / own / 1e9 if own > 0 else 0.0

    for key in ("spg.inner_iters", "spg.outer_iters", "spg.grad_evals"):
        out[key] = counters.get(key, 0.0) / passes
    for status in ("converged", "iteration-cap", "stalled"):
        out[f"spg.status.{status}"] = counters.get(f"spg.status.{status}", 0.0) / passes
    inner = counters.get("spg.inner_iters", 0.0)
    phi_calls = table.get("smoothing.smooth_phi", (0, 0.0, 0.0))[0]
    solve_total = table.get("spg.spg_solve", (0, 0.0, 0.0))[1]
    out["spg.trials_per_step"] = phi_calls / inner if inner else 0.0
    out["spg.ms_per_step"] = 1e3 * solve_total / inner if inner else 0.0
    out["spg.residual"] = _mean(samples.get("spg.residual", []))
    out["spg.mu_final"] = _mean(samples.get("spg.mu_final", []))

    fits = table.get("baselines.scvar_solve", (0, 0.0, 0.0))[0]
    out["baselines.scvar_solve.iters"] = counters.get("baselines.scvar_solve.iters", 0.0) / passes
    out["baselines.scvar_solve.converged_frac"] = (
        counters.get("baselines.scvar_solve.converged", 0.0) / fits if fits else 0.0
    )

    fit_s = samples.get("backtest.fit_s", [])
    out["backtest.fit_s.p50"] = float(np.percentile(fit_s, 50)) if fit_s else 0.0
    out["backtest.fit_s.p90"] = float(np.percentile(fit_s, 90)) if fit_s else 0.0
    out["backtest.teo"] = _mean(samples.get("backtest.teo", []))
    out["backtest.tei"] = _mean(samples.get("backtest.tei", []))
    grid_wall = table.get("backtest.grid_search", (0, 0.0, 0.0))[1]
    busy = table.get("backtest.run_backtest", (0, 0.0, 0.0))[1] if grid_wall else 0.0
    out["backtest.grid.threads"] = float(grid_threads)
    out["backtest.grid.busy_s"] = busy / passes
    out["backtest.grid.wall_s"] = grid_wall / passes
    out["backtest.grid.parallel_efficiency"] = (
        busy / (grid_threads * grid_wall) if grid_wall and grid_threads else 0.0
    )
    out["cli.output_bytes"] = float(output_bytes)
    out["trace.spans"] = len(spans) / passes
    return out

"""Command-line interface: data generation, solving, backtests, grids.

Commands
--------
gen-data     write a seeded synthetic returns CSV
solve        fit one model on a panel and emit the portfolio as JSON
backtest     run the rolling-window protocol for one configuration
grid-search  sweep (tau1, tau2) pairs and select the lowest TEO
compare      run several models and emit a comparison table

Configuration values come from defaults, then an optional JSON config
file with flat dotted keys, then command-line flags, in that order of
precedence.  Exit codes: 0 success, 2 usage or validation error,
3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .backtest import (
    MODEL_IDS,
    BacktestConfig,
    _round_sig,
    grid_search,
    report_to_dict,
    run_backtest,
    solve_model,
)
from .baselines import BaselineParams, ScvarResult, StepRule
from .data import gen_synthetic, load_returns_csv, save_returns_csv
from .errors import DataError, InvalidInputError, NumericalError
from .model import ModelParams
from .spg import SolveResult, SpgParams

# perfbench/layers.py wraps these names on this module to trace the
# calls made through it; the solvers themselves run in ``solve_model``.
from .baselines import scvar_solve  # noqa: F401
from .data import build_sample_set, estimate_moments  # noqa: F401
from .spg import spg_solve  # noqa: F401

__all__ = ["main"]

# Models the comparison table acknowledges but does not implement
# (cardinality/MILP/nonconvex formulations needing external solvers).
UNAVAILABLE_MODELS = ("mixed01-lp", "te-l0", "lasso", "l2-lp")

_SPG_DEFAULTS = SpgParams()
_BASELINE_DEFAULTS = BaselineParams()
_BACKTEST_DEFAULTS = {f.name: f.default for f in fields(BacktestConfig)}

# Solver, baseline and protocol values are the dataclass defaults.
CONFIG_DEFAULTS: dict[str, object] = {
    "model.tau1": 2e-4,
    "model.tau2": 2e-4,
    "model.beta": 0.95,
    "ambiguity.kappa1": _BACKTEST_DEFAULTS["kappa1"],
    "ambiguity.kappa2": _BACKTEST_DEFAULTS["kappa2"],
    **{f"spg.{f.name}": getattr(_SPG_DEFAULTS, f.name) for f in fields(SpgParams)},
    "baseline.max_iters": _BASELINE_DEFAULTS.max_iters,
    "baseline.step_rule": _BASELINE_DEFAULTS.step_rule.value,
    "baseline.tolerance": _BASELINE_DEFAULTS.tolerance,
    "backtest.window": _BACKTEST_DEFAULTS["window"],
    "backtest.hold": _BACKTEST_DEFAULTS["hold"],
}

# Flag destinations that override config keys when provided.
_FLAG_TO_KEY = {
    "tau1": "model.tau1",
    "tau2": "model.tau2",
    "beta": "model.beta",
    "kappa1": "ambiguity.kappa1",
    "kappa2": "ambiguity.kappa2",
    "window": "backtest.window",
    "hold": "backtest.hold",
}


def _effective_config(args: argparse.Namespace) -> dict[str, object]:
    cfg = dict(CONFIG_DEFAULTS)
    path = getattr(args, "config", None)
    if path is not None:
        try:
            loaded = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise DataError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise InvalidInputError(f"config file {path} must hold a JSON object")
        unknown = sorted(set(loaded) - set(CONFIG_DEFAULTS))
        if unknown:
            raise InvalidInputError(f"unknown config keys: {', '.join(unknown)}")
        cfg.update(loaded)
    for attr, key in _FLAG_TO_KEY.items():
        value = getattr(args, attr, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _model_params(cfg: dict[str, object]) -> ModelParams:
    return ModelParams(
        tau1=float(cfg["model.tau1"]),
        tau2=float(cfg["model.tau2"]),
        beta=float(cfg["model.beta"]),
    )


def _spg_params(cfg: dict[str, object]) -> SpgParams:
    # Each value is cast to the type of its default (float or int).
    names = [f.name for f in fields(SpgParams)]
    return SpgParams(**{n: type(getattr(_SPG_DEFAULTS, n))(cfg[f"spg.{n}"]) for n in names})


def _baseline_params(cfg: dict[str, object]) -> BaselineParams:
    rule = str(cfg["baseline.step_rule"]).lower()
    try:
        step_rule = StepRule(rule)
    except ValueError:
        raise InvalidInputError(
            f"baseline.step_rule must be 'armijo' or 'diminishing', got {rule!r}"
        ) from None
    return BaselineParams(
        max_iters=int(cfg["baseline.max_iters"]),
        step_rule=step_rule,
        tolerance=float(cfg["baseline.tolerance"]),
    )


def _backtest_config(cfg: dict[str, object], model_id: str) -> BacktestConfig:
    return BacktestConfig(
        model_id=model_id,
        model=_model_params(cfg),
        window=int(cfg["backtest.window"]),
        hold=int(cfg["backtest.hold"]),
        kappa1=float(cfg["ambiguity.kappa1"]),
        kappa2=float(cfg["ambiguity.kappa2"]),
        spg=_spg_params(cfg),
        baseline=_baseline_params(cfg),
    )


def _emit_json(doc, out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _write_trace(path: str, trace) -> None:
    lines = ["cpu_seconds,objective"]
    lines.extend(f"{sec:.9f},{obj:.17g}" for sec, obj in trace)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_rows(text: str | None, n_days: int) -> tuple[int, int]:
    if text is None:
        return 0, n_days
    parts = text.split(":")
    if len(parts) != 2:
        raise InvalidInputError(f"--rows must look like START:STOP, got {text!r}")
    try:
        start, stop = int(parts[0]), int(parts[1])
    except ValueError:
        raise InvalidInputError(f"--rows must hold integers, got {text!r}") from None
    return start, stop


def cmd_gen_data(args: argparse.Namespace) -> int:
    panel = gen_synthetic(
        d=args.assets, n_days=args.days, seed=args.seed, regime_shift=args.shift_day
    )
    save_returns_csv(panel, args.out)
    variance = float(np.var(panel.index_returns))
    print(
        f"wrote {args.out}: assets={panel.n_assets} days={panel.n_days} "
        f"index_variance={variance:.6g}"
    )
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    config = _backtest_config(cfg, args.model)
    panel = load_returns_csv(args.data)
    start, stop = _parse_rows(args.rows, panel.n_days)
    want_trace = args.trace_out is not None
    if want_trace and args.model == "te-l2":
        raise InvalidInputError("--trace-out is not available for te-l2")
    begin = time.perf_counter()
    fit = solve_model(panel, start, stop, config, record_trace=want_trace)
    result = fit.result
    doc = {
        "model": args.model,
        "status": fit.status,
        "objective": fit.objective,
        "wall_seconds": time.perf_counter() - begin,
        "weights": [_round_sig(v) for v in fit.x],
    }
    if isinstance(result, SolveResult):
        doc.update(
            smooth_objective=result.smooth_objective,
            residual=result.residual,
            mu_final=result.mu_final,
            outer_iters=result.outer_iters,
            inner_iters=result.inner_iters,
            grad_evals=result.grad_evals,
            trials=result.trials,
            wall_seconds=result.wall_seconds,
            alpha=result.nu.alpha,
        )
    elif isinstance(result, ScvarResult):
        doc.update(iters=result.iters, alpha=result.alpha)
    if want_trace and result.trace is not None:
        _write_trace(args.trace_out, result.trace)
    _emit_json(doc, args.out)
    if args.strict and fit.status != "converged":
        print(f"solver did not converge: status={fit.status}", file=sys.stderr)
        return 4
    return 0


def cmd_backtest(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    config = _backtest_config(cfg, args.model)
    panel = load_returns_csv(args.data)
    report = run_backtest(panel, config)
    _emit_json(report_to_dict(report, config), args.out)
    counts = ", ".join(f"{n} {status}" for status, n in report.status_counts.items())
    print(f"{report.t_bar} windows: {counts}", file=sys.stderr)
    if args.strict:
        bad = [w.t for w in report.windows if w.status != "converged"]
        if bad:
            print(f"windows did not converge: {bad}", file=sys.stderr)
            return 4
    return 0


def _parse_grid(text: str | None) -> list[tuple[float, float]] | None:
    if text is None:
        return None
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise InvalidInputError(f"--grid must hold comma-separated floats, got {text!r}") from None
    if not values:
        raise InvalidInputError("--grid must contain at least one value")
    return [(a, b) for a in values for b in values]


def cmd_grid_search(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    config = _backtest_config(cfg, args.model)
    panel = load_returns_csv(args.data)
    result = grid_search(panel, config, grid=_parse_grid(args.grid), threads=args.threads)
    rows = []
    for entry in result.rows:
        entry_config = replace(
            config, model=replace(config.model, tau1=entry.tau1, tau2=entry.tau2)
        )
        rows.append(report_to_dict(entry.report, entry_config))
    doc = {
        "rows": rows,
        "best": {
            "tau1": result.best.tau1,
            "tau2": result.best.tau2,
            "teo": result.best.report.teo,
        },
    }
    _emit_json(doc, args.out)
    print(
        f"grid-search: {len(result.rows)} points, best tau1={result.best.tau1:g} "
        f"tau2={result.best.tau2:g} teo={result.best.report.teo:.6g}"
    )
    return 0


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    panel = load_returns_csv(args.data)
    model_ids = [tok.strip() for tok in args.models.split(",") if tok.strip()]
    if not model_ids:
        raise InvalidInputError("--models must name at least one model")
    rows = []
    for model_id in model_ids:
        if model_id in UNAVAILABLE_MODELS:
            rows.append({"model": model_id, "status": "unavailable"})
            continue
        if model_id not in MODEL_IDS:
            raise InvalidInputError(
                f"unknown model {model_id!r}; available: {', '.join(MODEL_IDS)}; "
                f"acknowledged but unimplemented: {', '.join(UNAVAILABLE_MODELS)}"
            )
        config = _backtest_config(cfg, model_id)
        report = run_backtest(panel, config)
        rows.append(
            {
                "model": model_id,
                "status": "ok",
                "tau1": config.model.tau1,
                "tau2": config.model.tau2,
                "tei": report.tei,
                "teo": report.teo,
                "sigma2": report.sigma2,
                "sharpe": report.sharpe,
                "turnover": report.turnover,
                "cpu_seconds": report.cpu_seconds,
            }
        )
    _emit_json({"rows": rows}, args.out)
    header = ("model", "tau1", "tau2", "TEI", "TEO", "sigma2", "SR", "TO", "CPU_s")
    table = [header]
    for row in rows:
        if row.get("status") == "unavailable":
            table.append((row["model"], "unavailable", "", "", "", "", "", "", ""))
        else:
            table.append(
                (
                    row["model"],
                    _fmt(row["tau1"]),
                    _fmt(row["tau2"]),
                    _fmt(row["tei"]),
                    _fmt(row["teo"]),
                    _fmt(row["sigma2"]),
                    _fmt(row["sharpe"]),
                    _fmt(row["turnover"]),
                    _fmt(row["cpu_seconds"]),
                )
            )
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(r)).rstrip())
    return 0


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file with flat dotted keys")
    parser.add_argument("--out", help="output JSON path (default: stdout)")
    parser.add_argument("--strict", action="store_true", help="non-converged solves fail the run")
    parser.add_argument("--tau1", type=float, help="ridge penalty weight")
    parser.add_argument("--tau2", type=float, help="CVaR penalty weight")
    parser.add_argument("--beta", type=float, help="CVaR confidence level in (0,1)")
    parser.add_argument("--kappa1", type=float, help="mean-ellipsoid radius")
    parser.add_argument("--kappa2", type=float, help="second-moment bound factor")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drtrack",
        description="Distributionally robust index tracking: solvers and backtests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen-data", help="write a synthetic returns CSV")
    p_gen.add_argument("--assets", type=int, required=True)
    p_gen.add_argument("--days", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--shift-day", type=int, default=None, help="regime-shift day index")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen_data)

    p_solve = sub.add_parser("solve", help="fit one model on a panel")
    p_solve.add_argument("--data", required=True)
    p_solve.add_argument("--model", required=True, choices=MODEL_IDS)
    p_solve.add_argument("--rows", help="fit row range START:STOP (default: all rows)")
    p_solve.add_argument("--trace-out", help="CSV path for (cpu_seconds, objective) trace")
    _add_common_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_back = sub.add_parser("backtest", help="run the rolling-window protocol")
    p_back.add_argument("--data", required=True)
    p_back.add_argument("--model", required=True, choices=MODEL_IDS)
    p_back.add_argument("--window", type=int, help="training window length")
    p_back.add_argument("--hold", type=int, help="hold period length")
    _add_common_flags(p_back)
    p_back.set_defaults(func=cmd_backtest)

    p_grid = sub.add_parser("grid-search", help="sweep penalty pairs, pick lowest TEO")
    p_grid.add_argument("--data", required=True)
    p_grid.add_argument("--model", required=True, choices=MODEL_IDS)
    p_grid.add_argument("--grid", help="comma-separated penalty values (default: built-in grid)")
    p_grid.add_argument("--window", type=int, help="training window length")
    p_grid.add_argument("--hold", type=int, help="hold period length")
    p_grid.add_argument(
        "--threads",
        type=int,
        default=max(os.cpu_count() or 1, 1),
        help="concurrent grid points (1 = sequential)",
    )
    _add_common_flags(p_grid)
    p_grid.set_defaults(func=cmd_grid_search)

    p_cmp = sub.add_parser("compare", help="run several models, print a comparison")
    p_cmp.add_argument("--data", required=True)
    p_cmp.add_argument(
        "--models",
        default="drcvar-l2,drcvar-l1,scvar-l2,scvar-l1,te-l2",
        help="comma-separated model ids",
    )
    p_cmp.add_argument("--window", type=int, help="training window length")
    p_cmp.add_argument("--hold", type=int, help="hold period length")
    _add_common_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

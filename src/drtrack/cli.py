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
import sys
import time
from dataclasses import fields
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
from .baselines import BaselineParams, ScvarResult
from .data import gen_synthetic, load_returns_csv, save_returns_csv
from .errors import DataError, InvalidInputError, NumericalError
from .model import ModelParams
from .spg import STATUS_CONVERGED, SolveResult, SpgParams

# perfbench/layers.py wraps these names on this module to trace the
# calls made through it; the solvers themselves run in ``solve_model``.
from .baselines import scvar_solve  # noqa: F401
from .data import build_sample_set, estimate_moments  # noqa: F401
from .spg import spg_solve  # noqa: F401

__all__ = ["main"]

# Models the comparison table acknowledges but does not implement
# (cardinality/MILP/nonconvex formulations needing external solvers).
UNAVAILABLE_MODELS = ("mixed01-lp", "te-l0", "lasso", "l2-lp")

_DEFAULTS = BacktestConfig(MODEL_IDS[0], ModelParams())

# Config sections: the dataclass instance holding each section's defaults
# and the fields its keys name.  ``model.psi`` is no key, since
# BacktestConfig sets it from the model id.
_SECTIONS = {
    "model": (_DEFAULTS.model, ("tau1", "tau2", "beta")),
    "ambiguity": (_DEFAULTS, ("kappa1", "kappa2")),
    "spg": (_DEFAULTS.spg, tuple(f.name for f in fields(SpgParams))),
    "baseline": (_DEFAULTS.baseline, tuple(f.name for f in fields(BaselineParams))),
    "backtest": (_DEFAULTS, ("window", "hold")),
}

# Each key's default, typed as the dataclass holds it.
CONFIG_DEFAULTS: dict[str, object] = {
    f"{section}.{name}": getattr(owner, name)
    for section, (owner, names) in _SECTIONS.items()
    for name in names
}


def _typed(key: str, value):
    """``value`` checked against the type of the key's default and cast to it."""
    default = CONFIG_DEFAULTS[key]
    allowed = (int,) if isinstance(default, int) else (int, float)
    if isinstance(value, bool) or not isinstance(value, allowed):
        kind = "an integer" if isinstance(default, int) else "a number"
        raise InvalidInputError(f"{key} must be {kind}, got {value!r}")
    return type(default)(value)


def _effective_config(args: argparse.Namespace) -> dict[str, object]:
    """Typed values of every key: defaults, then the config file, then flags.

    A flag overrides the key whose field it names (``--tau1`` sets
    ``model.tau1``).
    """
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
    for key in cfg:
        value = getattr(args, key.split(".")[1], None)
        if value is not None:
            cfg[key] = value
    return {key: _typed(key, value) for key, value in cfg.items()}


def _backtest_config(cfg: dict[str, object], model_id: str) -> BacktestConfig:
    """The BacktestConfig of ``model_id`` built from the typed keys ``cfg``."""

    def section(name: str) -> dict[str, object]:
        _, names = _SECTIONS[name]
        return {field: cfg[f"{name}.{field}"] for field in names}

    return BacktestConfig(
        model_id,
        model=ModelParams(**section("model")),
        spg=SpgParams(**section("spg")),
        baseline=BaselineParams(**section("baseline")),
        **section("ambiguity"),
        **section("backtest"),
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
            alpha=result.nu.alpha,
        )
    elif isinstance(result, ScvarResult):
        doc.update({k: getattr(result, k) for k in ("iters", "alpha", "lower_bound", "gap")})
    if want_trace and result.trace is not None:
        _write_trace(args.trace_out, result.trace)
    _emit_json(doc, args.out)
    if args.strict and fit.status != STATUS_CONVERGED:
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
        bad = [w.t for w in report.windows if w.status != STATUS_CONVERGED]
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
    # a repeated value would fit the same (tau1, tau2) pair again
    values = list(dict.fromkeys(values))
    return [(a, b) for a in values for b in values]


def cmd_grid_search(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    config = _backtest_config(cfg, args.model)
    panel = load_returns_csv(args.data)
    result = grid_search(panel, config, grid=_parse_grid(args.grid))
    doc = {
        "rows": [report_to_dict(entry.report, entry.config) for entry in result.rows],
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


# Row keys of the comparison table after the model id, in column order.
_COMPARE_COLUMNS = ("tau1", "tau2", "tei", "teo", "sigma2", "sharpe", "turnover", "cpu_seconds")


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
        taus = {"tau1": config.model.tau1, "tau2": config.model.tau2}
        metrics = {key: getattr(report, key) for key in _COMPARE_COLUMNS[2:]}
        rows.append({"model": model_id, "status": "ok", **taus, **metrics})
    _emit_json({"rows": rows}, args.out)
    header = ("model", "tau1", "tau2", "TEI", "TEO", "sigma2", "SR", "TO", "CPU_s")
    table = [header]
    for row in rows:
        if row.get("status") == "unavailable":
            table.append((row["model"], "unavailable", "", "", "", "", "", "", ""))
        else:
            table.append((row["model"], *(_fmt(row[key]) for key in _COMPARE_COLUMNS)))
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
    p_solve.add_argument(
        "--trace-out",
        help="CSV path for (cpu_seconds, objective) trace; cpu_seconds is wall time",
    )
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
        default=1,
        help="ignored: grid points run in sequence (kept so existing command lines parse)",
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

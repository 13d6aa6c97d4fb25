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
3 data error, 4 numerical failure or, under ``--strict``, a fit that
did not converge.  The fitting commands (all but gen-data) read their
config and flags before the panel, so an exit 2 precedes an exit 3.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .backtest import (
    MODEL_IDS,
    BacktestConfig,
    BacktestReport,
    grid_search,
    report_to_dict,
    run_backtest,
    solve_model,
)
from .baselines import BaselineParams
from .data import ReturnPanel, gen_synthetic, load_returns_csv, save_returns_csv
from .errors import DataError, InvalidInputError, NumericalError
from .model import ModelParams
from .spg import STATUS_CONVERGED, SpgParams

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
    try:
        return type(default)(value)
    except OverflowError:
        raise InvalidInputError(f"{key} must be a number within the float range") from None


def _effective_config(args: argparse.Namespace) -> dict[str, object]:
    """Typed values of every key: defaults, then the config file, then flags.

    A flag overrides the key whose field it names (``--tau1`` sets
    ``model.tau1``).
    """
    cfg = dict(CONFIG_DEFAULTS)
    path = getattr(args, "config", None)
    if path is not None:
        try:
            loaded = json.loads(Path(path).read_text(encoding="utf-8-sig"))
        except OSError as exc:
            raise DataError(f"cannot read config file {path}: {exc}") from exc
        except ValueError as exc:  # bad JSON, bytes that are not UTF-8, or a too-long integer
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


def _parse_rows(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise InvalidInputError(f"--rows must look like START:STOP, got {text!r}")
    try:
        start, stop = int(parts[0]), int(parts[1])
    except ValueError:
        raise InvalidInputError(f"--rows must hold integers, got {text!r}") from None
    return start, stop


def _parse_grid(text: str) -> list[tuple[float, float]]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise InvalidInputError(f"--grid must hold comma-separated floats, got {text!r}") from None
    if not values:
        raise InvalidInputError("--grid must contain at least one value")
    # a repeated value would fit the same (tau1, tau2) pair again
    values = list(dict.fromkeys(values))
    return [(a, b) for a in values for b in values]


def _parse_models(text: str) -> list[str]:
    model_ids = list(dict.fromkeys(tok.strip() for tok in text.split(",") if tok.strip()))
    if not model_ids:
        raise InvalidInputError("--models must name at least one model")
    for model_id in model_ids:
        if model_id not in MODEL_IDS + UNAVAILABLE_MODELS:
            raise InvalidInputError(
                f"unknown model {model_id!r}; available: {', '.join(MODEL_IDS)}; "
                f"acknowledged but unimplemented: {', '.join(UNAVAILABLE_MODELS)}"
            )
    return model_ids


def _inputs(args: argparse.Namespace) -> tuple[dict[str, BacktestConfig], ReturnPanel]:
    """A fitting command's configs, by model id, and then its panel.

    Every config or flag error (exit 2) is raised before the panel is
    read, so it takes precedence over a data error (exit 3).  An output
    path into a missing directory (exit 3) is reported before any fit.
    """
    cfg = _effective_config(args)
    trace_out = getattr(args, "trace_out", None)
    if trace_out is not None and args.model == "te-l2":
        raise InvalidInputError("--trace-out is not available for te-l2")
    model_ids = args.models if "models" in args else [args.model]
    configs = {m: _backtest_config(cfg, m) for m in model_ids if m not in UNAVAILABLE_MODELS}
    for path in (args.out, trace_out):
        if path is not None and not Path(path).parent.is_dir():
            raise FileNotFoundError(f"the directory of {path} does not exist")
    return configs, load_returns_csv(args.data)


def _bad_windows(report: BacktestReport, label: str = "") -> list[str]:
    """The line naming the windows of ``report`` that did not converge, if any."""
    bad = [w.t for w in report.windows if w.status != STATUS_CONVERGED]
    return [f"windows did not converge: {label}{bad}"] if bad else []


def cmd_solve(args: argparse.Namespace, configs: dict, panel: ReturnPanel) -> list[str]:
    start, stop = args.rows or (0, panel.n_days)
    fit = solve_model(panel, start, stop, configs[args.model],
                      record_trace=args.trace_out is not None)
    doc = fit.to_dict()
    doc = {"model": args.model, "wall_seconds": doc.pop("solve_seconds")} | doc
    if fit.trace is not None:
        _write_trace(args.trace_out, fit.trace)
    _emit_json(doc, args.out)
    bad = fit.status != STATUS_CONVERGED
    return [f"solver did not converge: status={fit.status}"] if bad else []


def cmd_backtest(args: argparse.Namespace, configs: dict, panel: ReturnPanel) -> list[str]:
    config = configs[args.model]
    report = run_backtest(panel, config)
    _emit_json(report_to_dict(report, config), args.out)
    counts = ", ".join(f"{n} {status}" for status, n in report.status_counts.items())
    print(f"{report.t_bar} windows: {counts}", file=sys.stderr)
    return _bad_windows(report)


def cmd_grid_search(args: argparse.Namespace, configs: dict, panel: ReturnPanel) -> list[str]:
    result = grid_search(panel, configs[args.model], grid=args.grid)
    best = result.best
    rows = [report_to_dict(entry.report, entry.config) for entry in result.rows]
    doc = {"rows": rows, "best": {"tau1": best.tau1, "tau2": best.tau2, "teo": best.report.teo}}
    _emit_json(doc, args.out)
    print(
        f"grid-search: {len(rows)} points, best tau1={best.tau1:g} "
        f"tau2={best.tau2:g} teo={best.report.teo:.6g}"
    )
    return [
        line for entry in result.rows
        for line in _bad_windows(entry.report, f"tau1={entry.tau1:g} tau2={entry.tau2:g} ")
    ]


# Row keys of the comparison table after the model id, in column order.
_COMPARE_COLUMNS = ("tau1", "tau2", "tei", "teo", "sigma2", "sharpe", "turnover", "cpu_seconds")


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def cmd_compare(args: argparse.Namespace, configs: dict, panel: ReturnPanel) -> list[str]:
    header = ("model", "tau1", "tau2", "TEI", "TEO", "sigma2", "SR", "TO", "CPU_s")
    rows, table, unconverged = [], [header], []
    for model_id in args.models:
        config = configs.get(model_id)
        if config is None:
            rows.append({"model": model_id, "status": "unavailable"})
            table.append((model_id, "unavailable", "", "", "", "", "", "", ""))
            continue
        report = run_backtest(panel, config)
        summary = report_to_dict(report, config)
        del summary["per_window"]
        rows.append({"status": "ok", **summary})
        table.append((model_id, *(_fmt(summary[key]) for key in _COMPARE_COLUMNS)))
        unconverged += _bad_windows(report, f"{model_id} ")
    _emit_json({"rows": rows}, args.out)
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(r)).rstrip())
    return unconverged


def _add_common_flags(parser: argparse.ArgumentParser, rolling: bool = True) -> None:
    """The flags of every fitting command; ``--window`` and ``--hold`` if ``rolling``."""
    parser.add_argument("--data", required=True)
    parser.add_argument("--config", help="JSON config file with flat dotted keys")
    parser.add_argument("--out", help="output JSON path (default: stdout)")
    parser.add_argument("--strict", action="store_true", help="non-converged fits fail the run")
    parser.add_argument("--tau1", type=float, help="ridge penalty weight")
    parser.add_argument("--tau2", type=float, help="CVaR penalty weight")
    parser.add_argument("--beta", type=float, help="CVaR confidence level in (0,1)")
    parser.add_argument("--kappa1", type=float, help="mean-ellipsoid radius")
    parser.add_argument("--kappa2", type=float, help="second-moment bound factor")
    if rolling:
        parser.add_argument("--window", type=int, help="training window length")
        parser.add_argument("--hold", type=int, help="hold period length")


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

    p_solve = sub.add_parser("solve", help="fit one model on a panel")
    p_solve.add_argument("--model", required=True, choices=MODEL_IDS)
    p_solve.add_argument(
        "--rows", type=_parse_rows, help="fit row range START:STOP (default: all rows)"
    )
    p_solve.add_argument(
        "--trace-out",
        help="CSV path for (cpu_seconds, objective) trace; cpu_seconds is wall time",
    )
    _add_common_flags(p_solve, rolling=False)
    p_solve.set_defaults(func=cmd_solve)

    p_back = sub.add_parser("backtest", help="run the rolling-window protocol")
    p_back.add_argument("--model", required=True, choices=MODEL_IDS)
    _add_common_flags(p_back)
    p_back.set_defaults(func=cmd_backtest)

    p_grid = sub.add_parser("grid-search", help="sweep penalty pairs, pick lowest TEO")
    p_grid.add_argument("--model", required=True, choices=MODEL_IDS)
    p_grid.add_argument(
        "--grid", type=_parse_grid, help="comma-separated penalty values (default: built-in grid)"
    )
    p_grid.add_argument(
        "--threads",
        type=int,
        default=1,
        help="ignored: grid points run in sequence (kept so existing command lines parse)",
    )
    _add_common_flags(p_grid)
    p_grid.set_defaults(func=cmd_grid_search)

    p_cmp = sub.add_parser("compare", help="run several models, print a comparison")
    p_cmp.add_argument(
        "--models",
        type=_parse_models,
        default="drcvar-l2,drcvar-l1,scvar-l2,scvar-l1,te-l2",
        help="comma-separated model ids",
    )
    _add_common_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        # argparse passes on the InvalidInputError of a --rows, --grid or
        # --models parser, since it catches only ValueError and TypeError
        args = build_parser().parse_args(argv)
        if args.command == "gen-data":
            return cmd_gen_data(args)
        # a fitting command writes its output, then returns the lines
        # naming its fits that did not converge
        unconverged = args.func(args, *_inputs(args))
        if args.strict and unconverged:
            print("\n".join(unconverged), file=sys.stderr)
            return 4
        return 0
    except SystemExit as exc:
        # argparse exits on --help and on a usage error
        return int(exc.code) if exc.code is not None else 0
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

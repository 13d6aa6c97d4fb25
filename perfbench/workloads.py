"""The three benchmark workloads, driven through drtrack's public API and CLI.

Every workload builds its inputs from the seed with ``gen_synthetic``
and hands drtrack only the generated panels.  One seed yields
``panels`` panels; a round runs one pass on each, so one seed's market
does not set the figure on its own.  Functions are called through
their module (``spg.spg_solve``, ``cli.main``) so that the tracer's
wrappers, installed on those names, see the calls.

Solver budgets are set only through the iteration caps
(``SpgParams.max_outer_iters``, ``max_inner_per_phase``) and the CLI
config key ``baseline.max_iters``; everything else is at its default.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from drtrack import backtest, cli, data, model, spg

import checks

DEFAULTS = cli.CONFIG_DEFAULTS


# Seconds per call of the calibration kernel (see calibrate.py) at each
# workload's calibration shape on the reference machine, an Intel Xeon
# with 2 vCPUs.  They only fix the scale of run_s: a pass that took the
# same wall time while the kernel ran at this speed reads that time.
SPEED_REF_S = {
    "solve-large": 1.4e-3,
    "backtest-rolling": 9.0e-5,
    "grid-baseline": 8.5e-5,
}


def _model_params() -> model.ModelParams:
    return model.ModelParams(
        tau1=DEFAULTS["model.tau1"], tau2=DEFAULTS["model.tau2"], beta=DEFAULTS["model.beta"]
    )


def panel_seed(seed: int, k: int) -> int:
    """Seed of panel ``k`` of a run seeded with ``seed``."""
    return 1000 * seed + k


def equal_weight_tei(panel, config: backtest.BacktestConfig) -> float:
    """In-sample tracking error of holding 1/d in every asset."""
    t_bar = (panel.n_days - config.window) // config.hold
    weights = np.full((t_bar, panel.n_assets), 1.0 / panel.n_assets)
    return backtest.compute_tei(weights, panel, config)


class Outcome(NamedTuple):
    """Checked result of one pass."""

    failures: list[str]
    statuses: list[str]  # one per fit, as the solver reported it
    objective: float
    output_bytes: int


@dataclass
class SolveLarge:
    """One cold ``spg_solve`` of drcvar-l2 at Hang Seng scale (kernel-bound)."""

    name: str = "solve-large"
    assets: int = 30
    rows: int = 3500
    panels: int = 12
    caps: spg.SpgParams = field(
        default_factory=lambda: spg.SpgParams(max_outer_iters=20, max_inner_per_phase=5)
    )
    grid_threads: int = 0
    calibration_shape: tuple[int, int] = (3500, 31)
    speed_ref_s: float = SPEED_REF_S[name]

    def build(self, seed: int, work: Path) -> list:
        params = _model_params()
        inputs = []
        for k in range(self.panels):
            panel = data.gen_synthetic(self.assets, self.rows, panel_seed(seed, k))
            samples = data.build_sample_set(panel)
            moments = data.estimate_moments(panel)
            amb = model.AmbiguityParams(
                mu_hat=moments.mu_hat,
                sigma_hat=moments.sigma_hat,
                kappa1=DEFAULTS["ambiguity.kappa1"],
                kappa2=DEFAULTS["ambiguity.kappa2"],
            )
            inputs.append((spg.default_start(samples, params), samples, amb, params))
        return inputs

    def run(self, inp):
        nu0, samples, amb, params = inp
        return spg.spg_solve(nu0, samples, amb, params, self.caps)

    def collect(self, inp, result) -> Outcome:
        _, samples, amb, params = inp
        failures = checks.check_solve(result, samples, amb, params)
        return Outcome(failures, [result.status], result.objective, 0)


@dataclass
class BacktestRolling:
    """``run_backtest`` of drcvar-l2 over 12 rolling windows (overhead-bound)."""

    name: str = "backtest-rolling"
    assets: int = 8
    window: int = 500
    hold: int = 21
    windows: int = 12
    panels: int = 6
    caps: spg.SpgParams = field(
        default_factory=lambda: spg.SpgParams(max_outer_iters=20, max_inner_per_phase=5)
    )
    grid_threads: int = 0
    calibration_shape: tuple[int, int] = (500, 9)
    speed_ref_s: float = SPEED_REF_S[name]

    def config(self) -> backtest.BacktestConfig:
        return backtest.BacktestConfig(
            model_id="drcvar-l2",
            model=_model_params(),
            window=self.window,
            hold=self.hold,
            spg=self.caps,
        )

    def build(self, seed: int, work: Path) -> list:
        days = self.window + self.windows * self.hold
        config = self.config()
        return [
            (data.gen_synthetic(self.assets, days, panel_seed(seed, k)), config)
            for k in range(self.panels)
        ]

    def run(self, inp):
        panel, config = inp
        return backtest.run_backtest(panel, config)

    def collect(self, inp, report) -> Outcome:
        panel, config = inp
        failures = checks.check_backtest(report, panel, config)
        if report.t_bar != self.windows:
            failures.append(f"{report.t_bar} windows, expected {self.windows}")
        relative = report.tei / equal_weight_tei(panel, config)
        return Outcome(failures, [w.status for w in report.windows], relative, 0)


@dataclass
class GridBaseline:
    """``drtrack grid-search --model scvar-l2`` on a 2x2 tau grid, in-process."""

    name: str = "grid-baseline"
    assets: int = 8
    window: int = 250
    hold: int = 21
    windows: int = 3
    panels: int = 12
    taus: tuple[float, ...] = (0.0, 2e-4)
    max_iters: int = 500
    calibration_shape: tuple[int, int] = (250, 9)
    speed_ref_s: float = SPEED_REF_S[name]
    grid_threads: int = field(init=False)

    def __post_init__(self) -> None:
        # The CLI's own default, recorded rather than set.
        args = cli.build_parser().parse_args(
            ["grid-search", "--data", "-", "--model", "scvar-l2"]
        )
        self.grid_threads = args.threads

    def build(self, seed: int, work: Path) -> list:
        days = self.window + self.windows * self.hold
        config_path = work / "grid-config.json"
        config_path.write_text(json.dumps({"baseline.max_iters": self.max_iters}))
        config = backtest.BacktestConfig(
            model_id="scvar-l2", model=_model_params(), window=self.window, hold=self.hold
        )
        inputs = []
        for k in range(self.panels):
            panel = data.gen_synthetic(self.assets, days, panel_seed(seed, k))
            csv_path = work / f"grid-{seed}-{k}.csv"
            data.save_returns_csv(panel, csv_path)
            argv = [
                "grid-search",
                "--data", str(csv_path),
                "--model", "scvar-l2",
                "--grid", ",".join(repr(t) for t in self.taus),
                "--window", str(self.window),
                "--hold", str(self.hold),
                "--config", str(config_path),
                "--out", str(work / f"grid-{seed}-{k}.out.json"),
            ]  # fmt: skip
            inputs.append((argv, panel, config))
        return inputs

    def run(self, inp):
        argv = inp[0]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def collect(self, inp, code) -> Outcome:
        argv, panel, config = inp
        if code != 0:
            return Outcome([f"grid-search exited {code}"], [], float("nan"), 0)
        out_path = Path(argv[argv.index("--out") + 1])
        text = out_path.read_text(encoding="utf-8")
        doc = json.loads(text)
        grid = [(a, b) for a in self.taus for b in self.taus]
        failures = checks.check_grid(doc, panel, config, grid)
        statuses = [w["status"] for row in doc["rows"] for w in row["per_window"]]
        tei = sum(row["tei"] for row in doc["rows"]) / len(doc["rows"])
        relative = tei / equal_weight_tei(panel, config)
        return Outcome(failures, statuses, relative, len(text.encode("utf-8")))


WORKLOADS = {w.name: w for w in (SolveLarge, BacktestRolling, GridBaseline)}

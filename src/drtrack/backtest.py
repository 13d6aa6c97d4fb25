"""Rolling-window backtest, evaluation metrics, and penalty grid search.

The protocol fits a portfolio on a trailing window of daily returns,
holds it for a fixed number of days, rolls forward by the hold length,
and repeats while a full window plus hold period remains.  In-sample
tracking error is measured on the fitting windows with daily returns;
out-of-sample error, variance, Sharpe ratio, and turnover are measured
on the hold periods with compounded gross returns.  Every fit, by
:func:`solve_model`, is a :class:`~drtrack.model.ModelFit`, and each
window's :class:`WindowResult` extends it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .baselines import BaselineParams, scvar_solve, te_l2_solve
from .data import ReturnPanel, build_sample_set, estimate_moments
from .errors import DrTrackError, InvalidInputError
from .model import (
    _SPG_COUNTERS,
    STATUS_CONVERGED,
    STATUS_ITERATION_CAP,
    STATUS_STALLED,
    AmbiguityParams,
    ModelFit,
    ModelParams,
    PsiKind,
    _check_budget,
    _checked_radii,
    _readonly,
)
from .spg import SpgParams, default_start, spg_solve

__all__ = [
    "MODEL_IDS",
    "TAU_GRID",
    "BacktestConfig",
    "ModelFit",
    "WindowResult",
    "BacktestReport",
    "Performance",
    "GridEntry",
    "GridSearchResult",
    "transition_weights",
    "hold_gross_returns",
    "compute_tei",
    "compute_teo",
    "compute_performance",
    "solve_model",
    "run_backtest",
    "grid_search",
    "report_to_dict",
]

MODEL_IDS = ("drcvar-l2", "drcvar-l1", "scvar-l2", "scvar-l1", "te-l2")

# Penalty grid swept by default: each of tau1, tau2 ranges over these
# values, written as literals so the enumeration is exact.
TAU_GRID = (0.0, 2e-4, 4e-4, 6e-4, 8e-4, 1e-3)

@dataclass(frozen=True)
class BacktestConfig:
    """Protocol geometry plus the solver configuration for one model.

    Construction sets ``model.psi`` from the id (absolute for ``*-l1``).
    """

    model_id: str
    model: ModelParams
    window: int = 3500
    hold: int = 21
    kappa1: float = 0.1
    kappa2: float = 1.0
    spg: SpgParams = SpgParams()
    baseline: BaselineParams = BaselineParams()

    def __post_init__(self) -> None:
        if self.model_id not in MODEL_IDS:
            raise InvalidInputError(
                f"model_id must be one of {MODEL_IDS}, got {self.model_id!r}"
            )
        _check_budget(self.window, "window", 2)
        _check_budget(self.hold, "hold")
        _checked_radii(self.kappa1, self.kappa2)
        psi = PsiKind.ABSOLUTE if self.model_id.endswith("-l1") else PsiKind.SQUARED
        object.__setattr__(self, "model", replace(self.model, psi=psi))


@dataclass(frozen=True, eq=False)
class WindowResult(ModelFit):
    """The fit of rolling window ``t`` (1-based) and its portfolio's
    gross return over the window's hold period."""

    t: int
    portfolio_gross_return: float


@dataclass(frozen=True, eq=False)
class BacktestReport:
    """Aggregate metrics of one backtest run.

    ``sigma2``, ``sharpe`` and ``turnover`` are None when undefined
    (fewer than two windows, or zero return variance for the Sharpe
    ratio).  ``cpu_seconds`` is the sum of the windows' ``solve_seconds``,
    each wall time from ``time.perf_counter``, not processor time.  Windows
    fitted in worker processes time themselves there, so
    ``cpu_seconds`` can exceed the run's wall time.
    """

    model_id: str
    t_bar: int
    tei: float
    teo: float
    sigma2: float | None
    sharpe: float | None
    turnover: float | None
    cpu_seconds: float
    windows: tuple[WindowResult, ...]

    @property
    def status_counts(self) -> dict[str, int]:
        """Windows per solver status; the solver's three statuses always appear."""
        counts = dict.fromkeys((STATUS_CONVERGED, STATUS_ITERATION_CAP, STATUS_STALLED), 0)
        for w in self.windows:
            counts[w.status] = counts.get(w.status, 0) + 1
        return counts


class Performance(NamedTuple):
    sigma2: float | None
    sharpe: float | None
    turnover: float | None


def transition_weights(x_t, gross_returns) -> np.ndarray:
    """Weights after passively holding through one period's gross returns.

    Each weight drifts with its asset's gross return and the vector is
    renormalised by the realised portfolio gross return, so the output
    sums to one by construction.
    """
    x = _readonly(x_t, "weights", (None,))
    gross = _readonly(gross_returns, "gross returns", x.shape)
    if gross.min() <= 0.0:
        raise InvalidInputError("gross returns must be positive")
    total = float(gross @ x)
    if total <= 0.0:
        raise InvalidInputError(f"portfolio gross return {total} is not positive")
    return x * gross / total


def hold_gross_returns(
    panel: ReturnPanel, config: BacktestConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Compounded gross returns of every hold period.

    Returns ``(index_gross, asset_gross)`` of shapes (t_bar,) and
    (t_bar, d): products of (1 + daily return) over each hold window.
    """
    end = config.window + _validated_t_bar(panel, config) * config.hold
    periods = [slice(s, s + config.hold) for s in range(config.window, end, config.hold)]
    index_gross = np.array([np.prod(1.0 + panel.index_returns[p], axis=0) for p in periods])
    asset_gross = np.array([np.prod(1.0 + panel.asset_returns[p], axis=0) for p in periods])
    return index_gross, asset_gross


def _validated_t_bar(panel: ReturnPanel, config: BacktestConfig) -> int:
    if config.window + config.hold > panel.n_days:
        raise InvalidInputError(
            f"window {config.window} plus hold {config.hold} exceeds "
            f"panel length {panel.n_days}"
        )
    return (panel.n_days - config.window) // config.hold


def compute_tei(weights, panel: ReturnPanel, config: BacktestConfig) -> float:
    """In-sample tracking error: per-window mean squared daily deviation.

    For each window, the squared difference between the index return
    and the fitted portfolio return is averaged over the window's
    days; those window means are then averaged over all windows.
    """
    t_bar = _validated_t_bar(panel, config)
    mat = _readonly(weights, "weights", (t_bar, panel.n_assets))
    total = 0.0
    for t in range(t_bar):
        start = t * config.hold
        stop = start + config.window
        deviation = (
            panel.index_returns[start:stop]
            - panel.asset_returns[start:stop] @ mat[t]
        )
        total += float(np.mean(np.square(deviation)))
    return total / t_bar


def compute_teo(weights, index_gross, asset_gross) -> float:
    """Out-of-sample tracking error over hold-period gross returns."""
    index_gross = _readonly(index_gross, "index gross returns", (None,))
    asset_gross = _readonly(asset_gross, "asset gross returns", (None, None))
    t_bar = index_gross.shape[0]
    if t_bar < 1 or asset_gross.shape[0] != t_bar:
        raise InvalidInputError("need matching, non-empty hold-period returns")
    mat = _readonly(weights, "weights", (t_bar, asset_gross.shape[1]))
    deviation = index_gross - np.sum(asset_gross * mat, axis=1)
    return float(np.mean(np.square(deviation)))


def compute_performance(weights, asset_gross) -> Performance:
    """Variance, Sharpe ratio, and turnover of the hold-period returns.

    With fewer than two windows every statistic is undefined and
    reported as None; a zero standard deviation leaves only the Sharpe
    ratio undefined.  Turnover compares each window's weights with the
    previous window's passively drifted weights.
    """
    asset_gross = _readonly(asset_gross, "asset gross returns", (None, None))
    t_bar = asset_gross.shape[0]
    mat = _readonly(weights, "weights", (t_bar, asset_gross.shape[1]))
    if t_bar < 2:
        return Performance(None, None, None)
    portfolio = np.sum(asset_gross * mat, axis=1)
    mean = float(portfolio.mean())
    sigma2 = float(np.square(portfolio - mean).sum() / (t_bar - 1))
    sharpe = mean / np.sqrt(sigma2) if sigma2 > 0.0 else None
    drift = 0.0
    for t in range(t_bar - 1):
        x_plus = transition_weights(mat[t], asset_gross[t])
        drift += float(np.abs(mat[t + 1] - x_plus).sum())
    turnover = drift / (t_bar - 1)
    return Performance(sigma2, sharpe, turnover)


def solve_model(
    panel: ReturnPanel,
    start: int,
    stop: int,
    config: BacktestConfig,
    record_trace: bool = False,
    x0=None,
) -> ModelFit:
    """Fit the model ``config.model_id`` names on panel rows ``[start, stop)``.

    ``scvar-*`` runs :func:`scvar_solve` from ``x0`` (uniform weights if
    None) and ``te-l2`` :func:`te_l2_solve`, which records no trace, and
    their records are returned as they are; ``drcvar-*`` runs
    :func:`spg_solve` from :func:`default_start`, whose result fills the
    record.  Only ``scvar-*`` takes an ``x0``.  Every fit's ``solve_seconds``
    is then reset to run from building the samples to the solver's end.
    """
    model = config.model
    if x0 is not None and not config.model_id.startswith("scvar"):
        raise InvalidInputError(f"{config.model_id} takes no x0")
    begin = time.perf_counter()
    samples = build_sample_set(panel, start, stop)
    if config.model_id.startswith("scvar"):
        fit = scvar_solve(samples, model, config.baseline, record_trace, x0=x0)
    elif config.model_id == "te-l2":
        fit = te_l2_solve(samples, model.tau1)
    else:
        moments = estimate_moments(panel, start, stop)
        amb = AmbiguityParams(
            mu_hat=moments.mu_hat,
            sigma_hat=moments.sigma_hat,
            kappa1=config.kappa1,
            kappa2=config.kappa2,
        )
        result = spg_solve(
            default_start(samples, model), samples, amb, model, config.spg, record_trace
        )
        fit = ModelFit(
            weights=result.nu.x, status=result.status, objective=result.objective,
            alpha=result.nu.alpha, lower_bound=None, gap=None, iters=result.inner_iters,
            counters={name: getattr(result, name) for name in _SPG_COUNTERS},
            solve_seconds=0.0, trace=result.trace,
        )
    return replace(fit, solve_seconds=time.perf_counter() - begin)


# Panel and config of the backtest whose windows this worker process
# fits; set by the pool initializer, so inherited by fork, not pickled.
_worker_job: tuple[ReturnPanel, BacktestConfig] | None = None


def _fit_window(t: int, panel: ReturnPanel, config: BacktestConfig, x0=None) -> ModelFit:
    """The fit of window ``t`` (1-based)."""
    start = (t - 1) * config.hold
    try:
        return solve_model(panel, start, start + config.window, config, x0=x0)
    except DrTrackError as exc:
        raise type(exc)(f"window {t}: {exc}") from exc


def _init_worker(panel: ReturnPanel, config: BacktestConfig) -> None:
    global _worker_job
    _worker_job = (panel, config)


def _fit_window_in_worker(t: int) -> ModelFit:
    return _fit_window(t, *_worker_job)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where there is one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pool_workers(config: BacktestConfig, t_bar: int) -> int:
    """Worker processes for the windows of one backtest; 0 fits them here.

    Only cold ``drcvar-*`` windows go to workers: ``scvar-*`` windows
    start from their predecessor, and a ``te-l2`` fit takes less time
    than starting a pool.  Workers are forked, and a daemonic process
    may not have children.
    """
    if not config.model_id.startswith("drcvar"):
        return 0
    workers = min(_usable_cpus(), t_bar)
    if workers < 2:
        return 0
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 0
    if multiprocessing.current_process().daemon:
        return 0
    return workers


def _fit_windows(panel: ReturnPanel, config: BacktestConfig, t_bar: int) -> list[ModelFit]:
    """Every window's fit, in window order."""
    workers = _pool_workers(config, t_bar)
    if workers:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=(panel, config),
        )
        try:
            # map yields in window order, so the lowest failing window raises
            return list(pool.map(_fit_window_in_worker, range(1, t_bar + 1)))
        finally:
            pool.shutdown(cancel_futures=True)
    warm = config.model_id.startswith("scvar")
    fits: list[ModelFit] = []
    for t in range(1, t_bar + 1):
        x0 = fits[-1].weights if warm and fits else None
        fits.append(_fit_window(t, panel, config, x0))
    return fits


def run_backtest(panel: ReturnPanel, config: BacktestConfig) -> BacktestReport:
    """Roll the fitting window across the panel and score the results.

    Fitting touches only the current window's rows; every metric over
    the hold periods uses rows strictly after the fitted window.  Each
    ``scvar-*`` window after the first starts from the previous window's
    weights; the other models, and the first window, start cold.  The
    cold ``drcvar-*`` windows are fitted in forked worker processes, one
    per usable CPU up to ``t_bar``, when there are at least two.  Each
    window's hold period is priced here, from :func:`hold_gross_returns`.
    """
    index_gross, asset_gross = hold_gross_returns(panel, config)
    fits = _fit_windows(panel, config, len(index_gross))
    windows = tuple(
        WindowResult(**vars(fit), t=t, portfolio_gross_return=float(gross @ fit.weights))
        for t, (fit, gross) in enumerate(zip(fits, asset_gross), start=1)
    )
    mat = np.vstack([w.weights for w in windows])
    tei = compute_tei(mat, panel, config)
    teo = compute_teo(mat, index_gross, asset_gross)
    perf = compute_performance(mat, asset_gross)
    return BacktestReport(
        model_id=config.model_id,
        t_bar=len(windows),
        tei=tei,
        teo=teo,
        sigma2=perf.sigma2,
        sharpe=perf.sharpe,
        turnover=perf.turnover,
        cpu_seconds=sum(w.solve_seconds for w in windows),
        windows=windows,
    )


@dataclass(frozen=True)
class GridEntry:
    """One grid point: its configuration and its backtest report."""

    config: BacktestConfig
    report: BacktestReport

    @property
    def tau1(self) -> float:
        return self.config.model.tau1

    @property
    def tau2(self) -> float:
        return self.config.model.tau2


@dataclass(frozen=True)
class GridSearchResult:
    """All grid reports plus the row with the lowest out-of-sample error."""

    rows: tuple[GridEntry, ...]
    best: GridEntry


def grid_search(
    panel: ReturnPanel,
    config: BacktestConfig,
    grid=None,
) -> GridSearchResult:
    """Backtest every ``(tau1, tau2)`` pair and pick the lowest TEO.

    ``grid`` defaults to the full cartesian square of :data:`TAU_GRID`.
    Ties are broken toward the lexicographically smaller pair.
    """
    if grid is None:
        grid = [(a, b) for a in TAU_GRID for b in TAU_GRID]
    grid = [(float(a), float(b)) for a, b in grid]
    if not grid:
        raise InvalidInputError("grid must not be empty")
    configs = [replace(config, model=replace(config.model, tau1=a, tau2=b)) for a, b in grid]
    rows = [GridEntry(config=c, report=run_backtest(panel, c)) for c in configs]
    best = min(rows, key=lambda row: (row.report.teo, row.tau1, row.tau2))
    return GridSearchResult(rows=tuple(rows), best=best)


def report_to_dict(report: BacktestReport, config: BacktestConfig) -> dict:
    """JSON-ready document for one backtest report.

    Each window's entry is its :meth:`WindowResult.to_dict`.  Undefined
    metrics serialise as null.
    """
    return {
        "model": report.model_id,
        "tau1": config.model.tau1,
        "tau2": config.model.tau2,
        "window": config.window,
        "hold": config.hold,
        "t_bar": report.t_bar,
        "tei": report.tei,
        "teo": report.teo,
        "sigma2": report.sigma2,
        "sharpe": report.sharpe,
        "turnover": report.turnover,
        "cpu_seconds": report.cpu_seconds,
        "status_counts": report.status_counts,
        "per_window": [w.to_dict() for w in report.windows],
    }

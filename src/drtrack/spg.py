"""Smoothing projected gradient solver for the dual tracking problem.

The solver minimises the smoothed dual objective over the product
feasible set, shrinking the smoothing level geometrically between
inner descent phases.  Each phase runs projected gradient steps with
Armijo backtracking until the scaled displacement falls under a
threshold tied to the current smoothing level; the overall run stops
once the projected-gradient residual and the smoothing level are both
small, or when iteration budgets are exhausted.  The first step of a
phase tries ``alpha0`` first; every later step first tries the
Barzilai-Borwein (spectral) step of the previous one, clipped to the
line search's range, and backtracks monotonically from there.

:func:`spg_solve` validates and projects the start point once on
entry and builds one :class:`DualPoint` on exit.  In between it works
on one flat vector ``(x | alpha | q | vec(lam))``; the gradient at an
accepted trial reuses the smoothed components that trial computed, and
a new smoothing level re-runs only the kernel's O(N) stage on that
trial's mu-free parts.  A
non-finite smoothed gradient, or a line search that fails on a
non-finite trial value, raises :class:`NumericalError`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError
from .model import (
    AmbiguityParams,
    DualPoint,
    ModelParams,
    SampleSet,
    _check_sample_dim,
    evaluate_phi_n,
    var_threshold,
)
from .projections import _project_flat
from .smoothing import _at_level, _gradient, _smooth, _Smoothed

# perfbench/layers.py wraps these names on this module to trace the
# calls made through it; the solver itself runs on the flat kernels.
from .projections import project_feasible  # noqa: F401
from .smoothing import grad_smooth_phi, smooth_phi  # noqa: F401

__all__ = [
    "SpgParams",
    "SolveResult",
    "STATUS_CONVERGED",
    "STATUS_ITERATION_CAP",
    "STATUS_STALLED",
    "default_start",
    "spg_solve",
]

STATUS_CONVERGED = "converged"
STATUS_ITERATION_CAP = "iteration-cap"
STATUS_STALLED = "stalled"

# Hard floor keeping the smoothing level representable; reached only if
# the stopping test somehow never fires within the iteration budget.
_MU_MIN = 1e-300

# Consecutive stalled inner phases tolerated before giving up.
_MAX_CONSECUTIVE_STALLS = 3


@dataclass(frozen=True)
class SpgParams:
    """Tuning constants of the smoothing projected gradient method.

    ``alpha0``, ``sigma``, ``rho`` control the Armijo backtracking
    line search.  ``alpha0`` is the first trial step of each phase's
    first step; later steps start from the Barzilai-Borwein step,
    clipped to ``[alpha0 * rho**max_backtracks, alpha0]``.  ``mu0`` and
    ``omega`` set the initial smoothing level and its shrink factor;
    ``eta`` and ``n0`` the inner-phase exit test
    (leave after at least ``n0`` steps once the displacement per unit
    stepsize drops under ``eta`` times the smoothing level).
    ``epsilon`` bounds the projected-gradient residual and ``mu_stop``
    the smoothing level in the joint stopping test.
    ``max_inner_per_phase`` bounds one phase's descent steps; at tiny
    smoothing levels ill-conditioned instances can otherwise keep a
    phase busy indefinitely before its displacement exit fires.
    """

    alpha0: float = 1.0
    sigma: float = 1e-6
    rho: float = 0.5
    mu0: float = 1.0
    eta: float = 1e3
    omega: float = 0.5
    epsilon: float = 1e-4
    n0: int = 5
    mu_stop: float = 2e-6
    max_outer_iters: int = 3000
    max_backtracks: int = 60
    max_inner_per_phase: int = 10_000

    def __post_init__(self) -> None:
        checks = [
            (self.alpha0 > 0, "alpha0 must be positive"),
            (0.0 < self.sigma < 1.0, "sigma must lie in (0, 1)"),
            (0.0 < self.rho < 1.0, "rho must lie in (0, 1)"),
            (self.mu0 > 0, "mu0 must be positive"),
            (self.eta > 0, "eta must be positive"),
            (0.0 < self.omega < 1.0, "omega must lie in (0, 1)"),
            (self.epsilon > 0, "epsilon must be positive"),
            (self.n0 >= 1, "n0 must be at least 1"),
            (self.mu_stop > 0, "mu_stop must be positive"),
            (self.max_outer_iters >= 1, "max_outer_iters must be at least 1"),
            (self.max_backtracks >= 1, "max_backtracks must be at least 1"),
            (
                self.max_inner_per_phase >= 1,
                "max_inner_per_phase must be at least 1",
            ),
        ]
        for ok, message in checks:
            if not ok:
                raise InvalidInputError(message)


@dataclass(frozen=True)
class SolveResult:
    """Terminal state and accounting of one solver run.

    ``objective`` is the exact (unsmoothed) dual objective at ``nu``;
    ``smooth_objective`` and ``residual`` are taken at the final
    smoothing level ``mu_final``.  ``trials`` counts the smoothed
    evaluations spent inside line searches, at least one per accepted
    inner step.  ``trace`` holds one
    ``(cpu_seconds, smoothed objective)`` pair per accepted inner step,
    ``cpu_seconds`` being the wall time since the solve started
    (``time.perf_counter``), not processor time, and
    ``phase_objectives`` the smoothed-objective sequence of every
    inner phase; both are None unless tracing was requested.
    """

    nu: DualPoint
    objective: float
    smooth_objective: float
    residual: float
    mu_final: float
    outer_iters: int
    inner_iters: int
    grad_evals: int
    trials: int
    wall_seconds: float
    status: str
    trace: tuple[tuple[float, float], ...] | None = None
    phase_objectives: tuple[tuple[float, ...], ...] | None = None


def default_start(samples: SampleSet, model: ModelParams) -> DualPoint:
    """Feasible starting point: uniform weights, loss quantile threshold.

    ``alpha`` starts at the value-at-risk of the uniform portfolio so
    the CVaR plus-parts begin on their kink; both multipliers start at
    zero.
    """
    d = samples.n_assets
    x = np.full(d, 1.0 / d)
    alpha = var_threshold(x, samples, model.beta)
    return DualPoint(
        x=x, alpha=alpha, q=np.zeros(d + 1), lam=np.zeros((d + 1, d + 1))
    )


def _residual(y: np.ndarray, g: np.ndarray, d: int) -> float:
    """Norm of the unit-step projected-gradient displacement at flat ``y``."""
    return float(np.linalg.norm(_project_flat(y - g, d)[0] - y))


def _not_finite(what: str, mu: float, k: int) -> NumericalError:
    return NumericalError(
        f"smoothed {what} is not finite at mu={mu:.3g} in outer iteration {k}"
    )


def _spectral_step(s: np.ndarray, r: np.ndarray, spg: SpgParams) -> float:
    """Barzilai-Borwein first trial ``s's / s'r``, kept within the line search's range.

    ``s`` and ``r`` are the last step's changes of the point and of the
    gradient at one smoothing level.  The step is clipped to
    ``[alpha0 * rho**max_backtracks, alpha0]``; without positive
    curvature along ``s`` (``s'r <= 0``) it is ``alpha0``.
    """
    sr = float(s @ r)
    if sr <= 0.0:
        return spg.alpha0
    floor = spg.alpha0 * spg.rho**spg.max_backtracks
    return min(max(float(s @ s) / sr, floor), spg.alpha0)


def _armijo_flat(
    y: np.ndarray, fy: float, g: np.ndarray, stepsize: float, d: int, mu: float,
    samples, amb, model, spg, k: int,
) -> tuple[np.ndarray, _Smoothed | None, float, int]:
    """Flat Armijo step from first trial ``stepsize``: ``(point, smoothed, stepsize, backtracks)``.

    ``smoothed`` is the kernel result at the accepted point, or None
    after a stall, when the point is ``y`` and ``backtracks`` counts all
    ``max_backtracks + 1`` failed trials.  A stall on a non-finite last
    trial value raises :class:`NumericalError` naming outer iteration ``k``.
    """
    for backtracks in range(spg.max_backtracks + 1):
        cand, factor = _project_flat(y - stepsize * g, d)
        at = _smooth(cand, factor, d, samples, mu, amb, model)
        if at.value <= fy + spg.sigma * float(g @ (cand - y)):
            return cand, at, stepsize, backtracks
        stepsize *= spg.rho
    if not math.isfinite(at.value):
        raise _not_finite("objective", mu, k)
    return y, None, stepsize, spg.max_backtracks + 1


def spg_solve(
    nu0: DualPoint,
    samples: SampleSet,
    amb: AmbiguityParams,
    model: ModelParams,
    spg: SpgParams = SpgParams(),
    record_trace: bool = False,
) -> SolveResult:
    """Minimise the dual objective by smoothing projected gradient.

    Starting from the projection of ``nu0``, alternates inner Armijo
    descent phases on the smoothed objective with geometric reduction
    of the smoothing level.  A phase is skipped when the residual is
    already below ``epsilon``; the run converges once residual and
    smoothing level are jointly small, stalls after three consecutive
    phases whose line search failed, and otherwise stops at the outer
    iteration cap.  Raises :class:`NumericalError` on a non-finite
    smoothed gradient or failed line search.
    """
    d = nu0.dim
    if samples.n_assets != d:
        raise InvalidInputError(
            f"start point has {d} assets, samples have {samples.n_assets}"
        )
    _check_sample_dim(amb.dim, d, "ambiguity parameters")
    start_time = time.perf_counter()
    y, factor = _project_flat(nu0.to_array(), d)
    mu_k = spg.mu0
    grad_evals = 0
    inner_total = 0
    trials = 0
    outer_done = 0
    consecutive_stalls = 0
    status = STATUS_ITERATION_CAP
    trace: list[tuple[float, float]] | None = [] if record_trace else None
    phases: list[tuple[float, ...]] | None = [] if record_trace else None

    def _trace_point(value: float) -> None:
        if trace is not None:
            trace.append((time.perf_counter() - start_time, value))

    def gradient(point: np.ndarray, at: _Smoothed, k: int) -> np.ndarray:
        nonlocal grad_evals
        grad_evals += 1
        g = _gradient(point, d, at, samples, mu_k, amb, model)
        if not np.isfinite(g).all():
            raise _not_finite("gradient", mu_k, k)
        return g

    # ``at`` always holds the kernel result at ``y``; a new smoothing
    # level re-runs only its O(N) stage on the stored mu-free parts.
    at = _smooth(y, factor, d, samples, mu_k, amb, model)
    _trace_point(at.value)
    for k in range(spg.max_outer_iters):
        g = gradient(y, at, k)
        residual = _residual(y, g, d)
        if residual <= spg.epsilon and mu_k <= spg.mu_stop:
            status = STATUS_CONVERGED
            outer_done = k
            break
        stalled = False
        if residual >= spg.epsilon:
            fy = at.value
            phase_log = [fy]
            first = spg.alpha0  # the gradient changed with mu; no earlier step carries over
            for j in range(1, spg.max_inner_per_phase + 1):
                if j > 1:
                    g_prev, g = g, gradient(y, at, k)
                    first = _spectral_step(step, g - g_prev, spg)
                y_next, trial, stepsize, backtracks = _armijo_flat(
                    y, fy, g, first, d, mu_k, samples, amb, model, spg, k
                )
                if trial is None:
                    trials += backtracks
                    stalled = True
                    break
                trials += backtracks + 1
                step = y_next - y
                displacement = float(np.linalg.norm(step))
                y, at, fy = y_next, trial, trial.value
                phase_log.append(fy)
                inner_total += 1
                _trace_point(fy)
                if j >= spg.n0 and displacement / stepsize < spg.eta * mu_k:
                    break
            if phases is not None:
                phases.append(tuple(phase_log))
        consecutive_stalls = consecutive_stalls + 1 if stalled else 0
        if consecutive_stalls >= _MAX_CONSECUTIVE_STALLS:
            status = STATUS_STALLED
            outer_done = k + 1
            break
        mu_k = max(spg.omega * mu_k, _MU_MIN)
        at = _at_level(at.parts, mu_k, amb, model)
        outer_done = k + 1

    if status != STATUS_CONVERGED:
        residual = _residual(y, gradient(y, at, outer_done), d)
    nu = DualPoint.from_array(y, d)
    objective, _ = evaluate_phi_n(nu, samples, amb, model)
    return SolveResult(
        nu=nu,
        objective=objective,
        smooth_objective=at.value,
        residual=residual,
        mu_final=mu_k,
        outer_iters=outer_done,
        inner_iters=inner_total,
        grad_evals=grad_evals,
        trials=trials,
        wall_seconds=time.perf_counter() - start_time,
        status=status,
        trace=tuple(trace) if trace is not None else None,
        phase_objectives=tuple(phases) if phases is not None else None,
    )

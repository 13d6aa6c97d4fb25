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
line search's range.  From that first step ``t0`` the line search looks
for an exponent ``j`` on the grid ``t0 * rho**j``, ``j = 0..60``: after
each failure it jumps ahead to the exponent a quadratic model guesses,
rather than halving one trial at a time, then steps back from the first
pass, and accepts a step that passes the Armijo test while the next
larger grid step fails.

:func:`spg_solve` validates and projects the start point once on
entry and builds one :class:`DualPoint` on exit.  In between it works
on one flat vector ``(x | alpha | q | vec(lam))``, and every trial and
gradient runs on one kernel state built on entry
(:func:`drtrack.smoothing._kernel`): the one contiguous transposed
copy of the samples, one scratch buffer and the moment matrix.  The
gradient at an accepted trial reuses the smoothed components that
trial computed, and a new smoothing level re-runs only the kernel's
O(N) stage on that trial's mu-free parts.  Each outer iteration
projects ``y - g`` once, for the residual; when a phase's first trial step is exactly 1, that
projection is its first trial.  A non-finite smoothed gradient, or a
line search that fails on a non-finite trial value, raises
:class:`NumericalError`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError
from .model import (
    STATUS_CONVERGED,
    STATUS_ITERATION_CAP,
    STATUS_STALLED,
    AmbiguityParams,
    DualPoint,
    ModelParams,
    PsiKind,
    SampleSet,
    _check_budget,
    _check_sample_dim,
    _finite_float,
    evaluate_phi_n,
    var_threshold,
)
from .projections import _project_flat
from .smoothing import _at_level, _gradient, _kernel, _Kernel, _smooth, _Smoothed

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

# Hard floor keeping the smoothing level representable; a run that neither
# stops nor stalls for about 1,000 outer iterations reaches it.
_MU_MIN = 1e-300

# Consecutive stalled inner phases tolerated before giving up.
_MAX_CONSECUTIVE_STALLS = 3

# The method's fixed constants, after the paper's symbols: the Armijo
# test's sigma and grid factor rho (trial steps t0 * rho**j, j <= 60),
# the initial smoothing level mu0 and its shrink factor omega, the phase
# exit (at least n0 steps, then displacement per unit step under eta * mu)
# and the stopping test (residual <= epsilon and mu <= mu_stop).
_SIGMA = 1e-6
_RHO = 0.5
_MU0 = 1.0
_ETA = 1e3
_OMEGA = 0.5
_EPSILON = 1e-4
_N0 = 5
_MU_STOP = 2e-6
_MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class SpgParams:
    """First trial step and iteration budgets of the SPG method.

    ``alpha0`` is the first trial step of each phase's first step;
    later steps start from the Barzilai-Borwein step, clipped to
    ``[alpha0 * 0.5**60, alpha0]``.  ``max_outer_iters`` bounds the
    smoothing levels tried; ``max_inner_per_phase`` bounds one phase's
    descent steps, since at tiny smoothing levels ill-conditioned
    instances can otherwise keep a phase busy indefinitely before its
    displacement exit fires.
    """

    alpha0: float = 1.0
    max_outer_iters: int = 3000
    max_inner_per_phase: int = 10_000

    def __post_init__(self) -> None:
        if _finite_float(self.alpha0, "alpha0") <= 0:
            raise InvalidInputError("alpha0 must be positive")
        _check_budget(self.max_outer_iters, "max_outer_iters")
        _check_budget(self.max_inner_per_phase, "max_inner_per_phase")


@dataclass(frozen=True)
class SolveResult:
    """Terminal state and accounting of one solver run.

    ``objective`` is the exact (unsmoothed) dual objective at ``nu``;
    ``smooth_objective`` and ``residual`` are taken at the final
    smoothing level ``mu_final``.  ``trials`` counts the smoothed
    evaluations spent inside line searches, at least one per accepted
    inner step.  ``trace`` and ``phase_objectives`` are two views of one
    log of ``(cpu_seconds, smoothed objective)`` pairs, kept only when
    tracing was requested (else both are None); ``cpu_seconds`` is wall
    time since the solve started (``time.perf_counter``, not processor
    time).  ``trace`` is the start's pair and one per accepted inner
    step; ``phase_objectives`` is each inner phase's entry objective
    followed by those of its accepted steps.
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
    status: str
    trace: tuple[tuple[float, float], ...] | None = None
    phase_objectives: tuple[tuple[float, ...], ...] | None = None


def default_start(samples: SampleSet, model: ModelParams) -> DualPoint:
    """Feasible starting point: uniform weights, loss quantile threshold.

    ``alpha`` starts at the value-at-risk of the uniform portfolio so
    the CVaR plus-parts begin on their kink, and ``q`` starts at zero.
    For squared psi ``lam`` starts at ``w w'`` with ``w = (-x, 1)``:
    the sup over xi of ``(w'xi)^2 - xi' lam xi`` is finite only when
    ``lam >= w w'``, and at this start the squared deviation and the
    quadratic multiplier term cancel sample by sample.  For absolute
    psi, which grows only linearly in xi, ``lam`` starts at zero.
    """
    d = samples.n_assets
    x = np.full(d, 1.0 / d)
    alpha = var_threshold(x, samples, model.beta)
    if model.psi is PsiKind.SQUARED:
        w = np.append(-x, 1.0)
        lam = np.outer(w, w)
    else:
        lam = np.zeros((d + 1, d + 1))
    return DualPoint(x=x, alpha=alpha, q=np.zeros(d + 1), lam=lam)


def _unit_step(y: np.ndarray, g: np.ndarray, d: int) -> tuple[tuple, float]:
    """The projected unit step ``(P(y - g), factor)`` and the residual ``||P(y - g) - y||``."""
    projected = _project_flat(y - g, d)
    step = projected[0] - y
    return projected, math.sqrt(step @ step)


def _not_finite(what: str, mu: float, k: int) -> NumericalError:
    return NumericalError(
        f"smoothed {what} is not finite at mu={mu:.3g} in outer iteration {k}"
    )


def _spectral_step(s: np.ndarray, r: np.ndarray, alpha0: float) -> float:
    """Barzilai-Borwein first trial ``s's / s'r``, kept within the line search's range.

    ``s`` and ``r`` are the last step's changes of the point and of the
    gradient at one smoothing level.  The step is clipped to
    ``[alpha0 * rho**max_backtracks, alpha0]``; without positive
    curvature along ``s`` (``s'r <= 0``) it is ``alpha0``.
    """
    sr = float(s @ r)
    if sr <= 0.0:
        return alpha0
    floor = alpha0 * _RHO**_MAX_BACKTRACKS
    return min(max(float(s @ s) / sr, floor), alpha0)


def _search_exponent(passes, guess) -> int | None:
    """The accepted exponent ``j`` in ``0..max_backtracks``, or None if every trial failed.

    ``passes(j)`` runs trial ``j``; ``guess(j)``, asked after trial ``j``
    failed before any pass, proposes a real exponent.  From ``j = 0``,
    while trials fail, the next is ``floor(guess)``, at least one past
    the last failure (exactly that for a non-finite guess) and at most
    ``max_backtracks``, whose failure ends the search.  From the first
    pass the search steps back one exponent at a time while the trial
    below passes and is not the last failure.  No ``j`` runs twice.  The
    returned ``j`` passes and ``j - 1`` failed, or ``j = 0``: under
    acceptance monotone in ``j``, the ``j`` a scan from 0 finds.
    """
    lo, j = -1, 0
    while not passes(j):
        if j == _MAX_BACKTRACKS:
            return None
        lo, e = j, guess(j)
        j = lo + 1 if not math.isfinite(e) else min(max(lo + 1, math.floor(e)), _MAX_BACKTRACKS)
    while j - 1 > lo and passes(j - 1):
        j -= 1
    return j


def _armijo_flat(
    y: np.ndarray, fy: float, g: np.ndarray, stepsize: float, mu: float, kern: _Kernel,
    k: int, projected: tuple | None,
) -> tuple[np.ndarray, _Smoothed | None, float | None, int]:
    """Flat Armijo step on the grid ``stepsize * rho**j``: ``(point, smoothed, step, trials)``.

    The exponent ``j`` comes from :func:`_search_exponent`.  After a
    failed trial the guess is the minimiser of the quadratic through
    ``f(y)``, the path slope ``g'(cand - y)`` and the trial value.  The
    accepted step passes the Armijo test and the one before it on the
    grid failed, unless it is the first.  ``projected``, when given, is the
    projection ``(point, factor)`` of ``y - stepsize * g``, which the
    caller already holds; it is trial 0.  ``smoothed`` is the kernel
    result at the accepted point, or None after a stall, when the point
    is ``y`` and ``step`` is None; ``trials`` counts the smoothed
    evaluations made.  A stall on a non-finite value at the last
    exponent raises :class:`NumericalError` naming outer iteration ``k``.
    """
    log_rho = math.log(_RHO)
    tried = {}  # j -> (value, path slope), for this step's trials only
    accepted = None

    def passes(j: int) -> bool:
        nonlocal accepted
        if j == 0 and projected is not None:
            cand, factor = projected
        else:
            cand, factor = _project_flat(y - (stepsize * _RHO**j) * g, kern.d)
        at = _smooth(cand, factor, mu, kern)
        slope = float(g @ (cand - y))
        tried[j] = at.value, slope
        if at.value <= fy + _SIGMA * slope:
            accepted = cand, at
            return True
        return False

    def guess(j: int) -> float:
        value, slope = tried[j]
        curvature = value - fy - slope
        if not (math.isfinite(curvature) and curvature > 0.0):
            return math.nan
        ratio = -slope / (2.0 * curvature) * _RHO**j  # t_q / stepsize
        return math.log(ratio) / log_rho if ratio > 0.0 else math.nan

    j = _search_exponent(passes, guess)
    if j is None:
        if not math.isfinite(tried[_MAX_BACKTRACKS][0]):
            raise _not_finite("objective", mu, k)
        return y, None, None, len(tried)
    cand, at = accepted
    return cand, at, stepsize * _RHO**j, len(tried)


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
    phases whose line search failed or whose first step left the point
    unchanged, and otherwise stops at the outer iteration cap.  Raises
    :class:`NumericalError` on a non-finite smoothed gradient or failed
    line search.
    """
    d = nu0.dim
    if samples.n_assets != d:
        raise InvalidInputError(
            f"start point has {d} assets, samples have {samples.n_assets}"
        )
    _check_sample_dim(amb.dim, d, "ambiguity parameters")
    start_time = time.perf_counter()
    kern = _kernel(samples, amb, model)
    y, factor = _project_flat(nu0.to_array(), d)
    mu_k = _MU0
    grad_evals = 0
    inner_total = 0
    trials = 0
    consecutive_stalls = 0
    status = STATUS_ITERATION_CAP
    # (seconds, smoothed objective) pairs: a list for the start, then one per phase
    log: list[list[tuple[float, float]]] | None = [[]] if record_trace else None

    def note(value: float) -> None:
        if log is not None:
            log[-1].append((time.perf_counter() - start_time, value))

    def gradient(point: np.ndarray, at: _Smoothed, k: int) -> np.ndarray:
        nonlocal grad_evals
        grad_evals += 1
        g = _gradient(point, at, mu_k, kern)
        if not np.isfinite(g).all():
            raise _not_finite("gradient", mu_k, k)
        return g

    # ``at`` always holds the kernel result at ``y``; a new smoothing
    # level re-runs only its O(N) stage on the stored mu-free parts.
    at = _smooth(y, factor, mu_k, kern)
    note(at.value)
    for k in range(spg.max_outer_iters):
        g = gradient(y, at, k)
        unit, residual = _unit_step(y, g, d)
        if residual <= _EPSILON and mu_k <= _MU_STOP:
            status = STATUS_CONVERGED
            break
        stalled = False
        if residual >= _EPSILON:
            if log is not None:
                log.append([])
            note(at.value)
            first = spg.alpha0  # the gradient changed with mu: restart the first trial
            for j in range(1, spg.max_inner_per_phase + 1):
                if j > 1:
                    g_prev, g = g, gradient(y, at, k)
                    first = _spectral_step(step, g - g_prev, spg.alpha0)
                # P(y - 1.0 * g) is the unit step that the residual projected
                projected = unit if j == 1 and first == 1.0 else None
                y_next, trial, stepsize, evaluations = _armijo_flat(
                    y, at.value, g, first, mu_k, kern, k, projected
                )
                trials += evaluations
                # a first step that cannot move the point fails like a line search
                if trial is None or (j == 1 and np.array_equal(y_next, y)):
                    stalled = True
                    break
                step = y_next - y
                y, at = y_next, trial
                inner_total += 1
                note(at.value)
                if j >= _N0 and math.sqrt(step @ step) / stepsize < _ETA * mu_k:
                    break
        consecutive_stalls = consecutive_stalls + 1 if stalled else 0
        if consecutive_stalls >= _MAX_CONSECUTIVE_STALLS:
            status = STATUS_STALLED
            break
        mu_k = max(_OMEGA * mu_k, _MU_MIN)
        at = _at_level(at.parts, mu_k, kern)

    # a converged run stops before outer iteration k; any other ends with it
    outer_iters = k if status == STATUS_CONVERGED else k + 1
    if status != STATUS_CONVERGED:
        residual = _unit_step(y, gradient(y, at, outer_iters), d)[1]
    nu = DualPoint.from_array(y, d)
    objective, _ = evaluate_phi_n(nu, samples, amb, model)
    return SolveResult(
        nu=nu,
        objective=objective,
        smooth_objective=at.value,
        residual=residual,
        mu_final=mu_k,
        outer_iters=outer_iters,
        inner_iters=inner_total,
        grad_evals=grad_evals,
        trials=trials,
        status=status,
        trace=None if log is None else tuple(log[0] + [e for p in log[1:] for e in p[1:]]),
        phase_objectives=None if log is None else tuple(tuple(v for _, v in p) for p in log[1:]),
    )

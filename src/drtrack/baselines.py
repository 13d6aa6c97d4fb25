"""Non-robust reference solvers used for comparisons and backtests.

The sample-average CVaR tracker is solved to a certified gap, the
least-squares tracker with a ridge term by constant-step projected
gradient.  Both share the simplex feasible set of the robust model.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .model import (
    ModelParams,
    PsiKind,
    SampleSet,
    _loss_quantile,
    psi_value,
    var_threshold,
)
from .projections import project_simplex
from .smoothing import _logistic, _smooth_psi_prime, smooth_psi
from .spg import STATUS_CONVERGED, STATUS_ITERATION_CAP

__all__ = [
    "BaselineParams",
    "ScvarResult",
    "scvar_objective",
    "scvar_solve",
    "te_l2_solve",
]

# scvar_solve stops converged once (upper - lower) / |upper| is at most this.
GAP_TOLERANCE = 1e-3
# Newton on the smoothed threshold stops at this residual or this many steps.
_THRESHOLD_TOLERANCE = 1e-12
_THRESHOLD_STEPS = 64
# Each iteration lowers the Lipschitz estimate by this factor before backtracking.
_LIPSCHITZ_DECAY = 0.8
# te_l2_solve takes at most this many steps and converges once a step moves
# the weights by at most this much.
TE_L2_MAX_STEPS = 10_000
TE_L2_TOLERANCE = 1e-12


@dataclass(frozen=True)
class BaselineParams:
    """Iteration budget of the sample-average CVaR solver."""

    max_iters: int = 50_000

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise InvalidInputError("max_iters must be at least 1")


@dataclass(frozen=True)
class ScvarResult:
    """Best iterate of the CVaR solver, ``alpha`` its loss quantile.

    ``gap`` is ``(objective - lower_bound) / |objective|``.  ``trace``, if
    requested, holds ``(cpu_seconds, best objective so far)`` per iteration,
    where ``cpu_seconds`` is the wall time since the solve started
    (``time.perf_counter``), not processor time.
    """

    x: np.ndarray
    alpha: float
    objective: float
    lower_bound: float
    gap: float
    iters: int
    status: str
    trace: tuple[tuple[float, float], ...] | None = None


def scvar_objective(x, alpha, samples: SampleSet, model: ModelParams) -> float:
    """Sample-average objective: mean tracking penalty, ridge, CVaR part."""
    x = np.asarray(x, dtype=float)
    if x.shape != (samples.n_assets,):
        raise InvalidInputError(f"x must have shape ({samples.n_assets},), got {x.shape}")
    if not (np.isfinite(x).all() and math.isfinite(alpha)):
        raise InvalidInputError("x and alpha must be finite")
    return _scvar_value(x, alpha, -(samples.xi_b @ x), samples.xi_a, model)


def _scvar_value(x, alpha, losses, xi_a, model: ModelParams) -> float:
    """:func:`scvar_objective` from the losses ``-(xi_b @ x)``, unchecked."""
    n = losses.shape[0]
    return (
        float(psi_value(xi_a + losses, model.psi).sum()) / n
        + model.tau1 * float(x @ x)
        + model.tau2 * float(alpha)
        + model.cvar_coef * (float(np.maximum(losses - alpha, 0.0).sum()) / n)
    )


def _smoothed_threshold(losses: np.ndarray, alpha: float, mu: float, beta: float):
    """Threshold minimising the smoothed CVaR part, by safeguarded Newton.

    Returns the root of ``mean(logistic((losses - a) / mu)) = 1 - beta``,
    bracketed by ``losses`` shifted by ``mu * log(beta / (1 - beta))``,
    with the smoothed plus-parts and the logistic weights at it.  The
    Newton steps need only the logistic; the plus-parts are formed once,
    from the last step's tail.  The last allowed step only evaluates, so
    both always sit at the returned threshold.
    """
    n = losses.shape[0]
    shift = mu * math.log(beta / (1.0 - beta))
    lo, hi = float(losses.min()) + shift, float(losses.max()) + shift
    alpha = min(max(alpha, lo), hi)
    for step in range(_THRESHOLD_STEPS):
        z = losses - alpha
        tail = np.exp(-np.abs(z) / mu)
        sig = _logistic(z, tail)
        total = float(sig.sum())
        excess = total / n - (1.0 - beta)
        if abs(excess) <= _THRESHOLD_TOLERANCE or step == _THRESHOLD_STEPS - 1:
            break
        lo, hi = (alpha, hi) if excess > 0.0 else (lo, alpha)
        slope = (total - float(sig @ sig)) / (n * mu)
        new = alpha + excess / slope if slope > 0.0 else hi
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        alpha = new
    return alpha, np.maximum(z, 0.0) + mu * np.log1p(tail), sig


def scvar_solve(
    samples: SampleSet,
    model: ModelParams,
    params: BaselineParams = BaselineParams(),
    record_trace: bool = False,
) -> ScvarResult:
    """Certified minimisation of the sample-average CVaR objective.

    Upper bound: the exact objective, threshold at the loss quantile
    (Rockafellar & Uryasev 2000), both taken from the losses the surrogate
    formed, so each evaluated point costs one product with the samples.
    Lower bound: a surrogate (Nesterov 2005) with plus-parts and ``|c|``
    smoothed at a level ``mu`` in return units and the threshold minimised
    exactly, less its Frank-Wolfe gap and smoothing margin.  FISTA from
    uniform weights, with backtracking on the Lipschitz estimate and a
    function-value restart, minimises the surrogate; ``mu`` halves once
    that gap falls under the margin.  Stops
    ``converged`` once the relative gap is at most :data:`GAP_TOLERANCE`,
    else ``iteration-cap`` after ``params.max_iters`` iterations.
    """
    start_time = time.perf_counter()
    xi_b, xi_a, n = samples.xi_b, samples.xi_a, samples.n_samples
    tau1, tau2, coef, beta = model.tau1, model.tau2, model.cvar_coef, model.beta
    x = y = best_x = np.full(samples.n_assets, 1.0 / samples.n_assets)
    alpha = best_alpha = var_threshold(x, samples, beta)
    upper, lower = scvar_objective(x, alpha, samples, model), -math.inf
    # mu starts at the spread of the start's losses (1 if they are all equal);
    # the surrogate exceeds the objective by at most margin_rate * mu.
    mu = float(np.std(xi_b @ x)) or 1.0
    margin_rate = coef * math.log(2.0) + (model.psi is PsiKind.ABSOLUTE)
    # Lipschitz estimate: the trace of a Hessian bound (0 only if the gradient is).
    curvature = (2.0 if model.psi is PsiKind.SQUARED else 1.0 / mu) + coef / (4.0 * mu)
    lipschitz = (float(np.sum(np.square(xi_b))) / n * curvature + 2.0 * tau1) or 1.0
    # Optimal and solved thresholds lie in the (shifted) asset losses' range.
    reach = float(xi_b.max() - xi_b.min())

    def surrogate(w: np.ndarray, a: float):
        """Value, x-gradient and alpha-derivative at ``w``, the alpha minimising
        it and the losses ``-(xi_b @ w)``."""
        losses = -(xi_b @ w)
        a, plus, sig = _smoothed_threshold(losses, a, mu, beta)
        c = xi_a + losses
        value = float((smooth_psi(c, mu * mu, model.psi) + coef * plus).sum()) / n
        value += tau1 * float(w @ w) + tau2 * a
        weights = _smooth_psi_prime(c, mu * mu, model.psi) + coef * sig
        grad = 2.0 * tau1 * w - xi_b.T @ weights / n
        return value, grad, tau2 - coef * (float(sig.sum()) / n), a, losses

    trace: list[tuple[float, float]] | None = [] if record_trace else None
    fx, t = math.inf, 1.0
    for k in range(params.max_iters):
        fy, gy, _, alpha, _ = surrogate(y, alpha)
        lipschitz *= _LIPSCHITZ_DECAY
        while True:
            x_new = project_simplex(y - gy / lipschitz)
            f_new, g_new, galpha, alpha_new, losses = surrogate(x_new, alpha)
            step = x_new - y
            if f_new <= fy + float(gy @ step) + 0.5 * lipschitz * float(step @ step):
                break
            lipschitz *= 2.0
        quantile = _loss_quantile(losses, beta)
        exact = _scvar_value(x_new, quantile, losses, xi_a, model)
        if exact < upper:
            upper, best_x, best_alpha = exact, x_new, quantile
        # Joint convexity: the surrogate's minimum is at least its linearisation
        # at (x_new, alpha_new) minimised over the simplex and the reachable alphas.
        fw_gap = float(g_new @ x_new - g_new.min()) + abs(galpha) * reach
        # The optimum lies under upper, so a lower bound above it is rounding.
        lower = min(max(lower, f_new - fw_gap - margin_rate * mu), upper)
        gap = (upper - lower) / max(abs(upper), math.ulp(0.0))
        if trace is not None:
            trace.append((time.perf_counter() - start_time, upper))
        if gap <= GAP_TOLERANCE:
            break
        if fw_gap <= margin_rate * mu and (0.5 * mu) ** 2 > 0.0:
            # The margin dominates: sharpen while mu**2 stays positive, and
            # restart with no surrogate value at the new level yet.
            mu, y, t, f_new = 0.5 * mu, x_new, 1.0, math.inf
        elif f_new > fx:
            y, t = x_new, 1.0
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = x_new + ((t - 1.0) / t_next) * (x_new - x)
            t = t_next
        x, fx, alpha = x_new, f_new, alpha_new
    return ScvarResult(
        x=best_x,
        alpha=best_alpha,
        objective=float(upper),
        lower_bound=float(lower),
        gap=gap,
        iters=k + 1,
        status=STATUS_CONVERGED if gap <= GAP_TOLERANCE else STATUS_ITERATION_CAP,
        trace=tuple(trace) if trace is not None else None,
    )


def te_l2_solve(samples: SampleSet, tau1: float) -> tuple[np.ndarray, float, str]:
    """Least-squares tracker with ridge term over the simplex.

    Minimises ``mean((xi_a - xi_b @ x)^2) + tau1 * ||x||^2`` by
    projected gradient with a constant stepsize of one over the
    gradient's Lipschitz constant.  Returns the weights, the objective
    and the status: ``converged`` once a step moves the weights by at
    most :data:`TE_L2_TOLERANCE`, ``iteration-cap`` after
    :data:`TE_L2_MAX_STEPS` steps.
    """
    tau1 = float(tau1)
    if not (math.isfinite(tau1) and tau1 >= 0.0):
        raise InvalidInputError("tau1 must be a nonnegative finite float")
    xb = samples.xi_b
    xa = samples.xi_a
    n = samples.n_samples
    d = samples.n_assets
    x = np.full(d, 1.0 / d)

    def objective(w: np.ndarray) -> float:
        r = xa - xb @ w
        return float(r @ r) / n + tau1 * float(w @ w)

    lipschitz = 2.0 * (np.linalg.norm(xb, 2) ** 2 / n + tau1)
    if lipschitz <= 0.0:
        # all-zero asset returns and no ridge: every weight vector is optimal
        return x, objective(x), STATUS_CONVERGED
    stepsize = 1.0 / lipschitz
    status = STATUS_ITERATION_CAP
    for _ in range(TE_L2_MAX_STEPS):
        r = xa - xb @ x
        grad = -2.0 * (xb.T @ r) / n + 2.0 * tau1 * x
        x_new = project_simplex(x - stepsize * grad)
        moved = float(np.linalg.norm(x_new - x))
        x = x_new
        if moved <= TE_L2_TOLERANCE:
            status = STATUS_CONVERGED
            break
    return x, objective(x), status

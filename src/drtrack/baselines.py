"""Non-robust reference solvers used for comparisons and backtests.

Two baselines are provided: the sample-average tracking model with a
CVaR penalty, minimised jointly in the weights and the threshold by a
projected subgradient method, and a plain least-squares tracker with a
ridge term, minimised by constant-step projected gradient.  Both share
the simplex feasible set of the robust model.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .model import ModelParams, PsiKind, SampleSet, var_threshold
from .projections import project_simplex
from .spg import STATUS_CONVERGED, STATUS_ITERATION_CAP, SpgParams

__all__ = [
    "StepRule",
    "BaselineParams",
    "ScvarResult",
    "scvar_objective",
    "scvar_solve",
    "te_l2_solve",
]

# Armijo constants (alpha0, sigma, rho, max_backtracks) of the smoothing solver.
_ARMIJO = SpgParams()

# Base stepsize of the diminishing schedule a0 / sqrt(k + 1).
_DIMINISHING_STEP0 = 1.0


class StepRule(enum.Enum):
    ARMIJO = "armijo"
    DIMINISHING = "diminishing"


@dataclass(frozen=True)
class BaselineParams:
    """Budget and stepsize policy for the baseline solvers.

    Under the Armijo rule the subgradient method backtracks for
    sufficient decrease and falls back to the diminishing schedule if
    the search stalls; under the diminishing rule it uses
    ``a0 / sqrt(k+1)`` from the start.  Iterations stop early when the
    iterate displacement falls below ``tolerance``.
    """

    max_iters: int = 50_000
    step_rule: StepRule = StepRule.ARMIJO
    tolerance: float = 1e-9

    def __post_init__(self) -> None:
        if not isinstance(self.step_rule, StepRule):
            raise InvalidInputError(f"step_rule must be a StepRule, got {self.step_rule!r}")
        if self.max_iters < 1:
            raise InvalidInputError("max_iters must be at least 1")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise InvalidInputError("tolerance must be a positive finite float")


@dataclass(frozen=True)
class ScvarResult:
    """Best iterate found by the sample-average CVaR solver.

    ``trace`` holds ``(cpu_seconds, objective)`` pairs, one per
    iteration, recording the best objective seen so far; it is None
    unless tracing was requested.
    """

    x: np.ndarray
    alpha: float
    objective: float
    iters: int
    status: str
    trace: tuple[tuple[float, float], ...] | None = None


def scvar_objective(x, alpha, samples: SampleSet, model: ModelParams) -> float:
    """Sample-average objective: mean tracking penalty, ridge, CVaR part."""
    x = np.asarray(x, dtype=float)
    if x.shape != (samples.n_assets,):
        raise InvalidInputError(
            f"x must have shape ({samples.n_assets},), got {x.shape}"
        )
    if not (np.isfinite(x).all() and math.isfinite(alpha)):
        raise InvalidInputError("x and alpha must be finite")
    losses = -(samples.xi_b @ x)
    c = samples.xi_a + losses
    if model.psi is PsiKind.SQUARED:
        track = float(np.mean(np.square(c)))
    else:
        track = float(np.mean(np.abs(c)))
    plus = np.maximum(losses - alpha, 0.0)
    return (
        track
        + model.tau1 * float(x @ x)
        + model.tau2 * float(alpha)
        + model.cvar_coef * float(np.mean(plus))
    )


def _scvar_subgradient(
    x: np.ndarray, alpha: float, samples: SampleSet, model: ModelParams
) -> tuple[np.ndarray, float]:
    losses = -(samples.xi_b @ x)
    c = samples.xi_a + losses
    n = samples.n_samples
    if model.psi is PsiKind.SQUARED:
        psi_prime = 2.0 * c
    else:
        psi_prime = np.sign(c)  # zero on the kink
    active = (losses - alpha > 0).astype(float)  # zero on the kink
    gx = 2.0 * model.tau1 * x - samples.xi_b.T @ (psi_prime + model.cvar_coef * active) / n
    galpha = model.tau2 - model.cvar_coef * float(active.mean())
    return gx, galpha


def scvar_solve(
    samples: SampleSet,
    model: ModelParams,
    params: BaselineParams = BaselineParams(),
    record_trace: bool = False,
) -> ScvarResult:
    """Projected subgradient descent on the sample-average objective.

    Starts from uniform weights with the loss quantile as threshold.
    Steps project the weights back onto the simplex; the threshold is
    unconstrained.  Returns the best iterate by objective value.
    """
    start_time = time.perf_counter()
    d = samples.n_assets
    x = np.full(d, 1.0 / d)
    alpha = var_threshold(x, samples, model.beta)
    fx = scvar_objective(x, alpha, samples, model)
    best_x, best_alpha, best_f = x, alpha, fx
    trace: list[tuple[float, float]] | None = [] if record_trace else None
    armijo = params.step_rule is StepRule.ARMIJO
    status = STATUS_ITERATION_CAP
    iters = 0
    for k in range(params.max_iters):
        gx, galpha = _scvar_subgradient(x, alpha, samples, model)
        if armijo:
            stepsize = _ARMIJO.alpha0
            accepted = False
            for _ in range(_ARMIJO.max_backtracks + 1):
                x_new = project_simplex(x - stepsize * gx)
                alpha_new = alpha - stepsize * galpha
                f_new = scvar_objective(x_new, alpha_new, samples, model)
                decrease = float(gx @ (x_new - x)) + galpha * (alpha_new - alpha)
                if f_new <= fx + _ARMIJO.sigma * decrease:
                    accepted = True
                    break
                stepsize *= _ARMIJO.rho
            if not accepted:
                # Stall on a kink: continue with diminishing steps.
                armijo = False
                continue
        else:
            stepsize = _DIMINISHING_STEP0 / math.sqrt(k + 1.0)
            x_new = project_simplex(x - stepsize * gx)
            alpha_new = alpha - stepsize * galpha
            f_new = scvar_objective(x_new, alpha_new, samples, model)
        displacement = math.hypot(float(np.linalg.norm(x_new - x)), alpha_new - alpha)
        x, alpha, fx = x_new, alpha_new, f_new
        iters = k + 1
        if f_new < best_f:
            best_x, best_alpha, best_f = x_new, alpha_new, f_new
        if trace is not None:
            trace.append((time.perf_counter() - start_time, best_f))
        if displacement <= params.tolerance:
            status = STATUS_CONVERGED
            break
    return ScvarResult(
        x=best_x,
        alpha=float(best_alpha),
        objective=float(best_f),
        iters=iters,
        status=status,
        trace=tuple(trace) if trace is not None else None,
    )


def te_l2_solve(
    samples: SampleSet,
    tau1: float,
    max_iters: int = 10_000,
    tolerance: float = 1e-12,
) -> tuple[np.ndarray, float, str]:
    """Least-squares tracker with ridge term over the simplex.

    Minimises ``mean((xi_a - xi_b @ x)^2) + tau1 * ||x||^2`` by
    projected gradient with a constant stepsize of one over the
    gradient's Lipschitz constant.  Returns the weights, the objective
    and the status: ``converged`` once a step moves the weights by at
    most ``tolerance``, ``iteration-cap`` after ``max_iters`` steps.
    """
    tau1 = float(tau1)
    if not (math.isfinite(tau1) and tau1 >= 0.0):
        raise InvalidInputError("tau1 must be a nonnegative finite float")
    if max_iters < 1:
        raise InvalidInputError("max_iters must be at least 1")
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
    for _ in range(max_iters):
        r = xa - xb @ x
        grad = -2.0 * (xb.T @ r) / n + 2.0 * tau1 * x
        x_new = project_simplex(x - stepsize * grad)
        moved = float(np.linalg.norm(x_new - x))
        x = x_new
        if moved <= tolerance:
            status = STATUS_CONVERGED
            break
    return x, objective(x), status

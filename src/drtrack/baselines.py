"""Non-robust reference solvers used for comparisons and backtests.

The sample-average CVaR tracker is solved to a certified gap, the
least-squares tracker with a ridge term exactly, by an active-set
method on the d x d Gram matrix, which also bounds the CVaR tracker
when its objective is that quadratic but for the plus-parts.  Both share
the simplex feasible set of the robust model, and both return the fit
record of every model, :class:`~drtrack.model.ModelFit`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .model import (
    STATUS_CONVERGED,
    STATUS_ITERATION_CAP,
    ModelFit,
    ModelParams,
    PsiKind,
    SampleSet,
    _check_budget,
    _finite_float,
    _loss_quantile,
    _readonly,
    _scvar_value,
    var_threshold,
)
from .projections import _simplex, project_simplex
from .smoothing import _logistic, _smooth_psi_prime, _tail, smooth_psi

__all__ = [
    "BaselineParams",
    "scvar_objective",
    "scvar_solve",
    "te_l2_solve",
]

# scvar_solve stops converged once its relative gap (ModelFit.gap) is at most this.
GAP_TOLERANCE = 1e-3
# Newton on the smoothed threshold stops at this residual or this many steps.
_THRESHOLD_TOLERANCE = 1e-12
_THRESHOLD_STEPS = 64
# Each iteration lowers the Lipschitz estimate by this factor before backtracking.
_LIPSCHITZ_DECAY = 0.8
# With the squared penalty, mu starts at this fraction of the start's loss spread
# and halves once the surrogate's Frank-Wolfe gap is within this many smoothing
# margins.  The absolute penalty keeps 1 and 1: there the smoothed |c| sets the
# surrogate's curvature (1/mu), and the sharper schedule took 1.7 times the iterations.
_MU_START_SQUARED = 0.1
_SHARPEN_MARGINS_SQUARED = 4.0
# The active set (te_l2_solve, and scvar_solve's exact quadratic) stops once
# its Frank-Wolfe gap is at most this times the data scale mean(xi_a**2) + trace(G).
TE_L2_GAP = 1e-12


@dataclass(frozen=True)
class BaselineParams:
    """Iteration budget of the sample-average CVaR solver."""

    max_iters: int = 50_000

    def __post_init__(self) -> None:
        _check_budget(self.max_iters, "max_iters")


def scvar_objective(x, alpha, samples: SampleSet, model: ModelParams) -> float:
    """Sample-average objective: mean tracking penalty, ridge, CVaR part."""
    x = _readonly(x, "x", (samples.n_assets,))
    alpha = _finite_float(alpha, "alpha")
    return _scvar_value(x, alpha, -(samples.xi_b @ x), samples.xi_a, model)


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
        tail = _tail(z, mu)
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


def _threshold_bound(galpha: float, a_lo: float, a_hi: float) -> float:
    """Minimum of ``alpha * galpha`` over the thresholds in ``[a_lo, a_hi]``."""
    return min(a_lo * galpha, a_hi * galpha)


def _fenchel_bound(v, g, galpha, xi_a, model: ModelParams, a_lo, a_hi) -> float:
    """Weak-duality lower bound on the minimum of :func:`scvar_objective`.

    With ``psi(c) >= v c - psi*(v)``, where ``psi*(v)`` is ``v**2 / 4``
    for the squared penalty and 0 on ``[-1, 1]`` for the absolute one,
    and ``(t)_+ >= s t`` for ``s`` in ``[0, 1]``, the objective is at
    least ``mean(v xi_a - psi*(v)) + alpha galpha + tau1 ||x||^2 - g'x``
    for ``g = xi_b' (v + cvar_coef s) / N`` and
    ``galpha = tau2 - cvar_coef mean(s)``.  The bound is its minimum
    over the simplex and the thresholds in ``[a_lo, a_hi]``, which hold
    an optimal threshold of every ``x``.
    """
    n = v.shape[0]
    if model.psi is PsiKind.SQUARED:
        value = float(v @ (xi_a - 0.25 * v)) / n
    else:
        value = float(v @ xi_a) / n
    value += _threshold_bound(galpha, a_lo, a_hi)
    if model.tau1 > 0.0:
        p = _simplex(g / (2.0 * model.tau1))
        return value + model.tau1 * float(p @ p) - float(g @ p)
    return value - float(g.max())


def _gap_floor(samples: SampleSet, tau1: float) -> float:
    """Least divisor of a relative gap: ``TE_L2_GAP / GAP_TOLERANCE`` times
    ``mean(xi_a^2) + trace(G)``, for ``G = xi_b'xi_b / N + tau1 I``.

    Differences under the active set's tolerance are rounding, so an
    optimum of 0 (an exactly replicated index) still certifies.
    """
    xi_a, n = samples.xi_a, samples.n_samples
    power = float(np.sum(np.square(samples.xi_b))) / n
    scale = TE_L2_GAP * (float(xi_a @ xi_a) / n + power + tau1 * samples.n_assets)
    return max(scale / GAP_TOLERANCE, math.ulp(0.0))


def scvar_solve(
    samples: SampleSet,
    model: ModelParams,
    params: BaselineParams = BaselineParams(),
    record_trace: bool = False,
    x0=None,
) -> ModelFit:
    """Certified minimisation of the sample-average CVaR objective.

    FISTA from ``x0`` projected onto the simplex (uniform weights if
    None), with backtracking on the Lipschitz estimate and a
    function-value restart, minimises a surrogate (Nesterov 2005) with
    plus-parts and ``|c|`` smoothed at a level ``mu`` in return units
    and the threshold minimised exactly; with no CVaR weight the
    threshold enters neither, and is not solved for.  ``mu`` halves
    once the surrogate's Frank-Wolfe gap falls under a few smoothing
    margins.  Upper bound: the exact objective, threshold at the
    loss quantile (Rockafellar & Uryasev 2000), taken from the losses the
    surrogate formed, so each evaluated point costs one product with the
    samples.  Lower bound: the Fenchel dual bound (:func:`_fenchel_bound`)
    at the surrogate's own multipliers, whose ``g`` is read off the
    surrogate's gradient.

    With the squared penalty and ``tau1 = 0`` or ``tau2 = 0``, each
    iteration instead bounds only the plus-parts, by the threshold's
    logistic weights ``sigma``, and minimises the rest exactly: the
    quadratic ``x'Gx - 2b'x`` of :func:`te_l2_solve` with
    ``b + cvar_coef xi_b'sigma / (2N)`` for ``b``, by :func:`_simplex_qp`
    warm from the last iteration's solution (the start point first).
    Its value at the solution, from the residuals, less its Frank-Wolfe
    gap, is the lower bound, and the solution, priced at its loss
    quantile, is a second candidate for the upper bound; the FISTA
    iterates are the same on both paths.

    Stops ``converged`` once the gap of :class:`~drtrack.model.ModelFit` is at most
    :data:`GAP_TOLERANCE`, else ``iteration-cap`` after
    ``params.max_iters`` iterations.  The first threshold, upper bound
    and ``mu`` come from the start's losses: ``mu`` starts at their
    standard deviation and halves within one margin, or with the squared
    penalty at a tenth of it and within four (:data:`_MU_START_SQUARED`,
    :data:`_SHARPEN_MARGINS_SQUARED`); the first Lipschitz estimate is
    taken at the standard deviation either way.  When the next extrapolated
    point is the accepted one at the same ``mu`` (after a restart, or a
    first momentum step, whose coefficient is 0), its surrogate is
    reused, so each point is evaluated once.
    """
    start_time = time.perf_counter()
    xi_b, xi_a, n = samples.xi_b, samples.xi_a, samples.n_samples
    tau1, tau2, coef, beta = model.tau1, model.tau2, model.cvar_coef, model.beta
    if x0 is None:
        x = np.full(samples.n_assets, 1.0 / samples.n_assets)
    else:
        x = _simplex(_readonly(x0, "x0", (samples.n_assets,)))
    y = best_x = x
    alpha = best_alpha = var_threshold(x, samples, beta)
    upper, lower = scvar_objective(x, alpha, samples, model), -math.inf
    # mu starts at a fraction of the spread of the start's losses (1 if they are
    # all equal); the surrogate exceeds the objective by at most margin_rate * mu.
    squared = model.psi is PsiKind.SQUARED
    mu_start, sharpen = (_MU_START_SQUARED, _SHARPEN_MARGINS_SQUARED) if squared else (1.0, 1.0)
    spread = float(np.std(xi_b @ x)) or 1.0
    mu = mu_start * spread
    margin_rate = coef * math.log(2.0) + (not squared)
    # Lipschitz estimate: the trace of a Hessian bound at mu = spread (0 only if
    # the gradient is).  Taken at the smaller mu it would be up to 1 / mu_start
    # times larger, and the first steps that much shorter; backtracking raises
    # it where the sharper surrogate needs more.
    curvature = (2.0 if squared else 1.0 / spread) + coef / (4.0 * spread)
    power = float(np.sum(np.square(xi_b))) / n  # trace(xi_b'xi_b) / N
    lipschitz = (power * curvature + 2.0 * tau1) or 1.0
    floor = _gap_floor(samples, tau1)
    # Every x has an optimal threshold among its losses, so in [a_lo, a_hi].
    a_lo, a_hi = -float(xi_b.max()), -float(xi_b.min())
    reach = a_hi - a_lo
    # The exact quadratic bound's data, and its warm start, when it runs.
    kkt = None
    if squared and (tau1 == 0.0 or tau2 == 0.0):
        kkt, b, qp_tol = _tracking_qp(xi_b, xi_a, tau1)
        qp_x = x

    def surrogate(w: np.ndarray, a: float):
        """Value, x-gradient and alpha-derivative at ``w``, the alpha minimising
        it, the losses ``-(xi_b @ w)``, the multipliers ``psi'(c)`` and the
        threshold's logistic weights (None with no CVaR weight)."""
        losses = -(xi_b @ w)
        c = xi_a + losses
        terms = smooth_psi(c, mu * mu, model.psi)
        v = weights = _smooth_psi_prime(c, mu * mu, model.psi)
        galpha, sig = 0.0, None
        if coef > 0.0:
            a, plus, sig = _smoothed_threshold(losses, a, mu, beta)
            terms = terms + coef * plus
            weights = v + coef * sig
            galpha = tau2 - coef * (float(sig.sum()) / n)
        value = float(terms.sum()) / n
        value += tau1 * float(w @ w) + tau2 * a
        grad = 2.0 * tau1 * w - xi_b.T @ weights / n
        return value, grad, galpha, a, losses, v, sig

    trace: list[tuple[float, float]] | None = [] if record_trace else None
    fx, t = math.inf, 1.0
    # The surrogate's value and gradient at y when y is the last accepted
    # point at the current mu (alpha is then already its threshold).
    at_y = None
    for k in range(params.max_iters):
        if at_y is None:
            fy, gy, _, alpha, _, _, _ = surrogate(y, alpha)
        else:
            fy, gy = at_y
        lipschitz *= _LIPSCHITZ_DECAY
        while True:
            x_new = project_simplex(y - gy / lipschitz)
            f_new, g_new, galpha, alpha_new, losses, v, sig = surrogate(x_new, alpha)
            step = x_new - y
            if f_new <= fy + float(gy @ step) + 0.5 * lipschitz * float(step @ step):
                break
            lipschitz *= 2.0
        quantile = _loss_quantile(losses, beta)
        exact = _scvar_value(x_new, quantile, losses, xi_a, model)
        if exact < upper:
            upper, best_x, best_alpha = exact, x_new, quantile
        if kkt is None:
            # g_new = 2 tau1 x_new - xi_b' (v + coef sig) / n, so no new product.
            bound = _fenchel_bound(v, 2.0 * tau1 * x_new - g_new, galpha, xi_a, model, a_lo, a_hi)
        else:
            # (t)_+ >= sig t leaves the quadratic, minimised over the simplex.
            shifted = b if sig is None else b + (0.5 * coef / n) * (xi_b.T @ sig)
            qp_x, qp_g = _simplex_qp(kkt, shifted, qp_x, qp_tol)
            qp_losses = -(xi_b @ qp_x)
            quantile = _loss_quantile(qp_losses, beta)
            exact = _scvar_value(qp_x, quantile, qp_losses, xi_a, model)
            if exact < upper:
                upper, best_x, best_alpha = exact, qp_x, quantile
            r = xi_a + qp_losses
            bound = float(r @ r) / n + tau1 * float(qp_x @ qp_x)
            if sig is not None:
                bound += coef * float(sig @ qp_losses) / n
            bound += _threshold_bound(galpha, a_lo, a_hi) - float(qp_g @ qp_x - qp_g.min())
        # The optimum lies under upper, so a lower bound above it is rounding.
        lower = min(max(lower, bound), upper)
        gap = (upper - lower) / max(abs(upper), floor)
        if trace is not None:
            trace.append((time.perf_counter() - start_time, upper))
        if gap <= GAP_TOLERANCE:
            break
        # The surrogate's Frank-Wolfe gap over the simplex and the alphas in reach.
        fw_gap = float(g_new @ x_new - g_new.min()) + abs(galpha) * reach
        at_y = f_new, g_new
        if fw_gap <= sharpen * margin_rate * mu and (0.5 * mu) ** 2 > 0.0:
            # The margin dominates: sharpen while mu**2 stays positive, and
            # restart with no surrogate value at the new level yet.
            mu, y, t, f_new, at_y = 0.5 * mu, x_new, 1.0, math.inf, None
        elif f_new > fx:
            y, t = x_new, 1.0
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            momentum = (t - 1.0) / t_next
            if momentum:
                y, at_y = x_new + momentum * (x_new - x), None
            else:
                y = x_new
            t = t_next
        x, fx, alpha = x_new, f_new, alpha_new
    status = STATUS_CONVERGED if gap <= GAP_TOLERANCE else STATUS_ITERATION_CAP
    return ModelFit(weights=best_x, status=status, objective=float(upper), alpha=best_alpha,
                    lower_bound=float(lower), gap=gap, iters=k + 1, counters={},
                    solve_seconds=time.perf_counter() - start_time,
                    trace=tuple(trace) if trace is not None else None)


def te_l2_solve(samples: SampleSet, tau1: float) -> ModelFit:
    """Least-squares tracker with ridge term over the simplex, solved exactly.

    Minimises ``mean((xi_a - xi_b @ x)^2) + tau1 * ||x||^2``, that is
    ``x'Gx - 2b'x`` for ``G = xi_b'xi_b / N + tau1 I`` and ``b = xi_b'xi_a / N``,
    by :func:`_simplex_qp` from uniform weights.  The objective, from the
    residuals, less the Frank-Wolfe gap ``g'x - min(g)``, ``g = 2(Gx - b)``,
    is a lower bound, since the objective is convex; ``converged`` means that
    gap is at most :data:`TE_L2_GAP` times ``mean(xi_a^2) + trace(G)``.  The
    relative ``gap`` divides by :func:`_gap_floor`, as :func:`scvar_solve`'s does.
    """
    start_time = time.perf_counter()
    tau1 = _finite_float(tau1, "tau1")
    if tau1 < 0.0:
        raise InvalidInputError(f"tau1 must be nonnegative, got {tau1!r}")
    xb, xa, n, d = samples.xi_b, samples.xi_a, samples.n_samples, samples.n_assets
    kkt, b, tol = _tracking_qp(xb, xa, tau1)
    x, g = _simplex_qp(kkt, b, np.full(d, 1.0 / d), tol)
    r = xa - xb @ x
    objective = float(r @ r) / n + tau1 * float(x @ x)
    fw_gap = float(g @ x - g.min())
    lower = objective - max(fw_gap, 0.0)
    gap = (objective - lower) / max(abs(objective), _gap_floor(samples, tau1))
    status = STATUS_CONVERGED if fw_gap <= tol else STATUS_ITERATION_CAP
    return ModelFit(weights=x, status=status, objective=objective, alpha=None,
                    lower_bound=lower, gap=gap, iters=None, counters={},
                    solve_seconds=time.perf_counter() - start_time, trace=None)


def _tracking_qp(xi_b: np.ndarray, xi_a: np.ndarray, tau1: float):
    """``mean((xi_a - xi_b @ x)^2) + tau1 ||x||^2`` as ``x'Gx - 2b'x`` plus a constant.

    Returns the KKT matrix ``[G c1; c1' 0]`` of :func:`_simplex_qp`, whose
    border ``c = trace(G) / d`` (1 if ``G = 0``) makes the least-squares
    rank cutoff scale with ``G``, then ``b`` and the active set's
    tolerance, :data:`TE_L2_GAP` times ``mean(xi_a^2) + trace(G)``.
    """
    n, d = xi_b.shape
    gram = xi_b.T @ xi_b / n + tau1 * np.eye(d)
    trace = float(np.trace(gram))
    kkt = np.pad(gram, (0, 1), constant_values=trace / d or 1.0)
    kkt[d, d] = 0.0
    return kkt, xi_b.T @ xi_a / n, TE_L2_GAP * (float(xi_a @ xi_a) / n + trace)


def _simplex_qp(kkt: np.ndarray, b: np.ndarray, x: np.ndarray, tol: float):
    """Minimise ``x'Gx - 2b'x`` over the simplex, ``kkt`` from :func:`_tracking_qp`.

    A primal active-set method (Nocedal & Wright 2006, section 16.5) from
    the weights ``x``, on the support of their positive entries.  Each
    support's KKT system is solved by LU, or by least squares when LU
    finds it singular, so ``G`` may be singular.  A weight that blocks the step leaves the
    support; after a full step the asset of least ``g = 2(Gx - b)`` enters
    if ``g_j < g'x - tol``, else the method stops.  Returns the weights,
    rescaled to sum to 1, and ``g`` at them; ``x`` is not modified.
    """
    d = b.shape[0]
    gram, rhs = kkt[:d, :d], np.append(b, kkt[d, 0])
    x, support = x.copy(), x > 0.0
    for _ in range(4 * d):  # each iteration drops or adds an asset; only cycling hits this
        rows = np.append(np.flatnonzero(support), d)
        system = kkt[np.ix_(rows, rows)]
        try:
            solution = np.linalg.solve(system, rhs[rows])
        except np.linalg.LinAlgError:
            solution = np.linalg.lstsq(system, rhs[rows], rcond=None)[0]
        step = solution[:-1] - x[support]
        ratios = np.divide(x[support], -step, out=np.full(step.size, math.inf), where=step < 0)
        block = int(ratios.argmin())
        x[support] = np.maximum(x[support] + min(ratios[block], 1.0) * step, 0.0)
        if ratios[block] < 1.0:  # the blocking weight leaves the support
            x[rows[block]], support[rows[block]] = 0.0, False
            continue
        g = 2.0 * (gram @ x - b)
        enter = int(np.where(support, math.inf, g).argmin())
        if support[enter] or g[enter] >= float(g @ x) - tol:  # else the least g_j enters
            break
        support[enter] = True
    x /= x.sum()
    return x, 2.0 * (gram @ x - b)

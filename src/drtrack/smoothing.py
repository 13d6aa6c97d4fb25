"""Smooth approximations of the dual objective and their gradients.

The exact dual objective is a pointwise maximum of functions that are
themselves nonsmooth (plus-parts, absolute values, a Euclidean norm).
Each piece is replaced by a classical smooth surrogate controlled by a
single parameter ``mu > 0``:

* ``max(t, 0)``            -> ``mu * log(1 + exp(t / mu))``
* ``|a|``                  -> ``sqrt(a^2 + mu)``
* ``||z||``                -> ``sqrt(||z||^2 + mu)``
* ``max_i v_i``            -> ``mu * logsumexp(v / mu)``

Every surrogate dominates the original and exceeds it by at most a
known margin (``mu * log 2``, ``sqrt(mu)``, ``sqrt(mu)``, and
``mu * log N`` respectively), so the smoothed objective squeezes the
exact one as ``mu`` decreases.  All evaluations here are overflow-safe
and deterministic.

The kernel runs on the fit's record, :class:`drtrack.model.Problem`,
whose ``samples_t`` every product reads and whose ``(d + 3) x N``
``scratch`` buffer each product overwrites and no result keeps a view
of.  The first stage, free of
``mu``, computes per sample ``xi' lam xi + q' xi``, the tracking
deviation and the plus-part argument, plus ``<C, lam> + q' mu_hat + ...``,
from one GEMM of ``[F | q | (x; 0)]'``, of height at most ``d + 3``, with
``samples_t``.  Inside the solver ``F`` is the PSD projection's factor of
``lam``, so ``lam = F F'`` and the block has height ``rank(lam) + 2``; the
public functions take any ``lam`` and put ``sym(lam)`` itself in ``F``'s
place, so they decompose nothing.  The second stage applies the
surrogates and the log-sum-exp at level ``mu`` in O(N).  The gradient
scales ``samples_t`` by ``sqrt(w)`` into ``scratch`` for the weighted
Gram ``sum_i w_i xi_i xi_i'``, one symmetric rank-k update.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError
from .model import (
    AmbiguityParams,
    DualPoint,
    ModelParams,
    Problem,
    PsiKind,
    SampleSet,
    _h1,
    _problem,
    _split_flat,
)

__all__ = [
    "smooth_plus",
    "smooth_abs",
    "smooth_psi",
    "smooth_h_values",
    "smooth_phi",
    "grad_smooth_phi",
]

# Normalised softmax weights below this threshold are flushed to zero;
# they are far beneath double-precision resolution of the weighted sums.
WEIGHT_FLUSH = 1e-300

# Tails exp(a) with a <= this are 0: exp, 10-150x slower on subnormal
# results, sees a clamped here, and exp(-700) ~ 1e-304 < WEIGHT_FLUSH.
_EXP_FLOOR = -700.0


def _mu_value(mu) -> float:
    value = float(mu)
    if not math.isfinite(value) or value <= 0.0:
        raise InvalidInputError(f"mu must be a positive finite float, got {mu!r}")
    return value


def smooth_plus(t, mu):
    """Smooth plus-part ``mu * log(1 + exp(t / mu))``, elementwise.

    Evaluated as ``max(t, 0) + mu * log1p(exp(-|t| / mu))`` so large
    arguments of either sign cannot overflow.
    """
    out, _ = _plus_and_tail(np.asarray(t, dtype=float), _mu_value(mu))
    return float(out) if out.ndim == 0 else out


def _tail(t: np.ndarray, mu: float) -> np.ndarray:
    """The tail ``exp(-|t| / mu)`` of ``t``, 0 below ``exp(_EXP_FLOOR)``.

    When no exponent reaches the floor, plain ``exp`` gives the same
    values without the clamp's three extra passes.
    """
    arg = np.abs(t) / -mu
    if arg.min(initial=0.0) > _EXP_FLOOR:
        return np.exp(arg)
    return np.where(arg > _EXP_FLOOR, np.exp(np.maximum(arg, _EXP_FLOOR)), 0.0)


def _plus_and_tail(t: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Smooth plus-part of ``t`` and its :func:`_tail`."""
    tail = _tail(t, mu)
    return np.maximum(t, 0.0) + mu * np.log1p(tail), tail


def _logistic(t: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """``logistic(t / mu)`` from the tail ``exp(-|t| / mu)``, which cannot overflow."""
    sig = tail.copy()
    np.copyto(sig, 1.0, where=t >= 0.0)
    return np.divide(sig, 1.0 + tail, out=sig)


def smooth_abs(a, mu):
    """Smooth absolute value ``sqrt(a^2 + mu)``, elementwise."""
    return smooth_psi(a, mu, PsiKind.ABSOLUTE)


def smooth_psi(c, mu, kind: PsiKind):
    """Smoothed tracking penalty; the squared kind is already smooth."""
    if kind is PsiKind.ABSOLUTE:
        mu = _mu_value(mu)
    elif kind is not PsiKind.SQUARED:
        raise InvalidInputError(f"unknown psi kind {kind!r}")
    out = _psi(np.asarray(c, dtype=float), mu, kind)
    return float(out) if out.ndim == 0 else out


def _psi(c: np.ndarray, mu: float, kind: PsiKind) -> np.ndarray:
    """:func:`smooth_psi` of a float array at a valid ``mu`` and kind, unchecked."""
    if kind is PsiKind.SQUARED:
        return np.square(c)
    return np.sqrt(np.square(c) + mu)


def _smooth_psi_prime(c: np.ndarray, mu: float, kind: PsiKind) -> np.ndarray:
    if kind is PsiKind.SQUARED:
        return 2.0 * c
    return c / np.sqrt(np.square(c) + mu)


class _Parts(NamedTuple):
    """The mu-free pieces of the smoothed components at one point."""

    h1: float  # sample-free multiplier and penalty terms
    usu: float  # u' sigma_hat u for u = q + 2 lam mu_hat
    su: np.ndarray  # sigma_hat @ u
    quad: np.ndarray  # xi' lam xi + q' xi per row
    c: np.ndarray  # tracking deviations xi_a - xi_b @ x
    t: np.ndarray  # plus-part arguments loss - alpha


class _Smoothed(NamedTuple):
    """The smoothed components at one point, with what the gradient reuses."""

    parts: _Parts
    value: float  # mu * logsumexp(vals / mu)
    vals: np.ndarray  # smoothed max-components, shape (N,)
    spread: np.ndarray  # exp((vals - max(vals)) / mu), the unnormalised softmax
    spread_sum: float
    tail: np.ndarray  # exp(-|t| / mu)
    norm_val: float  # smoothed mean-ellipsoid term


def _parts(flat: np.ndarray, factor, problem: Problem) -> _Parts:
    """The mu-free stage at a flat dual vector, unchecked.

    ``factor`` is the PSD factor ``F`` with ``sym(lam) = F F'``, from
    :func:`drtrack.projections._project_flat`, or None, which stands for
    ``sym(lam)`` itself.  One product of ``[F | q | (x; 0)]'`` with
    ``samples_t``, written into ``scratch``, yields ``F' xi``, ``q' xi``
    and the portfolio returns ``x' xi_b``; the quadratic forms are the
    column sums of ``(F' xi)^2``, or with None of ``xi * (sym(lam) xi)``.
    The index returns are the last row of ``samples_t``.  The parts copy
    what they keep.
    """
    samples_t, amb, scratch = problem.samples_t, problem.amb, problem.scratch
    d = samples_t.shape[0] - 1
    x, alpha, q, lam = _split_flat(flat, d)
    u = q + 2.0 * lam @ amb.mu_hat
    su = amb.sigma_hat @ u
    cols = 0.5 * (lam + lam.T) if factor is None else factor
    r = cols.shape[1]
    left = np.zeros((r + 2, d + 1))
    left[:r] = cols.T
    left[r] = q
    left[r + 1, :d] = x
    prod = np.matmul(left, samples_t, out=scratch[: r + 2])
    head = prod[:r]
    quad = np.einsum("ij,ij->j", samples_t if factor is None else head, head)
    quad += prod[r]
    losses = -prod[r + 1]
    c = samples_t[d] + losses
    t = losses - alpha
    h1 = _h1(x, alpha, q, lam, problem)
    return _Parts(h1, float(u @ su), su, quad, c, t)


def _at_level(parts: _Parts, mu: float, problem: Problem) -> _Smoothed:
    """The O(N) stage: components and log-sum-exp at level ``mu``.

    The log-sum-exp, taken against the running maximum, brackets the
    largest component within ``mu * log(N)``.  Its exponents are floored
    at ``_EXP_FLOOR``, as :func:`_tail`'s are, when any reaches it, so
    ``exp`` skips its slow subnormal and underflow paths.  A floored
    term, at most ``exp(-700) ~ 1e-304``, is below half an ulp of the
    sum, which the top component's ``exp(0) = 1`` keeps at least 1, and
    below ``WEIGHT_FLUSH`` once normalised: the value and the gradient's
    weights keep their bits.
    """
    norm_val = math.sqrt(problem.amb.kappa1 * parts.usu + mu)
    plus, tail = _plus_and_tail(parts.t, mu)
    # h1 + norm_val + psi - quad + coef * plus, in place on the fresh psi
    # array: addition commutes exactly, so each step rounds as it would there
    vals = _psi(parts.c, mu, problem.model.psi)
    vals += parts.h1 + norm_val
    vals -= parts.quad
    plus *= problem.model.cvar_coef
    vals += plus
    top = float(vals.max())
    spread = vals - top
    spread /= mu
    if spread.min() <= _EXP_FLOOR:
        np.maximum(spread, _EXP_FLOOR, out=spread)
    np.exp(spread, out=spread)
    spread_sum = float(spread.sum())
    value = top + mu * math.log(spread_sum)
    return _Smoothed(parts, value, vals, spread, spread_sum, tail, norm_val)


def _smooth(flat: np.ndarray, factor, mu: float, problem: Problem) -> _Smoothed:
    """Smoothed components and objective at a flat dual vector, unchecked."""
    return _at_level(_parts(flat, factor, problem), mu, problem)


def _gradient(flat: np.ndarray, at: _Smoothed, mu: float, problem: Problem) -> np.ndarray:
    """Flat gradient of the smoothed objective from its components ``at``.

    The gradient is the softmax-weighted combination of the component
    gradients, read off ``samples_t`` alone: ``s' w`` and ``xi_b' v``
    come from one two-column product ``samples_t @ [w | v]``, and the
    weighted Gram ``s' diag(w) s`` from one symmetric rank-k update of
    ``samples_t`` scaled by ``sqrt(w)`` into ``scratch``.  The
    matrix block ``C + g mu_hat' + mu_hat g' - Gram`` is exactly
    symmetric term by term, so ascent directions stay inside the
    symmetric matrices that the feasible set uses.
    """
    samples_t, amb, model = problem.samples_t, problem.amb, problem.model
    d = samples_t.shape[0] - 1
    m = d + 1
    x = flat[:d]
    mu_hat = amb.mu_hat
    parts = at.parts
    weights = at.spread / at.spread_sum
    weights[weights < WEIGHT_FLUSH] = 0.0

    sig = _logistic(parts.t, at.tail)
    psi_prime = _smooth_psi_prime(parts.c, mu, model.psi)
    coef = model.cvar_coef

    pair = np.empty((samples_t.shape[1], 2))
    pair[:, 0] = weights
    np.multiply(weights, psi_prime + coef * sig, out=pair[:, 1])
    sums = samples_t @ pair
    scaled = np.multiply(samples_t, np.sqrt(weights), out=problem.scratch[:m])
    gram = scaled @ scaled.T

    grad = np.empty(d + 1 + m + m * m)
    grad[:d] = 2.0 * model.tau1 * x - sums[:d, 1]
    grad[d] = model.tau2 - coef * float(weights @ sig)
    g_norm = (amb.kappa1 / at.norm_val) * parts.su
    grad[d + 1 : d + 1 + m] = mu_hat + g_norm - sums[:, 0]
    glam = grad[d + 1 + m :].reshape(m, m)
    cross = np.multiply.outer(g_norm, mu_hat)
    np.add(cross, cross.T, out=glam)
    glam += problem.moment
    glam -= gram
    return grad


def _checked(nu: DualPoint, samples: SampleSet, mu, amb: AmbiguityParams, model: ModelParams):
    """Validate a wrapper's inputs; return ``(flat nu, mu, record, kernel result)``."""
    mu = _mu_value(mu)
    problem = _problem(nu, samples, amb, model)
    flat = nu.to_array()
    return flat, mu, problem, _smooth(flat, None, mu, problem)


def smooth_h_values(
    nu: DualPoint,
    samples: SampleSet,
    mu,
    amb: AmbiguityParams,
    model: ModelParams,
) -> np.ndarray:
    """Smoothed max-components for every sample row, shape ``(N,)``."""
    return _checked(nu, samples, mu, amb, model)[3].vals


def smooth_phi(
    nu: DualPoint,
    samples: SampleSet,
    mu,
    amb: AmbiguityParams,
    model: ModelParams,
) -> float:
    """Log-sum-exp aggregation ``mu * log(sum_i exp(h_i / mu))`` of the components."""
    return _checked(nu, samples, mu, amb, model)[3].value


def grad_smooth_phi(
    nu: DualPoint,
    samples: SampleSet,
    mu,
    amb: AmbiguityParams,
    model: ModelParams,
) -> DualPoint:
    """Gradient of :func:`smooth_phi`, packaged blockwise as a DualPoint."""
    flat, mu, problem, at = _checked(nu, samples, mu, amb, model)
    grad = _gradient(flat, at, mu, problem)
    return DualPoint.from_array(grad, nu.dim)

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

The kernel runs on a :class:`_Kernel`, the per-solve state built once:
``samples_t``, the one contiguous ``(d + 1) x N`` copy of the samples
that every product reads, a ``(d + 3) x N`` scratch buffer that each
product overwrites and no result keeps a view of, and the moment matrix
``C = kappa2 * sigma_hat + mu_hat mu_hat'``.  The first stage, free of
``mu``, computes per sample ``xi' lam xi + q' xi``, the tracking
deviation and the plus-part argument, plus ``<C, lam> + q' mu_hat + ...``,
from one GEMM of ``[F | q | (x; 0)]'``, of height ``rank(lam) + 2 <= d + 3``,
with ``samples_t``; ``F`` is an eigen-factor of ``sym(lam)`` (inside the
solver, the PSD projection's own).  The second stage applies the
surrogates and the log-sum-exp at level ``mu`` in O(N).  The gradient
scales ``samples_t`` by ``sqrt(w)`` into the buffer for the weighted
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
    PsiKind,
    SampleSet,
    _check_sample_dim,
    _h1,
    _moment,
    _split_flat,
)
from .projections import _eigen_factor

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


def _plus_and_tail(t: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Smooth plus-part of ``t`` and its tail ``exp(-|t| / mu)``, 0 below ``exp(_EXP_FLOOR)``."""
    arg = -np.abs(t) / mu
    tail = np.where(arg > _EXP_FLOOR, np.exp(np.maximum(arg, _EXP_FLOOR)), 0.0)
    return np.maximum(t, 0.0) + mu * np.log1p(tail), tail


def _logistic(t: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """``logistic(t / mu)`` from the tail ``exp(-|t| / mu)``, which cannot overflow."""
    return np.where(t >= 0.0, 1.0, tail) / (1.0 + tail)


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


class _Kernel(NamedTuple):
    """Per-solve state of the step kernel, built once by :func:`_kernel`."""

    d: int
    samples_t: np.ndarray  # contiguous (d + 1) x N copy of the samples
    buf: np.ndarray  # (d + 3) x N scratch, overwritten by every product
    moment: np.ndarray  # C = kappa2 * sym(sigma_hat) + mu_hat mu_hat'
    amb: AmbiguityParams
    model: ModelParams


def _kernel(samples: SampleSet, amb: AmbiguityParams, model: ModelParams) -> _Kernel:
    """The kernel state for ``samples``; its buffer is private to one solve."""
    samples_t = np.ascontiguousarray(samples.samples.T)
    m, n = samples_t.shape
    return _Kernel(m - 1, samples_t, np.empty((m + 2, n)), _moment(amb), amb, model)


def _parts(flat: np.ndarray, factor, kern: _Kernel) -> _Parts:
    """The mu-free stage at a flat dual vector, unchecked.

    ``factor = (F, p)``, from :func:`drtrack.projections._eigen_factor`,
    writes ``sym(lam)`` as ``P P' - Q Q'`` with
    ``P = F[:, :p]`` and ``Q = F[:, p:]``.  One product of
    ``[F | q | (x; 0)]'`` with ``samples_t``, written into the scratch
    buffer, yields the quadratic forms as column sums of squares,
    ``q' xi`` and the portfolio returns ``x' xi_b``; the index returns
    are the last row of ``samples_t``.  The parts copy what they keep.
    """
    d, samples_t, amb = kern.d, kern.samples_t, kern.amb
    x, alpha, q, lam = _split_flat(flat, d)
    u = q + 2.0 * lam @ amb.mu_hat
    su = amb.sigma_hat @ u
    cols, npos = factor
    r = cols.shape[1]
    left = np.zeros((r + 2, d + 1))
    left[:r] = cols.T
    left[r] = q
    left[r + 1, :d] = x
    prod = np.matmul(left, samples_t, out=kern.buf[: r + 2])
    pos = prod[:npos]
    quad = np.einsum("ij,ij->j", pos, pos)
    if npos < r:
        neg = prod[npos:r]
        quad -= np.einsum("ij,ij->j", neg, neg)
    quad += prod[r]
    losses = -prod[r + 1]
    c = samples_t[d] + losses
    t = losses - alpha
    h1 = _h1(x, alpha, q, lam, kern.moment, amb.mu_hat, kern.model)
    return _Parts(h1, float(u @ su), su, quad, c, t)


def _at_level(parts: _Parts, mu: float, kern: _Kernel) -> _Smoothed:
    """The O(N) stage: components and log-sum-exp at level ``mu``.

    The log-sum-exp, taken against the running maximum, brackets the
    largest component within ``mu * log(N)``.
    """
    norm_val = math.sqrt(kern.amb.kappa1 * parts.usu + mu)
    plus, tail = _plus_and_tail(parts.t, mu)
    vals = (
        parts.h1
        + norm_val
        + _psi(parts.c, mu, kern.model.psi)
        - parts.quad
        + kern.model.cvar_coef * plus
    )
    top = float(vals.max())
    spread = np.exp((vals - top) / mu)
    spread_sum = float(spread.sum())
    value = top + mu * math.log(spread_sum)
    return _Smoothed(parts, value, vals, spread, spread_sum, tail, norm_val)


def _smooth(flat: np.ndarray, factor, mu: float, kern: _Kernel) -> _Smoothed:
    """Smoothed components and objective at a flat dual vector, unchecked."""
    return _at_level(_parts(flat, factor, kern), mu, kern)


def _gradient(flat: np.ndarray, at: _Smoothed, mu: float, kern: _Kernel) -> np.ndarray:
    """Flat gradient of the smoothed objective from its components ``at``.

    The gradient is the softmax-weighted combination of the component
    gradients, read off ``samples_t`` alone: ``s' w`` and ``xi_b' v``
    come from one two-column product ``samples_t @ [w | v]``, and the
    weighted Gram ``s' diag(w) s`` from one symmetric rank-k update of
    ``samples_t`` scaled by ``sqrt(w)`` into the scratch buffer.  The
    matrix block ``C + g mu_hat' + mu_hat g' - Gram`` is exactly
    symmetric term by term, so ascent directions stay inside the
    symmetric matrices that the feasible set uses.
    """
    d, samples_t, amb, model = kern.d, kern.samples_t, kern.amb, kern.model
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
    scaled = np.multiply(samples_t, np.sqrt(weights), out=kern.buf[:m])
    gram = scaled @ scaled.T

    grad = np.empty(d + 1 + m + m * m)
    grad[:d] = 2.0 * model.tau1 * x - sums[:d, 1]
    grad[d] = model.tau2 - coef * float(weights @ sig)
    g_norm = (amb.kappa1 / at.norm_val) * parts.su
    grad[d + 1 : d + 1 + m] = mu_hat + g_norm - sums[:, 0]
    glam = grad[d + 1 + m :].reshape(m, m)
    cross = np.multiply.outer(g_norm, mu_hat)
    np.add(cross, cross.T, out=glam)
    glam += kern.moment
    glam -= gram
    return grad


def _checked(nu: DualPoint, samples: SampleSet, mu, amb: AmbiguityParams, model: ModelParams):
    """Validate a wrapper's inputs; return ``(flat nu, mu, kernel state, kernel result)``."""
    mu = _mu_value(mu)
    _check_sample_dim(samples.samples.shape[1], nu.dim, "samples")
    _check_sample_dim(amb.dim, nu.dim, "ambiguity parameters")
    flat = nu.to_array()
    factor = _eigen_factor(0.5 * (nu.lam + nu.lam.T))
    kern = _kernel(samples, amb, model)
    return flat, mu, kern, _smooth(flat, factor, mu, kern)


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
    flat, mu, kern, at = _checked(nu, samples, mu, amb, model)
    grad = _gradient(flat, at, mu, kern)
    return DualPoint.from_array(grad, nu.dim)

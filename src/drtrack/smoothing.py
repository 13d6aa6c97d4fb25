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

The kernel runs in two stages.  The first, free of ``mu``, computes
per sample the quadratic form ``xi' lam xi + q' xi``, the tracking
deviation and the plus-part argument, plus the sample-free terms.  The
quadratic forms come from one product of the samples with
``[F | q | (x; 0)]``, where ``F`` is an eigen-factor of the symmetric
part of ``lam`` (the PSD projection's own factor inside the solver),
so a trial costs one GEMM of width ``rank(lam) + 2``.  The second stage
applies the surrogates and the log-sum-exp at level ``mu`` in O(N), so
a new smoothing level re-runs only that stage.  The gradient forms the
weighted Gram ``sum_i w_i xi_i xi_i'`` as a symmetric rank-k update.
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
    """Smooth plus-part of ``t`` and its tail ``exp(-|t| / mu)``."""
    tail = np.exp(-np.abs(t) / mu)
    return np.maximum(t, 0.0) + mu * np.log1p(tail), tail


def _logistic(t: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """``logistic(t / mu)`` from the tail ``exp(-|t| / mu)``, which cannot overflow."""
    return np.where(t >= 0.0, 1.0, tail) / (1.0 + tail)


def smooth_abs(a, mu):
    """Smooth absolute value ``sqrt(a^2 + mu)``, elementwise."""
    mu = _mu_value(mu)
    a = np.asarray(a, dtype=float)
    out = np.sqrt(np.square(a) + mu)
    return float(out) if out.ndim == 0 else out


def smooth_psi(c, mu, kind: PsiKind):
    """Smoothed tracking penalty; the squared kind is already smooth."""
    if kind is PsiKind.SQUARED:
        c = np.asarray(c, dtype=float)
        out = np.square(c)
        return float(out) if out.ndim == 0 else out
    if kind is PsiKind.ABSOLUTE:
        return smooth_abs(c, mu)
    raise InvalidInputError(f"unknown psi kind {kind!r}")


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


def _parts(flat: np.ndarray, factor, d: int, samples: SampleSet, amb, model) -> _Parts:
    """The mu-free stage at a flat dual vector, unchecked.

    ``factor = (F, p)``, from :func:`drtrack.projections._eigen_factor`,
    writes ``sym(lam)`` as ``P P' - Q Q'`` with
    ``P = F[:, :p]`` and ``Q = F[:, p:]``.  One product of the samples
    with ``[F | q | (x; 0)]`` yields the quadratic forms as row sums of
    squares, ``xi' q`` and the portfolio returns ``xi_b' x``.
    """
    x, alpha, q, lam = _split_flat(flat, d)
    u = q + 2.0 * lam @ amb.mu_hat
    su = amb.sigma_hat @ u
    cols, npos = factor
    r = cols.shape[1]
    right = np.zeros((d + 1, r + 2))
    right[:, :r] = cols
    right[:, r] = q
    right[:d, r + 1] = x
    prod = samples.samples @ right
    pos = prod[:, :npos]
    quad = np.einsum("ij,ij->i", pos, pos)
    if npos < r:
        neg = prod[:, npos:r]
        quad -= np.einsum("ij,ij->i", neg, neg)
    quad += prod[:, r]
    losses = -prod[:, r + 1]
    c = samples.xi_a + losses
    t = losses - alpha
    return _Parts(_h1(x, alpha, q, lam, amb, model), float(u @ su), su, quad, c, t)


def _at_level(parts: _Parts, mu: float, amb, model) -> _Smoothed:
    """The O(N) stage: components and log-sum-exp at level ``mu``.

    The log-sum-exp, taken against the running maximum, brackets the
    largest component within ``mu * log(N)``.
    """
    norm_val = math.sqrt(amb.kappa1 * parts.usu + mu)
    plus, tail = _plus_and_tail(parts.t, mu)
    vals = (
        parts.h1
        + norm_val
        + smooth_psi(parts.c, mu, model.psi)
        - parts.quad
        + model.cvar_coef * plus
    )
    top = float(vals.max())
    spread = np.exp((vals - top) / mu)
    spread_sum = float(spread.sum())
    value = top + mu * math.log(spread_sum)
    return _Smoothed(parts, value, vals, spread, spread_sum, tail, norm_val)


def _smooth(
    flat: np.ndarray, factor, d: int, samples: SampleSet, mu: float, amb, model
) -> _Smoothed:
    """Smoothed components and objective at a flat dual vector, unchecked."""
    return _at_level(_parts(flat, factor, d, samples, amb, model), mu, amb, model)


def _gradient(
    flat: np.ndarray, d: int, at: _Smoothed, samples: SampleSet, mu: float, amb, model
) -> np.ndarray:
    """Flat gradient of the smoothed objective from its components ``at``.

    The gradient is the softmax-weighted combination of the component
    gradients.  ``s' w`` and ``xi_b' v`` come from one two-column
    product and the weighted Gram ``s' diag(w) s`` from one symmetric
    rank-k update of ``sqrt(w) s``.  The matrix block is symmetrised
    so ascent directions stay inside the symmetric matrices that the
    feasible set uses.
    """
    x = flat[:d]
    s = samples.samples
    mu_hat = amb.mu_hat
    parts = at.parts
    weights = at.spread / at.spread_sum
    weights[weights < WEIGHT_FLUSH] = 0.0

    sig = _logistic(parts.t, at.tail)
    psi_prime = _smooth_psi_prime(parts.c, mu, model.psi)
    coef = model.cvar_coef

    pair = np.empty((s.shape[0], 2))
    pair[:, 0] = weights
    np.multiply(weights, psi_prime + coef * sig, out=pair[:, 1])
    sums = s.T @ pair
    scaled = s * np.sqrt(weights)[:, None]
    gram = scaled.T @ scaled

    gx = 2.0 * model.tau1 * x - sums[:d, 1]
    galpha = model.tau2 - coef * float(weights @ sig)
    g_norm = (amb.kappa1 / at.norm_val) * parts.su
    gq = mu_hat + g_norm - sums[:, 0]
    glam = (
        amb.kappa2 * amb.sigma_hat
        + np.outer(mu_hat, mu_hat)
        + 2.0 * np.outer(g_norm, mu_hat)
        - gram
    )
    glam = 0.5 * (glam + glam.T)
    return np.concatenate([gx, [galpha], gq, glam.ravel()])


def _checked(nu: DualPoint, samples: SampleSet, mu, amb: AmbiguityParams, model: ModelParams):
    """Validate a wrapper's inputs; return ``nu`` flattened, ``mu`` and the kernel result."""
    mu = _mu_value(mu)
    _check_sample_dim(samples.samples.shape[1], nu.dim, "samples")
    _check_sample_dim(amb.dim, nu.dim, "ambiguity parameters")
    flat = nu.to_array()
    factor = _eigen_factor(0.5 * (nu.lam + nu.lam.T))
    return flat, mu, _smooth(flat, factor, nu.dim, samples, mu, amb, model)


def smooth_h_values(
    nu: DualPoint,
    samples: SampleSet,
    mu,
    amb: AmbiguityParams,
    model: ModelParams,
) -> np.ndarray:
    """Smoothed max-components for every sample row, shape ``(N,)``."""
    return _checked(nu, samples, mu, amb, model)[2].vals


def smooth_phi(
    nu: DualPoint,
    samples: SampleSet,
    mu,
    amb: AmbiguityParams,
    model: ModelParams,
) -> float:
    """Log-sum-exp aggregation ``mu * log(sum_i exp(h_i / mu))`` of the components."""
    return _checked(nu, samples, mu, amb, model)[2].value


def grad_smooth_phi(
    nu: DualPoint,
    samples: SampleSet,
    mu,
    amb: AmbiguityParams,
    model: ModelParams,
) -> DualPoint:
    """Gradient of :func:`smooth_phi`, packaged blockwise as a DualPoint."""
    flat, mu, at = _checked(nu, samples, mu, amb, model)
    return DualPoint.from_array(_gradient(flat, nu.dim, at, samples, mu, amb, model), nu.dim)

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

__all__ = [
    "SmoothingParam",
    "smooth_plus",
    "smooth_abs",
    "smooth_psi",
    "smooth_h",
    "smooth_h_values",
    "smooth_phi",
    "grad_smooth_phi",
]

# Normalised softmax weights below this threshold are flushed to zero;
# they are far beneath double-precision resolution of the weighted sums.
WEIGHT_FLUSH = 1e-300


@dataclass(frozen=True)
class SmoothingParam:
    """Validated carrier for a smoothing level ``mu > 0``."""

    mu: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", _mu_value(self.mu))


def _mu_value(mu) -> float:
    if isinstance(mu, SmoothingParam):
        return mu.mu
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


class _Smoothed(NamedTuple):
    """The smoothed components at one point, with what the gradient reuses."""

    value: float  # mu * logsumexp(vals / mu)
    vals: np.ndarray  # smoothed max-components, shape (N,)
    spread: np.ndarray  # exp((vals - max(vals)) / mu), the unnormalised softmax
    spread_sum: float
    c: np.ndarray  # tracking deviations xi_a - xi_b @ x
    t: np.ndarray  # plus-part arguments loss - alpha
    tail: np.ndarray  # exp(-|t| / mu)
    norm_val: float  # smoothed mean-ellipsoid term
    su: np.ndarray  # sigma_hat @ (q + 2 lam mu_hat)


def _smooth(flat: np.ndarray, d: int, samples: SampleSet, mu: float, amb, model) -> _Smoothed:
    """Smoothed components and objective at a flat dual vector, unchecked.

    The log-sum-exp, taken against the running maximum, brackets the
    largest component within ``mu * log(N)``.
    """
    x, alpha, q, lam = _split_flat(flat, d)
    u = q + 2.0 * lam @ amb.mu_hat
    su = amb.sigma_hat @ u
    norm_val = math.sqrt(amb.kappa1 * float(u @ su) + mu)
    base = _h1(x, alpha, q, lam, amb, model) + norm_val
    s = samples.samples
    losses = -(samples.xi_b @ x)
    c = samples.xi_a + losses
    t = losses - alpha
    quad = np.sum((s @ lam) * s, axis=1) + s @ q
    plus, tail = _plus_and_tail(t, mu)
    vals = base + smooth_psi(c, mu, model.psi) - quad + model.cvar_coef * plus
    top = float(vals.max())
    spread = np.exp((vals - top) / mu)
    spread_sum = float(spread.sum())
    value = top + mu * math.log(spread_sum)
    return _Smoothed(value, vals, spread, spread_sum, c, t, tail, norm_val, su)


def _gradient(
    flat: np.ndarray, d: int, at: _Smoothed, samples: SampleSet, mu: float, amb, model
) -> np.ndarray:
    """Flat gradient of the smoothed objective from its components ``at``.

    The gradient is the softmax-weighted combination of the component
    gradients.  The matrix block is symmetrised so ascent directions
    stay inside the symmetric matrices that the feasible set uses.
    """
    x = flat[:d]
    s = samples.samples
    mu_hat = amb.mu_hat
    weights = at.spread / at.spread_sum
    weights[weights < WEIGHT_FLUSH] = 0.0

    # logistic(t / mu), from the tail exp(-|t| / mu) that cannot overflow
    sig = np.where(at.t >= 0.0, 1.0, at.tail) / (1.0 + at.tail)
    psi_prime = _smooth_psi_prime(at.c, mu, model.psi)
    coef = model.cvar_coef

    gx = 2.0 * model.tau1 * x - samples.xi_b.T @ (weights * (psi_prime + coef * sig))
    galpha = model.tau2 - coef * float(weights @ sig)
    g_norm = (amb.kappa1 / at.norm_val) * at.su
    gq = mu_hat + g_norm - s.T @ weights
    glam = (
        amb.kappa2 * amb.sigma_hat
        + np.outer(mu_hat, mu_hat)
        + 2.0 * np.outer(g_norm, mu_hat)
        - (s * weights[:, None]).T @ s
    )
    glam = 0.5 * (glam + glam.T)
    return np.concatenate([gx, [galpha], gq, glam.ravel()])


def _checked(nu: DualPoint, samples: SampleSet, mu, amb: AmbiguityParams, model: ModelParams):
    """Validate a wrapper's inputs; return ``nu`` flattened, ``mu`` and the kernel result."""
    mu = _mu_value(mu)
    _check_sample_dim(samples.samples.shape[1], nu.dim, "samples")
    _check_sample_dim(amb.dim, nu.dim, "ambiguity parameters")
    flat = nu.to_array()
    return flat, mu, _smooth(flat, nu.dim, samples, mu, amb, model)


def smooth_h_values(
    nu: DualPoint,
    samples: SampleSet,
    mu,
    amb: AmbiguityParams,
    model: ModelParams,
) -> np.ndarray:
    """Smoothed max-components for every sample row, shape ``(N,)``."""
    return _checked(nu, samples, mu, amb, model)[2].vals


def smooth_h(
    nu: DualPoint, xi, mu, amb: AmbiguityParams, model: ModelParams
) -> float:
    """Smoothed max-component at a single joint sample ``xi``."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 1:
        raise InvalidInputError(f"xi must be a 1-d array, got shape {xi.shape}")
    vals = smooth_h_values(nu, SampleSet(xi[None, :]), mu, amb, model)
    return float(vals[0])


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

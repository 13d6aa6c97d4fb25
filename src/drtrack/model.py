"""Core types and exact objective evaluations for robust index tracking.

The model picks portfolio weights on the unit simplex so that the
portfolio return follows an index return, with a ridge penalty on the
weights and a CVaR penalty on portfolio loss.  Robustness against
sampling error enters through an ambiguity set of distributions whose
mean lies in an ellipsoid around the estimated mean and whose centered
second moment is bounded by a multiple of the estimated covariance.
Dualising the worst-case expectation turns the objective into a
pointwise maximum, over the sample points, of functions ``h`` of the
combined variable ``nu = (x, alpha, q, lam)``.  This module evaluates
those functions exactly; smoothed counterparts live in
:mod:`drtrack.smoothing`.

Convention: a joint sample ``xi`` stacks the tracked assets first and
the index last, so ``xi = (xi_b, xi_a)`` has length ``d + 1`` when
there are ``d`` investable assets.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "PsiKind",
    "ModelParams",
    "AmbiguityParams",
    "SampleSet",
    "DiscreteDistribution",
    "DualPoint",
    "FeasibilityReport",
    "evaluate_khat",
    "h_values",
    "evaluate_phi_n",
    "portfolio_losses",
    "var_threshold",
    "cvar_discrete",
    "check_moment_feasibility",
]


def _readonly_vector(value, name: str, size: int | None = None) -> np.ndarray:
    arr = np.array(value, dtype=float, copy=True)
    if arr.ndim != 1:
        raise InvalidInputError(f"{name} must be a 1-d array, got shape {arr.shape}")
    if size is not None and arr.shape[0] != size:
        raise InvalidInputError(f"{name} must have length {size}, got {arr.shape[0]}")
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def _readonly_matrix(value, name: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    arr = np.array(value, dtype=float, copy=True)
    if arr.ndim != 2:
        raise InvalidInputError(f"{name} must be a 2-d array, got shape {arr.shape}")
    if shape is not None and arr.shape != shape:
        raise InvalidInputError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def _finite_float(value, name: str) -> float:
    out = float(value)
    if not math.isfinite(out):
        raise InvalidInputError(f"{name} must be finite, got {out!r}")
    return out


class PsiKind(enum.Enum):
    """Shape of the tracking-error penalty applied to a single deviation."""

    SQUARED = "squared"
    ABSOLUTE = "absolute"


def psi_value(c, kind: PsiKind):
    """Tracking penalty of a deviation ``c``; elementwise on arrays."""
    if kind is PsiKind.SQUARED:
        return np.square(c)
    if kind is PsiKind.ABSOLUTE:
        return np.abs(c)
    raise InvalidInputError(f"unknown psi kind {kind!r}")


@dataclass(frozen=True)
class ModelParams:
    """Penalty weights and CVaR level for the tracking objective.

    ``tau1`` scales the squared-norm ridge on the weights, ``tau2``
    scales the CVaR penalty at level ``beta``, and ``psi`` selects the
    per-sample tracking penalty.  The defaults are the CLI's.
    """

    tau1: float = 2e-4
    tau2: float = 2e-4
    beta: float = 0.95
    psi: PsiKind = PsiKind.SQUARED

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau1", _finite_float(self.tau1, "tau1"))
        object.__setattr__(self, "tau2", _finite_float(self.tau2, "tau2"))
        object.__setattr__(self, "beta", _finite_float(self.beta, "beta"))
        if self.tau1 < 0 or self.tau2 < 0:
            raise InvalidInputError("tau1 and tau2 must be nonnegative")
        if not 0.0 < self.beta < 1.0:
            raise InvalidInputError(f"beta must lie in (0, 1), got {self.beta}")
        if not isinstance(self.psi, PsiKind):
            raise InvalidInputError(f"psi must be a PsiKind, got {self.psi!r}")

    @property
    def cvar_coef(self) -> float:
        """Weight ``tau2 / (1 - beta)`` multiplying the plus-part terms."""
        return self.tau2 / (1.0 - self.beta)


@dataclass(frozen=True, eq=False)
class AmbiguityParams:
    """Moment information defining the ambiguity set.

    Distributions are admitted when their mean ``m`` satisfies
    ``(m - mu_hat)' inv(sigma_hat) (m - mu_hat) <= kappa1`` and their
    centered second moment is dominated by ``kappa2 * sigma_hat`` in
    the semidefinite order.  ``sigma_hat`` must be symmetric positive
    definite.
    """

    mu_hat: np.ndarray
    sigma_hat: np.ndarray
    kappa1: float
    kappa2: float

    def __post_init__(self) -> None:
        mu = _readonly_vector(self.mu_hat, "mu_hat")
        n = mu.shape[0]
        sig = _readonly_matrix(self.sigma_hat, "sigma_hat", (n, n))
        scale = max(1.0, float(np.abs(sig).max()))
        if float(np.abs(sig - sig.T).max()) > 1e-12 * scale:
            raise InvalidInputError("sigma_hat must be symmetric")
        kappa1 = _finite_float(self.kappa1, "kappa1")
        kappa2 = _finite_float(self.kappa2, "kappa2")
        if kappa1 < 0:
            raise InvalidInputError("kappa1 must be nonnegative")
        if kappa2 <= 0:
            raise InvalidInputError("kappa2 must be positive")
        smallest = float(np.linalg.eigvalsh(sig)[0])
        if smallest <= 0:
            raise InvalidInputError(
                f"sigma_hat must be positive definite (min eigenvalue {smallest:.3e})"
            )
        object.__setattr__(self, "mu_hat", mu)
        object.__setattr__(self, "sigma_hat", sig)
        object.__setattr__(self, "kappa1", kappa1)
        object.__setattr__(self, "kappa2", kappa2)

    @property
    def dim(self) -> int:
        """Length of the joint return vector, ``d + 1``."""
        return self.mu_hat.shape[0]


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Matrix of joint return samples, one row per scenario.

    Each row is ``(xi_b, xi_a)``: the ``d`` asset returns followed by
    the index return.
    """

    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = _readonly_matrix(self.samples, "samples")
        if arr.shape[0] < 1 or arr.shape[1] < 2:
            raise InvalidInputError(
                f"samples must have at least 1 row and 2 columns, got {arr.shape}"
            )
        object.__setattr__(self, "samples", arr)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_assets(self) -> int:
        return self.samples.shape[1] - 1

    @property
    def xi_b(self) -> np.ndarray:
        """Asset-return block, shape ``(N, d)``."""
        return self.samples[:, :-1]

    @property
    def xi_a(self) -> np.ndarray:
        """Index-return column, shape ``(N,)``."""
        return self.samples[:, -1]


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Probability weights over the rows of a :class:`SampleSet`."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = _readonly_vector(self.weights, "weights")
        if w.shape[0] < 1:
            raise InvalidInputError("weights must be non-empty")
        if w.min() < 0:
            raise InvalidInputError(f"weights must be nonnegative (min {w.min():.3e})")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-12:
            raise InvalidInputError(f"weights must sum to 1, got {total!r}")
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, n: int) -> "DiscreteDistribution":
        if n < 1:
            raise InvalidInputError("n must be at least 1")
        return cls(np.full(n, 1.0 / n))


@dataclass(frozen=True, eq=False)
class DualPoint:
    """Combined primal-dual variable ``nu = (x, alpha, q, lam)``.

    ``x`` holds the ``d`` portfolio weights, ``alpha`` the CVaR
    threshold, and ``(q, lam)`` the vector and matrix multipliers of
    the moment constraints, of size ``d + 1`` and ``(d+1, d+1)``.
    Feasibility (simplex ``x``, symmetric PSD ``lam``) is not enforced
    here; see :func:`drtrack.projections.project_feasible`.
    """

    x: np.ndarray
    alpha: float
    q: np.ndarray
    lam: np.ndarray

    def __post_init__(self) -> None:
        x = _readonly_vector(self.x, "x")
        d = x.shape[0]
        alpha = _finite_float(self.alpha, "alpha")
        q = _readonly_vector(self.q, "q", d + 1)
        lam = _readonly_matrix(self.lam, "lam", (d + 1, d + 1))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "lam", lam)

    @property
    def dim(self) -> int:
        """Number of assets ``d``."""
        return self.x.shape[0]

    def to_array(self) -> np.ndarray:
        """Flatten to ``(x, alpha, q, lam.ravel())`` in one vector."""
        return np.concatenate([self.x, [self.alpha], self.q, self.lam.ravel()])

    @classmethod
    def from_array(cls, vec: np.ndarray, d: int) -> "DualPoint":
        """Inverse of :meth:`to_array` for ``d`` assets."""
        vec = np.asarray(vec, dtype=float)
        expected = d + 1 + (d + 1) * (d + 2)
        if vec.ndim != 1 or vec.shape[0] != expected:
            raise InvalidInputError(
                f"flat dual vector must have length {expected}, got shape {vec.shape}"
            )
        return cls(*_split_flat(vec, d))


def _split_flat(vec: np.ndarray, d: int):
    """Views ``x, q, lam`` of a flat ``(x | alpha | q | vec(lam))``.

    Returned as ``(x, float alpha, q, lam)``.  Unchecked: the solver
    calls it on vectors it built itself.
    """
    m = d + 1
    return vec[:d], float(vec[d]), vec[d + 1 : d + 1 + m], vec[d + 1 + m :].reshape(m, m)


@dataclass(frozen=True)
class FeasibilityReport:
    """Slacks of the two moment constraints for a candidate distribution.

    ``mean_slack`` is ``kappa1`` minus the squared Mahalanobis distance
    of the mean; ``cov_slack`` is the smallest eigenvalue of
    ``kappa2 * sigma_hat`` minus the centered second moment.  Both are
    nonnegative (up to a small tolerance) iff the distribution lies in
    the ambiguity set.
    """

    mean_slack: float
    cov_slack: float
    feasible: bool


def _check_sample_dim(entity_dim: int, d: int, what: str) -> None:
    if entity_dim != d + 1:
        raise InvalidInputError(
            f"{what} has dimension {entity_dim}, expected {d + 1} for {d} assets"
        )


def evaluate_khat(x, alpha, xi, model: ModelParams) -> float:
    """Per-scenario objective: tracking penalty, CVaR excess, and ridge.

    Computes ``psi(xi_a - xi_b @ x) + tau2/(1-beta) * max(-x @ xi_b - alpha, 0)
    + tau1 * ||x||^2 + tau2 * alpha`` for one joint sample ``xi``.
    """
    x = _readonly_vector(x, "x")
    alpha = _finite_float(alpha, "alpha")
    xi = _readonly_vector(xi, "xi")
    _check_sample_dim(xi.shape[0], x.shape[0], "xi")
    xi_b, xi_a = xi[:-1], xi[-1]
    loss = -float(xi_b @ x)
    c = float(xi_a) + loss  # xi_a - x @ xi_b
    value = float(psi_value(c, model.psi))
    value += model.cvar_coef * max(loss - alpha, 0.0)
    value += model.tau1 * float(x @ x) + model.tau2 * alpha
    return value


def _h1(x, alpha, q, lam, amb: AmbiguityParams, model: ModelParams) -> float:
    """Sample-free part of ``h``: multiplier terms plus penalties."""
    mu = amb.mu_hat
    value = amb.kappa2 * float(np.sum(amb.sigma_hat * lam))
    value += float(mu @ lam @ mu) + float(q @ mu)
    value += model.tau1 * float(x @ x) + model.tau2 * alpha
    return value


def h_values(
    nu: DualPoint, samples: SampleSet, amb: AmbiguityParams, model: ModelParams
) -> np.ndarray:
    """All max-components ``h(nu, xi_i)`` at once, shape ``(N,)``.

    Each row is the sample-free part, plus the mean-ellipsoid term
    ``sqrt(kappa1) * ||sigma_hat^(1/2) (q + 2 lam mu_hat)||``, plus the
    terms of sample ``xi_i``.
    """
    _check_sample_dim(samples.samples.shape[1], nu.dim, "samples")
    _check_sample_dim(amb.dim, nu.dim, "ambiguity parameters")
    u = nu.q + 2.0 * nu.lam @ amb.mu_hat
    norm = math.sqrt(amb.kappa1 * max(float(u @ amb.sigma_hat @ u), 0.0))
    base = _h1(nu.x, nu.alpha, nu.q, nu.lam, amb, model) + norm
    s = samples.samples
    losses = -(samples.xi_b @ nu.x)
    c = samples.xi_a + losses
    quad = np.sum((s @ nu.lam) * s, axis=1) + s @ nu.q
    plus = np.maximum(losses - nu.alpha, 0.0)
    return base + psi_value(c, model.psi) - quad + model.cvar_coef * plus


def evaluate_phi_n(
    nu: DualPoint, samples: SampleSet, amb: AmbiguityParams, model: ModelParams
) -> tuple[float, int]:
    """Exact dual objective ``max_i h(nu, xi_i)`` and the first argmax row."""
    vals = h_values(nu, samples, amb, model)
    idx = int(np.argmax(vals))
    return float(vals[idx]), idx


def portfolio_losses(x, samples: SampleSet) -> np.ndarray:
    """Per-scenario portfolio losses ``-x @ xi_b``, shape ``(N,)``."""
    x = _readonly_vector(x, "x", samples.n_assets)
    return -(samples.xi_b @ x)


def var_threshold(x, samples: SampleSet, beta: float) -> float:
    """Value-at-risk of the scenario losses: the ceil((1-beta)N)-th largest loss."""
    beta = _finite_float(beta, "beta")
    if not 0.0 < beta < 1.0:
        raise InvalidInputError(f"beta must lie in (0, 1), got {beta}")
    return _loss_quantile(portfolio_losses(x, samples), beta)


def _loss_quantile(losses: np.ndarray, beta: float) -> float:
    """The ceil((1-beta)N)-th largest of ``losses``, unchecked."""
    n = losses.shape[0]
    k = min(max(int(math.ceil((1.0 - beta) * n)), 1), n)
    # k-th largest equals the (n-k)-th entry in ascending order.
    return float(np.partition(losses, n - k)[n - k])


def cvar_discrete(x, samples: SampleSet, beta: float) -> float:
    """CVaR of portfolio losses over the scenarios at level ``beta``.

    Evaluates the exact minimizer of
    ``alpha + mean(max(loss - alpha, 0)) / (1 - beta)`` in closed form
    via the sorted-loss threshold.
    """
    losses = portfolio_losses(x, samples)
    alpha = var_threshold(x, samples, beta)
    n = losses.shape[0]
    excess = float(np.maximum(losses - alpha, 0.0).sum())
    return alpha + excess / ((1.0 - beta) * n)


def check_moment_feasibility(
    dist: DiscreteDistribution, samples: SampleSet, amb: AmbiguityParams
) -> FeasibilityReport:
    """Slacks of the mean-ellipsoid and second-moment constraints.

    The candidate distribution places ``dist.weights`` on the rows of
    ``samples``.  Feasibility is reported with a relative tolerance of
    ``1e-10`` to absorb roundoff in the eigenvalue computation.
    """
    if dist.weights.shape[0] != samples.n_samples:
        raise InvalidInputError(
            f"distribution has {dist.weights.shape[0]} weights "
            f"for {samples.n_samples} samples"
        )
    _check_sample_dim(samples.samples.shape[1], amb.dim - 1, "samples")
    s = samples.samples
    w = dist.weights
    mean = s.T @ w
    dev = mean - amb.mu_hat
    mean_slack = amb.kappa1 - float(dev @ np.linalg.solve(amb.sigma_hat, dev))
    centered = s - amb.mu_hat
    second = (centered * w[:, None]).T @ centered
    gap = amb.kappa2 * amb.sigma_hat - second
    cov_slack = float(np.linalg.eigvalsh(0.5 * (gap + gap.T)).min())
    tol = 1e-10 * max(1.0, float(np.linalg.norm(amb.sigma_hat)) * amb.kappa2)
    feasible = mean_slack >= -tol and cov_slack >= -tol
    return FeasibilityReport(mean_slack=mean_slack, cov_slack=cov_slack, feasible=feasible)

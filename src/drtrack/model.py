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
import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property

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
    "ModelFit",
    "STATUS_CONVERGED",
    "STATUS_ITERATION_CAP",
    "STATUS_STALLED",
    "evaluate_khat",
    "h_values",
    "evaluate_phi_n",
    "portfolio_losses",
    "var_threshold",
    "cvar_discrete",
    "check_moment_feasibility",
]


def _readonly(value, name: str, shape: tuple[int | None, ...]) -> np.ndarray:
    """Read-only float copy of a finite array of ``shape``; a ``None`` size is free."""
    arr = np.array(value, dtype=float, copy=True)
    if arr.ndim != len(shape):
        raise InvalidInputError(f"{name} must be a {len(shape)}-d array, got shape {arr.shape}")
    if any(size not in (None, got) for size, got in zip(shape, arr.shape)):
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


def _check_budget(value, name: str, minimum: int = 1) -> None:
    """Reject a size or index that is not an integer of at least ``minimum`` (or is a ``bool``)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise InvalidInputError(f"{name} must be an integer of at least {minimum}, got {value!r}")


def _checked_radii(kappa1, kappa2) -> tuple[float, float]:
    """The ambiguity radii as floats: finite, ``kappa1 >= 0`` and ``kappa2 > 0``."""
    kappa1, kappa2 = _finite_float(kappa1, "kappa1"), _finite_float(kappa2, "kappa2")
    if kappa1 < 0:
        raise InvalidInputError("kappa1 must be nonnegative")
    if kappa2 <= 0:
        raise InvalidInputError("kappa2 must be positive")
    return kappa1, kappa2


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
        mu = _readonly(self.mu_hat, "mu_hat", (None,))
        n = mu.shape[0]
        sig = _readonly(self.sigma_hat, "sigma_hat", (n, n))
        scale = max(1.0, float(np.abs(sig).max()))
        if float(np.abs(sig - sig.T).max()) > 1e-12 * scale:
            raise InvalidInputError("sigma_hat must be symmetric")
        kappa1, kappa2 = _checked_radii(self.kappa1, self.kappa2)
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
        arr = _readonly(self.samples, "samples", (None, None))
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
        w = _readonly(self.weights, "weights", (None,))
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
        _check_budget(n, "n")
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
        x = _readonly(self.x, "x", (None,))
        d = x.shape[0]
        alpha = _finite_float(self.alpha, "alpha")
        q = _readonly(self.q, "q", (d + 1,))
        lam = _readonly(self.lam, "lam", (d + 1, d + 1))
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
    + tau1 * ||x||^2 + tau2 * alpha`` for one joint sample ``xi``, as the
    one-row mean that ``scvar_objective`` takes over all rows.
    """
    x = _readonly(x, "x", (None,))
    alpha = _finite_float(alpha, "alpha")
    xi = _readonly(xi, "xi", (None,))
    _check_sample_dim(xi.shape[0], x.shape[0], "xi")
    return _scvar_value(x, alpha, -(xi[None, :-1] @ x), xi[-1:], model)


def _scvar_value(x, alpha, losses, xi_a, model: ModelParams) -> float:
    """Mean of :func:`evaluate_khat` over the rows with losses ``-(xi_b @ x)``, unchecked."""
    n = losses.shape[0]
    return (
        float(psi_value(xi_a + losses, model.psi).sum()) / n
        + model.tau1 * float(x @ x)
        + model.tau2 * float(alpha)
        + model.cvar_coef * (float(np.maximum(losses - alpha, 0.0).sum()) / n)
    )


@dataclass(frozen=True, eq=False)
class Problem:
    """The data of one robust fit, checked once.

    ``moment`` is ``C = kappa2 * sym(sigma_hat) + mu_hat mu_hat'``, exactly
    symmetric.  The smoothing kernel's two members are made on first use:
    ``samples_t``, the contiguous ``(d + 1) x N`` copy of the samples that
    every product reads, and ``scratch``, a ``(d + 3) x N`` buffer that
    every product overwrites, so a record serves one solve at a time.
    The exact objective makes neither.
    """

    samples: SampleSet
    amb: AmbiguityParams
    model: ModelParams
    moment: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        amb = self.amb
        _check_sample_dim(amb.dim, self.samples.n_assets, "ambiguity parameters")
        moment = amb.kappa2 * 0.5 * (amb.sigma_hat + amb.sigma_hat.T)
        object.__setattr__(self, "moment", moment + np.outer(amb.mu_hat, amb.mu_hat))

    @cached_property
    def samples_t(self) -> np.ndarray:
        return np.ascontiguousarray(self.samples.samples.T)

    @cached_property
    def scratch(self) -> np.ndarray:
        n, m = self.samples.samples.shape
        return np.empty((m + 2, n))


def _problem(nu: DualPoint, samples: SampleSet, amb, model) -> Problem:
    """The :class:`Problem` of a public entry, whose samples must have ``nu``'s assets."""
    _check_sample_dim(samples.samples.shape[1], nu.dim, "samples")
    return Problem(samples, amb, model)


def _h1(x, alpha, q, lam, problem: Problem) -> float:
    """Sample-free part of ``h``: ``<C, lam> + q' mu_hat`` plus penalties."""
    value = float(np.vdot(problem.moment, lam)) + float(q @ problem.amb.mu_hat)
    value += problem.model.tau1 * float(x @ x) + problem.model.tau2 * alpha
    return value


def h_values(
    nu: DualPoint, samples: SampleSet, amb: AmbiguityParams, model: ModelParams
) -> np.ndarray:
    """All max-components ``h(nu, xi_i)`` at once, shape ``(N,)``.

    Each row is the sample-free part, plus the mean-ellipsoid term
    ``sqrt(kappa1) * ||sigma_hat^(1/2) (q + 2 lam mu_hat)||``, plus the
    terms of sample ``xi_i``.
    """
    return _h_values(nu, _problem(nu, samples, amb, model))


def _h_values(nu: DualPoint, problem: Problem) -> np.ndarray:
    """:func:`h_values` on a record whose assets ``nu`` has, unchecked."""
    amb, model, samples = problem.amb, problem.model, problem.samples
    u = nu.q + 2.0 * nu.lam @ amb.mu_hat
    norm = math.sqrt(amb.kappa1 * max(float(u @ amb.sigma_hat @ u), 0.0))
    base = _h1(nu.x, nu.alpha, nu.q, nu.lam, problem) + norm
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
    x = _readonly(x, "x", (samples.n_assets,))
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


STATUS_CONVERGED = "converged"
STATUS_ITERATION_CAP = "iteration-cap"
STATUS_STALLED = "stalled"

# The SolveResult counts of a drcvar-* fit besides its objective and
# status: a ModelFit's counters, null in the JSON of the other models.
_SPG_COUNTERS = (
    "smooth_objective", "inner_iters", "outer_iters", "grad_evals", "trials", "residual", "mu_final"
)


@dataclass(frozen=True, eq=False)
class ModelFit:
    """One fit of any model, as ``scvar_solve``, ``te_l2_solve`` and ``solve_model`` return it.

    ``objective`` is the exact (dual, for ``drcvar-*``) objective at
    ``weights`` and ``alpha`` the CVaR threshold, None for ``te-l2``.
    ``lower_bound`` certifies it, and ``gap`` is ``(objective -
    lower_bound) / max(|objective|, floor)``, the floor ``TE_L2_GAP``
    times ``mean(xi_a^2) + trace(G)`` over ``GAP_TOLERANCE`` (both in
    :mod:`drtrack.baselines`).  A ``drcvar-*`` fit's ``lower_bound`` is the
    ``scvar-*`` bound on its rows, a floor under the robust optimum while
    the empirical distribution lies in the ambiguity set, and both are
    None when it does not.  ``iters`` counts the ``scvar-*`` or the SPG inner
    iterations (None for ``te-l2``), and ``counters`` holds the
    :data:`_SPG_COUNTERS` of a ``drcvar-*`` fit, empty otherwise.
    ``solve_seconds`` is the wall time of the solver, or of ``solve_model``
    from building the samples on.  ``trace``, if recorded, holds
    ``(cpu_seconds, objective)`` pairs, in seconds of wall time since the
    solve started (``time.perf_counter``), not processor time.
    """

    weights: np.ndarray
    status: str
    objective: float
    alpha: float | None
    lower_bound: float | None
    gap: float | None
    iters: int | None
    counters: dict[str, float]
    solve_seconds: float
    trace: tuple[tuple[float, float], ...] | None

    def to_dict(self) -> dict:
        """JSON-ready fields, weights rounded to 12 significant digits.

        ``counters`` are written as keys of their own, every name of
        :data:`_SPG_COUNTERS` present (null unless ``drcvar-*``), and
        ``trace`` is left out.
        """
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        del doc["counters"], doc["trace"]
        doc["weights"] = [float(f"{v:.12g}") for v in self.weights]
        return doc | dict.fromkeys(_SPG_COUNTERS) | self.counters

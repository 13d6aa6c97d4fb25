"""Euclidean projections onto the feasible set of the dual problem.

The combined variable lives on a product set: weights on the unit
simplex, a free CVaR threshold, a free vector multiplier, and a
symmetric positive semidefinite matrix multiplier.  Projection onto
the product is blockwise.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .model import DualPoint, _split_flat

__all__ = ["project_simplex", "project_psd", "project_feasible"]


def project_simplex(v) -> np.ndarray:
    """Euclidean projection of ``v`` onto the unit simplex.

    Uses the sort-and-threshold rule: the projection is
    ``max(v - theta, 0)`` where ``theta`` is the largest shift that
    keeps the positive part summing to one.  Runs in O(d log d).
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.shape[0] < 1:
        raise InvalidInputError(f"v must be a non-empty 1-d array, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise InvalidInputError("v contains non-finite entries")
    return _simplex(v)


def _simplex(v: np.ndarray) -> np.ndarray:
    """:func:`project_simplex` of a finite, non-empty 1-d float array, unchecked."""
    # The projection is invariant under a common shift; shifting the top
    # entry to zero keeps rank one in the support however large ``v`` is.
    v = v - v.max()
    u = np.sort(v)[::-1]
    cumulative = u.cumsum() - 1.0
    ranks = np.arange(1, v.shape[0] + 1)
    support = u - cumulative / ranks > 0
    rho = int(support.nonzero()[0][-1])
    theta = cumulative[rho] / (rho + 1)
    return np.maximum(v - theta, 0.0)


def project_psd(a) -> np.ndarray:
    """Projection of a square matrix onto the symmetric PSD cone.

    Symmetrises first, then zeroes out negative eigenvalues.  The
    result is exactly symmetric and has no negative eigenvalues beyond
    roundoff in the eigendecomposition.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"a must be a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError("a contains non-finite entries")
    return _psd_parts(a)[0]


def _psd_parts(a: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, int]]:
    """:func:`project_psd` of a checked square matrix, with its factor.

    The factor ``(F, r)`` holds the ``r`` positive eigenpairs of the
    symmetric part as ``F = V_+ sqrt(e_+)``, the columns of
    :func:`_eigen_factor` without its negative ones; the projection is
    ``F @ F.T``, which numpy forms as a symmetric rank-k update, so it
    is exactly symmetric.
    """
    eigvals, eigvecs = np.linalg.eigh(0.5 * (a + a.T))
    # eigh sorts ascending: the positive eigenvalues are the last ones.
    first = int(eigvals.searchsorted(0.0, side="right"))
    pos = eigvecs[:, first:] * np.sqrt(eigvals[first:])
    return pos @ pos.T, (pos, pos.shape[1])


def _eigen_factor(sym: np.ndarray) -> tuple[np.ndarray, int]:
    """Signed eigen-factor ``(F, p)`` of a symmetric matrix.

    ``sym = P P' - Q Q'`` with ``P = F[:, :p]`` the positive eigenpairs
    as ``V sqrt(e)`` and ``Q = F[:, p:]`` the negative ones as
    ``V sqrt(-e)``.
    """
    eigvals, eigvecs = np.linalg.eigh(sym)
    pos, neg = eigvals > 0.0, eigvals < 0.0
    cols = np.hstack(
        [eigvecs[:, pos] * np.sqrt(eigvals[pos]), eigvecs[:, neg] * np.sqrt(-eigvals[neg])]
    )
    return cols, int(pos.sum())


def project_feasible(nu: DualPoint) -> DualPoint:
    """Blockwise projection of a combined variable onto the feasible set.

    Projects ``x`` onto the simplex and ``lam`` onto the PSD cone;
    ``alpha`` and ``q`` are unconstrained and pass through.
    """
    return DualPoint.from_array(_project_flat(nu.to_array(), nu.dim)[0], nu.dim)


def _project_flat(vec: np.ndarray, d: int) -> tuple[np.ndarray, tuple[np.ndarray, int]]:
    """:func:`project_feasible` of a flat dual vector, overwriting ``vec``.

    Returns ``vec`` and the PSD factor of its ``lam`` block (see
    :func:`_psd_parts`), which the smoothing kernel uses for the
    quadratic terms.  Only the ``x`` block is checked, for finiteness:
    the solver builds ``vec`` itself.
    """
    x, _, _, lam = _split_flat(vec, d)
    if not np.isfinite(x).all():
        raise InvalidInputError("v contains non-finite entries")
    x[:] = _simplex(x)
    lam[:], factor = _psd_parts(lam)
    return vec, factor

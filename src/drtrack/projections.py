"""Euclidean projections onto the feasible set of the dual problem.

The combined variable lives on a product set: weights on the unit
simplex, a free CVaR threshold, a free vector multiplier, and a
symmetric positive semidefinite matrix multiplier.  Projection onto
the product is blockwise.
"""

from __future__ import annotations

from itertools import accumulate

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
    """:func:`project_simplex` of a finite, non-empty 1-d float array, unchecked.

    The threshold is found on Python floats: at the solver's sizes (d of
    8 to 30) a dozen numpy calls on a few numbers cost more than the
    arithmetic.  The bits are those of the same rule in numpy calls,
    since ``cumsum`` also adds in order and ``u_k > theta_k`` holds
    exactly when ``u_k - theta_k > 0`` does.  Numpy does only the shift
    and the final clip.
    """
    # The projection is invariant under a common shift; shifting the top
    # entry to zero keeps rank one in the support however large ``v`` is.
    v = v - v.max()
    u = sorted(v.tolist(), reverse=True)
    sums = list(accumulate(u))
    # theta is the shift at the last rank k whose entry stays above it.
    # Scanning down from d finds it at once on the solver's points, whose
    # support is full; rank one always qualifies, since u_1 = 0 > -1.
    for k in range(len(u), 0, -1):
        theta = (sums[k - 1] - 1.0) / k
        if u[k - 1] > theta:
            break
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
    return _psd_of_symmetric(0.5 * (a + a.T))[0]


def _psd_of_symmetric(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`project_psd` of an exactly symmetric matrix, with its factor.

    ``eigh`` reads only the lower triangle of ``sym``, which is not
    re-symmetrised.  The factor ``F = V_+ sqrt(e_+)`` holds the positive
    eigenpairs, one column each; the projection is ``F @ F.T``, which
    numpy forms as a symmetric rank-k update, so it is exactly symmetric.
    """
    eigvals, eigvecs = np.linalg.eigh(sym)
    # eigh sorts ascending: the positive eigenvalues are the last ones.
    first = int(eigvals.searchsorted(0.0, side="right"))
    pos = eigvecs[:, first:] * np.sqrt(eigvals[first:])
    return pos @ pos.T, pos


def project_feasible(nu: DualPoint) -> DualPoint:
    """Blockwise projection of a combined variable onto the feasible set.

    Projects ``x`` onto the simplex and ``lam`` onto the PSD cone;
    ``alpha`` and ``q`` are unconstrained and pass through.
    """
    return DualPoint.from_array(_project_flat(_symmetric_flat(nu), nu.dim)[0], nu.dim)


def _symmetric_flat(nu: DualPoint) -> np.ndarray:
    """``nu.to_array()`` with ``lam`` replaced by its symmetric part, as :func:`_project_flat` needs."""
    vec = nu.to_array()
    lam = _split_flat(vec, nu.dim)[3]
    lam[:] = 0.5 * (lam + lam.T)
    return vec


def _project_flat(vec: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`project_feasible` of a flat dual vector whose ``lam`` is exactly symmetric.

    Overwrites ``vec`` and returns it with the PSD factor ``F`` of its
    ``lam`` block (see :func:`_psd_of_symmetric`), which the smoothing
    kernel takes for the quadratic terms.  ``lam`` is not re-symmetrised: its
    lower triangle is the matrix projected.  :func:`_symmetric_flat` gives
    such a vector, and so does every ``y - t g`` with ``y`` a projected
    point, whose block is a symmetric rank-k update, and ``g`` the
    smoothed gradient, whose block is symmetric term by term.  Only the
    ``x`` block is checked, for finiteness: the solver builds ``vec``
    itself.
    """
    x, _, _, lam = _split_flat(vec, d)
    if not np.isfinite(x).all():
        raise InvalidInputError("v contains non-finite entries")
    x[:] = _simplex(x)
    lam[:], factor = _psd_of_symmetric(lam)
    return vec, factor

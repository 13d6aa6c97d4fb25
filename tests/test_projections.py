"""Simplex, PSD cone, and combined feasible-set projections."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import random_dual_point
from drtrack.errors import InvalidInputError
from drtrack.projections import (
    _project_flat,
    _psd_of_symmetric,
    project_feasible,
    project_psd,
    project_simplex,
)


def _flat(nu):
    return nu.to_array()


def _simplex_numpy(v):
    """The sort-and-threshold rule in numpy calls: a bitwise reference for the simplex."""
    v = v - v.max()
    u = np.sort(v)[::-1]
    cumulative = u.cumsum() - 1.0
    ranks = np.arange(1, v.shape[0] + 1)
    support = u - cumulative / ranks > 0
    rho = int(support.nonzero()[0][-1])
    theta = cumulative[rho] / (rho + 1)
    return np.maximum(v - theta, 0.0)


@st.composite
def simplex_inputs(draw):
    """Vectors of 1 to 120 entries of magnitude 1e-8 to 1e8, with ties and outliers.

    The entries come from a drawn seed, so that most of their sums round.
    """
    d = draw(st.integers(1, 120))
    scale = 10.0 ** draw(st.floats(-8.0, 8.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["spread", "ties", "one huge entry", "all equal"]))
    if shape == "ties":
        v = rng.choice([-1.0, -0.5, 0.0, 0.25, 1.0], size=d)
    elif shape == "all equal":
        v = np.full(d, rng.uniform(-1.0, 1.0))
    else:
        v = rng.uniform(-1.0, 1.0, size=d)
    v *= scale
    if shape == "one huge entry":
        v[rng.integers(d)] = 1e8
    return v


def test_project_simplex_matches_exhaustive_oracle():
    rng = np.random.default_rng(7)
    for _ in range(300):
        d = int(rng.integers(1, 7))
        v = rng.normal(scale=2.0, size=d)
        got = project_simplex(v)
        want = oracles.project_simplex_reference(v)
        assert np.max(np.abs(got - want)) <= 1e-8
        assert got.min() >= 0.0
        assert got.sum() == pytest.approx(1.0, abs=1e-12)


def test_project_simplex_large_finite_entries():
    # v - (sum(v) - 1) rounds to zero at rank one once max(v) is ~1e16
    assert np.array_equal(project_simplex([1e17, 0.0, 0.0]), [1.0, 0.0, 0.0])
    assert np.array_equal(project_simplex([3e16, 1e16, 0.0]), [1.0, 0.0, 0.0])


def test_project_simplex_fixes_feasible_points():
    rng = np.random.default_rng(19)
    for _ in range(50):
        d = int(rng.integers(1, 7))
        x = rng.dirichlet(np.ones(d))
        assert np.max(np.abs(project_simplex(x) - x)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6))
def test_project_simplex_output_always_feasible(values):
    out = project_simplex(np.array(values))
    assert out.min() >= 0.0
    assert out.sum() == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(simplex_inputs())
def test_project_simplex_is_bitwise_the_numpy_threshold_rule(v):
    assert np.array_equal(project_simplex(v), _simplex_numpy(v))


def test_project_simplex_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        project_simplex(np.ones((2, 2)))
    with pytest.raises(InvalidInputError):
        project_simplex(np.array([1.0, np.nan]))


def test_project_psd_properties():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        mat = rng.normal(scale=1.5, size=(n, n))
        out = project_psd(mat)
        assert np.max(np.abs(out - out.T)) <= 1e-12
        assert np.linalg.eigvalsh(out).min() >= -1e-10
        again = project_psd(out)
        assert np.max(np.abs(again - out)) <= 1e-10


def test_project_psd_is_nearest_among_candidates():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        base = rng.normal(size=(n, n))
        sym = 0.5 * (base + base.T)
        out = project_psd(sym)
        best = np.linalg.norm(out - sym)
        for _ in range(100):
            g = rng.normal(size=(n, n))
            candidate = g @ g.T * float(rng.uniform(0.0, 2.0))
            assert best <= np.linalg.norm(candidate - sym) + 1e-12


def test_project_psd_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        project_psd(np.ones((2, 3)))
    with pytest.raises(InvalidInputError):
        project_psd(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_project_feasible_idempotent_and_nonexpansive():
    rng = np.random.default_rng(55)
    for _ in range(500):
        d = int(rng.integers(1, 5))
        a = random_dual_point(rng, d, scale=1.0)
        b = random_dual_point(rng, d, scale=1.0)
        pa = project_feasible(a)
        pb = project_feasible(b)
        assert np.max(np.abs(_flat(project_feasible(pa)) - _flat(pa))) <= 1e-12
        gap = np.linalg.norm(_flat(pa) - _flat(pb))
        assert gap <= np.linalg.norm(_flat(a) - _flat(b)) + 1e-12


def test_project_feasible_blocks():
    rng = np.random.default_rng(67)
    nu = random_dual_point(rng, 3, scale=1.0)
    out = project_feasible(nu)
    assert out.x.min() >= 0.0
    assert out.x.sum() == pytest.approx(1.0, abs=1e-12)
    assert out.alpha == nu.alpha
    assert np.array_equal(out.q, nu.q)
    assert np.linalg.eigvalsh(out.lam).min() >= -1e-10


def test_project_flat_returns_the_factor_of_its_psd_block():
    rng = np.random.default_rng(13)
    for d in (2, 5, 8):
        for _ in range(5):
            flat, cols = _project_flat(random_dual_point(rng, d).to_array(), d)
            lam = flat[2 * d + 2 :].reshape(d + 1, d + 1)
            assert 0 < cols.shape[1] <= d + 1
            assert np.max(np.abs(cols @ cols.T - lam)) <= 1e-12


def test_project_flat_simplex_block_is_bitwise_project_simplex():
    rng = np.random.default_rng(17)
    for d in range(1, 41):
        vec = random_dual_point(rng, d, scale=2.0).to_array()
        want = project_simplex(vec[:d])
        flat, _ = _project_flat(vec, d)
        assert np.array_equal(flat[:d], want)
    for bad in (np.nan, np.inf, -np.inf):
        vec = random_dual_point(rng, 3).to_array()
        vec[1] = bad
        with pytest.raises(InvalidInputError):
            _project_flat(vec, 3)


def test_psd_of_symmetric_is_bitwise_the_positive_eigenpairs():
    rng = np.random.default_rng(31)
    for size in (2, 9, 31):
        g = rng.normal(size=(size, size))
        for a in (np.zeros((size, size)), g @ g.T, g, g + g.T):
            sym = 0.5 * (a + a.T)
            eigvals, eigvecs = np.linalg.eigh(sym)
            pos = eigvecs[:, eigvals > 0] * np.sqrt(eigvals[eigvals > 0])
            proj, factor = _psd_of_symmetric(sym)
            assert np.array_equal(factor, pos)
            assert np.array_equal(proj, pos @ pos.T)

"""Simplex, PSD cone, and combined feasible-set projections."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import random_dual_point
from drtrack.errors import InvalidInputError
from drtrack.projections import (
    _eigen_factor,
    _project_flat,
    _psd_parts,
    project_feasible,
    project_psd,
    project_simplex,
)


def _flat(nu):
    return nu.to_array()


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
            flat, (cols, rank) = _project_flat(random_dual_point(rng, d).to_array(), d)
            lam = flat[2 * d + 2 :].reshape(d + 1, d + 1)
            assert rank == cols.shape[1] and 0 < rank <= d + 1
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


def test_psd_parts_is_bitwise_the_positive_half_of_the_signed_factor():
    rng = np.random.default_rng(31)
    for size in (2, 9, 31):
        g = rng.normal(size=(size, size))
        for a in (np.zeros((size, size)), g @ g.T, g, g + g.T):
            cols, npos = _eigen_factor(0.5 * (a + a.T))
            pos = cols[:, :npos]
            proj, (factor, rank) = _psd_parts(a)
            assert rank == npos == factor.shape[1]
            assert np.array_equal(factor, pos)
            assert np.array_equal(proj, pos @ pos.T)

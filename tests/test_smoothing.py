"""Smooth surrogates: bounds, limits, and the analytic gradient."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import gaussian_instance, random_dual_point
from drtrack.data import build_sample_set, estimate_moments, gen_synthetic
from drtrack.errors import InvalidInputError
from drtrack.model import AmbiguityParams, DualPoint, ModelParams, PsiKind, SampleSet, h_values
from drtrack.projections import _project_flat, project_feasible
from drtrack.smoothing import (
    grad_smooth_phi,
    smooth_abs,
    smooth_h_values,
    smooth_phi,
    smooth_plus,
    smooth_psi,
    _at_level,
    _gradient,
    _kernel,
    _psi,
    _smooth,
)


def test_smoothing_param_validation():
    for bad in (0.0, -1.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(InvalidInputError):
            smooth_plus(1.0, bad)


def test_smooth_plus_bounds_and_limits():
    rng = np.random.default_rng(3)
    t = rng.normal(scale=5.0, size=10_000)
    for mu in (1.0, 1e-2, 1e-6):
        gap = smooth_plus(t, mu) - np.maximum(t, 0.0)
        assert gap.min() >= 0.0
        assert gap.max() <= mu * np.log(2.0) + 1e-15
    # far from the kink the surrogate collapses onto the plus part
    assert smooth_plus(50.0, 1e-3) == pytest.approx(50.0, abs=1e-12)
    assert smooth_plus(-50.0, 1e-3) == pytest.approx(0.0, abs=1e-12)
    assert smooth_plus(0.0, 1.0) == pytest.approx(np.log(2.0))


def test_smooth_plus_returns_float_for_scalar_input():
    assert isinstance(smooth_plus(1.5, 1e-2), float)


def test_smooth_abs_bounds():
    rng = np.random.default_rng(5)
    a = rng.normal(scale=3.0, size=10_000)
    for mu in (1.0, 1e-4):
        gap = smooth_abs(a, mu) - np.abs(a)
        assert gap.min() >= 0.0
        assert gap.max() <= np.sqrt(mu) + 1e-15


@settings(max_examples=80, deadline=None)
@given(
    st.floats(-1e8, 1e8, allow_nan=False),
    st.floats(1e-9, 1e3, allow_nan=False),
)
def test_smooth_plus_bounds_property(t, mu):
    value = smooth_plus(t, mu)
    plus = max(t, 0.0)
    assert plus <= value <= plus + mu * np.log(2.0) * (1.0 + 1e-12) + 1e-300


def test_smooth_psi_kinds():
    assert smooth_psi(-2.0, 1e-3, PsiKind.SQUARED) == 4.0
    assert smooth_psi(-2.0, 1e-2, PsiKind.ABSOLUTE) == smooth_abs(-2.0, 1e-2)
    with pytest.raises(InvalidInputError):
        smooth_psi(1.0, 1e-2, "absolute")


def test_smooth_psi_is_bitwise_its_unchecked_core():
    rng = np.random.default_rng(23)
    c = rng.normal(scale=3.0, size=200)
    for kind in PsiKind:
        for mu in (1e-8, 1e-2, 1.0):
            assert np.array_equal(smooth_psi(c, mu, kind), _psi(c, mu, kind))
            assert smooth_psi(float(c[0]), mu, kind) == _psi(c[:1], mu, kind)[0]


def test_smooth_h_dominates_exact_h():
    rng = np.random.default_rng(17)
    for kind in (PsiKind.SQUARED, PsiKind.ABSOLUTE):
        samples, amb, model = gaussian_instance(
            11, d=3, n=12, scale=0.5, tau1=0.1, tau2=0.05, beta=0.9, psi=kind
        )
        for mu in (1.0, 1e-2, 1e-4):
            for _ in range(10):
                nu = random_dual_point(rng, 3)
                exact = h_values(nu, samples, amb, model)
                smooth = smooth_h_values(nu, samples, mu, amb, model)
                # each smoothed piece dominates its exact counterpart
                upper = (
                    exact
                    + model.cvar_coef * mu * np.log(2.0)
                    + np.sqrt(mu)
                    + (np.sqrt(mu) if kind is PsiKind.ABSOLUTE else 0.0)
                )
                assert np.all(exact - 1e-12 <= smooth)
                assert np.all(smooth <= upper + 1e-12)


def test_smooth_h_values_rejects_dimension_mismatch():
    samples, amb, model = gaussian_instance(1, d=3, n=5)
    nu = random_dual_point(np.random.default_rng(0), 2)
    with pytest.raises(InvalidInputError):
        smooth_h_values(nu, samples, 1e-2, amb, model)


def test_smooth_phi_sandwich():
    rng = np.random.default_rng(41)
    samples, amb, model = gaussian_instance(15, d=4, n=30, scale=0.5,
                                            tau1=0.1, tau2=0.05, beta=0.9)
    for _ in range(50):
        nu = random_dual_point(rng, 4)
        mu = float(10.0 ** rng.uniform(-6, 0))
        vals = smooth_h_values(nu, samples, mu, amb, model)
        top = float(vals.max())
        phi = smooth_phi(nu, samples, mu, amb, model)
        assert top - 1e-12 <= phi <= top + mu * np.log(samples.n_samples) + 1e-12


def test_grad_smooth_phi_matches_finite_differences():
    rng = np.random.default_rng(53)
    for kind in (PsiKind.SQUARED, PsiKind.ABSOLUTE):
        samples, amb, model = gaussian_instance(
            17, d=3, n=15, scale=0.4, tau1=0.2, tau2=0.1, beta=0.85, psi=kind
        )
        for mu in (1.0, 1e-3):
            nu = project_feasible(random_dual_point(rng, 3))
            flat = nu.to_array()
            fun = lambda z: smooth_phi(
                DualPoint.from_array(z, 3), samples, mu, amb, model
            )
            fd = oracles.fd_gradient(fun, flat, 1e-6)
            head = 3 + 1 + 4
            lam_fd = 0.5 * (fd[head:].reshape(4, 4) + fd[head:].reshape(4, 4).T)
            fd = np.concatenate([fd[:head], lam_fd.ravel()])
            grad = grad_smooth_phi(nu, samples, mu, amb, model).to_array()
            scale = max(float(np.max(np.abs(grad))), 1e-12)
            assert np.max(np.abs(fd - grad)) / scale <= 1e-6


def test_grad_smooth_phi_lam_block_is_symmetric():
    rng = np.random.default_rng(65)
    samples, amb, model = gaussian_instance(19, d=3, n=10, scale=0.5,
                                            tau1=0.1, tau2=0.05, beta=0.9)
    for _ in range(5):
        nu = project_feasible(random_dual_point(rng, 3))
        grad = grad_smooth_phi(nu, samples, 1e-2, amb, model)
        assert np.max(np.abs(grad.lam - grad.lam.T)) <= 1e-14


def test_smooth_h_values_match_dense_reference_for_indefinite_lam():
    # random points carry an indefinite, non-symmetric lam; the kernel
    # reaches it through a signed eigen-factor of its symmetric part
    rng = np.random.default_rng(71)
    samples, amb, model = gaussian_instance(21, d=4, n=40, scale=0.5, psi=PsiKind.SQUARED)
    for _ in range(10):
        nu = random_dual_point(rng, 4)
        assert np.linalg.eigvalsh(0.5 * (nu.lam + nu.lam.T)).min() < 0.0
        smooth = smooth_h_values(nu, samples, 1e-12, amb, model)
        exact = h_values(nu, samples, amb, model)
        assert np.max(np.abs(smooth - exact)) <= 1e-9


def test_mu_stage_on_stored_parts_equals_a_fresh_pass():
    rng = np.random.default_rng(83)
    for kind in (PsiKind.SQUARED, PsiKind.ABSOLUTE):
        samples, amb, model = gaussian_instance(
            23, d=3, n=25, scale=0.5, tau1=0.1, tau2=0.05, beta=0.9, psi=kind
        )
        flat, factor = _project_flat(random_dual_point(rng, 3).to_array(), 3)
        kern = _kernel(samples, amb, model)
        at = _smooth(flat, factor, 1.0, kern)
        for mu in (0.5, 1e-3, 1e-9):
            again = _at_level(at.parts, mu, kern)
            fresh = _smooth(flat, factor, mu, kern)
            assert again.value == fresh.value
            assert again.spread_sum == fresh.spread_sum
            assert again.norm_val == fresh.norm_val
            for name in ("vals", "spread", "tail"):
                assert np.array_equal(getattr(again, name), getattr(fresh, name))
            at = again


def test_scratch_buffer_reuse_leaves_earlier_results_intact():
    # every product writes the kernel's one scratch buffer; a result that
    # kept a view of it would change when the next point is evaluated
    rng = np.random.default_rng(89)
    samples, amb, model = gaussian_instance(29, d=4, n=40, scale=0.5, tau1=0.1, tau2=0.05,
                                            beta=0.9, psi=PsiKind.ABSOLUTE)
    kern = _kernel(samples, amb, model)
    mu = 1e-2
    flat_a, factor_a = _project_flat(random_dual_point(rng, 4).to_array(), 4)
    at_a = _smooth(flat_a, factor_a, mu, kern)
    grad_a = _gradient(flat_a, at_a, mu, kern)
    arrays = {name: getattr(at_a, name).copy() for name in ("vals", "spread", "tail")}
    parts = {name: getattr(at_a.parts, name).copy() for name in ("su", "quad", "c", "t")}
    # a point of another rank, so the product fills a different share of the buffer
    flat_b = random_dual_point(rng, 4).to_array()
    flat_b[-25:] += 3.0 * np.eye(5).ravel()
    flat_b, factor_b = _project_flat(flat_b, 4)
    assert factor_b[0].shape != factor_a[0].shape
    at_b = _smooth(flat_b, factor_b, mu, kern)
    _gradient(flat_b, at_b, mu, kern)
    for name, before in arrays.items():
        assert np.array_equal(getattr(at_a, name), before)
    for name, before in parts.items():
        assert np.array_equal(getattr(at_a.parts, name), before)
    assert np.array_equal(_gradient(flat_a, at_a, mu, kern), grad_a)


def test_kernel_matches_exact_values_and_finite_differences_at_benchmark_scale():
    # d = 30 as in the benchmark's solve, with an indefinite lam for the
    # values and a projected point for the gradient
    d = 30
    m = d + 1
    panel = gen_synthetic(d, 600, 7)
    samples = build_sample_set(panel)
    moments = estimate_moments(panel)
    amb = AmbiguityParams(mu_hat=moments.mu_hat, sigma_hat=moments.sigma_hat,
                          kappa1=0.1, kappa2=1.0)
    rng = np.random.default_rng(97)
    for kind in PsiKind:
        model = ModelParams(tau1=0.1, tau2=0.05, beta=0.9, psi=kind)
        if kind is PsiKind.SQUARED:
            # the smoothed absolute value may lie sqrt(mu) = 1e-6 above |c|
            nu = random_dual_point(rng, d)
            exact = h_values(nu, samples, amb, model)
            smooth = smooth_h_values(nu, samples, 1e-12, amb, model)
            assert np.max(np.abs(smooth - exact)) <= 1e-9 * np.max(np.abs(exact))

        mu = 1e-3
        base = project_feasible(random_dual_point(rng, d)).to_array()
        direction = rng.normal(size=(m, m))
        direction += direction.T
        direction /= np.linalg.norm(direction)
        head = d + 1 + m

        def along(z):
            # x, alpha and q, then a step along the symmetric lam direction
            flat = base.copy()
            flat[:head] = z[:head]
            flat[head:] += z[head] * direction.ravel()
            return smooth_phi(DualPoint.from_array(flat, d), samples, mu, amb, model)

        fd = oracles.fd_gradient(along, np.append(base[:head], 0.0), 1e-6)
        grad = grad_smooth_phi(DualPoint.from_array(base, d), samples, mu, amb, model)
        blocks = grad.to_array()[:head]
        assert np.max(np.abs(fd[:head] - blocks)) <= 1e-6 * np.max(np.abs(blocks))
        slope = float(np.sum(grad.lam * direction))
        assert abs(fd[head] - slope) <= 1e-6 * abs(slope)

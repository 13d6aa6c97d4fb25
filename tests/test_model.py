"""Exact objective evaluations and parameter containers."""

import numpy as np
import pytest

import oracles
from helpers import gaussian_instance, random_dual_point
from drtrack.errors import InvalidInputError
from drtrack.model import (
    AmbiguityParams,
    DiscreteDistribution,
    DualPoint,
    ModelParams,
    PsiKind,
    SampleSet,
    check_moment_feasibility,
    cvar_discrete,
    evaluate_khat,
    evaluate_phi_n,
    h_values,
    portfolio_losses,
    psi_value,
    var_threshold,
)
from drtrack.projections import project_feasible


def test_psi_value_squared_and_absolute():
    assert psi_value(-3.0, PsiKind.SQUARED) == 9.0
    assert psi_value(-3.0, PsiKind.ABSOLUTE) == 3.0
    arr = np.array([-2.0, 0.5])
    assert np.allclose(psi_value(arr, PsiKind.SQUARED), [4.0, 0.25])
    assert np.allclose(psi_value(arr, PsiKind.ABSOLUTE), [2.0, 0.5])


def test_psi_value_rejects_unknown_kind():
    with pytest.raises(InvalidInputError):
        psi_value(1.0, "squared")


def test_model_params_validation():
    with pytest.raises(InvalidInputError):
        ModelParams(tau1=-1e-9, tau2=0.0, beta=0.9)
    with pytest.raises(InvalidInputError):
        ModelParams(tau1=0.0, tau2=-1.0, beta=0.9)
    for bad_beta in (0.0, 1.0, -0.2, 1.7, float("nan")):
        with pytest.raises(InvalidInputError):
            ModelParams(tau1=0.0, tau2=0.0, beta=bad_beta)
    with pytest.raises(InvalidInputError):
        ModelParams(tau1=0.0, tau2=0.0, beta=0.9, psi="squared")


def test_cvar_coef():
    model = ModelParams(tau1=0.0, tau2=2e-4, beta=0.95)
    assert model.cvar_coef == pytest.approx(2e-4 / 0.05)


def test_ambiguity_params_validation():
    mu = np.zeros(3)
    eye = np.eye(3)
    with pytest.raises(InvalidInputError):
        AmbiguityParams(mu_hat=mu, sigma_hat=eye + 1e-6 * np.triu(np.ones((3, 3)), 1),
                        kappa1=0.1, kappa2=1.0)
    with pytest.raises(InvalidInputError):
        AmbiguityParams(mu_hat=mu, sigma_hat=np.diag([1.0, 1.0, 0.0]),
                        kappa1=0.1, kappa2=1.0)
    with pytest.raises(InvalidInputError):
        AmbiguityParams(mu_hat=mu, sigma_hat=eye, kappa1=-0.1, kappa2=1.0)
    with pytest.raises(InvalidInputError):
        AmbiguityParams(mu_hat=mu, sigma_hat=eye, kappa1=0.1, kappa2=0.0)
    with pytest.raises(InvalidInputError):
        AmbiguityParams(mu_hat=np.zeros(2), sigma_hat=eye, kappa1=0.1, kappa2=1.0)
    rng = np.random.default_rng(5)
    base = rng.normal(size=(4, 4))
    sigma = base @ base.T + 0.5 * np.eye(4)
    amb = AmbiguityParams(mu_hat=np.zeros(4), sigma_hat=sigma, kappa1=0.1, kappa2=1.0)
    assert amb.dim == 4


def test_sample_set_layout_and_validation():
    raw = np.arange(12.0).reshape(4, 3)
    samples = SampleSet(samples=raw)
    assert samples.n_samples == 4 and samples.n_assets == 2
    assert np.array_equal(samples.xi_b, raw[:, :2])
    assert np.array_equal(samples.xi_a, raw[:, 2])
    with pytest.raises(InvalidInputError):
        SampleSet(samples=np.ones((3, 1)))
    with pytest.raises(InvalidInputError):
        SampleSet(samples=np.array([[1.0, np.nan]]))


def test_discrete_distribution_validation():
    with pytest.raises(InvalidInputError):
        DiscreteDistribution(weights=np.array([0.7, 0.2]))
    with pytest.raises(InvalidInputError):
        DiscreteDistribution(weights=np.array([1.2, -0.2]))
    uniform = DiscreteDistribution.uniform(4)
    assert np.allclose(uniform.weights, 0.25)
    for n in (0, 2.5, True):
        with pytest.raises(InvalidInputError, match="^n must be an integer"):
            DiscreteDistribution.uniform(n)


def test_dual_point_roundtrip_and_validation():
    rng = np.random.default_rng(11)
    for d in (1, 3, 5):
        nu = random_dual_point(rng, d)
        back = DualPoint.from_array(nu.to_array(), d)
        assert np.array_equal(back.x, nu.x)
        assert back.alpha == nu.alpha
        assert np.array_equal(back.q, nu.q)
        assert np.array_equal(back.lam, nu.lam)
    with pytest.raises(InvalidInputError):
        DualPoint(x=np.ones(2), alpha=0.0, q=np.ones(2), lam=np.zeros((3, 3)))
    with pytest.raises(InvalidInputError):
        DualPoint.from_array(np.zeros(7), 2)


def test_dual_point_arrays_are_read_only():
    nu = random_dual_point(np.random.default_rng(0), 3)
    with pytest.raises(ValueError):
        nu.x[0] = 2.0
    with pytest.raises(ValueError):
        nu.lam[0, 0] = 2.0


def test_evaluate_khat_matches_reference():
    rng = np.random.default_rng(21)
    for kind in (PsiKind.SQUARED, PsiKind.ABSOLUTE):
        model = ModelParams(tau1=0.3, tau2=0.2, beta=0.9, psi=kind)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            x = rng.normal(size=d)
            alpha = float(rng.normal())
            xi = rng.normal(size=d + 1)
            got = evaluate_khat(x, alpha, xi, model)
            want = oracles.khat_reference(x, alpha, xi, model)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_evaluate_khat_rejects_dimension_mismatch():
    model = ModelParams(tau1=0.0, tau2=0.0, beta=0.9)
    with pytest.raises(InvalidInputError):
        evaluate_khat(np.ones(3), 0.0, np.ones(3), model)


def test_evaluate_h_matches_reference_and_decomposes():
    # each row is a sample-free part shared by all rows plus its own sample's terms
    rng = np.random.default_rng(33)
    for kind in (PsiKind.SQUARED, PsiKind.ABSOLUTE):
        samples, amb, model = gaussian_instance(
            7, d=4, n=12, scale=0.4, tau1=0.2, tau2=0.1, beta=0.85, psi=kind
        )
        for _ in range(25):
            nu = random_dual_point(rng, 4)
            rows = h_values(nu, samples, amb, model)
            i = int(rng.integers(0, 12))
            xi = samples.samples[i]
            want = oracles.scenario_h_reference(
                nu.x, nu.alpha, nu.q, nu.lam, xi, amb, model
            )
            assert rows[i] == pytest.approx(want, rel=1e-10, abs=1e-12)
            u = nu.q + 2.0 * nu.lam @ amb.mu_hat
            shared = (
                model.tau1 * float(nu.x @ nu.x)
                + model.tau2 * nu.alpha
                + amb.kappa2 * float(np.sum(amb.sigma_hat * nu.lam))
                + float(amb.mu_hat @ nu.lam @ amb.mu_hat)
                + float(nu.q @ amb.mu_hat)
                + np.sqrt(amb.kappa1 * float(u @ amb.sigma_hat @ u))
            )
            for j, xj in enumerate(samples.samples):
                loss = -float(nu.x @ xj[:-1])
                own = (
                    psi_value(xj[-1] + loss, kind)
                    + model.cvar_coef * max(loss - nu.alpha, 0.0)
                    - float(nu.q @ xj)
                    - float(xj @ nu.lam @ xj)
                )
                assert rows[j] == pytest.approx(shared + own, rel=1e-12, abs=1e-13)


def test_h_values_matches_scalar_evaluations():
    # every row against the oracle's one-sample evaluation of h
    rng = np.random.default_rng(45)
    for kind in (PsiKind.SQUARED, PsiKind.ABSOLUTE):
        samples, amb, model = gaussian_instance(
            3, d=3, n=15, scale=0.5, tau1=0.1, tau2=0.05, beta=0.9, psi=kind
        )
        for _ in range(10):
            nu = random_dual_point(rng, 3)
            rows = h_values(nu, samples, amb, model)
            assert rows.shape == (15,)
            for i, xi in enumerate(samples.samples):
                want = oracles.scenario_h_reference(
                    nu.x, nu.alpha, nu.q, nu.lam, xi, amb, model
                )
                assert rows[i] == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_h_values_reject_dimension_mismatch():
    samples, _, model = gaussian_instance(5, d=3, n=10)
    _, amb4, _ = gaussian_instance(5, d=4, n=10)
    nu = random_dual_point(np.random.default_rng(1), 3)
    with pytest.raises(InvalidInputError):
        h_values(nu, samples, amb4, model)
    with pytest.raises(InvalidInputError):
        evaluate_phi_n(nu, samples, amb4, model)


def test_evaluate_phi_n_matches_brute_maximum():
    rng = np.random.default_rng(57)
    samples, amb, model = gaussian_instance(9, d=3, n=25, scale=0.5,
                                            tau1=0.1, tau2=0.05, beta=0.9)
    for _ in range(20):
        nu = random_dual_point(rng, 3)
        value, argmax = evaluate_phi_n(nu, samples, amb, model)
        want, want_i = oracles.phi_reference(nu, samples, amb, model)
        assert value == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert argmax == want_i


def test_phi_n_is_convex_along_segments():
    rng = np.random.default_rng(69)
    samples, amb, model = gaussian_instance(13, d=3, n=10, scale=0.5,
                                            tau1=0.1, tau2=0.05, beta=0.9)
    for _ in range(40):
        a = random_dual_point(rng, 3)
        b = random_dual_point(rng, 3)
        theta = float(rng.uniform())
        mid = DualPoint.from_array(
            theta * a.to_array() + (1.0 - theta) * b.to_array(), 3
        )
        fa, _ = evaluate_phi_n(a, samples, amb, model)
        fb, _ = evaluate_phi_n(b, samples, amb, model)
        fmid, _ = evaluate_phi_n(mid, samples, amb, model)
        assert fmid <= theta * fa + (1.0 - theta) * fb + 1e-10


def test_portfolio_losses_and_var_threshold():
    rng = np.random.default_rng(81)
    for _ in range(30):
        n = int(rng.integers(1, 40))
        d = int(rng.integers(1, 5))
        samples = SampleSet(samples=rng.normal(size=(n, d + 1)))
        x = rng.uniform(size=d)
        losses = portfolio_losses(x, samples)
        assert np.allclose(losses, -(samples.xi_b @ x))
        for beta in (0.5, 0.9, 0.95, 0.99):
            assert var_threshold(x, samples, beta) == pytest.approx(
                oracles.var_sort_reference(losses, beta)
            )
    with pytest.raises(InvalidInputError):
        var_threshold(x, samples, 1.0)


def test_cvar_discrete_matches_sort_reference():
    rng = np.random.default_rng(93)
    for _ in range(40):
        n = int(rng.integers(1, 200))
        samples = SampleSet(samples=rng.normal(0.0, 0.02, size=(n, 3)))
        x = rng.uniform(size=2)
        losses = portfolio_losses(x, samples)
        for beta in (0.5, 0.9, 0.95, 0.99):
            got = cvar_discrete(x, samples, beta)
            assert got == pytest.approx(
                oracles.cvar_sort_reference(losses, beta), rel=1e-12, abs=1e-14
            )
            assert got >= var_threshold(x, samples, beta) - 1e-14
            assert got >= float(losses.mean()) - 1e-12


def test_cvar_discrete_nondecreasing_in_beta():
    rng = np.random.default_rng(105)
    samples = SampleSet(samples=rng.normal(0.0, 0.02, size=(60, 3)))
    x = np.array([0.4, 0.6])
    values = [cvar_discrete(x, samples, beta) for beta in (0.5, 0.7, 0.9, 0.95, 0.99)]
    assert all(lo <= hi + 1e-14 for lo, hi in zip(values, values[1:]))


def test_moment_feasibility_of_empirical_distribution():
    samples, amb, _ = gaussian_instance(1, d=3, n=30)
    report = check_moment_feasibility(
        DiscreteDistribution.uniform(samples.n_samples), samples, amb
    )
    # population moments match exactly: full mean slack, zero covariance slack
    assert report.feasible
    assert report.mean_slack == pytest.approx(amb.kappa1, rel=1e-9)
    assert abs(report.cov_slack) <= 1e-12


def test_moment_feasibility_rejects_shifted_mass():
    samples, amb, _ = gaussian_instance(2, d=3, n=30)
    weights = np.zeros(samples.n_samples)
    weights[0] = 1.0
    report = check_moment_feasibility(DiscreteDistribution(weights), samples, amb)
    assert not report.feasible
    with pytest.raises(InvalidInputError):
        check_moment_feasibility(DiscreteDistribution.uniform(7), samples, amb)


def test_projected_points_keep_phi_finite():
    rng = np.random.default_rng(117)
    samples, amb, model = gaussian_instance(4, d=3, n=10, scale=0.5,
                                            tau1=0.1, tau2=0.05, beta=0.9)
    for _ in range(10):
        nu = project_feasible(random_dual_point(rng, 3))
        value, _ = evaluate_phi_n(nu, samples, amb, model)
        assert np.isfinite(value)

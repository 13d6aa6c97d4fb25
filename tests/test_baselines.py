"""Sample-average CVaR and least-squares baseline solvers."""

import numpy as np
import pytest

import oracles
from helpers import gaussian_instance
from drtrack import baselines
from drtrack.baselines import (
    GAP_TOLERANCE,
    BaselineParams,
    _smoothed_threshold,
    scvar_objective,
    scvar_solve,
    te_l2_solve,
)
from drtrack.errors import InvalidInputError
from drtrack.model import ModelParams, PsiKind, SampleSet, var_threshold
from drtrack.smoothing import _plus_and_tail
from drtrack.spg import STATUS_CONVERGED, STATUS_ITERATION_CAP


def test_baseline_params_validation():
    with pytest.raises(InvalidInputError):
        BaselineParams(max_iters=0)


def test_scvar_objective_matches_reference():
    rng = np.random.default_rng(7)
    for kind in (PsiKind.SQUARED, PsiKind.ABSOLUTE):
        samples, _, model = gaussian_instance(
            5, d=4, n=30, scale=0.02, tau1=1e-3, tau2=2e-4, beta=0.9, psi=kind
        )
        for _ in range(20):
            x = rng.dirichlet(np.ones(4))
            alpha = float(rng.normal(scale=0.02))
            assert scvar_objective(x, alpha, samples, model) == pytest.approx(
                oracles.scvar_objective_reference(x, alpha, samples, model),
                rel=1e-12,
            )
    with pytest.raises(InvalidInputError):
        scvar_objective(np.ones(3), 0.0, samples, model)


def test_scvar_solve_improves_on_start_and_stays_feasible():
    for seed in range(3):
        samples, _, model = gaussian_instance(
            seed, d=3, n=40, scale=0.01, tau1=1e-4, tau2=2e-4, beta=0.9
        )
        start_x = np.full(3, 1.0 / 3.0)
        start_alpha = var_threshold(start_x, samples, model.beta)
        start_f = scvar_objective(start_x, start_alpha, samples, model)
        res = scvar_solve(samples, model, BaselineParams(max_iters=5000))
        assert res.objective <= start_f + 1e-15
        assert res.x.min() >= 0.0
        assert res.x.sum() == pytest.approx(1.0, abs=1e-10)
        assert res.alpha == var_threshold(res.x, samples, model.beta)
        assert res.objective == pytest.approx(
            scvar_objective(res.x, res.alpha, samples, model), rel=1e-12
        )
        assert res.status == STATUS_CONVERGED
        assert res.lower_bound <= res.objective
        assert res.gap == pytest.approx(
            (res.objective - res.lower_bound) / res.objective, rel=1e-12
        )
        assert res.gap <= GAP_TOLERANCE


def test_scvar_trace_is_monotone_best_so_far():
    samples, _, model = gaussian_instance(4, d=3, n=25, scale=0.01,
                                          tau1=1e-4, tau2=2e-4, beta=0.9)
    res = scvar_solve(samples, model, BaselineParams(max_iters=500),
                      record_trace=True)
    values = [v for _, v in res.trace]
    assert len(values) == res.iters
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert values[-1] == res.objective
    bare = scvar_solve(samples, model, BaselineParams(max_iters=500))
    assert bare.trace is None


def test_scvar_converged_is_certified_off_the_start_point():
    # the subgradient solver this replaced stopped here after one step,
    # at the start value 1.2269e-4; 50,000 diminishing steps reached 1.2234e-4
    samples, _, model = gaussian_instance(6, d=3, n=25, scale=0.01,
                                          tau1=1e-4, tau2=2e-4, beta=0.9)
    res = scvar_solve(samples, model)
    assert res.status == STATUS_CONVERGED
    assert res.gap <= GAP_TOLERANCE
    assert res.lower_bound <= res.objective <= 1.2234e-4


def test_scvar_checked_evaluations_do_not_grow_with_iterations(monkeypatch):
    # the bounds inside the loop come from the surrogate's own losses; the
    # checked public functions run only at the start point
    samples, _, model = gaussian_instance(6, d=3, n=25, scale=0.01,
                                          tau1=1e-4, tau2=2e-4, beta=0.9)
    calls = {"scvar_objective": 0, "var_threshold": 0}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(baselines, name)):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(baselines, name, counted)
    counts = []
    for max_iters in (5, 50):
        res = scvar_solve(samples, model, BaselineParams(max_iters=max_iters))
        counts.append((dict(calls), res.iters))
        calls.update(dict.fromkeys(calls, 0))
    (short, short_iters), (long, long_iters) = counts
    assert short_iters == 5 < long_iters
    assert short == long


def _logistic(z):
    """logistic(z) written through tanh, independent of the solver's tail form."""
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _bisected_threshold(losses, mu, beta):
    """Root of mean(logistic((losses - a) / mu)) = 1 - beta by plain bisection."""
    lo, hi = losses.min() - 50.0 * mu, losses.max() + 50.0 * mu
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.mean(_logistic((losses - mid) / mu)) > 1.0 - beta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("mu", [1e-8, 1e-4, 1.0])
def test_smoothed_threshold_matches_bisection(mu):
    rng = np.random.default_rng(21)
    beta = 0.95
    cases = [
        rng.normal(0.0, 0.01, 250),
        rng.normal(0.0, 0.01, 7),
        np.array([0.003]),
        np.full(40, -0.002),
    ]
    for losses in cases:
        alpha, plus, sig = _smoothed_threshold(losses, 0.0, mu, beta)
        root = _bisected_threshold(losses, mu, beta)
        # the solver stops at |mean - (1 - beta)| <= 1e-12; at the slope
        # mean(sig (1 - sig)) / mu that bounds the distance to the root
        slope = np.mean(sig * (1.0 - sig)) / mu
        scale = np.abs(losses).max() + mu
        assert abs(alpha - root) <= 2e-12 / slope + 1e-14 * scale
        want_plus, tail = _plus_and_tail(losses - alpha, mu)
        assert np.array_equal(plus, want_plus)
        assert np.array_equal(sig, np.where(losses >= alpha, 1.0, tail) / (1.0 + tail))
        assert np.allclose(sig, _logistic((losses - alpha) / mu), rtol=1e-12, atol=1e-15)


def test_smoothed_threshold_parts_sit_at_the_returned_threshold(monkeypatch):
    # even when the Newton budget runs out before the tolerance is met
    losses = np.random.default_rng(22).normal(0.0, 0.01, 50)
    for steps in (1, 2, 3):
        monkeypatch.setattr(baselines, "_THRESHOLD_STEPS", steps)
        alpha, plus, sig = _smoothed_threshold(losses, 0.05, 1e-3, 0.9)
        want_plus, tail = _plus_and_tail(losses - alpha, 1e-3)
        assert np.array_equal(plus, want_plus)
        assert np.array_equal(sig, np.where(losses >= alpha, 1.0, tail) / (1.0 + tail))


def _scan_two_assets(samples, model, weights):
    """Exact objective on the edge x = (w, 1 - w), the threshold at the loss quantile."""
    xb = samples.xi_b
    losses = -(np.outer(xb[:, 0], weights) + np.outer(xb[:, 1], 1.0 - weights))
    n = samples.n_samples
    k = int(np.ceil((1.0 - model.beta) * n))
    alpha = np.sort(losses, axis=0)[n - k]
    c = samples.xi_a[:, None] + losses
    track = np.square(c) if model.psi is PsiKind.SQUARED else np.abs(c)
    return (
        track.mean(axis=0)
        + model.tau1 * (np.square(weights) + np.square(1.0 - weights))
        + model.tau2 * alpha
        + model.cvar_coef * np.maximum(losses - alpha, 0.0).mean(axis=0)
    ), alpha


@pytest.mark.parametrize("psi", [PsiKind.SQUARED, PsiKind.ABSOLUTE])
@pytest.mark.parametrize("tau1", [0.0, 1e-3])
def test_scvar_certificate_brackets_a_dense_scan_in_two_dimensions(psi, tau1):
    samples, _, model = gaussian_instance(
        12, d=2, n=30, scale=0.01, tau1=tau1, tau2=2e-4, beta=0.9, psi=psi
    )
    weights = np.linspace(0.0, 1.0, 20_001)
    scan, alpha = _scan_two_assets(samples, model, weights)
    # the vectorised scan is the scalar oracle's objective, checked at every 1000th weight
    for j in range(0, weights.size, 1000):
        x = np.array([weights[j], 1.0 - weights[j]])
        assert scan[j] == pytest.approx(
            oracles.scvar_objective_reference(x, alpha[j], samples, model), rel=1e-12
        )
    scan_min = float(scan.min())
    res = scvar_solve(samples, model)
    assert res.status == STATUS_CONVERGED
    assert res.lower_bound <= scan_min + 1e-12
    assert res.objective <= scan_min + res.gap * res.objective


@pytest.mark.parametrize("psi", [PsiKind.SQUARED, PsiKind.ABSOLUTE])
def test_scvar_objective_scales_with_the_returns(psi):
    # returns scaled by s: the squared penalty scales as s^2 with tau1 -> s^2 tau1
    # and tau2 -> s tau2; the absolute one as s with tau1 -> s tau1
    samples, _, model = gaussian_instance(
        13, d=4, n=60, scale=0.01, tau1=1e-4, tau2=2e-4, beta=0.9, psi=psi
    )
    power = 2 if psi is PsiKind.SQUARED else 1
    base = scvar_solve(samples, model)
    assert base.status == STATUS_CONVERGED
    for s in (1e-2, 1e2):
        scaled_model = ModelParams(
            tau1=model.tau1 * s**power,
            tau2=model.tau2 * s ** (power - 1),
            beta=model.beta,
            psi=psi,
        )
        res = scvar_solve(SampleSet(samples.samples * s), scaled_model)
        assert res.status == STATUS_CONVERGED
        expected = base.objective * s**power
        assert abs(res.objective - expected) <= max(res.gap, base.gap) * expected


def test_scvar_with_zero_cvar_weight_matches_te_l2():
    # without the threshold term both baselines minimise the same function
    samples, _, model = gaussian_instance(8, d=3, n=30, scale=0.01,
                                          tau1=1e-3, tau2=0.0, beta=0.9)
    sub = scvar_solve(samples, model, BaselineParams(max_iters=20_000))
    x_pg, f_pg, _ = te_l2_solve(samples, model.tau1)
    assert sub.objective == pytest.approx(f_pg, rel=5e-4, abs=1e-10)


def test_te_l2_matches_dense_scan_in_two_dimensions():
    samples, _, _ = gaussian_instance(9, d=2, n=40, scale=0.02)
    for tau1 in (0.0, 1e-3):
        x, value, _ = te_l2_solve(samples, tau1)
        assert x.shape == (2,) and x.min() >= 0.0
        assert x.sum() == pytest.approx(1.0, abs=1e-12)
        weights = np.linspace(0.0, 1.0, 20_001)
        xa, xb = samples.xi_a, samples.xi_b
        residual = xa[:, None] - np.outer(xb[:, 0], weights) - np.outer(
            xb[:, 1], 1.0 - weights
        )
        scan = np.square(residual).mean(axis=0)
        scan = scan + tau1 * (np.square(weights) + np.square(1.0 - weights))
        assert value <= float(scan.min()) + 1e-10


def test_te_l2_perfect_replication_is_exact():
    # one asset equal to the index: the minimum is zero at that vertex
    rng = np.random.default_rng(10)
    index = rng.normal(0.0, 0.01, 60)
    other = rng.normal(0.0, 0.01, 60)
    samples = SampleSet(samples=np.column_stack([index, other, index]))
    x, value, _ = te_l2_solve(samples, 0.0)
    assert value <= 1e-12
    assert x[0] == pytest.approx(1.0, abs=1e-5)


def test_te_l2_validation():
    samples, _, _ = gaussian_instance(11, d=2, n=10)
    with pytest.raises(InvalidInputError):
        te_l2_solve(samples, -1e-9)


def test_te_l2_status_comes_from_its_displacement_test(monkeypatch):
    samples, _, _ = gaussian_instance(11, d=3, n=30, scale=0.01)
    _, _, status = te_l2_solve(samples, 1e-3)
    assert status == STATUS_CONVERGED
    monkeypatch.setattr(baselines, "TE_L2_MAX_STEPS", 1)
    _, _, status = te_l2_solve(samples, 0.0)
    assert status == STATUS_ITERATION_CAP

"""Sample-average CVaR and least-squares baseline solvers."""

import numpy as np
import pytest

import oracles
from helpers import gaussian_instance
from drtrack.baselines import (
    BaselineParams,
    StepRule,
    scvar_objective,
    scvar_solve,
    te_l2_solve,
)
from drtrack.errors import InvalidInputError
from drtrack.model import ModelParams, PsiKind, SampleSet, var_threshold
from drtrack.spg import STATUS_CONVERGED, STATUS_ITERATION_CAP


def test_baseline_params_validation():
    with pytest.raises(InvalidInputError):
        BaselineParams(step_rule="armijo")
    with pytest.raises(InvalidInputError):
        BaselineParams(max_iters=0)
    with pytest.raises(InvalidInputError):
        BaselineParams(tolerance=0.0)


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
        assert res.objective == pytest.approx(
            scvar_objective(res.x, res.alpha, samples, model), rel=1e-12
        )
        assert res.status in ("converged", "iteration-cap")


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


def test_scvar_diminishing_rule_runs():
    samples, _, model = gaussian_instance(6, d=3, n=25, scale=0.01,
                                          tau1=1e-4, tau2=2e-4, beta=0.9)
    params = BaselineParams(
        step_rule=StepRule.DIMINISHING,
        max_iters=2000,
    )
    res = scvar_solve(samples, model, params)
    assert np.isfinite(res.objective)
    assert res.x.sum() == pytest.approx(1.0, abs=1e-10)


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
    with pytest.raises(InvalidInputError):
        te_l2_solve(samples, 0.0, max_iters=0)


def test_te_l2_status_comes_from_its_displacement_test():
    samples, _, _ = gaussian_instance(11, d=3, n=30, scale=0.01)
    _, _, status = te_l2_solve(samples, 0.0, max_iters=1)
    assert status == STATUS_ITERATION_CAP
    _, _, status = te_l2_solve(samples, 1e-3)
    assert status == STATUS_CONVERGED

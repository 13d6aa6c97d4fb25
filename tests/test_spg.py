"""Smoothing projected gradient solver: steps, phases, termination."""

import numpy as np
import pytest

from helpers import gaussian_instance, tracking_instance, vertex_start
from drtrack import smoothing
from drtrack import spg as spg_module
from drtrack.errors import InvalidInputError, NumericalError
from drtrack.data import build_sample_set, estimate_moments, gen_synthetic
from drtrack.model import AmbiguityParams, DualPoint, ModelParams, SampleSet, evaluate_phi_n, var_threshold
from drtrack.smoothing import grad_smooth_phi
from drtrack.spg import (
    STATUS_CONVERGED,
    STATUS_ITERATION_CAP,
    SpgParams,
    _residual,
    _spectral_step,
    default_start,
    spg_solve,
)


def test_spg_params_validation():
    bad = [
        dict(alpha0=0.0),
        dict(sigma=0.0),
        dict(sigma=1.0),
        dict(rho=1.0),
        dict(mu0=-1.0),
        dict(eta=0.0),
        dict(omega=0.0),
        dict(omega=1.0),
        dict(epsilon=0.0),
        dict(n0=0),
        dict(mu_stop=0.0),
        dict(max_outer_iters=0),
        dict(max_backtracks=0),
        dict(max_inner_per_phase=0),
    ]
    for kwargs in bad:
        with pytest.raises(InvalidInputError):
            SpgParams(**kwargs)


def test_default_start_is_feasible_var_threshold():
    samples, _, model = tracking_instance(0)
    nu = default_start(samples, model)
    assert np.allclose(nu.x, 1.0 / 3.0)
    assert nu.alpha == var_threshold(nu.x, samples, model.beta)
    assert np.all(nu.q == 0.0) and np.all(nu.lam == 0.0)


def test_spg_solve_converges_with_real_descent():
    samples, amb, model = tracking_instance(0)
    res = spg_solve(vertex_start(3), samples, amb, model, SpgParams(),
                    record_trace=True)
    assert res.status == STATUS_CONVERGED
    assert res.residual <= 1e-4
    assert res.mu_final <= 2e-6
    assert res.outer_iters <= 3000
    assert res.inner_iters > 0
    assert res.nu.x.min() >= 0.0
    assert res.nu.x.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.eigvalsh(res.nu.lam).min() >= -1e-10
    # the exact objective is reported at the final iterate
    assert res.objective == pytest.approx(
        evaluate_phi_n(res.nu, samples, amb, model)[0], rel=1e-12
    )
    # residual is reproducible from the final iterate and smoothing level
    grad = grad_smooth_phi(res.nu, samples, res.mu_final, amb, model)
    assert res.residual == pytest.approx(
        _residual(res.nu.to_array(), grad.to_array(), 3), rel=1e-9
    )


def test_spg_trace_and_phases_recorded_only_on_request():
    samples, amb, model = tracking_instance(2)
    bare = spg_solve(vertex_start(3), samples, amb, model, SpgParams())
    assert bare.trace is None and bare.phase_objectives is None
    traced = spg_solve(vertex_start(3), samples, amb, model, SpgParams(),
                       record_trace=True)
    assert traced.trace is not None and len(traced.trace) >= 1
    times = [t for t, _ in traced.trace]
    assert all(b >= a for a, b in zip(times, times[1:]))
    # every phase log opens with the phase's entry objective
    assert all(len(phase) >= 1 for phase in traced.phase_objectives)
    assert sum(len(p) - 1 for p in traced.phase_objectives) == traced.inner_iters


def test_spg_inner_descent_is_monotone():
    samples, amb, model = tracking_instance(3)
    res = spg_solve(vertex_start(3), samples, amb, model, SpgParams(),
                    record_trace=True)
    assert res.inner_iters > 0
    for phase in res.phase_objectives:
        for before, after in zip(phase, phase[1:]):
            assert after <= before + 1e-12


def test_spg_outer_iteration_cap_reported():
    samples, amb, model = tracking_instance(4)
    res = spg_solve(vertex_start(3), samples, amb, model,
                    SpgParams(max_outer_iters=3))
    assert res.status == STATUS_ITERATION_CAP
    assert res.outer_iters == 3
    assert np.isfinite(res.residual)


def test_spg_inner_cap_bounds_phase_length():
    samples, amb, model = tracking_instance(0)
    capped = spg_solve(vertex_start(3), samples, amb, model,
                       SpgParams(max_inner_per_phase=2, max_outer_iters=50),
                       record_trace=True)
    assert all(len(phase) - 1 <= 2 for phase in capped.phase_objectives)


def test_spg_solver_insensitive_to_inner_cap_when_slack():
    samples, amb, model = tracking_instance(1)
    loose = spg_solve(vertex_start(3), samples, amb, model, SpgParams())
    tight = spg_solve(vertex_start(3), samples, amb, model,
                      SpgParams(max_inner_per_phase=500))
    assert loose.objective == tight.objective
    assert loose.inner_iters == tight.inner_iters


def test_spg_rejects_dimension_mismatch():
    samples, amb, model = tracking_instance(0)
    with pytest.raises(InvalidInputError):
        spg_solve(vertex_start(4), samples, amb, model, SpgParams())
    _, amb4, _ = gaussian_instance(0, d=4)
    with pytest.raises(InvalidInputError):
        spg_solve(vertex_start(3), samples, amb4, model, SpgParams())


def test_spg_deterministic_apart_from_timing():
    samples, amb, model = tracking_instance(2)
    first = spg_solve(vertex_start(3), samples, amb, model, SpgParams())
    second = spg_solve(vertex_start(3), samples, amb, model, SpgParams())
    assert np.array_equal(first.nu.to_array(), second.nu.to_array())
    assert first.objective == second.objective
    assert first.outer_iters == second.outer_iters
    assert first.inner_iters == second.inner_iters
    assert first.grad_evals == second.grad_evals


def test_spg_raises_numerical_error_on_overflow():
    samples, amb, model = tracking_instance(0)
    # 1e160 overflows the gradient; 1e155 leaves it finite but overflows
    # every trial value of the first line search.
    for scale, what in ((1e160, "gradient"), (1e155, "objective")):
        huge = SampleSet(samples.samples * scale)
        with np.errstate(all="ignore"), pytest.raises(
            NumericalError, match=f"smoothed {what} is not finite at mu=1 in outer iteration 0"
        ):
            spg_solve(vertex_start(3), huge, amb, model, SpgParams())


def test_spg_builds_constant_number_of_dual_points(monkeypatch):
    samples, amb, model = tracking_instance(0)
    nu0 = vertex_start(3)
    built = []
    original = DualPoint.__post_init__

    def counting(self):
        built.append(1)
        original(self)

    monkeypatch.setattr(DualPoint, "__post_init__", counting)
    res = spg_solve(nu0, samples, amb, model, SpgParams())
    assert res.inner_iters >= 50
    # the projected start and the returned point; none per step or trial
    assert len(built) <= 2


def test_one_kernel_pass_per_point(monkeypatch):
    samples, amb, model = tracking_instance(1)
    real = smoothing._smooth
    passes = []

    def counting(*args):
        passes.append(1)
        return real(*args)

    monkeypatch.setattr(smoothing, "_smooth", counting)
    monkeypatch.setattr(spg_module, "_smooth", counting)
    # a solve makes one pass at the start, traced or not, and one per
    # trial; new smoothing levels and the final residual reuse them
    for record in (False, True):
        passes.clear()
        res = spg_solve(vertex_start(3), samples, amb, model,
                        SpgParams(max_outer_iters=8), record_trace=record)
        assert res.outer_iters == 8
        assert len(passes) == 1 + res.trials


def test_spectral_first_trial_rule():
    spg = SpgParams(alpha0=2.0, rho=0.5, max_backtracks=4)
    s = np.array([1.0, 0.0, 2.0])
    # s's = 5, s'r = 4: the Barzilai-Borwein ratio lies inside the range
    assert _spectral_step(s, np.array([0.0, 3.0, 2.0]), spg) == 1.25
    # no positive curvature along s: fall back to alpha0
    assert _spectral_step(s, np.array([-1.0, 0.0, 0.0]), spg) == 2.0
    assert _spectral_step(s, np.array([0.0, 7.0, 0.0]), spg) == 2.0
    # clipped above at alpha0 and below at alpha0 * rho**max_backtracks
    assert _spectral_step(s, np.array([0.1, 0.0, 0.0]), spg) == 2.0
    assert _spectral_step(s, np.array([100.0, 0.0, 0.0]), spg) == 0.125


def test_spg_spectral_start_saves_line_search_trials():
    panel = gen_synthetic(8, 500, 11)
    samples = build_sample_set(panel)
    moments = estimate_moments(panel)
    amb = AmbiguityParams(
        mu_hat=moments.mu_hat, sigma_hat=moments.sigma_hat, kappa1=0.1, kappa2=1.0
    )
    model = ModelParams(tau1=2e-4, tau2=2e-4, beta=0.95)
    caps = SpgParams(max_outer_iters=20, max_inner_per_phase=5)
    res = spg_solve(default_start(samples, model), samples, amb, model, caps)
    assert res.inner_iters == 100
    # restarting every line search at alpha0 costs 2.75 trials per step here
    assert res.inner_iters <= res.trials <= 2.0 * res.inner_iters

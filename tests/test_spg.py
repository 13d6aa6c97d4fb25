"""Smoothing projected gradient solver: steps, phases, termination."""

from dataclasses import replace

import numpy as np
import pytest

from helpers import gaussian_instance, tracking_instance, vertex_start
from drtrack import smoothing
from drtrack import spg as spg_module
from drtrack.errors import InvalidInputError, NumericalError
from drtrack.data import build_sample_set, estimate_moments, gen_synthetic
from drtrack.model import (
    AmbiguityParams,
    DualPoint,
    ModelParams,
    PsiKind,
    SampleSet,
    evaluate_phi_n,
    h_values,
    portfolio_losses,
    var_threshold,
)
from drtrack.projections import project_feasible
from drtrack.smoothing import grad_smooth_phi
from drtrack.spg import (
    STATUS_CONVERGED,
    STATUS_ITERATION_CAP,
    STATUS_STALLED,
    SpgParams,
    _search_exponent,
    _spectral_step,
    _unit_step,
    default_start,
    spg_solve,
)


def test_spg_params_validation():
    bad = [
        dict(alpha0=0.0),
        dict(alpha0=float("inf")),
        dict(alpha0=float("nan")),
        dict(max_outer_iters=0),
        dict(max_outer_iters=2.7),
        dict(max_outer_iters=True),
        dict(max_inner_per_phase=0),
        dict(max_inner_per_phase=1.5),
    ]
    for kwargs in bad:
        with pytest.raises(InvalidInputError):
            SpgParams(**kwargs)


def test_default_start_is_feasible_var_threshold():
    samples, _, model = tracking_instance(0)
    nu = default_start(samples, model)
    assert np.allclose(nu.x, 1.0 / 3.0)
    assert nu.alpha == var_threshold(nu.x, samples, model.beta)
    # squared psi: lam starts at w0 w0' with w0 = (-x0, 1)
    w0 = np.append(-nu.x, 1.0)
    assert np.all(nu.q == 0.0) and np.array_equal(nu.lam, np.outer(w0, w0))
    absolute = default_start(samples, replace(model, psi=PsiKind.ABSOLUTE))
    assert np.all(absolute.q == 0.0) and np.all(absolute.lam == 0.0)
    # both starts are feasible: the projection leaves them in place
    for start in (nu, absolute):
        projected = project_feasible(start)
        assert np.allclose(projected.to_array(), start.to_array(), rtol=0.0, atol=1e-14)


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
        _unit_step(res.nu.to_array(), grad.to_array(), 3)[1], rel=1e-9
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


def test_spg_stalls_after_three_failed_line_searches(monkeypatch):
    # an Armijo constant no trial can meet: every phase's search fails after
    # all 61 exponents, and the third failure in a row ends the run
    monkeypatch.setattr(spg_module, "_SIGMA", 1e300)
    samples, amb, model = tracking_instance(0)
    start = vertex_start(3)
    res = spg_solve(start, samples, amb, model, SpgParams(max_outer_iters=50))
    assert res.status == STATUS_STALLED
    assert (res.outer_iters, res.inner_iters, res.trials, res.grad_evals) == (3, 0, 183, 4)
    # no step was taken, so the result is the projected start
    projected = project_feasible(start)
    assert np.array_equal(res.nu.to_array(), projected.to_array())
    assert res.objective == evaluate_phi_n(projected, samples, amb, model)[0]


def test_spg_stalls_when_a_phase_cannot_move_the_point(monkeypatch):
    # a phase whose first accepted step returns the point unchanged counts as
    # a failed line search, so three in a row end the run with no step taken
    armijo = spg_module._armijo_flat

    def standing_still(y, *args):
        _, at, step, trials = armijo(y, *args)
        return y.copy(), at, step, trials

    monkeypatch.setattr(spg_module, "_armijo_flat", standing_still)
    samples, amb, model = tracking_instance(0)
    res = spg_solve(vertex_start(3), samples, amb, model, SpgParams(max_outer_iters=50),
                    record_trace=True)
    assert res.status == STATUS_STALLED
    assert (res.outer_iters, res.inner_iters) == (3, 0)
    assert all(len(phase) == 1 for phase in res.phase_objectives)


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


def test_unit_first_trial_reuses_the_residual_projection(monkeypatch):
    samples, amb, model = tracking_instance(1)
    real_project, real_smooth = spg_module._project_flat, spg_module._smooth
    projections, passes = [], []

    def counting_project(*args):
        projections.append(1)
        return real_project(*args)

    def counting_smooth(*args):
        passes.append(1)
        return real_smooth(*args)

    monkeypatch.setattr(spg_module, "_project_flat", counting_project)
    monkeypatch.setattr(spg_module, "_smooth", counting_smooth)
    for alpha0 in (1.0, 0.5):
        projections.clear()
        passes.clear()
        res = spg_solve(vertex_start(3), samples, amb, model,
                        SpgParams(alpha0=alpha0, max_outer_iters=8), record_trace=True)
        phases = len(res.phase_objectives)
        assert phases >= 1
        # the start, one residual per outer iteration, the final residual
        # (or, on convergence, the residual that converged) and one per
        # trial; at alpha0 = 1 each phase's first trial is the residual's
        reused = phases if alpha0 == 1.0 else 0
        assert len(projections) == 1 + res.outer_iters + 1 + res.trials - reused
        assert len(passes) == 1 + res.trials


def test_spectral_first_trial_rule(monkeypatch):
    monkeypatch.setattr(spg_module, "_MAX_BACKTRACKS", 4)
    s = np.array([1.0, 0.0, 2.0])
    # s's = 5, s'r = 4: the Barzilai-Borwein ratio lies inside the range
    assert _spectral_step(s, np.array([0.0, 3.0, 2.0]), 2.0) == 1.25
    # no positive curvature along s: fall back to alpha0
    assert _spectral_step(s, np.array([-1.0, 0.0, 0.0]), 2.0) == 2.0
    assert _spectral_step(s, np.array([0.0, 7.0, 0.0]), 2.0) == 2.0
    # clipped above at alpha0 and below at alpha0 * 0.5**4
    assert _spectral_step(s, np.array([0.1, 0.0, 0.0]), 2.0) == 2.0
    assert _spectral_step(s, np.array([100.0, 0.0, 0.0]), 2.0) == 0.125


def capped_instance():
    panel = gen_synthetic(8, 500, 11)
    samples = build_sample_set(panel)
    moments = estimate_moments(panel)
    amb = AmbiguityParams(
        mu_hat=moments.mu_hat, sigma_hat=moments.sigma_hat, kappa1=0.1, kappa2=1.0
    )
    model = ModelParams(tau1=2e-4, tau2=2e-4, beta=0.95)
    return default_start(samples, model), samples, amb, model


CAPS = SpgParams(max_outer_iters=20, max_inner_per_phase=5)


def zero_lam_start(nu):
    """``nu`` with both multipliers at zero."""
    return DualPoint(x=nu.x, alpha=nu.alpha, q=np.zeros_like(nu.q), lam=np.zeros_like(nu.lam))


def test_spg_spectral_start_saves_line_search_trials():
    res = spg_solve(*capped_instance(), CAPS)
    assert res.inner_iters == 100
    # restarting every line search at alpha0 costs 2.75 trials per step here
    assert res.inner_iters <= res.trials <= 2.0 * res.inner_iters


def test_trace_and_phase_objectives_are_views_of_one_log():
    res = spg_solve(*capped_instance(), CAPS, record_trace=True)
    assert len(res.phase_objectives) > 1
    steps = [value for phase in res.phase_objectives for value in phase[1:]]
    assert [value for _, value in res.trace[1:]] == steps
    assert len(res.trace) == res.inner_iters + 1
    times = [t for t, _ in res.trace]
    assert all(b >= a for a, b in zip(times, times[1:]))


def test_default_start_lam_at_w0w0_beats_a_zero_lam_start():
    nu, *rest = capped_instance()
    warm = spg_solve(nu, *rest, CAPS)
    cold = spg_solve(zero_lam_start(nu), *rest, CAPS)
    assert warm.inner_iters == cold.inner_iters
    assert warm.objective <= 0.5 * cold.objective


def test_default_start_cancels_the_quadratic_terms_sample_by_sample():
    panel = gen_synthetic(8, 500, 0)
    samples = build_sample_set(panel)
    moments = estimate_moments(panel)
    amb = AmbiguityParams(
        mu_hat=moments.mu_hat, sigma_hat=moments.sigma_hat, kappa1=0.1, kappa2=1.0
    )
    model = ModelParams(tau1=2e-4, tau2=2e-4, beta=0.95)
    nu = default_start(samples, model)
    plus = np.maximum(portfolio_losses(nu.x, samples) - nu.alpha, 0.0)
    # (w0'xi)^2 - xi' lam0 xi = 0 and q0 = 0: all that is left is the same for every row
    rest = h_values(nu, samples, amb, model) - model.cvar_coef * plus
    assert np.ptp(rest) <= 1e-12 * np.abs(rest).max()


def run_search(ok, guess):
    """``_search_exponent`` on the pass pattern ``ok``: ``(result, exponents tried)``."""
    tried = []

    def passes(j):
        tried.append(j)
        return ok[j]

    return _search_exponent(passes, guess), tried


def scan_search(passes, guess):
    """The one-at-a-time backtrack: the first passing exponent."""
    return next((j for j in range(61) if passes(j)), None)


def test_search_exponent_finds_the_scans_exponent_on_monotone_oracles():
    for first in range(61):
        ok = [j >= first for j in range(61)]
        guesses = {
            "none": lambda j: float("nan"),
            "exact": lambda j: first + 0.5,
            "under": lambda j: (j + first) / 2.0,
        }
        for name, guess in guesses.items():
            found, tried = run_search(ok, guess)
            assert found == first, name
            assert len(tried) <= first + 1, name
        # a guess past the first passing exponent costs trials, not the answer
        for over in (1, 5, 60):
            found, tried = run_search(ok, lambda j: first + over)
            assert found == first and len(set(tried)) == len(tried)


def test_search_exponent_brackets_any_oracle():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        ok = list(rng.random(61) < rng.uniform(0.05, 0.95))
        marks = rng.uniform(-5.0, 70.0, size=61)
        found, tried = run_search(ok, lambda j: marks[j])
        assert len(set(tried)) == len(tried) and tried[0] == 0
        if found is None:
            assert tried[-1] == 60 and not any(ok[j] for j in tried)
        else:
            # the accepted exponent passes and the one before it failed
            assert ok[found] and found in tried
            assert found == 0 or (not ok[found - 1] and found - 1 in tried)


def test_search_exponent_stalls_after_the_last_exponent():
    for guess in (lambda j: float("nan"), lambda j: j + 7.0, lambda j: 1e300):
        found, tried = run_search([False] * 61, guess)
        assert found is None and tried[-1] == 60 and len(set(tried)) == len(tried)


def test_search_exponent_steps_to_the_next_exponent_on_non_finite_guesses():
    ok = [j >= 9 for j in range(61)]
    for bad in (float("nan"), float("inf"), float("-inf")):
        found, tried = run_search(ok, lambda j: bad)
        assert found == 9 and tried == list(range(10))
    # finite guesses are floored, at least one past the largest failure
    assert run_search(ok, lambda j: 12.9)[1][:2] == [0, 12]
    assert run_search(ok, lambda j: -3.0)[1][:2] == [0, 1]


def test_search_exponent_steps_back_one_exponent_at_a_time():
    # forward to the guess, then back from the first pass until a trial fails
    ok = [j >= 5 for j in range(61)]
    assert run_search(ok, lambda j: 9.0) == (5, [0, 9, 8, 7, 6, 5, 4])


def test_bracketed_search_matches_a_scan_in_fewer_trials(monkeypatch):
    nu, *rest = capped_instance()
    # from Lambda0 = 0 and from the default start Lambda0 = w0 w0'
    starts = (zero_lam_start(nu), nu)
    searched = [spg_solve(start, *rest, CAPS, record_trace=True) for start in starts]
    monkeypatch.setattr(spg_module, "_search_exponent", scan_search)
    scans = [spg_solve(start, *rest, CAPS, record_trace=True) for start in starts]
    for bracketed, scanned in zip(searched, scans):
        assert bracketed.nu.to_array().tobytes() == scanned.nu.to_array().tobytes()
        for name in ("objective", "smooth_objective", "residual", "mu_final", "outer_iters",
                     "inner_iters", "grad_evals", "status", "phase_objectives"):
            assert getattr(bracketed, name) == getattr(scanned, name), name
        assert [v for _, v in bracketed.trace] == [v for _, v in scanned.trace]
    assert [r.trials for r in scans] == [135, 143]
    assert [r.trials for r in searched] == [122, 120]

"""Sample-average CVaR and least-squares baseline solvers."""

import numpy as np
import pytest

import oracles
from helpers import gaussian_instance
from drtrack import baselines
from drtrack.baselines import (
    GAP_TOLERANCE,
    BaselineParams,
    _fenchel_bound,
    _simplex_qp,
    _smoothed_threshold,
    _threshold_bound,
    _tracking_qp,
    scvar_objective,
    scvar_solve,
    te_l2_solve,
)
from drtrack.data import build_sample_set, gen_synthetic
from drtrack.errors import InvalidInputError
from drtrack.model import ModelParams, PsiKind, SampleSet, evaluate_khat, var_threshold
from drtrack.projections import project_simplex
from drtrack.smoothing import _plus_and_tail, smooth_psi
from drtrack.spg import STATUS_CONVERGED, STATUS_ITERATION_CAP


def test_baseline_params_validation():
    for max_iters in (0, 2.5, True):
        with pytest.raises(InvalidInputError):
            BaselineParams(max_iters=max_iters)


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


def test_scvar_objective_is_the_mean_of_khat_over_the_rows():
    # the nominal objective and the per-scenario loss the robust objective bounds
    samples = build_sample_set(gen_synthetic(6, 200, 3))
    rng = np.random.default_rng(11)
    points = [(np.full(6, 1.0 / 6.0), 0.0), (rng.dirichlet(np.ones(6)), 0.01),
              (np.eye(6)[2], -0.02)]
    for kind in (PsiKind.SQUARED, PsiKind.ABSOLUTE):
        model = ModelParams(psi=kind)
        for x, alpha in points:
            mean = np.mean([evaluate_khat(x, alpha, row, model) for row in samples.samples])
            assert mean == pytest.approx(scvar_objective(x, alpha, samples, model), rel=1e-14)


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
        assert res.weights.min() >= 0.0
        assert res.weights.sum() == pytest.approx(1.0, abs=1e-10)
        assert res.alpha == var_threshold(res.weights, samples, model.beta)
        assert res.objective == pytest.approx(
            scvar_objective(res.weights, res.alpha, samples, model), rel=1e-12
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
    # checked public functions run only at the start point.  At the default
    # tolerance the long fit also certifies in 2 iterations; at 1e-6 it takes 5.
    monkeypatch.setattr(baselines, "GAP_TOLERANCE", 1e-6)
    samples, _, model = gaussian_instance(6, d=3, n=25, scale=0.01,
                                          tau1=1e-4, tau2=2e-4, beta=0.9)
    calls = {"scvar_objective": 0, "var_threshold": 0}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(baselines, name)):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(baselines, name, counted)
    counts = []
    for max_iters in (2, 50):
        res = scvar_solve(samples, model, BaselineParams(max_iters=max_iters))
        counts.append((dict(calls), res.iters))
        calls.update(dict.fromkeys(calls, 0))
    (short, short_iters), (long, long_iters) = counts
    assert short_iters == 2 < long_iters
    assert short == long


def test_scvar_evaluates_each_accepted_point_once(monkeypatch):
    # every iteration evaluates at least one trial point, and smooth_psi runs
    # once per evaluation; after a restart, or a momentum step with t = 1,
    # the next extrapolated point is the accepted one, whose surrogate is
    # reused, so a fit makes fewer than two evaluations per iteration
    calls = []

    def counted(*args):
        calls.append(args)
        return smooth_psi(*args)

    monkeypatch.setattr(baselines, "smooth_psi", counted)
    samples = build_sample_set(gen_synthetic(8, 313, 0), 0, 250)
    res = scvar_solve(samples, ModelParams(tau1=2e-4, tau2=2e-4))
    assert res.status == STATUS_CONVERGED and res.iters > 2
    assert len(calls) < 2 * res.iters


def _same_result(a, b) -> bool:
    return np.array_equal(a.weights, b.weights) and (
        a.alpha, a.objective, a.lower_bound, a.gap, a.iters, a.status
    ) == (b.alpha, b.objective, b.lower_bound, b.gap, b.iters, b.status)


def test_scvar_start_is_checked_and_projected():
    samples, _, model = gaussian_instance(5, d=4, n=40, scale=0.01,
                                          tau1=1e-4, tau2=2e-4, beta=0.9)
    for bad in (np.full(3, 1.0 / 3.0), np.full(5, 0.2), np.ones((2, 2)),
                [0.5, 0.5, np.nan, 0.0], [np.inf, 0.0, 0.0, 0.0]):
        with pytest.raises(InvalidInputError, match="x0"):
            scvar_solve(samples, model, x0=bad)
    off = np.array([2.0, -1.0, 0.5, 0.3])
    projected = project_simplex(off)
    assert not np.array_equal(off, projected)
    res = scvar_solve(samples, model, x0=off)
    assert res.status == STATUS_CONVERGED
    assert _same_result(res, scvar_solve(samples, model, x0=projected))
    # no start is the uniform start
    assert _same_result(
        scvar_solve(samples, model), scvar_solve(samples, model, x0=np.full(4, 0.25))
    )


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
    # with no CVaR weight the squared penalty's fit is the exact quadratic's
    for tau2 in (2e-4, 0.0):
        samples, _, model = gaussian_instance(
            12, d=2, n=30, scale=0.01, tau1=tau1, tau2=tau2, beta=0.9, psi=psi
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
    # and tau2 -> s tau2; the absolute one as s with tau1 -> s tau1.  The
    # smoothing schedule is relative to the losses, so the iterations stay put.
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
        assert res.iters == base.iters


def test_scvar_with_zero_cvar_weight_matches_te_l2():
    # without the threshold term both baselines minimise the same quadratic,
    # which the squared penalty's fit then solves exactly, at the default tolerance
    samples, _, model = gaussian_instance(8, d=3, n=30, scale=0.01,
                                          tau1=1e-3, tau2=0.0, beta=0.9)
    sub = scvar_solve(samples, model, BaselineParams(max_iters=20_000))
    te = te_l2_solve(samples, model.tau1)
    f_pg = te.objective
    assert sub.status == STATUS_CONVERGED
    assert sub.objective == pytest.approx(f_pg, rel=1e-10, abs=0.0)
    assert sub.gap <= 1e-10
    assert sub.lower_bound <= f_pg
    assert te.lower_bound <= sub.objective


def test_scvar_certifies_a_tight_gap_without_a_ridge(monkeypatch):
    # at tau1 = 0 the Fenchel bound's simplex term is -max g, and with it this
    # fit ended at iteration-cap after 50,000 iterations, at a gap of 1.005e-8;
    # the exact quadratic's bound certifies it within a few dozen
    monkeypatch.setattr(baselines, "GAP_TOLERANCE", 1e-8)
    samples = build_sample_set(gen_synthetic(8, 500, 0), 0, 500)
    model = ModelParams(tau1=0.0, tau2=2e-4)
    res = scvar_solve(samples, model, BaselineParams(max_iters=200))
    assert res.status == STATUS_CONVERGED
    assert res.gap <= 1e-8
    assert res.objective == pytest.approx(
        scvar_objective(res.weights, res.alpha, samples, model), rel=1e-12
    )


def test_scvar_certifies_a_zero_optimum():
    # assets that replicate the index exactly: the optimum is 0 and both bounds
    # are rounding, so a gap relative to |objective| alone could never close
    panel = gen_synthetic(3, 130, 2, beta_range=(1.0, 1.0), sigma_range=(0.0, 0.0))
    samples = build_sample_set(panel, 0, 100)
    for psi in (PsiKind.SQUARED, PsiKind.ABSOLUTE):
        model = ModelParams(tau1=0.0, tau2=0.0, psi=psi)
        res = scvar_solve(samples, model, BaselineParams(max_iters=100))
        assert res.status == STATUS_CONVERGED
        assert res.gap <= GAP_TOLERANCE
        assert res.lower_bound <= res.objective <= 1e-15


def test_simplex_qp_grows_the_support_from_a_vertex():
    # every asset enters the support on the way from e_1 to the optimum
    samples = build_sample_set(gen_synthetic(8, 500, 0), 0, 500)
    for tau1 in (0.0, 2e-4):
        kkt, b, tol = _tracking_qp(samples.xi_b, samples.xi_a, tau1)
        vertex = np.eye(8)[0]
        x, g = _simplex_qp(kkt, b, vertex, tol)
        assert vertex.sum() == 1.0 and np.count_nonzero(vertex) == 1  # not modified
        assert np.count_nonzero(x) == 8
        assert float(g @ x - g.min()) <= tol
        reference, _ = _simplex_qp(kkt, b, np.full(8, 0.125), tol)
        assert np.abs(x - reference).max() <= 1e-15


def test_scvar_solves_the_exact_quadratic_only_for_the_squared_penalty_at_a_zero_tau(monkeypatch):
    calls = []

    def counted(*args, _inner=baselines._simplex_qp):
        calls.append(args)
        return _inner(*args)

    monkeypatch.setattr(baselines, "_simplex_qp", counted)
    cases = [
        (PsiKind.SQUARED, 1e-3, 2e-4, False),
        (PsiKind.ABSOLUTE, 0.0, 2e-4, False),
        (PsiKind.ABSOLUTE, 1e-3, 0.0, False),
        (PsiKind.SQUARED, 0.0, 2e-4, True),
        (PsiKind.SQUARED, 1e-3, 0.0, True),
    ]
    for psi, tau1, tau2, exact in cases:
        samples, _, model = gaussian_instance(8, d=3, n=30, scale=0.01,
                                              tau1=tau1, tau2=tau2, beta=0.9, psi=psi)
        res = scvar_solve(samples, model)
        assert res.status == STATUS_CONVERGED
        # one active-set solve per iteration on the exact path, none off it
        assert len(calls) == (res.iters if exact else 0)
        calls.clear()


def test_scvar_with_zero_cvar_weight_skips_the_threshold_solve(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _smoothed_threshold(*args)

    monkeypatch.setattr(baselines, "_smoothed_threshold", counted)
    for psi in (PsiKind.SQUARED, PsiKind.ABSOLUTE):
        samples, _, model = gaussian_instance(8, d=3, n=30, scale=0.01,
                                              tau1=1e-3, tau2=0.0, beta=0.9, psi=psi)
        res = scvar_solve(samples, model)
        assert res.status == STATUS_CONVERGED
        assert res.alpha == var_threshold(res.weights, samples, model.beta)
    assert calls == []
    # a positive CVaR weight still solves for the threshold
    samples, _, model = gaussian_instance(8, d=3, n=30, scale=0.01,
                                          tau1=1e-3, tau2=2e-4, beta=0.9)
    scvar_solve(samples, model, BaselineParams(max_iters=1))
    assert calls


def _scan_multipliers(samples, model, weight, alpha):
    """Multipliers at x = (weight, 1 - weight) and threshold ``alpha``: psi'(c) and
    the CVaR tail indicator, with a fractional tie so that its mean is 1 - beta."""
    losses = -(samples.xi_b @ np.array([weight, 1.0 - weight]))
    c = samples.xi_a + losses
    v = 2.0 * c if model.psi is PsiKind.SQUARED else np.sign(c)
    sig = (losses > alpha).astype(float)
    sig[np.argmin(np.abs(losses - alpha))] += (1.0 - model.beta) * losses.size - sig.sum()
    return v, sig


def _random_multipliers(rng, samples, model, centred):
    """v in the conjugate's domain and sigma in [0, 1], of mean 1 - beta if ``centred``."""
    n = samples.n_samples
    if model.psi is PsiKind.SQUARED:
        v = rng.normal(scale=2.0 * samples.xi_a.std(), size=n)
    else:
        v = rng.uniform(-1.0, 1.0, n)
    u = rng.uniform(0.0, 1.0, n)
    keep = 1.0 - model.beta
    if not centred:
        sig = u * rng.uniform()
    elif u.mean() > keep:
        sig = u * (keep / u.mean())
    else:
        sig = 1.0 - (1.0 - u) * (model.beta / (1.0 - u).mean())
    return v, sig


def _bound_at(v, sig, samples, model):
    """:func:`_fenchel_bound` at multipliers ``v`` and ``sig``, forming ``g`` directly."""
    n = samples.n_samples
    coef = model.cvar_coef
    xi_b = samples.xi_b
    g = xi_b.T @ (v + coef * sig) / n
    galpha = model.tau2 - coef * sig.mean()
    return _fenchel_bound(v, g, galpha, samples.xi_a, model, -xi_b.max(), -xi_b.min())


@pytest.mark.parametrize("psi", [PsiKind.SQUARED, PsiKind.ABSOLUTE])
@pytest.mark.parametrize("tau1", [0.0, 1e-3])
def test_fenchel_bound_at_random_multipliers_is_below_a_dense_scan(psi, tau1):
    # each multiplier mixed at random, half the time not at all, between a
    # random one and that at the scan's minimiser, where the bound is nearly
    # tight (less so for |c|: its minimiser zeroes residuals, where sign(c)
    # is a crude subgradient)
    samples, _, model = gaussian_instance(
        12, d=2, n=30, scale=0.01, tau1=tau1, tau2=2e-4, beta=0.9, psi=psi
    )
    weights = np.linspace(0.0, 1.0, 20_001)
    scan, alpha = _scan_two_assets(samples, model, weights)
    best = int(scan.argmin())
    scan_min = float(scan[best])
    v_opt, sig_opt = _scan_multipliers(samples, model, weights[best], alpha[best])
    assert sig_opt.min() >= 0.0 and sig_opt.max() <= 1.0
    slack = 1e-2 if psi is PsiKind.SQUARED else 1e-1
    assert _bound_at(v_opt, sig_opt, samples, model) >= scan_min * (1.0 - slack)
    rng = np.random.default_rng(14)
    for centred in (True, False):
        for _ in range(300):
            v, sig = _random_multipliers(rng, samples, model, centred)
            if centred:
                assert sig.mean() == pytest.approx(1.0 - model.beta, rel=1e-12)
            mix_v, mix_sig = rng.uniform(size=2) * rng.integers(0, 2, size=2)
            v = (1.0 - mix_v) * v_opt + mix_v * v
            sig = (1.0 - mix_sig) * sig_opt + mix_sig * sig
            assert _bound_at(v, sig, samples, model) <= scan_min + 1e-12


@pytest.mark.parametrize("psi", [PsiKind.SQUARED, PsiKind.ABSOLUTE])
def test_scvar_lower_bound_holds_with_an_unsolved_threshold(monkeypatch, psi):
    # one Newton step leaves mean(sigma) off 1 - beta, so the alpha-derivative
    # is not zero, and the returned threshold may lie outside the loss range;
    # the Fenchel bound (|c|) and the exact quadratic's (c^2 at tau1 = 0)
    # both take the threshold's term from _threshold_bound
    monkeypatch.setattr(baselines, "_THRESHOLD_STEPS", 1)
    galphas = []

    def recorded(galpha, *rest):
        galphas.append(galpha)
        return _threshold_bound(galpha, *rest)

    monkeypatch.setattr(baselines, "_threshold_bound", recorded)
    samples, _, model = gaussian_instance(
        12, d=2, n=30, scale=0.01, tau1=0.0, tau2=2e-4, beta=0.9, psi=psi
    )
    scan_min = float(_scan_two_assets(samples, model, np.linspace(0.0, 1.0, 20_001))[0].min())
    res = scvar_solve(samples, model, BaselineParams(max_iters=200))
    assert any(galphas)
    assert res.lower_bound <= scan_min + 1e-12


def test_te_l2_matches_dense_scan_in_two_dimensions():
    samples, _, _ = gaussian_instance(9, d=2, n=40, scale=0.02)
    for tau1 in (0.0, 1e-3):
        res = te_l2_solve(samples, tau1)
        x, value = res.weights, res.objective
        assert x.shape == (2,) and x.min() >= 0.0
        assert x.sum() == pytest.approx(1.0, abs=1e-12)
        weights = np.linspace(0.0, 1.0, 20_001)
        xa, xb = samples.xi_a, samples.xi_b
        residual = xa[:, None] - np.outer(xb[:, 0], weights) - np.outer(
            xb[:, 1], 1.0 - weights
        )
        scan = np.square(residual).mean(axis=0)
        scan = scan + tau1 * (np.square(weights) + np.square(1.0 - weights))
        assert res.lower_bound <= float(scan.min())
        assert value <= float(scan.min()) + 1e-10


def test_te_l2_perfect_replication_is_exact():
    # one asset equal to the index: the minimum is zero at that vertex
    rng = np.random.default_rng(10)
    index = rng.normal(0.0, 0.01, 60)
    other = rng.normal(0.0, 0.01, 60)
    samples = SampleSet(samples=np.column_stack([index, other, index]))
    res = te_l2_solve(samples, 0.0)
    x, value = res.weights, res.objective
    assert value <= 1e-12
    assert x[0] == pytest.approx(1.0, abs=1e-5)


def test_te_l2_weights_are_invariant_under_return_scaling():
    # returns scaled by s and tau1 by s**2 scale the objective by s**2
    samples, _, _ = gaussian_instance(21, d=5, n=80, scale=0.01)
    for tau1 in (0.0, 1e-3):
        res = te_l2_solve(samples, tau1)
        x, value = res.weights, res.objective
        for s in (1e-50, 1e-2, 1e2, 1e50):
            scaled = SampleSet(samples=s * samples.samples)
            res_s = te_l2_solve(scaled, s * s * tau1)
            x_s, value_s = res_s.weights, res_s.objective
            assert res_s.status == STATUS_CONVERGED
            assert np.abs(x_s - x).max() <= 1e-12
            assert value_s == pytest.approx(s * s * value, rel=1e-12)


def test_te_l2_validation():
    samples, _, _ = gaussian_instance(11, d=2, n=10)
    with pytest.raises(InvalidInputError):
        te_l2_solve(samples, -1e-9)


def test_te_l2_status_comes_from_its_gap_test(monkeypatch):
    samples, _, _ = gaussian_instance(11, d=3, n=30, scale=0.01)
    assert te_l2_solve(samples, 1e-3).status == STATUS_CONVERGED
    monkeypatch.setattr(baselines, "TE_L2_GAP", -1.0)
    assert te_l2_solve(samples, 0.0).status == STATUS_ITERATION_CAP


def test_te_l2_certifies_a_panel_with_nearly_as_many_assets_as_days():
    # 100 assets on 500 days with no ridge: the Frank-Wolfe gap, recomputed
    # from the Gram matrix, is within 1e-12 of the data scale
    samples = build_sample_set(gen_synthetic(100, 500, 0), 0, 500)
    res = te_l2_solve(samples, 0.0)
    x, value = res.weights, res.objective
    assert res.status == STATUS_CONVERGED
    assert x.min() >= 0.0 and x.sum() == pytest.approx(1.0, abs=1e-12)
    xb, xa, n = samples.xi_b, samples.xi_a, samples.n_samples
    gram = xb.T @ xb / n
    g = 2.0 * (gram @ x - xb.T @ xa / n)
    assert float(g @ x - g.min()) <= 1e-12 * (float(xa @ xa) / n + float(np.trace(gram)))
    assert value == pytest.approx(float(np.square(xa - xb @ x).mean()), rel=1e-14)


def _duplicated_asset():
    samples, _, _ = gaussian_instance(13, d=3, n=40, scale=0.01)
    xi_b = samples.xi_b
    return np.column_stack([xi_b, xi_b[:, 1], samples.xi_a])


def _zero_assets():
    rng = np.random.default_rng(13)
    return np.column_stack([np.zeros((40, 3)), rng.normal(0.0, 0.01, 40)])


def _one_asset():
    rng = np.random.default_rng(13)
    return rng.normal(0.0, 0.01, (40, 2))


@pytest.mark.parametrize("panel", [_duplicated_asset, _zero_assets, _one_asset])
def test_te_l2_is_certified_on_degenerate_inputs(panel):
    # a singular Gram matrix with no ridge, or a single asset
    samples = SampleSet(samples=panel())
    res = te_l2_solve(samples, 0.0)
    x, value = res.weights, res.objective
    assert res.status == STATUS_CONVERGED
    assert x.min() >= 0.0
    assert abs(x.sum() - 1.0) <= 1e-15
    residual = samples.xi_a - samples.xi_b @ x
    assert value == pytest.approx(float(np.square(residual).mean()), rel=1e-14)

"""Rolling-window backtest, evaluation metrics, and the penalty grid."""

import json
import multiprocessing
import os

import numpy as np
import pytest

import oracles
from drtrack import backtest
from drtrack.backtest import (
    MODEL_IDS,
    TAU_GRID,
    BacktestConfig,
    Performance,
    compute_performance,
    compute_tei,
    compute_teo,
    grid_search,
    hold_gross_returns,
    report_to_dict,
    run_backtest,
    solve_model,
    transition_weights,
)
from drtrack.baselines import GAP_TOLERANCE, BaselineParams
from drtrack.data import gen_synthetic
from drtrack.errors import InvalidInputError, NumericalError
from drtrack.model import ModelParams, PsiKind
from drtrack.spg import SpgParams


MODEL = ModelParams(tau1=1e-4, tau2=2e-4, beta=0.9)


def te_config(window, hold, tau1=0.0):
    return BacktestConfig(
        model_id="te-l2",
        model=ModelParams(tau1=tau1, tau2=0.0, beta=0.9),
        window=window,
        hold=hold,
    )


def fitted_weights(panel, t_bar, seed=0):
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(panel.n_assets), size=t_bar)


def test_config_validation_and_psi_from_model_id():
    with pytest.raises(InvalidInputError):
        BacktestConfig(model_id="mystery", model=MODEL)
    with pytest.raises(InvalidInputError):
        BacktestConfig(model_id="te-l2", model=MODEL, window=1)
    with pytest.raises(InvalidInputError):
        BacktestConfig(model_id="te-l2", model=MODEL, hold=0)
    for model_id in MODEL_IDS:
        cfg = BacktestConfig(model_id=model_id, model=MODEL)
        expected = PsiKind.ABSOLUTE if model_id.endswith("-l1") else PsiKind.SQUARED
        assert cfg.model.psi is expected
        assert cfg.model.tau1 == MODEL.tau1


def test_transition_weights_hand_example():
    out = transition_weights(np.array([0.5, 0.5]), np.array([1.1, 0.9]))
    assert out == pytest.approx([0.55, 0.45], abs=1e-15)
    assert out.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(InvalidInputError):
        transition_weights(np.array([0.5, 0.5]), np.array([1.1]))
    with pytest.raises(InvalidInputError):
        transition_weights(np.array([0.5, 0.5]), np.array([1.1, 0.0]))
    with pytest.raises(InvalidInputError):
        transition_weights(np.array([0.5, np.nan]), np.array([1.1, 0.9]))
    with pytest.raises(InvalidInputError):
        transition_weights(np.array([-1.0, 0.5]), np.array([1.0, 1.0]))


def test_transition_weights_matches_reference():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.dirichlet(np.ones(4))
        gross = np.exp(rng.normal(0.0, 0.05, 4))
        assert transition_weights(x, gross) == pytest.approx(
            oracles.transition_reference(x, gross), rel=1e-13
        )


def test_hold_gross_returns_manual_products():
    panel = gen_synthetic(d=2, n_days=9, seed=1)
    config = te_config(window=3, hold=2)
    index_gross, asset_gross = hold_gross_returns(panel, config)
    assert index_gross.shape == (3,) and asset_gross.shape == (3, 2)
    for t in range(3):
        rows = slice(t * 2 + 3, t * 2 + 5)
        assert index_gross[t] == pytest.approx(
            np.prod(1.0 + panel.index_returns[rows]), rel=1e-15
        )
        assert asset_gross[t] == pytest.approx(
            np.prod(1.0 + panel.asset_returns[rows], axis=0), rel=1e-15
        )


def test_t_bar_arithmetic():
    long_panel = gen_synthetic(d=2, n_days=3921, seed=0)
    index_gross, _ = hold_gross_returns(long_panel, te_config(3500, 21))
    assert index_gross.shape == (20,)
    short_panel = gen_synthetic(d=2, n_days=130, seed=0)
    index_gross, _ = hold_gross_returns(short_panel, te_config(100, 10))
    assert index_gross.shape == (3,)
    with pytest.raises(InvalidInputError):
        hold_gross_returns(short_panel, te_config(121, 10))


def test_tracking_errors_match_references():
    panel = gen_synthetic(d=4, n_days=90, seed=6)
    config = te_config(window=30, hold=15)
    t_bar = (90 - 30) // 15
    mat = fitted_weights(panel, t_bar, seed=8)
    index_gross, asset_gross = hold_gross_returns(panel, config)
    assert compute_tei(mat, panel, config) == pytest.approx(
        oracles.tei_reference(panel, mat, 30, 15), rel=1e-12
    )
    assert compute_teo(mat, index_gross, asset_gross) == pytest.approx(
        oracles.teo_reference(panel, mat, 30, 15), rel=1e-12
    )
    perf = compute_performance(mat, asset_gross)
    assert perf.turnover == pytest.approx(
        oracles.turnover_reference(panel, mat, 30, 15), rel=1e-12
    )
    var, sharpe = oracles.performance_reference(np.sum(asset_gross * mat, axis=1))
    assert perf.sigma2 == pytest.approx(var, rel=1e-12)
    assert perf.sharpe == pytest.approx(sharpe, rel=1e-12)
    with pytest.raises(InvalidInputError):
        compute_tei(mat[:-1], panel, config)
    with pytest.raises(InvalidInputError):
        compute_teo(mat[:-1], index_gross, asset_gross)


def test_performance_hand_case():
    weights = np.array([[1.0], [1.0]])
    asset_gross = np.array([[1.01], [1.03]])
    perf = compute_performance(weights, asset_gross)
    assert perf.sigma2 == pytest.approx(2e-4, rel=1e-12)
    assert perf.sharpe == pytest.approx(1.02 / np.sqrt(2e-4), rel=1e-12)
    assert perf.turnover == pytest.approx(0.0, abs=1e-15)


def test_performance_degenerate_cases():
    assert compute_performance(np.array([[1.0]]), np.array([[1.02]])) == Performance(
        None, None, None
    )
    weights = np.full((3, 2), 0.5)
    flat = np.ones((3, 2))
    perf = compute_performance(weights, flat)
    assert perf.sigma2 == 0.0
    assert perf.sharpe is None
    assert perf.turnover == pytest.approx(0.0, abs=1e-15)


def test_turnover_is_zero_when_weights_follow_the_drift():
    rng = np.random.default_rng(12)
    asset_gross = np.exp(rng.normal(0.0, 0.02, (5, 3)))
    mat = [rng.dirichlet(np.ones(3))]
    for t in range(4):
        mat.append(transition_weights(mat[t], asset_gross[t]))
    perf = compute_performance(np.vstack(mat), asset_gross)
    assert perf.turnover == pytest.approx(0.0, abs=1e-14)


def test_metrics_are_invariant_under_asset_relabeling():
    panel = gen_synthetic(d=4, n_days=80, seed=10)
    config = te_config(window=30, hold=10)
    t_bar = (80 - 30) // 10
    mat = fitted_weights(panel, t_bar, seed=2)
    perm = np.array([2, 0, 3, 1])
    shuffled = gen_synthetic(d=4, n_days=80, seed=10)
    shuffled = type(panel)(
        dates=shuffled.dates,
        index_returns=shuffled.index_returns,
        asset_returns=shuffled.asset_returns[:, perm],
        asset_names=tuple(shuffled.asset_names[j] for j in perm),
    )
    index_gross, asset_gross = hold_gross_returns(panel, config)
    s_index, s_asset = hold_gross_returns(shuffled, config)
    assert compute_tei(mat[:, perm], shuffled, config) == pytest.approx(
        compute_tei(mat, panel, config), rel=1e-13
    )
    assert compute_teo(mat[:, perm], s_index, s_asset) == pytest.approx(
        compute_teo(mat, index_gross, asset_gross), rel=1e-13
    )
    assert compute_performance(mat[:, perm], s_asset) == pytest.approx(
        compute_performance(mat, asset_gross), rel=1e-13
    )


def test_run_backtest_is_deterministic_and_consistent():
    panel = gen_synthetic(d=3, n_days=70, seed=4)
    config = te_config(window=30, hold=10, tau1=1e-4)
    first = run_backtest(panel, config)
    second = run_backtest(panel, config)
    assert first.t_bar == 4 and len(first.windows) == 4
    assert first.tei == second.tei and first.teo == second.teo
    for a, b in zip(first.windows, second.windows):
        assert np.array_equal(a.weights, b.weights)
        assert a.status == "converged"
    mat = np.vstack([w.weights for w in first.windows])
    index_gross, asset_gross = hold_gross_returns(panel, config)
    assert first.tei == pytest.approx(compute_tei(mat, panel, config), rel=1e-14)
    assert first.teo == pytest.approx(
        compute_teo(mat, index_gross, asset_gross), rel=1e-14
    )
    assert first.cpu_seconds >= 0.0


def test_run_backtest_never_reads_past_the_fitted_window():
    base = gen_synthetic(d=3, n_days=70, seed=5)
    config = te_config(window=30, hold=10, tau1=1e-4)
    tampered_assets = np.array(base.asset_returns)
    tampered_index = np.array(base.index_returns)
    # rows of the final hold period sit beyond every fitting window
    tampered_assets[60:] += 0.05
    tampered_index[60:] -= 0.05
    tampered = type(base)(
        dates=base.dates,
        index_returns=tampered_index,
        asset_returns=tampered_assets,
        asset_names=base.asset_names,
    )
    a = run_backtest(base, config)
    b = run_backtest(tampered, config)
    for wa, wb in zip(a.windows, b.windows):
        assert np.array_equal(wa.weights, wb.weights)
    assert a.tei == b.tei
    assert a.teo != b.teo


def test_run_backtest_covers_solver_paths():
    panel = gen_synthetic(d=3, n_days=50, seed=13)
    drcvar = BacktestConfig(
        model_id="drcvar-l2",
        model=MODEL,
        window=20,
        hold=15,
        spg=SpgParams(max_outer_iters=5),
    )
    report = run_backtest(panel, drcvar)
    assert report.t_bar == 2
    for w in report.windows:
        assert w.weights.min() >= 0.0
        assert w.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert w.status in ("converged", "iteration-cap")
    # drcvar windows start cold, count their inner iterations and report
    # the solver's counters
    last = solve_model(panel, 15, 35, drcvar)
    w = report.windows[1]
    assert np.array_equal(w.weights, last.x)
    assert w.iters == last.iters == last.result.inner_iters > 0
    r = last.result
    assert (w.outer_iters, w.grad_evals, w.residual, w.mu_final) == (
        r.outer_iters, r.grad_evals, r.residual, r.mu_final
    )
    with pytest.raises(InvalidInputError, match="x0"):
        solve_model(panel, 15, 35, drcvar, x0=report.windows[0].weights)
    scvar = BacktestConfig(
        model_id="scvar-l1",
        model=MODEL,
        window=20,
        hold=15,
        baseline=BaselineParams(max_iters=200),
    )
    report = run_backtest(panel, scvar)
    assert report.t_bar == 2 and report.model_id == "scvar-l1"
    assert all(w.iters > 0 for w in report.windows)
    assert all(
        (w.outer_iters, w.grad_evals, w.residual, w.mu_final) == (None,) * 4
        for w in report.windows
    )


def capped_drcvar(model_id):
    return BacktestConfig(
        model_id=model_id,
        model=MODEL,
        window=40,
        hold=10,
        spg=SpgParams(max_outer_iters=5, max_inner_per_phase=5),
    )


def assert_same_fits(a, b):
    """Bitwise-equal weights, solver outcomes and metrics; timings aside."""
    assert (a.t_bar, a.tei, a.teo, a.sigma2, a.sharpe, a.turnover) == (
        b.t_bar, b.tei, b.teo, b.sigma2, b.sharpe, b.turnover
    )
    for wa, wb in zip(a.windows, b.windows, strict=True):
        assert wa.weights.tobytes() == wb.weights.tobytes()
        assert (wa.t, wa.status, wa.iters, wa.portfolio_gross_return) == (
            wb.t, wb.status, wb.iters, wb.portfolio_gross_return
        )
        assert (wa.outer_iters, wa.grad_evals, wa.residual, wa.mu_final) == (
            wb.outer_iters, wb.grad_evals, wb.residual, wb.mu_final
        )


@pytest.mark.parametrize("model_id", ["drcvar-l2", "drcvar-l1"])
def test_windows_fitted_in_workers_equal_the_sequential_fits(model_id, monkeypatch):
    panel = gen_synthetic(4, 120, 8)
    config = capped_drcvar(model_id)
    monkeypatch.setattr(backtest, "_usable_cpus", lambda: 1)
    assert backtest._pool_workers(config, 8) == 0
    sequential = run_backtest(panel, config)
    # two workers even on a one-CPU machine, wherever fork exists
    monkeypatch.setattr(backtest, "_usable_cpus", lambda: 2)
    if "fork" in multiprocessing.get_all_start_methods():
        assert backtest._pool_workers(config, 8) == 2
    pooled = run_backtest(panel, config)
    assert sequential.t_bar == 8
    assert_same_fits(pooled, sequential)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_a_worker_error_names_the_lowest_failing_window(monkeypatch):
    panel = gen_synthetic(4, 120, 8)
    config = capped_drcvar("drcvar-l2")
    # windows 3 and 6 start at rows 20 and 50
    failing_rows = [panel.joint_matrix()[row] for row in (20, 50)]
    solve = backtest.spg_solve

    def spg_solve(nu0, samples, *args):
        if any(np.array_equal(samples.samples[0], row) for row in failing_rows):
            raise NumericalError(f"injected in process {os.getpid()}")
        return solve(nu0, samples, *args)

    monkeypatch.setattr(backtest, "spg_solve", spg_solve)
    monkeypatch.setattr(backtest, "_usable_cpus", lambda: 2)
    pattern = r"^window 3: injected in process \d+$"
    with pytest.raises(NumericalError, match=pattern) as info:
        run_backtest(panel, config)
    assert int(info.value.args[0].rsplit(" ", 1)[1]) != os.getpid()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_a_daemonic_process_fits_its_windows_in_sequence(monkeypatch):
    panel = gen_synthetic(4, 120, 8)
    config = capped_drcvar("drcvar-l2")
    monkeypatch.setattr(backtest, "_usable_cpus", lambda: 2)
    # a daemonic pool worker may not start processes of its own
    with multiprocessing.get_context("fork").Pool(1) as pool:
        report = pool.apply(run_backtest, (panel, config))
    assert_same_fits(report, run_backtest(panel, config))


@pytest.mark.parametrize("model_id", ["scvar-l2", "scvar-l1"])
def test_warm_scvar_windows_agree_with_cold_fits_within_the_certificate(model_id):
    panel = gen_synthetic(8, 313, 3)
    for tau1 in (0.0, 2e-4):
        for tau2 in (0.0, 2e-4):
            config = BacktestConfig(
                model_id=model_id,
                model=ModelParams(tau1=tau1, tau2=tau2),
                window=250,
                hold=21,
            )
            report = run_backtest(panel, config)
            assert report.t_bar == 3
            first = report.windows[0]
            cold = solve_model(panel, 0, 250, config)
            assert np.array_equal(first.weights, cold.x)
            assert (first.status, first.iters) == (cold.status, cold.result.iters)
            for prev, w in zip(report.windows, report.windows[1:]):
                start = (w.t - 1) * config.hold
                stop = start + config.window
                warm = solve_model(panel, start, stop, config, x0=prev.weights)
                cold = solve_model(panel, start, stop, config)
                assert np.array_equal(w.weights, warm.x) and w.iters == warm.iters
                assert w.status == warm.status == "converged"
                f = max(abs(warm.objective), abs(cold.objective))
                assert abs(warm.objective - cold.objective) <= GAP_TOLERANCE * f
                if tau1 > 0.0:
                    # f(x) - f* >= tau1 ||x - x*||^2, and each fit is within
                    # GAP_TOLERANCE * f of the optimum
                    distance = float(np.linalg.norm(warm.x - cold.x))
                    assert distance <= 2.0 * np.sqrt(GAP_TOLERANCE * f / tau1)


def test_grid_search_tie_break_and_custom_grids():
    # one asset: every grid point fits x = (1,), so TEO ties everywhere
    panel = gen_synthetic(d=1, n_days=60, seed=1)
    config = te_config(window=20, hold=10)
    result = grid_search(panel, config)
    assert len(result.rows) == len(TAU_GRID) ** 2
    assert (result.best.tau1, result.best.tau2) == (0.0, 0.0)
    taus = [(r.tau1, r.tau2) for r in result.rows]
    assert taus == [(a, b) for a in TAU_GRID for b in TAU_GRID]
    teos = {r.report.teo for r in result.rows}
    assert len(teos) == 1
    single = grid_search(panel, config, grid=[(2e-4, 4e-4)])
    assert (single.best.tau1, single.best.tau2) == (2e-4, 4e-4)
    assert len(single.rows) == 1
    with pytest.raises(InvalidInputError):
        grid_search(panel, config, grid=[])


def test_grid_search_best_minimizes_teo():
    panel = gen_synthetic(d=3, n_days=70, seed=16)
    config = te_config(window=30, hold=10)
    result = grid_search(panel, config, grid=[(0.0, 0.0), (1e-3, 0.0)])
    assert result.best.report.teo == min(r.report.teo for r in result.rows)


def test_report_to_dict_schema_and_rounding():
    panel = gen_synthetic(d=3, n_days=70, seed=4)
    config = te_config(window=30, hold=10, tau1=1e-4)
    report = run_backtest(panel, config)
    doc = report_to_dict(report, config)
    assert set(doc) == {
        "model", "tau1", "tau2", "window", "hold", "t_bar", "tei", "teo",
        "sigma2", "sharpe", "turnover", "cpu_seconds", "status_counts", "per_window",
    }
    assert doc["model"] == "te-l2" and doc["t_bar"] == 4
    assert doc["status_counts"] == {"converged": 4, "iteration-cap": 0, "stalled": 0}
    assert len(doc["per_window"]) == 4
    for row, window in zip(doc["per_window"], report.windows):
        assert set(row) == {
            "t", "weights", "solve_seconds", "portfolio_gross_return", "status", "iters",
            "outer_iters", "grad_evals", "residual", "mu_final",
        }
        assert row["iters"] is None
        assert row["outer_iters"] is row["grad_evals"] is None
        assert row["residual"] is row["mu_final"] is None
        assert row["weights"] == [float(f"{v:.12g}") for v in window.weights]
    parsed = json.loads(json.dumps(doc))
    assert parsed["teo"] == doc["teo"]
    # undefined statistics serialise as null
    short = gen_synthetic(d=2, n_days=31, seed=4)
    tiny = run_backtest(short, te_config(window=20, hold=11))
    doc = report_to_dict(tiny, te_config(window=20, hold=11))
    assert doc["sigma2"] is None and doc["sharpe"] is None
    assert json.loads(json.dumps(doc))["sigma2"] is None

"""Rolling-window backtest, evaluation metrics, and the penalty grid."""

import dataclasses
import json
import multiprocessing
import os

import numpy as np
import pytest

import oracles
from helpers import random_dual_point, tracking_instance
from drtrack import backtest
from drtrack.backtest import (
    MODEL_IDS,
    TAU_GRID,
    BacktestConfig,
    Performance,
    WindowResult,
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
from drtrack.baselines import GAP_TOLERANCE, BaselineParams, scvar_solve, te_l2_solve
from drtrack.data import build_sample_set, estimate_moments, gen_synthetic
from drtrack.errors import InvalidInputError, NumericalError
from drtrack.model import (
    AmbiguityParams, ModelFit, ModelParams, Problem, PsiKind, evaluate_phi_n,
)
from drtrack.projections import project_feasible
from drtrack.spg import SpgParams, default_start, spg_solve


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
    for window in (1, 40.0, True):
        with pytest.raises(InvalidInputError, match="window"):
            BacktestConfig(model_id="te-l2", model=MODEL, window=window)
    for hold in (0, 10.0, True):
        with pytest.raises(InvalidInputError, match="hold"):
            BacktestConfig(model_id="te-l2", model=MODEL, hold=hold)
    assert BacktestConfig("te-l2", MODEL, window=np.int64(40), hold=np.int64(10)).hold == 10
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


def test_hold_period_metrics_reject_non_finite_gross_returns():
    mat = np.full((2, 3), 1.0 / 3.0)
    with pytest.raises(InvalidInputError, match="index gross returns"):
        compute_teo(mat, [1.0, np.nan], np.ones((2, 3)))
    with pytest.raises(InvalidInputError, match="asset gross returns"):
        compute_teo(mat, [1.0, 1.0], [[1.0, 1.0, 1.0], [1.0, np.inf, 1.0]])
    with pytest.raises(InvalidInputError, match="asset gross returns"):
        compute_performance(mat, [[1.0, 1.0, 1.0], [1.0, 1.0, np.nan]])
    with pytest.raises(InvalidInputError, match="need matching, non-empty hold-period returns"):
        compute_teo(mat, [1.0, 1.0, 1.0], np.ones((2, 3)))


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
    for w in first.windows:
        assert w.portfolio_gross_return == float(asset_gross[w.t - 1] @ w.weights)
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
    assert np.array_equal(w.weights, last.weights)
    assert w.iters == last.iters == last.counters["inner_iters"] > 0
    assert w.counters == last.counters
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
    assert all(w.counters == {} for w in report.windows)


def test_solve_model_returns_the_baseline_solvers_own_record():
    # a scvar-* or te-l2 fit is the direct solver's record, retimed
    panel = gen_synthetic(d=3, n_days=60, seed=21)
    samples = build_sample_set(panel, 10, 50)
    same = ("status", "objective", "alpha", "lower_bound", "gap", "iters", "counters")
    for model_id in ("scvar-l2", "scvar-l1", "te-l2"):
        config = BacktestConfig(model_id, MODEL, window=40, hold=10)
        traced = model_id != "te-l2"
        if traced:
            direct = scvar_solve(samples, config.model, config.baseline, record_trace=True)
        else:
            direct = te_l2_solve(samples, config.model.tau1)
        fit = solve_model(panel, 10, 50, config, record_trace=traced)
        assert type(fit) is type(direct) is ModelFit
        assert fit.weights.tobytes() == direct.weights.tobytes()
        assert [getattr(fit, k) for k in same] == [getattr(direct, k) for k in same]
        assert fit.counters == {} and fit.solve_seconds > 0.0 and direct.solve_seconds > 0.0
        if traced:
            # each entry is (seconds since the solve started, best objective)
            assert [obj for _, obj in fit.trace] == [obj for _, obj in direct.trace]
            assert len(fit.trace) == fit.iters
        else:
            assert fit.trace is direct.trace is None
    # and every model's record writes the same keys
    key_sets = []
    for model_id in MODEL_IDS:
        drcvar = model_id.startswith("drcvar")
        config = capped_drcvar(model_id) if drcvar else BacktestConfig(model_id, MODEL)
        key_sets.append(set(solve_model(panel, 10, 50, config).to_dict()))
    assert all(keys == key_sets[0] for keys in key_sets)


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
        assert wa.counters == wb.counters


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
    solve = backtest._spg

    def spg(nu0, problem, *args):
        if any(np.array_equal(problem.samples.samples[0], row) for row in failing_rows):
            raise NumericalError(f"injected in process {os.getpid()}")
        return solve(nu0, problem, *args)

    monkeypatch.setattr(backtest, "_spg", spg)
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
            assert np.array_equal(first.weights, cold.weights)
            assert (first.status, first.iters) == (cold.status, cold.iters)
            for prev, w in zip(report.windows, report.windows[1:]):
                start = (w.t - 1) * config.hold
                stop = start + config.window
                warm = solve_model(panel, start, stop, config, x0=prev.weights)
                cold = solve_model(panel, start, stop, config)
                assert np.array_equal(w.weights, warm.weights) and w.iters == warm.iters
                assert w.status == warm.status == "converged"
                f = max(abs(warm.objective), abs(cold.objective))
                assert abs(warm.objective - cold.objective) <= GAP_TOLERANCE * f
                if tau1 > 0.0:
                    # f(x) - f* >= tau1 ||x - x*||^2, and each fit is within
                    # GAP_TOLERANCE * f of the optimum
                    distance = float(np.linalg.norm(warm.weights - cold.weights))
                    assert distance <= 2.0 * np.sqrt(GAP_TOLERANCE * f / tau1)


def test_warm_scvar_l2_windows_certify_in_few_iterations():
    # 36 warm-chained windows; smoothing from the full loss spread and
    # sharpening within one margin took 148 iterations here
    total = 0
    for seed in (2001, 2002, 2003):
        panel = gen_synthetic(8, 313, seed)
        for tau1 in (0.0, 2e-4):
            for tau2 in (0.0, 2e-4):
                config = BacktestConfig(
                    model_id="scvar-l2",
                    model=ModelParams(tau1=tau1, tau2=tau2),
                    window=250,
                    hold=21,
                )
                report = run_backtest(panel, config)
                assert report.t_bar == 3
                assert all(w.status == "converged" for w in report.windows)
                total += sum(w.iters for w in report.windows)
    assert total <= 120


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
        "sigma2", "sharpe", "turnover", "cpu_seconds", "status_counts", "max_gap",
        "per_window",
    }
    assert doc["model"] == "te-l2" and doc["t_bar"] == 4
    assert doc["status_counts"] == {"converged": 4, "iteration-cap": 0, "stalled": 0}
    assert len(doc["per_window"]) == 4
    for row, window in zip(doc["per_window"], report.windows):
        assert set(row) == {
            "t", "weights", "solve_seconds", "portfolio_gross_return", "status", "iters",
            "outer_iters", "grad_evals", "trials", "residual", "mu_final",
            "objective", "alpha", "lower_bound", "gap", "smooth_objective", "inner_iters",
        }
        assert row["iters"] is None
        assert row["outer_iters"] is row["grad_evals"] is row["trials"] is None
        assert row["residual"] is row["mu_final"] is None
        assert row["alpha"] is row["smooth_objective"] is row["inner_iters"] is None
        assert row["weights"] == [float(f"{v:.12g}") for v in window.weights]
    # every model's windows serialise as their WindowResult fields, the
    # counters flattened and the trace left out
    field_names = {f.name for f in dataclasses.fields(WindowResult)} - {"counters", "trace"}
    field_names |= set(backtest._SPG_COUNTERS)
    scvar = BacktestConfig("scvar-l2", MODEL, window=30, hold=10)
    for cfg in (config, capped_drcvar("drcvar-l2"), scvar):
        report = run_backtest(panel, cfg)
        assert report.cpu_seconds == sum(w.solve_seconds for w in report.windows)
        rows = json.loads(json.dumps(report_to_dict(report, cfg)))["per_window"]
        assert len(rows) == report.t_bar
        for row in rows:
            assert set(row) == field_names
            counters = [row[k] for k in ("outer_iters", "grad_evals", "trials")]
            floats = [row["residual"], row["mu_final"]]
            if cfg.model_id == "drcvar-l2":
                assert all(type(v) is int for v in counters)
                assert all(type(v) is float for v in floats)
            else:
                assert counters + floats == [None] * 5
            if cfg.model_id == "scvar-l2":
                assert type(row["iters"]) is int
    parsed = json.loads(json.dumps(doc))
    assert parsed["teo"] == doc["teo"]
    # undefined statistics serialise as null
    short = gen_synthetic(d=2, n_days=31, seed=4)
    tiny = run_backtest(short, te_config(window=20, hold=11))
    doc = report_to_dict(tiny, te_config(window=20, hold=11))
    assert doc["sigma2"] is None and doc["sharpe"] is None
    assert json.loads(json.dumps(doc))["sigma2"] is None


@pytest.mark.parametrize("model_id, d, days, seed", [
    ("drcvar-l2", 3, 60, 1), ("drcvar-l1", 4, 90, 2), ("drcvar-l2", 8, 500, 0),
])
def test_the_floor_lies_under_the_dual_objective_at_feasible_points(model_id, d, days, seed):
    # every feasible dual point bounds the robust optimum from above
    panel = gen_synthetic(d, days, seed)
    config = capped_drcvar(model_id)
    fit = solve_model(panel, 0, days, config)
    assert fit.lower_bound <= fit.objective and fit.gap >= 0.0
    assert fit.gap == (fit.objective - fit.lower_bound) / abs(fit.objective)
    samples, moments = build_sample_set(panel), estimate_moments(panel)
    amb = AmbiguityParams(moments.mu_hat, moments.sigma_hat, config.kappa1, config.kappa2)
    rng = np.random.default_rng(seed)
    for k in range(50):
        nu = project_feasible(random_dual_point(rng, d, scale=10.0 ** (k % 4 - 4)))
        assert fit.lower_bound <= evaluate_phi_n(nu, samples, amb, config.model)[0]


def test_the_floor_lies_under_a_subgradient_oracle():
    samples, amb, model = tracking_instance(0)
    lower, gap = backtest._floor(Problem(samples, amb, model), 1.0, scvar_solve(samples, model))
    assert lower is not None and 0.0 <= gap <= 1.0
    # every iterate of the oracle is feasible, so a short run bounds from above too
    assert lower <= oracles.subgradient_oracle(samples, amb, model, iters=2000)


def test_the_floor_is_null_when_the_empirical_distribution_leaves_the_set():
    # kappa2 < 1 shrinks the second-moment bound below the window's own
    panel = gen_synthetic(3, 60, 1)
    config = dataclasses.replace(capped_drcvar("drcvar-l2"), kappa2=0.5)
    fit = solve_model(panel, 0, 40, config)
    assert fit.lower_bound is None and fit.gap is None
    assert fit.to_dict()["lower_bound"] is None
    assert solve_model(panel, 0, 40, capped_drcvar("drcvar-l2")).lower_bound is not None


@pytest.mark.parametrize("kappa2", [1.0, 0.5])
def test_a_robust_fit_starts_at_its_one_scvar_fit(kappa2, monkeypatch):
    panel = gen_synthetic(3, 60, 1)
    config = dataclasses.replace(capped_drcvar("drcvar-l2"), kappa2=kappa2)
    fits, starts = [], []
    solve, spg = backtest.scvar_solve, backtest._spg

    def counted(*args, **kwargs):
        fits.append(solve(*args, **kwargs))
        return fits[-1]

    def started(nu0, *args):
        starts.append(nu0)
        return spg(nu0, *args)

    monkeypatch.setattr(backtest, "scvar_solve", counted)
    monkeypatch.setattr(backtest, "_spg", started)
    fit = solve_model(panel, 0, 40, config)
    assert len(fits) == len(starts) == 1
    assert starts[0].x.tobytes() == fits[0].weights.tobytes()
    # the floor is that fit's certified bound while the premise holds
    if kappa2 == 1.0:
        assert fit.lower_bound == fits[0].lower_bound is not None
    else:
        assert fit.lower_bound is None and fit.gap is None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_scvar_start_lowers_every_capped_robust_window(seed):
    # the same capped SPG from default_start, on the same rows, ends higher
    panel = gen_synthetic(8, 752, seed)
    caps = SpgParams(max_outer_iters=20, max_inner_per_phase=5)
    config = BacktestConfig("drcvar-l2", ModelParams(), window=500, hold=21, spg=caps)
    report = run_backtest(panel, config)
    assert report.t_bar == 12
    for w in report.windows:
        start = (w.t - 1) * config.hold
        samples = build_sample_set(panel, start, start + config.window)
        moments = estimate_moments(panel, start, start + config.window)
        amb = AmbiguityParams(moments.mu_hat, moments.sigma_hat, config.kappa1, config.kappa2)
        cold = spg_solve(default_start(samples, config.model), samples, amb, config.model, caps)
        assert w.objective < cold.objective


def test_max_gap_is_the_worst_window_gap_or_null():
    panel = gen_synthetic(3, 70, 4)
    configs = (te_config(window=30, hold=10, tau1=1e-4), capped_drcvar("drcvar-l2"))
    for config in configs + (dataclasses.replace(configs[1], kappa2=0.5),):
        report = run_backtest(panel, config)
        doc = json.loads(json.dumps(report_to_dict(report, config)))
        gaps = [w["gap"] for w in doc["per_window"]]
        if config.kappa2 < 1.0:
            assert gaps == [None] * report.t_bar and doc["max_gap"] is None
        else:
            assert None not in gaps and doc["max_gap"] == max(gaps) >= 0.0

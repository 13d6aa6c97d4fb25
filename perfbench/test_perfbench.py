"""Tests of the benchmark's own code: span arithmetic, output checks, names.

Run from the root of the repository with ``python -m pytest perfbench``.
"""

import json
import re
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from drtrack import backtest, data, model, spg  # noqa: E402
from tracer import Span, Target, Tracer, self_times, summarize  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def span(id, start, end, parent=None, thread=1, name="x"):
    return Span(id, name, start, end, parent, 0, thread)


def test_self_time_subtracts_the_union_of_nested_children():
    spans = [
        span(1, 0.0, 10.0),
        span(2, 1.0, 4.0, parent=1),
        span(3, 3.0, 6.0, parent=1),  # overlaps its sibling: counted once
        span(4, 2.0, 3.0, parent=2),
        span(5, 9.0, 12.0, parent=1),  # clipped to the parent's end
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_self_time_ignores_spans_of_other_threads():
    spans = [
        span(1, 0.0, 10.0, thread=1, name="a"),
        span(2, 2.0, 8.0, thread=2, name="b"),  # concurrent, not a child
        span(3, 3.0, 5.0, parent=2, thread=2, name="c"),
    ]
    table = summarize(spans)
    assert table["a"] == (1, pytest.approx(10.0), pytest.approx(10.0))
    assert table["b"] == (1, pytest.approx(6.0), pytest.approx(4.0))


def test_tracer_keeps_a_parent_stack_per_thread():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def inner():
        barrier.wait()  # both outers are open while both inners run

    def outer():
        traced_inner()

    traced_inner = tracer.wrap(inner, "inner")
    traced_outer = tracer.wrap(outer, "outer")
    workers = [threading.Thread(target=traced_outer) for _ in range(2)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=10)
        assert not worker.is_alive()
    by_id = {s.id: s for s in tracer.spans}
    inners = [s for s in tracer.spans if s.name == "inner"]
    assert len(inners) == 2
    for s in inners:
        parent = by_id[s.parent]
        assert parent.name == "outer" and parent.thread == s.thread
    assert all(s.parent is None for s in tracer.spans if s.name == "outer")


def test_installed_wrappers_are_removed_afterwards():
    original = spg.smooth_phi
    tracer = Tracer()
    with tracer.installed([Target(spg, "smooth_phi", "smoothing.smooth_phi")]):
        assert spg.smooth_phi is not original
        assert spg.smooth_phi.__wrapped__ is original
    assert spg.smooth_phi is original


@pytest.fixture(scope="module")
def small_backtest():
    panel = data.gen_synthetic(4, 80, seed=3)
    config = backtest.BacktestConfig(
        model_id="te-l2",
        model=model.ModelParams(tau1=2e-4, tau2=2e-4, beta=0.95),
        window=40,
        hold=10,
    )
    return panel, config, backtest.run_backtest(panel, config)


def test_simplex_check_rejects_off_simplex_weights():
    assert checks.check_simplex([0.25, 0.75]) == []
    assert checks.check_simplex([-0.1, 1.1])
    assert checks.check_simplex([0.5, 0.5 + 1e-8])
    assert checks.check_simplex([np.nan, 1.0])


def test_backtest_check_rejects_a_wrong_teo(small_backtest):
    panel, config, report = small_backtest
    assert checks.check_backtest(report, panel, config) == []
    assert checks.check_backtest(replace(report, teo=report.teo * 1.001), panel, config)
    assert checks.check_backtest(replace(report, tei=report.tei * 1.001), panel, config)
    bad = replace(report.windows[0], weights=report.windows[0].weights * 1.01)
    tampered = replace(report, windows=(bad,) + report.windows[1:])
    assert checks.check_backtest(tampered, panel, config)


def test_grid_check_rejects_a_wrong_best_row_and_teo(small_backtest):
    panel, config, report = small_backtest
    grid = [(0.0, 0.0), (0.0, 1.0)]
    rows = [backtest.report_to_dict(report, config) for _ in grid]
    for row, (tau1, tau2) in zip(rows, grid):
        row["tau1"], row["tau2"] = tau1, tau2
    rows[1]["teo"] = rows[0]["teo"]  # a tie goes to the smaller pair
    doc = {"rows": rows, "best": {"tau1": 0.0, "tau2": 0.0, "teo": rows[0]["teo"]}}
    assert checks.check_grid(doc, panel, config, grid) == []
    wrong_best = dict(doc, best={"tau1": 0.0, "tau2": 1.0, "teo": rows[0]["teo"]})
    assert checks.check_grid(wrong_best, panel, config, grid)
    rows[1] = dict(rows[1], teo=rows[1]["teo"] * 0.5)
    assert checks.check_grid(dict(doc, rows=rows), panel, config, grid)


def test_solve_check_rejects_a_wrong_objective():
    panel = data.gen_synthetic(3, 60, seed=5)
    samples = data.build_sample_set(panel)
    moments = data.estimate_moments(panel)
    amb = model.AmbiguityParams(moments.mu_hat, moments.sigma_hat, 0.1, 1.0)
    params = model.ModelParams(tau1=2e-4, tau2=2e-4, beta=0.95)
    result = spg.spg_solve(
        spg.default_start(samples, params),
        samples,
        amb,
        params,
        spg.SpgParams(max_outer_iters=5, max_inner_per_phase=5),
    )
    assert checks.check_solve(result, samples, amb, params) == []
    assert checks.check_solve(replace(result, objective=result.objective * 1.001), samples, amb, params)
    # below the empirical expected loss: breaks weak duality too
    assert any(
        "weak duality" in f
        for f in checks.check_solve(replace(result, objective=0.0), samples, amb, params)
    )


def test_run_s_takes_each_panels_median_then_the_mean():
    # rounds x panels; the slow second pass of panel 0 is dropped
    assert run.per_pass([[1.0, 10.0], [9.0, 20.0], [2.0, 30.0]]) == pytest.approx(11.0)


def test_kernel_cost_grows_with_problem_size():
    for name in ("smoothing.smooth_phi", "smoothing.grad_smooth_phi"):
        small = layers.kernel_cost(name, 500, 8)
        large = layers.kernel_cost(name, 3500, 30)
        assert 0 < small[0] < large[0] and 0 < small[1] < large[1]


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    names = list(run.END_TO_END) + list(layers.PER_LAYER) + [w["name"] for w in spec["workloads"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(set(names)) == len(names)


def test_layer_metrics_fill_every_per_layer_name():
    tracer = Tracer()
    tracer.spans.append(Span(1, "smoothing.smooth_phi", 0.0, 1.0, None, 0, 1))
    got = layers.layer_metrics(tracer, [0], grid_threads=2, output_bytes=0.0)
    set_by_run = {"trace.run_s", "trace.untraced_run_s", "trace.overhead_s"}
    assert set(got) | set_by_run == set(layers.PER_LAYER)
    assert got["smoothing.smooth_phi.calls"] == 1

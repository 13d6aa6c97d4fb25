"""Command-line interface: parsing, config precedence, exit codes."""

import codecs
import json
import subprocess
import sys
import threading
from dataclasses import fields
from datetime import date, timedelta

import numpy as np
import pytest

from drtrack import backtest, cli
from drtrack.backtest import BacktestConfig
from drtrack.baselines import BaselineParams
from drtrack.cli import CONFIG_DEFAULTS, UNAVAILABLE_MODELS, main
from drtrack.errors import NumericalError
from drtrack.model import ModelParams
from drtrack.spg import SpgParams
from drtrack.data import ReturnPanel, load_returns_csv, save_returns_csv, gen_synthetic

# drcvar flags under which the solver converges quickly on quiet panels
FAST = ["--tau1", "0.05", "--tau2", "1e-4", "--beta", "0.5"]


@pytest.fixture(scope="module")
def quiet_csv(tmp_path_factory):
    # low-volatility panel: drcvar solves settle in milliseconds
    rng = np.random.default_rng(0)
    table = rng.normal(0.0, 3e-4, (60, 4))
    start = date(2015, 1, 1)
    panel = ReturnPanel(
        dates=tuple(start + timedelta(days=i) for i in range(60)),
        index_returns=table[:, 3],
        asset_returns=table[:, :3],
        asset_names=("a1", "a2", "a3"),
    )
    path = tmp_path_factory.mktemp("data") / "quiet.csv"
    save_returns_csv(panel, path)
    return str(path)


@pytest.fixture(scope="module")
def market_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "market.csv"
    save_returns_csv(gen_synthetic(d=2, n_days=40, seed=3), path)
    return str(path)


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "drtrack.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "usage:" in proc.stdout
    for command in ("gen-data", "solve", "backtest", "grid-search", "compare"):
        assert command in proc.stdout


def test_gen_data_writes_loadable_csv(tmp_path, capsys):
    out = tmp_path / "panel.csv"
    rc = main(["gen-data", "--assets", "3", "--days", "30", "--seed", "5",
               "--out", str(out)])
    assert rc == 0
    assert "assets=3 days=30" in capsys.readouterr().out
    panel = load_returns_csv(out)
    assert panel.n_assets == 3 and panel.n_days == 30
    assert main(["gen-data", "--assets", "3", "--days", "30", "--seed", "5",
                 "--shift-day", "40", "--out", str(out)]) == 2


def test_solve_drcvar_happy_path(quiet_csv, capsys):
    rc, doc = run_json(capsys, ["solve", "--data", quiet_csv,
                                "--model", "drcvar-l2", *FAST])
    assert rc == 0
    assert doc["model"] == "drcvar-l2" and doc["status"] == "converged"
    for key in ("objective", "smooth_objective", "residual", "mu_final",
                "outer_iters", "inner_iters", "grad_evals", "trials",
                "wall_seconds", "alpha", "weights"):
        assert key in doc
    assert doc["trials"] >= doc["inner_iters"]
    assert sum(doc["weights"]) == pytest.approx(1.0, abs=1e-9)
    assert doc["residual"] <= 1e-4 and doc["mu_final"] <= 2e-6


def test_solve_json_deterministic_apart_from_timing(quiet_csv, capsys):
    docs = []
    for _ in range(2):
        rc, doc = run_json(capsys, ["solve", "--data", quiet_csv,
                                    "--model", "drcvar-l2", *FAST])
        assert rc == 0
        doc.pop("wall_seconds")
        docs.append(doc)
    assert docs[0] == docs[1]


@pytest.mark.parametrize("model_id", backtest.MODEL_IDS)
def test_solve_scvar_and_te_l2(model_id, quiet_csv, tmp_path, capsys):
    flags = []
    if model_id.startswith("drcvar"):
        # capped as well: drcvar-l1 takes most of a minute to converge here
        caps = tmp_path / "caps.json"
        caps.write_text(json.dumps({"spg.max_outer_iters": 5, "spg.max_inner_per_phase": 5}))
        flags = [*FAST, "--config", str(caps)]
    rc, doc = run_json(capsys, ["solve", "--data", quiet_csv, "--model", model_id, *flags])
    assert rc == 0
    assert doc["model"] == model_id
    # every model's document holds the fit record, null where the record is None
    keys = {"status", "objective", "alpha", "lower_bound", "gap", "iters", "weights",
            "wall_seconds"}
    counters = {"smooth_objective", "inner_iters", "outer_iters", "grad_evals", "trials",
                "residual", "mu_final"}
    assert set(doc) == keys | counters | {"model"}
    nulls = {"te-l2": {"alpha", "iters"}}.get(model_id, set())
    assert {key for key in keys if doc[key] is None} == nulls
    # every model certifies its objective: drcvar-* by its floor
    assert doc["lower_bound"] <= doc["objective"] and doc["gap"] >= 0.0
    if model_id == "te-l2":
        assert doc["status"] == "converged"
    assert sum(doc["weights"]) == pytest.approx(1.0, abs=1e-9)


def test_solve_rows_flag(quiet_csv, capsys):
    rc, full = run_json(capsys, ["solve", "--data", quiet_csv, "--model", "te-l2"])
    rc2, part = run_json(capsys, ["solve", "--data", quiet_csv, "--model", "te-l2",
                                  "--rows", "0:30"])
    assert rc == 0 and rc2 == 0
    assert full["objective"] != part["objective"]
    assert main(["solve", "--data", quiet_csv, "--model", "te-l2",
                 "--rows", "0-30"]) == 2
    assert main(["solve", "--data", quiet_csv, "--model", "te-l2",
                 "--rows", "a:b"]) == 2
    capsys.readouterr()


def test_solve_trace_csv(quiet_csv, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    rc = main(["solve", "--data", quiet_csv, "--model", "drcvar-l2", *FAST,
               "--trace-out", str(trace)])
    assert rc == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "cpu_seconds,objective"
    assert len(lines) >= 2
    seconds, objectives = zip(*(map(float, ln.split(",")) for ln in lines[1:]))
    assert all(b >= a for a, b in zip(seconds, seconds[1:]))
    assert all(np.isfinite(objectives))
    rc = main(["solve", "--data", quiet_csv, "--model", "scvar-l2",
               "--trace-out", str(trace)])
    assert rc == 0
    assert trace.read_text().splitlines()[0] == "cpu_seconds,objective"
    assert main(["solve", "--data", quiet_csv, "--model", "te-l2",
                 "--trace-out", str(trace)]) == 2
    capsys.readouterr()


def test_solve_out_file(quiet_csv, tmp_path, capsys):
    out = tmp_path / "fit.json"
    rc = main(["solve", "--data", quiet_csv, "--model", "te-l2",
               "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["model"] == "te-l2"


def test_solve_strict_iteration_cap_returns_4(quiet_csv, tmp_path, capsys):
    cfg = tmp_path / "cap.json"
    cfg.write_text(json.dumps({"spg.max_outer_iters": 1}))
    rc = main(["solve", "--data", quiet_csv, "--model", "drcvar-l2", *FAST,
               "--config", str(cfg), "--strict"])
    captured = capsys.readouterr()
    assert rc == 4
    assert "did not converge" in captured.err
    assert json.loads(captured.out)["status"] == "iteration-cap"
    # without --strict the same run reports success
    assert main(["solve", "--data", quiet_csv, "--model", "drcvar-l2", *FAST,
                 "--config", str(cfg)]) == 0
    capsys.readouterr()


def test_config_precedence(market_csv, tmp_path, capsys):
    base = ["backtest", "--data", market_csv, "--model", "te-l2",
            "--window", "20", "--hold", "10"]
    rc, doc = run_json(capsys, base)
    assert rc == 0
    assert doc["tau1"] == CONFIG_DEFAULTS["model.tau1"]
    assert doc["window"] == 20 and doc["hold"] == 10
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model.tau1": 5e-4, "backtest.hold": 10,
                               "backtest.window": 20}))
    rc, doc = run_json(capsys, ["backtest", "--data", market_csv,
                                "--model", "te-l2", "--config", str(cfg)])
    assert rc == 0 and doc["tau1"] == 5e-4
    rc, doc = run_json(capsys, ["backtest", "--data", market_csv,
                                "--model", "te-l2", "--config", str(cfg),
                                "--tau1", "1e-3"])
    assert rc == 0 and doc["tau1"] == 1e-3


def test_config_errors(market_csv, tmp_path, capsys):
    args = ["backtest", "--data", market_csv, "--model", "te-l2",
            "--window", "20", "--hold", "10", "--config"]
    # spg.epsilon names one of the solver's fixed constants, not a key
    for key in ("model.tau9", "spg.epsilon"):
        unknown = tmp_path / "unknown.json"
        unknown.write_text(json.dumps({key: 1e-4}))
        capsys.readouterr()
        assert main(args + [str(unknown)]) == 2
        assert key in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(args + [str(broken)]) == 2
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    assert main(args + [str(array)]) == 2
    assert main(args + [str(tmp_path / "missing.json")]) == 3
    capsys.readouterr()
    # values of the wrong type for their key's default are rejected, not coerced
    panel = tmp_path / "panel.csv"
    assert main(["gen-data", "--assets", "3", "--days", "80", "--seed", "1",
                 "--out", str(panel)]) == 0
    for key, value in (("spg.max_inner_per_phase", "x"), ("model.tau1", None),
                       ("spg.max_outer_iters", 2.7), ("spg.max_outer_iters", True)):
        mistyped = tmp_path / "mistyped.json"
        mistyped.write_text(json.dumps({key: value}))
        capsys.readouterr()
        assert main(["solve", "--data", str(panel), "--model", "drcvar-l2",
                     "--rows", "0:30", "--config", str(mistyped)]) == 2
        assert key in capsys.readouterr().err


def test_config_files_that_cannot_be_read_as_json_numbers_exit_2(market_csv, tmp_path, capsys):
    args = ["solve", "--data", market_csv, "--model", "te-l2", "--config"]
    cases = {
        # an integer too large for a float key
        "model.tau1": b'{"model.tau1": 1' + b"0" * 400 + b"}",
        # a byte that is not UTF-8, and an integer past Python's 4300-digit limit
        "is not valid JSON": b'{"model.tau1": 0.001}\xe9',
        "4300 digits": b'{"baseline.max_iters": ' + b"9" * 5000 + b"}",
    }
    for label, content in cases.items():
        config = tmp_path / "config.json"
        config.write_bytes(content)
        capsys.readouterr()
        assert main(args + [str(config)]) == 2, label
        err = capsys.readouterr().err
        assert label in err and "Traceback" not in err


def test_config_file_with_a_byte_order_mark_is_read(market_csv, tmp_path, capsys):
    config = tmp_path / "bom.json"
    config.write_bytes(codecs.BOM_UTF8 + b'{"model.tau1": 0.001}')
    argv = ["solve", "--data", market_csv, "--model", "te-l2"]
    rc, configured = run_json(capsys, argv + ["--config", str(config)])
    rc2, flagged = run_json(capsys, argv + ["--tau1", "0.001"])
    assert rc == 0 and rc2 == 0
    assert without_timing(configured) == without_timing(flagged)


def test_data_file_that_is_not_utf8_exits_3(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes("date,index,café\n2021-01-01,0,0\n2021-01-02,0,0\n".encode("latin-1"))
    assert main(["solve", "--data", str(path), "--model", "te-l2"]) == 3
    assert "data error" in capsys.readouterr().err


def without_timing(doc):
    timing = {"wall_seconds", "solve_seconds", "cpu_seconds"}
    if isinstance(doc, dict):
        return {k: without_timing(v) for k, v in doc.items() if k not in timing}
    if isinstance(doc, list):
        return [without_timing(v) for v in doc]
    return doc


def test_config_file_of_defaults_changes_nothing(quiet_csv, tmp_path, capsys):
    defaults = tmp_path / "defaults.json"
    defaults.write_text(json.dumps(CONFIG_DEFAULTS))
    # drcvar-l2 reads the ambiguity and spg keys, scvar-l2 the model and
    # baseline keys
    for argv in (["solve", "--data", quiet_csv, "--model", "drcvar-l2", *FAST],
                 ["backtest", "--data", quiet_csv, "--model", "scvar-l2",
                  "--window", "30", "--hold", "15"]):
        rc, plain = run_json(capsys, argv)
        rc2, configured = run_json(capsys, argv + ["--config", str(defaults)])
        assert rc == 0 and rc2 == 0
        assert without_timing(configured) == without_timing(plain)


def test_missing_data_file_returns_3(tmp_path, capsys):
    assert main(["solve", "--data", str(tmp_path / "nope.csv"),
                 "--model", "te-l2"]) == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--model", "te-l2", "--out", "missing/fit.json"],
    ["solve", "--model", "scvar-l2", "--trace-out", "missing/trace.csv"],
    ["backtest", "--model", "te-l2", "--window", "20", "--hold", "10",
     "--out", "missing/report.json"],
], ids=["solve-out", "solve-trace-out", "backtest-out"])
def test_output_into_a_missing_directory_exits_3_before_any_fit(
    argv, quiet_csv, tmp_path, capsys, monkeypatch
):
    def no_fit(*args, **kwargs):
        raise AssertionError("solve_model ran before the output path was checked")

    monkeypatch.setattr(cli, "solve_model", no_fit)
    monkeypatch.setattr(backtest, "solve_model", no_fit)
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--data", quiet_csv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and "missing" in err


@pytest.mark.parametrize("argv", [
    ["solve", "--model", "te-l2", "--beta", "2"],
    ["backtest", "--model", "te-l2", "--beta", "2"],
    ["grid-search", "--model", "te-l2", "--beta", "2"],
    ["compare", "--models", "te-l2", "--beta", "2"],
    ["solve", "--model", "te-l2", "--trace-out", "trace.csv"],
    ["solve", "--model", "te-l2", "--rows", "0-30"],
    ["grid-search", "--model", "te-l2", "--grid", "x"],
    ["compare", "--models", "bogus"],
    ["solve", "--model", "scvar-l2", "--kappa1", "-1"],
    ["solve", "--model", "te-l2", "--kappa2", "0"],
    ["backtest", "--model", "drcvar-l2", "--kappa2", "0"],
    ["grid-search", "--model", "te-l2", "--grid", ","],
    ["compare", "--models", ","],
], ids=["solve-beta", "backtest-beta", "grid-search-beta", "compare-beta",
        "solve-trace-out", "solve-rows", "grid-search-grid", "compare-models",
        "solve-kappa1", "solve-kappa2", "backtest-kappa2", "grid-search-empty-grid",
        "compare-no-models"])
def test_flag_errors_exit_2_before_the_panel_is_read(argv, tmp_path, capsys):
    # the data file is missing, which would exit 3 if it were read first
    assert main(argv + ["--data", str(tmp_path / "nope.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "data error" not in err


def test_numerical_error_exits_4(quiet_csv, capsys, monkeypatch):
    def diverge(*args, **kwargs):
        raise NumericalError("smoothed gradient is not finite")

    monkeypatch.setattr(cli, "solve_model", diverge)
    assert main(["solve", "--data", quiet_csv, "--model", "te-l2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ")


def test_unknown_model_rejected(market_csv, capsys):
    assert main(["solve", "--data", market_csv, "--model", "bogus"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    pytest.param(["backtest", "--model", "drcvar-l2"],
                 "windows did not converge: [1, 2]", id="backtest"),
    pytest.param(["grid-search", "--model", "drcvar-l2", "--grid", "0.05"],
                 "windows did not converge: tau1=0.05 tau2=0.05 [1, 2]", id="grid-search"),
    pytest.param(["compare", "--models", "drcvar-l2,te-l2"],
                 "windows did not converge: drcvar-l2 [1, 2]", id="compare"),
])
def test_backtest_strict_returns_4(argv, message, quiet_csv, tmp_path, capsys):
    cfg = tmp_path / "cap.json"
    cfg.write_text(json.dumps({"spg.max_outer_iters": 1}))
    argv = argv + ["--data", quiet_csv, *FAST, "--window", "30", "--hold", "15",
                   "--config", str(cfg)]
    assert main(argv + ["--strict"]) == 4
    strict = capsys.readouterr()
    assert strict.err.splitlines()[-1] == message
    # without --strict the same run exits 0 and writes the same document
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert "did not converge" not in plain.err
    decode = json.JSONDecoder().raw_decode
    assert without_timing(decode(strict.out)[0]) == without_timing(decode(plain.out)[0])


def test_backtest_reports_status_counts(quiet_csv, tmp_path, capsys):
    cfg = tmp_path / "cap.json"
    cfg.write_text(json.dumps({"spg.max_outer_iters": 1}))
    rc = main(["backtest", "--data", quiet_csv, "--model", "drcvar-l2", *FAST,
               "--window", "30", "--hold", "15", "--config", str(cfg)])
    captured = capsys.readouterr()
    # without --strict a run whose every window hit the cap still exits 0,
    # but says so on stderr and in the report
    assert rc == 0
    doc = json.loads(captured.out)
    assert doc["status_counts"] == {"converged": 0, "iteration-cap": 2, "stalled": 0}
    assert [w["status"] for w in doc["per_window"]] == ["iteration-cap"] * 2
    assert captured.err == "2 windows: 0 converged, 2 iteration-cap, 0 stalled\n"


def test_grid_search_cli(market_csv, capsys):
    rc = main(["grid-search", "--data", market_csv, "--model", "te-l2",
               "--window", "20", "--hold", "10", "--grid", "0,2e-4",
               "--threads", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    summary_at = out.index("grid-search: 4 points")
    doc = json.loads(out[:summary_at])
    assert len(doc["rows"]) == 4
    assert {"tau1", "tau2", "teo"} == set(doc["best"])
    taus = [(row["tau1"], row["tau2"]) for row in doc["rows"]]
    assert taus == [(0.0, 0.0), (0.0, 2e-4), (2e-4, 0.0), (2e-4, 2e-4)]
    assert main(["grid-search", "--data", market_csv, "--model", "te-l2",
                 "--window", "20", "--hold", "10", "--grid", "x"]) == 2
    capsys.readouterr()


def _without_timings(doc):
    if isinstance(doc, dict):
        return {k: _without_timings(v) for k, v in doc.items()
                if k not in ("cpu_seconds", "solve_seconds")}
    if isinstance(doc, list):
        return [_without_timings(v) for v in doc]
    return doc


def test_grid_search_runs_on_the_calling_thread_and_ignores_threads(
    market_csv, capsys, monkeypatch
):
    seen = []
    fit = backtest.run_backtest

    def recording(*args, **kwargs):
        seen.append(threading.get_ident())
        return fit(*args, **kwargs)

    monkeypatch.setattr(backtest, "run_backtest", recording)
    argv = ["grid-search", "--data", market_csv, "--model", "te-l2",
            "--window", "20", "--hold", "10", "--grid", "0,2e-4"]
    docs = []
    for extra in (["--threads", "4"], []):
        assert main(argv + extra) == 0
        out = capsys.readouterr().out
        docs.append(_without_timings(json.loads(out[:out.index("grid-search: 4 points")])))
    assert seen == [threading.get_ident()] * 8
    assert docs[0] == docs[1]


def test_grid_search_cli_fits_a_repeated_value_once(market_csv, capsys):
    rc = main(["grid-search", "--data", market_csv, "--model", "te-l2",
               "--window", "20", "--hold", "10", "--grid", "1e-4,1e-4",
               "--threads", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    summary_at = out.index("grid-search: 1 points")
    doc = json.loads(out[:summary_at])
    assert [(row["tau1"], row["tau2"]) for row in doc["rows"]] == [(1e-4, 1e-4)]
    # repeats are dropped in first-seen order
    assert main(["grid-search", "--data", market_csv, "--model", "te-l2",
                 "--window", "20", "--hold", "10", "--grid", "2e-4,0,2e-4",
                 "--threads", "1"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out[:out.index("grid-search: 4 points")])
    taus = [(row["tau1"], row["tau2"]) for row in doc["rows"]]
    assert taus == [(2e-4, 2e-4), (2e-4, 0.0), (0.0, 2e-4), (0.0, 0.0)]


def test_compare_cli(market_csv, capsys):
    rc = main(["compare", "--data", market_csv,
               "--models", "te-l2,lasso,mixed01-lp",
               "--window", "20", "--hold", "10"])
    out = capsys.readouterr().out
    assert rc == 0
    doc, table_at = json.JSONDecoder().raw_decode(out)
    by_model = {row["model"]: row for row in doc["rows"]}
    assert by_model["te-l2"]["status"] == "ok"
    # an ok row is the backtest summary: the backtest document without its windows
    config = BacktestConfig("te-l2", ModelParams(), window=20, hold=10)
    report = backtest.run_backtest(load_returns_csv(market_csv), config)
    summary = backtest.report_to_dict(report, config)
    del summary["per_window"]
    summary = json.loads(json.dumps(summary))
    assert without_timing(by_model["te-l2"]) == without_timing({"status": "ok", **summary})
    assert by_model["lasso"]["status"] == "unavailable"
    assert by_model["mixed01-lp"]["status"] == "unavailable"
    assert "unavailable" in out[table_at:]
    # a repeated model is fitted and reported once
    assert main(["compare", "--data", market_csv, "--models", "te-l2,te-l2",
                 "--window", "20", "--hold", "10"]) == 0
    rows = json.JSONDecoder().raw_decode(capsys.readouterr().out)[0]["rows"]
    assert [row["model"] for row in rows] == ["te-l2"]
    assert main(["compare", "--data", market_csv, "--models", "bogus",
                 "--window", "20", "--hold", "10"]) == 2
    capsys.readouterr()


def test_compare_rows_carry_the_worst_window_gap(quiet_csv, tmp_path, capsys):
    cfg = tmp_path / "cap.json"
    cfg.write_text(json.dumps({"spg.max_outer_iters": 2}))
    argv = ["compare", "--data", quiet_csv, "--models", "drcvar-l2,te-l2", *FAST,
            "--window", "30", "--hold", "15", "--config", str(cfg), "--out"]
    for kappa2 in ("1", "0.5"):
        out = tmp_path / f"compare-{kappa2}.json"
        assert main([*argv, str(out), "--kappa2", kappa2]) == 0
        capsys.readouterr()
        rows = {row["model"]: row for row in json.loads(out.read_text())["rows"]}
        # te-l2 is certified either way; the robust floor needs kappa2 >= 1
        assert 0.0 <= rows["te-l2"]["max_gap"] <= 1e-3
        if kappa2 == "1":
            assert 0.0 <= rows["drcvar-l2"]["max_gap"] < 1.0
        else:
            assert rows["drcvar-l2"]["max_gap"] is None


def test_unavailable_model_list_is_fixed():
    assert UNAVAILABLE_MODELS == ("mixed01-lp", "te-l0", "lasso", "l2-lp")


def test_config_defaults_are_the_dataclass_defaults():
    model = ModelParams()
    for name in ("tau1", "tau2", "beta"):
        assert CONFIG_DEFAULTS[f"model.{name}"] == getattr(model, name)
    spg = SpgParams()
    for field in fields(SpgParams):
        assert CONFIG_DEFAULTS[f"spg.{field.name}"] == getattr(spg, field.name)
    baseline = BaselineParams()
    assert CONFIG_DEFAULTS["baseline.max_iters"] == baseline.max_iters
    config = BacktestConfig(model_id="drcvar-l2", model=ModelParams(0.0, 0.0, 0.5))
    assert CONFIG_DEFAULTS["backtest.window"] == config.window
    assert CONFIG_DEFAULTS["backtest.hold"] == config.hold
    assert CONFIG_DEFAULTS["ambiguity.kappa1"] == config.kappa1
    assert CONFIG_DEFAULTS["ambiguity.kappa2"] == config.kappa2


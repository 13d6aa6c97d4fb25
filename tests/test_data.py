"""Return panels, CSV serialization, moment estimates, scenario sets."""

import codecs
import re
from datetime import date, timedelta

import numpy as np
import pytest

from drtrack.data import (
    GaussianMC,
    Historical,
    MomentEstimate,
    ReturnPanel,
    build_sample_set,
    estimate_moments,
    gen_synthetic,
    load_returns_csv,
    save_returns_csv,
)
from drtrack.errors import DataError, InvalidInputError


def make_panel(n=6, d=2, seed=0):
    rng = np.random.default_rng(seed)
    start = date(2021, 3, 1)
    return ReturnPanel(
        dates=tuple(start + timedelta(days=i) for i in range(n)),
        index_returns=rng.normal(0.0, 0.01, n),
        asset_returns=rng.normal(0.0, 0.01, (n, d)),
        asset_names=tuple(f"a{i}" for i in range(d)),
    )


def test_panel_validation():
    good = make_panel()
    with pytest.raises(InvalidInputError):
        ReturnPanel(dates=("2021-03-01", "2021-03-02"),
                    index_returns=good.index_returns[:2],
                    asset_returns=good.asset_returns[:2],
                    asset_names=good.asset_names)
    with pytest.raises(InvalidInputError):
        ReturnPanel(dates=(good.dates[1], good.dates[0]),
                    index_returns=good.index_returns[:2],
                    asset_returns=good.asset_returns[:2],
                    asset_names=good.asset_names)
    with pytest.raises(InvalidInputError):
        ReturnPanel(dates=good.dates[:1],
                    index_returns=good.index_returns[:1],
                    asset_returns=good.asset_returns[:1],
                    asset_names=good.asset_names)
    with pytest.raises(InvalidInputError):
        ReturnPanel(dates=good.dates, index_returns=good.index_returns[:-1],
                    asset_returns=good.asset_returns,
                    asset_names=good.asset_names)
    with pytest.raises(InvalidInputError):
        ReturnPanel(dates=good.dates, index_returns=good.index_returns,
                    asset_returns=good.asset_returns,
                    asset_names=("a0",))
    with pytest.raises(InvalidInputError):
        ReturnPanel(dates=good.dates, index_returns=good.index_returns,
                    asset_returns=good.asset_returns,
                    asset_names=("dup", "dup"))
    with pytest.raises(InvalidInputError):
        ReturnPanel(dates=good.dates, index_returns=good.index_returns,
                    asset_returns=good.asset_returns,
                    asset_names=("", "a1"))
    bad = np.array(good.asset_returns)
    bad[2, 1] = -1.0
    with pytest.raises(InvalidInputError):
        ReturnPanel(dates=good.dates, index_returns=good.index_returns,
                    asset_returns=bad, asset_names=good.asset_names)
    bad[2, 1] = np.nan
    with pytest.raises(InvalidInputError):
        ReturnPanel(dates=good.dates, index_returns=good.index_returns,
                    asset_returns=bad, asset_names=good.asset_names)


def test_panel_errors_name_the_first_offending_day_and_column():
    good = make_panel()  # days 2021-03-01 .. 2021-03-06, assets a0 and a1

    def build(dates=good.dates, index=good.index_returns, assets=good.asset_returns,
              names=good.asset_names):
        return ReturnPanel(dates=dates, index_returns=index, asset_returns=assets,
                           asset_names=names)

    bad = np.array(good.asset_returns)
    bad[4, 0] = -2.0
    bad[2, 1] = -1.0  # the earlier day is reported
    with pytest.raises(InvalidInputError,
                       match="^asset 'a1' return on 2021-03-03 must be greater than -1"):
        build(assets=bad)
    index = np.array(good.index_returns)
    index[2] = np.inf  # the same day as a1's error: the index column comes first
    with pytest.raises(InvalidInputError,
                       match="^index return on 2021-03-03 must be finite, got inf"):
        build(index=index, assets=bad)
    swapped = good.dates[:1] + (good.dates[2], good.dates[1]) + good.dates[3:]
    with pytest.raises(InvalidInputError, match=(
            "^dates must be strictly increasing: 2021-03-02 follows 2021-03-03")):
        build(dates=swapped)
    with pytest.raises(InvalidInputError, match="'a0' repeats"):
        build(names=("a0", "a0"))


def test_joint_matrix_puts_index_last():
    panel = make_panel(n=5, d=3)
    joint = panel.joint_matrix()
    assert joint.shape == (5, 4)
    assert np.array_equal(joint[:, :3], panel.asset_returns)
    assert np.array_equal(joint[:, 3], panel.index_returns)


def test_gen_synthetic_is_deterministic():
    a = gen_synthetic(d=4, n_days=50, seed=123)
    b = gen_synthetic(d=4, n_days=50, seed=123)
    c = gen_synthetic(d=4, n_days=50, seed=124)
    assert a.dates == b.dates
    assert np.array_equal(a.index_returns, b.index_returns)
    assert np.array_equal(a.asset_returns, b.asset_returns)
    assert not np.array_equal(a.index_returns, c.index_returns)
    assert a.n_days == 50 and a.n_assets == 4
    assert a.asset_names == ("asset_1", "asset_2", "asset_3", "asset_4")


def test_gen_synthetic_validation():
    with pytest.raises(InvalidInputError):
        gen_synthetic(d=0, n_days=10, seed=0)
    with pytest.raises(InvalidInputError):
        gen_synthetic(d=2, n_days=0, seed=0)
    for bad_shift in (0, 10, 11):
        with pytest.raises(InvalidInputError):
            gen_synthetic(d=2, n_days=10, seed=0, regime_shift=bad_shift)
    for d, n_days, name in ((2.0, 10, "d"), (True, 10, "d"), (2, 10.0, "n_days")):
        with pytest.raises(InvalidInputError, match=f"^{name} must be an integer"):
            gen_synthetic(d, n_days, 0)
    with pytest.raises(InvalidInputError, match="regime_shift"):
        gen_synthetic(d=2, n_days=60, seed=0, regime_shift=40.5)
    assert gen_synthetic(np.int64(2), np.int32(10), 0, regime_shift=np.int64(5)).n_days == 10


def test_gen_synthetic_regime_shift_changes_only_the_tail():
    base = gen_synthetic(d=3, n_days=40, seed=7)
    shifted = gen_synthetic(d=3, n_days=40, seed=7, regime_shift=25)
    assert np.array_equal(base.index_returns, shifted.index_returns)
    assert np.array_equal(base.asset_returns[:25], shifted.asset_returns[:25])
    assert not np.array_equal(base.asset_returns[25:], shifted.asset_returns[25:])


def test_gen_synthetic_unit_beta_zero_noise_replicates_index():
    panel = gen_synthetic(d=2, n_days=30, seed=3,
                          beta_range=(1.0, 1.0), sigma_range=(0.0, 0.0))
    for j in range(2):
        assert np.array_equal(panel.asset_returns[:, j], panel.index_returns)


def test_csv_round_trip_is_exact(tmp_path):
    panel = gen_synthetic(d=3, n_days=25, seed=11)
    path = tmp_path / "returns.csv"
    save_returns_csv(panel, path)
    back = load_returns_csv(path)
    assert back.dates == panel.dates
    assert back.asset_names == panel.asset_names
    assert np.array_equal(back.index_returns, panel.index_returns)
    assert np.array_equal(back.asset_returns, panel.asset_returns)
    # identical bytes when saved again
    twin = tmp_path / "again.csv"
    save_returns_csv(back, twin)
    assert path.read_bytes() == twin.read_bytes()


def write_csv(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_rejects_malformed_files(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_returns_csv(tmp_path / "missing.csv")
    # Each malformed file, with what its error must name (None: anything).
    cases = {
        "empty": ("", None),
        "bad header": ("day,index,a\n2021-01-01,0.0,0.0\n2021-01-02,0.0,0.0\n", None),
        "no assets": ("date,index\n2021-01-01,0.0\n2021-01-02,0.0\n", None),
        "blank name": ("date,index,\n2021-01-01,0.0,0.0\n2021-01-02,0.0,0.0\n", None),
        "dup names": ("date,index,a,a\n2021-01-01,0,0,0\n2021-01-02,0,0,0\n", None),
        "field count": ("date,index,a\n2021-01-01,0.0\n2021-01-02,0.0,0.0\n", None),
        "bad date": ("date,index,a\nnot-a-date,0.0,0.0\n2021-01-02,0.0,0.0\n", None),
        # Python 3.11's date.fromisoformat reads these as 2021-01-01 and 2021-01-05
        "basic date": ("date,index,a\n20210101,0.0,0.0\n2021-01-06,0.0,0.0\n",
                       "row 2 column 'date'"),
        "week date": ("date,index,a\n2021-W01-2,0.0,0.0\n2021-01-06,0.0,0.0\n",
                      "row 2 column 'date'"),
        "date order": ("date,index,a\n2021-01-02,0.0,0.0\n2021-01-01,0.0,0.0\n",
                       "2021-01-01 follows 2021-01-02"),
        "bad number": ("date,index,a\n2021-01-01,zero,0.0\n2021-01-02,0.0,0.0\n", None),
        "non-finite": ("date,index,a\n2021-01-01,nan,0.0\n2021-01-02,0.0,0.0\n",
                       "index return on 2021-01-01 must be finite"),
        "below -1": ("date,index,a\n2021-01-01,0.0,-1.5\n2021-01-02,0.0,0.0\n",
                     "asset 'a' return on 2021-01-01 must be greater than -1"),
        "one row": ("date,index,a\n2021-01-01,0.0,0.0\n", None),
        "header only": ("date,index,a\n", "at least 2 days, got 0"),
    }
    for label, (text, pattern) in cases.items():
        with pytest.raises(DataError, match=pattern):
            load_returns_csv(write_csv(tmp_path, text))


def test_load_accepts_a_utf8_byte_order_mark(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with one; the writer adds none
    panel = make_panel()
    path = tmp_path / "plain.csv"
    save_returns_csv(panel, path)
    assert not path.read_bytes().startswith(codecs.BOM_UTF8)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    back = load_returns_csv(marked)
    assert back.dates == panel.dates and back.asset_names == panel.asset_names
    assert np.array_equal(back.index_returns, panel.index_returns)
    assert np.array_equal(back.asset_returns, panel.asset_returns)


def test_load_rejects_a_file_that_is_not_utf8(tmp_path):
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes("date,index,café\n2021-01-01,0,0\n2021-01-02,0,0\n".encode("latin-1"))
    # a bad byte past the reader's first block of the file
    late = tmp_path / "late.csv"
    save_returns_csv(gen_synthetic(d=3, n_days=400, seed=1), late)
    late.write_bytes(late.read_bytes() + b"2011-02-05,0,0,0,0\xe9\n")
    for path in (latin1, late):
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            load_returns_csv(path)


def test_estimate_moments_matches_numpy():
    panel = gen_synthetic(d=3, n_days=60, seed=5)
    est = estimate_moments(panel, start=10, stop=50)
    block = panel.joint_matrix()[10:50]
    assert est.mu_hat == pytest.approx(block.mean(axis=0), rel=1e-14)
    assert est.sigma_hat == pytest.approx(np.cov(block.T, bias=True), rel=1e-12)
    assert not est.repaired and est.jitter == 0.0
    assert np.linalg.eigvalsh(est.sigma_hat).min() > 0.0


def test_moment_estimate_rejects_non_finite_moments():
    sigma = np.eye(2)
    with pytest.raises(InvalidInputError, match="^mu_hat contains non-finite"):
        MomentEstimate(np.array([0.0, np.inf]), sigma, False, 0.0)
    sigma[0, 1] = sigma[1, 0] = np.nan
    with pytest.raises(InvalidInputError, match="^sigma_hat contains non-finite"):
        MomentEstimate(np.zeros(2), sigma, False, 0.0)
    with pytest.raises(InvalidInputError, match="^sigma_hat must have shape"):
        MomentEstimate(np.zeros(2), np.eye(3), False, 0.0)


def test_estimate_moments_repairs_degenerate_windows():
    # perfectly replicated index: joint covariance is rank deficient
    panel = gen_synthetic(d=2, n_days=20, seed=9,
                          beta_range=(1.0, 1.0), sigma_range=(0.0, 0.0))
    est = estimate_moments(panel)
    assert est.repaired and est.jitter > 0.0
    assert np.linalg.eigvalsh(est.sigma_hat).min() > 0.0


def test_estimate_moments_validation():
    panel = make_panel(n=6)
    for start, stop in ((-1, 4), (3, 3), (0, 7), (5, 4)):
        with pytest.raises(InvalidInputError):
            estimate_moments(panel, start=start, stop=stop)
    for start, stop, name in ((1.5, 4, "start"), (0, 4.0, "stop"), (False, 4, "start")):
        with pytest.raises(InvalidInputError, match=f"^{name} must be an integer"):
            estimate_moments(panel, start, stop)
    with pytest.raises(InvalidInputError):
        estimate_moments(panel, start=2, stop=3)


def test_build_sample_set_historical_slices_the_window():
    panel = gen_synthetic(d=3, n_days=30, seed=2)
    samples = build_sample_set(panel, start=5, stop=25, mode=Historical())
    assert np.array_equal(samples.samples, panel.joint_matrix()[5:25])
    assert samples.n_samples == 20 and samples.n_assets == 3


def test_build_sample_set_gaussian_mc():
    panel = gen_synthetic(d=3, n_days=60, seed=4)
    mode = GaussianMC(count=20_000, seed=77)
    a = build_sample_set(panel, mode=mode)
    b = build_sample_set(panel, mode=GaussianMC(count=20_000, seed=77))
    assert np.array_equal(a.samples, b.samples)
    assert a.n_samples == 20_000 and a.n_assets == 3
    est = estimate_moments(panel)
    assert a.samples.mean(axis=0) == pytest.approx(est.mu_hat, abs=5e-4)
    assert np.cov(a.samples.T, bias=True) == pytest.approx(
        est.sigma_hat, abs=5e-6
    )
    for count in (0, 2.5, True):
        with pytest.raises(InvalidInputError, match="count"):
            GaussianMC(count=count, seed=1)
    with pytest.raises(InvalidInputError, match="^stop must be an integer"):
        build_sample_set(panel, 0, 40.0)
    assert build_sample_set(panel, np.int64(0), np.int64(40)).n_samples == 40
    with pytest.raises(InvalidInputError):
        build_sample_set(panel, mode="historical")

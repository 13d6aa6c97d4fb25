"""Return-data ingestion, moment estimation, and synthetic markets.

Panels hold daily simple returns for one index and its constituent
assets.  Moment estimates stack the assets first and the index last,
matching the sample layout used by the solvers, and repair degenerate
covariances with a small diagonal jitter so downstream code can rely
on positive definiteness.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .errors import DataError, InvalidInputError, NumericalError
from .model import SampleSet, _check_budget, _readonly

__all__ = [
    "ReturnPanel",
    "MomentEstimate",
    "Historical",
    "GaussianMC",
    "SampleMode",
    "gen_synthetic",
    "save_returns_csv",
    "load_returns_csv",
    "estimate_moments",
    "build_sample_set",
]

# The one date form the CSV accepts; date.fromisoformat alone also takes the
# basic and week forms (20210101, 2021-W01-2) from Python 3.11 on.
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")

# Covariance repair: trigger when the smallest eigenvalue falls below
# EIG_TOL times the mean diagonal scale, then add JITTER_SCALE times
# that scale to the diagonal.  A unit scale stands in when the trace
# vanishes (all-constant windows), which would otherwise defeat repair.
_EIG_TOL = 1e-10
_JITTER_SCALE = 1e-8


@dataclass(frozen=True, eq=False)
class ReturnPanel:
    """Daily simple returns for one index and ``d`` assets.

    Rows are trading days in strictly increasing date order.  Returns
    are decimals (0.01 means one percent) and must exceed -1.
    """

    dates: tuple[date, ...]
    index_returns: np.ndarray
    asset_returns: np.ndarray
    asset_names: tuple[str, ...]

    def __post_init__(self) -> None:
        dates = tuple(self.dates)
        if any(not isinstance(day, date) for day in dates):
            raise InvalidInputError("dates must be datetime.date values")
        for a, b in zip(dates, dates[1:]):
            if b <= a:
                raise InvalidInputError(f"dates must be strictly increasing: {b} follows {a}")
        idx = np.array(self.index_returns, dtype=float, copy=True)
        assets = np.array(self.asset_returns, dtype=float, copy=True)
        names = tuple(str(n) for n in self.asset_names)
        n = len(dates)
        if n < 2:
            raise InvalidInputError(f"panel needs at least 2 days, got {n}")
        if idx.shape != (n,):
            raise InvalidInputError(f"index_returns must have shape ({n},), got {idx.shape}")
        if assets.ndim != 2 or assets.shape[0] != n or assets.shape[1] < 1:
            raise InvalidInputError(
                f"asset_returns must have shape ({n}, d>=1), got {assets.shape}"
            )
        if len(names) != assets.shape[1]:
            raise InvalidInputError(
                f"{len(names)} asset names for {assets.shape[1]} asset columns"
            )
        if any(not name for name in names):
            raise InvalidInputError("asset names must be non-empty")
        if len(set(names)) != len(names):
            repeated = next(name for i, name in enumerate(names) if name in names[:i])
            raise InvalidInputError(f"asset names must be unique: {repeated!r} repeats")
        bad = np.column_stack([~(np.isfinite(arr) & (arr > -1.0)) for arr in (idx, assets)])
        if bad.any():
            row, col = divmod(int(bad.argmax()), bad.shape[1])
            value = float(idx[row] if col == 0 else assets[row, col - 1])
            column = "index" if col == 0 else f"asset {names[col - 1]!r}"
            rule = "be greater than -1" if np.isfinite(value) else "be finite"
            raise InvalidInputError(f"{column} return on {dates[row]} must {rule}, got {value!r}")
        idx.setflags(write=False)
        assets.setflags(write=False)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "index_returns", idx)
        object.__setattr__(self, "asset_returns", assets)
        object.__setattr__(self, "asset_names", names)

    @property
    def n_days(self) -> int:
        return len(self.dates)

    @property
    def n_assets(self) -> int:
        return self.asset_returns.shape[1]

    def joint_matrix(self) -> np.ndarray:
        """Rows ``(xi_b, xi_a)``: asset returns then the index, shape (N, d+1)."""
        return np.column_stack([self.asset_returns, self.index_returns])


@dataclass(frozen=True, eq=False)
class MomentEstimate:
    """Sample mean and covariance of the joint return vector.

    ``sigma_hat`` uses the population (1/N) denominator.  When the
    smallest eigenvalue is degenerate the diagonal is lifted by
    ``jitter`` and ``repaired`` is set.
    """

    mu_hat: np.ndarray
    sigma_hat: np.ndarray
    repaired: bool
    jitter: float

    def __post_init__(self) -> None:
        mu = _readonly(self.mu_hat, "mu_hat", (None,))
        sig = _readonly(self.sigma_hat, "sigma_hat", (mu.shape[0], mu.shape[0]))
        object.__setattr__(self, "mu_hat", mu)
        object.__setattr__(self, "sigma_hat", sig)
        object.__setattr__(self, "jitter", float(self.jitter))


@dataclass(frozen=True)
class Historical:
    """Use the window rows themselves as the scenario set."""


@dataclass(frozen=True)
class GaussianMC:
    """Draw ``count`` Gaussian scenarios from the window's moments."""

    count: int
    seed: int

    def __post_init__(self) -> None:
        _check_budget(self.count, "count")


SampleMode = Historical | GaussianMC


def _check_row_range(n_days: int, start: int, stop: int | None) -> tuple[int, int]:
    stop = n_days if stop is None else stop
    _check_budget(start, "start", 0)
    _check_budget(stop, "stop", 0)
    if not (0 <= start < stop <= n_days):
        raise InvalidInputError(
            f"row range [{start}, {stop}) is invalid for a panel of {n_days} days"
        )
    return start, stop


def gen_synthetic(
    d: int,
    n_days: int,
    seed: int,
    regime_shift: int | None = None,
    beta_range: tuple[float, float] = (0.5, 1.5),
    sigma_range: tuple[float, float] = (0.005, 0.02),
) -> ReturnPanel:
    """Seeded one-factor market: assets load on a common index factor.

    The index return is Normal(3e-4, 1e-4 variance); asset ``i`` is
    ``beta_i`` times the index plus Normal(0, sigma_i^2) noise, with
    loadings and noise scales drawn uniformly from the given ranges.
    ``regime_shift`` redraws loadings and noise scales from that day
    onward, creating a train/test distribution mismatch.
    """
    _check_budget(d, "d")
    _check_budget(n_days, "n_days")
    if regime_shift is not None:
        _check_budget(regime_shift, "regime_shift")
        if not 0 < regime_shift < n_days:
            raise InvalidInputError(
                f"regime_shift must lie strictly inside (0, {n_days}), got {regime_shift}"
            )
    rng = np.random.default_rng(seed)
    betas = rng.uniform(*beta_range, size=d)
    sigmas = rng.uniform(*sigma_range, size=d)
    index = 3e-4 + 1e-2 * rng.standard_normal(n_days)
    noise = rng.standard_normal((n_days, d))
    assets = index[:, None] * betas + noise * sigmas
    if regime_shift is not None:
        betas2 = rng.uniform(*beta_range, size=d)
        sigmas2 = rng.uniform(*sigma_range, size=d)
        tail = slice(regime_shift, None)
        assets[tail] = index[tail, None] * betas2 + noise[tail] * sigmas2
    start = date(2010, 1, 1)
    dates = tuple(start + timedelta(days=i) for i in range(n_days))
    names = tuple(f"asset_{i + 1}" for i in range(d))
    return ReturnPanel(
        dates=dates, index_returns=index, asset_returns=assets, asset_names=names
    )


def save_returns_csv(panel: ReturnPanel, path) -> None:
    """Write a panel in the canonical CSV schema (deterministic bytes).

    Header is ``date,index,<asset names>``; values are printed with 17
    significant digits so a round-trip reproduces them exactly.
    """
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "index", *panel.asset_names])
        for i, day in enumerate(panel.dates):
            row = [day.isoformat(), f"{panel.index_returns[i]:.17g}"]
            row.extend(f"{v:.17g}" for v in panel.asset_returns[i])
            writer.writerow(row)


def load_returns_csv(path) -> ReturnPanel:
    """Parse a UTF-8 returns CSV, naming the row and column of a parse error.

    A leading byte-order mark is skipped.  :class:`ReturnPanel` validates
    the result; its errors come back as a :class:`DataError` naming the
    file, and so does a file that is not UTF-8.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"data file not found: {path}")
    try:
        with path.open("r", newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file, missing header") from None
            if len(header) < 3 or header[0] != "date" or header[1] != "index":
                raise DataError(
                    f"{path}: header must be 'date,index,<asset names>', got {header!r}"
                )
            dates: list[date] = []
            rows: list[list[float]] = []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise DataError(
                        f"{path}: row {lineno} has {len(row)} fields, expected {len(header)}"
                    )
                try:
                    if not _ISO_DATE.fullmatch(row[0]):
                        raise ValueError
                    dates.append(date.fromisoformat(row[0]))
                except ValueError:
                    raise DataError(
                        f"{path}: row {lineno} column 'date': not an ISO date: {row[0]!r}"
                    ) from None
                values: list[float] = []
                for col, cell in zip(header[1:], row[1:]):
                    try:
                        values.append(float(cell))
                    except ValueError:
                        raise DataError(
                            f"{path}: row {lineno} column {col!r}: not a number: {cell!r}"
                        ) from None
                rows.append(values)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    table = np.array(rows, dtype=float).reshape(len(rows), len(header) - 1)
    try:
        return ReturnPanel(
            dates=tuple(dates),
            index_returns=table[:, 0],
            asset_returns=table[:, 1:],
            asset_names=tuple(header[2:]),
        )
    except InvalidInputError as exc:
        raise DataError(f"{path}: {exc}") from exc


def estimate_moments(
    panel: ReturnPanel, start: int = 0, stop: int | None = None
) -> MomentEstimate:
    """Mean and population covariance of the joint returns on a window.

    The covariance uses the 1/N denominator so the empirical
    distribution of the window exactly saturates a unit second-moment
    bound.  Near-singular covariances get a diagonal jitter of
    ``1e-8`` times the mean diagonal scale.
    """
    start, stop = _check_row_range(panel.n_days, start, stop)
    if stop - start < 2:
        raise InvalidInputError(f"window [{start}, {stop}) has fewer than 2 rows")
    block = panel.joint_matrix()[start:stop]
    mu = block.mean(axis=0)
    centered = block - mu
    sigma = centered.T @ centered / block.shape[0]
    sigma = 0.5 * (sigma + sigma.T)
    dim = sigma.shape[0]
    scale = float(np.trace(sigma)) / dim
    if scale <= 0.0:
        scale = 1.0
    repaired = False
    jitter = 0.0
    if float(np.linalg.eigvalsh(sigma).min()) < _EIG_TOL * scale:
        jitter = _JITTER_SCALE * scale
        sigma = sigma + jitter * np.eye(dim)
        repaired = True
    return MomentEstimate(mu_hat=mu, sigma_hat=sigma, repaired=repaired, jitter=jitter)


def build_sample_set(
    panel: ReturnPanel,
    start: int = 0,
    stop: int | None = None,
    mode: SampleMode = Historical(),
) -> SampleSet:
    """Scenario set for a window: its rows, or Gaussian draws from them."""
    start, stop = _check_row_range(panel.n_days, start, stop)
    if isinstance(mode, Historical):
        return SampleSet(panel.joint_matrix()[start:stop])
    if isinstance(mode, GaussianMC):
        moments = estimate_moments(panel, start, stop)
        try:
            chol = np.linalg.cholesky(moments.sigma_hat)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"covariance factorization failed: {exc}") from exc
        rng = np.random.default_rng(mode.seed)
        draws = rng.standard_normal((mode.count, moments.mu_hat.shape[0]))
        return SampleSet(moments.mu_hat + draws @ chol.T)
    raise InvalidInputError(f"unknown sample mode {mode!r}")

"""Output checks.  Each returns a list of failure messages; empty means pass.

The checks recompute what a pass returned through drtrack's public
functions, so a wrong answer counts as a failed operation even when the
pass itself raised nothing.
"""

from __future__ import annotations

import math

import numpy as np

from drtrack.backtest import compute_tei, compute_teo, hold_gross_returns
from drtrack.model import (
    DiscreteDistribution,
    check_moment_feasibility,
    evaluate_khat,
    evaluate_phi_n,
)

SIMPLEX_TOL = 1e-9
# Recomputing the same expression on the same inputs gives the same bits.
RECOMPUTE_RTOL = 1e-9
# The CLI writes weights rounded to 12 significant digits, which moves
# each weight by at most 5e-13 of itself and so each deviation (gross
# returns near 1, weights summing to 1) by about 1e-12.  A mean v of
# squared deviations then moves by about 2e-12 * sqrt(v); this allows
# ten times that.
ROUNDED_ABS_TOL = 2e-11


def check_simplex(x, label: str = "weights") -> list[str]:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or not np.isfinite(x).all():
        return [f"{label}: not a finite vector"]
    failures = []
    if x.min() < 0.0:
        failures.append(f"{label}: negative weight {x.min():.3e}")
    if abs(float(x.sum()) - 1.0) > SIMPLEX_TOL:
        failures.append(f"{label}: weights sum to {float(x.sum())!r}")
    return failures


def _close(label: str, got: float, want: float, abs_tol: float = 0.0) -> list[str]:
    if math.isclose(got, want, rel_tol=RECOMPUTE_RTOL, abs_tol=abs_tol):
        return []
    return [f"{label}: reported {got!r}, recomputed {want!r}"]


def check_solve(result, samples, amb, model) -> list[str]:
    """Simplex weights, the reported objective, and weak duality."""
    failures = check_simplex(result.nu.x)
    phi, _ = evaluate_phi_n(result.nu, samples, amb, model)
    failures += _close("objective", result.objective, phi)
    # The empirical distribution lies in the ambiguity set, so the dual
    # objective at any feasible point bounds its expected loss from above.
    report = check_moment_feasibility(
        DiscreteDistribution.uniform(samples.n_samples), samples, amb
    )
    if not report.feasible:
        failures.append("empirical distribution outside the ambiguity set")
    x, alpha = result.nu.x, result.nu.alpha
    empirical = float(
        np.mean([evaluate_khat(x, alpha, row, model) for row in samples.samples])
    )
    if result.objective < empirical - 1e-12 * (1.0 + abs(empirical)):
        failures.append(
            f"weak duality: objective {result.objective!r} < empirical {empirical!r}"
        )
    return failures


def check_teo_tei(
    weights, teo: float, tei: float, panel, config, label: str, rounded: bool = False
) -> list[str]:
    """Simplex weights, and TEO and TEI recomputed from them.

    ``rounded`` says the weights were read back as the CLI rounds them.
    """
    failures = []
    for t, x in enumerate(weights, start=1):
        failures += check_simplex(x, f"{label} window {t}")
    index_gross, asset_gross = hold_gross_returns(panel, config)
    for name, got, want in (
        ("teo", teo, compute_teo(weights, index_gross, asset_gross)),
        ("tei", tei, compute_tei(weights, panel, config)),
    ):
        abs_tol = ROUNDED_ABS_TOL * math.sqrt(abs(want)) if rounded else 0.0
        failures += _close(f"{label} {name}", got, want, abs_tol)
    return failures


def check_backtest(report, panel, config) -> list[str]:
    weights = np.vstack([w.weights for w in report.windows])
    return check_teo_tei(weights, report.teo, report.tei, panel, config, "backtest")


def check_grid(doc: dict, panel, config, grid: list[tuple[float, float]]) -> list[str]:
    """Every row of a ``grid-search`` JSON document, and its best row."""
    rows = doc["rows"]
    if sorted((r["tau1"], r["tau2"]) for r in rows) != sorted(grid):
        return [f"grid rows {[(r['tau1'], r['tau2']) for r in rows]} != {grid}"]
    failures = []
    for row in rows:
        weights = np.array([w["weights"] for w in row["per_window"]], dtype=float)
        label = f"grid ({row['tau1']:g}, {row['tau2']:g})"
        failures += check_teo_tei(
            weights, row["teo"], row["tei"], panel, config, label, rounded=True
        )
    best = min(rows, key=lambda r: (r["teo"], r["tau1"], r["tau2"]))
    chosen = doc["best"]
    if (chosen["tau1"], chosen["tau2"], chosen["teo"]) != (
        best["tau1"],
        best["tau2"],
        best["teo"],
    ):
        failures.append(f"grid best {chosen} is not the TEO arg-min row")
    return failures

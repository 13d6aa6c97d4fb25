"""Distributionally robust index tracking with a CVaR penalty.

The package builds a discretized dual objective for a worst-case
tracking model over a moment ambiguity set, minimises it with a
smoothing projected gradient method, and evaluates portfolios through
a rolling-window backtest.  See the module docstrings for the pieces:

* :mod:`drtrack.model` - types and exact objective evaluations
* :mod:`drtrack.smoothing` - smooth surrogates and gradients
* :mod:`drtrack.projections` - simplex and PSD cone projections
* :mod:`drtrack.spg` - the smoothing projected gradient solver
* :mod:`drtrack.baselines` - sample-average and least-squares solvers
* :mod:`drtrack.data` - panels, moments, synthetic markets
* :mod:`drtrack.backtest` - rolling protocol, metrics, grid search
* :mod:`drtrack.cli` - the ``drtrack`` command-line entry point
"""

from .backtest import (
    MODEL_IDS,
    TAU_GRID,
    BacktestConfig,
    BacktestReport,
    GridSearchResult,
    compute_performance,
    compute_tei,
    compute_teo,
    grid_search,
    run_backtest,
    transition_weights,
)
from .baselines import BaselineParams, scvar_objective, scvar_solve, te_l2_solve
from .data import (
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
from .errors import DataError, DrTrackError, InvalidInputError, NumericalError
from .model import (
    AmbiguityParams,
    DiscreteDistribution,
    DualPoint,
    FeasibilityReport,
    ModelParams,
    PsiKind,
    SampleSet,
    check_moment_feasibility,
    cvar_discrete,
    evaluate_h,
    evaluate_h1,
    evaluate_h2,
    evaluate_khat,
    evaluate_phi_n,
)
from .projections import project_feasible, project_psd, project_simplex
from .smoothing import (
    grad_smooth_phi,
    smooth_abs,
    smooth_h,
    smooth_phi,
    smooth_plus,
)
from .spg import ArmijoStep, SolveResult, SpgParams, armijo_search, default_start, spg_solve

__version__ = "0.1.0"

__all__ = [
    "MODEL_IDS",
    "TAU_GRID",
    "AmbiguityParams",
    "ArmijoStep",
    "BacktestConfig",
    "BacktestReport",
    "BaselineParams",
    "DataError",
    "DiscreteDistribution",
    "DrTrackError",
    "DualPoint",
    "FeasibilityReport",
    "GaussianMC",
    "GridSearchResult",
    "Historical",
    "InvalidInputError",
    "ModelParams",
    "MomentEstimate",
    "NumericalError",
    "PsiKind",
    "ReturnPanel",
    "SampleSet",
    "SolveResult",
    "SpgParams",
    "armijo_search",
    "build_sample_set",
    "check_moment_feasibility",
    "compute_performance",
    "compute_tei",
    "compute_teo",
    "cvar_discrete",
    "default_start",
    "estimate_moments",
    "evaluate_h",
    "evaluate_h1",
    "evaluate_h2",
    "evaluate_khat",
    "evaluate_phi_n",
    "gen_synthetic",
    "grad_smooth_phi",
    "grid_search",
    "load_returns_csv",
    "project_feasible",
    "project_psd",
    "project_simplex",
    "run_backtest",
    "save_returns_csv",
    "scvar_objective",
    "scvar_solve",
    "smooth_abs",
    "smooth_h",
    "smooth_phi",
    "smooth_plus",
    "spg_solve",
    "te_l2_solve",
    "transition_weights",
]

"""Model-oriented selection of informative subsamples from large datasets.

The package picks the rows of a big dataset that carry the most information
about a regression model, using classical experimental-design criteria:

- ``select_sequential``: greedy design-point augmentation with per-batch refits
- ``select_iboss``: extreme-value selection along each covariate
- ``select_robust``: minimax-robust design measures on a candidate grid
- ``criteria``: D/A/I losses, robust losses, bias-aware traces, optimality checks
- ``model_core``: model bases, design measures, information matrices
- ``estimation``: least-squares and logistic fitting, classification scoring
- ``ingest_sim``: CSV ingest, standardization, grids, synthetic data generators, artifact writers
"""

from __future__ import annotations

from .criteria import (
    CRITERION_NAMES,
    CriterionValue,
    GetVerdict,
    RobustContext,
    a_criterion,
    confounder_expected_worst,
    confounder_loss,
    confounder_minimax,
    d_criterion,
    det_r_bias,
    det_r_conf,
    effective_rank,
    get_check,
    i_criterion,
    montepiedra_check,
    top_eigenpair,
    trace_r,
    variance_function,
    variance_profile,
    wiens_losses,
)
from .errors import (
    ConfigError,
    DegenerateColumnError,
    EmptyDatasetError,
    ExhaustionError,
    InvalidInputError,
    ParseError,
    SeparationError,
    SingularMatrixError,
    SubselError,
)
from .estimation import (
    ConfusionMatrix,
    FitResult,
    fit_logistic,
    fit_ols,
    predict_classify,
    sigmoid,
)
from .ingest_sim import (
    ColumnTransform,
    Dataset,
    build_grid,
    default_analogue_grid,
    default_analogue_theta,
    grid_from_data,
    load_csv,
    simulate_example2,
    simulate_example3,
    simulate_mortgage_analogue,
    solve_intercept,
    standardize,
    write_csv,
)
from .model_core import (
    BiasSpec,
    CandidateGrid,
    DesignMeasure,
    InformationMatrix,
    ModelSpec,
    SubsampleSelection,
    basis_from_config,
    convex_combination,
    eval_row,
    information_matrix,
    information_matrix_from_selection,
    model_matrix,
    model_spec_from_config,
    polynomial_basis,
    trig_basis,
    uniform_design,
)
from .rng import CounterRng, inverse_normal_cdf
from .select_iboss import iboss_det_bound, iboss_permutation_report, run_iboss
from .select_robust import RobustStep, RobustTrajectory, run_wiens
from .select_sequential import SeqConfig, SeqStep, SeqTrace, run_sequential

__version__ = "0.1.0"

__all__ = [
    "BiasSpec",
    "CRITERION_NAMES",
    "CandidateGrid",
    "ColumnTransform",
    "ConfigError",
    "ConfusionMatrix",
    "CounterRng",
    "CriterionValue",
    "Dataset",
    "DegenerateColumnError",
    "DesignMeasure",
    "EmptyDatasetError",
    "ExhaustionError",
    "FitResult",
    "GetVerdict",
    "InformationMatrix",
    "InvalidInputError",
    "ModelSpec",
    "ParseError",
    "RobustContext",
    "RobustStep",
    "RobustTrajectory",
    "SeparationError",
    "SeqConfig",
    "SeqStep",
    "SeqTrace",
    "SingularMatrixError",
    "SubsampleSelection",
    "SubselError",
    "a_criterion",
    "basis_from_config",
    "build_grid",
    "confounder_expected_worst",
    "confounder_loss",
    "confounder_minimax",
    "convex_combination",
    "d_criterion",
    "default_analogue_grid",
    "default_analogue_theta",
    "det_r_bias",
    "det_r_conf",
    "effective_rank",
    "eval_row",
    "fit_logistic",
    "fit_ols",
    "get_check",
    "grid_from_data",
    "i_criterion",
    "iboss_det_bound",
    "iboss_permutation_report",
    "information_matrix",
    "information_matrix_from_selection",
    "inverse_normal_cdf",
    "load_csv",
    "model_matrix",
    "model_spec_from_config",
    "montepiedra_check",
    "polynomial_basis",
    "predict_classify",
    "run_iboss",
    "run_sequential",
    "run_wiens",
    "sigmoid",
    "simulate_example2",
    "simulate_example3",
    "simulate_mortgage_analogue",
    "solve_intercept",
    "standardize",
    "top_eigenpair",
    "trace_r",
    "trig_basis",
    "uniform_design",
    "variance_function",
    "variance_profile",
    "wiens_losses",
    "write_csv",
]

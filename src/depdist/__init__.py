"""Dependency distance distributions: extraction, fitting, sampling, and
optimality scores for syntactic dependency treebanks."""

from .arrangement import min_arrangement_cost
from .estimation import (
    FitResult,
    SelectionReport,
    SlopeSummary,
    fit,
    information_criteria,
    select,
    slope_analysis,
    threshold_scan,
)
from .models import (
    Model,
    ModelParams,
    harmonic,
    log_likelihood,
    log_pmf,
    pmf,
    two_regime_geometric_constants,
    zeta_geometric_constants,
)
from .optimality import (
    OmegaLengthStats,
    OmegaResult,
    average_omega,
    omega,
)
from .sampling import (
    draw_sample,
    generate_validation_suite,
    sample_geometric,
    sample_tabular,
    sample_zeta_truncated,
)
from .treebank import (
    DepTree,
    DistanceSample,
    LengthDistribution,
    SampleSet,
    Treebank,
    build_samples,
    distances,
    load_conllu,
    parse_conllu,
)
from .validation import run_validation

__version__ = "0.1.0"

__all__ = [
    "DepTree",
    "DistanceSample",
    "FitResult",
    "LengthDistribution",
    "Model",
    "ModelParams",
    "OmegaLengthStats",
    "OmegaResult",
    "SampleSet",
    "SelectionReport",
    "SlopeSummary",
    "Treebank",
    "average_omega",
    "build_samples",
    "distances",
    "draw_sample",
    "fit",
    "generate_validation_suite",
    "harmonic",
    "information_criteria",
    "load_conllu",
    "log_likelihood",
    "log_pmf",
    "min_arrangement_cost",
    "omega",
    "parse_conllu",
    "pmf",
    "run_validation",
    "sample_geometric",
    "sample_tabular",
    "sample_zeta_truncated",
    "select",
    "slope_analysis",
    "threshold_scan",
    "two_regime_geometric_constants",
    "zeta_geometric_constants",
]

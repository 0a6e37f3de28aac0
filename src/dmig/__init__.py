"""Dependency-aware disentanglement metrics over latent representations.

Computes per-attribute MIG (mutual information gap) and DMIG (its
dependency-aware variant, which normalizes by conditional entropy when
the runner-up latent dimension is regularized for a correlated
attribute), alongside Spearman correlations, using built-in kNN and
plug-in information estimators. Ships synthetic generators with
closed-form ground truth, stable text file formats, and a CLI.
"""

from .errors import (
    AlignmentError,
    DatasetInvariantError,
    DegenerateSampleError,
    DmigError,
    FileFormatError,
    InsufficientSamplesError,
    KindMismatchError,
    MetricComputationError,
    SpecValidationError,
    UndefinedCorrelationError,
    ZeroEntropyAttributeError,
)
from .estimation import (
    CONTINUOUS,
    DISCRETE,
    EstimatorConfig,
    MIEstimate,
    SampleColumn,
    conditional_entropy,
    entropy_continuous,
    entropy_discrete,
    mi_continuous_detailed,
    mi_discrete,
    spearman,
)
from .metrics import (
    EPS_DENOMINATOR,
    EPS_ENTROPY,
    FLAG_DMIG_ABOVE_ONE,
    FLAG_NEAR_ZERO_DENOMINATOR,
    FLAG_NEGATIVE_DENOMINATOR,
    FLAG_REGULARIZATION_FAILURE,
    AttributeMetrics,
    Dataset,
    MetricReport,
    MIProfile,
    compute_dmig,
    evaluate,
    mi_profile,
)
from .synthetic import (
    GroundTruth,
    SyntheticSpec,
    discrete_truth,
    gaussian_truth,
    gen_discrete_joint,
    gen_gaussian_pair,
    gen_trajectory,
)
from .dataio import (
    read_dataset,
    read_report,
    read_series,
    read_truth,
    write_dataset,
    write_report,
    write_series,
    write_truth,
)
from .plotting import METRICS, PlotSpec, render_series_scatter

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "AttributeMetrics",
    "CONTINUOUS",
    "DISCRETE",
    "Dataset",
    "DatasetInvariantError",
    "DegenerateSampleError",
    "DmigError",
    "EPS_DENOMINATOR",
    "EPS_ENTROPY",
    "EstimatorConfig",
    "FLAG_DMIG_ABOVE_ONE",
    "FLAG_NEAR_ZERO_DENOMINATOR",
    "FLAG_NEGATIVE_DENOMINATOR",
    "FLAG_REGULARIZATION_FAILURE",
    "FileFormatError",
    "GroundTruth",
    "InsufficientSamplesError",
    "KindMismatchError",
    "METRICS",
    "MetricComputationError",
    "MetricReport",
    "MIEstimate",
    "MIProfile",
    "PlotSpec",
    "SampleColumn",
    "SpecValidationError",
    "SyntheticSpec",
    "UndefinedCorrelationError",
    "ZeroEntropyAttributeError",
    "compute_dmig",
    "conditional_entropy",
    "discrete_truth",
    "entropy_continuous",
    "entropy_discrete",
    "evaluate",
    "gaussian_truth",
    "gen_discrete_joint",
    "gen_gaussian_pair",
    "gen_trajectory",
    "mi_continuous_detailed",
    "mi_discrete",
    "mi_profile",
    "read_dataset",
    "read_report",
    "read_series",
    "read_truth",
    "render_series_scatter",
    "spearman",
    "write_dataset",
    "write_report",
    "write_series",
    "write_truth",
]

"""The public API: each module's __all__, and the package as their union."""

import types

import dmig
from dmig import dataio, errors, estimation, metrics, plotting, synthetic

MODULES = (errors, estimation, metrics, synthetic, dataio, plotting)

EXPECTED = {
    # errors
    "AlignmentError", "DatasetInvariantError", "DegenerateSampleError",
    "DmigError", "FileFormatError", "InsufficientSamplesError",
    "KindMismatchError", "MetricComputationError", "SpecValidationError",
    "UndefinedCorrelationError", "ZeroEntropyAttributeError",
    # estimation
    "CONTINUOUS", "DISCRETE", "EstimatorConfig", "MIEstimate", "SampleColumn",
    "entropy_continuous", "entropy_discrete", "mi_continuous_detailed", "spearman",
    # metrics
    "AttributeMetrics", "Dataset", "MIProfile", "MetricReport", "compute_dmig",
    "evaluate", "mi_profile", "EPS_DENOMINATOR", "EPS_ENTROPY",
    "FLAG_DMIG_ABOVE_ONE", "FLAG_NEAR_ZERO_DENOMINATOR",
    "FLAG_NEGATIVE_DENOMINATOR", "FLAG_REGULARIZATION_FAILURE",
    # synthetic
    "GroundTruth", "SyntheticSpec", "discrete_truth", "gaussian_truth",
    "gen_discrete_joint", "gen_gaussian_pair", "gen_trajectory",
    # dataio
    "read_dataset", "read_report", "read_series", "read_truth",
    "write_dataset", "write_report", "write_series", "write_truth",
    # plotting
    "METRICS", "PlotSpec", "render_series_scatter",
}


def test_package_all_is_the_union_of_module_all():
    assert len(dmig.__all__) == len(set(dmig.__all__))
    assert dmig.__all__ == [name for m in MODULES for name in m.__all__]


def test_every_name_resolves_to_its_module_object():
    for m in MODULES:
        for name in m.__all__:
            assert getattr(dmig, name) is getattr(m, name), (m.__name__, name)


def test_no_private_or_leaked_names():
    assert not [name for name in dmig.__all__ if name.startswith("_")]
    assert "annotations" not in dmig.__all__
    public = {
        name for name, value in vars(dmig).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(dmig.__all__)


def test_exported_names_are_pinned():
    assert len(EXPECTED) == 51
    assert set(dmig.__all__) == EXPECTED

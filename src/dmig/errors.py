"""Exception hierarchy for estimation and metric computation.

Estimation errors describe problems with the sample data handed to an
estimator; metric errors describe problems at the dataset/report level.
Operational problems (missing files, malformed text) raise the dataio
errors. All inherit from DmigError so callers can catch the whole family.
"""

from __future__ import annotations

__all__ = [
    "DmigError",
    "KindMismatchError",
    "AlignmentError",
    "InsufficientSamplesError",
    "DegenerateSampleError",
    "UndefinedCorrelationError",
    "ZeroEntropyAttributeError",
    "DatasetInvariantError",
    "MetricComputationError",
    "FileFormatError",
    "SpecValidationError",
]


class DmigError(Exception):
    """Base class for all errors raised by this package."""


class KindMismatchError(DmigError):
    """An operation received a column of the wrong kind (e.g. a continuous
    column passed to a discrete-only estimator)."""


class AlignmentError(DmigError):
    """Two columns that must share the same sample count do not."""


class InsufficientSamplesError(DmigError):
    """Fewer samples than the estimator needs (N <= k for kNN estimators,
    N < 2 in general)."""


class DegenerateSampleError(DmigError):
    """A continuous column has zero variance (after jitter), so neighbor
    distances degenerate and the estimate is undefined."""


class UndefinedCorrelationError(DmigError):
    """Rank correlation requested on a constant column."""


class ZeroEntropyAttributeError(DmigError):
    """An attribute has (near) zero entropy, so MIG/DMIG normalization is
    undefined. Carries the attribute index."""

    def __init__(self, message: str, attribute_index: int | None = None):
        super().__init__(message)
        self.attribute_index = attribute_index


class DatasetInvariantError(DmigError):
    """A Dataset violates a structural invariant (shape mismatch, NaN,
    non-injective map, M > D, empty attribute set)."""


class MetricComputationError(DmigError):
    """An estimator failed while building the MI profile; carries the
    offending attribute/dimension indices in the message."""


class FileFormatError(DmigError):
    """A dataset/report/series file failed to parse; message includes the
    path and, where possible, the line number."""


class SpecValidationError(DmigError):
    """A synthetic generation spec violates its invariants."""

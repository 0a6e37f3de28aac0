"""Dependency-aware disentanglement metrics over latent representations.

Computes per-attribute MIG (mutual information gap) and DMIG (its
dependency-aware variant, which normalizes by conditional entropy when
the runner-up latent dimension is regularized for a correlated
attribute), alongside Spearman correlations, using built-in kNN and
plug-in information estimators. Ships synthetic generators with
closed-form ground truth, stable text file formats, and a CLI.

The public API is the union of each module's ``__all__``.
"""

from . import dataio, errors, estimation, metrics, plotting, synthetic
from .errors import *
from .estimation import *
from .metrics import *
from .synthetic import *
from .dataio import *
from .plotting import *

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += errors.__all__
__all__ += estimation.__all__
__all__ += metrics.__all__
__all__ += synthetic.__all__
__all__ += dataio.__all__
__all__ += plotting.__all__

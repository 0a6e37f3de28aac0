"""Dependency-aware disentanglement metrics over latent representations.

Computes per-attribute MIG (mutual information gap) and DMIG (its
dependency-aware variant, which normalizes by conditional entropy when
the runner-up latent dimension is regularized for a correlated
attribute), alongside Spearman correlations, using built-in kNN and
plug-in information estimators. Ships synthetic generators with
closed-form ground truth, stable text file formats, and a CLI.

The public API is the union of each module's ``__all__``. Importing the
package loads none of its modules, and so no numpy: the first access to
a public name or to ``__all__`` imports them all and binds every name
(PEP 562). ``python -m dmig`` imports this package before its entry
function can set the BLAS thread count for numpy.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_MODULES = ("errors", "estimation", "metrics", "synthetic", "dataio", "plotting")


def _bind() -> None:
    names: list[str] = []
    for short in _MODULES:
        module = _import_module(f"{__name__}.{short}")
        globals().update((name, getattr(module, name)) for name in module.__all__)
        names += module.__all__
    globals()["__all__"] = names


def __getattr__(name: str):
    if "__all__" not in globals() and (name == "__all__" or not name.startswith("__")):
        _bind()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    if "__all__" not in globals():
        _bind()
    return sorted(globals())

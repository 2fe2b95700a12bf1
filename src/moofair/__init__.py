"""Fairness-aware recommendation training via multi-objective Pareto
optimization, plus the evaluation harness for accuracy, fairness, and
diversity of the resulting recommender."""

import importlib

__version__ = "0.1.0"

_SUBMODULES = (
    "cli",
    "data",
    "metrics",
    "model",
    "numerics",
    "objectives",
    "solver",
    "training",
)

__all__ = list(_SUBMODULES) + ["__version__"]


def __getattr__(name):
    # submodules load lazily so the CLI can cap BLAS threads before numpy
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

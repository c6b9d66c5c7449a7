"""Numerical verification of local zeta functional equations,
homogeneous-distribution regularization, operator symbols of group
convolutions, and the Euler-operator heat semigroup on prehomogeneous
vector spaces."""

import importlib

from . import funceq, heatflow, homog, phspace, quad, report, special, symbolkern, testfn, zeta
from .errors import AccuracyError, ConfigError, DomainError, NonConvergence, PoleError, PVZetaError
from .report import CheckReport, sort_reports

__version__ = "0.1.0"


def __getattr__(name):
    # cli loads on first use, so `python -m pvzeta.cli` finds it unloaded
    # and runs it once, as __main__
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AccuracyError",
    "CheckReport",
    "ConfigError",
    "DomainError",
    "NonConvergence",
    "PVZetaError",
    "PoleError",
    "cli",
    "funceq",
    "heatflow",
    "homog",
    "phspace",
    "quad",
    "report",
    "sort_reports",
    "special",
    "symbolkern",
    "testfn",
    "zeta",
]

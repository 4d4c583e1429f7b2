"""Plane-wave Dyson equation solver with inexact GMRES.

Solves the linear density response of a toy periodic solid: the outer
Dyson system is handled by a restarted inexact GMRES whose per-iteration
operator error budget is translated into adaptive conjugate-gradient
tolerances for the inner Sternheimer solves, which run as one block CG
over the occupied bands on the dense plane-wave Hamiltonian.
"""

__version__ = "0.1.0"

from .errors import (
    ArchiveError,
    ConfigurationError,
    InvariantViolationError,
    NonConvergenceError,
    PwdysonError,
)
from .pwbasis import FourierGrids, Lattice, build_grids

__all__ = [
    "ArchiveError",
    "ConfigurationError",
    "FourierGrids",
    "InvariantViolationError",
    "Lattice",
    "NonConvergenceError",
    "PwdysonError",
    "build_grids",
]

"""Exception types shared across the package."""


class PwdysonError(Exception):
    """Base class for all package errors."""


class ConfigurationError(PwdysonError):
    """Inconsistent or invalid configuration / input values."""


class NonConvergenceError(PwdysonError):
    """A solver ran out of iterations, or an error budget fell below grt's tolerance floor.

    Carries the last residual, the Hamiltonian applications spent (`cost`:
    the Sternheimer solve's, or 0 for an application refused at the floor,
    which makes none) and, for the outer solve, a partial report, so
    callers can diagnose or salvage the run.
    """

    def __init__(self, message, residual=None, report=None, cost=None):
        super().__init__(message)
        self.residual = residual
        self.report = report
        self.cost = cost


class InvariantViolationError(PwdysonError):
    """A verification check found a violated mathematical property."""


class ArchiveError(PwdysonError):
    """Ground-state archive is malformed, truncated or incompatible."""

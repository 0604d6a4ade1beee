"""Exception hierarchy shared across the package.

The CLI maps these onto stable exit codes: parse failures are exit 3,
numerical precondition violations exit 4.
"""


class GcurkitError(Exception):
    """Base class for all errors raised by gcurkit."""


class DimensionError(GcurkitError, ValueError):
    """Input shapes violate an operation's preconditions."""


class ContractViolationError(GcurkitError, ValueError):
    """Input values violate a documented contract (e.g. a NaN or inf entry,
    a non-orthonormal basis)."""


class SingularMatrixError(GcurkitError):
    """A matrix that must be invertible is numerically singular."""


class DependentBasisError(SingularMatrixError):
    """Greedy index selection hit a numerically dependent basis column."""


class FullRankError(GcurkitError):
    """A matrix required to have full rank does not."""


class ConvergenceError(GcurkitError):
    """An underlying factorization iteration failed to converge, or an
    intermediate result overflowed float64."""


class ParseError(GcurkitError):
    """A data file could not be parsed; carries file location context."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}:"
            if line is not None:
                loc = f"{path}:{line}:"
        super().__init__(f"{loc} {message}" if loc else message)
        self.path = path
        self.line = line

"""Exception taxonomy shared across the package.

Configuration-style failures (bad arguments, malformed files, degenerate
inputs) derive from ValueError; numerical failures (singularity, separation)
derive from ArithmeticError.  The CLI maps the two families to distinct exit
codes.
"""

from __future__ import annotations


class SubselError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(SubselError, ValueError):
    """An argument violates an operation's contract."""


class ConfigError(SubselError, ValueError):
    """Bad configuration: unknown names, malformed files, missing columns."""


class ParseError(SubselError, ValueError):
    """A cell could not be parsed (strict ingestion only)."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


class EmptyDatasetError(SubselError, ValueError):
    """No usable data rows remain after ingestion."""


class DegenerateColumnError(SubselError, ValueError):
    """A column is constant where variation is required (e.g. standardize)."""


# The largest condition number of a matrix that must be inverted; above it
# (or with a non-positive eigenvalue) SingularMatrixError is raised.
COND_LIMIT = 1e12
# The same rule for a matrix whose largest eigenvalue is at most 1.
EIG_FLOOR = 1.0 / COND_LIMIT


class SingularMatrixError(SubselError, ArithmeticError):
    """A matrix that must be invertible is singular or too ill-conditioned.

    Carries the offending smallest eigenvalue when known; never silently
    regularized because downstream optimality verdicts would be corrupted.
    """

    def __init__(
        self,
        message: str,
        smallest_eigenvalue: float | None = None,
        iteration: int | None = None,
    ):
        super().__init__(message)
        self.smallest_eigenvalue = smallest_eigenvalue
        self.iteration = iteration


def check_conditioning(eigvals, what: str) -> None:
    """Raise SingularMatrixError unless the symmetric matrix with these ascending
    eigenvalues is positive definite with condition number at most COND_LIMIT."""
    smallest = float(eigvals[0])
    if not (smallest > 0.0 and float(eigvals[-1]) / smallest <= COND_LIMIT):
        raise SingularMatrixError(
            f"{what} is singular or ill-conditioned (smallest eigenvalue {smallest:.6e})",
            smallest_eigenvalue=smallest,
        )


class SeparationError(SubselError, ArithmeticError):
    """Logistic fit diverged: coefficients grow without bound."""

"""Exception hierarchy shared by the whole package.

Every error carries a short machine-readable ``category`` so the command
line front end can emit a single parsable failure line.
"""


class SpecalError(Exception):
    category = "error"


class InvalidBasisError(SpecalError):
    category = "invalid-basis"


class InvalidDomainError(SpecalError):
    category = "invalid-domain"


class DomainError(SpecalError):
    """Evaluation point outside the basis domain (no extrapolation)."""

    category = "domain"


class InvalidGridError(SpecalError):
    category = "invalid-grid"


class UnsupportedOrderError(SpecalError):
    category = "unsupported-order"


class ShapeError(SpecalError):
    category = "shape"


class CollinearConcentrationsError(SpecalError):
    category = "collinear-concentrations"


class SingularDesignError(SpecalError):
    category = "singular-design"


class InvalidParameterError(SpecalError):
    category = "invalid-parameter"


class DegenerateGcvError(SpecalError):
    category = "degenerate-gcv"


class DegenerateCovarianceError(SpecalError):
    category = "degenerate-covariance"


class CovarianceConditioningError(SpecalError):
    category = "covariance-conditioning"


class DegenerateAnalytesError(SpecalError):
    category = "degenerate-analytes"


class FoldFailureError(SpecalError):
    category = "fold-failure"


class InsufficientSamplesError(SpecalError):
    category = "insufficient-samples"


class DegenerateSpectraError(SpecalError):
    category = "degenerate-spectra"


class InvalidComponentsError(SpecalError):
    category = "invalid-components"


class ConvergenceError(SpecalError):
    category = "convergence"


class GridMismatchError(SpecalError):
    category = "grid-mismatch"


class ParseError(SpecalError):
    category = "parse"


class AlignmentError(SpecalError):
    category = "alignment"


class OutputError(SpecalError):
    """An output file or directory that cannot be created or written."""

    category = "output"


def failing(system: int, error: SpecalError) -> SpecalError:
    """``error`` marked with the first row of a stack of systems that it
    fails, as ``error.system``: the fold a stacked solve names."""
    error.system = system
    return error

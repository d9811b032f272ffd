"""Exception hierarchy shared across the package."""


class HdwForgeError(Exception):
    """Base class for all errors raised by this package."""


class ChartMismatchError(HdwForgeError):
    """A coordinate does not belong to the chart (or bundle level) in use."""


class WrongBundleError(ChartMismatchError):
    """An expression references coordinates outside its declared bundle level."""

    def __init__(self, message, offending=()):
        super().__init__(message)
        self.offending = tuple(offending)


class IncompleteAssignmentError(HdwForgeError):
    """A numeric evaluation is missing values for some free variables."""

    def __init__(self, message, missing=()):
        super().__init__(message)
        self.missing = tuple(missing)


class EvaluationDomainError(HdwForgeError):
    """Division by zero, log of a non-positive number, or a non-real result."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class SampleDomainError(EvaluationDomainError):
    """A diagnostic cannot be evaluated at a sample point, or is not finite
    and real there; `index` is the point's position among the samples."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


class DegreeError(HdwForgeError):
    """A form has the wrong degree for the requested operation."""


class GaugeError(HdwForgeError):
    """A gauge table key has the wrong length or names a slot that is not free."""


class RegularityError(HdwForgeError):
    """A Legendre inversion was requested for a non-hyper-regular Lagrangian."""


class UnsupportedFormError(HdwForgeError):
    """A Hamiltonian is not of the evolution form required by the 1+1 solver."""


class SolverAbortError(HdwForgeError):
    """A numeric run hit an evaluation domain error mid-integration, or
    ended with a non-finite metric; `last_step` is None when no one step is
    to blame."""

    def __init__(self, message, last_step):
        super().__init__(message)
        self.last_step = last_step


class NonRealValueError(SolverAbortError, TypeError):
    """A run's state turned complex; a `TypeError` too, as `float(1j)` is."""


class OutputError(HdwForgeError):
    """A report or grid could not be written."""


class ModelFileError(HdwForgeError):
    """A model file failed to parse or validate; carries a position."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            pos = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{pos}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class ExpressionSyntaxError(ModelFileError):
    """Bad token or structure in an expression string."""


class UnknownCoordinateError(ModelFileError):
    """An expression referenced a name not declared by the bundle chart."""

    def __init__(self, message, line=None, column=None, suggestions=()):
        super().__init__(message, line, column)
        self.suggestions = tuple(suggestions)

"""Exception hierarchy for the qvn package."""


class QvnError(Exception):
    """Base class for all qvn errors."""


class ValidationError(QvnError):
    """An object or argument violates a structural invariant."""


class DimensionMismatchError(ValidationError):
    """Operands have incompatible dimensions."""


class NotCptpError(ValidationError):
    """A map or its dual state fails the CPTP conditions."""


class NumericalError(QvnError):
    """A numerical procedure failed (convergence, vanishing probability)."""


class StreamDerivationError(QvnError):
    """Shot streams derived in a batch differ from numpy's own seeding."""


class ConfigurationError(QvnError):
    """A strategy or operation lacks required data."""


class OutOfCopiesError(QvnError):
    """A memory slot has no copies left; restore is needed."""

    def __init__(self, address, message=None):
        self.address = address
        super().__init__(message or f"slot {address} has no copies left")


class SlotNotFoundError(QvnError):
    """No memory slot exists at the given address."""


class NotRestorableError(QvnError):
    """A slot holds no classical description and cannot be restored."""


class ParseError(QvnError):
    """Malformed textual input; carries line and column of the offense."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {column})" if column is not None else ")")
        super().__init__(message + loc)


class KlConditionError(QvnError):
    """Error set violates the correctability condition; carries residuals."""

    def __init__(self, message, residual=None):
        self.residual = residual
        super().__init__(message)


class EstimationError(QvnError):
    """An estimator had no usable samples."""

"""Exception hierarchy shared by all gridmark modules.

Every domain failure raises a subclass of GridmarkError so callers (and the
CLI) can separate bad inputs from programming errors.  File-system failures
are left to the builtin OSError.
"""


class GridmarkError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionError(GridmarkError):
    """Grid size violates a structural requirement (e.g. not a multiple of 8)."""


class NotSquareError(GridmarkError):
    """A matrix or bitmap that must be square is not."""


class DimensionMismatchError(GridmarkError):
    """Two operands that must share a shape do not."""


class MalformedFileError(GridmarkError):
    """A file does not follow its declared format."""


class NonFiniteValueError(GridmarkError):
    """NaN or infinity where only finite values are allowed."""


class BadParameterError(GridmarkError):
    """A numeric parameter is outside its legal range."""


class RuleSyntaxError(GridmarkError):
    """Rule text failed to parse.  Carries the offending line number."""

    def __init__(self, line, expected, found=None):
        self.line = line
        self.expected = expected
        self.found = found
        detail = f"expected {expected}"
        if found is not None:
            detail += f", found {found!r}"
        super().__init__(f"line {line}: {detail}")


class UnknownIdentifierError(GridmarkError):
    """A rule references a variable or term that does not exist."""

    def __init__(self, line, name):
        self.line = line
        self.name = name
        super().__init__(f"line {line}: unknown identifier {name!r}")


class EmptyAggregateError(GridmarkError):
    """No rule fired with positive strength, so defuzzification is undefined."""


class DegenerateModelError(GridmarkError):
    """Model geometry is degenerate for the requested operation (zero extent)."""


class DegenerateInputError(GridmarkError):
    """A metric input is constant where variation is required."""


class InsufficientCapacityError(GridmarkError):
    """Fewer available slots than watermark bits."""

    def __init__(self, available, needed):
        self.available = available
        self.needed = needed
        super().__init__(f"watermark needs {needed} slots but the model has only {available} available slots")

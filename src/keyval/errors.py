"""Exception hierarchy shared by all keyval modules."""


class KeyvalError(Exception):
    """Base class for all errors raised by this package."""


class DivisorZeroError(KeyvalError, ZeroDivisionError):
    pass


class NotAlgebraicError(KeyvalError):
    pass


class LevelOutOfRangeError(KeyvalError):
    pass


class ZeroInputError(KeyvalError):
    pass


class IndexPowerViolationError(KeyvalError):
    """The degree step of a key is not a multiple of the value-group index."""


class FuelExhaustedError(KeyvalError):
    """A rewriting run exceeded its pass budget without normalizing."""


class ConsistencyFailureError(KeyvalError):
    """Closed-form weight and division-based weight disagree."""


class NonPositiveError(KeyvalError):
    pass


class EmptyEffectiveCorpusError(KeyvalError):
    pass


class UnboundedRatioError(KeyvalError):
    """A sample has positive numerator value but zero denominator value."""


class InsufficientPrecisionError(KeyvalError):
    pass


class NonzeroConstantTermError(KeyvalError):
    pass


class BadConstantTermError(KeyvalError):
    pass


class ParseError(KeyvalError):
    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position

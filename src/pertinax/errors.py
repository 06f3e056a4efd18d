"""Exception hierarchy shared by all pertinax modules.

``MathError`` subclasses signal a mathematically meaningful failure (the
CLI maps them to exit code 2); ``UsageError`` subclasses signal malformed
input such as syntax errors (exit code 1).
"""


class PertinaxError(Exception):
    pass


class MathError(PertinaxError):
    pass


class UsageError(PertinaxError):
    pass


class DivisionByZero(MathError, ZeroDivisionError):
    pass


class ConductorTooSmall(MathError):
    pass


class NotGraded(MathError):
    pass


class RedundantGenerator(MathError):
    pass


class TruncationExceeded(MathError):
    pass


class BasisTooLarge(MathError):
    pass


class BadQMatrix(MathError):
    pass


class DegenerateQuotient(MathError):
    pass


class NotFiniteWithinBound(MathError):
    pass


class NotAnAutomorphism(MathError):
    pass


class TrivialGroupRejected(MathError):
    pass


class BadPair(MathError):
    pass


class NotPertinent(MathError):
    """Raised when a claimed pertinent pair fails verification.

    Carries the index of the first violating group element and the nonzero
    residue so callers can render a useful report.
    """

    def __init__(self, message, g_index, residue):
        super().__init__(message)
        self.g_index = g_index
        self.residue = residue


class NotEigen(MathError):
    pass


class NotCentral(MathError):
    pass


class NotQCommuting(MathError):
    pass


class BadInput(MathError):
    pass


class NeedsGKdim(MathError):
    pass


class InsufficientDegrees(MathError):
    pass


class ParseError(UsageError):
    def __init__(self, message, line, column):
        super().__init__("%d:%d: %s" % (line, column, message))
        self.line = line
        self.column = column

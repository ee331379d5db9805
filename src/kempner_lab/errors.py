"""Exception types shared across the package, and the int check that raises them."""


class KempnerLabError(Exception):
    """Base class for every error raised by this package."""


class QuotientTooSmall(KempnerLabError):
    """A quotient rule produced a value below 2."""


class EmptyExplicitList(KempnerLabError):
    """An explicit quotient rule was given no values."""


class NonPositiveInput(KempnerLabError):
    """An operation defined on positive integers received n < 1."""


class DigitOutOfRange(KempnerLabError):
    """A digit lies outside [0, d_i - 1] for its position."""


class ZeroLeadingDigit(KempnerLabError):
    """The most significant digit of a numeral is zero (or missing)."""


class EmptyForbiddenSet(KempnerLabError):
    """A constrained position has no forbidden digits."""


class ForbiddenSetNotProper(KempnerLabError):
    """A forbidden set covers every digit value at its position."""


class OverrideOutsideIndexSet(KempnerLabError):
    """A per-index forbidden override targets an unconstrained position."""


class BitOutOfRange(KempnerLabError):
    """A fixed-bits specification is empty or contains a non-bit value."""


class BudgetExceeded(KempnerLabError):
    """An enumeration hit its element budget before completing.

    ``produced`` holds the number of elements yielded before truncation.
    """

    def __init__(self, message: str, produced: int = 0):
        super().__init__(message)
        self.produced = produced


class MissingBoundHint(KempnerLabError):
    """An operation needing a uniform quotient bound got an unbounded sequence."""


class SetIsFinite(KempnerLabError):
    """The divergence test for sparse forbidden ratios requires an infinite set."""


class RangeTooLarge(KempnerLabError):
    """A brute-force range exceeds the oracle's hard cap."""


class InputOutOfRange(KempnerLabError):
    """A numeric argument lies outside the documented domain."""


def check_int(value, what: str, error: type[KempnerLabError] = InputOutOfRange) -> None:
    """Raise ``error`` unless value is an int (a bool is one)."""
    if not isinstance(value, int):
        raise error(f"{what} must be an integer, got {value!r}")


class ConfigInvalid(KempnerLabError):
    """A configuration document failed validation.

    ``path`` points at the offending field, e.g. ``sequence.kind``.
    """

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path

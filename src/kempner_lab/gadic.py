"""Mixed-radix integer representations driven by quotient rules.

A sequence of integer quotients d_0, d_1, ... (each >= 2) defines place
values g_0 = 1, g_{k+1} = g_k * d_k.  Every positive integer then has a
unique digit vector (c_0, ..., c_k) with 0 <= c_i < d_i, c_k != 0 and
n = sum(c_i * g_i).  Digits are stored least significant first.

Quotients come from closed-form rules rather than stored lists, so any
index is reachable and growth classification stays decidable.
"""

from __future__ import annotations

from functools import lru_cache

from ._record import record
from .errors import (
    DigitOutOfRange,
    EmptyExplicitList,
    InputOutOfRange,
    NonPositiveInput,
    QuotientTooSmall,
    ZeroLeadingDigit,
    check_int,
)

# The fields each rule reads besides ``kind``.
RULE_FIELDS = {"constant": ("d",), "explicit": ("values", "extend"), "power": ("base",), "factorial": ()}
RULE_KINDS = tuple(RULE_FIELDS)
EXTEND_MODES = ("repeat-last", "cycle")

# Constant bases whose digits the C formatter writes; int() reads any base
# up to 36.  Digit values map to these characters and back.
_FORMAT_SPECS = {2: "b", 8: "o", 10: "d", 16: "x"}
_DIGIT_CHARS = b"0123456789abcdefghijklmnopqrstuvwxyz"


@lru_cache(maxsize=None)
def _native_tables(d: int) -> tuple[str | None, bytes | None, bytes]:
    """Format spec, character-to-digit table and digit-to-character table.

    The first two are None unless the formatter writes base d.  The last
    maps every byte >= d to "!", which int() rejects.
    """
    spec = _FORMAT_SPECS.get(d)
    to_table = bytes.maketrans(_DIGIT_CHARS[:d], bytes(range(d))) if spec else None
    return spec, to_table, _DIGIT_CHARS[:d] + b"!" * (256 - d)


@record
class QuotientSequence:
    """A rule generating the quotient at every digit position.

    Rules: ``constant`` (d_i = d), ``explicit`` (a finite list of values,
    extended by repeating the last one or cycling), ``power``
    (d_i = base**(i+1)) and ``factorial`` (d_i = i + 2).  Construction
    checks the rule's own fields, each quotient >= 2, and that every
    field the rule does not read keeps its default.

    ``bound_hint`` is the rule's own uniform bound on all quotients: d for
    a constant rule, the largest value of an explicit one, and None for
    the unbounded power and factorial families.
    """

    kind: str
    d: int = 0
    values: tuple[int, ...] = ()
    extend: str = "repeat-last"
    base: int = 0

    def __post_init__(self):
        kind = self.kind
        if kind not in RULE_KINDS:
            raise InputOutOfRange(f"unknown quotient rule {kind!r}; expected one of {RULE_KINDS}")
        for name in QuotientSequence.__match_args__[1:]:
            if name not in RULE_FIELDS[kind] and getattr(self, name) != getattr(QuotientSequence, name):
                raise InputOutOfRange(f"the {kind} rule does not read {name}, got {getattr(self, name)!r}")
        bound = None
        if kind == "constant":
            check_int(self.d, "d")
            if self.d < 2:
                raise QuotientTooSmall(f"constant quotient must be >= 2, got {self.d}")
            bound = self.d
        elif kind == "explicit":
            if not self.values:
                raise EmptyExplicitList("explicit rule needs at least one quotient")
            for v in self.values:
                check_int(v, "explicit quotient")
            small = [v for v in self.values if v < 2]
            if small:
                raise QuotientTooSmall(f"explicit quotients must all be >= 2, got {small[0]}")
            if self.extend not in EXTEND_MODES:
                raise InputOutOfRange(f"unknown extension mode {self.extend!r}; expected one of {EXTEND_MODES}")
            bound = max(self.values)
        elif kind == "power":
            check_int(self.base, "base")
            if self.base < 2:
                raise QuotientTooSmall(f"power rule base must be >= 2, got {self.base}")
        # Every digit conversion looks the sequence up in the prefix caches,
        # so the hash of the (immutable) fields is computed once, here.
        object.__setattr__(self, "_hash", hash((kind, self.d, self.values, self.extend, self.base)))
        object.__setattr__(self, "bound_hint", bound)
        # Constant bases up to 36 convert in C (see _native_tables).
        native = _native_tables(self.d) if kind == "constant" and self.d <= 36 else None
        object.__setattr__(self, "_native", native)

    def __hash__(self) -> int:
        return self._hash

    def quotient(self, i: int) -> int:
        """Quotient d_i at position i."""
        if type(i) is not int:  # hot: call check_int only off the plain-int path (a bool passes)
            check_int(i, "digit position")
        if i < 0:
            raise InputOutOfRange(f"negative digit position {i}")
        if self.kind == "constant":
            return self.d
        if self.kind == "explicit":
            vals = self.values
            if i < len(vals):
                return vals[i]
            if self.extend == "repeat-last":
                return vals[-1]
            return vals[i % len(vals)]
        if self.kind == "power":
            return self.base ** (i + 1)
        return i + 2


def constant(d: int) -> QuotientSequence:
    return QuotientSequence("constant", d=d)


def explicit(values, extend: str = "repeat-last") -> QuotientSequence:
    return QuotientSequence("explicit", values=tuple(values or ()), extend=extend)


def power(base: int) -> QuotientSequence:
    return QuotientSequence("power", base=base)


def factorial() -> QuotientSequence:
    return QuotientSequence("factorial")


@record
class Numeral:
    """Digit vector of a positive integer, least significant digit first."""

    digits: tuple[int, ...]
    sequence: QuotientSequence

    def __init__(self, digits: tuple[int, ...], sequence: QuotientSequence):
        # Writes the fields directly: one numeral is built per conversion,
        # and the frozen __setattr__ still rejects any later assignment.
        if not digits:
            raise ZeroLeadingDigit("a numeral needs at least one digit")
        fields = self.__dict__
        fields["digits"] = digits
        fields["sequence"] = sequence


@lru_cache(maxsize=None)
def _quotient_prefix(seq: QuotientSequence, n: int) -> tuple[int, ...]:
    """First n quotients as a tuple (cached, grown by doubling)."""
    if n <= 16:
        return tuple(seq.quotient(i) for i in range(n))
    half = _quotient_prefix(seq, n // 2)
    return half + tuple(seq.quotient(i) for i in range(n // 2, n))


def base_value(seq: QuotientSequence, k: int) -> int:
    """Place value g_k = d_0 * d_1 * ... * d_{k-1}; g_0 = 1.  Exact."""
    check_int(k, "index")
    if k < 0:
        raise InputOutOfRange(f"negative index {k}")
    g = 1
    for i in range(k):
        g *= seq.quotient(i)
    return g


def to_digits(seq: QuotientSequence, n: int) -> Numeral:
    """Digit vector of n, least significant first, by repeated division.

    Constant bases 2, 8, 10 and 16 use the C formatter instead and fall
    back to the division walk past the str-digit limit.
    """
    if not isinstance(n, int) or n < 1:
        raise NonPositiveInput(f"expected a positive integer, got {n!r}")
    native = seq._native
    if native is not None and native[0] is not None:
        try:
            digits = format(n, native[0]).encode().translate(native[1])[::-1]
            return Numeral(tuple(digits), seq)
        except ValueError:
            pass  # past the str-digit limit: walk
    digits = []
    append = digits.append
    start, cap = 0, 16
    while True:
        for q in _quotient_prefix(seq, cap)[start:]:
            append(n % q)
            n //= q
            if not n:
                return Numeral(tuple(digits), seq)
        start, cap = cap, cap * 2


def from_digits(numeral: Numeral) -> int:
    """Value sum(c_i * g_i) of a validated digit vector."""
    seq = numeral.sequence
    digits = numeral.digits
    if digits[-1] == 0:
        raise ZeroLeadingDigit(f"leading digit of {list(digits)} is zero")
    native = seq._native
    if native is not None:
        try:
            return int(bytes(digits).translate(native[2])[::-1], seq.d)
        except (ValueError, TypeError):
            pass  # a bad digit or the str-digit limit: the walk names it
    cap = 16
    while cap < len(digits):
        cap *= 2
    quots = _quotient_prefix(seq, cap)
    total = 0
    g = 1
    for i, c in enumerate(digits):
        q = quots[i]
        if not 0 <= c < q:
            raise _bad_digit(digits, quots)
        total += c * g
        g *= q
    if type(total) is not int:  # a non-int digit made the sum non-int
        raise _bad_digit(digits, quots)
    return total


def _bad_digit(digits, quots) -> DigitOutOfRange:
    """The error naming the lowest digit that is not an int in range."""
    for i, c in enumerate(digits):
        if not isinstance(c, int):
            return DigitOutOfRange(f"digit {c!r} at position {i} is not an integer")
        if not 0 <= c < quots[i]:
            return DigitOutOfRange(f"digit {c} at position {i} outside [0, {quots[i] - 1}]")
    raise AssertionError("every digit is an int in range")


def digit_count(seq: QuotientSequence, n: int) -> int:
    """Number of digits of n, i.e. k + 1 where g_k <= n < g_{k+1}."""
    return len(to_digits(seq, n).digits)

"""Missing-digit conditions: membership, exact block counts, and counting.

A constraint couples a quotient sequence with an index set I of digit
positions and, for each i in I, a nonempty proper forbidden subset U_i of
[0, d_i - 1].  A positive integer is a member when none of its digits at
constrained positions fall in the forbidden set.  Storage is a default
forbidden set plus sparse per-index overrides, so an "every position"
constraint with one uniform set costs O(1) space.

Members with exactly k+1 digits form the block A_k living in
[g_k, g_{k+1} - 1]; blocks are counted exactly by splitting off the
leading digit (which ranges over [1, d_k - 1]).

Every pass reads one row per digit position, (d_i, U_i, allowed, leading):
the quotient, the forbidden set (empty when i is unconstrained), and the
numbers of allowed digits in [0, d_i - 1] and of allowed leading digits in
[1, d_i - 1].  ``_row`` is the only code that computes them.  Each
constraint caches its rows privately, so a position is validated once per
constraint, not once per call; the cache keeps the quotients up to the
farthest position any call has reached.
"""

from __future__ import annotations

from itertools import count
from typing import Iterator, Mapping

from . import indexsets
from ._record import record
from .errors import (
    BitOutOfRange,
    BudgetExceeded,
    DigitOutOfRange,
    EmptyForbiddenSet,
    ForbiddenSetNotProper,
    InputOutOfRange,
    NonPositiveInput,
    OverrideOutsideIndexSet,
    check_int,
)
from .gadic import QuotientSequence, constant, to_digits
from .indexsets import ExplicitIndices, IndexSet

FINITE = "finite"
INFINITE = "infinite"

# Indices checked eagerly at construction; later positions are validated
# when first touched.
_VALIDATION_HORIZON = 64

# U_i of every unconstrained row; one shared object, since an empty
# frozenset is not interned and costs 216 bytes.
_UNCONSTRAINED = frozenset()

_BATCH_CAP = 512  # most entries in the lowest-position table of ``_batches``


@record
class DigitConstraint:
    """Forbidden digit sets U_i at the positions i of an index set I.

    ``overrides`` holds pairs (i, U_i) in increasing i; elsewhere in I,
    U_i is ``default_forbidden``, which may be None only when every member
    of a finite I is overridden.  Construction checks every field, and each
    U_i against d_i up to ``_VALIDATION_HORIZON``; later positions are
    checked when a call first reads them.
    """

    sequence: QuotientSequence
    index_set: IndexSet
    default_forbidden: frozenset[int] | None
    overrides: tuple[tuple[int, frozenset[int]], ...] = ()

    def __post_init__(self):
        seq, index_set = self.sequence, self.index_set
        if not isinstance(seq, QuotientSequence):
            raise InputOutOfRange(f"constraint needs a quotient sequence, got {seq!r}")
        if not isinstance(index_set, IndexSet):
            raise InputOutOfRange(f"constraint needs an index set, got {index_set!r}")
        if self.default_forbidden is not None:
            _check_digits(self.default_forbidden, "default forbidden set")
        if type(self.overrides) is not tuple:
            raise InputOutOfRange(f"overrides must be a tuple of pairs, got {self.overrides!r}")
        last = None
        for pair in self.overrides:
            if type(pair) is not tuple or len(pair) != 2:
                raise InputOutOfRange(f"override must be a (position, set) pair, got {pair!r}")
            i, s = pair
            check_int(i, "override position")
            if last is not None and i <= last:
                raise InputOutOfRange(f"override positions must increase strictly, got {i} after {last}")
            last = i
            if not index_set.contains(i):
                raise OverrideOutsideIndexSet(
                    f"override at position {i} which the index set does not constrain"
                )
            _check_digits(s, f"override at position {i}")
            # Power rule: d_i >= 2**(i+1) > |U| when max(U) < 2**i, so far overrides skip building d_i
            if seq.kind != "power" or max(s).bit_length() > i:
                _check_forbidden(s, seq.quotient(i), i)
        if self.default_forbidden is None:
            # Every override lies in I, so I is fully overridden exactly when
            # it is finite with |I| overrides.
            growth = indexsets.growth(index_set)
            if growth.kind != indexsets.GROWTH_BOUNDED or growth.limit != len(self.overrides):
                raise EmptyForbiddenSet(
                    "no default forbidden set and the index set is not fully overridden"
                )
        # Rows of the positions read so far (see ``rows``), added only when
        # a call first reaches a position, so that is when it is validated.
        # Not a field: equality, hash and repr ignore it.
        object.__setattr__(self, "_rows", ())
        # Eager sweep of small positions; catches defaults that are full or out
        # of range wherever that is decidable up front.
        rows(self, _VALIDATION_HORIZON + 1)

    def forbidden_at(self, i: int) -> frozenset[int] | None:
        """Forbidden set at position i, or None when i is unconstrained."""
        if not self.index_set.contains(i):
            return None
        for idx, s in self.overrides:
            if idx == i:
                return _check_forbidden(s, self.sequence.quotient(i), i)
        return _check_forbidden(self.default_forbidden, self.sequence.quotient(i), i)


def _check_digits(s, what: str) -> None:
    """Raise unless s is a nonempty frozenset of nonnegative ints."""
    if not isinstance(s, frozenset):
        raise InputOutOfRange(f"{what} must be a frozenset, got {s!r}")
    for v in s:
        check_int(v, "forbidden digit", DigitOutOfRange)
    if not s:
        raise EmptyForbiddenSet(f"{what} is empty")
    if min(s) < 0:
        raise DigitOutOfRange(f"forbidden digits must be nonnegative, got {min(s)}")


def _check_forbidden(s: frozenset[int], d_i: int, i: int) -> frozenset[int]:
    if max(s) >= d_i:
        raise DigitOutOfRange(
            f"forbidden digit {max(s)} at position {i} outside [0, {d_i - 1}]"
        )
    if len(s) >= d_i:
        raise ForbiddenSetNotProper(
            f"forbidden set at position {i} covers all of [0, {d_i - 1}]"
        )
    return s


def make_constraint(
    seq: QuotientSequence,
    index_set: IndexSet,
    default: frozenset[int] | set[int] | list[int] | None = None,
    overrides: Mapping[int, set[int] | frozenset[int] | list[int]] | None = None,
) -> DigitConstraint:
    """A digit constraint from sets or lists and a mapping of overrides; an
    empty default becomes None.  The record checks the rest."""
    over = tuple((i, frozenset(s)) for i, s in sorted((overrides or {}).items()))
    return DigitConstraint(seq, index_set, frozenset(default) if default else None, over)


def fixed_bits(bits: Mapping[int, int]) -> DigitConstraint:
    """Binary constraint pinning digit i to bits[i] at every given position."""
    if not bits:
        raise BitOutOfRange("fixed-bits map must be nonempty")
    for i, v in bits.items():
        check_int(i, "bit position", BitOutOfRange)
        check_int(v, f"bit value at position {i}", BitOutOfRange)
        if i < 0:
            raise BitOutOfRange(f"bit position {i} is negative")
        if v not in (0, 1):
            raise BitOutOfRange(f"bit value at position {i} must be 0 or 1, got {v}")
    index_set = ExplicitIndices(frozenset(bits))
    overrides = {i: {1 - v} for i, v in bits.items()}
    return make_constraint(constant(2), index_set, default=None, overrides=overrides)


def _row(constraint: DigitConstraint, i: int) -> tuple[int, frozenset[int], int, int]:
    """(d_i, U_i, allowed, leading) at position i, validating U_i."""
    d = constraint.sequence.quotient(i)
    u = constraint.forbidden_at(i) or _UNCONSTRAINED
    allowed = d - len(u)
    # With 0 forbidden the two counts are one object, not two big integers.
    return d, u, allowed, allowed if 0 in u else allowed - 1


def rows(constraint: DigitConstraint, k: int) -> tuple:
    """The cached rows of positions 0, 1, ..., at least k of them.

    New rows go into a new tuple that replaces the old one, never appended
    in place: threads that grow the rows at once each publish a correct
    prefix.
    """
    have = constraint._rows
    if len(have) < k:
        have += tuple(_row(constraint, i) for i in range(len(have), k))
        object.__setattr__(constraint, "_rows", have)
    return have


def is_member(constraint: DigitConstraint, n: int) -> bool:
    """Whether every constrained digit of n avoids its forbidden set."""
    if not isinstance(n, int) or n < 1:
        raise NonPositiveInput(f"membership is defined for positive integers, got {n!r}")
    have = constraint._rows
    for d, u, _, _ in have:
        n, c = divmod(n, d)
        if c in u:
            return False
        if not n:
            return True
    # n reaches past every row built so far: add rows one position at a
    # time, up to the first that decides, and publish them as ``rows`` does.
    new = []
    try:
        for i in count(len(have)):
            d, u, _, _ = row = _row(constraint, i)
            new.append(row)
            n, c = divmod(n, d)
            if c in u:
                return False
            if not n:
                return True
    finally:
        object.__setattr__(constraint, "_rows", have + tuple(new))


@record
class BlockCount:
    """Exact size of block A_k plus the two-sided product bound."""

    k: int
    exact: int
    product_bound: int
    empty: bool


def block_count_exact(constraint: DigitConstraint, k: int) -> BlockCount:
    """|A_k| by direct digit counting, leading digit split off exactly.

    ``product_bound`` is the plain product of per-position allowed digit
    counts over positions 0..k; the exact count always lies in
    [product_bound / 2, product_bound] for nonempty blocks.
    """
    check_int(k, "block index")
    if k < 0:
        raise InputOutOfRange(f"negative block index {k}")
    rs = rows(constraint, k + 1)
    below = 1
    for _, _, allowed, _ in rs[:k]:
        below *= allowed
    _, _, allowed, leading = rs[k]
    return BlockCount(k, below * leading, below * allowed, empty=leading == 0)


def count_upto(constraint: DigitConstraint, n: int) -> int:
    """Number of members <= n, in one least-significant-first pass.

    Members with fewer digits than n are counted block by block.  Within
    n's own block, ``upto`` counts the allowed digit strings on the
    positions seen so far whose value is at most n's low part there.
    """
    check_int(n, "count point", NonPositiveInput)
    if n < 0:
        raise NonPositiveInput(f"count is defined for n >= 0, got {n}")
    if n == 0:
        return 0
    digits = to_digits(constraint.sequence, n).digits
    top = len(digits) - 1
    shorter = 0
    upto = 1
    below = 1  # allowed digit strings on the positions seen so far
    for i, ((_, u, allowed, leading), c) in enumerate(zip(rows(constraint, top + 1), digits)):
        low = 1 if i == top else 0
        smaller = c - low - sum(1 for f in u if low <= f < c)
        upto = smaller * below + (0 if c in u else upto)
        if i < top:
            shorter += below * leading
        below *= allowed
    return shorter + upto


def _batches(constraint: DigitConstraint, k: int) -> Iterator[list[int]]:
    """The members of A_k in increasing order, as consecutive sorted lists.

    The lowest positions, as many as fit ``_BATCH_CAP``, give a sorted table
    of their allowed values; each value of an odometer over the others plus
    the table is one list.  State is O(k + _BATCH_CAP), not O(d_k).
    """
    rs = rows(constraint, k + 1)[: k + 1]
    _, u_top, _, leading = rs[k]
    if leading == 0:
        return
    places = [1]
    for d, _, _, _ in rs[:k]:
        places.append(places[-1] * d)
    table = [0]
    low = 0
    while low < k and len(table) * rs[low][2] <= _BATCH_CAP:
        d, u, _, _ = rs[low]
        table = [c * places[low] + t for c in range(d) if c not in u for t in table]
        low += 1
    # An odometer over the allowed digits of positions low..k, position low
    # turning fastest, visits their values in increasing order.
    lowest = [next(c for c in count() if c not in u) for _, u, _, _ in rs[:k]]
    digits = lowest + [next(c for c in count(1) if c not in u_top)]
    value = sum(c * g for c, g in zip(digits[low:], places[low:]))
    while True:
        yield list(map(value.__add__, table))
        for i in range(low, k + 1):
            d, u, _, _ = rs[i]
            c = digits[i] + 1
            while c in u:
                c += 1
            if c < d:
                value += (c - digits[i]) * places[i]
                digits[i] = c
                break
            if i == k:
                return
            value -= (digits[i] - lowest[i]) * places[i]
            digits[i] = lowest[i]


def enumerate_block(constraint: DigitConstraint, k: int, budget: int) -> Iterator[int]:
    """Yield the members of A_k in increasing order, one by one from ``_batches``.

    Raises BudgetExceeded after ``budget`` elements when more remain; the
    exception's ``produced`` field records how many were yielded.
    """
    check_int(k, "block index")
    check_int(budget, "budget")
    if k < 0:
        raise InputOutOfRange(f"negative block index {k}")
    if budget < 0:
        raise InputOutOfRange(f"budget must be nonnegative, got {budget}")
    left = budget
    for batch in _batches(constraint, k):
        if len(batch) > left:
            yield from batch[:left]
            raise BudgetExceeded(f"block {k} exceeds the enumeration budget of {budget}", budget)
        left -= len(batch)
        yield from batch


def is_finite_set(constraint: DigitConstraint) -> str:
    """Certify whether the member set is finite.

    Finite exactly when the index set is cofinite and, beyond all
    overrides, the default forbids every nonzero digit.  The closed rule
    algebra decides every combination.
    """
    if not indexsets.is_cofinite(constraint.index_set):
        # Infinitely many unconstrained leading positions, each block there
        # nonempty, so the set is infinite.
        return INFINITE
    # A cofinite I is infinite, so the constraint has a default.
    default = constraint.default_forbidden
    seq = constraint.sequence
    if seq.kind in ("power", "factorial"):
        return INFINITE
    if seq.kind == "constant":
        tail_quotients = {seq.d}
    elif seq.extend == "repeat-last":
        tail_quotients = {seq.values[-1]}
    else:
        tail_quotients = set(seq.values)
    if all(default == frozenset(range(1, d)) for d in tail_quotients):
        return FINITE
    return INFINITE

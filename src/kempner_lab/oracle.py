"""Brute-force reference paths used to cross-check the fast machinery.

Everything here re-derives results from the raw definition: each integer
is decoded independently by repeated division and filtered digit by
digit.  Nothing calls the block-counting, digit-scanning, or enumeration
code, so agreement between the two sides is meaningful evidence.  Speed
is explicitly not a goal; a hard range cap keeps runs bounded.

A claimed bracket [lo, hi] on a block's reciprocal sum S is checked
against the oracle's own member list.  The block's n sorted members
m_1 < ... < m_n give n/m_n <= S <= n/m_1, so a bracket containing that
interval contains S: an exact proof that costs two small fractions.
Only when the interval does not decide is S summed exactly.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from ._record import record
from .constraints import DigitConstraint
from .errors import RangeTooLarge, check_int

HARD_CAP = 10**7


@record
class OracleReport:
    lo: int
    hi: int
    members: int
    total: Fraction
    checksum: str


def _position_table(constraint: DigitConstraint, hi: int) -> list[tuple[int, frozenset[int] | tuple]]:
    """(quotient, forbidden set) per digit position, straight from the
    definitions, wide enough to decode hi; () stands for an unconstrained
    position."""
    seq = constraint.sequence
    table = []
    n = hi
    i = 0
    while n:
        q = seq.quotient(i)
        table.append((q, constraint.forbidden_at(i) or ()))
        n //= q
        i += 1
    return table


def oracle_members(constraint: DigitConstraint, lo: int, hi: int) -> list[int]:
    """All members in [lo, hi], each checked independently."""
    check_int(lo, "oracle range start")
    check_int(hi, "oracle range end")
    if not 1 <= lo <= hi or hi > HARD_CAP:
        raise RangeTooLarge(
            f"oracle range must satisfy 1 <= lo <= hi <= {HARD_CAP}, got [{lo}, {hi}]"
        )
    table = _position_table(constraint, hi)
    out = []
    append = out.append
    for n in range(lo, hi + 1):
        m = n
        for q, forbidden in table:
            if m % q in forbidden:
                break
            m //= q
            if not m:
                append(n)
                break
    return out


def _half_sum(members: list[int], lo: int, hi: int) -> Fraction:
    if hi - lo <= 64:
        # num/den in plain ints, reduced once: each Fraction + would take a gcd.
        num, den = 0, 1
        for a in members[lo:hi]:
            num, den = num * a + den, den * a
        return Fraction(num, den)
    mid = (lo + hi) // 2
    return _half_sum(members, lo, mid) + _half_sum(members, mid, hi)


def oracle_sum(constraint: DigitConstraint, lo: int, hi: int) -> Fraction:
    """Exact reciprocal sum over the members in [lo, hi]."""
    members = oracle_members(constraint, lo, hi)
    return _half_sum(members, 0, len(members))


def oracle_report(constraint: DigitConstraint, lo: int, hi: int) -> OracleReport:
    """Members, exact sum, and a checksum of the sorted member list."""
    import hashlib  # here, not at module level: it maps OpenSSL into every process

    members = oracle_members(constraint, lo, hi)
    digest = hashlib.sha256(",".join(map(str, members)).encode()).hexdigest()
    return OracleReport(
        lo=lo,
        hi=hi,
        members=len(members),
        total=_half_sum(members, 0, len(members)),
        checksum=digest,
    )


def _sum_within(members: list[int], i: int, j: int, lo, hi) -> bool:
    """Whether lo <= sum of 1/m over members[i:j] <= hi (see the module
    docstring); the exact sum is taken only when the interval cannot decide."""
    n = j - i
    if n and lo <= Fraction(n, members[j - 1]) and Fraction(n, members[i]) <= hi:
        return True
    return lo <= _half_sum(members, i, j) <= hi


def block_mismatches(members: list[int], blocks) -> list[str]:
    """Check claimed per-block counts and reciprocal-sum brackets.

    ``members`` is the sorted oracle member list over a range covering
    every block.  Each block is plain data with fields ``k``, ``g_lo``,
    ``g_hi``, ``count``, ``bracket_lo`` and ``bracket_hi`` (a BlockReport
    fits), the block being the integers in [g_lo, g_hi); its sum is
    bounded, or else taken exactly, from the member list.  Returns one
    message per disagreement.
    """
    out = []
    for b in blocks:
        i, j = bisect_left(members, b.g_lo), bisect_left(members, b.g_hi)
        if b.count != j - i:
            out.append(f"block {b.k}: exact count {b.count}, oracle {j - i}")
        if not _sum_within(members, i, j, b.bracket_lo, b.bracket_hi):
            out.append(f"block {b.k}: oracle sum outside bracket")
    return out

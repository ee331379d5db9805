"""Exact summation of long streams of rationals.

Naive left-to-right accumulation of n unit fractions is quadratic in the
size of the growing denominator.  A binary-counter reduction keeps the
additions balanced (like merge sort), and each merge uses the classic
gcd-of-denominators form so intermediate results stay reduced without a
gcd on full products.  Reciprocals enter in runs of ``_RUN``, each summed
in plain ints and reduced once; the reduced result needs no second gcd.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd
from typing import Iterable

_RUN = 32


def add_reduced(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """a/b + c/d for reduced inputs; returns a reduced (num, den)."""
    g = gcd(b, d)
    if g == 1:
        return a * d + c * b, b * d
    b_r = b // g
    d_r = d // g
    num = a * d_r + c * b_r
    den = b_r * d
    g2 = gcd(num, g)
    if g2 > 1:
        num //= g2
        den //= g2
    return num, den


def _merge(pairs: Iterable[tuple[int, int]]) -> Fraction:
    """Exact sum of reduced (num, den) pairs, merged like a binary counter."""
    stack: list[tuple[int, int, int]] = []  # (level, num, den)
    for num, den in pairs:
        level = 0
        while stack and stack[-1][0] == level:
            _, n2, d2 = stack.pop()
            num, den = add_reduced(num, den, n2, d2)
            level += 1
        stack.append((level, num, den))
    num, den = 0, 1
    while stack:
        _, n2, d2 = stack.pop()
        num, den = add_reduced(num, den, n2, d2)
    # A zero term leaves den 0, if no gcd failed on it; den < 0 carries the sign.
    if not den:
        raise ZeroDivisionError("reciprocal of zero in an exact sum")
    out = object.__new__(Fraction)
    out._numerator, out._denominator = (-num, -den) if den < 0 else (num, den)
    return out


def _runs(values: Iterable[int]):
    it = iter(values)
    while run := list(islice(it, _RUN)):
        num, den = 0, 1
        for v in run:
            num, den = num * v + den, den * v
        g = gcd(num, den)
        yield num // g, den // g


def sum_reciprocals(values: Iterable[int]) -> Fraction:
    """Exact sum of 1/v over the stream, via balanced pairwise merging."""
    return _merge(_runs(values))


def sum_fractions(values: Iterable[Fraction]) -> Fraction:
    """Exact sum of a stream of fractions, same balanced scheme."""
    return _merge((f.numerator, f.denominator) for f in values)

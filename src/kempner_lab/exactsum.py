"""Exact summation of long streams of rationals.

Naive left-to-right accumulation of n unit fractions is quadratic in the
size of the growing denominator.  A binary-counter reduction keeps the
additions balanced (like merge sort), and each merge uses the classic
gcd-of-denominators form so intermediate results stay reduced without a
gcd on full products.  Reciprocals enter in runs of ``_RUN``, each summed
in plain ints and reduced once; the reduced result needs no second gcd.

A dense list of reciprocals avoids even the gcds of the top merges.  Let
N be its largest term and B = isqrt(N).  A term m with a prime factor
p > B is p*r with r <= N // (B+1) = R < p, so p divides m once and no
other large prime does.  With L = lcm(1..R), the terms that p divides
sum to u/(p*L), where u = sum of L/r over them.  A prime that divides u
leaves an integer; the other fractions u/p have distinct prime
denominators, so they merge without a gcd, as (a*d + c*b)/(b*d), into
A/P.  The remaining terms are B-smooth, and the general merge sums them
to s/t with a small t (778 bits at N = 10**5).  The total is
(s*L*P + A*t) / (t*L*P).  Modulo a prime p of P its numerator is
u*(P/p)*t, which is not 0, so one gcd against t*L reduces it fully.

The split takes a list of at least ``_DENSE_MIN`` distinct ints in
[1, ``_DENSE_SPAN`` * count]; any other input goes to the general merge.
It holds two bytearrays of N + 1 bytes, at most 16 bytes per term, less
than the list's own pointer and int object per term.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, islice
from math import gcd, isqrt, lcm
from typing import Iterable

_RUN = 32
_DENSE_MIN = 8192  # fewer terms than this sum faster in the general merge
_DENSE_SPAN = 8  # the split's largest term is at most this many times its count


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


def from_coprime(num: int, den: int) -> Fraction:
    """num/den, for coprime num and den > 0, as a Fraction without a gcd."""
    out = object.__new__(Fraction)
    out._numerator, out._denominator = num, den
    return out


def _add_coprime(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """a/b + c/d for reduced inputs with coprime b and d; reduced."""
    return a * d + c * b, b * d


def _merge(pairs: Iterable[tuple[int, int]], add=None) -> Fraction:
    """Exact sum of reduced (num, den) pairs, merged like a binary counter
    with ``add`` (by default ``add_reduced``, looked up at each call)."""
    if add is None:
        add = add_reduced
    stack: list[tuple[int, int, int]] = []  # (level, num, den)
    for num, den in pairs:
        level = 0
        while stack and stack[-1][0] == level:
            _, n2, d2 = stack.pop()
            num, den = add(num, den, n2, d2)
            level += 1
        stack.append((level, num, den))
    num, den = 0, 1
    while stack:
        _, n2, d2 = stack.pop()
        num, den = add(num, den, n2, d2)
    # A zero term leaves den 0, if no gcd failed on it; den < 0 carries the sign.
    if not den:
        raise ZeroDivisionError("reciprocal of zero in an exact sum")
    return from_coprime(-num, -den) if den < 0 else from_coprime(num, den)


def _runs(values: Iterable[int]):
    it = iter(values)
    while run := list(islice(it, _RUN)):
        num, den = 0, 1
        for v in run:
            num, den = num * v + den, den * v
        g = gcd(num, den)
        yield num // g, den // g


def _dense_marks(values: list) -> bytearray | None:
    """mark[v] = 1 for each v, if the values are distinct ints in
    [1, _DENSE_SPAN * len(values)]; otherwise None."""
    try:
        if min(values) < 1 or (n := max(values)) > _DENSE_SPAN * len(values):
            return None
        mark = bytearray(n + 1)
        for v in values:
            mark[v] = 1
    except TypeError:  # a term that is no int: the general merge raises as it always has
        return None
    return mark if mark.count(1) == len(values) else None


def _split_sum(mark: bytearray) -> Fraction:
    """Exact sum of 1/m over the marked m <= N = len(mark) - 1, split at
    the primes above B = isqrt(N).  Leaves only the B-smooth terms marked."""
    n = len(mark) - 1
    b = isqrt(n)
    r_max = n // (b + 1)
    big_l = lcm(*range(1, r_max + 1))
    inv = [big_l // r for r in range(1, r_max + 1)]  # L/r
    prime = bytearray(b"\1") * (n + 1)
    for p in range(2, b + 1):
        if prime[p]:
            prime[p * p :: p] = bytes(len(range(p * p, n + 1, p)))

    def large_terms():  # u/p per prime p > b; clears the multiples of p
        for p in compress(range(b + 1, n + 1), islice(prime, b + 1, None)):
            flags = mark[p::p]
            u = sum(compress(inv, flags))
            if u:
                mark[p::p] = bytes(len(flags))
                if u % p:
                    yield u, p
                else:  # an integer part, which any denominator is coprime to
                    yield u // p, 1

    large = _merge(large_terms(), _add_coprime)
    small = _merge(_runs(compress(range(n + 1), mark)))
    low = small.denominator * big_l
    top = small.numerator * big_l * large.denominator + large.numerator * small.denominator
    g = gcd(top, low)
    return from_coprime(top // g, low // g * large.denominator)


def sum_reciprocals(values: Iterable[int]) -> Fraction:
    """Exact sum of 1/v over the stream: split at the large primes when the
    values are a dense list (see the module notes), else merged pairwise."""
    if type(values) is list and len(values) >= _DENSE_MIN:
        mark = _dense_marks(values)
        if mark is not None:
            return _split_sum(mark)
    return _merge(_runs(values))


def sum_fractions(values: Iterable[Fraction]) -> Fraction:
    """Exact sum of a stream of fractions, same balanced scheme."""
    return _merge((f.numerator, f.denominator) for f in values)

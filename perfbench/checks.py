"""Reference computations the benchmark checks the program against.

Nothing here imports kempner_lab.  Each function re-derives a fact from
the definitions or from a closed form, so agreement with the program is
evidence and not a comparison with a stored copy of its output.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction

# Schmelzer & Baillie, "Summing a curious, slowly convergent series"
# (Amer. Math. Monthly 115, 2008): the sum of 1/n over n with no digit 9.
KEMPNER10_TOTAL = Fraction("22.92067661926415034816")
KEMPNER10_CEILING = Fraction("22.9206766192641503")

# Closed-form quotient rules d_i for the four rule families.
QUOTIENTS = {
    "constant-10": lambda i: 10,
    "constant-2": lambda i: 2,
    "power-2": lambda i: 2 ** (i + 1),
    "factorial": lambda i: i + 2,
}


class Spec:
    """A missing-digit set written down independently of the program:
    quotient d_i, and the forbidden digits at i (None when unconstrained)."""

    def __init__(self, quotient, forbidden):
        self.quotient = quotient
        self.forbidden = forbidden

    def is_member(self, n: int) -> bool:
        return all(
            (f := self.forbidden(i)) is None or c not in f
            for i, c in enumerate(digits(n, self.quotient))
        )


def is_power_of(i: int, b: int) -> bool:
    """Membership in {1, b, b**2, ...}."""
    if i < 1:
        return False
    while i % b == 0:
        i //= b
    return i == 1


def digits(n: int, quotient) -> tuple[int, ...]:
    """Mixed-radix digits of n >= 1, least significant first."""
    out = []
    i = 0
    while n:
        n, c = divmod(n, quotient(i))
        out.append(c)
        i += 1
    return tuple(out)


def value(ds, quotient) -> int:
    total, g = 0, 1
    for i, c in enumerate(ds):
        total += c * g
        g *= quotient(i)
    return total


def place_values(quotient, k: int) -> list[int]:
    """g_0 .. g_k."""
    out = [1]
    for i in range(k):
        out.append(out[-1] * quotient(i))
    return out


def count_avoiding(n: int, g: int, forbidden: frozenset[int]) -> int:
    """Members of [1, n] whose base-g digits all avoid ``forbidden``.

    One scan over the digits of n, most significant first; linear in the
    number of digits apart from the big-integer products.
    """
    if n < 1:
        return 0
    ds = digits(n, lambda i: g)[::-1]
    length = len(ds)
    free = g - len(forbidden)
    lead = (g - 1) - len(forbidden - {0})
    powers = [1]
    for _ in range(length):
        powers.append(powers[-1] * free)
    total = sum(lead * powers[m - 1] for m in range(1, length))
    for j, c in enumerate(ds):
        low = 1 if j == 0 else 0
        below = sum(1 for x in range(low, c) if x not in forbidden)
        total += below * powers[length - 1 - j]
        if c in forbidden:
            return total
    return total + 1


def members_avoiding(n: int, g: int, forbidden: frozenset[int]) -> list[int]:
    """The members counted by count_avoiding, ascending, by brute force."""
    return [a for a in range(1, n + 1) if not forbidden.intersection(digits(a, lambda i: g))]


def first_block_members(quotient, forbidden, k: int, count: int) -> list[int]:
    """The ``count`` smallest integers with exactly k+1 digits whose digits
    avoid ``forbidden(i)`` at every position, by a mixed-radix odometer
    over the allowed digits (position 0 turns fastest)."""
    gs = place_values(quotient, k)
    allowed = []
    for i in range(k + 1):
        bad = forbidden(i) or frozenset()
        low = 1 if i == k else 0
        allowed.append([c for c in range(low, min(quotient(i), low + count + len(bad) + 1)) if c not in bad])
    pos = [0] * (k + 1)
    out = []
    while len(out) < count:
        out.append(sum(allowed[i][pos[i]] * gs[i] for i in range(k + 1)))
        i = 0
        while i <= k:
            pos[i] += 1
            if pos[i] < len(allowed[i]):
                break
            pos[i] = 0
            i += 1
        if i > k:
            break
    return out


def big_int(text: str) -> int:
    """int(text) for decimal strings beyond the interpreter's default
    int-to-str digit limit; the limit is restored afterwards, since the
    program's own behaviour under the default limit is being measured."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return int(text)
    finally:
        sys.set_int_max_str_digits(limit)


def close_to_fsum(total: Fraction, values) -> bool:
    """The exact sum agrees with the float reference to 1e-12 relative."""
    ref = math.fsum(1.0 / v for v in values)
    return math.isclose(float(total), ref, rel_tol=1e-12, abs_tol=0.0)


# A Mersenne prime above every integer the benchmark sums, so it divides
# none of them and none of the denominators of their reciprocal sums.
SUM_MODULUS = 2**521 - 1


def reciprocal_sum_mod(values) -> int:
    """Sum of 1/v over ``values`` modulo SUM_MODULUS, from modular inverses."""
    p = SUM_MODULUS
    return sum(pow(v, -1, p) for v in values) % p


def fraction_mod(f: Fraction) -> int:
    """f modulo SUM_MODULUS: an exact check of a sum that floats cannot
    resolve, independent of how the program reduced it."""
    p = SUM_MODULUS
    return f.numerator * pow(f.denominator, -1, p) % p


@functools.lru_cache(maxsize=None)
def convergence_holds(d: int, delta: Fraction, c: int, k: int) -> bool:
    """count(k) = c >= (1+delta) ln k / ln(d/(d-1)), in exact integers:
    d**(q*c) >= k**(p+q) * (d-1)**(q*c) for delta = p/q."""
    p, q = delta.numerator, delta.denominator
    return d ** (q * c) >= k ** (p + q) * (d - 1) ** (q * c)


def arithmetic_count(first: int, step: int, k: int) -> int:
    """|{first, first+step, ...} ∩ [0, k]|."""
    return 0 if k < first else (k - first) // step + 1


def power_all_i0(base: int, size: int) -> int:
    """Smallest i0 with sum over i >= i0 of size / base**(i+1) < 1/2; that
    tail is size / (base**i0 * (base-1))."""
    i0 = 0
    while Fraction(size, base**i0 * (base - 1)) >= Fraction(1, 2):
        i0 += 1
    return i0


def ratio_delta(quotient, forbidden, i0: int) -> Fraction:
    """(1/2) * prod over constrained i < i0 of (1 - |U_i| / d_i)."""
    prod = Fraction(1)
    for i in range(i0):
        f = forbidden(i)
        if f is not None:
            prod *= 1 - Fraction(len(f), quotient(i))
    return prod / 2

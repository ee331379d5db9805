"""Reciprocal sums over missing-digit sets and their classification.

Per-block reciprocal sums are bracketed exactly: every member of block k
lies in [g_k, g_{k+1} - 1], so the block sum lies between |A_k|/g_{k+1}
and |A_k|/g_k.  Brackets and tail estimates come from int numerators over
the place values and a few gcds, not from running Fraction sums.  Partial
sums are exact rationals computed by block enumeration under a budget.

Convergence or divergence verdicts come only from symbolically certified
hypotheses over the closed rule algebra.  Two tests exist: for sequences
with a uniform quotient bound d, the counting function of constrained
positions is compared against logarithmic thresholds; for unbounded
quotients, divergence follows when the series of forbidden-digit ratios
converges.  The ratio-tail certificate is also checked against an exact
partial sum of its first terms; the bounded-quotient thresholds carry no
such check.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import islice, takewhile

from . import indexsets
from ._record import record
from .constraints import (
    FINITE,
    DigitConstraint,
    _batches,
    count_upto,
    is_finite_set,
    rows,
)
from .errors import (
    InputOutOfRange,
    MissingBoundHint,
    NonPositiveInput,
    SetIsFinite,
    check_int,
)
from .exactsum import from_coprime, sum_fractions, sum_reciprocals
from .indexsets import GROWTH_BOUNDED, GROWTH_LINEAR, GROWTH_LOG, Growth

DEFAULT_BUDGET = 10**6
DEFAULT_K_WINDOW = 10_000

CONVERGENT = "convergent"
DIVERGENT = "divergent"
FINITE_SET = "finite-set"
INCONCLUSIVE = "inconclusive"

RULE_INDEX_GROWTH = "bounded-quotients:index-count-dominates-threshold"
RULE_INDEX_SPARSITY = "bounded-quotients:index-count-below-threshold"
RULE_RATIO_TAIL = "unbounded-quotients:forbidden-ratio-tail-converges"
RULE_FINITE = "finite-member-set"

# Largest certifying value is reported when the caller does not pin one.
DELTA_GRID = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 10), Fraction(1, 20))


@record
class BlockReport:
    """Exact two-sided bracket on one block's reciprocal sum."""

    k: int
    g_lo: int
    g_hi: int
    count: int
    bracket_lo: Fraction
    bracket_hi: Fraction
    cumulative_lo: Fraction
    cumulative_hi: Fraction


@record
class Margin:
    """Numbers backing a verdict: the delta used and the index past which
    the certified inequality holds.  Only the ratio-tail test fills
    ``value`` (the certified tail, exact) and ``window`` (the last
    position its spot-check may read)."""

    delta: Fraction | None = None
    threshold_label: str = ""
    threshold_index: int | None = None
    value: object = None
    window: int | None = None


@record
class Classification:
    verdict: str
    rule_fired: str | None = None
    margin: Margin | None = None
    notes: tuple[str, ...] = ()


@record
class PartialSum:
    value: Fraction
    truncated: bool
    terms: int


def block_reports(constraint: DigitConstraint, max_k: int) -> list[BlockReport]:
    """BlockReports for k = 0..max_k with running cumulative brackets, in
    ints: below/g_k kept reduced as p/q (gcds with small operands only) and
    the cumulative brackets as numerators over g_{k+1}, one gcd each."""
    check_int(max_k, "max_k")
    if max_k < 0:
        raise InputOutOfRange(f"max_k must be nonnegative, got {max_k}")
    gcd = math.gcd
    out = []
    below = g = p = q = 1
    cum_lo = cum_hi = 0
    for k, (d, _, allowed, leading) in enumerate(rows(constraint, max_k + 1)[: max_k + 1]):
        g_hi = g * d
        n = below * leading
        h = gcd(leading, q)
        hi = (leading // h * p, q // h)  # n/g_k = leading * p/q
        h = gcd(hi[0], d)
        lo = (hi[0] // h, hi[1] * (d // h))
        cum_lo = cum_lo * d + n
        cum_hi = (cum_hi + n) * d
        a, b = gcd(cum_lo, g_hi), gcd(cum_hi, g_hi)
        out.append(BlockReport(k, g, g_hi, n, from_coprime(*lo), from_coprime(*hi),
                               from_coprime(cum_lo // a, g_hi // a), from_coprime(cum_hi // b, g_hi // b)))
        # p/q times allowed/d: q/h keeps no factor of allowed/h; one gcd with d takes the rest
        h = gcd(allowed, q)
        p, q = p * (allowed // h), q // h
        h = gcd(p, d)
        p, q = p // h, q * (d // h)
        below *= allowed
        g = g_hi
    return out


def block_bracket(constraint: DigitConstraint, k: int) -> BlockReport:
    return block_reports(constraint, k)[-1]


def partial_sum_exact(
    constraint: DigitConstraint, n_max: int, budget: int | None = None
) -> PartialSum:
    """Exact sum of 1/a over members a <= n_max.

    At most ``budget`` members are summed.  ``truncated`` is True exactly
    when some member <= n_max was left out; members above n_max never
    count against the budget.
    """
    check_int(n_max, "n_max", NonPositiveInput)
    if n_max < 1:
        raise NonPositiveInput(f"n_max must be >= 1, got {n_max}")
    if budget is None:
        budget = DEFAULT_BUDGET
    check_int(budget, "budget")
    if budget < 0:
        raise InputOutOfRange(f"budget must be nonnegative, got {budget}")
    seq = constraint.sequence
    members: list[int] = []
    k = 0
    g = 1  # g_k
    while g <= n_max and len(members) <= budget:
        for batch in _batches(constraint, k):
            members += batch[: bisect_right(batch, n_max)]
            if batch[-1] > n_max or len(members) > budget:
                break
        g *= seq.quotient(k)
        k += 1
    truncated = len(members) > budget
    del members[budget:]
    return PartialSum(value=sum_reciprocals(members), truncated=truncated, terms=len(members))


def density(constraint: DigitConstraint, n: int) -> Fraction:
    """Member count up to n divided by n, exact."""
    check_int(n, "density point", NonPositiveInput)
    if n < 1:
        raise NonPositiveInput(f"density point must be >= 1, got {n}")
    return Fraction(count_upto(constraint, n), n)


def weierstrass_lower(xs) -> Fraction:
    """1 - sum(x_i): a lower bound for prod(1 - x_i) when all x_i in [0, 1)."""
    total = Fraction(0)
    for x in xs:
        x = Fraction(x)
        if not 0 <= x < 1:
            raise InputOutOfRange(f"factors must lie in [0, 1), got {x}")
        total += x
    return 1 - total


def _ratio_at(constraint: DigitConstraint, i: int) -> Fraction:
    """|U_i| / d_i for a constrained position i."""
    # Random access, not ``rows``: the window check reads sparse far members.
    forbidden = constraint.forbidden_at(i)
    assert forbidden is not None
    return Fraction(len(forbidden), constraint.sequence.quotient(i))


def tail_upper_estimate(constraint: DigitConstraint, k0: int, K: int) -> Fraction:
    """d * sum over k = k0..K of (1 - 1/d)**count(k): dominates the exact
    reciprocal sum over members in [g_k0, g_{K+1} - 1].  Needs the rule's
    uniform quotient bound d."""
    d = constraint.sequence.bound_hint
    if d is None:
        raise MissingBoundHint("upper tail estimate needs a declared quotient bound")
    check_int(k0, "k0")
    check_int(K, "K")
    if not 0 <= k0 <= K:
        raise InputOutOfRange(f"need 0 <= k0 <= K, got k0={k0}, K={K}")
    # One numerator over d**count(K), Horner-summed over the steps of count(k)
    count = constraint.index_set.count
    num, m, power = 0, 0, 1  # power = (d - 1) ** m, with m = count(k)
    for k in range(k0, K + 1):
        step = count(k) - m
        m += step
        power *= (d - 1) ** step
        num = num * d**step + power
    return Fraction(d * num, d**m)


def tail_lower_estimate(constraint: DigitConstraint, k1: int, K: int) -> Fraction:
    """(1/2) * sum over nonempty blocks k = k1..K of the allowed-ratio
    product prod_{i in I, i <= k} (1 - |U_i|/d_i): a certified lower bound
    for the reciprocal sum over those blocks."""
    check_int(k1, "k1")
    check_int(K, "K")
    if not 0 <= k1 <= K:
        raise InputOutOfRange(f"need 0 <= k1 <= K, got k1={k1}, K={K}")
    # The product at k is below/g_{k+1}: one numerator over g_{K+1}
    num, below, g = 0, 1, 1
    for k, (d, _, allowed, leading) in enumerate(rows(constraint, K + 1)[: K + 1]):
        below *= allowed
        g *= d
        num = num * d + (below if k >= k1 and leading else 0)
    return Fraction(num, 2 * g)


# --- bounded-quotient certificates ------------------------------------------


def _delta_candidates(delta) -> tuple[Fraction, ...]:
    if delta is None:
        return DELTA_GRID
    try:
        f = Fraction(str(delta)) if isinstance(delta, float) else Fraction(delta)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputOutOfRange(f"delta must be a rational number, got {delta!r}") from exc
    if f <= 0:
        raise InputOutOfRange(f"delta must be positive, got {f}")
    return (f,)


def _first_k_holding(start: int, holds) -> int:
    """Smallest k >= start with holds(k), given holds is monotone there."""
    k = max(start, 2)
    hi = k
    while not holds(hi):
        hi *= 2
    lo = k
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _certify_convergence(growth: Growth, d: int, delta: Fraction) -> int:
    """Index from which count(k) >= (1+delta) * ln k / ln(d/(d-1)) holds
    under a linear envelope count(k) >= slope * k + offset."""
    coeff = float(1 + delta) / math.log(d / (d - 1))
    a = float(growth.slope)
    c = float(growth.offset)
    # beyond coeff/a the gap (a*k + c) - coeff*ln(k) is increasing
    start = max(2, growth.valid_from, math.ceil(coeff / a))
    return _first_k_holding(start, lambda k: a * k + c >= coeff * math.log(k))


def _certify_divergence(growth: Growth, d: int, delta: Fraction) -> int | None:
    """Index from which count(k) <= (1-delta) * ln k / ln d is certified
    under a bounded or log envelope, or None."""
    if delta >= 1:
        return None
    p, q = delta.numerator, delta.denominator
    if growth.kind == GROWTH_BOUNDED:
        limit = growth.limit
        # limit <= (1-delta) log_d(k)  <=>  k**(q-p) >= d**(limit*q)
        target = d ** (limit * q)
        k1 = _first_k_holding(2, lambda k: k ** (q - p) >= target)
        return max(k1, growth.valid_from, 2)
    b = growth.log_base
    # strict leading-coefficient gap absorbs the +1 in the envelope:
    # ln d < (1-delta) ln b  <=>  d**q < b**(q-p)
    if not d**q < b ** (q - p):
        return None
    ln_b = math.log(b)
    coeff = float(1 - delta) / math.log(d)
    start = max(2, growth.valid_from)
    return _first_k_holding(start, lambda k: math.log(k) / ln_b + 1 <= coeff * math.log(k))


def convergence_by_bounded_quotients(constraint: DigitConstraint, delta=None) -> Classification:
    """Classify via the uniform-bound thresholds on the counting function.

    Convergent when count(k) eventually dominates
    (1+delta) ln k / ln(d/(d-1)); divergent when it eventually stays below
    (1-delta) ln k / ln d.  The growth envelope decides which applies: a
    linear count outgrows any multiple of ln k, so it converges at the
    first candidate delta.  A log envelope log_b k + 1 would converge only
    if ln(d/(d-1)) >= (1+delta) ln b, impossible as d/(d-1) <= 2 <= b, so
    log and bounded envelopes are tested for divergence alone.  The
    boundary regime (count growing like log k at the critical rate) is
    reported inconclusive.
    """
    d = constraint.sequence.bound_hint
    if d is None:
        raise MissingBoundHint("sequence is not declared bounded")
    growth = indexsets.growth(constraint.index_set)
    candidates = _delta_candidates(delta)

    if growth.kind == GROWTH_LINEAR:
        f = candidates[0]
        k0 = _certify_convergence(growth, d, f)
        return Classification(
            verdict=CONVERGENT,
            rule_fired=RULE_INDEX_GROWTH,
            margin=Margin(f, "k0", k0),
            notes=(
                f"count(k) certified >= (1+{f}) ln k / ln({d}/{d - 1}) for all k >= {k0}",
            ),
        )
    for f in candidates:
        k1 = _certify_divergence(growth, d, f)
        if k1 is not None:
            return Classification(
                verdict=DIVERGENT,
                rule_fired=RULE_INDEX_SPARSITY,
                margin=Margin(f, "k1", k1),
                notes=(
                    f"count(k) certified <= (1-{f}) ln k / ln {d} for all k >= {k1}",
                ),
            )
    notes = ["neither threshold certified for delta in " + ", ".join(str(c) for c in candidates)]
    if growth.kind == GROWTH_LOG:
        notes.append(
            "count(k) grows logarithmically at the boundary rate; no verdict is sound here"
        )
    return Classification(verdict=INCONCLUSIVE, notes=tuple(notes))


# --- unbounded-quotient certificate -----------------------------------------


def _ratio_tail_upper(constraint: DigitConstraint, i0: int) -> Fraction:
    """Certified upper bound on sum over i in I, i >= i0 of |U_i|/d_i.

    Under d_i = b**(i+1) with one forbidden-set size, the tail is that size
    times ``indexsets.geometric_weight``, plus the exact override terms; it
    is exact, and it alone settles ties at 1/2.  Index rules without a
    closed form, and factorial quotients, are refined adaptively.
    """
    seq = constraint.sequence
    ix = indexsets.normalize(constraint.index_set)
    default_size = len(constraint.default_forbidden)

    if seq.kind == "power":
        b = seq.base
        weight = indexsets.geometric_weight(ix, b, i0)
        if weight is not None:
            # an override of the default's size adds 0, so its quotient is never built
            terms = (Fraction(len(s) - default_size, seq.quotient(i)) for i, s in constraint.overrides
                     if i >= i0 and len(s) != default_size)
            return default_size * weight + sum(terms, Fraction(0))

        def remainder_past(horizon: int) -> Fraction:
            # every position past the horizon, each term at most u / b**(i+1)
            u = _max_forbidden_size(constraint, horizon)
            return Fraction(u, b ** (horizon + 1) * (b - 1))

    else:  # factorial quotients along a log envelope (see the caller)
        g = indexsets.growth(ix)

        def remainder_past(horizon: int) -> Fraction:
            # constrained positions above the horizon are spaced at least by
            # factor g.log_base, and each term is below size/position
            u = _max_forbidden_size(constraint, horizon)
            return Fraction(u * g.log_base, (horizon + 1) * (g.log_base - 1))

    # No closed form: sum explicit terms along the index set to a growing
    # horizon, closed off by a certified remainder bound.  Refinement stops
    # once the bound drops below 1/2 or the explicit terms alone reach it.
    half = Fraction(1, 2)
    horizon = max(i0, 4)
    for _ in range(64):
        horizon = 2 * horizon + 16
        partial = sum_fractions(
            _ratio_at(constraint, i)
            for i in takewhile(horizon.__ge__, indexsets.iter_members(ix, i0))
        )
        upper = partial + remainder_past(horizon)
        if upper < half or partial >= half:
            break
    return upper


def _max_forbidden_size(constraint: DigitConstraint, beyond: int) -> int:
    sizes = [len(constraint.default_forbidden)]
    sizes += [len(s) for i, s in constraint.overrides if i > beyond]
    return max(sizes)


def divergence_by_unbounded_quotients(constraint: DigitConstraint) -> Classification:
    """Divergence via a convergent series of forbidden-digit ratios.

    When sum over i in I of |U_i|/d_i converges (certified for quotient
    families growing geometrically or faster along I) and the member set
    is infinite, the reciprocal series diverges.  Reports the smallest
    i0 in I whose tail drops below 1/2 and the resulting per-block
    lower-bound constant delta = (1/2) * prod_{i in I, i < i0}(1 - |U_i|/d_i).
    """
    if is_finite_set(constraint) == FINITE:
        raise SetIsFinite("the member set is finite; its reciprocal sum trivially converges")

    g = indexsets.growth(constraint.index_set)
    reason = None
    if g.kind == GROWTH_BOUNDED:
        reason = "the divergence test needs infinitely many constrained positions"
    elif constraint.sequence.bound_hint is not None:
        reason = (
            "forbidden-ratio series diverges: quotients are bounded, so each "
            "ratio is at least 1/d over infinitely many positions"
        )
    elif constraint.sequence.kind == "factorial" and g.kind != GROWTH_LOG:
        reason = (
            "forbidden-ratio series diverges: constrained positions are too "
            "dense for reciprocal-of-index terms to sum finitely"
        )
    if reason is not None:
        return Classification(verdict=INCONCLUSIVE, notes=(reason,))

    # Certified convergent, so the tail tends to 0: the smallest i0 in I
    # whose certified tail bound is below 1/2 exists.
    for i0 in indexsets.iter_members(constraint.index_set):
        tail_value = _ratio_tail_upper(constraint, i0)
        if tail_value < Fraction(1, 2):
            break

    rs = rows(constraint, i0)[:i0]
    delta = Fraction(math.prod(r[2] for r in rs), 2 * math.prod(r[0] for r in rs))

    # window spot-check: explicit partial tail terms can never exceed the
    # certified tail value (terms decay geometrically, so a short prefix of
    # the window carries all the weight worth summing)
    members = indexsets.iter_members(constraint.index_set, i0)
    window_members = list(islice(takewhile(DEFAULT_K_WINDOW.__ge__, members), 64))
    window_sum = sum_fractions(_ratio_at(constraint, i) for i in window_members)
    if window_sum > tail_value:
        raise AssertionError(
            f"tail certificate inconsistent: {len(window_members)} window terms "
            f"sum to more than {tail_value}"
        )

    return Classification(
        verdict=DIVERGENT,
        rule_fired=RULE_RATIO_TAIL,
        margin=Margin(delta, "i0", i0, tail_value, DEFAULT_K_WINDOW),
        notes=(
            f"forbidden-ratio tail from position {i0} is {tail_value} < 1/2; "
            f"per-block reciprocal sums stay above delta = {delta} times each "
            "allowed-ratio product",
            f"window check: {len(window_members)} explicit tail terms sum to no "
            "more than the certified tail",
        ),
    )


def classify(constraint: DigitConstraint, delta=None) -> Classification:
    """Dispatch over the finiteness check and each applicable certified test.

    A finite member set short-circuits: the unbounded-quotient test makes
    that one check, so it runs first.  Otherwise the applicable results are
    read in order: the bounded-quotient thresholds when the rule has a
    bound, then the unbounded-quotient ratio test.  The first verdict
    that is not inconclusive is returned; every attempted hypothesis
    before it that failed is recorded in the notes.
    """
    try:
        unbounded = divergence_by_unbounded_quotients(constraint)
    except SetIsFinite:
        return Classification(
            verdict=FINITE_SET,
            rule_fired=RULE_FINITE,
            notes=("member set is finite: cofinite index set forbids every nonzero digit eventually",),
        )
    attempts = ["finiteness check: member set is infinite"]
    results = []
    if constraint.sequence.bound_hint is None:
        attempts.append("bounded-quotient test skipped: no declared quotient bound")
    else:
        results.append(("bounded-quotient test", convergence_by_bounded_quotients(constraint, delta)))
    results.append(("unbounded-quotient test", unbounded))
    for name, result in results:
        if result.verdict != INCONCLUSIVE:
            return Classification(result.verdict, result.rule_fired, result.margin, tuple(attempts) + result.notes)
        attempts.extend(f"{name}: {note}" for note in result.notes)
    return Classification(verdict=INCONCLUSIVE, notes=tuple(attempts))

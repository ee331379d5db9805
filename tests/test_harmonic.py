import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kempner_lab as kl
from kempner_lab import harmonic, indexsets
from kempner_lab.errors import (
    InputOutOfRange,
    MissingBoundHint,
    NonPositiveInput,
    SetIsFinite,
)
from kempner_lab.exactsum import sum_reciprocals
from kempner_lab.presets import preset_names
from conftest import constraint_from_preset


def _enumerated_block_sum(constraint, k, budget=10**6):
    return sum_reciprocals(kl.enumerate_block(constraint, k, budget))


def test_block_bracket_examples(kempner10, power2_no_zero):
    r = kl.block_bracket(kempner10, 1)
    assert r.count == 72
    assert (r.bracket_lo, r.bracket_hi) == (Fraction(72, 100), Fraction(72, 10))

    p = kl.block_bracket(power2_no_zero, 1)
    assert p.count == 3
    assert (p.bracket_lo, p.bracket_hi) == (Fraction(3, 8), Fraction(3, 2))
    true_sum = _enumerated_block_sum(power2_no_zero, 1)
    assert true_sum == Fraction(1, 3) + Fraction(1, 5) + Fraction(1, 7) == Fraction(71, 105)
    assert p.bracket_lo <= true_sum <= p.bracket_hi


def test_block_bracket_empty(full_forbidden_base10):
    r = kl.block_bracket(full_forbidden_base10, 2)
    assert r.count == 0
    assert r.bracket_lo == r.bracket_hi == 0


def test_bracket_ratio_is_quotient(kempner10, power2_no_zero, div_log):
    for c in (kempner10, power2_no_zero, div_log):
        for r in kl.block_reports(c, 8):
            if r.count:
                assert r.bracket_hi / r.bracket_lo == c.sequence.quotient(r.k)


def test_cumulative_brackets_are_prefix_sums(kempner10):
    reports = kl.block_reports(kempner10, 6)
    lo = hi = Fraction(0)
    for r in reports:
        lo += r.bracket_lo
        hi += r.bracket_hi
        assert (r.cumulative_lo, r.cumulative_hi) == (lo, hi)
        assert r.cumulative_lo <= r.cumulative_hi


def test_enumerated_block_sums_inside_brackets(kempner10, power2_no_zero, div_log):
    for c in (kempner10, power2_no_zero, div_log):
        for r in kl.block_reports(c, 6):
            if 0 < r.count <= 10**5:
                s = _enumerated_block_sum(c, r.k)
                assert r.bracket_lo <= s <= r.bracket_hi


def test_partial_sum_examples(kempner10, power2_no_zero):
    assert kl.partial_sum_exact(kempner10, 9).value == Fraction(761, 280)
    assert kl.partial_sum_exact(power2_no_zero, 7).value == Fraction(176, 105)
    # below the smallest member
    assert kl.partial_sum_exact(power2_no_zero, 2).value == Fraction(1)
    c = kl.make_constraint(kl.constant(10), kl.AllIndices(), default={1})
    assert kl.partial_sum_exact(c, 1).value == 0
    with pytest.raises(NonPositiveInput):
        kl.partial_sum_exact(kempner10, 0)


def test_partial_sum_matches_oracle(kempner10, power2_no_zero, div_log):
    for c in (kempner10, power2_no_zero, div_log):
        for n_max in (1, 7, 99, 1234, 20000, 10**5 - 1):
            assert kl.partial_sum_exact(c, n_max).value == kl.oracle_sum(c, 1, n_max)


def test_partial_sum_budget_truncation(kempner10):
    r = kl.partial_sum_exact(kempner10, 10**6, budget=100)
    assert r.truncated and r.terms == 100
    # the value covers exactly the 100 smallest members
    members = kl.oracle_members(kempner10, 1, 10**3)[:100]
    assert r.value == sum_reciprocals(members)
    assert not kl.partial_sum_exact(kempner10, 10**4).truncated


def test_partial_sum_truncated_only_when_a_member_is_left_out(kempner10):
    # The budget is spent exactly, and the block's next member lies above
    # n_max: the sum is complete, so it is not truncated.
    assert kl.partial_sum_exact(kempner10, 1, budget=1) == kl.PartialSum(Fraction(1), False, 1)
    assert kl.partial_sum_exact(kempner10, 8, budget=8) == kl.PartialSum(
        kl.oracle_sum(kempner10, 1, 8), False, 8
    )
    assert kl.partial_sum_exact(kempner10, 9, budget=8).truncated is False  # 9 is no member
    assert kl.partial_sum_exact(kempner10, 10, budget=8).truncated
    assert kl.partial_sum_exact(kempner10, 2, budget=1) == kl.PartialSum(Fraction(1), True, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda c: kl.partial_sum_exact(c, 9.5),
        lambda c: kl.partial_sum_exact(c, 9, 2.5),
        lambda c: kl.partial_sum_exact(c, 9, -1),
        lambda c: kl.block_reports(c, 2.0),
        lambda c: kl.density(c, 9.5),
        lambda c: kl.density(c, "5"),
    ],
)
def test_non_int_inputs_raise_library_errors(kempner10, call):
    with pytest.raises((NonPositiveInput, InputOutOfRange)):
        call(kempner10)


def test_bool_inputs_still_accepted(kempner10):
    assert kl.partial_sum_exact(kempner10, True, True) == kl.PartialSum(Fraction(1), False, 1)
    assert len(kl.block_reports(kempner10, False)) == 1


def test_density_examples(kempner10):
    assert kl.density(kempner10, 999) == Fraction(728, 999)
    assert kl.density(kempner10, 9) == Fraction(8, 9)
    c = kl.make_constraint(
        kl.constant(10), kl.ExplicitIndices(frozenset({0})), default=None, overrides={0: {0}}
    )
    assert kl.density(c, 10) == Fraction(9, 10)
    with pytest.raises(NonPositiveInput):
        kl.density(kempner10, 0)


def test_density_trend_downward(kempner10):
    values = [kl.density(kempner10, 10**j) for j in range(1, 7)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_weierstrass_lower():
    assert kl.weierstrass_lower([]) == 1
    assert kl.weierstrass_lower([Fraction(1, 2), Fraction(1, 4)]) == Fraction(1, 4)
    assert Fraction(1, 2) * Fraction(3, 4) >= Fraction(1, 4)
    with pytest.raises(InputOutOfRange):
        kl.weierstrass_lower([Fraction(1)])
    with pytest.raises(InputOutOfRange):
        kl.weierstrass_lower([Fraction(-1, 3)])

    rng = random.Random(7)
    for _ in range(200):
        xs = [Fraction(rng.randrange(0, 50), 1000) for _ in range(rng.randrange(0, 20))]
        bound = kl.weierstrass_lower(xs)
        product = Fraction(1)
        for x in xs:
            product *= 1 - x
        assert product >= bound


def test_tail_upper_estimate_examples(kempner10):
    assert kl.tail_upper_estimate(kempner10, 1, 3) == Fraction(21951, 1000)
    c = kl.make_constraint(kl.constant(2), kl.AllIndices(), default={0})
    assert kl.tail_upper_estimate(c, 0, 2) == Fraction(7, 4)
    # window below every constrained position: each term is d * 1
    sparse = kl.make_constraint(
        kl.constant(10), kl.ExplicitIndices(frozenset({50})), default=None, overrides={50: {9}}
    )
    assert kl.tail_upper_estimate(sparse, 0, 3) == 40
    with pytest.raises(MissingBoundHint):
        kl.tail_upper_estimate(
            kl.make_constraint(kl.power(2), kl.AllIndices(), default={0}), 0, 2
        )
    with pytest.raises(InputOutOfRange):
        kl.tail_upper_estimate(kempner10, 3, 1)


def test_tail_upper_dominates_exact_sums(kempner10):
    for K in range(1, 5):
        g1 = kl.base_value(kempner10.sequence, 1)
        g_hi = kl.base_value(kempner10.sequence, K + 1)
        exact = kl.partial_sum_exact(kempner10, g_hi - 1).value - kl.partial_sum_exact(
            kempner10, g1 - 1
        ).value
        assert exact <= kl.tail_upper_estimate(kempner10, 1, K)


def test_tail_lower_estimate(power2_no_zero):
    # blocks 1..3, ratios (1 - 1/d_i) accumulate over every position
    got = kl.tail_lower_estimate(power2_no_zero, 1, 3)
    prod = Fraction(1)
    expected = Fraction(0)
    ratios = [Fraction(1, 2), Fraction(3, 4), Fraction(7, 8), Fraction(15, 16)]
    prod = ratios[0]
    for k in (1, 2, 3):
        prod *= ratios[k]
        expected += prod
    assert got == expected / 2


def test_tail_lower_bounds_enumeration(power2_no_zero):
    for K in range(0, 5):
        enumerated = sum(
            (_enumerated_block_sum(power2_no_zero, k) for k in range(K + 1)), Fraction(0)
        )
        assert enumerated >= kl.tail_lower_estimate(power2_no_zero, 0, K)


def test_classify_verdicts(kempner10, power2_no_zero, div_log, open_boundary, full_forbidden_base10):
    assert kl.classify(kempner10).verdict == kl.CONVERGENT
    assert kl.classify(power2_no_zero).verdict == kl.DIVERGENT
    assert kl.classify(div_log, delta=Fraction(2, 5)).verdict == kl.DIVERGENT
    assert kl.classify(open_boundary).verdict == kl.INCONCLUSIVE
    assert kl.classify(full_forbidden_base10).verdict == kl.FINITE_SET


def _converges_at(d, delta, c, k):
    """count(k) = c >= (1+delta) ln k / ln(d/(d-1)), in integers."""
    p, q = delta.numerator, delta.denominator
    return d ** (q * c) >= k ** (p + q) * (d - 1) ** (q * c)


def _diverges_at(d, delta, c, k):
    """count(k) = c <= (1-delta) ln k / ln d, in integers."""
    p, q = delta.numerator, delta.denominator
    return d ** (q * c) <= k ** (q - p)


def test_bounded_convergence_margin(kempner10):
    r = kl.convergence_by_bounded_quotients(kempner10)
    assert r.verdict == kl.CONVERGENT
    assert r.margin.delta == Fraction(1, 2)
    k0 = r.margin.threshold_index
    # the inequality really holds from k0 on, checked exactly
    for k in range(k0, 3000):
        assert _converges_at(10, r.margin.delta, kempner10.index_set.count(k), k)
    assert r.margin.value is None


def test_bounded_divergence_certificate(div_log):
    r = kl.convergence_by_bounded_quotients(div_log, delta=Fraction(2, 5))
    assert r.verdict == kl.DIVERGENT
    assert r.margin.delta == Fraction(2, 5)
    k1 = r.margin.threshold_index
    for k in range(k1, 5000):
        assert _diverges_at(2, Fraction(2, 5), div_log.index_set.count(k), k)
    assert r.margin.value is None
    # k1 is an exact tie: count(1024) = 6 = (3/5) log2(1024)
    assert k1 == 1024
    assert div_log.index_set.count(1024) == 6
    assert 2 ** (5 * 6) == 1024**3
    # delta = 1/2 is exactly the boundary and must not certify
    boundary = kl.convergence_by_bounded_quotients(div_log, delta=Fraction(1, 2))
    assert boundary.verdict == kl.INCONCLUSIVE


_INDEX_SETS = st.one_of(
    st.just(kl.AllIndices()),
    st.builds(kl.ArithmeticIndices, first=st.integers(0, 5), step=st.integers(1, 7)),
    st.builds(kl.PowerIndices, st.integers(2, 16)),
    st.builds(kl.ExplicitIndices, st.frozensets(st.integers(0, 40), min_size=1, max_size=8)),
).flatmap(lambda ix: st.sampled_from([ix, indexsets.ComplementIndices(ix)]))
_DELTAS = [
    Fraction(1, 2), Fraction(1, 4), Fraction(1, 10), Fraction(1, 20), Fraction(2, 5),
    Fraction(1, 3), Fraction(1, 100), Fraction(3, 2),
]


@settings(deadline=None)  # delta = 1/100 at 10 k* takes d to exponents near 10^5
@given(d=st.integers(2, 16), ix=_INDEX_SETS, delta=st.sampled_from(_DELTAS))
@example(d=10, ix=kl.AllIndices(), delta=None)  # the default grid starts at 1/2
def test_bounded_thresholds_hold_exactly(d, ix, delta):
    c = kl.make_constraint(kl.constant(d), ix, default={0})
    r = kl.convergence_by_bounded_quotients(c, delta=delta)
    if delta is None:
        delta = Fraction(1, 2)
    # the growth envelope alone decides which threshold can fire
    kind = indexsets.growth(ix).kind
    if kind == indexsets.GROWTH_LINEAR:
        assert r.verdict == kl.CONVERGENT and r.margin.delta == delta
    elif kind == indexsets.GROWTH_BOUNDED and delta < 1:
        assert r.verdict == kl.DIVERGENT
    elif kind == indexsets.GROWTH_LOG:
        assert r.verdict != kl.CONVERGENT
    if r.verdict == kl.INCONCLUSIVE:
        return
    holds = _converges_at if r.verdict == kl.CONVERGENT else _diverges_at
    assert r.margin.delta == delta and r.margin.value is None
    start = r.margin.threshold_index
    for k in [*range(start, start + 201), 2 * start, 10 * start]:
        assert holds(d, delta, ix.count(k), k), (r.margin.threshold_label, k)


@pytest.mark.parametrize(
    "name", [n for n in preset_names() if constraint_from_preset(n).sequence.bound_hint]
)
def test_classify_bounded_presets_count_few_positions(name, monkeypatch):
    constraint = constraint_from_preset(name)
    calls = []

    def counting(count):
        def wrapper(self, k):
            calls.append(k)
            return count(self, k)

        return wrapper

    for cls in (
        kl.AllIndices,
        kl.ExplicitIndices,
        kl.ArithmeticIndices,
        kl.PowerIndices,
        indexsets.ComplementIndices,
    ):
        monkeypatch.setattr(cls, "count", counting(vars(cls)["count"]))
    kl.classify(constraint)
    assert len(calls) <= 100


@pytest.mark.parametrize("name", preset_names())
def test_classify_checks_finiteness_once(name, monkeypatch):
    calls = []

    def counting(constraint):
        calls.append(constraint)
        return kl.is_finite_set(constraint)

    monkeypatch.setattr(harmonic, "is_finite_set", counting)
    harmonic.classify(constraint_from_preset(name))
    assert len(calls) == 1


def test_bounded_requires_hint(power2_no_zero):
    with pytest.raises(MissingBoundHint):
        kl.convergence_by_bounded_quotients(power2_no_zero)


def test_unbounded_divergence_constants(power2_no_zero):
    r = kl.divergence_by_unbounded_quotients(power2_no_zero)
    assert r.verdict == kl.DIVERGENT
    assert r.margin.threshold_index == 2
    assert r.margin.delta == Fraction(3, 16)
    assert r.margin.value == Fraction(1, 4)


def test_unbounded_rejects_finite(full_forbidden_base10):
    with pytest.raises(SetIsFinite):
        kl.divergence_by_unbounded_quotients(full_forbidden_base10)


def test_unbounded_inconclusive_for_bounded_quotients(kempner10):
    r = kl.divergence_by_unbounded_quotients(kempner10)
    assert r.verdict == kl.INCONCLUSIVE
    assert any("forbidden-ratio series diverges" in n for n in r.notes)


def test_unbounded_factorial_with_sparse_positions():
    # reciprocal-of-index terms along a geometric index set sum finitely
    c = kl.make_constraint(kl.factorial(), kl.PowerIndices(2), default={0})
    r = kl.divergence_by_unbounded_quotients(c)
    assert r.verdict == kl.DIVERGENT
    # dense positions make the ratio series diverge
    dense = kl.make_constraint(kl.factorial(), kl.AllIndices(), default={0})
    assert kl.divergence_by_unbounded_quotients(dense).verdict == kl.INCONCLUSIVE


def test_unbounded_power_with_arithmetic_positions():
    c = kl.make_constraint(kl.power(2), kl.ArithmeticIndices(first=1, step=2), default={0})
    r = kl.divergence_by_unbounded_quotients(c)
    assert r.verdict == kl.DIVERGENT
    # tail over positions 1, 3, 5, ...: sum 2^-(i+1) = 2^-2 + 2^-4 + ... = 1/3 < 1/2
    assert r.margin.threshold_index == 1
    assert r.margin.value == Fraction(1, 3)
    # positions past the first member: the closed form starts at the next one
    for ix, value, delta, i0 in [
        (kl.ArithmeticIndices(first=0, step=2), Fraction(1, 6), Fraction(1, 4), 2),
        (kl.ArithmeticIndices(first=0, step=1), Fraction(1, 4), Fraction(3, 16), 2),
        # complement branch: the tail from position 1 is exactly 1/2, a tie
        # that only the closed form settles
        (kl.ComplementIndices(kl.ExplicitIndices(frozenset({0}))), Fraction(1, 4), Fraction(3, 8), 2),
        (kl.ComplementIndices(kl.ArithmeticIndices(first=0, step=3)), Fraction(3, 7), Fraction(1, 2), 1),
    ]:
        c = kl.make_constraint(kl.power(2), ix, default={0})
        r = kl.divergence_by_unbounded_quotients(c)
        assert r.verdict == kl.DIVERGENT
        assert (r.margin.threshold_index, r.margin.value, r.margin.delta) == (i0, value, delta)


def test_unbounded_power_with_power_positions_uses_enclosure():
    c = kl.make_constraint(kl.power(2), kl.PowerIndices(2), default={0})
    r = kl.divergence_by_unbounded_quotients(c)
    assert r.verdict == kl.DIVERGENT
    # tail from the first constrained position: 2^-2 + 2^-3 + 2^-5 + 2^-9 + ... < 1/2
    assert r.margin.threshold_index == 1


@pytest.mark.parametrize("base", [4, 5])
def test_classify_power_positions_within_str_digit_limit(base):
    # the window reaches position 8192, whose ratio has a ~4,900-digit
    # denominator; notes must not print it under the default digit limit
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        r = kl.classify(kl.make_constraint(kl.power(base), kl.PowerIndices(2), default={0}))
    finally:
        sys.set_int_max_str_digits(old)
    assert r.verdict == kl.DIVERGENT
    assert r.rule_fired == kl.RULE_RATIO_TAIL
    assert any(n.startswith("window check: ") for n in r.notes)


def test_classify_notes_record_attempts(open_boundary):
    r = kl.classify(open_boundary)
    joined = " ".join(r.notes)
    assert "finiteness" in joined
    assert "bounded-quotient" in joined
    assert "unbounded-quotient" in joined


_FINITENESS = "finiteness check: member set is infinite"
_SKIPPED = "bounded-quotient test skipped: no declared quotient bound"


@pytest.mark.parametrize(
    "seq, ix, default, overrides, notes",
    [
        (kl.factorial(), kl.AllIndices(), {0}, None, (
            _FINITENESS,
            _SKIPPED,
            "unbounded-quotient test: forbidden-ratio series diverges: constrained positions are too "
            "dense for reciprocal-of-index terms to sum finitely",
        )),
        (kl.power(2), kl.ExplicitIndices(frozenset({0, 3})), None, {0: {0}, 3: {0}}, (
            _FINITENESS,
            _SKIPPED,
            "unbounded-quotient test: the divergence test needs infinitely many constrained positions",
        )),
        (kl.constant(2), kl.PowerIndices(2), {0}, None, (
            _FINITENESS,
            "bounded-quotient test: neither threshold certified for delta in 1/2, 1/4, 1/10, 1/20",
            "bounded-quotient test: count(k) grows logarithmically at the boundary rate; no verdict is sound here",
            "unbounded-quotient test: forbidden-ratio series diverges: quotients are bounded, so each "
            "ratio is at least 1/d over infinitely many positions",
        )),
        (kl.power(2), kl.AllIndices(), {0}, None, (
            _FINITENESS,
            _SKIPPED,
            "forbidden-ratio tail from position 2 is 1/4 < 1/2; per-block reciprocal sums stay above "
            "delta = 3/16 times each allowed-ratio product",
            "window check: 64 explicit tail terms sum to no more than the certified tail",
        )),
        (kl.constant(2), kl.PowerIndices(4), {0}, None, (
            _FINITENESS,
            "count(k) certified <= (1-1/4) ln k / ln 2 for all k >= 16",
        )),
    ],
    ids=["factorial-dense", "power-finite-index", "open-boundary", "power2-no-zero", "div-log"],
)
def test_classify_notes_are_pinned(seq, ix, default, overrides, notes):
    # each failed attempt carries its test's name; a fired test's own notes come last, unprefixed
    assert kl.classify(kl.make_constraint(seq, ix, default, overrides)).notes == notes


def test_classify_explicit_rule_equivalence():
    # the verdict only depends on the sequence's behavior, not its spelling
    a = kl.make_constraint(kl.constant(10), kl.AllIndices(), default={9})
    b = kl.make_constraint(
        kl.explicit([10, 10], extend="repeat-last"), kl.AllIndices(), default={9}
    )
    ra, rb = kl.classify(a), kl.classify(b)
    assert (ra.verdict, ra.rule_fired, ra.margin.delta) == (rb.verdict, rb.rule_fired, rb.margin.delta)


def test_classify_finite_index_set_with_unbounded_quotients_is_inconclusive():
    c = kl.make_constraint(
        kl.power(2), kl.ExplicitIndices(frozenset({0, 3})), default=None, overrides={0: {0}, 3: {0}}
    )
    r = kl.classify(c)
    assert r.verdict == kl.INCONCLUSIVE
    assert any("infinitely many constrained positions" in n for n in r.notes)


@pytest.mark.parametrize(
    "call",
    [
        lambda c, p: kl.tail_lower_estimate(p, 0.5, 5),
        lambda c, p: kl.tail_upper_estimate(c, 1.0, 5),
        lambda c, p: kl.tail_upper_estimate(c, 1, 5.0),
        lambda c, p: kl.tail_lower_estimate(p, 0, 5.5),
    ],
    ids=["lower-k1", "upper-k0", "upper-K", "lower-K"],
)
def test_tail_estimates_reject_non_int_indices(kempner10, power2_no_zero, call):
    with pytest.raises(InputOutOfRange, match="must be an integer"):
        call(kempner10, power2_no_zero)


@pytest.mark.parametrize("delta", ["x", "1/0"])
def test_classify_rejects_a_delta_that_is_not_rational(kempner10, delta):
    with pytest.raises(InputOutOfRange, match="delta must be a rational number"):
        kl.classify(kempner10, delta=delta)


# --- integer brackets against plain Fraction arithmetic ---------------------


def _reference_reports(c, max_k):
    """Block reports by running Fraction sums, one position at a time."""
    out = []
    cum_lo = cum_hi = Fraction(0)
    below = g = 1
    for k in range(max_k + 1):
        d = c.sequence.quotient(k)
        u = c.forbidden_at(k) or frozenset()
        n = below * (d - 1 - len(u - {0}))  # allowed leading digits
        lo, hi = Fraction(n, g * d), Fraction(n, g)
        cum_lo, cum_hi = cum_lo + lo, cum_hi + hi
        out.append((k, g, g * d, n, lo, hi, cum_lo, cum_hi))
        below *= d - len(u)
        g *= d
    return out


def _reference_tail_lower(c, k1, K):
    product, total = Fraction(1), Fraction(0)
    for k in range(K + 1):
        u = c.forbidden_at(k) or frozenset()
        d = c.sequence.quotient(k)
        product *= Fraction(d - len(u), d)
        if k >= k1 and len(u - {0}) < d - 1:
            total += product
    return total / 2


def _reference_tail_upper(c, k0, K):
    d = c.sequence.bound_hint
    return d * sum((Fraction(d - 1, d) ** c.index_set.count(k) for k in range(k0, K + 1)), Fraction(0))


def _is_reduced(f):
    return f.denominator > 0 and math.gcd(f.numerator, f.denominator) == 1


_SEQUENCES = st.one_of(
    st.builds(kl.constant, st.sampled_from([2, 3, 4, 6, 10, 12, 16, 10**12])),
    st.builds(kl.explicit, st.lists(st.integers(2, 20), min_size=1, max_size=5),
              extend=st.sampled_from(["repeat-last", "cycle"])),
    st.builds(kl.power, st.integers(2, 4)),
    st.just(kl.factorial()),
)


@st.composite
def _constraints(draw):
    seq = draw(_SEQUENCES)
    ix = draw(_INDEX_SETS)
    bounded = seq.kind in ("constant", "explicit")
    max_k = draw(st.integers(0, 60 if bounded else 25))
    d_min = min(seq.values or (seq.quotient(0),))
    digits = st.integers(0, min(d_min, 64) - 1)
    if draw(st.booleans()):  # every nonzero digit: empties the blocks where d_k = d_min
        default = set(range(1, min(d_min, 64)))
    else:
        default = draw(st.sets(digits, min_size=1, max_size=min(d_min - 1, 6)))
    members = [i for i in range(max_k + 1) if ix.contains(i)]
    overrides = {}
    if members:
        for i in draw(st.lists(st.sampled_from(members), max_size=3, unique=True)):
            d = seq.quotient(i)
            overrides[i] = draw(st.sets(st.integers(0, min(d, 64) - 1), min_size=1, max_size=min(d - 1, 6)))
    return kl.make_constraint(seq, ix, default=default, overrides=overrides), max_k


@settings(deadline=None, max_examples=150)
@given(case=_constraints(), data=st.data())
def test_integer_brackets_match_fraction_sums(case, data):
    c, max_k = case
    reports = kl.block_reports(c, max_k)
    fields = ("k", "g_lo", "g_hi", "count", "bracket_lo", "bracket_hi", "cumulative_lo", "cumulative_hi")
    assert [tuple(getattr(r, f) for f in fields) for r in reports] == _reference_reports(c, max_k)
    k1 = data.draw(st.integers(0, max_k))
    results = [kl.tail_lower_estimate(c, k1, max_k)]
    assert results[0] == _reference_tail_lower(c, k1, max_k)
    if c.sequence.bound_hint is not None:
        results.append(kl.tail_upper_estimate(c, k1, max_k))
        assert results[-1] == _reference_tail_upper(c, k1, max_k)
    for r in reports:
        results += [r.bracket_lo, r.bracket_hi, r.cumulative_lo, r.cumulative_hi]
    assert all(type(f) is Fraction and _is_reduced(f) for f in results)


@settings(deadline=None, max_examples=60)
@given(
    seq=st.one_of(st.builds(kl.power, st.integers(2, 3)), st.just(kl.factorial())),
    ix=_INDEX_SETS,
    default=st.sets(st.integers(0, 1), min_size=1, max_size=1),
)
def test_ratio_tail_delta_is_the_allowed_product(seq, ix, default):
    c = kl.make_constraint(seq, ix, default=default)
    r = kl.divergence_by_unbounded_quotients(c)
    if r.verdict != kl.DIVERGENT:
        return
    product = Fraction(1)
    for i in range(r.margin.threshold_index):
        d = seq.quotient(i)
        product *= Fraction(d - len(c.forbidden_at(i) or ()), d)
    assert r.margin.delta == product / 2 and _is_reduced(r.margin.delta)


def test_kempner10_brackets_at_depth_505(kempner10):
    K = 505
    reports = kl.block_reports(kempner10, K)
    assert [r.count for r in reports] == [8 * 9**k for k in range(K + 1)]
    tail = 1 - Fraction(9, 10) ** (K + 1)
    last = reports[-1]
    assert last.cumulative_lo == 8 * tail and last.cumulative_hi == 80 * tail
    assert last.bracket_hi == Fraction(8 * 9**K, 10**K) and last.bracket_lo == last.bracket_hi / 10
    assert all(_is_reduced(f) for f in (last.cumulative_lo, last.cumulative_hi, last.bracket_lo))
    assert kl.tail_lower_estimate(kempner10, 0, K) == Fraction(9, 2) * tail

import random
from bisect import bisect_left
from collections import Counter
from fractions import Fraction

import pytest

import kempner_lab as kl
from kempner_lab.errors import InputOutOfRange, RangeTooLarge
import kempner_lab.oracle as oracle
from kempner_lab.oracle import _half_sum, block_mismatches


def test_oracle_members_kempner(kempner10):
    assert kl.oracle_members(kempner10, 1, 20) == [
        1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15, 16, 17, 18, 20,
    ]


def test_oracle_members_power2(power2_no_zero):
    assert kl.oracle_members(power2_no_zero, 1, 8) == [1, 3, 5, 7]


def test_oracle_members_empty_range(kempner10):
    # every integer in [90, 99] carries a 9
    assert kl.oracle_members(kempner10, 90, 99) == []
    assert kl.oracle_members(kempner10, 85, 92) == [85, 86, 87, 88]
    full = kl.make_constraint(kl.constant(10), kl.AllIndices(), default=set(range(1, 10)))
    assert kl.oracle_members(full, 1, 50) == []


def test_oracle_sum_values(kempner10, power2_no_zero):
    assert kl.oracle_sum(kempner10, 1, 8) == Fraction(761, 280)
    assert kl.oracle_sum(power2_no_zero, 2, 7) == Fraction(71, 105)
    assert kl.oracle_sum(power2_no_zero, 4, 4) == 0


def test_oracle_range_cap(kempner10):
    with pytest.raises(RangeTooLarge):
        kl.oracle_members(kempner10, 1, 10**7 + 1)
    with pytest.raises(RangeTooLarge):
        kl.oracle_members(kempner10, 0, 10)
    with pytest.raises(RangeTooLarge):
        kl.oracle_members(kempner10, 5, 4)


def test_oracle_report_is_deterministic(kempner10):
    a = kl.oracle_report(kempner10, 1, 200)
    b = kl.oracle_report(kempner10, 1, 200)
    assert a == b
    assert a.members == len(kl.oracle_members(kempner10, 1, 200))
    assert a.total == kl.oracle_sum(kempner10, 1, 200)
    assert len(a.checksum) == 64


def test_oracle_agrees_with_fast_paths_on_blocks(kempner10, power2_no_zero, div_log):
    for c in (kempner10, power2_no_zero, div_log):
        k = 0
        while kl.base_value(c.sequence, k + 1) <= 10**4:
            g_lo = kl.base_value(c.sequence, k)
            g_hi = kl.base_value(c.sequence, k + 1)
            members = kl.oracle_members(c, g_lo, g_hi - 1)
            report = kl.block_bracket(c, k)
            assert len(members) == report.count
            if members:
                assert report.bracket_lo <= kl.oracle_sum(c, g_lo, g_hi - 1) <= report.bracket_hi
            k += 1


def test_block_mismatches(kempner10, power2_no_zero, div_log):
    def members(c, reports):
        return kl.oracle_members(c, 1, reports[-1].g_hi - 1)

    for c in (kempner10, power2_no_zero, div_log):
        reports = kl.block_reports(c, 3)
        assert block_mismatches(members(c, reports), reports) == []
    assert block_mismatches(kl.oracle_members(kempner10, 1, 100), []) == []
    assert block_mismatches([], []) == []
    reports = kl.block_reports(kempner10, 3)
    r = reports[1]
    reports[1] = kl.BlockReport(
        r.k, r.g_lo, r.g_hi, r.count - 1, r.bracket_lo, r.bracket_hi, r.cumulative_lo, r.cumulative_hi
    )
    r = reports[2]
    reports[2] = kl.BlockReport(
        r.k, r.g_lo, r.g_hi, r.count, r.bracket_lo, r.bracket_lo, r.cumulative_lo, r.cumulative_hi
    )
    assert block_mismatches(members(kempner10, reports), reports) == [
        "block 1: exact count 71, oracle 72",
        "block 2: oracle sum outside bracket",
    ]


@pytest.mark.parametrize(
    "lo, hi", [(0, 0), (5, 5), (0, 1), (7, 8), (0, 64), (3, 67), (0, 65), (10, 75), (0, 300)]
)
def test_half_sum_equals_plain_fraction_sum(kempner10, lo, hi):
    members = kl.oracle_members(kempner10, 1, 400)
    plain = Fraction(0)
    for a in members[lo:hi]:
        plain += Fraction(1, a)
    assert _half_sum(members, lo, hi) == plain


@pytest.mark.parametrize("lo, hi", [(1, 9.5), (1.0, 9), (1, "9")])
def test_non_int_range_raises_library_error(kempner10, lo, hi):
    with pytest.raises(InputOutOfRange):
        kl.oracle_sum(kempner10, lo, hi)
    with pytest.raises(InputOutOfRange):
        kl.oracle_members(kempner10, lo, hi)


def test_oracle_report_checksum_is_stable(kempner10):
    # sha256 of "1,2,...,8,10,...,18,20"
    report = kl.oracle_report(kempner10, 1, 20)
    assert report.members == 18
    assert report.checksum == "25c9d3668132ddc127cf92db607860c495c6fb67c0ab1c35df6979a0ded4a2a9"


def _with_bracket(r, lo, hi, count=None, g_lo=None, g_hi=None):
    return kl.BlockReport(
        r.k,
        r.g_lo if g_lo is None else g_lo,
        r.g_hi if g_hi is None else g_hi,
        r.count if count is None else count,
        lo,
        hi,
        r.cumulative_lo,
        r.cumulative_hi,
    )


@pytest.fixture
def exact_sums_taken(monkeypatch):
    """The ranges passed to the oracle's exact summation, in call order."""
    taken = []

    def recording(members, lo, hi):
        taken.append((lo, hi))
        return _half_sum(members, lo, hi)

    monkeypatch.setattr(oracle, "_half_sum", recording)
    return taken


def test_block_check_sums_only_when_the_interval_cannot_decide(kempner10, exact_sums_taken):
    members = kl.oracle_members(kempner10, 1, 999)
    reports = kl.block_reports(kempner10, 2)
    assert block_mismatches(members, reports) == []
    assert exact_sums_taken == []  # every true bracket contains [n/m_n, n/m_1]

    r = reports[1]
    i, j = bisect_left(members, r.g_lo), bisect_left(members, r.g_hi)
    exact = _half_sum(members, i, j)
    assert Fraction(j - i, members[j - 1]) < exact < Fraction(j - i, members[i])
    exact_sums_taken.clear()  # _half_sum recurses through the recording wrapper
    tight = _with_bracket(r, r.bracket_lo, exact)
    assert block_mismatches(members, [tight]) == []
    assert exact_sums_taken[0] == (i, j)

    below = Fraction(exact.numerator - 1, exact.denominator)
    assert block_mismatches(members, [_with_bracket(r, r.bracket_lo, below)]) == [
        "block 1: oracle sum outside bracket"
    ]
    assert block_mismatches(members, [_with_bracket(r, exact, exact)]) == []


def test_block_check_empty_block(kempner10, full_forbidden_base10):
    members = kl.oracle_members(kempner10, 1, 99)
    r = kl.block_reports(kempner10, 1)[1]
    empty = _with_bracket(r, Fraction(0), Fraction(0), count=0, g_lo=90, g_hi=100)
    assert block_mismatches(members, [empty]) == []
    assert block_mismatches(members, [_with_bracket(empty, Fraction(0), Fraction(1, 2))]) == []
    assert block_mismatches(members, [_with_bracket(empty, Fraction(1, 100), Fraction(1))]) == [
        "block 1: oracle sum outside bracket"
    ]
    assert block_mismatches(members, [_with_bracket(empty, Fraction(-1), Fraction(-1, 2))]) == [
        "block 1: oracle sum outside bracket"
    ]
    # a member set with no members: every block is empty, and its bracket is [0, 0]
    assert block_mismatches([], kl.block_reports(full_forbidden_base10, 3)) == []


def _exact_sum_mismatches(members, blocks, sums):
    """The rule the interval certificate must reproduce: compare every
    block's exact sum (memoised in ``sums``) against its bracket."""
    out = []
    for b in blocks:
        i, j = bisect_left(members, b.g_lo), bisect_left(members, b.g_hi)
        if b.count != j - i:
            out.append(f"block {b.k}: exact count {b.count}, oracle {j - i}")
        if (i, j) not in sums:
            sums[i, j] = _half_sum(members, i, j)
        if not b.bracket_lo <= sums[i, j] <= b.bracket_hi:
            out.append(f"block {b.k}: oracle sum outside bracket")
    return out


def _altered(rng, members, r, sums):
    """A BlockReport like r with its range, count and bracket perturbed,
    the bracket ends drawn around the exact sum and the interval ends."""
    g_lo, g_hi = r.g_lo, r.g_hi
    if rng.random() < 0.2:
        g_lo = rng.randrange(r.g_lo, r.g_hi + 1)
        g_hi = rng.randrange(g_lo, r.g_hi + 1)
    i, j = bisect_left(members, g_lo), bisect_left(members, g_hi)
    if (i, j) not in sums:
        sums[i, j] = _half_sum(members, i, j)
    n = j - i
    marks = [sums[i, j], r.bracket_lo, r.bracket_hi, Fraction(0)]
    if n:
        marks += [Fraction(n, members[j - 1]), Fraction(n, members[i])]
    eps = Fraction(1, rng.choice([1, 10**3, 10**9, 10**30]))

    def end():
        x = rng.choice(marks)
        return x + rng.choice([-eps, 0, 0, eps])

    lo, hi = end(), end()
    if rng.random() < 0.8:
        lo, hi = min(lo, hi), max(lo, hi)
    count = r.count + rng.choice([-1, 0, 0, 0, 1])
    return _with_bracket(r, lo, hi, count=count, g_lo=g_lo, g_hi=g_hi)


@pytest.mark.parametrize("name, max_k", [("kempner10", 2), ("power2_no_zero", 3)])
def test_block_check_matches_the_exact_sum_rule(request, name, max_k):
    c = request.getfixturevalue(name)
    reports = kl.block_reports(c, max_k)
    members = kl.oracle_members(c, 1, reports[-1].g_hi - 1)
    rng = random.Random(2020)
    sums = {}
    outcomes = Counter()
    for _ in range(600):
        blocks = [_altered(rng, members, r, sums) for r in rng.sample(reports, rng.randint(1, 3))]
        assert block_mismatches(members, blocks) == _exact_sum_mismatches(members, blocks, sums)
        for b in blocks:
            i, j = bisect_left(members, b.g_lo), bisect_left(members, b.g_hi)
            within = b.bracket_lo <= sums[i, j] <= b.bracket_hi
            certified = i < j and (
                b.bracket_lo <= Fraction(j - i, members[j - 1])
                and Fraction(j - i, members[i]) <= b.bracket_hi
            )
            outcomes[within, certified] += 1
    # certified, summed and found inside, summed and found outside
    assert min(outcomes[True, True], outcomes[True, False], outcomes[False, False]) >= 50
    assert outcomes[False, True] == 0

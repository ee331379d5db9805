from dataclasses import replace
from fractions import Fraction

import pytest

import kempner_lab as kl
from kempner_lab.errors import InputOutOfRange, RangeTooLarge
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


def test_oracle_report_checksum_is_stable(kempner10):
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
    reports[1] = replace(reports[1], count=reports[1].count - 1)
    reports[2] = replace(reports[2], bracket_hi=reports[2].bracket_lo)
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

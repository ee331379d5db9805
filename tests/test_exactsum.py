from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kempner_lab.exactsum import _RUN, add_reduced, sum_fractions, sum_reciprocals

_NONZERO = st.one_of(
    st.integers(-60, 60),  # small terms share factors, so runs must reduce
    st.integers(-10**6, 10**6),
    st.integers(2**171 - 2**20, 2**171 + 2**20),
    st.integers(-(2**171) - 2**20, -(2**171) + 2**20),
    st.booleans(),
).filter(bool)
_LENGTHS = st.sampled_from([0, 1, _RUN - 1, _RUN, _RUN + 1, 2 * _RUN + 1]) | st.integers(0, 4 * _RUN)


def _assert_same_fraction(got, want):
    assert type(got) is Fraction
    assert got == want and hash(got) == hash(want)
    assert type(got.numerator) is int and type(got.denominator) is int
    assert got.denominator > 0 and gcd(got.numerator, got.denominator) == 1


@settings(deadline=None)
@given(data=st.data(), n=_LENGTHS)
def test_sum_reciprocals_equals_naive_fraction_sum(data, n):
    values = data.draw(st.lists(_NONZERO, min_size=n, max_size=n))
    _assert_same_fraction(
        sum_reciprocals(values), sum((Fraction(1, v) for v in values), Fraction(0))
    )
    # A stream is consumed the same way as a list.
    _assert_same_fraction(sum_reciprocals(iter(values)), sum_reciprocals(values))


@settings(deadline=None)
@given(data=st.data(), n=_LENGTHS)
def test_sum_fractions_equals_naive_fraction_sum(data, n):
    fractions = data.draw(
        st.lists(st.builds(Fraction, st.integers(-(2**171), 2**171), _NONZERO), min_size=n, max_size=n)
    )
    _assert_same_fraction(sum_fractions(fractions), sum(fractions, Fraction(0)))


def test_sign_and_cancellation():
    _assert_same_fraction(sum_reciprocals([-2, 3]), Fraction(-1, 6))
    _assert_same_fraction(sum_reciprocals([2, 2]), Fraction(1))
    _assert_same_fraction(sum_reciprocals([6, 3, 2]), Fraction(1))
    _assert_same_fraction(sum_reciprocals([-2]), Fraction(-1, 2))
    _assert_same_fraction(sum_reciprocals([2, -2] * _RUN), Fraction(0))
    _assert_same_fraction(sum_reciprocals([True, -1, True]), Fraction(1))
    _assert_same_fraction(sum_fractions([Fraction(1, 3), Fraction(-1, 3)]), Fraction(0))


@pytest.mark.parametrize("where", [0, 1, _RUN - 1, _RUN, 2 * _RUN])
@pytest.mark.parametrize("zeros", [1, 2])
def test_zero_term_raises(where, zeros):
    values = list(range(1, 2 * _RUN + 2))
    values[where : where + zeros] = [0] * zeros
    with pytest.raises(ZeroDivisionError):
        sum_reciprocals(values)


def test_add_reduced_stays_reduced():
    assert add_reduced(1, 6, 1, 10) == (4, 15)
    assert add_reduced(1, 2, 1, 2) == (1, 1)
    assert add_reduced(1, -2, 1, 3) == (1, -6)

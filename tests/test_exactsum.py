import inspect
import random
import sys
import tracemalloc
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kempner_lab as kl
from kempner_lab import exactsum
from kempner_lab.exactsum import (
    _DENSE_MIN,
    _DENSE_SPAN,
    _RUN,
    _dense_marks,
    _merge,
    _runs,
    _split_sum,
    add_reduced,
    sum_fractions,
    sum_reciprocals,
)

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


# --- the large-prime split ----------------------------------------------------


def _split(values, n=None):
    """The split's sum of 1/v, for any distinct 1 <= v <= n."""
    mark = bytearray((n if n is not None else max(values, default=0)) + 1)
    for v in values:
        mark[v] = 1
    return _split_sum(mark)


def _assert_split_matches_merge(values, n=None):
    got = _split(values, n)
    want = _merge(_runs(sorted(values)))
    _assert_same_fraction(got, want)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


@settings(deadline=None)
@given(
    n=st.integers(1, 5000),
    density=st.sampled_from([1.0, 0.9, 0.5, 0.125, 0.02]),
    seed=st.integers(0, 2**32),
    spare=st.integers(0, 40),
)
def test_split_equals_general_merge(n, density, seed, spare):
    values = random.Random(seed).sample(range(1, n + 1), max(1, int(n * density)))
    _assert_split_matches_merge(values)
    # Bytes past the largest term change nothing.
    _assert_split_matches_merge(values, max(values) + spare)


def _primes_upto(n):
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, isqrt(p) + 1))]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 24, 100, 1000, 4999, 5000])
def test_split_pinned_sets(n):
    _assert_split_matches_merge(range(1, n + 1))
    _assert_split_matches_merge(_primes_upto(n), n)
    _assert_split_matches_merge([p * p for p in _primes_upto(isqrt(n))], n)


def test_split_every_small_set():
    for n in range(4):
        for bits in range(2**n):
            values = [v for v in range(1, n + 1) if bits >> (v - 1) & 1]
            _assert_split_matches_merge(values, n)


def _integer_branch_primes(values):
    """Primes p > isqrt(max) whose terms p*r sum to an integer over 1/p:
    p divides the numerator of sum(1/r).  Found here by trial division."""
    members = set(values)
    n = max(members)
    out = []
    for p in _primes_upto(n):
        if p > isqrt(n):
            s = sum((Fraction(1, r) for r in range(1, n // p + 1) if p * r in members), Fraction(0))
            if s and s.numerator % p == 0:
                out.append(p)
    return out


def _lines_run(fn, *args):
    """Source lines of exactsum that ran during fn(*args)."""
    ran = set()

    def tracer(frame, event, arg):
        if frame.f_code.co_filename == exactsum.__file__:
            ran.add(frame.f_lineno)
            return tracer
        return None

    sys.settrace(tracer)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    return ran


def test_split_integer_branch_runs():
    # Search seeded half-dense subsets for a prime p > isqrt(N) that divides u.
    for seed in range(200):
        values = random.Random(seed).sample(range(1, 3001), 1500)
        primes = _integer_branch_primes(values)
        if primes:
            break
    assert primes, "no subset reached the integer branch"
    source = inspect.getsource(exactsum).splitlines()
    branch = {i for i, line in enumerate(source, 1) if "yield u // p, 1" in line}
    assert len(branch) == 1
    assert branch <= _lines_run(_split, values)
    _assert_split_matches_merge(values)
    # 1..6 is the smallest: 3 divides 1 + 1/2 = 3/2.
    assert _integer_branch_primes(range(1, 7)) == [3]
    assert branch <= _lines_run(_split, range(1, 7))


def _takes_the_split(values):
    """True when sum_reciprocals hands the values to the split."""
    values = list(values)
    calls = []
    original = exactsum._split_sum
    exactsum._split_sum = lambda mark: calls.append(1) or original(mark)
    try:
        total = sum_reciprocals(values)
        stream_total = sum_reciprocals(iter(values))
    finally:
        exactsum._split_sum = original
    _assert_same_fraction(total, _merge(_runs(values)))
    _assert_same_fraction(stream_total, total)
    return calls == [1]  # the list took the split, the stream did not


def test_dense_lists_take_the_split():
    values = list(range(_DENSE_MIN, 0, -1))
    assert _takes_the_split(values)
    assert not _takes_the_split(values[1:])  # too short
    span = _DENSE_SPAN * _DENSE_MIN
    sparse = random.Random(5).sample(range(1, span), _DENSE_MIN - 1) + [span]
    assert _takes_the_split(sparse)
    assert not _takes_the_split(sparse[:-1] + [span + 1])  # too sparse


def _outcome(fn, values):
    try:
        f = fn(values)
    except Exception as exc:  # compared by type and message below
        return type(exc), str(exc)
    return f.numerator, f.denominator, type(f.numerator), type(f.denominator)


@pytest.mark.parametrize(
    "change",
    [
        lambda v: v + [v[10]],  # a duplicate
        lambda v: v + [0],
        lambda v: [0] + v,
        lambda v: [-1] + v,
        lambda v: [x for x in v if x != 8000] + [8000 - len(v) - 1],  # as an index, -193 lands on the absent 8000
        lambda v: [True] + v[1:],  # True for 1: still distinct
        lambda v: [True] + v,  # True and 1: a duplicate
        lambda v: [True, -1] + v[2:],
        lambda v: v[:-1] + [2.0],
        lambda v: v + [2.5],
        lambda v: v + [Fraction(7, 1)],
        lambda v: v + ["3"],
    ],
)
def test_dense_inputs_off_the_split_keep_their_results_and_errors(change):
    values = change(list(range(1, _DENSE_MIN + 1)))
    assert _outcome(sum_reciprocals, values) == _outcome(lambda v: _merge(_runs(v)), values)


def test_split_memory_stays_below_the_list(kempner10):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        members = kl.oracle_members(kempner10, 1, 10**5 - 1)
        list_size = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        total = sum_reciprocals(members)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert _dense_marks(members) is not None
    assert peak < list_size
    assert total == _merge(_runs(members))

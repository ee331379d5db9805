import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kempner_lab import indexsets as ixs
from kempner_lab.errors import InputOutOfRange

RULES = [
    ixs.AllIndices(),
    ixs.ExplicitIndices(frozenset({0, 3, 17})),
    ixs.ArithmeticIndices(first=2, step=3),
    ixs.ArithmeticIndices(first=5, step=1),
    ixs.PowerIndices(2),
    ixs.PowerIndices(4),
    ixs.ComplementIndices(ixs.PowerIndices(2)),
    ixs.ComplementIndices(ixs.ExplicitIndices(frozenset({1, 2}))),
    ixs.ComplementIndices(ixs.ArithmeticIndices(first=4, step=1)),
    ixs.ComplementIndices(ixs.AllIndices()),
]


@pytest.mark.parametrize("ix", RULES, ids=lambda r: type(r).__name__ + repr(getattr(r, "inner", "")))
def test_count_matches_membership(ix):
    running = 0
    for k in range(500):
        if ix.contains(k):
            running += 1
        assert ix.count(k) == running
        assert ix.count(k) <= k + 1


def test_powers_of_membership():
    p = ixs.PowerIndices(4)
    members = [i for i in range(300) if p.contains(i)]
    assert members == [1, 4, 16, 64, 256]
    assert p.count(255) == 4
    assert p.count(256) == 5
    assert p.count(0) == 0


def test_arithmetic_membership():
    ap = ixs.ArithmeticIndices(first=2, step=3)
    assert [i for i in range(12) if ap.contains(i)] == [2, 5, 8, 11]
    assert ap.count(1) == 0
    assert ap.count(11) == 4


def test_validation():
    with pytest.raises(InputOutOfRange):
        ixs.ExplicitIndices(frozenset())
    with pytest.raises(InputOutOfRange):
        ixs.ExplicitIndices(frozenset({-1}))
    with pytest.raises(InputOutOfRange):
        ixs.ArithmeticIndices(first=0, step=0)
    with pytest.raises(InputOutOfRange):
        ixs.PowerIndices(1)


def test_cardinality_certificates():
    assert ixs.is_cofinite(ixs.AllIndices())
    assert not ixs.is_finite(ixs.AllIndices())
    assert ixs.is_finite(ixs.ExplicitIndices(frozenset({4})))
    assert not ixs.is_cofinite(ixs.ExplicitIndices(frozenset({4})))
    assert ixs.is_cofinite(ixs.ArithmeticIndices(first=7, step=1))
    assert not ixs.is_cofinite(ixs.ArithmeticIndices(first=0, step=2))
    assert not ixs.is_finite(ixs.PowerIndices(2))
    assert not ixs.is_cofinite(ixs.PowerIndices(2))
    # complement flips finite <-> cofinite
    assert ixs.is_finite(ixs.ComplementIndices(ixs.ArithmeticIndices(first=4, step=1)))
    assert ixs.is_cofinite(ixs.ComplementIndices(ixs.ExplicitIndices(frozenset({4}))))
    assert ixs.is_finite(ixs.ComplementIndices(ixs.AllIndices()))
    # double complement normalizes away
    double = ixs.ComplementIndices(ixs.ComplementIndices(ixs.PowerIndices(2)))
    assert not ixs.is_finite(double) and not ixs.is_cofinite(double)


@pytest.mark.parametrize("ix", RULES, ids=lambda r: type(r).__name__ + repr(getattr(r, "inner", "")))
def test_growth_envelopes_hold(ix):
    """The declared envelope must bound the true counting function."""
    g = ixs.growth(ix)
    for k in range(max(2, g.valid_from), 3000):
        c = ix.count(k)
        if g.kind == ixs.GROWTH_LINEAR:
            assert c >= g.slope * k + g.offset
        elif g.kind == ixs.GROWTH_LOG:
            lg = math.log(k) / math.log(g.log_base)
            assert lg - 1e-9 <= c <= lg + 1 + 1e-9
        else:
            assert c <= g.limit
            if k >= g.valid_from:
                assert c == g.limit


def test_growth_kinds():
    assert ixs.growth(ixs.AllIndices()).kind == ixs.GROWTH_LINEAR
    assert ixs.growth(ixs.ArithmeticIndices(first=0, step=4)).kind == ixs.GROWTH_LINEAR
    assert ixs.growth(ixs.PowerIndices(3)).kind == ixs.GROWTH_LOG
    assert ixs.growth(ixs.ExplicitIndices(frozenset({1, 5}))).kind == ixs.GROWTH_BOUNDED
    assert ixs.growth(ixs.ComplementIndices(ixs.AllIndices())).kind == ixs.GROWTH_BOUNDED
    assert ixs.growth(ixs.ComplementIndices(ixs.PowerIndices(2))).kind == ixs.GROWTH_LINEAR


@given(k=st.integers(min_value=0, max_value=10**9), b=st.integers(min_value=2, max_value=7))
def test_powers_count_closed_form(k, b):
    p = ixs.PowerIndices(b)
    expected = 0
    value = 1
    while value <= k:
        expected += 1
        value *= b
    assert p.count(k) == expected


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ixs.ArithmeticIndices(1.5, 2), "first term must be an integer, got 1.5"),
        (lambda: ixs.ArithmeticIndices(1, 2.0), "step must be an integer, got 2.0"),
        (lambda: ixs.PowerIndices(2.0), "power index base must be an integer, got 2.0"),
        (lambda: ixs.ExplicitIndices(frozenset({1.5})), "index set entry must be an integer, got 1.5"),
        (lambda: ixs.ComplementIndices(5), "complement needs an index set, got 5"),
    ],
)
def test_index_sets_reject_non_int_parameters(call, message):
    with pytest.raises(InputOutOfRange, match=message):
        call()


_BASE_RULES = st.one_of(
    st.just(ixs.AllIndices()),
    st.frozensets(st.integers(0, 63), min_size=1).map(ixs.ExplicitIndices),
    st.builds(ixs.ArithmeticIndices, st.integers(0, 63), st.integers(1, 5)),
    st.integers(2, 5).map(ixs.PowerIndices),
)


@given(base=_BASE_RULES, depth=st.integers(0, 4))
def test_finiteness_matches_the_counting_function(base, depth):
    """Finite exactly when no member lies in (64, 4096]; cofinite exactly
    when no uncounted position does.  Every finite member is below 64."""
    ix = base
    for _ in range(depth):
        ix = ixs.ComplementIndices(ix)
    assert ixs.is_finite(ix) == (ix.count(64) == ix.count(4096))
    assert ixs.is_cofinite(ix) == (65 - ix.count(64) == 4097 - ix.count(4096))


@given(
    base_rule=_BASE_RULES,
    depth=st.integers(0, 4),
    lo=st.integers(0, 70),
    base=st.integers(2, 5),
)
def test_walk_and_geometric_weight_match_membership(base_rule, depth, lo, base):
    """The walk lists the members >= lo in order; the weight is the exact
    sum of base**-(i+1) over them, bracketed by a direct partial sum to
    H = lo + 64 and its geometric remainder."""
    ix = base_rule
    for _ in range(depth):
        ix = ixs.ComplementIndices(ix)
    walked = list(itertools.takewhile((4096).__ge__, ixs.iter_members(ix, lo)))
    assert walked == [i for i in range(lo, 4097) if ix.contains(i)]

    w = ixs.geometric_weight(ix, base, lo)
    rule = ixs.normalize(ix)
    no_closed_form = isinstance(getattr(rule, "inner", rule), ixs.PowerIndices)
    assert (w is None) == no_closed_form
    if w is None:
        return
    h = lo + 64
    partial = sum((Fraction(1, base ** (i + 1)) for i in walked if i <= h), Fraction(0))
    assert partial <= w <= partial + Fraction(1, base ** (h + 1) * (base - 1))
    if ixs.is_finite(ix):
        assert w == partial

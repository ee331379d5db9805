import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kempner_lab as kl
from kempner_lab.errors import (
    DigitOutOfRange,
    EmptyExplicitList,
    InputOutOfRange,
    NonPositiveInput,
    QuotientTooSmall,
    ZeroLeadingDigit,
)
from kempner_lab.gadic import QuotientSequence

FAMILIES = [
    kl.constant(10),
    kl.constant(2),
    kl.power(2),
    kl.factorial(),
    kl.explicit([3, 5, 2], extend="cycle"),
    kl.explicit([4, 7], extend="repeat-last"),
]


def test_constant_quotients():
    seq = kl.constant(10)
    assert [seq.quotient(i) for i in range(5)] == [10] * 5
    assert seq.bound_hint == 10


def test_power_quotients_and_base_values():
    seq = kl.power(2)
    assert [seq.quotient(i) for i in range(4)] == [2, 4, 8, 16]
    # g_i = 2**(i(i+1)/2)
    assert kl.base_value(seq, 3) == 64
    assert [kl.base_value(seq, i) for i in range(6)] == [
        2 ** (i * (i + 1) // 2) for i in range(6)
    ]
    assert seq.bound_hint is None


def test_factorial_base_values():
    seq = kl.factorial()
    assert [seq.quotient(i) for i in range(4)] == [2, 3, 4, 5]
    assert kl.base_value(seq, 3) == 2 * 3 * 4
    assert kl.base_value(seq, 0) == 1


def test_constant_base_value():
    assert kl.base_value(kl.constant(10), 3) == 1000


def test_explicit_extension_modes():
    cyc = kl.explicit([3, 5, 2], extend="cycle")
    assert [cyc.quotient(i) for i in range(7)] == [3, 5, 2, 3, 5, 2, 3]
    rep = kl.explicit([4, 7], extend="repeat-last")
    assert [rep.quotient(i) for i in range(5)] == [4, 7, 7, 7, 7]
    assert cyc.bound_hint == 5 and rep.bound_hint == 7


def test_quotient_too_small():
    with pytest.raises(QuotientTooSmall):
        kl.constant(1)
    with pytest.raises(QuotientTooSmall):
        kl.explicit([4, 1])
    with pytest.raises(QuotientTooSmall):
        kl.power(1)


def test_empty_explicit_list():
    with pytest.raises(EmptyExplicitList):
        kl.explicit([])


def test_bound_hint_rules():
    # The bound is the rule's own: d, the largest explicit value, or none.
    assert kl.constant(10).bound_hint == 10
    assert kl.explicit([3, 9, 2], extend="cycle").bound_hint == 9
    assert kl.explicit([9, 3], extend="repeat-last").bound_hint == 9
    assert kl.power(2).bound_hint is None
    assert kl.factorial().bound_hint is None
    assert QuotientSequence(kind="constant", d=7).bound_hint == 7
    assert QuotientSequence.__match_args__ == ("kind", "d", "values", "extend", "base")


def test_bound_hint_is_not_an_argument():
    # A record with a bound below its quotients once gave a wrong verdict.
    with pytest.raises(TypeError):
        QuotientSequence(kind="constant", d=10, bound_hint=2)
    with pytest.raises(TypeError):
        kl.constant(10, bound_hint=12)
    with pytest.raises(TypeError):
        kl.explicit([3], bound_hint=3)


def test_to_digits_examples():
    assert kl.to_digits(kl.constant(10), 409).digits == (9, 0, 4)
    assert kl.to_digits(kl.factorial(), 10).digits == (0, 2, 1)
    assert kl.to_digits(kl.power(2), 7).digits == (1, 3)


def test_from_digits_examples():
    seq = kl.constant(10)
    assert kl.from_digits(kl.Numeral((9, 0, 4), seq)) == 409
    for family in FAMILIES:
        assert kl.from_digits(kl.Numeral((1,), family)) == 1
    assert kl.from_digits(kl.Numeral((0, 2, 1), kl.factorial())) == 10


def test_to_digits_rejects_nonpositive():
    with pytest.raises(NonPositiveInput):
        kl.to_digits(kl.constant(10), 0)
    with pytest.raises(NonPositiveInput):
        kl.to_digits(kl.constant(10), -3)


def test_from_digits_validation():
    seq = kl.constant(10)
    with pytest.raises(ZeroLeadingDigit):
        kl.from_digits(kl.Numeral((1, 0), seq))
    with pytest.raises(DigitOutOfRange):
        kl.from_digits(kl.Numeral((11, 2), seq))
    with pytest.raises(ZeroLeadingDigit):
        kl.Numeral((), seq)


@pytest.mark.parametrize("seq", FAMILIES, ids=lambda s: s.kind + str(s.values or s.d or s.base))
def test_round_trip_small_range(seq):
    for n in range(1, 3000):
        numeral = kl.to_digits(seq, n)
        assert kl.from_digits(numeral) == n
        # digit ranges and nonzero leading digit
        assert numeral.digits[-1] != 0
        for i, c in enumerate(numeral.digits):
            assert 0 <= c < seq.quotient(i)


@given(
    n=st.integers(min_value=1, max_value=10**30),
    idx=st.integers(min_value=0, max_value=len(FAMILIES) - 1),
)
@settings(max_examples=300)
def test_round_trip_property(n, idx):
    seq = FAMILIES[idx]
    assert kl.from_digits(kl.to_digits(seq, n)) == n


@pytest.mark.parametrize("seq", FAMILIES, ids=lambda s: s.kind + str(s.values or s.d or s.base))
def test_base_value_recurrence_and_divisibility(seq):
    for k in range(64):
        g_k = kl.base_value(seq, k)
        g_next = kl.base_value(seq, k + 1)
        assert g_next == g_k * seq.quotient(k)
        assert g_next % g_k == 0
        assert g_next > g_k
    assert kl.base_value(seq, 0) == 1


@pytest.mark.parametrize("seq", FAMILIES, ids=lambda s: s.kind + str(s.values or s.d or s.base))
def test_digit_count_matches_block_membership(seq):
    # n has exactly k+1 digits iff g_k <= n < g_{k+1}
    for n in range(1, 2000):
        k = kl.digit_count(seq, n) - 1
        assert kl.base_value(seq, k) <= n < kl.base_value(seq, k + 1)
        assert len(kl.to_digits(seq, n).digits) == k + 1


def test_uniqueness_on_sample():
    for seq in FAMILIES:
        seen = set()
        for n in range(1, 20000):
            key = kl.to_digits(seq, n).digits
            assert key not in seen
            seen.add(key)


def _divmod_digits(n, d):
    digits = []
    while n:
        n, c = divmod(n, d)
        digits.append(c)
    return tuple(digits)


# default limit, the smallest one allowed, and no limit
STR_DIGIT_LIMITS = [4300, 640, 0]


@given(
    n=st.one_of(
        st.integers(min_value=1, max_value=2**64),
        st.integers(min_value=1, max_value=2**20000),
    ),
    # the formatter's bases, then any base int() reads
    d=st.one_of(st.sampled_from([2, 8, 10, 16]), st.integers(min_value=2, max_value=36)),
    limit=st.sampled_from(STR_DIGIT_LIMITS),
)
@settings(max_examples=300, deadline=None)
def test_native_round_trip_matches_divmod(n, d, limit):
    seq = kl.constant(d)
    expected = _divmod_digits(n, d)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        digits = kl.to_digits(seq, n).digits
        value = kl.from_digits(kl.Numeral(expected, seq))
    finally:
        sys.set_int_max_str_digits(old)
    assert digits == expected
    assert value == n


def test_native_path_only_for_checked_constant_bases():
    assert all(kl.constant(d)._native is not None for d in range(2, 37))
    assert kl.constant(37)._native is None
    assert all(seq._native is None for seq in FAMILIES if seq.kind != "constant")


def _outcome(call):
    try:
        return "value", call()
    except Exception as exc:  # compare whatever the walk raises
        return type(exc), str(exc)


@pytest.mark.parametrize("d", [2, 10, 16, 36])
@pytest.mark.parametrize(
    "digits",
    [
        (1, 0),  # leading zero
        ("d", 1),  # digit equal to d
        (255, 1),
        (256, 1),
        (-1, 1),
        (1.5, 1),  # in range but not an int
        (40.0, 1),
        (1, "d", 1, 300, 1),  # two bad digits: the lowest is named
    ],
    ids=["leading-zero", "digit-d", "255", "256", "minus-1", "float", "float-big", "two-bad"],
)
def test_native_from_digits_errors_match_walk(d, digits):
    digits = tuple(d if c == "d" else c for c in digits)
    # explicit([d]) has the same quotients but always walks
    native = _outcome(lambda: kl.from_digits(kl.Numeral(digits, kl.constant(d))))
    walk = _outcome(lambda: kl.from_digits(kl.Numeral(digits, kl.explicit([d]))))
    assert native == walk
    if digits[-1] == 0:
        assert native[0] is ZeroLeadingDigit
    else:
        assert native[0] is DigitOutOfRange


@pytest.mark.parametrize("n", [1.5, 2.0, True])
def test_native_to_digits_non_int_matches_walk(n):
    for d in (2, 8, 10, 16):
        native = _outcome(lambda: kl.to_digits(kl.constant(d), n).digits)
        walk = _outcome(lambda: kl.to_digits(kl.explicit([d]), n).digits)
        assert native == walk
        if n is True:
            assert native == ("value", (1,))
        else:
            assert native[0] is NonPositiveInput


@pytest.mark.parametrize("seq", [kl.constant(10), kl.explicit([10]), kl.factorial()])
def test_from_digits_names_lowest_non_int_digit(seq):
    for digits, position in [((1, 2.5, 3.5, 1), 1), ((2.0,), 0), ((True, 0, 1), None)]:
        numeral = kl.Numeral(digits, seq)
        if position is None:
            assert kl.from_digits(numeral) == 1 + kl.base_value(seq, 2)
        else:
            with pytest.raises(DigitOutOfRange, match=f"position {position} is not an integer"):
                kl.from_digits(numeral)


def test_base_value_rejects_non_int_index():
    with pytest.raises(InputOutOfRange, match="must be an integer, got 2.0"):
        kl.base_value(kl.constant(10), 2.0)
    assert kl.base_value(kl.constant(10), True) == 10


@pytest.mark.parametrize("seq, i", [(kl.power(2), 1.5), (kl.constant(10), 1.0)])
def test_quotient_rejects_non_int_position(seq, i):
    with pytest.raises(InputOutOfRange, match="digit position must be an integer"):
        seq.quotient(i)


def test_quotient_rejects_a_negative_position():
    with pytest.raises(InputOutOfRange, match="negative digit position -1"):
        kl.power(2).quotient(-1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: kl.power(2.0), "base must be an integer, got 2.0"),
        (lambda: kl.explicit([2.5, 3]), "explicit quotient must be an integer, got 2.5"),
        (lambda: kl.constant(10.5), "d must be an integer, got 10.5"),
        (lambda: kl.constant("10"), "d must be an integer, got '10'"),
    ],
)
def test_sequence_constructors_reject_non_int_parameters(call, message):
    with pytest.raises(InputOutOfRange, match=message):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: QuotientSequence("foo"), "unknown quotient rule 'foo'"),
        (lambda: kl.explicit([3], extend="x"), "unknown extension mode 'x'"),
    ],
)
def test_unknown_rule_names_raise_input_out_of_range(call, message):
    with pytest.raises(InputOutOfRange, match=message):
        call()

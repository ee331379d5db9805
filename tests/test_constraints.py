import resource
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kempner_lab as kl
from kempner_lab import constraints
from kempner_lab.errors import (
    BitOutOfRange,
    BudgetExceeded,
    DigitOutOfRange,
    EmptyForbiddenSet,
    ForbiddenSetNotProper,
    InputOutOfRange,
    NonPositiveInput,
    OverrideOutsideIndexSet,
    QuotientTooSmall,
)


def _decoded_ok(constraint, n):
    """Reference membership: decode n with to_digits and test each digit
    against forbidden_at."""
    digits = kl.to_digits(constraint.sequence, n).digits
    return not any(c in (constraint.forbidden_at(i) or ()) for i, c in enumerate(digits))


def test_make_constraint_kempner(kempner10):
    assert kempner10.forbidden_at(0) == frozenset({9})
    assert kempner10.forbidden_at(7) == frozenset({9})


def test_make_constraint_rejects_full_set():
    with pytest.raises(ForbiddenSetNotProper):
        kl.make_constraint(kl.constant(10), kl.AllIndices(), default=set(range(10)))


def test_make_constraint_rejects_out_of_range_default():
    # base 2 digits are 0/1 only
    with pytest.raises(DigitOutOfRange):
        kl.make_constraint(kl.power(2), kl.AllIndices(), default={9})


def test_make_constraint_power2_no_zero(power2_no_zero):
    for i in range(6):
        assert power2_no_zero.forbidden_at(i) == frozenset({0})


def test_make_constraint_empty_default():
    with pytest.raises(EmptyForbiddenSet):
        kl.make_constraint(kl.constant(10), kl.AllIndices(), default=set())


@pytest.mark.parametrize(
    "index_set, members",
    [
        (kl.ExplicitIndices(frozenset({0, 3, 7})), [0, 3, 7]),
        (kl.ComplementIndices(kl.AllIndices()), []),
        (kl.ComplementIndices(kl.ArithmeticIndices(3, 1)), [0, 1, 2]),
        (kl.ComplementIndices(kl.ComplementIndices(kl.ExplicitIndices(frozenset({2, 5})))), [2, 5]),
    ],
)
def test_no_default_needs_every_member_overridden(index_set, members):
    seq = kl.constant(10)
    c = kl.make_constraint(seq, index_set, overrides={i: {1} for i in members})
    assert c.default_forbidden is None and [i for i, _ in c.overrides] == members
    for left_out in members:
        with pytest.raises(EmptyForbiddenSet, match="not fully overridden"):
            kl.make_constraint(seq, index_set, overrides={i: {1} for i in members if i != left_out})


def test_override_validation():
    seq = kl.constant(10)
    with pytest.raises(OverrideOutsideIndexSet):
        kl.make_constraint(
            seq, kl.ExplicitIndices(frozenset({2})), default={1}, overrides={5: {1}}
        )
    with pytest.raises(ForbiddenSetNotProper):
        kl.make_constraint(seq, kl.AllIndices(), default={1}, overrides={2: set(range(10))})
    with pytest.raises(EmptyForbiddenSet):
        kl.make_constraint(seq, kl.AllIndices(), default={1}, overrides={2: set()})
    c = kl.make_constraint(seq, kl.AllIndices(), default={9}, overrides={2: {0, 5}})
    assert c.forbidden_at(2) == frozenset({0, 5})
    assert c.forbidden_at(3) == frozenset({9})


def test_power_rule_overrides_checked_without_far_quotients():
    seq = kl.power(2)
    # near overrides still meet d_i: d_1 = 4 and d_2 = 8
    with pytest.raises(ForbiddenSetNotProper):
        kl.make_constraint(seq, kl.AllIndices(), default={0}, overrides={1: set(range(4))})
    with pytest.raises(DigitOutOfRange):
        kl.make_constraint(seq, kl.AllIndices(), default={0}, overrides={2: {8}})
    # max(U) < 2**i < d_i: valid whatever d_i is, so d_i is never built
    with _address_space_cap(256 << 20):
        c = kl.make_constraint(seq, kl.AllIndices(), default={0}, overrides={10**10: {1}})
    assert c.overrides == ((10**10, frozenset({1})),) and not kl.is_member(c, 4)


def test_fixed_bits_examples():
    odd = kl.fixed_bits({0: 1})
    assert [n for n in range(1, 10) if kl.is_member(odd, n)] == [1, 3, 5, 7, 9]

    second_zero = kl.fixed_bits({1: 0})
    assert [n for n in range(1, 8) if kl.is_member(second_zero, n)] == [1, 4, 5]

    with pytest.raises(BitOutOfRange):
        kl.fixed_bits({})
    with pytest.raises(BitOutOfRange):
        kl.fixed_bits({0: 2})
    with pytest.raises(BitOutOfRange):
        kl.fixed_bits({-1: 0})


def test_fixed_bits_members_match_pinned_digits():
    c = kl.fixed_bits({0: 1, 2: 0, 5: 1})
    seq = c.sequence
    for n in range(1, 4096):
        digits = kl.to_digits(seq, n).digits
        expected = all(
            digits[i] == v for i, v in ((0, 1), (2, 0), (5, 1)) if i < len(digits)
        )
        assert kl.is_member(c, n) == expected


def test_is_member_examples(kempner10, power2_no_zero):
    assert not kl.is_member(kempner10, 1914)
    assert kl.is_member(kempner10, 1814)
    assert kl.is_member(power2_no_zero, 5)
    # n = g_k has least digit 0, forbidden whenever 0 in U_0 and 0 in I
    for k in range(1, 5):
        assert not kl.is_member(power2_no_zero, kl.base_value(power2_no_zero.sequence, k))
    with pytest.raises(NonPositiveInput):
        kl.is_member(kempner10, 0)


def test_non_int_inputs_rejected(kempner10):
    with pytest.raises(NonPositiveInput):
        kl.is_member(kempner10, 9.5)
    with pytest.raises(NonPositiveInput):
        kl.count_upto(kempner10, 2.5)
    assert kl.is_member(kempner10, True)
    assert kl.count_upto(kempner10, True) == 1


@pytest.mark.parametrize(
    "preset", ["kempner10", "power2-no-zero", "div-log", "open-boundary"]
)
def test_membership_matches_direct_decode(preset):
    from conftest import constraint_from_preset

    c = constraint_from_preset(preset)
    for n in range(1, 5000):
        assert kl.is_member(c, n) == _decoded_ok(c, n)


def test_membership_past_the_cached_rows_can_fail(kempner10):
    # 9 * 10**70 + 1 has its forbidden 9 at position 70, past the 65 rows built so far
    assert len(kempner10._rows) == 65
    assert not kl.is_member(kempner10, 9 * 10**70 + 1)
    assert len(kempner10._rows) == 71


# One constraint per quotient rule and index-set kind, each with overrides.
# They are shared by every example, so later examples run against rows that
# earlier ones have already built.
_WALK_CONSTRAINTS = [
    kl.make_constraint(kl.constant(10), kl.AllIndices(), default={9}, overrides={0: {0, 5}, 3: {1, 2, 3}}),
    kl.make_constraint(
        kl.explicit([3, 5, 2], extend="cycle"), kl.ArithmeticIndices(1, 2), default={1}, overrides={1: {0, 4}}
    ),
    kl.make_constraint(kl.power(3), kl.PowerIndices(2), default={0}, overrides={4: {1, 2, 80}}),
    kl.make_constraint(
        kl.factorial(),
        kl.ComplementIndices(kl.ExplicitIndices(frozenset({0, 2, 5}))),
        default={0},
        overrides={1: {2}},
    ),
    kl.make_constraint(
        kl.explicit([7, 4]), kl.ExplicitIndices(frozenset({0, 1, 6, 40})), default={3}, overrides={6: {0, 1}}
    ),
]


@given(which=st.integers(0, len(_WALK_CONSTRAINTS) - 1), n=st.integers(1, 2**400))
@settings(max_examples=400)
def test_is_member_matches_definition(which, n):
    c = _WALK_CONSTRAINTS[which]
    assert kl.is_member(c, n) == _decoded_ok(c, n)


def test_is_member_validates_a_far_position_on_every_call():
    # Position 70 has quotient 3, so the default {5} is invalid there only.
    seq = kl.explicit([10] * 70 + [3], extend="cycle")
    c = kl.make_constraint(seq, kl.AllIndices(), default={5})
    assert kl.is_member(c, 1234)
    assert kl.is_member(c, 10**69 + 1)  # 70 digits: stops before position 70
    for _ in range(3):
        with pytest.raises(DigitOutOfRange, match="position 70"):
            kl.is_member(c, 10**71 + 1)
    assert not kl.is_member(c, 5 * 10**69 + 10**71)  # forbidden digit before 70
    assert kl.is_member(c, 10**69 + 1)
    # The row readers, too, raise on every call that reaches position 70
    # and on no call that stops short of it.
    for _ in range(3):
        assert kl.count_upto(c, 10**70 - 1) == 9**70 - 1
        assert kl.block_count_exact(c, 69).exact == 8 * 9**69
        assert len(kl.block_reports(c, 69)) == 70
        assert next(kl.enumerate_block(c, 69, 1)) == 10**69
        assert kl.tail_lower_estimate(c, 0, 69) > 0
        for call in (
            lambda: kl.count_upto(c, 10**70),
            lambda: kl.block_count_exact(c, 70),
            lambda: kl.block_reports(c, 70),
            lambda: next(kl.enumerate_block(c, 70, 1)),
            lambda: kl.tail_lower_estimate(c, 0, 70),
        ):
            with pytest.raises(DigitOutOfRange, match="position 70"):
                call()
    assert kl.is_member(c, 10**69 + 1)


def test_row_readers_validate_each_position_once(monkeypatch):
    seen = Counter()
    forbidden_at = kl.DigitConstraint.forbidden_at

    def counted(self, i):
        seen[i] += 1
        return forbidden_at(self, i)

    monkeypatch.setattr(kl.DigitConstraint, "forbidden_at", counted)
    c = kl.make_constraint(kl.constant(10), kl.ArithmeticIndices(0, 2), default={9}, overrides={4: {0, 3}})
    for _ in range(3):
        kl.count_upto(c, 10**90 + 12345)
        kl.block_count_exact(c, 80)
        kl.block_reports(c, 100)
        assert sum(1 for _ in kl.enumerate_block(c, 3, 10**4)) == kl.block_count_exact(c, 3).exact
        kl.tail_lower_estimate(c, 50, 110)
        assert kl.is_member(c, int("1" * 121))
    assert sorted(seen) == list(range(121))
    assert set(seen.values()) == {1}


def test_used_constraint_equals_unused():
    def build():
        return kl.make_constraint(kl.power(2), kl.AllIndices(), default={0}, overrides={2: {1, 3}})

    used, unused = build(), build()
    for n in range(1, 2000):
        kl.is_member(used, n)
    kl.is_member(used, 2**300 + 1)
    assert used == unused
    assert hash(used) == hash(unused)
    assert repr(used) == repr(unused)


def test_is_member_threads_share_one_constraint():
    import random
    import sys
    import threading

    def build():
        return kl.make_constraint(kl.factorial(), kl.AllIndices(), default={1}, overrides={3: {0, 2}})

    rng = random.Random(5)
    # Rising inputs, so every thread keeps adding rows while the others read.
    inputs = [sorted(rng.randrange(1, 2 ** rng.randint(1, 400)) for _ in range(200)) for _ in range(4)]
    def facts(c, n):
        return kl.is_member(c, n), kl.count_upto(c, n), kl.block_count_exact(c, n.bit_length() // 4)

    reference = build()
    want = [[facts(reference, n) for n in ns] for ns in inputs]
    assert [[m for m, _, _ in w] for w in want] == [[_decoded_ok(reference, n) for n in ns] for ns in inputs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            c = build()
            barrier = threading.Barrier(len(inputs))
            got = [None] * len(inputs)

            def work(j):
                barrier.wait(timeout=60)
                got[j] = [facts(c, n) for n in inputs[j]]

            threads = [threading.Thread(target=work, args=(j,)) for j in range(len(inputs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert got == want
            for i, (d, u, allowed, leading) in enumerate(c._rows):
                assert d == c.sequence.quotient(i)
                assert u == (c.forbidden_at(i) or frozenset())
                assert allowed == len(set(range(d)) - u)
                assert leading == len(set(range(1, d)) - u)
    finally:
        sys.setswitchinterval(interval)


def test_block_count_examples(kempner10, power2_no_zero):
    b1 = kl.block_count_exact(kempner10, 1)
    assert (b1.exact, b1.product_bound, b1.empty) == (72, 81, False)
    b0 = kl.block_count_exact(kempner10, 0)
    assert b0.exact == 8
    p1 = kl.block_count_exact(power2_no_zero, 1)
    assert p1.exact == 3
    assert list(kl.enumerate_block(power2_no_zero, 1, 10)) == [3, 5, 7]


def test_block_empty_condition():
    c = kl.make_constraint(kl.constant(10), kl.AllIndices(), default=set(range(1, 10)))
    b = kl.block_count_exact(c, 0)
    assert b.empty and b.exact == 0
    assert list(kl.enumerate_block(c, 0, 10)) == []

    # empty only at the overridden position
    c2 = kl.make_constraint(
        kl.constant(10), kl.AllIndices(), default={9}, overrides={2: set(range(1, 10))}
    )
    assert not kl.block_count_exact(c2, 1).empty
    assert kl.block_count_exact(c2, 2).empty
    assert kl.block_count_exact(c2, 2).exact == 0
    assert not kl.block_count_exact(c2, 3).empty


_HAND_BUILT = {
    # an override plus runs of adjacent forbidden digits on both sides of it
    "override-runs": lambda: kl.make_constraint(
        kl.constant(10), kl.AllIndices(), default={0, 1, 2, 9}, overrides={3: {5, 6, 7, 8}}
    ),
    # block 3 is empty, blocks 0..2 are not
    "empty-middle-block": lambda: kl.make_constraint(
        kl.constant(10), kl.AllIndices(), default={9}, overrides={3: set(range(1, 10))}
    ),
}


@pytest.mark.parametrize(
    "preset",
    ["kempner10", "power2-no-zero", "div-log", "open-boundary", *_HAND_BUILT],
)
def test_block_counts_match_enumeration_and_oracle(preset):
    from conftest import constraint_from_preset

    c = _HAND_BUILT[preset]() if preset in _HAND_BUILT else constraint_from_preset(preset)
    k = 0
    while kl.base_value(c.sequence, k + 1) <= 20000:
        block = kl.block_count_exact(c, k)
        members = list(kl.enumerate_block(c, k, 10**6))
        assert len(members) == block.exact
        assert members == sorted(members)
        g_lo = kl.base_value(c.sequence, k)
        g_hi = kl.base_value(c.sequence, k + 1)
        assert all(g_lo <= m < g_hi for m in members)
        assert all(kl.is_member(c, m) for m in members)
        assert members == kl.oracle_members(c, g_lo, g_hi - 1)
        # a budget of exactly |A_k| completes; one less stops at the boundary
        assert list(kl.enumerate_block(c, k, block.exact)) == members
        if block.exact:
            got = []
            with pytest.raises(BudgetExceeded) as exc_info:
                for value in kl.enumerate_block(c, k, block.exact - 1):
                    got.append(value)
            assert got == members[:-1]
            assert exc_info.value.produced == block.exact - 1
        k += 1
    if preset == "empty-middle-block":
        assert k > 3 and kl.block_count_exact(c, 3).empty


def test_count_within_product_bracket_small_blocks(kempner10, power2_no_zero, div_log):
    for c in (kempner10, power2_no_zero, div_log):
        for k in range(12):
            b = kl.block_count_exact(c, k)
            if not b.empty:
                assert b.exact <= b.product_bound <= 2 * b.exact


def test_count_upto_examples(kempner10):
    assert kl.count_upto(kempner10, 99) == 80
    assert kl.count_upto(kempner10, 500) == 405
    assert kl.count_upto(kempner10, 0) == 0


@pytest.mark.parametrize(
    "preset",
    ["kempner10", "power2-no-zero", "div-log", "open-boundary", "fixed-bits", "base-g-no-c"],
)
def test_count_upto_matches_running_oracle(preset):
    from conftest import constraint_from_preset

    c = constraint_from_preset(preset)
    running = 0
    for n in range(1, 3000):
        if _decoded_ok(c, n):
            running += 1
        assert kl.count_upto(c, n) == running


def test_count_upto_skips_empty_middle_block():
    # position 3 forbids every nonzero digit: no 4-digit members, but digit 0
    # at position 3 stays legal inside longer members
    import bisect

    c = kl.make_constraint(
        kl.constant(10), kl.AllIndices(), default={9}, overrides={3: set(range(1, 10))}
    )
    assert kl.block_count_exact(c, 3).exact == 0
    members = kl.oracle_members(c, 1, 100200)
    probes = list(range(990, 1020)) + list(range(9990, 10100)) + list(range(99990, 100200))
    for n in probes:
        assert kl.count_upto(c, n) == bisect.bisect_right(members, n)


def test_count_upto_block_consistency(kempner10, power2_no_zero, div_log):
    for c in (kempner10, power2_no_zero, div_log):
        for K in range(1, 13):
            g_K = kl.base_value(c.sequence, K)
            total = sum(kl.block_count_exact(c, k).exact for k in range(K))
            assert kl.count_upto(c, g_K - 1) == total


@given(n=st.integers(min_value=0, max_value=10**12))
@settings(max_examples=200)
def test_count_upto_monotone_and_member_steps(n):
    from conftest import constraint_from_preset

    c = constraint_from_preset("kempner10")
    a = kl.count_upto(c, n)
    b = kl.count_upto(c, n + 1)
    assert b - a == (1 if kl.is_member(c, n + 1) else 0)


def test_enumerate_block_budget(kempner10):
    gen = kl.enumerate_block(kempner10, 2, 10)
    got = []
    with pytest.raises(BudgetExceeded) as exc_info:
        for value in gen:
            got.append(value)
    assert len(got) == 10
    assert exc_info.value.produced == 10

    # exactly-at-budget streams complete without raising
    assert len(list(kl.enumerate_block(kempner10, 1, 72))) == 72


@contextmanager
def _address_space_cap(extra_bytes: int):
    """Lower this process's address-space limit to its current size plus
    extra_bytes, so an O(d_k) allocation fails fast with MemoryError
    instead of exhausting the machine."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        used = int(fh.read().split()[0]) * resource.getpagesize()
    cap = used + extra_bytes
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _first_five_then_budget(c):
    got = []
    with pytest.raises(BudgetExceeded) as exc_info:
        for value in kl.enumerate_block(c, 30, 5):
            got.append(value)
    assert len(got) == 5 and exc_info.value.produced == 5
    assert got == sorted(got) and all(kl.is_member(c, m) for m in got)


@pytest.mark.parametrize(
    "call",
    [
        _first_five_then_budget,
        lambda c: kl.block_count_exact(c, 30),
        lambda c: kl.tail_lower_estimate(c, 0, 30),
    ],
    ids=["enumerate_block", "block_count_exact", "tail_lower_estimate"],
)
def test_deep_power_blocks_need_no_quotient_sized_memory(power2_no_zero, call):
    # d_30 = 2**31 under the power rule: nothing here may allocate per digit value
    with _address_space_cap(1 << 30):
        tracemalloc.start()
        try:
            call(power2_no_zero)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 1 << 20


def test_is_finite_set_certificates(kempner10, power2_no_zero, full_forbidden_base10):
    assert kl.is_finite_set(full_forbidden_base10) == kl.FINITE
    assert kl.is_finite_set(kempner10) == kl.INFINITE
    assert kl.is_finite_set(power2_no_zero) == kl.INFINITE

    # cofinite index set whose default turns full beyond the overrides
    c = kl.make_constraint(
        kl.constant(4),
        kl.ComplementIndices(kl.ExplicitIndices(frozenset({1}))),
        default={1, 2, 3},
        overrides={0: {2}},
    )
    assert kl.is_finite_set(c) == kl.FINITE
    # same shape but a proper default stays infinite
    c2 = kl.make_constraint(
        kl.constant(4),
        kl.ComplementIndices(kl.ExplicitIndices(frozenset({1}))),
        default={2, 3},
    )
    assert kl.is_finite_set(c2) == kl.INFINITE
    # sparse index set can never make the set finite
    c3 = kl.make_constraint(kl.constant(2), kl.PowerIndices(2), default={1})
    assert kl.is_finite_set(c3) == kl.INFINITE


def test_every_preset_matches_oracle_at_scale():
    import bisect

    from conftest import constraint_from_preset
    from kempner_lab.presets import preset_names

    limit = 10**5
    for name in preset_names():
        c = constraint_from_preset(name)
        members = kl.oracle_members(c, 1, limit)
        assert kl.count_upto(c, limit) == len(members)
        for x in range(limit // 16, limit + 1, limit // 16):
            assert kl.count_upto(c, x) == bisect.bisect_right(members, x), (name, x)


def test_is_finite_set_cycling_quotients():
    # a cycle is eventually-full only when every cycled radix agrees
    same = kl.make_constraint(
        kl.explicit([3, 3], extend="cycle"), kl.AllIndices(), default={1, 2}
    )
    assert kl.is_finite_set(same) == kl.FINITE
    mixed = kl.make_constraint(
        kl.explicit([3, 4], extend="cycle"), kl.AllIndices(), default={1, 2}
    )
    assert kl.is_finite_set(mixed) == kl.INFINITE
    tail = kl.make_constraint(
        kl.explicit([4, 3], extend="repeat-last"), kl.AllIndices(), default={1, 2}
    )
    assert kl.is_finite_set(tail) == kl.FINITE


def test_negative_indices_rejected(kempner10):
    from kempner_lab.errors import InputOutOfRange

    with pytest.raises(InputOutOfRange):
        kl.block_count_exact(kempner10, -1)
    with pytest.raises(InputOutOfRange):
        kl.base_value(kempner10.sequence, -2)
    with pytest.raises(InputOutOfRange):
        list(kl.enumerate_block(kempner10, 1, -5))


def test_finite_set_members_actually_stop():
    c = kl.make_constraint(
        kl.constant(3),
        kl.AllIndices(),
        default={1, 2},
        overrides={0: {1}, 1: {2}},
    )
    # members must have digit0 != 1, digit1 != 2, all higher digits = 0
    members = [n for n in range(1, 3**6) if kl.is_member(c, n)]
    assert members == kl.oracle_members(c, 1, 3**6 - 1)
    assert kl.is_finite_set(c) == kl.FINITE
    assert max(members) < kl.base_value(c.sequence, 2)


# Constant, cyclic, power and factorial rules; a default drawn below the
# smallest quotient can forbid every nonzero digit somewhere, which empties
# those blocks (or, on every position, the whole set).
_RULES = st.sampled_from([
    kl.constant(2),
    kl.constant(3),
    kl.constant(10),
    kl.explicit([2, 3, 5], extend="cycle"),
    kl.explicit([3, 2], extend="cycle"),
    kl.power(2),
    kl.power(3),
    kl.factorial(),
])
_SMALL_INDEX_SETS = st.sampled_from([
    kl.AllIndices(),
    kl.ArithmeticIndices(0, 2),
    kl.ArithmeticIndices(1, 3),
    kl.ExplicitIndices(frozenset({1, 2})),
])


@st.composite
def _small_constraints(draw):
    seq = draw(_RULES)
    smallest = min(seq.quotient(i) for i in range(constraints._VALIDATION_HORIZON + 1))
    default = draw(st.frozensets(st.integers(0, smallest - 1), min_size=1, max_size=smallest - 1))
    return kl.make_constraint(seq, draw(_SMALL_INDEX_SETS), default=default)


def _enumerate(c, k, budget):
    """(members yielded, BudgetExceeded.produced or None)."""
    got = []
    try:
        for value in kl.enumerate_block(c, k, budget):
            got.append(value)
    except BudgetExceeded as exc:
        return got, exc.produced
    return got, None


@settings(deadline=None, max_examples=60)
@given(c=_small_constraints(), cap=st.sampled_from([1, 2, 7, constraints._BATCH_CAP]))
def test_enumerate_block_matches_oracle_members(c, cap):
    with mock.patch.object(constraints, "_BATCH_CAP", cap):
        k = 0
        while kl.base_value(c.sequence, k + 1) <= 20000:
            members = kl.oracle_members(
                c, kl.base_value(c.sequence, k), kl.base_value(c.sequence, k + 1) - 1
            )
            n = len(members)
            for budget in {0, n - 1, n, n + 1} - {-1}:
                assert _enumerate(c, k, budget) == (
                    members[:budget],
                    budget if budget < n else None,
                )
            k += 1


@settings(deadline=None, max_examples=60)
@given(
    c=_small_constraints(),
    cap=st.sampled_from([1, 7, constraints._BATCH_CAP]),
    n_max=st.integers(1, 5000),
    data=st.data(),
)
def test_partial_sum_matches_oracle_sum(c, cap, n_max, data):
    members = kl.oracle_members(c, 1, n_max)
    budget = data.draw(st.none() | st.integers(0, len(members) + 2))
    kept = members if budget is None else members[:budget]
    with mock.patch.object(constraints, "_BATCH_CAP", cap):
        r = kl.partial_sum_exact(c, n_max, budget)
    # truncated: some member <= n_max was left out, nothing else
    assert (r.terms, r.truncated) == (len(kept), len(kept) < len(members))
    assert r.value == (kl.oracle_sum(c, 1, kept[-1]) if kept else 0)


def test_deep_block_first_members_in_small_state(power2_no_zero):
    # d_60 = 2**61: the batch table and the odometer hold O(k + cap) values.
    k = 60
    base = sum(2 ** (i * (i + 1) // 2) for i in range(k + 1))  # every digit 1
    with _address_space_cap(1 << 30):
        tracemalloc.start()
        try:
            got, produced = _enumerate(power2_no_zero, k, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert produced == 5
    assert got == [base + off for off in (0, 2, 4, 8, 10)]
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "call",
    [
        lambda c: kl.count_upto(c, 0.0),
        lambda c: kl.count_upto(c, 9.5),
        lambda c: kl.block_count_exact(c, 1.0),
        lambda c: list(kl.enumerate_block(c, 1.0, 10)),
        lambda c: list(kl.enumerate_block(c, 1, 10.0)),
        lambda c: kl.count_upto(c, -1),
        lambda c: list(kl.enumerate_block(c, -1, 10)),
    ],
)
def test_non_int_inputs_raise_library_errors(kempner10, call):
    with pytest.raises((NonPositiveInput, InputOutOfRange)):
        call(kempner10)


def test_bool_inputs_still_accepted(kempner10):
    assert kl.count_upto(kempner10, True) == 1
    assert kl.block_count_exact(kempner10, False).exact == 8
    assert list(kl.enumerate_block(kempner10, False, 8)) == list(range(1, 9))
    assert _enumerate(kempner10, False, True) == ([1], 1)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: kl.make_constraint(kl.constant(10), kl.AllIndices(), default={1.5}),
            DigitOutOfRange,
            "forbidden digit must be an integer, got 1.5",
        ),
        (
            lambda: kl.make_constraint(kl.constant(10), kl.AllIndices(), default={9}, overrides={2: [2.0]}),
            DigitOutOfRange,
            "forbidden digit must be an integer, got 2.0",
        ),
        (
            lambda: kl.make_constraint(kl.constant(10), kl.AllIndices(), default={9}, overrides={2.0: [2]}),
            InputOutOfRange,
            "override position must be an integer, got 2.0",
        ),
        (lambda: kl.fixed_bits({0: 1.0}), BitOutOfRange, "bit value at position 0 must be an integer, got 1.0"),
        (lambda: kl.fixed_bits({1.5: 1}), BitOutOfRange, "bit position must be an integer, got 1.5"),
    ],
)
def test_constraint_constructors_reject_non_int_parameters(call, error, message):
    with pytest.raises(error, match=message):
        call()


# Records built directly, each naming a state no certificate covers.
_TEN = kl.constant(10)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: kl.DigitConstraint(_TEN, kl.AllIndices(), frozenset({-1})), DigitOutOfRange),
        (lambda: kl.DigitConstraint(_TEN, kl.AllIndices(), None), EmptyForbiddenSet),
        (lambda: kl.DigitConstraint(_TEN, kl.AllIndices(), frozenset()), EmptyForbiddenSet),
        (lambda: kl.DigitConstraint(_TEN, kl.AllIndices(), frozenset(range(10))), ForbiddenSetNotProper),
        (
            lambda: kl.DigitConstraint(
                _TEN, kl.ExplicitIndices(frozenset({1})), frozenset({1}), ((5, frozenset({3})),)
            ),
            OverrideOutsideIndexSet,
        ),
        (
            lambda: kl.DigitConstraint(
                _TEN, kl.AllIndices(), frozenset({9}), ((3, frozenset({1})), (3, frozenset({2})))
            ),
            InputOutOfRange,
        ),
        (lambda: kl.QuotientSequence("constant", d=1), QuotientTooSmall),
        (lambda: kl.QuotientSequence("explicit", values=(10, 1)), QuotientTooSmall),
        (lambda: kl.QuotientSequence("bogus"), InputOutOfRange),
        (lambda: kl.QuotientSequence("explicit", values=(10,), extend="zigzag"), InputOutOfRange),
        (lambda: kl.QuotientSequence("constant", d=10, base=3), InputOutOfRange),
        (lambda: kl.ExplicitIndices([3, 3]), InputOutOfRange),
        (lambda: kl.DigitConstraint(_TEN, kl.AllIndices(), frozenset({9}), [(3, frozenset({1}))]), InputOutOfRange),
    ],
    ids=[
        "negative-default", "no-default", "empty-default", "full-default", "override-outside",
        "repeated-override", "d-1", "explicit-1", "bogus-kind", "bogus-extend", "foreign-field",
        "explicit-indices-list", "overrides-list",
    ],
)
def test_directly_built_records_reject_uncertified_states(build, error):
    with _address_space_cap(1 << 28), pytest.raises(error):
        build()


# Half the sets fit every rule below; the rest may be empty, hold -1 or pass d_i.
_DIGIT_SETS = st.frozensets(st.integers(0, 1), min_size=1) | st.frozensets(st.integers(-1, 12), max_size=4)
_DIRECT_RULES = st.one_of(
    st.builds(lambda d: ("constant", {"d": d}), st.integers(0, 12)),
    st.builds(
        lambda values, extend: ("explicit", {"values": tuple(values), "extend": extend}),
        st.lists(st.integers(1, 12), max_size=3),
        st.sampled_from(["repeat-last", "cycle", "zigzag"]),
    ),
    st.builds(lambda base: ("power", {"base": base}), st.integers(0, 3)),
    st.just(("factorial", {})),
    st.sampled_from([("bogus", {}), ("constant", {"d": 10, "base": 3})]),
)
_DIRECT_INDEX_SETS = st.sampled_from([
    kl.AllIndices(),
    kl.ArithmeticIndices(1, 2),
    kl.ExplicitIndices(frozenset({1, 2})),
    kl.PowerIndices(2),
    kl.ComplementIndices(kl.ExplicitIndices(frozenset({0}))),
    kl.ComplementIndices(kl.AllIndices()),
])


@settings(deadline=None, max_examples=200)
@given(
    rule=_DIRECT_RULES,
    index_set=_DIRECT_INDEX_SETS,
    default=st.none() | _DIGIT_SETS,
    overrides=st.just([])
    | st.dictionaries(st.integers(-1, 6), _DIGIT_SETS, max_size=2).map(lambda m: sorted(m.items()))
    | st.lists(st.tuples(st.integers(-1, 6), _DIGIT_SETS), max_size=3),  # unsorted, repeated
    n=st.integers(1, 2000),
)
@example(rule=("constant", {"d": 10}), index_set=kl.AllIndices(), default=frozenset({-1}), overrides=[], n=100)
def test_directly_built_records_are_rejected_or_sound(rule, index_set, default, overrides, n):
    # Each field tuple is either refused or gives a record the oracle agrees with.
    kind, fields = rule
    with _address_space_cap(1 << 28):
        try:
            c = kl.DigitConstraint(kl.QuotientSequence(kind, **fields), index_set, default, tuple(overrides))
        except (kl.KempnerLabError, TypeError):
            return
        assert kl.count_upto(c, n) == len(kl.oracle_members(c, 1, n))
        assert kl.classify(c).verdict in {kl.CONVERGENT, kl.DIVERGENT, kl.FINITE_SET, kl.INCONCLUSIVE}
    assert kl.make_constraint(c.sequence, index_set, default, dict(overrides)) == c

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with output visible:

    pytest -v -s tests/test_acceptance.py

Every check is exact (integer or rational comparison); randomized parts
use fixed seeds.  The slow criteria assert their stated runtime bounds.
"""

import bisect
import random
import time
from fractions import Fraction

import pytest

import kempner_lab as kl
import kempner_lab.cli as cli
from conftest import constraint_from_preset
from kempner_lab.errors import BudgetExceeded
from kempner_lab.presets import preset_names

BUDGET = 10**6


def _pass(number: int, message: str) -> None:
    print(f"\n[acceptance] criterion {number}: PASS — {message}")


def _fold_reciprocals(values) -> Fraction:
    """Balanced exact fold, local to the acceptance suite."""
    items = [Fraction(1, v) for v in values]
    if not items:
        return Fraction(0)
    while len(items) > 1:
        items = [
            items[i] + items[i + 1] if i + 1 < len(items) else items[i]
            for i in range(0, len(items), 2)
        ]
    return items[0]


def test_c01_round_trip_and_uniqueness():
    started = time.monotonic()
    families = {
        "constant-10": kl.constant(10),
        "constant-2": kl.constant(2),
        "power-2": kl.power(2),
        "factorial": kl.factorial(),
    }
    for name, seq in families.items():
        to_digits = kl.to_digits
        from_digits = kl.from_digits
        boundaries = [kl.base_value(seq, k) for k in range(24)]
        for n in range(1, 10**6 + 1):
            numeral = to_digits(seq, n)
            if from_digits(numeral) != n:
                pytest.fail(f"round trip broke at n={n} for {name}")
            width = len(numeral.digits)
            if not boundaries[width - 1] <= n < boundaries[width]:
                pytest.fail(f"digit count of n={n} misses its block in {name}")
        # round trip on all of [1, 10**6] makes to_digits injective there
        # (from_digits is a left inverse); also spot-check distinctness
        sample = {kl.to_digits(seq, n).digits for n in range(1, 10**5 + 1)}
        assert len(sample) == 10**5, f"duplicate digit vectors in {name}"
    elapsed = time.monotonic() - started
    assert elapsed < 30, f"criterion 1 runtime {elapsed:.1f}s exceeds 30s"
    _pass(1, f"4 families x 10^6 round trips, injective; {elapsed:.1f}s")


def test_c02_block_count_bracket_and_emptiness():
    started = time.monotonic()
    for name in ("kempner10", "power2-no-zero", "div-log"):
        c = constraint_from_preset(name)
        for k in range(11):
            block = kl.block_count_exact(c, k)
            assert not block.empty, f"{name} k={k} unexpectedly empty"
            assert block.exact <= block.product_bound <= 2 * block.exact, (
                f"{name} k={k}: count {block.exact} outside "
                f"[{block.product_bound}/2, {block.product_bound}]"
            )

    # emptiness holds exactly when the leading position forbids all of
    # [1, d_k - 1]
    all_full = kl.make_constraint(kl.constant(10), kl.AllIndices(), default=set(range(1, 10)))
    one_full = kl.make_constraint(
        kl.constant(10), kl.AllIndices(), default={9}, overrides={3: set(range(1, 10))}
    )
    binary_edge = kl.make_constraint(
        kl.power(2), kl.AllIndices(), default={0}, overrides={0: {1}}
    )
    for k in range(11):
        assert kl.block_count_exact(all_full, k).empty
        assert kl.block_count_exact(all_full, k).exact == 0
        assert kl.block_count_exact(one_full, k).empty == (k == 3)
        assert kl.block_count_exact(binary_edge, k).empty == (k == 0)
    elapsed = time.monotonic() - started
    assert elapsed < 5, f"criterion 2 runtime {elapsed:.1f}s exceeds 5s"
    _pass(2, f"product bracket holds for k<=10; emptiness iff leading digits all forbidden; {elapsed:.1f}s")


def test_c03_oracle_agreement():
    started = time.monotonic()
    limit = 10**6
    for name in ("kempner10", "power2-no-zero", "div-log"):
        c = constraint_from_preset(name)
        seq = c.sequence
        members = kl.oracle_members(c, 1, limit)

        k = 0
        while kl.base_value(seq, k + 1) <= limit:
            g_lo = kl.base_value(seq, k)
            g_hi = kl.base_value(seq, k + 1)
            i = bisect.bisect_left(members, g_lo)
            j = bisect.bisect_right(members, g_hi - 1)
            report = kl.block_bracket(c, k)
            assert j - i == report.count, f"{name} block {k} count mismatch"
            if j > i:
                total = kl.oracle_sum(c, g_lo, g_hi - 1)
                assert report.bracket_lo <= total <= report.bracket_hi, (
                    f"{name} block {k} sum outside bracket"
                )
            k += 1

        rng = random.Random(20260808)
        for _ in range(10**4):
            n = rng.randint(1, limit)
            assert kl.count_upto(c, n) == bisect.bisect_right(members, n), (
                f"{name}: count_upto({n}) disagrees with the oracle"
            )
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"criterion 3 runtime {elapsed:.1f}s exceeds 120s"
    _pass(3, f"3 presets: block counts, bracketed sums, 10^4 random counts; {elapsed:.1f}s")


def test_c04_kempner_block_counts():
    c = constraint_from_preset("kempner10")
    for k in range(11):
        assert kl.block_count_exact(c, k).exact == 8 * 9**k
    for k in range(5):
        g_lo, g_hi = 10**k, 10 ** (k + 1)
        assert len(kl.oracle_members(c, g_lo, g_hi - 1)) == 8 * 9**k
    _pass(4, "kempner block counts equal 8*9^k for k<=10, oracle-checked for k<=4")


def _bracket_with_enclosure(c, k):
    report = kl.block_bracket(c, k)
    d_k = c.sequence.quotient(k)
    if report.count == 0:
        assert report.bracket_lo == report.bracket_hi == 0
        return
    assert report.bracket_hi / report.bracket_lo == d_k
    if report.count <= BUDGET:
        members = list(kl.enumerate_block(c, k, BUDGET))
        assert len(members) == report.count
        total = _fold_reciprocals(members)
        assert report.bracket_lo <= total <= report.bracket_hi
        return
    # Block too large to enumerate under the element budget: bound the true
    # sum by an exact enclosure built from a prefix.  Members are ascending,
    # the rest lie in (last, g_{k+1}), so the remainder is between
    # (count - m)/g_{k+1} and (count - m)/last.
    prefix_size = 10**4
    prefix = []
    gen = kl.enumerate_block(c, k, prefix_size)
    try:
        for value in gen:
            prefix.append(value)
    except BudgetExceeded:
        pass
    assert len(prefix) == prefix_size
    rest = report.count - prefix_size
    prefix_sum = _fold_reciprocals(prefix)
    enclosure_lo = prefix_sum + Fraction(rest, report.g_hi)
    enclosure_hi = prefix_sum + Fraction(rest, prefix[-1])
    assert report.bracket_lo <= enclosure_lo <= enclosure_hi <= report.bracket_hi


def test_c05_bracket_containment_and_ratio():
    for name in preset_names():
        c = constraint_from_preset(name)
        for k in range(7):
            _bracket_with_enclosure(c, k)
    _pass(5, "block sums inside exact brackets, hi/lo = d_k, all presets k<=6")


def test_c06_upper_tail_dominates():
    c = constraint_from_preset("kempner10")
    seq = c.sequence
    below_g1 = kl.partial_sum_exact(c, kl.base_value(seq, 1) - 1, budget=BUDGET).value
    for K in range(1, 6):
        result = kl.partial_sum_exact(c, kl.base_value(seq, K + 1) - 1, budget=BUDGET)
        assert not result.truncated
        window_sum = result.value - below_g1
        bound = kl.tail_upper_estimate(c, 1, K)
        assert window_sum <= bound, f"K={K}: {window_sum} > {bound}"
    _pass(6, "sum over [g_1, g_{K+1}-1] <= d*sum (1-1/d)^count(k), K<=5")


def test_c07_divergence_margin_constants():
    c = constraint_from_preset("power2-no-zero")
    result = kl.divergence_by_unbounded_quotients(c)
    assert result.verdict == kl.DIVERGENT
    assert result.margin.threshold_index == 2, "tail first drops below 1/2 at position 2"
    assert result.margin.delta == Fraction(3, 16)

    for k in range(7):
        target = kl.tail_lower_estimate(c, k, k)
        report = kl.block_bracket(c, k)
        if report.count <= BUDGET:
            block_sum = _fold_reciprocals(kl.enumerate_block(c, k, BUDGET))
            assert block_sum >= target, f"k={k}: enumerated sum below (1/2)*ratio product"
        else:
            # exact counted route: block_sum >= count/g_{k+1} >= target
            assert report.bracket_lo >= target
    _pass(7, "i0=2, delta=3/16; per-block sums >= (1/2)*allowed-ratio product, k<=6")


def test_c08_classifier_verdicts():
    assert kl.classify(constraint_from_preset("kempner10")).verdict == kl.CONVERGENT

    power2 = kl.classify(constraint_from_preset("power2-no-zero"))
    assert power2.verdict == kl.DIVERGENT

    div_log_cfg = constraint_from_preset("div-log")
    div_log = kl.classify(div_log_cfg, delta=Fraction(2, 5))
    assert div_log.verdict == kl.DIVERGENT
    assert div_log.rule_fired == kl.RULE_INDEX_SPARSITY
    assert div_log.margin.delta == Fraction(2, 5)

    assert kl.classify(constraint_from_preset("open-boundary")).verdict == kl.INCONCLUSIVE

    full = kl.make_constraint(kl.constant(10), kl.AllIndices(), default=set(range(1, 10)))
    assert kl.classify(full).verdict == kl.FINITE_SET
    _pass(8, "verdicts: convergent / divergent / divergent(2/5) / inconclusive / finite-set")


def test_c09_weierstrass_product_bound():
    rng = random.Random(1914)
    for trial in range(1000):
        length = rng.randrange(0, 24)
        xs = [
            Fraction(rng.randrange(0, 200), rng.randrange(200, 1000))
            for _ in range(length)
        ]
        bound = kl.weierstrass_lower(xs)
        product = Fraction(1)
        for x in xs:
            product *= 1 - x
        assert product >= bound, f"trial {trial}: {product} < {bound}"
    _pass(9, "1000 exact random trials: prod(1-x_i) >= 1 - sum(x_i)")


def test_c10_density_trend():
    c = constraint_from_preset("kempner10")
    values = [kl.density(c, 10**j) for j in range(1, 7)]
    assert all(a > b for a, b in zip(values, values[1:])), values
    assert kl.density(c, 999) == Fraction(728, 999)
    _pass(10, "kempner density strictly decreasing over 10^1..10^6; density(999)=728/999")


def test_c11_cli_determinism(capsys):
    for name in preset_names():
        outputs = []
        for _ in range(2):
            code = cli.main(["blocks", "--max-k", "8", "--preset", name, "--format", "csv"])
            captured = capsys.readouterr()
            assert code == 0
            outputs.append(captured.out)
        assert outputs[0] == outputs[1], f"{name}: CSV output differs between runs"
        assert outputs[0].startswith(
            "k,g_k,g_k1,count,bracket_lo_num,bracket_lo_den,bracket_hi_num,bracket_hi_den,"
            "cum_lo_num,cum_lo_den,cum_hi_num,cum_hi_den\n"
        )
    _pass(11, "blocks --max-k 8 CSV byte-identical across consecutive runs, all presets")

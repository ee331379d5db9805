"""The four workloads: their inputs, operations and output checks.

Each ``build_*`` function is the workload's set-up: it parses the preset
and config documents, builds the constraints, warms the program's
caches, and returns the fixed list of operations one pass runs.  An
operation's ``call`` looks the program's functions up when it runs, so
a tracer installed later sees every call; its ``check`` returns None for
a correct output or a line saying what is wrong.  Inputs come only from
``rng``; sizes vary little between seeds, so that a pass costs about the
same whatever the seed.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from types import SimpleNamespace

import checks

# Full-run sizes, and the small sizes of the quick mode.
SIZES = {
    "full": {
        "digits_ints": 8000,
        "count_digits": (450, 600),
        "count_nines": 400,
        "density_digits": 500,
        "reports_k10": 500,
        "reports_p2": 20,
        "tail_p2": 19,
        "arith_configs": 6,
        "power_index_configs": 6,
        "sum_k10": 120_000,
        "sum_bg": 80_000,
        "deep_blocks": (16, 17, 18),
        "deep_budget": 800,
        "verify_upto": 100_000,
        "cli_sum_upto": 20_000,
    },
    "quick": {
        "digits_ints": 100,
        "count_digits": (40, 60),
        "count_nines": 30,
        "density_digits": 40,
        "reports_k10": 40,
        "reports_p2": 10,
        "tail_p2": 10,
        "arith_configs": 2,
        "power_index_configs": 2,
        "sum_k10": 3_000,
        "sum_bg": 2_000,
        "deep_blocks": (8, 9),
        "deep_budget": 50,
        "verify_upto": 2_000,
        "cli_sum_upto": 1_000,
    },
}

DELTA_GRID = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 10), Fraction(1, 20))

K10 = checks.Spec(lambda i: 10, lambda i: frozenset({9}))
P2 = checks.Spec(lambda i: 2 ** (i + 1), lambda i: frozenset({0}))


class Op:
    __slots__ = ("label", "call", "check")

    def __init__(self, label: str, call, check):
        self.label = label
        self.call = call
        self.check = check


def _expect(ok: bool, what: str):
    return None if ok else what


def _preset(P, name: str, params: dict | None = None):
    return P.config.parse_dict(P.presets.preset_config(name, params)).constraint


def _random_int(rng, ndigits: int) -> int:
    return rng.randrange(10 ** (ndigits - 1), 10**ndigits)


_members_avoiding = functools.lru_cache(maxsize=None)(checks.members_avoiding)
_reciprocal_sum_mod = functools.lru_cache(maxsize=None)(checks.reciprocal_sum_mod)


def _first_members(P, constraint, k: int, budget: int) -> list[int]:
    members = []
    try:
        for a in P.kl.enumerate_block(constraint, k, budget):
            members.append(a)
    except P.kl.BudgetExceeded:
        pass
    return members


# --- digits -----------------------------------------------------------------

# An arithmetic-index constraint over the factorial rule, with overrides.
ARITH_DOC = {
    "sequence": {"kind": "factorial"},
    "constraint": {
        "index_set": {"kind": "arithmetic", "first": 1, "step": 3},
        "forbidden": {"default": [0], "overrides": {"4": [1, 2], "7": [0, 5]}},
    },
}
ARITH_OVERRIDES = {4: frozenset({1, 2}), 7: frozenset({0, 5})}
ARITH_SPEC = checks.Spec(
    lambda i: i + 2,
    lambda i: (ARITH_OVERRIDES.get(i, frozenset({0})) if i >= 1 and (i - 1) % 3 == 0 else None),
)


def build_digits(P, rng, size: dict) -> list[Op]:
    """Round trips under the four quotient rules and membership under
    four constraints, over integers of 1 to 30 decimal digits."""
    ints = [_random_int(rng, rng.randint(1, 30)) for _ in range(size["digits_ints"])]
    kl = P.kl
    rules = {
        "constant-10": kl.constant(10),
        "constant-2": kl.constant(2),
        "power-2": kl.power(2),
        "factorial": kl.factorial(),
    }
    constraints = {
        "kempner10": (_preset(P, "kempner10"), K10),
        "div-log": (
            _preset(P, "div-log"),
            checks.Spec(lambda i: 2, lambda i: frozenset({0}) if checks.is_power_of(i, 4) else None),
        ),
        "power2-no-zero": (_preset(P, "power2-no-zero"), P2),
        "arith-overrides": (P.config.parse_dict(ARITH_DOC).constraint, ARITH_SPEC),
    }
    for seq in rules.values():
        kl.base_value(seq, 128)
        kl.to_digits(seq, max(ints))

    def round_trips(seq):
        to_digits, from_digits = P.kl.to_digits, P.kl.from_digits
        out = []
        for n in ints:
            numeral = to_digits(seq, n)
            out.append((numeral.digits, from_digits(numeral)))
        return out

    # Every pass sees the same inputs, so the reference results are
    # computed once and each pass's output is compared with them.
    reference: dict[str, list] = {}

    def check_round_trips(name, out):
        if name not in reference:
            quotient = checks.QUOTIENTS[name]
            reference[name] = [(checks.digits(n, quotient), n) for n in ints]
        if out == reference[name]:
            return None
        for n, (ds, back), want in zip(ints, out, reference[name]):
            if (ds, back) != want:
                return f"{name}: digits of {n} are {ds}, round trip gives {back}"
        return f"{name}: {len(out)} results for {len(ints)} inputs"

    def members(constraint):
        is_member = P.kl.is_member
        return [is_member(constraint, n) for n in ints]

    def check_members(name, spec, out):
        if name not in reference:
            reference[name] = [spec.is_member(n) for n in ints]
        if out == reference[name]:
            return None
        bad = [n for n, got, w in zip(ints, out, reference[name]) if got != w]
        return f"{name}: is_member wrong at {bad[:3]} ({len(out)} results)"

    ops = [
        Op(f"round-trip:{name}", lambda s=seq: round_trips(s), lambda out, n=name: check_round_trips(n, out))
        for name, seq in rules.items()
    ]
    ops += [
        Op(f"is_member:{name}", lambda c=c: members(c), lambda out, n=name, s=spec: check_members(n, s, out))
        for name, (c, spec) in constraints.items()
    ]
    return ops


# --- counts -----------------------------------------------------------------


def _check_k10_reports(reports, max_k: int):
    if len(reports) != max_k + 1:
        return f"kempner10: {len(reports)} block reports"
    g, count = 1, 8
    for r in reports:
        if (r.g_lo, r.g_hi, r.count) != (g, 10 * g, count):
            return f"kempner10: block {r.k} is {(r.g_lo, r.g_hi, r.count)}"
        if r.bracket_lo != Fraction(count, 10 * g) or r.bracket_hi != Fraction(count, g):
            return f"kempner10: block {r.k} bracket"
        g, count = 10 * g, 9 * count
    # sum over k <= K of 8 * 9**k / 10**(k+1) = 8 * (1 - (9/10)**(K+1))
    decay = 1 - Fraction(9 ** (max_k + 1), 10 ** (max_k + 1))
    last = reports[-1]
    if last.cumulative_lo != 8 * decay or last.cumulative_hi != 80 * decay:
        return "kempner10: cumulative brackets differ from the closed form"
    return _expect(
        last.cumulative_lo < checks.KEMPNER10_TOTAL < last.cumulative_hi,
        "kempner10: cumulative bracket misses the Kempner total",
    )


def _p2_counts(max_k: int) -> list[int]:
    out, prod = [], 1
    for i in range(max_k + 1):
        prod *= 2 ** (i + 1) - 1
        out.append(prod)
    return out


def _check_p2_reports(reports, max_k: int):
    counts = _p2_counts(max_k)
    gs = checks.place_values(P2.quotient, max_k + 1)
    cum_lo = cum_hi = Fraction(0)
    for r, count in zip(reports, counts):
        cum_lo += Fraction(count, gs[r.k + 1])
        cum_hi += Fraction(count, gs[r.k])
        if (r.g_lo, r.g_hi, r.count) != (gs[r.k], gs[r.k + 1], count):
            return f"power2-no-zero: block {r.k} is {(r.g_lo, r.g_hi, r.count)}"
        if (r.cumulative_lo, r.cumulative_hi) != (cum_lo, cum_hi):
            return f"power2-no-zero: cumulative bracket at block {r.k}"
    return _expect(len(reports) == max_k + 1, f"power2-no-zero: {len(reports)} block reports")


def _tail_lower(k1: int, max_k: int) -> Fraction:
    """(1/2) * sum over k1 <= k <= K of prod over i <= k of (1 - 2**-(i+1))."""
    prod, total = Fraction(1), Fraction(0)
    for k in range(max_k + 1):
        prod *= 1 - Fraction(1, 2 ** (k + 1))
        if k >= k1:
            total += prod
    return total / 2


def _check_convergent(result, d: int, first: int, step: int):
    """Verdict and k0 against the exact convergence predicate."""
    if result.verdict != "convergent":
        return f"verdict {result.verdict}, expected convergent"
    k0, delta = result.margin.threshold_index, result.margin.delta
    span = 10 * k0
    for k in (k0, k0 + 1, 2 * k0, (k0 * 37) % span + k0, span):
        if not checks.convergence_holds(d, delta, checks.arithmetic_count(first, step, k), k):
            return f"k0={k0} for delta={delta}, but the predicate fails at k={k}"
    return None


def _check_ratio_tail(result, spec, i0_expected=None):
    """Divergence by the forbidden-ratio tail: delta from i0, exactly."""
    if result.verdict != "divergent" or result.margin is None:
        return f"verdict {result.verdict}, expected divergent"
    i0, delta = result.margin.threshold_index, result.margin.delta
    if i0_expected is not None and i0 != i0_expected:
        return f"i0={i0}, expected {i0_expected}"
    return _expect(
        delta == checks.ratio_delta(spec.quotient, spec.forbidden, i0), f"delta={delta} at i0={i0}"
    )


def build_counts(P, rng, size: dict) -> list[Op]:
    """Counts and densities at integers of hundreds of digits, block
    reports, a tail estimate, and classify over a grid of configs."""
    kl = P.kl
    k10 = _preset(P, "kempner10")
    bg = _preset(P, "base-g-no-c", {"g": "12", "c": "0"})
    p2 = _preset(P, "power2-no-zero")
    reach = max(size["count_digits"] + (size["reports_k10"],)) + 2
    kl.base_value(k10.sequence, reach)
    kl.base_value(bg.sequence, reach)
    kl.base_value(p2.sequence, size["reports_p2"] + 2)
    ops = []

    # The second integer is a member, so the scan reaches its last step.
    for nd, member in zip(size["count_digits"], (False, True)):
        if member:
            n = int(str(rng.randint(1, 8)) + "".join(str(rng.randint(0, 8)) for _ in range(nd - 1)))
        else:
            n = _random_int(rng, nd)
        ops.append(Op(
            f"count_upto:kempner10:{nd}",
            lambda n=n: P.kl.count_upto(k10, n),
            lambda out, n=n: _expect(out == checks.count_avoiding(n, 10, frozenset({9})), f"count_upto({n})"),
        ))
    e = size["count_nines"] + rng.randrange(8)
    ops.append(Op(
        f"count_upto:kempner10:10**{e}-1",
        lambda: P.kl.count_upto(k10, 10**e - 1),
        lambda out: _expect(out == 9**e - 1, f"count_upto(10**{e} - 1) = {out}"),
    ))
    dn = _random_int(rng, size["density_digits"])
    ops.append(Op(
        "density:base-g-no-c",
        lambda: P.kl.density(bg, dn),
        lambda out: _expect(out == Fraction(checks.count_avoiding(dn, 12, frozenset({0})), dn), "density"),
    ))
    kb = size["count_nines"] + rng.randrange(8)
    ops.append(Op(
        f"block_count_exact:base-g-no-c:{kb}",
        lambda: P.kl.block_count_exact(bg, kb),
        lambda out: _expect(out.exact == 11 ** (kb + 1) and not out.empty, f"block {kb}: {out.exact}"),
    ))
    max_k = size["reports_k10"] + rng.randrange(8)
    ops.append(Op(
        "block_reports:kempner10",
        lambda: P.kl.block_reports(k10, max_k),
        lambda out: _check_k10_reports(out, max_k),
    ))
    kp = size["reports_p2"]
    ops.append(Op(
        "block_reports:power2-no-zero",
        lambda: P.kl.block_reports(p2, kp),
        lambda out: _check_p2_reports(out, kp),
    ))
    k1, kt = rng.randrange(3), size["tail_p2"]
    ops.append(Op(
        "tail_lower_estimate:power2-no-zero",
        lambda: P.kl.tail_lower_estimate(p2, k1, kt),
        lambda out: _expect(out == _tail_lower(k1, kt), f"tail_lower_estimate(k1={k1}) = {out}"),
    ))
    ops += _classify_grid(P, rng, size)
    return ops


def _classify_grid(P, rng, size: dict) -> list[Op]:
    kl = P.kl
    ops = []

    # Constant d <= 15, arithmetic indices, one forbidden digit: finite
    # exactly when the index set is cofinite and every nonzero digit is
    # forbidden (step 1, d = 2, digit 1); convergent otherwise.
    for _ in range(size["arith_configs"]):
        d, step, first = rng.randint(2, 15), rng.randint(1, 7), rng.randint(0, 5)
        digit = rng.randrange(d)
        c = kl.make_constraint(kl.constant(d), kl.ArithmeticIndices(first, step), default={digit})
        finite = step == 1 and d == 2 and digit == 1
        for delta in DELTA_GRID:

            def check(out, d=d, step=step, first=first, finite=finite):
                if finite:
                    return _expect(out.verdict == "finite-set", f"verdict {out.verdict}, expected finite-set")
                return _check_convergent(out, d, first, step)

            ops.append(Op(
                f"classify:constant-{d}:arithmetic({first},{step}):{{{digit}}}:{delta}",
                lambda c=c, delta=delta: P.kl.classify(c, delta=delta),
                check,
            ))

    # Constant d, powers-of-b indices: never convergent; divergent only
    # when d < b.
    for _ in range(size["power_index_configs"]):
        d, b = rng.randint(2, 15), rng.randint(2, 6)
        digit = rng.randrange(d)
        c = kl.make_constraint(kl.constant(d), kl.PowerIndices(b), default={digit})

        def check(out, d=d, b=b):
            if out.verdict == "convergent":
                return "convergent verdict for a logarithmic index set"
            return _expect(out.verdict != "divergent" or d < b, f"divergent with d={d} >= b={b}")

        ops.append(Op(f"classify:constant-{d}:powers-of-{b}:{{{digit}}}", lambda c=c: P.kl.classify(c), check))

    # Power and factorial rules: the ratio series converges along
    # geometric index sets, so the set diverges, with delta fixed by i0.
    b = rng.randint(2, 4)
    step = rng.randint(1, 3)
    power_cases = [
        ("power2-no-zero", _preset(P, "power2-no-zero"), P2, 2),
        (f"power-{b}:all", kl.make_constraint(kl.power(b), kl.AllIndices(), default={0}),
         checks.Spec(lambda i, b=b: b ** (i + 1), lambda i: frozenset({0})), checks.power_all_i0(b, 1)),
        (f"power-{b}:arithmetic(1,{step})",
         kl.make_constraint(kl.power(b), kl.ArithmeticIndices(1, step), default={0}),
         checks.Spec(lambda i, b=b: b ** (i + 1),
                     lambda i, s=step: frozenset({0}) if i >= 1 and (i - 1) % s == 0 else None), None),
        ("factorial:powers-of-2", kl.make_constraint(kl.factorial(), kl.PowerIndices(2), default={0}),
         checks.Spec(lambda i: i + 2, lambda i: frozenset({0}) if checks.is_power_of(i, 2) else None), None),
    ]
    for name, c, spec, i0 in power_cases:
        ops.append(Op(
            f"classify:{name}",
            lambda c=c: P.kl.classify(c),
            lambda out, spec=spec, i0=i0: _check_ratio_tail(out, spec, i0),
        ))
    # Along every position the factorial ratio series diverges: no verdict.
    c = kl.make_constraint(kl.factorial(), kl.AllIndices(), default={0})
    ops.append(Op(
        "classify:factorial:all",
        lambda c=c: P.kl.classify(c),
        lambda out: _expect(out.verdict == "inconclusive", f"verdict {out.verdict}"),
    ))
    # Known failure, kept on fixed inputs: formatting the window-check note
    # converts a tail numerator beyond the int-to-str digit limit and raises
    # ValueError.  Counted as failed until the program is fixed.
    for base in (4, 5):
        c = kl.make_constraint(kl.power(base), kl.PowerIndices(2), default={0})
        spec = checks.Spec(
            lambda i, b=base: b ** (i + 1),
            lambda i: frozenset({0}) if checks.is_power_of(i, 2) else None,
        )
        ops.append(Op(
            f"classify:power-{base}:powers-of-2",
            lambda c=c: P.kl.classify(c),
            lambda out, spec=spec: _check_ratio_tail(out, spec),
        ))
    return ops


# --- sums -------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _partial_sum_reference(n_max: int, g: int, forbidden: frozenset[int]):
    """Member count, bracket, members, and their reciprocal sum modulo a
    prime, over members a <= n_max.

    The bracket adds each full block k below the top block K, then the
    members of block K, each in [g**K, n_max].
    """
    count = checks.count_avoiding(n_max, g, forbidden)
    top = len(checks.digits(n_max, lambda i: g)) - 1
    below = [checks.count_avoiding(g**k - 1, g, forbidden) for k in range(top + 1)]
    lo = hi = Fraction(0)
    for k in range(top):
        size = below[k + 1] - below[k]
        lo += Fraction(size, g ** (k + 1))
        hi += Fraction(size, g**k)
    lo += Fraction(count - below[top], n_max)
    hi += Fraction(count - below[top], g**top)
    members = _members_avoiding(n_max, g, forbidden)
    return count, lo, hi, members, checks.reciprocal_sum_mod(members)


def _check_partial_sum(out, n_max: int, g: int, forbidden: frozenset[int], kempner: bool):
    count, lo, hi, members, residue = _partial_sum_reference(n_max, g, forbidden)
    if out.truncated or out.terms != count:
        return f"partial sum to {n_max}: {out.terms} terms (truncated={out.truncated}), expected {count}"
    if not lo <= out.value <= hi:
        return f"partial sum to {n_max} outside its block brackets"
    if kempner and not out.value < checks.KEMPNER10_CEILING:
        return f"partial sum to {n_max} exceeds the Kempner total"
    if checks.fraction_mod(out.value) != residue:
        return f"partial sum to {n_max} differs from the exact sum modulo a prime"
    return _expect(checks.close_to_fsum(out.value, members), f"partial sum to {n_max} differs from math.fsum")


@functools.lru_cache(maxsize=None)
def _deep_block_reference(k: int, budget: int) -> tuple[tuple[int, ...], int]:
    """The first ``budget`` members of power2-no-zero block k, checked
    once: strictly increasing, inside [g_k, g_(k+1)), passing the digit
    test."""
    gs = checks.place_values(P2.quotient, k + 1)
    want = checks.first_block_members(P2.quotient, P2.forbidden, k, budget)
    if not (len(want) == budget and gs[k] <= want[0] and want[-1] < gs[k + 1]):
        raise ValueError(f"reference block {k} is out of range")
    if not (all(a < b for a, b in zip(want, want[1:])) and all(P2.is_member(a) for a in want)):
        raise ValueError(f"reference block {k} is not increasing or fails the digit test")
    return tuple(want), checks.reciprocal_sum_mod(want)


def _check_deep_block(out, k: int, budget: int):
    members, total = out
    want, residue = _deep_block_reference(k, budget)
    if tuple(members) != want:
        return f"block {k}: enumerate_block gave other members than the first {budget}"
    if checks.fraction_mod(total) != residue:
        return f"block {k}: reciprocal sum differs from the exact sum modulo a prime"
    gs = checks.place_values(P2.quotient, k + 1)
    if not Fraction(budget, gs[k + 1]) <= total <= Fraction(budget, gs[k]):
        return f"block {k}: reciprocal sum outside its bracket"
    return _expect(checks.close_to_fsum(total, members), f"block {k}: sum differs from math.fsum")


def build_sums(P, rng, size: dict) -> list[Op]:
    """Exact partial sums by block enumeration, and the first members of
    deep power2-no-zero blocks summed exactly."""
    kl = P.kl
    k10 = _preset(P, "kempner10")
    bg = _preset(P, "base-g-no-c", {"g": "12", "c": "0"})
    p2 = _preset(P, "power2-no-zero")
    for c in (k10, bg):
        kl.base_value(c.sequence, 16)
    kl.base_value(p2.sequence, max(size["deep_blocks"]) + 2)
    n10 = size["sum_k10"] + rng.randrange(size["sum_k10"] // 100)
    n12 = size["sum_bg"] + rng.randrange(size["sum_bg"] // 100)
    ops = [
        Op(
            f"partial_sum_exact:kempner10:{n10}",
            lambda: P.kl.partial_sum_exact(k10, n10),
            lambda out: _check_partial_sum(out, n10, 10, frozenset({9}), True),
        ),
        Op(
            f"partial_sum_exact:base-g-no-c:{n12}",
            lambda: P.kl.partial_sum_exact(bg, n12),
            lambda out: _check_partial_sum(out, n12, 12, frozenset({0}), False),
        ),
    ]
    for k in size["deep_blocks"]:
        budget = size["deep_budget"] + rng.randrange(size["deep_budget"] // 50)

        def call(k=k, budget=budget):
            members = _first_members(P, p2, k, budget)
            return members, P.exactsum.sum_reciprocals(members)

        ops.append(Op(
            f"enumerate_block+sum_reciprocals:power2-no-zero:{k}:{budget}",
            call,
            lambda out, k=k, budget=budget: _check_deep_block(out, k, budget),
        ))
    return ops


# --- cli --------------------------------------------------------------------

CLI_BOOT = "import sys; sys.path.insert(0, sys.argv.pop(1)); from kempner_lab.cli import main; sys.exit(main())"


class CliRunner:
    """Runs ``kempner-lab`` subcommands, one subprocess at a time, or
    in-process through ``cli.main`` (for the traced run)."""

    def __init__(self, P, src: str, in_process: bool = False):
        self.P = P
        self.src = src
        self.in_process = in_process
        self.tracer = None

    def __call__(self, argv: list[str]) -> tuple[int, str, str]:
        if not self.in_process:
            proc = subprocess.run(
                [sys.executable, "-c", CLI_BOOT, self.src, *argv],
                capture_output=True,
                text=True,
                timeout=120,
            )
            return proc.returncode, proc.stdout, proc.stderr
        out, err = io.StringIO(), io.StringIO()
        limit = sys.get_int_max_str_digits()
        main = self.P.cli.main
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if self.tracer is None:
                    code = main(argv)
                else:
                    code = self.tracer.call(f"cli.{argv[0]}", main, argv)
        finally:
            sys.set_int_max_str_digits(limit)
        return code, out.getvalue(), err.getvalue()


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def build_cli(P, rng, size: dict, runner: CliRunner, workdir: str) -> list[Op]:
    """Every subcommand as a user runs it, in table, CSV and JSON."""
    P.config.parse_dict(ARITH_CLASSIFY_DOC)
    config_path = os.path.join(workdir, "arith.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(ARITH_CLASSIFY_DOC, fh)

    upto = size["verify_upto"] + rng.randrange(size["verify_upto"] // 100)
    sum_upto = size["cli_sum_upto"] + rng.randrange(size["cli_sum_upto"] // 100)
    count_n = _random_int(rng, 60)
    block_k = rng.randint(8, 12)
    max_k = rng.randint(6, 10)
    points = sorted(rng.randrange(1, 10**7) for _ in range(4))
    encode_n = _random_int(rng, 40)
    decode_digits = [rng.randrange(10) for _ in range(rng.randint(10, 30))] + [rng.randint(1, 9)]
    previous_csv: dict[str, str] = {}
    k10_counts = [8 * 9**k for k in range(max_k + 1)]

    def op(label, argv, check):
        def checked(out):
            code, stdout, stderr = out
            if code != 0:
                return f"{label}: exit code {code}: {stderr.strip()[-200:]}"
            return check(stdout, stderr)

        return Op(f"cli:{label}", lambda: runner(argv), checked)

    def check_blocks_table(stdout, stderr):
        rows = [line.split() for line in stdout.splitlines()[1:]]
        if [int(r[3]) for r in rows] != [8 * 9**k for k in range(9)]:
            return "blocks table: counts differ from 8 * 9**k"
        return _expect("oracle agrees" in stderr, "blocks --check did not report agreement")

    def check_blocks_csv(key):
        def check(stdout, stderr):
            rows = _csv_rows(stdout)
            if [int(r["count"]) for r in rows] != k10_counts:
                return "blocks csv: counts differ from 8 * 9**k"
            for r in rows:
                k, count = int(r["k"]), int(r["count"])
                lo = Fraction(int(r["bracket_lo_num"]), int(r["bracket_lo_den"]))
                if lo != Fraction(count, 10 ** (k + 1)):
                    return f"blocks csv: bracket_lo at k={k}"
            if key in previous_csv and previous_csv[key] != stdout:
                return "blocks csv: repeated output is not byte-identical"
            previous_csv[key] = stdout
            return None

        return check

    def check_blocks_json(stdout, stderr):
        got = [int(r["count"]) for r in json.loads(stdout)]
        return _expect(got == _p2_counts(block_k), "blocks json: power2-no-zero counts")

    def check_verify(stdout, stderr):
        want = checks.count_avoiding(upto, 10, frozenset({9}))
        line = f"members up to {upto}: oracle {want}, fast path {want}"
        return _expect(line in stdout and "verify: oracle and fast paths agree" in stdout, "verify report")

    def check_sum(stdout, stderr):
        doc = json.loads(stdout)
        value = Fraction(checks.big_int(doc["value"]["num"]), checks.big_int(doc["value"]["den"]))
        members = _members_avoiding(sum_upto, 7, frozenset({3}))
        if doc["terms"] != len(members) or doc["truncated"]:
            return f"sum json: {doc['terms']} terms, expected {len(members)}"
        if checks.fraction_mod(value) != _reciprocal_sum_mod(tuple(members)):
            return "sum json: value differs from the exact sum modulo a prime"
        return _expect(checks.close_to_fsum(value, members), "sum json: value differs from math.fsum")

    def check_count_csv(stdout, stderr):
        rows = _csv_rows(stdout)
        want = checks.count_avoiding(count_n, 12, frozenset({0}))
        return _expect(rows and int(rows[0]["count"]) == want, "count csv")

    def check_count_json(stdout, stderr):
        doc = json.loads(stdout)
        return _expect(int(doc["count"]) == _p2_counts(block_k)[-1] and not doc["empty"], "count json")

    def check_density_table(stdout, stderr):
        rows = [line.split() for line in stdout.splitlines()[1:]]
        want = [Fraction(checks.count_avoiding(n, 10, frozenset({9})), n) for n in points]
        got = [(int(n), Fraction(f)) for n, f in rows]
        return _expect(got == list(zip(points, want)), "density table")

    def check_classify_json(stdout, stderr):
        doc = json.loads(stdout)
        ok = doc["verdict"] == "divergent" and doc["margin"]["delta"] == "2/5"
        return _expect(ok, f"classify div-log: {doc['verdict']}")

    def check_classify_csv(stdout, stderr):
        row = _csv_rows(stdout)[0]
        margin = SimpleNamespace(delta=Fraction(row["delta"]), threshold_index=int(row["threshold_index"]))
        result = SimpleNamespace(verdict=row["verdict"], margin=margin)
        idx = ARITH_CLASSIFY_DOC["constraint"]["index_set"]
        return _check_convergent(result, ARITH_CLASSIFY_DOC["sequence"]["d"], idx["first"], idx["step"])

    def check_encode(stdout, stderr):
        return _expect(json.loads(stdout)["digits"] == list(checks.digits(encode_n, P2.quotient)), "encode json")

    def check_decode(stdout, stderr):
        return _expect(int(stdout) == checks.value(decode_digits, lambda i: 10), "decode")

    def check_preset(stdout, stderr):
        doc = json.loads(stdout)
        seq, cons = doc["sequence"], doc["constraint"]
        ok = (seq["kind"], seq["d"], cons["index_set"]["kind"], cons["forbidden"]["default"]) == ("constant", 9, "all", [0])
        return _expect(ok, "preset json")

    def check_list(stdout, stderr):
        names = {"kempner10", "base-g-no-c", "power2-no-zero", "fixed-bits", "div-log", "open-boundary"}
        return _expect(set(stdout.split()) == names, "preset --list")

    k10 = ["--preset", "kempner10"]
    p2 = ["--preset", "power2-no-zero"]
    return [
        op("blocks-check", ["blocks", "--max-k", "8", "--check", *k10], check_blocks_table),
        op("blocks-csv", ["blocks", "--max-k", str(max_k), "--format", "csv", *k10], check_blocks_csv("a")),
        op("blocks-csv-again", ["blocks", "--max-k", str(max_k), "--format", "csv", *k10], check_blocks_csv("a")),
        op("blocks-json", ["blocks", "--max-k", str(block_k), "--format", "json", *p2], check_blocks_json),
        op("verify", ["verify", "--upto", str(upto), *k10], check_verify),
        op("sum-json", ["sum", "--upto", str(sum_upto), "--format", "json", "--preset", "base-g-no-c",
                        "--param", "g=7", "--param", "c=3"], check_sum),
        op("count-csv", ["count", "--upto", str(count_n), "--format", "csv", "--preset", "base-g-no-c",
                         "--param", "g=12", "--param", "c=0"], check_count_csv),
        op("count-json", ["count", "--k", str(block_k), "--format", "json", *p2], check_count_json),
        op("density-table", ["density", "--at", ",".join(map(str, points)), *k10], check_density_table),
        op("classify-json", ["classify", "--format", "json", "--preset", "div-log"], check_classify_json),
        op("classify-csv", ["classify", "--format", "csv", "--config", config_path], check_classify_csv),
        op("encode-json", ["encode", str(encode_n), "--format", "json", *p2], check_encode),
        op("decode-table", ["decode", ",".join(map(str, decode_digits)), *k10], check_decode),
        op("preset-json", ["preset", "--name", "base-g-no-c", "--param", "g=9"], check_preset),
        op("preset-list", ["preset", "--list"], check_list),
    ]


ARITH_CLASSIFY_DOC = {
    "sequence": {"kind": "constant", "d": 11, "bound_hint": 11},
    "constraint": {
        "index_set": {"kind": "arithmetic", "first": 2, "step": 3},
        "forbidden": {"default": [4], "overrides": {}},
    },
}


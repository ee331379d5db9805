"""The contract every public record keeps: an immutable value type."""

from fractions import Fraction

import pytest

import kempner_lab as kl
from kempner_lab.config import Config
from kempner_lab.errors import InputOutOfRange
from kempner_lab.indexsets import Growth


def _constraint():
    return kl.make_constraint(kl.constant(10), kl.AllIndices(), default={9})


def _sequence():
    return kl.explicit([3, 5], extend="cycle")


# One builder per public record type; each call builds an equal, distinct instance.
BUILDERS = {
    kl.QuotientSequence: _sequence,
    kl.Numeral: lambda: kl.Numeral((1, 2), _sequence()),
    kl.AllIndices: kl.AllIndices,
    kl.ExplicitIndices: lambda: kl.ExplicitIndices(frozenset({0, 3})),
    kl.ArithmeticIndices: lambda: kl.ArithmeticIndices(1, 2),
    kl.PowerIndices: lambda: kl.PowerIndices(3),
    kl.ComplementIndices: lambda: kl.ComplementIndices(kl.PowerIndices(2)),
    Growth: lambda: Growth("log", log_base=2, valid_from=1),
    kl.DigitConstraint: _constraint,
    kl.BlockCount: lambda: kl.BlockCount(1, 72, 81, False),
    kl.BlockReport: lambda: kl.block_reports(_constraint(), 1)[1],
    kl.Margin: lambda: kl.Margin(Fraction(1, 2), "k0", 7),
    kl.Classification: lambda: kl.classify(_constraint()),
    kl.PartialSum: lambda: kl.PartialSum(Fraction(3, 2), False, 2),
    kl.OracleReport: lambda: kl.oracle_report(_constraint(), 1, 20),
    Config: lambda: Config(_sequence(), None, max_k=3),
}
TYPES = list(BUILDERS)
IDS = [cls.__name__ for cls in TYPES]
# Records whose constructor checks every field: no altered field gets through.
CHECKED = {
    kl.QuotientSequence, kl.DigitConstraint, kl.ExplicitIndices, kl.ArithmeticIndices,
    kl.PowerIndices, kl.ComplementIndices,
}


def _fields(value) -> dict:
    return {name: getattr(value, name) for name in value.__match_args__}


def test_every_public_record_type_is_covered():
    public = {
        obj
        for obj in map(vars(kl).get, kl.__all__)
        if isinstance(obj, type) and not issubclass(obj, BaseException)
    }
    assert public | {Growth, Config} == set(TYPES)
    assert len(TYPES) == 16


def test_public_names_are_pinned():
    # A change to the package's surface shows here, in the diff.
    assert sorted(kl.__all__) == [
        "AllIndices", "ArithmeticIndices", "BitOutOfRange", "BlockCount", "BlockReport",
        "BudgetExceeded", "CONVERGENT", "Classification", "ComplementIndices", "ConfigInvalid",
        "DIVERGENT", "DigitConstraint", "DigitOutOfRange", "EmptyExplicitList",
        "EmptyForbiddenSet", "ExplicitIndices", "FINITE", "FINITE_SET", "ForbiddenSetNotProper",
        "INCONCLUSIVE", "INFINITE", "IndexSet", "InputOutOfRange", "KempnerLabError", "Margin",
        "MissingBoundHint", "NonPositiveInput", "Numeral", "OracleReport",
        "OverrideOutsideIndexSet", "PartialSum", "PowerIndices", "QuotientSequence",
        "QuotientTooSmall", "RULE_FINITE", "RULE_INDEX_GROWTH", "RULE_INDEX_SPARSITY",
        "RULE_RATIO_TAIL", "RangeTooLarge", "SetIsFinite",
        "ZeroLeadingDigit", "base_value", "block_bracket", "block_count_exact", "block_reports",
        "classify", "constant", "constraints", "convergence_by_bounded_quotients", "count_upto",
        "density", "digit_count", "divergence_by_unbounded_quotients", "enumerate_block",
        "errors", "exactsum", "explicit", "factorial", "fixed_bits", "from_digits", "gadic",
        "harmonic", "indexsets", "is_finite_set", "is_member", "make_constraint",
        "oracle", "oracle_members", "oracle_report", "oracle_sum",
        "partial_sum_exact", "power", "tail_lower_estimate", "tail_upper_estimate", "to_digits",
        "weierstrass_lower",
    ]


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_equal_instances_are_equal_and_hash_equal(cls):
    a, b = BUILDERS[cls](), BUILDERS[cls]()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != object() and a != tuple(_fields(a).values())
    assert cls(**_fields(a)) == a


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_a_changed_field_breaks_equality(cls):
    a = BUILDERS[cls]()
    others = []
    for name, value in _fields(a).items():
        try:
            others.append(cls(**(_fields(a) | {name: (value, "changed")})))
        except (TypeError, kl.KempnerLabError):
            pass  # validation rejects the altered value
    assert others == [] if cls in CHECKED else all(other != a for other in others)
    assert not others or {hash(other) for other in others} != {hash(a)}  # the hash reads the fields


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_records_are_immutable(cls):
    value = BUILDERS[cls]()
    for name in (*value.__match_args__, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == BUILDERS[cls]()


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_bad_arguments_raise_type_error(cls):
    fields = _fields(BUILDERS[cls]())
    args = list(fields.values())
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args, not_a_field=None)
    if args:
        first = next(iter(fields))
        with pytest.raises(TypeError):
            cls(*args, **{first: args[0]})
    required = [n for n in fields if n not in vars(cls)]
    if required:
        with pytest.raises(TypeError):
            cls(**{n: v for n, v in fields.items() if n != required[-1]})


def test_defaults_fill_omitted_fields():
    assert kl.Margin() == kl.Margin(None, "", None, None, None)
    assert kl.Classification("divergent") == kl.Classification("divergent", None, None, ())
    assert Growth("linear", offset=Fraction(1)) == Growth("linear", Fraction(0), Fraction(1), 0, 0, 0)


def test_post_init_validation_still_runs():
    with pytest.raises(InputOutOfRange):
        kl.ArithmeticIndices(0, 0)
    with pytest.raises(InputOutOfRange):
        kl.ArithmeticIndices(first=-1, step=1)
    with pytest.raises(InputOutOfRange):
        kl.ExplicitIndices(frozenset())
    with pytest.raises(InputOutOfRange):
        kl.PowerIndices(base=1)


def test_repr_matches_the_dataclass_format():
    assert repr(kl.Margin()) == (
        "Margin(delta=None, threshold_label='', threshold_index=None, value=None, window=None)"
    )
    assert repr(kl.ComplementIndices(kl.AllIndices())) == "ComplementIndices(inner=AllIndices())"
    assert repr(kl.PartialSum(Fraction(3, 2), False, 2)) == (
        "PartialSum(value=Fraction(3, 2), truncated=False, terms=2)"
    )
    assert repr(_constraint()) == (
        "DigitConstraint(sequence=QuotientSequence(kind='constant', d=10, values=(), "
        "extend='repeat-last', base=0), index_set=AllIndices(), "
        "default_forbidden=frozenset({9}), overrides=())"
    )
    assert repr(kl.Numeral((1, 2), kl.constant(2))).startswith("Numeral(digits=(1, 2), sequence=")


def test_match_args_and_patterns():
    assert kl.BlockCount.__match_args__ == ("k", "exact", "product_bound", "empty")
    assert kl.AllIndices.__match_args__ == ()
    match kl.ArithmeticIndices(1, 2):
        case kl.ArithmeticIndices(first, step=step):
            assert (first, step) == (1, 2)
        case _:
            pytest.fail("the record did not match its own class pattern")

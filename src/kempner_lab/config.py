"""JSON configuration documents: parsing and validation.

One schema describes a run: the quotient rule, the digit constraint, and
optional operation parameters.  Parsing is strict; every failure names
the offending field path.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import indexsets
from ._record import record
from .constraints import DigitConstraint, make_constraint
from .errors import ConfigInvalid, KempnerLabError
from .gadic import EXTEND_MODES, RULE_FIELDS, RULE_KINDS, QuotientSequence

# The fields each index kind reads besides "kind".  A sequence reads its
# RULE_FIELDS and may state its rule's bound, which must then be the rule's.
INDEX_FIELDS = {
    "all": set(),
    "explicit": {"indices"},
    "arithmetic": {"first", "step"},
    "powers-of": {"base"},
    "complement": {"of"},
}
INDEX_KINDS = tuple(INDEX_FIELDS)


@record
class Config:
    sequence: QuotientSequence
    constraint: DigitConstraint | None
    max_k: int | None = None
    upto: int | None = None
    budget: int | None = None
    delta: Fraction | None = None


def _expect_int(doc: dict, key: str, path: str, required: bool = True) -> int | None:
    if key not in doc:
        if required:
            raise ConfigInvalid(f"{path}.{key}", "required field is missing")
        return None
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigInvalid(f"{path}.{key}", f"expected an integer, got {v!r}")
    return v


def _check_fields(doc: dict, known: set, path: str, message: str = "unknown field") -> None:
    unknown = set(doc) - known
    if unknown:
        key = min(unknown, key=str)
        raise ConfigInvalid(f"{path}.{key}" if path else key, message)


def _int_list(value, path: str) -> list:
    if not isinstance(value, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in value
    ):
        raise ConfigInvalid(path, "expected a list of integers")
    return value


def _parse_sequence(doc, path: str = "sequence") -> QuotientSequence:
    if not isinstance(doc, dict):
        raise ConfigInvalid(path, "expected an object")
    kind = doc.get("kind")
    if kind not in RULE_KINDS:
        raise ConfigInvalid(f"{path}.kind", f"expected one of {RULE_KINDS}, got {kind!r}")
    _check_fields(doc, {"kind", "bound_hint", *RULE_FIELDS[kind]}, path)
    bound_hint = _expect_int(doc, "bound_hint", path, required=False)
    args = {}
    if kind == "constant":
        args["d"] = _expect_int(doc, "d", path)
    elif kind == "explicit":
        args["values"] = tuple(_int_list(doc.get("values"), f"{path}.values"))
        args["extend"] = extend = doc.get("extend", "repeat-last")
        if extend not in EXTEND_MODES:
            raise ConfigInvalid(f"{path}.extend", f"expected 'repeat-last' or 'cycle', got {extend!r}")
    elif kind == "power":
        args["base"] = _expect_int(doc, "base", path)
    try:
        seq = QuotientSequence(kind, **args)
    except KempnerLabError as exc:
        raise ConfigInvalid(path, str(exc)) from exc
    if bound_hint not in (None, seq.bound_hint):
        bound = "none" if seq.bound_hint is None else seq.bound_hint
        raise ConfigInvalid(f"{path}.bound_hint", f"the {kind} rule's bound is {bound}, not {bound_hint}")
    return seq


def _parse_index_set(doc, path: str) -> indexsets.IndexSet:
    if not isinstance(doc, dict):
        raise ConfigInvalid(path, "expected an object")
    kind = doc.get("kind")
    if kind not in INDEX_KINDS:
        raise ConfigInvalid(f"{path}.kind", f"expected one of {INDEX_KINDS}, got {kind!r}")
    _check_fields(doc, {"kind"} | INDEX_FIELDS[kind], path)
    try:
        if kind == "all":
            return indexsets.AllIndices()
        if kind == "explicit":
            indices = _int_list(doc.get("indices"), f"{path}.indices")
            return indexsets.ExplicitIndices(frozenset(indices))
        if kind == "arithmetic":
            return indexsets.ArithmeticIndices(
                first=_expect_int(doc, "first", path), step=_expect_int(doc, "step", path)
            )
        if kind == "powers-of":
            return indexsets.PowerIndices(base=_expect_int(doc, "base", path))
        return indexsets.ComplementIndices(_parse_index_set(doc.get("of"), f"{path}.of"))
    except ConfigInvalid:
        raise
    except KempnerLabError as exc:
        raise ConfigInvalid(path, str(exc)) from exc


def _parse_constraint(doc, seq: QuotientSequence, path: str = "constraint") -> DigitConstraint:
    if not isinstance(doc, dict):
        raise ConfigInvalid(path, "expected an object")
    _check_fields(doc, {"index_set", "forbidden"}, path)
    index_set = _parse_index_set(doc.get("index_set"), f"{path}.index_set")
    forbidden = doc.get("forbidden")
    if not isinstance(forbidden, dict):
        raise ConfigInvalid(f"{path}.forbidden", "expected an object")
    _check_fields(forbidden, {"default", "overrides"}, f"{path}.forbidden")
    default = _int_list(forbidden.get("default", []), f"{path}.forbidden.default")
    overrides_doc = forbidden.get("overrides", {})
    if not isinstance(overrides_doc, dict):
        raise ConfigInvalid(f"{path}.forbidden.overrides", "expected an object keyed by position")
    overrides = {}
    for key, val in overrides_doc.items():
        # int() would also read "+2", "1_0", " 5 " and non-ASCII digits
        if not (isinstance(key, str) and key.isascii() and key.isdigit()):
            raise ConfigInvalid(f"{path}.forbidden.overrides.{key}", "keys must be decimal positions")
        i = int(key)
        if i in overrides:
            raise ConfigInvalid(f"{path}.forbidden.overrides.{key}", f"position {i} is given twice")
        overrides[i] = set(_int_list(val, f"{path}.forbidden.overrides.{key}"))
    try:
        return make_constraint(seq, index_set, default=default, overrides=overrides)
    except KempnerLabError as exc:
        raise ConfigInvalid(path, str(exc)) from exc


def _parse_delta(value, path: str) -> Fraction:
    try:
        if isinstance(value, float):
            return Fraction(str(value))
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ConfigInvalid(path, f"expected a rational like '2/5' or 0.4, got {value!r}") from exc


def parse_dict(doc: dict) -> Config:
    if not isinstance(doc, dict):
        raise ConfigInvalid("", "top-level document must be an object")
    _check_fields(doc, {"sequence", "constraint", "params"}, "", "unknown top-level field")
    if "sequence" not in doc:
        raise ConfigInvalid("sequence", "required field is missing")
    seq = _parse_sequence(doc["sequence"])
    constraint = None
    if "constraint" in doc and doc["constraint"] is not None:
        constraint = _parse_constraint(doc["constraint"], seq)
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigInvalid("params", "expected an object")
    _check_fields(params, {"max_k", "upto", "budget", "delta"}, "params", "unknown parameter")
    delta = _parse_delta(params["delta"], "params.delta") if "delta" in params else None
    return Config(
        sequence=seq,
        constraint=constraint,
        max_k=_expect_int(params, "max_k", "params", required=False),
        upto=_expect_int(params, "upto", "params", required=False),
        budget=_expect_int(params, "budget", "params", required=False),
        delta=delta,
    )


def parse_json(text: str) -> Config:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid("", f"not valid JSON: {exc}") from exc
    return parse_dict(doc)


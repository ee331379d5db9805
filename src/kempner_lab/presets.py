"""Built-in constraint configurations, stored as config documents.

Each preset is the canonical JSON document the config layer parses, so
``preset --name X`` output can be saved, edited, and fed back through
``--config`` unchanged.  Every document is spelled by ``_document``.
"""

from __future__ import annotations

from .config import decimal_int
from .errors import ConfigInvalid


def _document(sequence: dict, index_set: dict, default: list, overrides=None, **params) -> dict:
    forbidden = {"default": default, "overrides": overrides or {}}
    doc = {"sequence": sequence, "constraint": {"index_set": index_set, "forbidden": forbidden}}
    if params:
        doc["params"] = params
    return doc


def _constant(d: int) -> dict:
    return {"kind": "constant", "d": d, "bound_hint": d}


def _integer(text) -> int | None:
    """text as an int when it is ASCII decimal digits after an optional
    '-', so a negative value reaches the range check of its own field."""
    sign = -1 if isinstance(text, str) and text.startswith("-") else 1
    n = decimal_int(text[1:] if sign < 0 else text)
    return None if n is None else sign * n


def _int_param(params: dict, name: str, default: int) -> int:
    value = params.get(name, default)
    out = value if type(value) is int else _integer(value)
    if out is None:
        raise ConfigInvalid(f"params.{name}", f"expected an integer, got {value!r}")
    return out


def _base_g_no_c(params: dict) -> dict:
    g = _int_param(params, "g", 12)
    return _document(_constant(g), {"kind": "all"}, [_int_param(params, "c", 0)])


def _fixed_bits(params: dict) -> dict:
    raw = params.get("bits", "0:1")
    bits: dict[int, int] = {}
    for piece in str(raw).split(","):
        piece = piece.strip()
        if not piece:
            continue
        pos, _, val = piece.partition(":")
        pos, val = _integer(pos), _integer(val)
        if pos is None or val is None:
            raise ConfigInvalid("params.bits", f"expected entries like '3:0', got {piece!r}")
        if pos < 0:
            raise ConfigInvalid("params.bits", f"a pinned position must be nonnegative, got {piece!r}")
        if val not in (0, 1):
            raise ConfigInvalid("params.bits", f"a pinned bit must be 0 or 1, got {piece!r}")
        if pos in bits:
            raise ConfigInvalid("params.bits", f"position {pos} is given twice")
        bits[pos] = val
    if not bits:
        raise ConfigInvalid("params.bits", "at least one pinned bit is required")
    overrides = {str(i): [1 - v] for i, v in sorted(bits.items())}
    return _document(_constant(2), {"kind": "explicit", "indices": sorted(bits)}, [], overrides)


PRESETS = {
    "kempner10": lambda params: _document(_constant(10), {"kind": "all"}, [9]),
    "base-g-no-c": _base_g_no_c,
    "power2-no-zero": lambda params: _document({"kind": "power", "base": 2}, {"kind": "all"}, [0]),
    "fixed-bits": _fixed_bits,
    "div-log": lambda params: _document(_constant(2), {"kind": "powers-of", "base": 4}, [0], delta="2/5"),
    "open-boundary": lambda params: _document(_constant(2), {"kind": "powers-of", "base": 2}, [0]),
}


# The parameters each preset reads; the others read none.
PRESET_PARAMS = {"base-g-no-c": {"g", "c"}, "fixed-bits": {"bits"}}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def preset_config(name: str, params: dict | None = None) -> dict:
    if name not in PRESETS:
        raise ConfigInvalid("preset", f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    params = params or {}
    unknown = sorted(set(params) - PRESET_PARAMS.get(name, set()))
    if unknown:
        raise ConfigInvalid(f"params.{unknown[0]}", f"unknown parameter for preset {name!r}")
    return PRESETS[name](params)

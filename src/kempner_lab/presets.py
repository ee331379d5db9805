"""Built-in constraint configurations, stored as config documents.

Each preset is the canonical JSON document the config layer parses, so
``preset --name X`` output can be saved, edited, and fed back through
``--config`` unchanged.  Every document is spelled by ``_document``.
"""

from __future__ import annotations

from .errors import ConfigInvalid


def _document(sequence: dict, index_set: dict, default: list, overrides=None, **params) -> dict:
    forbidden = {"default": default, "overrides": overrides or {}}
    doc = {"sequence": sequence, "constraint": {"index_set": index_set, "forbidden": forbidden}}
    if params:
        doc["params"] = params
    return doc


def _constant(d: int) -> dict:
    return {"kind": "constant", "d": d, "bound_hint": d}


def _int_param(params: dict, name: str, default: int) -> int:
    try:
        return int(params.get(name, default))
    except (TypeError, ValueError):
        raise ConfigInvalid(f"params.{name}", f"expected an integer, got {params[name]!r}")


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
        try:
            pos, _, val = piece.partition(":")
            pos, val = int(pos), int(val)
        except ValueError:
            raise ConfigInvalid("params.bits", f"expected entries like '3:0', got {piece!r}")
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

"""Built-in constraint configurations, stored as config documents.

Each preset is the canonical JSON document the config layer parses, so
``preset --name X`` output can be saved, edited, and fed back through
``--config`` unchanged.
"""

from __future__ import annotations

from .errors import ConfigInvalid


def _int_param(params: dict, name: str, default: int) -> int:
    try:
        return int(params.get(name, default))
    except (TypeError, ValueError):
        raise ConfigInvalid(f"params.{name}", f"expected an integer, got {params[name]!r}")


def _base_g_no_c(params: dict) -> dict:
    g = _int_param(params, "g", 12)
    c = _int_param(params, "c", 0)
    return {
        "sequence": {"kind": "constant", "d": g, "bound_hint": g},
        "constraint": {
            "index_set": {"kind": "all"},
            "forbidden": {"default": [c], "overrides": {}},
        },
    }


def _fixed_bits(params: dict) -> dict:
    raw = params.get("bits", "0:1")
    bits: dict[int, int] = {}
    for piece in str(raw).split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            pos, _, val = piece.partition(":")
            bits[int(pos)] = int(val)
        except ValueError:
            raise ConfigInvalid("params.bits", f"expected entries like '3:0', got {piece!r}")
        if int(val) not in (0, 1):
            raise ConfigInvalid("params.bits", f"a pinned bit must be 0 or 1, got {piece!r}")
    if not bits:
        raise ConfigInvalid("params.bits", "at least one pinned bit is required")
    return {
        "sequence": {"kind": "constant", "d": 2, "bound_hint": 2},
        "constraint": {
            "index_set": {"kind": "explicit", "indices": sorted(bits)},
            "forbidden": {
                "default": [],
                "overrides": {str(i): [1 - v] for i, v in sorted(bits.items())},
            },
        },
    }


def _kempner10(params: dict) -> dict:
    return {
        "sequence": {"kind": "constant", "d": 10, "bound_hint": 10},
        "constraint": {
            "index_set": {"kind": "all"},
            "forbidden": {"default": [9], "overrides": {}},
        },
    }


def _power2_no_zero(params: dict) -> dict:
    return {
        "sequence": {"kind": "power", "base": 2},
        "constraint": {
            "index_set": {"kind": "all"},
            "forbidden": {"default": [0], "overrides": {}},
        },
    }


def _div_log(params: dict) -> dict:
    return {
        "sequence": {"kind": "constant", "d": 2, "bound_hint": 2},
        "constraint": {
            "index_set": {"kind": "powers-of", "base": 4},
            "forbidden": {"default": [0], "overrides": {}},
        },
        "params": {"delta": "2/5"},
    }


def _open_boundary(params: dict) -> dict:
    return {
        "sequence": {"kind": "constant", "d": 2, "bound_hint": 2},
        "constraint": {
            "index_set": {"kind": "powers-of", "base": 2},
            "forbidden": {"default": [0], "overrides": {}},
        },
    }


PRESETS = {
    "kempner10": _kempner10,
    "base-g-no-c": _base_g_no_c,
    "power2-no-zero": _power2_no_zero,
    "fixed-bits": _fixed_bits,
    "div-log": _div_log,
    "open-boundary": _open_boundary,
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

"""Command-line front end.

Every subcommand works on a configuration loaded either from a built-in
preset (``--preset``, optionally parameterized with ``--param k=v``) or
from a JSON document (``--config``).  Output goes to stdout in one of
three formats: a human table (default), CSV, or JSON with rationals as
num/den decimal strings.

Exit codes: 0 success, 1 validation or usage error, 2 budget
truncation, 3 oracle mismatch.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import json
import os
import sys
from fractions import Fraction

from .config import Config, _parse_delta, parse_dict, parse_json
from .constraints import block_count_exact, count_upto, is_member
from .errors import ConfigInvalid, KempnerLabError
from .gadic import Numeral, digit_count, from_digits, to_digits
from .harmonic import (
    DEFAULT_BUDGET,
    Margin,
    block_reports,
    classify,
    density,
    partial_sum_exact,
)
from .oracle import block_mismatches, oracle_members
from .presets import preset_config, preset_names

BUDGET_ENV = "KEMPNER_LAB_BUDGET"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_TRUNCATED = 2
EXIT_MISMATCH = 3


def _rat_text(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _columns(record: dict):
    """(name, value) CSV columns of one record; a Fraction X takes X_num and X_den."""
    for key, v in record.items():
        if isinstance(v, Fraction):
            yield f"{key}_num", v.numerator
            yield f"{key}_den", v.denominator
        else:
            yield key, v


def _emit(args, result, *, text=None, doc=None, csv_header=None, table_header=None) -> None:
    """Print a command's result in ``args.format``.  Every handler but
    ``preset`` prints through here.

    ``result`` is one record (a dict of field -> value) or a list of
    records.  A Fraction field X is {"num", "den"} strings in JSON, the
    columns X_num, X_den in CSV and num/den in a table.  Big integers come
    in as str, so JSON keeps them as strings; None is an empty CSV cell.
    ``text`` replaces the table, ``doc`` the JSON document, and the two
    headers the column names of one format.
    """
    records = result if isinstance(result, list) else [result]
    if args.format == "json":
        if doc is None:
            doc = [
                {
                    key: {"num": str(v.numerator), "den": str(v.denominator)} if isinstance(v, Fraction) else v
                    for key, v in r.items()
                }
                for r in records
            ]
            doc = doc if isinstance(result, list) else doc[0]
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(csv_header or [name for name, _ in _columns(records[0])])
        writer.writerows([v for _, v in _columns(r)] for r in records)
    elif text is not None:
        print(text)
    else:
        cells = [table_header or list(records[0])] + [
            [_rat_text(v) if isinstance(v, Fraction) else str(v) for v in r.values()] for r in records
        ]
        widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
        for row in cells:
            print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _parse_params(pairs: list[str] | None) -> dict:
    out = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigInvalid("param", f"expected KEY=VALUE, got {pair!r}")
        if key in out:
            raise ConfigInvalid(f"params.{key}", "given twice")
        out[key] = value
    return out


def _load_config(args) -> Config:
    if args.config and args.preset:
        raise ConfigInvalid("", "--config and --preset are mutually exclusive")
    if args.config:
        if args.param:
            raise ConfigInvalid("param", "--param only applies to --preset")
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigInvalid("", f"cannot read config file: {exc}") from exc
        return parse_json(text)
    if args.preset:
        doc = preset_config(args.preset, _parse_params(args.param))
        return parse_dict(doc)
    raise ConfigInvalid("", "a configuration is required: pass --preset NAME or --config FILE")


def _require_constraint(config: Config):
    if config.constraint is None:
        raise ConfigInvalid("constraint", "this command needs a digit constraint")
    return config.constraint


def _budget(args, config: Config) -> int:
    if getattr(args, "budget", None) is not None:
        return args.budget
    if config.budget is not None:
        return config.budget
    env = os.environ.get(BUDGET_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigInvalid(BUDGET_ENV, f"expected an integer, got {env!r}") from exc
    return DEFAULT_BUDGET


def _resolve(args, config: Config, name: str, flag: str):
    """Flag value, falling back to the config document's params."""
    value = getattr(args, name, None)
    if value is None:
        value = getattr(config, name, None)
    if value is None:
        raise ConfigInvalid(name, f"pass {flag} or set params.{name} in the config")
    return value


# --- subcommand handlers ------------------------------------------------------


def _cmd_encode(args) -> int:
    config = _load_config(args)
    digits = list(to_digits(config.sequence, args.n).digits)
    _emit(
        args,
        [{"position": i, "digit": c} for i, c in enumerate(digits)],
        text=",".join(map(str, digits)),
        doc={"n": str(args.n), "digits": digits},
    )
    return EXIT_OK


def _cmd_decode(args) -> int:
    config = _load_config(args)
    try:
        digits = tuple(int(p) for p in args.digits.split(","))
    except ValueError as exc:
        raise ConfigInvalid("digits", f"expected comma-separated integers, got {args.digits!r}") from exc
    n = str(from_digits(Numeral(digits, config.sequence)))
    _emit(args, {"n": n}, text=n, doc={"digits": list(digits), "n": n})
    return EXIT_OK


def _cmd_count(args) -> int:
    config = _load_config(args)
    constraint = _require_constraint(config)
    if (args.k is None) == (args.upto is None):
        raise ConfigInvalid("count", "pass exactly one of --k or --upto")
    if args.k is not None:
        block = block_count_exact(constraint, args.k)
        record = {
            "k": block.k,
            "count": str(block.exact),
            "product_bound": str(block.product_bound),
            "empty": block.empty,
        }
    else:
        record = {"upto": str(args.upto), "count": str(count_upto(constraint, args.upto))}
    _emit(args, record, text=record["count"])
    return EXIT_OK


def _cmd_member(args) -> int:
    config = _load_config(args)
    result = is_member(_require_constraint(config), args.n)
    _emit(args, {"n": str(args.n), "member": result}, text="true" if result else "false")
    return EXIT_OK


def _cmd_sum(args) -> int:
    config = _load_config(args)
    constraint = _require_constraint(config)
    upto = _resolve(args, config, "upto", "--upto")
    result = partial_sum_exact(constraint, upto, _budget(args, config))
    _emit(
        args,
        {"upto": str(upto), "value": result.value, "terms": result.terms, "truncated": result.truncated},
        text=_rat_text(result.value),
        csv_header=["upto", "num", "den", "terms", "truncated"],
    )
    if result.truncated:
        print(f"truncated after {result.terms} members", file=sys.stderr)
    return EXIT_TRUNCATED if result.truncated else EXIT_OK


# --check compares blocks against the oracle only while brute force stays cheap
CHECK_CAP = 10**5


def _cmd_blocks(args) -> int:
    config = _load_config(args)
    constraint = _require_constraint(config)
    reports = block_reports(constraint, _resolve(args, config, "max_k", "--max-k"))
    _emit(
        args,
        [
            {
                "k": r.k,
                "g_k": str(r.g_lo),
                "g_k1": str(r.g_hi),
                "count": str(r.count),
                "bracket_lo": r.bracket_lo,
                "bracket_hi": r.bracket_hi,
                "cum_lo": r.cumulative_lo,
                "cum_hi": r.cumulative_hi,
            }
            for r in reports
        ],
        table_header=["k", "g_k", "g_k+1", "count", "bracket_lo", "bracket_hi", "cum_lo", "cum_hi"],
    )
    if args.check:
        checked = [r for r in reports if r.g_hi - 1 <= CHECK_CAP]
        members = oracle_members(constraint, 1, checked[-1].g_hi - 1) if checked else []
        failures = block_mismatches(members, checked)
        for failure in failures:
            print(f"check failed: {failure}", file=sys.stderr)
        if failures:
            return EXIT_MISMATCH
        print("check: oracle agrees on all verified blocks", file=sys.stderr)
    return EXIT_OK


def _cmd_classify(args) -> int:
    config = _load_config(args)
    constraint = _require_constraint(config)
    delta = _parse_delta(args.delta, "delta") if args.delta is not None else config.delta
    result = classify(constraint, delta=delta)
    margin = result.margin or Margin()
    fields = {
        "delta": None if margin.delta is None else str(margin.delta),
        "threshold_label": margin.threshold_label,
        "threshold_index": margin.threshold_index,
        "value": None if margin.value is None else str(margin.value),
        "window": margin.window,
    }
    doc = {"verdict": result.verdict, "rule_fired": result.rule_fired, "notes": list(result.notes)}
    if result.margin is not None:
        doc["margin"] = fields
    lines = [
        ("verdict", result.verdict),
        ("rule", result.rule_fired),
        ("delta", fields["delta"]),
        (margin.threshold_label, margin.threshold_index),
        ("margin", fields["value"]),
    ] + [("note", note) for note in result.notes]
    _emit(
        args,
        {"verdict": result.verdict, "rule_fired": result.rule_fired}
        | {key: fields[key] for key in ("delta", "threshold_label", "threshold_index")},
        text="\n".join(f"{label}: {value}" for label, value in lines if value is not None),
        doc=doc,
    )
    return EXIT_OK


def _cmd_density(args) -> int:
    config = _load_config(args)
    constraint = _require_constraint(config)
    try:
        points = [int(p) for p in args.at.split(",") if p]
    except ValueError as exc:
        raise ConfigInvalid("at", f"expected comma-separated integers, got {args.at!r}") from exc
    if not points:
        raise ConfigInvalid("at", "at least one evaluation point is required")
    _emit(
        args,
        [{"n": str(n), "density": density(constraint, n)} for n in points],
        csv_header=["n", "num", "den"],
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    config = _load_config(args)
    constraint = _require_constraint(config)
    n_max = _resolve(args, config, "upto", "--upto")
    members = oracle_members(constraint, 1, n_max)
    records, lines, failures = [], [], []

    def checked(check, points, found, line):
        records.append({"check": check, "points": points, "mismatches": len(found)})
        lines.append(line)
        failures.extend(found)

    fast_total = count_upto(constraint, n_max)
    found = []
    if fast_total != len(members):
        found.append(f"count_upto({n_max}) = {fast_total}, oracle found {len(members)}")
    checked("count_upto", 1, found, f"members up to {n_max}: oracle {len(members)}, fast path {fast_total}")

    step = max(1, n_max // 64)
    points = range(step, n_max + 1, step)
    found = []
    for x in points:
        want = bisect.bisect_right(members, x)
        got = count_upto(constraint, x)
        if got != want:
            found.append(f"count_upto({x}) = {got}, oracle running count {want}")
    checked("running_counts", len(points), found, f"running counts checked at {len(points)} points")

    member_set = set(members)
    probes = range(1, n_max + 1, max(1, n_max // 512))
    found = [
        f"is_member({x}) disagrees with the oracle"
        for x in probes
        if is_member(constraint, x) != (x in member_set)
    ]
    checked("membership", len(probes), found, f"membership probed at {len(probes)} points")

    reports = block_reports(constraint, digit_count(constraint.sequence, n_max) - 1)
    blocks = [r for r in reports if r.g_hi - 1 <= n_max]
    checked(
        "blocks",
        len(blocks),
        block_mismatches(members, blocks),
        f"blocks fully below {n_max}: {len(blocks)} checked",
    )

    if not failures:
        lines.append("verify: oracle and fast paths agree")
    _emit(args, records, text="\n".join(lines))
    for failure in failures:
        print(f"MISMATCH: {failure}", file=sys.stderr)
    return EXIT_MISMATCH if failures else EXIT_OK


def _cmd_preset(args) -> int:
    if args.list:
        for name in preset_names():
            print(name)
        return EXIT_OK
    if not args.name:
        raise ConfigInvalid("preset", "pass --list or --name NAME")
    doc = preset_config(args.name, _parse_params(args.param))
    parse_dict(doc)  # presets are canonical; parsing only rejects bad parameters
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


# --- parser -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--preset", help="built-in configuration name")
    shared.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="preset parameter (repeatable)",
    )
    shared.add_argument("--config", help="path to a JSON configuration document")
    shared.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default="table",
        help="output format (default: table)",
    )

    parser = argparse.ArgumentParser(
        prog="kempner-lab",
        description="Exact mixed-radix missing-digit sets: counting, density, "
        "reciprocal-sum brackets, and convergence classification.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("encode", parents=[shared], help="digit vector of an integer")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_encode)

    p = sub.add_parser("decode", parents=[shared], help="integer value of a digit vector")
    p.add_argument("digits", help="comma separated, least significant first")
    p.set_defaults(handler=_cmd_decode)

    p = sub.add_parser("count", parents=[shared], help="exact member counts")
    p.add_argument("--k", type=int, help="count one block of (k+1)-digit members")
    p.add_argument("--upto", type=int, help="count members <= N")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("member", parents=[shared], help="membership test")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_member)

    p = sub.add_parser("sum", parents=[shared], help="exact partial reciprocal sum")
    p.add_argument("--upto", type=int)
    p.add_argument("--budget", type=int, help="max members to enumerate")
    p.set_defaults(handler=_cmd_sum)

    p = sub.add_parser("blocks", parents=[shared], help="per-block bracket table")
    p.add_argument("--max-k", type=int, dest="max_k")
    p.add_argument("--check", action="store_true", help="cross-check small blocks against the oracle")
    p.set_defaults(handler=_cmd_blocks)

    p = sub.add_parser("classify", parents=[shared], help="convergence/divergence verdict")
    p.add_argument("--delta", help="threshold exponent margin, e.g. 0.4 or 2/5")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("density", parents=[shared], help="A(n)/n at given points")
    p.add_argument("--at", required=True, help="comma separated evaluation points")
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser("verify", parents=[shared], help="cross-check fast paths against the oracle")
    p.add_argument("--upto", type=int)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("preset", parents=[shared], help="list or show built-in presets")
    p.add_argument("--list", action="store_true")
    p.add_argument("--name")
    p.set_defaults(handler=_cmd_preset)

    return parser


def main(argv=None) -> int:
    # Big results print in decimal; the caller's limit comes back on exit.
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(2_000_000)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, which here means truncation
        return EXIT_INVALID if exc.code == 2 else exc.code
    if not hasattr(args, "handler"):
        parser.print_help()
        return EXIT_INVALID
    try:
        return args.handler(args)
    except KempnerLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

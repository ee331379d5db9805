"""Byte-level CLI output: every subcommand on every preset in every format.

Each line of ``cli_golden.txt`` holds the sha256 of one command's stdout,
stderr and exit code, followed by the command line.  A change that means
to alter output regenerates the file with

    PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_golden.txt

and says which lines changed and why.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import kempner_lab.cli as cli
from kempner_lab.presets import preset_names

GOLDEN = Path(__file__).with_name("cli_golden.txt")

_SHAPES = [
    ["blocks", "--max-k", "8"],
    ["blocks", "--max-k", "5", "--check"],
    ["classify"],
    ["count", "--k", "5"],
    ["count", "--upto", "1000000"],
    ["density", "--at", "1,99,1000,123456"],
    ["sum", "--upto", "2000"],
    ["sum", "--upto", "20000", "--budget", "10"],
    ["verify", "--upto", "3000"],
    ["encode", "123456789"],
    ["decode", "1,0,1"],
    ["member", "1914"],
    ["member", "7"],
    ["preset", "--name"],
]

_ERRORS = [
    ["classify", "--preset", "kempner10", "--delta", "abc"],
    ["classify", "--preset", "kempner10", "--delta", "1/0"],
    ["classify", "--preset", "div-log", "--delta", "nan"],
    ["blocks", "--preset", "base-g-no-c", "--param", "g=x"],
    ["blocks", "--preset", "fixed-bits", "--param", "bits=0:2"],
    ["count", "--preset", "kempner10"],
    ["count", "--preset", "kempner10", "--k", "1", "--upto", "5"],
    ["count", "--preset", "kempner10", "--k", "-1"],
    ["member", "0", "--preset", "kempner10"],
    ["encode", "-5", "--preset", "kempner10"],
    ["decode", "1,0,0", "--preset", "kempner10"],
    ["decode", "1,x", "--preset", "kempner10"],
    ["decode", "1,10", "--preset", "kempner10"],
    ["density", "--at", "", "--preset", "kempner10"],
    ["sum", "--preset", "kempner10"],
    ["blocks", "--preset", "no-such-preset", "--max-k", "2"],
    ["preset"],
    ["verify", "--preset", "kempner10", "--upto", "100000000"],
]


def battery() -> list[list[str]]:
    lines = []
    for name in preset_names():
        for fmt in ("table", "csv", "json"):
            for shape in _SHAPES:
                where = [name] if shape[-1] == "--name" else ["--preset", name]
                lines.append(shape + where + ["--format", fmt])
    return lines + [["preset", "--list"]] + _ERRORS


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def _recorded() -> dict[str, str]:
    out = {}
    for line in GOLDEN.read_text().splitlines():
        sha, _, command = line.partition(" ")
        out[command] = sha
    return out


def test_golden_covers_the_battery():
    assert sorted(_recorded()) == sorted(" ".join(argv) for argv in battery())


def test_cli_output_matches_golden(monkeypatch):
    monkeypatch.delenv(cli.BUDGET_ENV, raising=False)
    recorded = _recorded()
    changed = [" ".join(argv) for argv in battery() if digest(argv) != recorded.get(" ".join(argv))]
    assert changed == []


if __name__ == "__main__":
    os.environ.pop(cli.BUDGET_ENV, None)
    for argv in battery():
        sys.stdout.write(f"{digest(argv)} {' '.join(argv)}\n")

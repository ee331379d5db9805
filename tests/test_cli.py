import contextlib
import csv
import io
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction

import pytest

import kempner_lab.cli as cli
from kempner_lab.config import parse_dict, parse_json
from kempner_lab.errors import ConfigInvalid
from kempner_lab.harmonic import BlockReport
from kempner_lab.presets import preset_config, preset_names


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_encode_decode_roundtrip(capsys):
    code, out, _ = run(capsys, "encode", "409", "--preset", "kempner10")
    assert code == 0 and out.strip() == "9,0,4"
    code, out, _ = run(capsys, "decode", "9,0,4", "--preset", "kempner10")
    assert code == 0 and out.strip() == "409"


def test_member_and_count(capsys):
    code, out, _ = run(capsys, "member", "1914", "--preset", "kempner10")
    assert code == 0 and out.strip() == "false"
    code, out, _ = run(capsys, "count", "--upto", "500", "--preset", "kempner10")
    assert code == 0 and out.strip() == "405"
    code, out, _ = run(capsys, "count", "--k", "1", "--preset", "kempner10")
    assert code == 0 and out.strip() == "72"


def test_count_requires_exactly_one_mode(capsys):
    code, _, err = run(capsys, "count", "--preset", "kempner10")
    assert code == 1 and "exactly one" in err
    code, _, err = run(capsys, "count", "--k", "1", "--upto", "5", "--preset", "kempner10")
    assert code == 1


def test_sum_and_truncation_exit_code(capsys):
    code, out, _ = run(capsys, "sum", "--upto", "9", "--preset", "kempner10")
    assert code == 0 and out.strip() == "761/280"
    code, out, err = run(
        capsys, "sum", "--upto", "1000000", "--budget", "10", "--preset", "kempner10"
    )
    assert code == 2
    assert "truncated" in err
    # a budget spent exactly on the members up to --upto is a complete sum
    code, out, err = run(capsys, "sum", "--upto", "1", "--budget", "1", "--preset", "kempner10")
    assert (code, out.strip(), err) == (0, "1/1", "")


def test_cli_import_leaves_openssl_unloaded():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, kempner_lab.cli; print('_hashlib' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_adds_neither_dataclasses_nor_inspect():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def modules(statement):
        probe = f"import sys; {statement}; print(' '.join(sys.modules))"
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    added = modules("import kempner_lab.cli") - modules("pass")
    assert "kempner_lab.cli" in added
    assert not added & {"dataclasses", "inspect"}


def test_budget_env_override(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv(cli.BUDGET_ENV, "10")
    code, _, err = run(capsys, "sum", "--upto", "1000000", "--preset", "kempner10")
    assert code == 2
    monkeypatch.setenv(cli.BUDGET_ENV, "not-a-number")
    code, _, err = run(capsys, "sum", "--upto", "10", "--preset", "kempner10")
    assert code == 1 and "KEMPNER_LAB_BUDGET" in err
    # a config's params.budget overrides the environment variable
    monkeypatch.setenv(cli.BUDGET_ENV, "1000")
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(dict(preset_config("kempner10"), params={"budget": 5})))
    code, _, err = run(capsys, "sum", "--upto", "1000000", "--config", str(path))
    assert code == 2 and "truncated after 5 members" in err


def test_blocks_csv_shape_and_determinism(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "blocks", "--max-k", "8", "--preset", "kempner10", "--format", "csv"
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    lines = outputs[0].strip().split("\n")
    assert lines[0] == (
        "k,g_k,g_k1,count,bracket_lo_num,bracket_lo_den,bracket_hi_num,bracket_hi_den,"
        "cum_lo_num,cum_lo_den,cum_hi_num,cum_hi_den"
    )
    assert len(lines) == 10
    first = lines[1].split(",")
    assert first[:4] == ["0", "1", "10", "8"]


def test_blocks_json_rationals_are_strings(capsys):
    code, out, _ = run(
        capsys, "blocks", "--max-k", "2", "--preset", "power2-no-zero", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc[1]["count"] == "3"
    assert doc[1]["bracket_lo"] == {"num": "3", "den": "8"}
    assert doc[1]["bracket_hi"] == {"num": "3", "den": "2"}


def test_blocks_check_passes(capsys):
    code, _, err = run(
        capsys, "blocks", "--max-k", "4", "--preset", "kempner10", "--check"
    )
    assert code == 0
    assert "oracle agrees" in err


def _count_plus_one(r):
    return BlockReport(
        r.k, r.g_lo, r.g_hi, r.count + 1, r.bracket_lo, r.bracket_hi, r.cumulative_lo, r.cumulative_hi
    )


def _tamper_first_block(monkeypatch):
    real = cli.block_reports

    def tampered(constraint, max_k):
        first = real(constraint, 0)[0]
        return [_count_plus_one(first)]

    monkeypatch.setattr(cli, "block_reports", tampered)


def test_verify_mismatch_exit_3(capsys, monkeypatch):
    _tamper_first_block(monkeypatch)
    code, out, err = run(capsys, "verify", "--upto", "1000", "--preset", "kempner10")
    assert code == cli.EXIT_MISMATCH == 3
    assert err == "MISMATCH: block 0: exact count 9, oracle 8\n"
    assert "agree" not in out


def test_blocks_check_mismatch_exit_3(capsys, monkeypatch):
    _tamper_first_block(monkeypatch)
    code, _, err = run(capsys, "blocks", "--max-k", "0", "--preset", "kempner10", "--check")
    assert code == 3
    assert err == "check failed: block 0: exact count 9, oracle 8\n"


def test_blocks_check_reports_every_mismatching_block(capsys, monkeypatch):
    real = cli.block_reports
    monkeypatch.setattr(
        cli,
        "block_reports",
        lambda c, max_k: [_count_plus_one(r) for r in real(c, max_k)],
    )
    code, _, err = run(capsys, "blocks", "--max-k", "2", "--preset", "kempner10", "--check")
    assert code == 3
    assert err.splitlines() == [
        "check failed: block 0: exact count 9, oracle 8",
        "check failed: block 1: exact count 73, oracle 72",
        "check failed: block 2: exact count 649, oracle 648",
    ]


def _cap_address_space_1gib():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_blocks_deep_power_rule_within_one_gib():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    argv = ["blocks", "--max-k", "26", "--preset", "power2-no-zero", "--format", "csv"]
    proc = subprocess.run(
        [sys.executable, "-m", "kempner_lab.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=_cap_address_space_1gib,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 1 + 27


def test_member_with_a_far_power_rule_override_within_one_gib(tmp_path):
    # d_i for i = 10**10 has 10**10 + 1 bits; the override is valid without
    # it, and its ratio-tail term is 0 because |U_i| equals the default's size
    doc = {
        "sequence": {"kind": "power", "base": 2},
        "constraint": {
            "index_set": {"kind": "all"},
            "forbidden": {"default": [0], "overrides": {"10000000000": [1]}},
        },
    }
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    outputs = []
    for argv in (["member", "77"], ["classify", "--format", "json"]):
        proc = subprocess.run(
            [sys.executable, "-m", "kempner_lab.cli", *argv, "--config", str(path)],
            capture_output=True,
            text=True,
            env=env,
            preexec_fn=_cap_address_space_1gib,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].strip() == "true"
    doc = json.loads(outputs[1])
    assert doc["verdict"] == "divergent"
    assert doc["margin"]["threshold_index"] == 2
    assert doc["margin"]["delta"] == "3/16"


def test_classify_presets(capsys):
    code, out, _ = run(capsys, "classify", "--preset", "kempner10", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "convergent"

    code, out, _ = run(capsys, "classify", "--preset", "power2-no-zero", "--format", "json")
    doc = json.loads(out)
    assert doc["verdict"] == "divergent"
    assert doc["margin"]["threshold_index"] == 2
    assert doc["margin"]["delta"] == "3/16"

    code, out, _ = run(capsys, "classify", "--preset", "div-log", "--format", "json")
    doc = json.loads(out)
    assert doc["verdict"] == "divergent"
    assert doc["margin"]["delta"] == "2/5"

    code, out, _ = run(capsys, "classify", "--preset", "open-boundary", "--format", "json")
    doc = json.loads(out)
    assert doc["verdict"] == "inconclusive"


def test_classify_delta_flag_overrides(capsys):
    code, out, _ = run(
        capsys, "classify", "--preset", "div-log", "--delta", "1/4", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["margin"]["delta"] == "1/4"


@pytest.mark.parametrize("bad", ["abc", "1/0", "nan"])
def test_classify_bad_delta_exits_1(capsys, bad):
    code, out, err = run(capsys, "classify", "--preset", "div-log", "--delta", bad)
    assert code == cli.EXIT_INVALID
    assert out == "" and err.startswith("error: delta: ")


def test_density_output(capsys):
    code, out, _ = run(
        capsys, "density", "--at", "9,999", "--preset", "kempner10", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1] == "9,8,9"
    assert lines[2] == "999,728,999"


def test_verify_agrees(capsys):
    code, out, _ = run(capsys, "verify", "--upto", "5000", "--preset", "kempner10")
    assert code == 0
    assert "agree" in out


def test_verify_formats_carry_the_same_records(capsys):
    argv = ["verify", "--upto", "3000", "--preset", "kempner10"]
    code, table, _ = run(capsys, *argv)
    assert code == 0
    assert table == (
        "members up to 3000: oracle 2187, fast path 2187\n"
        "running counts checked at 65 points\n"
        "membership probed at 600 points\n"
        "blocks fully below 3000: 3 checked\n"
        "verify: oracle and fast paths agree\n"
    )
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = [
        {"check": r["check"], "points": int(r["points"]), "mismatches": int(r["mismatches"])}
        for r in csv.DictReader(io.StringIO(out))
    ]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out) == rows
    assert [r["check"] for r in rows] == ["count_upto", "running_counts", "membership", "blocks"]
    assert [r["points"] for r in rows] == [1, 65, 600, 3]
    assert all(r["mismatches"] == 0 for r in rows)


def test_verify_mismatch_in_every_format(capsys, monkeypatch):
    _tamper_first_block(monkeypatch)
    for fmt in ("csv", "json"):
        code, out, err = run(capsys, "verify", "--upto", "1000", "--preset", "kempner10", "--format", fmt)
        assert code == 3
        assert err == "MISMATCH: block 0: exact count 9, oracle 8\n"
        blocks = json.loads(out)[-1] if fmt == "json" else list(csv.DictReader(io.StringIO(out)))[-1]
        assert (blocks["check"], int(blocks["mismatches"])) == ("blocks", 1)


def test_verify_each_preset_small(capsys):
    for name in preset_names():
        code, out, _ = run(capsys, "verify", "--upto", "2000", "--preset", name)
        assert code == 0, name


def test_preset_listing_and_dump(capsys, tmp_path):
    code, out, _ = run(capsys, "preset", "--list")
    assert code == 0
    assert set(out.split()) == set(preset_names())

    code, out, _ = run(capsys, "preset", "--name", "div-log")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["delta"] == "2/5"

    # dumped preset feeds back through --config unchanged
    path = tmp_path / "cfg.json"
    path.write_text(out)
    code, out2, _ = run(capsys, "classify", "--config", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out2)["verdict"] == "divergent"


def test_config_params_feed_flag_defaults(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    code, out, _ = run(capsys, "preset", "--name", "kempner10")
    doc = json.loads(out)
    doc["params"] = {"max_k": 2, "upto": 9}
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "blocks", "--config", str(path), "--format", "csv")
    assert code == 0 and len(out.strip().split("\n")) == 4
    code, out, _ = run(capsys, "sum", "--config", str(path))
    assert code == 0 and out.strip() == "761/280"
    # flags still win over the document
    code, out, _ = run(capsys, "blocks", "--config", str(path), "--format", "csv", "--max-k", "0")
    assert len(out.strip().split("\n")) == 2
    code, _, err = run(capsys, "blocks", "--preset", "kempner10")
    assert code == 1 and "max_k" in err


def test_preset_params(capsys):
    code, out, _ = run(
        capsys, "member", "60", "--preset", "base-g-no-c", "--param", "g=10", "--param", "c=0"
    )
    assert code == 0 and out.strip() == "false"
    code, out, _ = run(
        capsys, "encode", "5", "--preset", "fixed-bits", "--param", "bits=0:1,2:1"
    )
    assert code == 0 and out.strip() == "1,0,1"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["member", "5", "--preset", "base-g-no-c", "--param", "g=abc"], "params.g: expected an integer"),
        (["member", "5", "--preset", "base-g-no-c", "--param", "c=abc"], "params.c: expected an integer"),
        (
            ["encode", "5", "--preset", "fixed-bits", "--param", "bits=0:2"],
            "params.bits: a pinned bit must be 0 or 1",
        ),
    ],
)
def test_bad_preset_params_exit_1(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 1 and err.startswith(f"error: {message}")


def test_member_and_decode_csv(capsys):
    code, out, _ = run(capsys, "member", "1914", "--preset", "kempner10", "--format", "csv")
    assert code == 0 and out == "n,member\n1914,False\n"
    code, out, _ = run(capsys, "decode", "9,0,4", "--preset", "kempner10", "--format", "csv")
    assert code == 0 and out == "n\n409\n"


def _value(v):
    if isinstance(v, dict):
        return Fraction(int(v["num"]), int(v["den"]))
    if v in ("True", "False"):
        return v == "True"
    return int(v) if isinstance(v, str) else v


def _csv_records(text):
    rows = list(csv.reader(io.StringIO(text)))
    out = []
    for row in rows[1:]:
        cells = iter(zip(rows[0], row))
        record = []
        for name, cell in cells:
            if name.endswith("num"):
                den_name, den = next(cells)
                assert den_name.endswith("den")
                record.append(Fraction(int(cell), int(den)))
            else:
                record.append(_value(cell))
        out.append(record)
    return out


def _json_records(doc):
    return [[_value(v) for v in r.values()] for r in (doc if isinstance(doc, list) else [doc])]


@pytest.mark.parametrize("preset", ["kempner10", "power2-no-zero"])
@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--k", "6"],
        ["count", "--upto", "123456789"],
        ["sum", "--upto", "300"],
        ["density", "--at", "9,999,123456"],
        ["blocks", "--max-k", "5"],
        ["encode", "123456789"],
    ],
    ids=["count-k", "count-upto", "sum", "density", "blocks", "encode"],
)
def test_csv_and_json_carry_the_same_values(capsys, argv, preset):
    code, csv_out, _ = run(capsys, *argv, "--preset", preset, "--format", "csv")
    assert code == 0
    code, json_out, _ = run(capsys, *argv, "--preset", preset, "--format", "json")
    assert code == 0
    doc = json.loads(json_out)
    if argv[0] == "encode":
        doc = [{"position": i, "digit": c} for i, c in enumerate(doc["digits"])]
    # JSON sorts its keys and CSV renames rational columns, so compare each
    # record's values as a multiset; repr keeps True apart from 1
    key = lambda record: sorted(map(repr, record))
    assert list(map(key, _csv_records(csv_out))) == list(map(key, _json_records(doc)))


def test_sum_machine_formats(capsys):
    code, out, _ = run(
        capsys, "sum", "--upto", "9", "--preset", "kempner10", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == {"num": "761", "den": "280"}
    assert doc["terms"] == 8 and doc["truncated"] is False

    code, out, _ = run(
        capsys, "sum", "--upto", "9", "--preset", "kempner10", "--format", "csv"
    )
    assert out.strip().split("\n")[1] == "9,761,280,8,False"


def test_decode_rejects_bad_digit_vectors(capsys):
    code, _, err = run(capsys, "decode", "9,9", "--preset", "open-boundary")
    assert code == 1 and "outside" in err
    code, _, err = run(capsys, "decode", "1,0", "--preset", "kempner10")
    assert code == 1
    code, _, err = run(capsys, "decode", "x,1", "--preset", "kempner10")
    assert code == 1


def test_negative_cli_arguments_exit_1(capsys):
    code, _, _ = run(capsys, "count", "--k", "-1", "--preset", "kempner10")
    assert code == 1
    code, _, _ = run(capsys, "blocks", "--max-k", "-2", "--preset", "kempner10")
    assert code == 1
    code, _, _ = run(capsys, "encode", "0", "--preset", "kempner10")
    assert code == 1


def test_bad_inputs_exit_1(capsys, tmp_path):
    code, _, err = run(capsys, "count", "--k", "1", "--preset", "missing-preset")
    assert code == 1
    code, _, err = run(capsys, "count", "--k", "1")
    assert code == 1 and "configuration is required" in err
    bad = tmp_path / "bad.json"
    bad.write_text('{"sequence": {"kind": "constant", "d": 1}}')
    code, _, err = run(capsys, "count", "--k", "1", "--config", str(bad))
    assert code == 1 and "sequence" in err
    worse = tmp_path / "worse.json"
    worse.write_text("{not json")
    code, _, err = run(capsys, "encode", "5", "--config", str(worse))
    assert code == 1


def test_config_round_trip(capsys):
    forms = [(name, {}) for name in preset_names()] + [
        ("base-g-no-c", {"g": "7", "c": "3"}),
        ("base-g-no-c", {"g": "0010"}),
        ("fixed-bits", {"bits": "5:0, 0:1,3:1"}),
    ]
    for name, params in forms:
        doc = preset_config(name, params)
        argv = [arg for k, v in params.items() for arg in ("--param", f"{k}={v}")]
        code, out, _ = run(capsys, "preset", "--name", name, *argv)
        assert code == 0
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert parse_json(out) == parse_dict(doc)
    for argv in (["base-g-no-c", "--param", "g=1"], ["fixed-bits", "--param", "bits=2:1,2:0"]):
        code, out, err = run(capsys, "preset", "--name", *argv)
        assert code == 1 and out == "" and err.startswith("error:")


def test_config_validation_paths():
    with pytest.raises(ConfigInvalid) as e:
        parse_dict({"sequence": {"kind": "nope"}})
    assert e.value.path == "sequence.kind"
    with pytest.raises(ConfigInvalid) as e:
        parse_dict({"sequence": {"kind": "constant"}})
    assert e.value.path == "sequence.d"
    with pytest.raises(ConfigInvalid) as e:
        parse_dict(
            {
                "sequence": {"kind": "constant", "d": 10},
                "constraint": {
                    "index_set": {"kind": "arithmetic", "first": 0},
                    "forbidden": {"default": [9]},
                },
            }
        )
    assert e.value.path == "constraint.index_set.step"
    with pytest.raises(ConfigInvalid) as e:
        parse_dict({"sequence": {"kind": "constant", "d": 10}, "params": {"zzz": 1}})
    assert e.value.path == "params.zzz"
    with pytest.raises(ConfigInvalid) as e:
        parse_dict({"sequence": {"kind": "constant", "d": 10}, "params": {"delta": "x"}})
    assert e.value.path == "params.delta"
    power2 = {"kind": "power", "base": 2}
    for doc, path in [
        ({"sequence": {"kind": "explicit", "values": [3], "extnd": "cycle"}}, "sequence.extnd"),
        (
            {"sequence": power2, "constraint": {"index_set": {"kind": "all"}, "forbidden": {"default": [0]}, "x": 1}},
            "constraint.x",
        ),
        (
            {"sequence": power2, "constraint": {"index_set": {"kind": "all", "stride": 2}, "forbidden": {}}},
            "constraint.index_set.stride",
        ),
        (
            {
                "sequence": power2,
                "constraint": {"index_set": {"kind": "complement", "of": {"kind": "all", "x": 1}}, "forbidden": {}},
            },
            "constraint.index_set.of.x",
        ),
        (
            {
                "sequence": power2,
                "constraint": {"index_set": {"kind": "all"}, "forbidden": {"default": [0], "overides": {"3": [1]}}},
            },
            "constraint.forbidden.overides",
        ),
        (
            {
                "sequence": power2,
                "constraint": {
                    "index_set": {"kind": "all"},
                    "forbidden": {"default": [0], "overrides": {"3": [0], "03": [1], " 3": [1]}},
                },
            },
            "constraint.forbidden.overrides.03",
        ),
        *(
            (
                {
                    "sequence": power2,
                    "constraint": {"index_set": {"kind": "all"}, "forbidden": {"default": [0], "overrides": {key: [1]}}},
                },
                f"constraint.forbidden.overrides.{key}",
            )
            for key in ("1_0", "+2", " 5 ", "\u00b2")
        ),
        ({"sequence": {"kind": "constant", "d": 10, "base": 3, "values": [1]}}, "sequence.base"),
        (
            {"sequence": power2, "constraint": {"index_set": {"kind": "all", "step": 2, "indices": [5]}, "forbidden": {}}},
            "constraint.index_set.indices",
        ),
    ]:
        with pytest.raises(ConfigInvalid) as e:
            parse_dict(doc)
        assert e.value.path == path
    with pytest.raises(ConfigInvalid, match="expected 'repeat-last' or 'cycle', got 'loop'") as e:
        parse_dict({"sequence": {"kind": "explicit", "values": [3], "extend": "loop"}})
    assert e.value.path == "sequence.extend"


def test_sequence_bound_hint_must_be_the_rules_own():
    assert parse_dict({"sequence": {"kind": "constant", "d": 10, "bound_hint": 10}}).sequence.bound_hint == 10
    explicit = {"kind": "explicit", "values": [3, 9, 2], "extend": "cycle", "bound_hint": 9}
    assert parse_dict({"sequence": explicit}).sequence.bound_hint == 9
    for doc in (
        {"kind": "constant", "d": 10, "bound_hint": 12},
        {"kind": "explicit", "values": [3, 9], "bound_hint": 3},
        {"kind": "power", "base": 2, "bound_hint": 64},
        {"kind": "factorial", "bound_hint": 100},
    ):
        with pytest.raises(ConfigInvalid) as e:
            parse_dict({"sequence": doc})
        assert e.value.path == "sequence.bound_hint"


def test_presets_reject_parameters_they_do_not_read(capsys):
    for name, params, key in [
        ("kempner10", {"g": "5", "colour": "red"}, "colour"),
        ("kempner10", {"g": "5"}, "g"),
        ("base-g-no-c", {"d": "5"}, "d"),
        ("fixed-bits", {"bits": "0:1", "g": "2"}, "g"),
    ]:
        with pytest.raises(ConfigInvalid) as e:
            preset_config(name, params)
        assert e.value.path == f"params.{key}"
    code, out, err = run(capsys, "count", "--k", "2", "--preset", "base-g-no-c", "--param", "d=5")
    assert code == 1 and out == "" and "params.d" in err


@pytest.mark.parametrize(
    "preset, argv, message",
    [
        ("base-g-no-c", ["--param", "g=5", "--param", "g=7"], "params.g: given twice"),
        ("base-g-no-c", ["--param", "g=5", "--param", "c=1", "--param", "c=1"], "params.c: given twice"),
        ("fixed-bits", ["--param", "bits=2:1,2:0"], "params.bits: position 2 is given twice"),
    ],
)
def test_a_repeated_preset_parameter_is_an_error(capsys, preset, argv, message):
    code, out, err = run(capsys, "count", "--k", "2", "--preset", preset, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


_TEN = {"kind": "constant", "d": 10}
_HELP = object()  # stands for the parser's help text


def _doc(index_set=None, forbidden=None, **extra) -> dict:
    constraint = {"index_set": index_set or {"kind": "all"}, "forbidden": forbidden or {"default": [9]}}
    return {"sequence": _TEN, "constraint": constraint, **extra}


# Every input-error path of the config layer and the CLI, with its exact
# output.  A document (a dict, or raw text) is written to a file and passed
# with --config; {tmp} in argv and err stands for that file's folder.
@pytest.mark.parametrize(
    "argv, doc, code, out, err",
    [
        (
            ["count", "--k", "1", "--preset", "base-g-no-c", "--param", "g"],
            None, 1, "", "error: param: expected KEY=VALUE, got 'g'\n",
        ),
        (
            ["blocks", "--preset", "kempner10"],
            {"sequence": _TEN}, 1, "", "error: --config and --preset are mutually exclusive\n",
        ),
        (["count", "--k", "1", "--param", "g=5"], _doc(), 1, "", "error: param: --param only applies to --preset\n"),
        (
            ["count", "--k", "1", "--config", "{tmp}/missing.json"],
            None, 1, "",
            "error: cannot read config file: [Errno 2] No such file or directory: '{tmp}/missing.json'\n",
        ),
        (
            ["count", "--k", "1"],
            None, 1, "", "error: a configuration is required: pass --preset NAME or --config FILE\n",
        ),
        (
            ["count", "--k", "1"],
            {"sequence": _TEN}, 1, "", "error: constraint: this command needs a digit constraint\n",
        ),
        (
            ["density", "--at", "1,x", "--preset", "kempner10"],
            None, 1, "", "error: at: expected comma-separated integers, got '1,x'\n",
        ),
        ([], None, 1, _HELP, ""),
        (
            ["encode", "5"],
            {"sequence": {"kind": "constant", "d": "10"}}, 1, "", "error: sequence.d: expected an integer, got '10'\n",
        ),
        (
            ["encode", "5"],
            {"sequence": {"kind": "explicit", "values": 3}}, 1, "",
            "error: sequence.values: expected a list of integers\n",
        ),
        (["encode", "5"], {"sequence": [10]}, 1, "", "error: sequence: expected an object\n"),
        (["count", "--k", "1"], _doc(index_set="all"), 1, "", "error: constraint.index_set: expected an object\n"),
        (
            ["count", "--k", "1"],
            _doc(index_set={"kind": "odd"}), 1, "",
            "error: constraint.index_set.kind: expected one of "
            "('all', 'explicit', 'arithmetic', 'powers-of', 'complement'), got 'odd'\n",
        ),
        (
            ["encode", "5"],
            {"sequence": {"kind": ["constant"]}}, 1, "",
            "error: sequence.kind: expected one of ('constant', 'explicit', 'power', 'factorial'), got ['constant']\n",
        ),
        (
            ["count", "--k", "1"],
            _doc(index_set={"kind": "arithmetic", "first": 0, "step": 0}), 1, "",
            "error: constraint.index_set: step must be >= 1, got 0\n",
        ),
        (
            ["count", "--k", "1"],
            _doc(index_set={"kind": "complement", "of": {"kind": "powers-of", "base": 1}}), 1, "",
            "error: constraint.index_set.of: power index base must be >= 2, got 1\n",
        ),
        (
            ["count", "--k", "1"],
            {"sequence": _TEN, "constraint": [1]}, 1, "", "error: constraint: expected an object\n",
        ),
        (["count", "--k", "1"], _doc(forbidden=[9]), 1, "", "error: constraint.forbidden: expected an object\n"),
        (
            ["count", "--k", "1"],
            _doc(forbidden={"default": [9], "overrides": [1]}), 1, "",
            "error: constraint.forbidden.overrides: expected an object keyed by position\n",
        ),
        (
            ["count", "--k", "1"],
            _doc(forbidden={"default": [10]}), 1, "",
            "error: constraint: forbidden digit 10 at position 0 outside [0, 9]\n",
        ),
        (
            ["classify"],
            _doc(params={"delta": 0.4}), 0,
            "verdict: convergent\nrule: bounded-quotients:index-count-dominates-threshold\ndelta: 2/5\nk0: 52\n"
            "note: finiteness check: member set is infinite\n"
            "note: count(k) certified >= (1+2/5) ln k / ln(10/9) for all k >= 52\n",
            "",
        ),
        (["encode", "5"], [1], 1, "", "error: top-level document must be an object\n"),
        (
            ["encode", "5"],
            "{not json", 1, "",
            "error: not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n",
        ),
        (["encode", "5"], {"constraint": None}, 1, "", "error: sequence: required field is missing\n"),
        (["encode", "5"], {"sequence": _TEN, "params": [1]}, 1, "", "error: params: expected an object\n"),
        (["member", "9", "--preset", "fixed-bits", "--param", "bits=0:1,,2:0"], None, 0, "true\n", ""),
        (
            ["member", "9", "--preset", "fixed-bits", "--param", "bits=a:b"],
            None, 1, "", "error: params.bits: expected entries like '3:0', got 'a:b'\n",
        ),
        (
            ["member", "9", "--preset", "fixed-bits", "--param", "bits=,"],
            None, 1, "", "error: params.bits: at least one pinned bit is required\n",
        ),
        (
            ["encode", "100", "--preset", "base-g-no-c", "--param", "g=1_0"],
            None, 1, "", "error: params.g: expected an integer, got '1_0'\n",
        ),
        (
            ["encode", "100", "--preset", "base-g-no-c", "--param", "g=+7"],
            None, 1, "", "error: params.g: expected an integer, got '+7'\n",
        ),
        (
            ["encode", "100", "--preset", "base-g-no-c", "--param", "c= 1"],
            None, 1, "", "error: params.c: expected an integer, got ' 1'\n",
        ),
        (
            ["member", "9", "--preset", "fixed-bits", "--param", "bits=1_0:1"],
            None, 1, "", "error: params.bits: expected entries like '3:0', got '1_0:1'\n",
        ),
        (
            ["member", "9", "--preset", "fixed-bits", "--param", "bits=0 :1"],
            None, 1, "", "error: params.bits: expected entries like '3:0', got '0 :1'\n",
        ),
        (
            ["member", "9", "--preset", "fixed-bits", "--param", "bits=-1:1"],
            None, 1, "", "error: params.bits: a pinned position must be nonnegative, got '-1:1'\n",
        ),
        (
            ["encode", "100", "--preset", "base-g-no-c", "--param", "g=-3"],
            None, 1, "", "error: sequence: constant quotient must be >= 2, got -3\n",
        ),
        (
            ["encode", "100", "--preset", "base-g-no-c", "--param", "c=-1"],
            None, 1, "", "error: constraint: forbidden digits must be nonnegative, got -1\n",
        ),
        (
            ["member", "9", "--preset", "fixed-bits", "--param", "bits=0:-1"],
            None, 1, "", "error: params.bits: a pinned bit must be 0 or 1, got '0:-1'\n",
        ),
    ],
    ids=[
        "param-without-equals", "config-and-preset", "config-and-param", "unreadable-config", "no-config",
        "no-constraint", "density-bad-point", "no-subcommand", "int-field-not-int", "int-list-not-list",
        "sequence-not-object", "index-set-not-object", "index-kind-unknown", "kind-unhashable", "index-step-0",
        "complement-inner-record", "constraint-not-object", "forbidden-not-object", "overrides-not-object",
        "default-outside-quotient", "delta-json-float", "top-level-not-object", "not-json", "sequence-missing",
        "params-not-object", "bits-empty-entry", "bits-not-int", "bits-none", "param-underscore", "param-plus",
        "param-space", "bits-underscore", "bits-space", "bits-negative-position", "param-negative-g",
        "param-negative-c", "bits-negative-bit",
    ],
)
def test_input_errors_exit_with_one_line(capsys, tmp_path, argv, doc, code, out, err):
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    if doc is not None:
        path = tmp_path / "config.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        argv += ["--config", str(path)]
    if out is _HELP:
        out = cli._build_parser().format_help()
    assert run(capsys, *argv) == (code, out, err.replace("{tmp}", str(tmp_path)))


@pytest.mark.parametrize(
    "argv",
    [["count", "--k", "abc", "--preset", "kempner10"], ["frobnicate"]],
    ids=["bad-int", "unknown-command"],
)
def test_usage_errors_exit_invalid_not_truncated(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (cli.EXIT_INVALID, "")
    assert err.startswith("usage: kempner-lab") and "error: argument" in err


@pytest.mark.parametrize("argv", [["-h"], ["count", "-h"]])
def test_help_still_exits_zero(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out.startswith("usage: kempner-lab")


def test_complement_index_set_config():
    doc = {
        "sequence": {"kind": "constant", "d": 10, "bound_hint": 10},
        "constraint": {
            "index_set": {"kind": "complement", "of": {"kind": "powers-of", "base": 2}},
            "forbidden": {"default": [9], "overrides": {}},
        },
    }
    config = parse_dict(doc)
    assert not config.constraint.index_set.contains(1)
    assert config.constraint.index_set.contains(3)


@pytest.mark.parametrize(
    "argv",
    [["preset", "--list"], ["count", "--preset", "kempner10"], ["count", "--bogus"]],
    ids=["ok", "exit-1", "argparse-error"],
)
def test_main_restores_str_digit_limit(capsys, argv):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        with contextlib.suppress(SystemExit):
            cli.main(argv)
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(old)
    capsys.readouterr()

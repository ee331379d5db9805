"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402

DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_quick_mode_runs_and_checks_every_workload():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert [(r["workload"], r["trace"]) for r in lines] == [
        (w["name"], t) for w in DEFINITION["workloads"] for t in (0, 1)
    ]
    for r in lines:
        assert r["correct"], r
        kind = "per_layer" if r["trace"] else "end_to_end"
        assert list(r["metrics"]) == [m["name"] for m in DEFINITION[kind]]
        # One pass untraced, or one untraced and one traced; the only
        # failures are the two known classify cases, once a pass.
        passes = 1 + r["trace"]
        assert r["failed"] == (2 * passes if r["workload"] == "counts" else 0)
    for r in lines:
        if not r["trace"]:
            assert all(m["value"] > 0 for m in r["metrics"].values()), r


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "digits", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_self_time_excludes_children_and_uninstall_restores():
    tracer = tracing.Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        traced_inner()

    traced_inner = tracer.wrap("inner", inner)
    tracer.wrap("outer", outer)()
    summary = tracer.summary()
    assert summary["outer"]["calls"] == summary["inner"]["calls"] == 1
    assert summary["outer"]["total_s"] >= summary["inner"]["total_s"] >= 0.02
    assert 0.01 <= summary["outer"]["self_s"] < 0.02

    class Holder:
        def method(self):
            return 1

    tracer._patch(Holder, "method", tracer.wrap("m", Holder.method))
    assert Holder().method() == 1 and tracer.summary()["m"]["calls"] == 1
    tracer.uninstall()
    assert Holder.method.__name__ == "method" and not hasattr(Holder.method, "__wrapped__")

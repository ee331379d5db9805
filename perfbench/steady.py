"""Steadiness check: two interleaved sets of benchmark runs of the same code.

    python3 perfbench/steady.py [--runs 5] [--workloads digits,counts] [--seconds S]

For each workload it runs ``run.py`` as set A and set B, alternating
A, B, A, B, ..., each run with its own seed and one process at a time
(``run.py`` pins PYTHONHASHSEED itself).  It prints, per workload and end-to-end
metric, each set's median and quartiles, the spread (quartile distance
over median) of each set and of both pooled, and how far B's median is
from A's, all against the metric's bound in BENCHMARK.json.  It also
compares the share of failed operations between the sets, and shows the
range of the speed probe each run recorded, which tells a drifting
machine from a noisy benchmark.  The bounds in BENCHMARK.json are set
from this output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    saved = json.loads((HERE / "results" / f"{workload}-{seed}-trace0.json").read_text(encoding="utf-8"))
    result["speed_probe_ms"] = 1000 * min(saved["detail"]["speed_probe_s"])
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """median, first quartile, third quartile, (q3 - q1) / median"""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    definition = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in definition["workloads"]))
    parser.add_argument("--seconds", type=int, default=definition["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    metrics = definition["end_to_end"]

    results = {w: {"A": [], "B": []} for w in names}
    seed = args.first_seed
    started = time.monotonic()
    for i in range(args.runs):
        for w in names:
            for side in ("A", "B"):
                results[w][side].append({"seed": seed, **run(w, seed, args.seconds)})
                seed += 1
        print(f"round {i + 1}/{args.runs} done after {time.monotonic() - started:.0f} s", file=sys.stderr)

    ok = True
    print(f"{'workload':8} {'metric':12} {'bound':>6} {'A median':>10} {'A q1..q3':>21} {'A spread':>9} "
          f"{'B median':>10} {'B q1..q3':>21} {'B spread':>9} {'pooled':>7} {'B/A-1':>7}  verdict")
    for w in names:
        shares = {}
        for side in ("A", "B"):
            runs = results[w][side]
            shares[side] = {Fraction(r["failed"], r["attempted"]) for r in runs}
            if not all(r["correct"] for r in runs):
                ok = False
                print(f"{w}: set {side} has incorrect runs")
        if len(shares["A"] | shares["B"]) != 1:
            ok = False
            print(f"{w}: failed share differs between runs: {sorted(shares['A'] | shares['B'])}")
        for m in metrics:
            a = [r["metrics"][m["name"]]["value"] for r in results[w]["A"]]
            b = [r["metrics"][m["name"]]["value"] for r in results[w]["B"]]
            ma, a1, a3, sa = spread(a)
            mb, b1, b3, sb = spread(b)
            pooled = spread(a + b)[3]
            shift = mb / ma - 1
            bound = m["bound"]
            checked = [shift] if m["name"] == "setup_s" else [sa, sb, pooled, shift]
            verdict = "ok" if all(abs(x) <= bound for x in checked) else "OVER BOUND"
            if verdict == "ok" and max(abs(x) for x in checked) > bound / 3:
                verdict = "ok (above a third of the bound)"
            ok = ok and verdict.startswith("ok")
            print(f"{w:8} {m['name']:12} {bound:6.3f} {ma:10.5g} {a1:10.5g}..{a3:<9.5g} {sa:9.4f} "
                  f"{mb:10.5g} {b1:10.5g}..{b3:<9.5g} {sb:9.4f} {pooled:7.4f} {shift:+7.4f}  {verdict}")
        print(f"{w:8} failed share {', '.join(map(str, sorted(shares['A'] | shares['B'])))}")
        probes = {side: [r["speed_probe_ms"] for r in results[w][side]] for side in ("A", "B")}
        print(f"{w:8} speed probe ms  A {min(probes['A']):.2f}..{max(probes['A']):.2f}  "
              f"B {min(probes['B']):.2f}..{max(probes['B']):.2f}")
    out = HERE / "results" / f"steady-{int(time.time())}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"runs written to {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of kempner-lab: four workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick

Run from the root of a checkout.  A run sets the workload up several
times (set-up time is their median), then repeats passes over the
workload's fixed operation list until ``--seconds`` have gone by, and
checks every output.  With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
prints the per-layer metrics.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--quick`` runs every workload once at a small size with all checks on.
Exit code 2 means the program or the benchmark's own files are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Workload processes run with string hashing pinned, so set iteration
# order (and with it the program's work) is the same in every run.
HASH_SEED = "0"
SETUP_REPEATS = 11
# The traced run stops tracing further passes past this many spans.
SPAN_CAP = 2_000_000
WORKLOADS = ("digits", "counts", "sums", "cli")
PROGRAM_MODULES = ("gadic", "indexsets", "constraints", "exactsum", "harmonic", "oracle", "config", "presets")


class Missing(Exception):
    """The program or the benchmark definition is not in this checkout."""


def import_program(with_cli: bool):
    """Import kempner_lab afresh from this checkout's ``src``."""
    for key in [k for k in sys.modules if k == "kempner_lab" or k.startswith("kempner_lab.")]:
        del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        kl = importlib.import_module("kempner_lab")
    except ImportError as exc:
        raise Missing(f"cannot import kempner_lab from {SRC}: {exc}") from exc
    if not Path(kl.__file__).resolve().is_relative_to(SRC.resolve()):
        raise Missing(f"kempner_lab was imported from {kl.__file__}, not from {SRC}")
    modules = {name: importlib.import_module(f"kempner_lab.{name}") for name in PROGRAM_MODULES}
    if with_cli:
        modules["cli"] = importlib.import_module("kempner_lab.cli")
    return SimpleNamespace(kl=kl, **modules)


def load_definition() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise Missing(f"{path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


class Workload:
    """One workload's set-up and passes, in this process."""

    def __init__(self, name: str, seed: int, size: str, cli_mode: str = "subprocess"):
        self.name = name
        self.seed = seed
        self.size = workloads.SIZES[size]
        self.cli_mode = cli_mode
        self.workdir = None

    def setup(self):
        """Import, then parse, construct and warm up; returns the op list."""
        self.P = import_program(with_cli=self.name == "cli")
        return self.build()

    def build(self):
        P = self.P
        rng = random.Random(self.seed)
        if self.name == "digits":
            return workloads.build_digits(P, rng, self.size)
        if self.name == "counts":
            return workloads.build_counts(P, rng, self.size)
        if self.name == "sums":
            return workloads.build_sums(P, rng, self.size)
        if self.workdir is None:
            RESULTS.mkdir(exist_ok=True)
            self.workdir = tempfile.mkdtemp(prefix="cli-", dir=RESULTS)
        self.runner = workloads.CliRunner(P, str(SRC), in_process=self.cli_mode == "in-process")
        return workloads.build_cli(P, rng, self.size, self.runner, self.workdir)

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None

    def cpu_clock(self):
        if self.name == "cli" and self.cli_mode == "subprocess":
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
            return usage.ru_utime + usage.ru_stime
        return time.process_time()

    def peak_rss_mb(self) -> float:
        who = resource.RUSAGE_CHILDREN if self.name == "cli" and self.cli_mode == "subprocess" else resource.RUSAGE_SELF
        return resource.getrusage(who).ru_maxrss / 1024


def run_pass(workload: Workload, ops) -> dict:
    """One pass over the op list.  Wall and CPU time cover the calls only;
    checks run outside the timed regions.  Each pass starts after a full
    garbage collection, so garbage the program left in reference cycles
    during one pass is not collected, at a varying moment, in the next."""
    gc.collect()
    wall = cpu = 0.0
    failed = []
    wrong = []
    clock, cpu_clock = time.perf_counter, workload.cpu_clock
    for op in ops:
        c0 = cpu_clock()
        t0 = clock()
        try:
            out = op.call()
        except Exception as exc:  # counted as a failed operation, run goes on
            t1 = clock()
            c1 = cpu_clock()
            failed.append(f"{op.label}: {type(exc).__name__}: {str(exc)[:120]}")
        else:
            t1 = clock()
            c1 = cpu_clock()
            try:
                problem = op.check(out)
            except Exception:
                problem = "check raised: " + traceback.format_exc(limit=2)
            if problem is not None:
                wrong.append(f"{op.label}: {problem}")
        wall += t1 - t0
        cpu += c1 - c0
    return {"wall_s": wall, "cpu_s": cpu, "failed": failed, "wrong": wrong}


def measure_setup(workload: Workload):
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = workload.setup()
        samples.append(time.perf_counter() - t0)
    return ops, samples


def run_untraced(workload: Workload, seconds: float) -> dict:
    ops, setup = measure_setup(workload)
    deadline = time.perf_counter() + seconds
    passes = [run_pass(workload, ops)]
    # Peak memory of set-up and one pass: later passes repeat the same work.
    peak_rss_mb = workload.peak_rss_mb()
    while time.perf_counter() < deadline:
        passes.append(run_pass(workload, ops))
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }
    return summarize(passes, len(ops), metrics, {"setup_s": setup})


def run_traced(workload: Workload, seconds: float) -> dict:
    """Untraced and traced passes alternate; per-layer numbers are per
    traced pass, and trace.overhead_s is the difference of the medians."""
    workload.cli_mode = "in-process"
    ops, setup = measure_setup(workload)
    P = workload.P
    setup_tracer = tracing.Tracer()
    setup_tracer.install(P.kl)
    try:
        ops = workload.build()
    finally:
        setup_tracer.uninstall()

    tracer = tracing.Tracer()
    plain, traced = [], []
    cache = P.gadic._quotient_prefix
    hits = misses = 0
    deadline = time.perf_counter() + seconds
    while not traced or (time.perf_counter() < deadline and len(tracer.name) < SPAN_CAP):
        plain.append(run_pass(workload, ops))
        before = cache.cache_info()
        tracer.install(P.kl)
        if workload.name == "cli":
            workload.runner.tracer = tracer
        try:
            traced.append(run_pass(workload, ops))
        finally:
            tracer.uninstall()
            if workload.name == "cli":
                workload.runner.tracer = None
        after = cache.cache_info()
        hits += after.hits - before.hits
        misses += after.misses - before.misses

    n = len(traced)
    spans = tracer.summary()
    setup_spans = setup_tracer.summary()

    def field(name, key):
        return spans.get(name, {}).get(key, 0) / n

    metrics = {
        "gadic.prefix_cache.hits": hits / n,
        "gadic.prefix_cache.misses": misses / n,
        "exactsum.max_den_bits": tracer.max_den_bits,
        "trace.overhead_s": statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in plain),
    }
    for key, count in tracer.counts.items():
        metrics[key] = count / n
    for name in spans:
        if name.startswith("cli."):
            metrics[f"{name}.wall_s"] = field(name, "total_s")
        else:
            metrics[f"{name}.calls"] = field(name, "calls")
            metrics[f"{name}.self_s"] = field(name, "self_s")
    # Config parsing is set-up work: its figure comes from the traced set-up.
    metrics["config.parse_dict.self_s"] = setup_spans["config.parse_dict"]["self_s"]
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"trace-{workload.name}.spans")
    return summarize(plain + traced, len(ops), metrics, {"spans": spans, "traced_passes": n})


def summarize(passes, ops_per_pass: int, metrics: dict, extra: dict) -> dict:
    wrong = [w for p in passes for w in p["wrong"]]
    for kind, key in (("failed", "failed"), ("wrong", "wrong")):
        for line in sorted({x for p in passes for x in p[key]}):
            print(f"{kind}: {line}", file=sys.stderr)
    return {
        "correct": not wrong,
        "attempted": ops_per_pass * len(passes),
        "failed": sum(len(p["failed"]) for p in passes),
        "metrics": metrics,
        "passes": [{"wall_s": p["wall_s"], "cpu_s": p["cpu_s"], "failed": len(p["failed"])} for p in passes],
        **extra,
    }


def result_line(run: dict, definition: dict, trace: bool) -> dict:
    """The result in the declared metric order and units; metrics the
    workload never reached read 0."""
    metrics = {}
    for m in definition["per_layer" if trace else "end_to_end"]:
        if m["name"] not in run["metrics"] and not trace:
            raise Missing(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": run["metrics"].get(m["name"], 0), "unit": m["unit"]}
    return {"correct": run["correct"], "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}


def speed_probe() -> float:
    """Median time of a fixed pure-Python kernel: how fast the machine ran
    when the run started.  Recorded with the results, not a metric."""
    samples = []
    for _ in range(15):
        t0 = time.perf_counter()
        acc = []
        x = 1
        for _ in range(20000):
            x = (x * 1103515245 + 12345) % 2147483648
            acc.append((x % 10, x // 10))
        counts = {}
        for a, b in acc:
            counts[a] = counts.get(a, 0) + b
        n, m = 3**5000, 7**2600
        for _ in range(40):
            n = n * n % m
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_one(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    workload = Workload(name, seed, size)
    probe = speed_probe()
    try:
        run = run_traced(workload, seconds) if trace else run_untraced(workload, seconds)
    finally:
        workload.close()
    gc.collect()
    run["speed_probe_s"] = [probe, speed_probe()]
    return run


def save(name: str, seed: int, trace: bool, run: dict, line: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    doc = {"workload": name, "seed": seed, "trace": trace, "pythonhashseed": HASH_SEED,
           "python": sys.version.split()[0], "result": line, "detail": run}
    path = RESULTS / f"{name}-{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(doc, indent=1, default=str) + "\n", encoding="utf-8")


def quick(definition: dict) -> int:
    """Every workload once at a small size, untraced and traced."""
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            run = run_one(name, 1, 0.0, trace, size="quick")
            line = result_line(run, definition, trace)
            print(json.dumps({"workload": name, "trace": int(trace), **line}))
            ok = ok and line["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="every workload once, small, all checks on")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": HASH_SEED})

    try:
        definition = load_definition()
        import_program(with_cli=False)
        if args.quick:
            return quick(definition)
        trace = bool(args.trace)
        run = run_one(args.workload, args.seed, args.seconds, trace)
        line = result_line(run, definition, trace)
    except Missing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    save(args.workload, args.seed, trace, run, line)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

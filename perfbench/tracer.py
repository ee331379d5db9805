"""Spans around the program's public functions, installed from outside.

The program's modules call each other through the names they imported
(``constraints`` has its own ``to_digits``, ``harmonic`` its own
``block_count_exact``), so a wrapper replaces the function under every
name that refers to it in every loaded ``kempner_lab`` module, and
methods are replaced on their classes.  Spans are kept in memory as
parallel arrays of name, parent, start and end; self time is derived
from them when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

# (module, attribute, span name, kind); kind "gen" marks a generator,
# whose every resume is a span.
FUNCTIONS = [
    ("gadic", "to_digits", "gadic.to_digits", "fn"),
    ("gadic", "from_digits", "gadic.from_digits", "fn"),
    ("gadic", "base_value", "gadic.base_value", "fn"),
    ("constraints", "is_member", "constraints.is_member", "fn"),
    ("constraints", "block_count_exact", "constraints.block_count_exact", "fn"),
    ("constraints", "count_upto", "constraints.count_upto", "fn"),
    ("constraints", "enumerate_block", "constraints.enumerate_block", "gen"),
    ("exactsum", "sum_reciprocals", "exactsum.sum_reciprocals", "fn"),
    ("exactsum", "sum_fractions", "exactsum.sum_fractions", "fn"),
    ("exactsum", "add_reduced", "exactsum.add_reduced", "fn"),
    ("harmonic", "block_reports", "harmonic.block_reports", "fn"),
    ("harmonic", "tail_lower_estimate", "harmonic.tail_lower_estimate", "fn"),
    ("harmonic", "classify", "harmonic.classify", "fn"),
    ("harmonic", "partial_sum_exact", "harmonic.partial_sum_exact", "fn"),
    ("oracle", "oracle_members", "oracle.oracle_members", "fn"),
    ("config", "parse_dict", "config.parse_dict", "fn"),
]
# (module, class, method, span name)
METHODS = [
    ("constraints", "DigitConstraint", "forbidden_at", "constraints.forbidden_at"),
] + [
    ("indexsets", cls, meth, f"indexsets.{meth}")
    for cls in ("AllIndices", "ExplicitIndices", "ArithmeticIndices", "PowerIndices", "ComplementIndices")
    for meth in ("contains", "count")
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.max_den_bits = 0
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn under a span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name: str, fn, on_result=None):
        nid = self.name_id(name)
        names, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn, count_key: str):
        resume = self.wrap(name, next)
        counts = self.counts

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    try:
                        item = resume(it)
                    except StopIteration:
                        return
                    counts[count_key] += 1
                    yield item
            finally:
                it.close()

        traced.__wrapped__ = fn
        return traced

    # --- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Replace every public function and method listed above, under
        every name that refers to it in the loaded package modules."""
        modules = [package] + [
            m for key, m in sys.modules.items() if key.startswith(package.__name__ + ".")
        ]
        counts = self.counts

        def den_bits(args, result):
            den = result[1] if isinstance(result, tuple) else result.denominator
            if den.bit_length() > self.max_den_bits:
                self.max_den_bits = den.bit_length()

        def sum_terms(args, result):
            counts["exactsum.sum_reciprocals.terms"] += len(args[0])
            den_bits(args, result)

        def scanned(args, result):
            counts["oracle.oracle_members.scanned"] += args[2] - args[1] + 1

        hooks = {
            "exactsum.add_reduced": den_bits,
            "exactsum.sum_fractions": den_bits,
            "exactsum.sum_reciprocals": sum_terms,
            "oracle.oracle_members": scanned,
        }
        for mod_name, attr, name, kind in FUNCTIONS:
            original = getattr(sys.modules[f"{package.__name__}.{mod_name}"], attr)
            if kind == "gen":
                wrapper = self.wrap_generator(name, original, name + ".yielded")
            else:
                wrapper = self.wrap(name, original, hooks.get(name))
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._patch(m, key, wrapper)
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[f"{package.__name__}.{mod_name}"], cls_name)
            self._patch(cls, meth, self.wrap(name, vars(cls)[meth]))

    def _patch(self, owner, key: str, wrapper) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # --- results ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time and self time (seconds).  Self
        time is a span's duration minus the part covered by its children."""
        n = len(self.name)
        child = array("q", bytes(8 * n))
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        own = [0] * len(self.names)
        names = self.name
        for i in range(n):
            nid = names[i]
            dur = end[i] - start[i]
            calls[nid] += 1
            total[nid] += dur
            own[nid] += dur - child[i]
        return {
            name: {"calls": calls[i], "total_s": total[i] / 1e9, "self_s": own[i] / 1e9}
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Write the spans: one JSON header line, then the raw arrays
        (name, parent, start, end) in native byte order."""
        with open(path, "wb") as fh:
            header = {
                "names": self.names,
                "spans": len(self.name),
                "arrays": [
                    ["name", self.name.typecode, self.name.itemsize],
                    ["parent", self.parent.typecode, self.parent.itemsize],
                    ["start_ns", self.start.typecode, self.start.itemsize],
                    ["end_ns", self.end.typecode, self.end.itemsize],
                ],
                "byteorder": sys.byteorder,
            }
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)

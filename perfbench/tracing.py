"""Span tracing of hgsim's layers from outside the package.

``Tracer.install`` wraps every public function of the traced modules
wherever the package binds it (the defining module and every module that
imported it by name), so no program file changes.  Each call records a
span (function, start, end, parent span) in memory; self time is a span's
duration minus the durations of its direct children.  A few wrappers also
count work done (bits, bytes, edges).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "hgsim"
MODULES = ("cli", "hypergraph", "boolfn", "statesim", "extract", "entanglement", "orbits", "_bits")


# Work counters keyed by function: f(args, result) -> {what: amount}.
COUNTERS = {
    "_bits.set_bits": lambda a, out: {"bits_out": len(out)},
    # n passes over the 2**n-bit table, as bytes; computed, not measured
    "_bits.butterfly": lambda a, out: {"bytes_computed": a[1] * (1 << a[1]) // 8},
    "statesim.dump": lambda a, out: {"bytes": len(out)},
    "extract.extract_layered": lambda a, out: {"edges_out": len(out.edges)},
    "extract.extract_fast": lambda a, out: {"edges_out": len(out.edges)},
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.stack = [-1]
        self.reset()
        self.originals: dict[str, object] = {}

    def reset(self) -> None:
        """Drop recorded spans and counts (between operations)."""
        self.fid: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.counts: dict[str, float] = defaultdict(float)

    def _wrap(self, name: str, fn, counter):
        idx = len(self.names)
        self.names.append(name)
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.fid)
            self.fid.append(idx)
            self.parent.append(stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(span)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[span] = t0
                self.end[span] = t1
            if counter is not None:
                for what, amount in counter(args, out).items():
                    self.counts[f"{name}.{what}"] += amount
            return out

        return traced

    def install(self) -> None:
        """Replace each public function by its traced wrapper everywhere the
        package binds it."""
        mods = {m: sys.modules[f"{PACKAGE}.{m}"] for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qual = f"{short}.{name}"
                self.originals[qual] = obj
                wrapped[id(obj)] = self._wrap(qual, obj, COUNTERS.get(qual))
        bound = [sys.modules[PACKAGE], *mods.values()]
        for mod in bound:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and not inspect.ismodule(obj):
                    setattr(mod, name, wrapped[id(obj)])

    def op_summary(self) -> dict[str, float]:
        """Per-function calls and self milliseconds, plus counts, of the
        spans recorded since the last reset."""
        fid = np.asarray(self.fid, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.bincount(parent + 1, weights=dur, minlength=len(fid) + 1)[1:]
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(fid, minlength=k)
        self_ms = np.bincount(fid, weights=self_s, minlength=k) * 1e3
        out = dict(self.counts)
        for j, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[j])
            out[f"{name}.self_ms"] = float(self_ms[j])
        return out

    def spans(self) -> list[list]:
        """The recorded spans as [name, start_s, end_s, parent_index] rows."""
        return [
            [self.names[f], s, e, p]
            for f, s, e, p in zip(self.fid, self.start, self.end, self.parent)
        ]

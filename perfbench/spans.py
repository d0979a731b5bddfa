"""In-memory span recorder for the traced benchmark run.

The tracer substitutes a timing wrapper for a public critlab function in
every critlab module that holds a reference to it (modules import each
other's functions by name), or for a method on one object. A span records
its name, start, end, parent span and repetition id in a list in memory;
nothing is written until ``save`` is called at the end of the run. Wrappers only
time and count: they pass arguments and results through unchanged, so the
program draws the same random numbers traced or not.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one (index, name id, parent index, repetition id, start, end) per span
        self.records: list[tuple] = []
        self._next = itertools.count()
        self._stack = [-1]
        self.rep_id = -1
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self._undo: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` wrapped in a span; ``on_result(tracer, out)`` may
        count things in the result after the span has closed."""
        nid = self.name_id(name)
        records, stack, next_index = self.records, self._stack, self._next
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            idx = next(next_index)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                records.append((idx, nid, parent, tracer.rep_id, t0, t1))
            if on_result is not None:
                on_result(tracer, out)
            return out

        return wrapper

    def patch(self, fn, name: str, on_result=None) -> None:
        """Replace ``fn`` by a wrapper wherever a critlab module names it."""
        wrapper = self.wrap(name, fn, on_result)
        hit = False
        for modname, mod in list(sys.modules.items()):
            if modname != "critlab" and not modname.startswith("critlab."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))
                    hit = True
        if not hit:
            raise LookupError(f"{name} is not bound in any critlab module")

    def patch_method(self, obj, attr: str, name: str, on_result=None) -> None:
        """Shadow a method on one instance with a wrapper."""
        vars(obj)[attr] = self.wrap(name, getattr(obj, attr), on_result)
        self._undo.append((obj, attr, None))

    def unpatch(self) -> None:
        for target, attr, orig in reversed(self._undo):
            if orig is None:
                del vars(target)[attr]
            else:
                setattr(target, attr, orig)
        self._undo.clear()

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[(self.rep_id, key)] += value

    def table(self) -> dict[str, np.ndarray]:
        """Spans as arrays indexed by span index, with duration and self time.

        Self time is the duration minus the time covered by child spans;
        spans nest strictly (one thread), so children never overlap.
        """
        rec = np.array(sorted(self.records), dtype=np.float64).reshape(-1, 6)
        idx, name, parent, rep = (rec[:, k].astype(np.int64) for k in range(4))
        if not np.array_equal(idx, np.arange(len(idx))):
            raise RuntimeError("table() called while spans are still open")
        start, end = rec[:, 4], rec[:, 5]
        dur = end - start
        inner = parent >= 0
        covered = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
        return {
            "name": name,
            "parent": parent,
            "rep": rep,
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - covered,
        }

    def save(self, path) -> None:
        t = self.table()
        np.savez(
            path,
            names=np.array(self.names),
            **{k: t[k] for k in ("name", "parent", "rep", "start", "end")},
        )

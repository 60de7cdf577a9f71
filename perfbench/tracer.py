"""In-memory spans around the calls into the program's public functions.

The benchmark wraps every public function of the traced modules and rebinds
each reference to it, in every loaded module of the program, to the
wrapper: a module that did ``from .groups import normal_subgroups`` calls
the wrapper too, so its child spans are not lost.  Spans are kept in memory
as (name, start, end, parent, op) and aggregated when the pass ends.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

# Result counters: span name -> (stat, function of the returned value).
COUNTERS = {
    "witt.ring_fingerprint": ("null", lambda r: r is None),
    "groups.normal_subgroups": ("found", len),
    "screen.rigidity_screen": ("candidates", lambda r: len(r.candidates)),
    "chartab.burnside_dixon": ("classes", lambda r: r.nclasses),
    "witt.based_ring_isomorphism": ("found", lambda r: r is not None),
    "groups.are_isomorphic": ("found", lambda r: r is not None),
    "screen.compare_bundles": ("separated", lambda r: r.verdict == "not-isocategorical"),
}


def rebind(modules, old, new) -> None:
    """Point every module-level name bound to ``old`` at ``new``."""
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)


def public_functions(mod):
    """The plain (non-generator) public functions a module defines."""
    for attr, val in vars(mod).items():
        if (
            not attr.startswith("_")
            and inspect.isfunction(val)
            and val.__module__ == mod.__name__
            and not inspect.isgeneratorfunction(val)
        ):
            yield attr, val


class Tracer:
    """Records spans while installed; ``op`` labels the spans that follow."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []
        self._counts: dict = defaultdict(int)
        self._installed: list = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self._counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if counter is not None:
                counts[(name, counter[0])] += int(counter[1](result))
            return result

        return traced

    def install(self, modules, traced_modules) -> None:
        """Wrap the public functions of ``traced_modules`` (label -> module)
        and rebind them across ``modules``."""
        for label, mod in traced_modules.items():
            for attr, fn in list(public_functions(mod)):
                wrapper = self.wrap(f"{label}.{attr}", fn)
                rebind(modules, fn, wrapper)
                self._installed.append((fn, wrapper))

    def uninstall(self, modules) -> None:
        for fn, wrapper in reversed(self._installed):
            rebind(modules, wrapper, fn)
        self._installed.clear()

    def root(self, name: str, op):
        """Open a benchmark span; returns a function that closes it."""
        self.op = op
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()

        def close():
            self._stack.pop()
            self.spans[idx] = (name, start, time.perf_counter(), parent, op)

        return close

    def counts(self) -> dict:
        return dict(self._counts)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def aggregate(spans) -> dict:
    """Per span name: calls, inclusive seconds ``s`` and ``self_s``.

    Self time is a span's duration minus the union of its children's
    intervals clipped to it.  Inclusive time counts only the outermost span
    of a name, so recursion is not counted twice.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for idx, (name, start, end, parent, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for c in sorted(children.get(idx, ()), key=lambda k: spans[k][1]):
            lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - covered
        outer, p = True, parent
        while p >= 0:
            if spans[p][0] == name:
                outer = False
                break
            p = spans[p][3]
        if outer:
            entry["s"] += end - start
    return dict(stats)

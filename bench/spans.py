"""Span tracing of the togliatti package from outside it.

Every public function of the traced modules is rebound, on its own module
and on every module that imported it by name (``classify.canonical_form``,
``cli.parse_system`` and so on), to a wrapper that records a span: name,
start, end, parent span and operation id.  Spans stay in memory until
``write`` is called at the end of the run.  Self time of a span is its
duration minus the durations of its direct traced children, accumulated as
the spans close.  Durations leave out the time the run's speed probe spent
inside the span (``clock.spent``), so the probe never counts as a layer's.
"""

from __future__ import annotations

import gzip
import inspect
import json
import time
from collections import defaultdict

TRACED_MODULES = (
    "linalg", "lefschetz", "polytope", "monomials", "graphs", "family", "classify", "cli",
)


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.names = []
        self.spans = []  # [name index, start, end, parent span id or -1, op id]
        self.op = None  # spans are recorded only while an op id is set
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = defaultdict(int)  # work counts taken from return values
        self._open = []  # [span id, seconds spent in traced children]
        self._restore = []

    def install(self, pkg):
        """Rebind the public functions of ``pkg``'s traced modules to traced wrappers."""
        modules = [m for m in vars(pkg).values() if inspect.ismodule(m)] + [pkg]
        wrappers = {}
        for short in TRACED_MODULES:
            mod = getattr(pkg, short)
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[id(fn)] = self._wrap(f"{short}.{name}", fn)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, value in reversed(self._restore):
            setattr(mod, name, value)
        self._restore.clear()

    def _wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = len(self.spans)
            parent = self._open[-1][0] if self._open else -1
            self.spans.append(None)
            self._open.append([span, 0.0])
            spent = self.clock.spent
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, children = self._open.pop()
                duration = end - start - (self.clock.spent - spent)
                self.spans[span] = [index, start, end, parent, self.op]
                self.calls[name] += 1
                self.self_s[name] += duration - children
                self.incl_s[name] += duration
                if self._open:
                    self._open[-1][1] += duration
            if observe is not None:
                observe(self.counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path, meta):
        with gzip.open(path, "wt") as fh:
            json.dump({"meta": meta, "names": self.names,
                       "fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def _observe_smoothness(counts, cert):
    counts["polytope.vertices"] += len(cert.model.vertices)
    counts["polytope.edges"] += len(cert.model.edges)


def _observe_search(counts, result):
    for key, value in result.stats.items():
        if key != "wall_time_s":
            counts[f"classify.{key}"] += value


_OBSERVERS = {
    "polytope.smoothness_check": _observe_smoothness,
    "classify.enumerate_minimal_smooth": _observe_search,
}

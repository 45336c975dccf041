"""Per-layer tracing of srk, done from outside the library.

``Tracer.install`` wraps every public function of the traced layers at each
place its name is bound (``srk.degeneration.kappa`` and ``srk.kappa`` get
separate wrappers that feed one record), and wraps ``__init__`` of the two
value classes whose construction is work: ``QuadricDiagram`` (validation) and
``ClassSum`` (canonical ordering).  Nothing in ``src/srk`` is edited; the
wrappers exist only in a traced worker process.

A span is one call, or one ``next()`` of a generator.  A record keeps calls and
self time (span time minus the time of its direct child spans),
plus per-site call and yield counts and (parent, child) span counts so that ratios are
measured where the work happens.  Spans are recorded only while ``active``
is set, which the worker does around each operation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("diagrams", "degeneration", "orthogonal", "rigidity", "catalog", "classsum", "cli")
CLASSES = (("diagrams", "QuadricDiagram"), ("classsum", "ClassSum"))
# Terminal basis builds of the pushforward mode happen through this name.
EXTRA_SITES = (("degeneration", "GrIndex", "grassmannian.GrIndex"),)


class Record:
    __slots__ = ("calls", "self_ns", "yields")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.yields = 0


class Tracer:
    def __init__(self):
        self.active = False
        self.records: dict[str, Record] = {}
        self.site_calls: Counter = Counter()  # "module.name" binding -> calls
        self.site_yields: Counter = Counter()  # generator binding -> items yielded
        self.parent_calls: Counter = Counter()  # (parent span, child span) -> calls
        self._stack: list = []  # [name, child_ns] per open span

    # -- wrappers ---------------------------------------------------------

    def _close(self, rec, frame, t0):
        elapsed = time.perf_counter_ns() - t0
        self._stack.pop()
        rec.self_ns += elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed

    def _open(self, name):
        stack = self._stack
        self.parent_calls[(stack[-1][0] if stack else None, name)] += 1
        frame = [name, 0]
        stack.append(frame)
        return frame

    def wrap_function(self, fn, name, site):
        rec = self.records.setdefault(name, Record())
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec.calls += 1
            tracer.site_calls[site] += 1
            frame = tracer._open(name)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec, frame, t0)

        return traced

    def wrap_generator(self, fn, name, site):
        rec = self.records.setdefault(name, Record())
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                yield from fn(*args, **kwargs)
                return
            rec.calls += 1
            tracer.site_calls[site] += 1
            it = fn(*args, **kwargs)
            while True:
                frame = tracer._open(name)
                t0 = time.perf_counter_ns()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(rec, frame, t0)
                rec.yields += 1
                tracer.site_yields[site] += 1
                yield item

        return traced

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the traced names in every loaded ``srk`` module."""
        originals = {}  # id(function) -> (function, record name)
        for layer in LAYERS:
            mod = importlib.import_module(f"srk.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    originals[id(obj)] = (obj, f"{layer}.{attr}")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "srk" or n.startswith("srk.")]
        for mod in modules:
            where = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is None or hit[0] is not obj:
                    continue
                fn, name = hit
                wrap = self.wrap_generator if inspect.isgeneratorfunction(fn) else self.wrap_function
                setattr(mod, attr, wrap(fn, name, f"{where}.{attr}"))
        for layer, attr in CLASSES:
            cls = getattr(importlib.import_module(f"srk.{layer}"), attr)
            cls.__init__ = self.wrap_function(cls.__init__, f"{layer}.{attr}", f"{layer}.{attr}")
        for layer, attr, name in EXTRA_SITES:
            mod = importlib.import_module(f"srk.{layer}")
            setattr(mod, attr, self.wrap_function(getattr(mod, attr), name, f"{layer}.{attr}"))

    def snapshot(self) -> dict:
        """Plain-data copy of everything recorded, for the parent process."""
        return {
            "records": {
                name: [r.calls, r.self_ns, r.yields]
                for name, r in self.records.items()
                if r.calls
            },
            "site_calls": dict(self.site_calls),
            "site_yields": dict(self.site_yields),
            "parent_calls": {f"{p}>{c}": n for (p, c), n in self.parent_calls.items()},
        }

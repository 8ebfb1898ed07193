"""Per-layer time split for the traced run, recorded from outside.

:class:`LayerTracer` wraps the public entry points of each measured
``repro`` module — module-level functions and the public methods (plus
``__init__``) of classes the module defines — and accumulates, per
layer, the number of calls, self time (the call's duration minus the
part covered by wrapped calls it made) and inclusive time (outermost
calls into the layer only, so recursion is not counted twice).

The program's own span tracer (``repro.obs``) is deliberately not used:
the instrument must not move when the program's instrumentation does.
Generators are left unwrapped (their body runs after the call returns,
so a wrapper would time only their creation), as are the per-cell
accessors listed in :data:`EXCLUDE`, whose call counts run to the
hundreds of thousands and would make the traced run measure the tracer.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import json
import sys
import threading
import time
import types

#: layer name -> the modules whose public entry points it wraps
LAYERS: dict[str, tuple[str, ...]] = {
    "hpcprof.binio": ("repro.hpcprof.binio",),
    "hpcprof.correlate": ("repro.hpcprof.correlate",),
    "hpcprof.merge": ("repro.hpcprof.merge",),
    "hpcprof.align": ("repro.hpcprof.align",),
    "core.attribution": ("repro.core.attribution",),
    "core.engine": ("repro.core.engine",),
    "core.views": ("repro.core.views", "repro.core.ccview",
                   "repro.core.callers", "repro.core.flat"),
    "core.hotpath": ("repro.core.hotpath",),
    "core.derived": ("repro.core.derived",),
    "core.store": ("repro.core.store",),
    "core.ensemble": ("repro.core.ensemble",),
    "viewer.table": ("repro.viewer.table",),
    "query.engine": ("repro.query.engine",),
    "query.diagnose": ("repro.query.diagnose",),
    "trace.store": ("repro.trace.store",),
    "trace.model": ("repro.trace.model",),
    "trace.flame": ("repro.trace.flame",),
    "corpus.catalog": ("repro.corpus.catalog",),
    "corpus.journal": ("repro.corpus.journal",),
    "server.app": ("repro.server.app",),
    "server.wire": ("repro.server.wire",),
}
#: ``json.dumps`` as called from the server's modules
JSON_LAYER = "server.json"
JSON_CALLERS = ("repro.server.app", "repro.server.http")

ALL_LAYERS = tuple(LAYERS) + (JSON_LAYER,)

#: per-cell / per-node accessors left unwrapped (``module:Class.name``)
EXCLUDE = frozenset({
    "repro.core.views:View.value",
    "repro.core.views:ViewNode.value",
    "repro.core.engine:MetricEngine.row_of",
})


class LayerTracer:
    """Install wrappers once per process; :meth:`report` sums threads."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[dict] = []
        self.counters: dict[str, float] = {}
        self._observers: dict[tuple[str, str], object] = {}

    # ------------------------------------------------------------------ #
    def observe(self, module: str, qualname: str, fn) -> None:
        """Call ``fn(tracer, result)`` after each call of an entry point."""
        self._observers[(module, qualname)] = fn

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def _totals(self) -> dict:
        totals = getattr(self._local, "totals", None)
        if totals is None:
            totals = {layer: [0, 0.0, 0.0] for layer in ALL_LAYERS}
            self._local.totals = totals
            self._local.stack = []
            self._local.active = {layer: 0 for layer in ALL_LAYERS}
            with self._lock:
                self._per_thread.append(totals)
        return totals

    def _wrap(self, layer: str, fn, observer=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            totals = tracer._totals()
            local = tracer._local
            stack, active = local.stack, local.active
            frame = [0.0]
            stack.append(frame)
            active[layer] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                active[layer] -= 1
                if stack:
                    stack[-1][0] += dt
                entry = totals[layer]
                entry[0] += 1
                entry[1] += dt - frame[0]
                if active[layer] == 0:
                    entry[2] += dt
            if observer is not None:
                observer(tracer, result)
            return result

        return wrapper

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        replaced: dict[int, object] = {}
        for layer, modules in LAYERS.items():
            for modname in modules:
                module = importlib.import_module(modname)
                self._install_module(layer, module, replaced)
        self._install_json()
        # rebind names imported with ``from module import name`` into
        # modules that were loaded before the wrappers existed
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and value is not wrapper:
                    setattr(module, attr, wrapper)

    def _install_module(self, layer: str, module, replaced: dict) -> None:
        modname = module.__name__
        for name, value in list(vars(module).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(value) and value.__module__ == modname:
                if inspect.isgeneratorfunction(value):
                    continue
                observer = self._observers.get((modname, name))
                wrapper = self._wrap(layer, value, observer)
                replaced[id(value)] = wrapper
                setattr(module, name, wrapper)
            elif (inspect.isclass(value) and value.__module__ == modname
                  and not issubclass(value, BaseException)
                  and not issubclass(value, enum.Enum)):
                self._install_class(layer, modname, value)

    def _install_class(self, layer: str, modname: str, cls) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            if f"{modname}:{cls.__name__}.{name}" in EXCLUDE:
                continue
            observer = self._observers.get((modname, f"{cls.__name__}.{name}"))
            if isinstance(raw, staticmethod):
                fn = raw.__func__
                if inspect.isgeneratorfunction(fn):
                    continue
                setattr(cls, name,
                        staticmethod(self._wrap(layer, fn, observer)))
            elif isinstance(raw, classmethod):
                fn = raw.__func__
                if inspect.isgeneratorfunction(fn):
                    continue
                setattr(cls, name,
                        classmethod(self._wrap(layer, fn, observer)))
            elif inspect.isfunction(raw):
                if inspect.isgeneratorfunction(raw):
                    continue
                setattr(cls, name, self._wrap(layer, raw, observer))

    def _install_json(self) -> None:
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(json))
        proxy.dumps = self._wrap(JSON_LAYER, json.dumps)
        for modname in JSON_CALLERS:
            module = importlib.import_module(modname)
            module.json = proxy

    # ------------------------------------------------------------------ #
    def report(self) -> dict:
        merged = {layer: [0, 0.0, 0.0] for layer in ALL_LAYERS}
        with self._lock:
            for totals in self._per_thread:
                for layer, (calls, self_s, incl_s) in totals.items():
                    entry = merged[layer]
                    entry[0] += calls
                    entry[1] += self_s
                    entry[2] += incl_s
            counters = dict(self.counters)
        return {
            "layers": {
                layer: {"calls": calls, "self_ms": self_s * 1e3,
                        "incl_ms": incl_s * 1e3}
                for layer, (calls, self_s, incl_s) in merged.items()
            },
            "counters": counters,
        }


def query_observers(tracer: LayerTracer) -> None:
    """Rows scanned vs returned, read where the query engine works."""
    tracer.observe("repro.query.engine", "build_frame",
                   lambda t, frame: t.count("query.rows_scanned", frame.n))
    tracer.observe("repro.query.engine", "run_query",
                   lambda t, result: t.count("query.rows_returned",
                                             result.row_count))

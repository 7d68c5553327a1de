"""Span tracer for the layer boundaries of splat360, installed from outside.

A boundary is a name that one layer module imports from another and looks up
on itself at call time, such as ``splat360.fitting.ssim_with_grad`` or
``splat360.fitting._ray_geometry``.  A function imported inside a function
body (``from .renderer import _pool_for`` in ``ct``) is looked up on the
module that defines it, so it is wrapped there.  ``Tracer.installed()``
replaces each boundary with a wrapper that records a span and puts every
original back on exit.  No file of the package is edited; calls inside one
module are not boundaries and stay unseen.

Spans and counters live in memory and are written out once, by ``dump``.
"""
from __future__ import annotations

import ast
import contextlib
import functools
import importlib
import inspect
import json
import pickle
import time

PACKAGE = "splat360"
# fusion, imgfile and cli are on no hot path the benchmark measures.
LAYERS = ("scene", "renderer", "fitting", "metrics", "anchors", "ct")


def _layer_modules() -> dict:
    return {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}


def _span_name(obj) -> str:
    return f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__qualname__}"


def _wrappable(obj, home_modules: set) -> bool:
    if getattr(obj, "__module__", None) not in home_modules:
        return False
    if inspect.isclass(obj):
        # an exception class must stay a class to be raised and caught
        return not issubclass(obj, BaseException)
    return inspect.isfunction(obj)


def boundaries() -> list:
    """(module, attribute, span name) for every cross-layer import."""
    mods = _layer_modules()
    homes = {m.__name__ for m in mods.values()}
    out = []
    for mod in mods.values():
        for attr, obj in sorted(vars(mod).items()):
            if _wrappable(obj, homes) and obj.__module__ != mod.__name__:
                out.append((mod, attr, _span_name(obj)))
    # functions imported inside a function body are read from their home
    for mod in mods.values():
        tree = ast.parse(inspect.getsource(mod))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not (isinstance(node, ast.ImportFrom) and node.level == 1
                        and node.module in mods):
                    continue
                home = mods[node.module]
                for alias in node.names:
                    obj = getattr(home, alias.name, None)
                    if inspect.isfunction(obj) and _wrappable(obj, homes):
                        entry = (home, alias.name, _span_name(obj))
                        if entry not in out:
                            out.append(entry)
    return out


class _TracedClass:
    """Stands in for a class: construction and class/static methods are
    spans, isinstance and issubclass still answer for the real class."""

    def __init__(self, tracer: "Tracer", cls, name: str):
        self.__wrapped__ = cls
        self._tracer = tracer
        self._name = name

    def __call__(self, *args, **kwargs):
        return self._tracer.call(self._name, self.__wrapped__, *args, **kwargs)

    def __getattr__(self, attr):
        value = getattr(self.__wrapped__, attr)
        if isinstance(inspect.getattr_static(self.__wrapped__, attr),
                      (classmethod, staticmethod)):
            return functools.partial(self._tracer.call, f"{self._name}.{attr}", value)
        return value

    def __instancecheck__(self, obj) -> bool:
        return isinstance(obj, self.__wrapped__)

    def __subclasscheck__(self, cls) -> bool:
        return issubclass(cls, self.__wrapped__)


class _TracedPool:
    """Wraps the worker pool a layer gets back, so each map is a span that
    also counts the pickled size of its payloads."""

    def __init__(self, tracer: "Tracer", pool):
        self._tracer = tracer
        self._pool = pool

    def map(self, fn, payloads):
        payloads = list(payloads)
        size = sum(len(pickle.dumps(p, pickle.HIGHEST_PROTOCOL)) for p in payloads)
        self._tracer.count("renderer.pool.payload_bytes", size)
        return self._tracer.call("renderer.pool.map", self._pool.map, fn, payloads)

    def __getattr__(self, attr):
        return getattr(self._pool, attr)


def _count_pairs(tracer, out):
    tracer.count("renderer._ray_geometry.pairs", out[0].size)
    return out


def _count_pixels(tracer, out):
    tracer.count("renderer.render.pixels", out[0].height * out[0].width)
    return out


# span name -> hook(tracer, result) returning the result handed back
RESULT_HOOKS = {
    "renderer._ray_geometry": _count_pairs,
    "renderer.render": _count_pixels,
    "renderer._pool_for": lambda tracer, pool: _TracedPool(tracer, pool),
}


class Tracer:
    """Spans ``[name, start_ns, end_ns, parent]`` and named counters."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = {}
        self._stack: list = []
        self._saved: list = []

    def count(self, key: str, n) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter_ns(), 0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()
        hook = RESULT_HOOKS.get(name)
        return hook(self, out) if hook is not None else out

    def _wrapper(self, obj, name: str):
        if inspect.isclass(obj):
            return _TracedClass(self, obj, name)

        @functools.wraps(obj)
        def traced(*args, **kwargs):
            return self.call(name, obj, *args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block."""
        try:
            for mod, attr, name in boundaries():
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, self._wrapper(original, name))
            yield self
        finally:
            while self._saved:
                mod, attr, original = self._saved.pop()
                setattr(mod, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, total ms, self ms (total minus direct children)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - child_ns[i]) / 1e6
        return out

    def durations_ms(self, name: str) -> list:
        return [(end - start) / 1e6 for n, start, end, _ in self.spans if n == name]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans, "counters": self.counters,
                       "summary": self.summary()}, f)
            f.write("\n")

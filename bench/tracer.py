"""In-memory span tracer that wraps the public functions of penexp's modules.

Each wrapped call records one span: name, start, end, thread and the index
of the enclosing span on the same thread. A function is patched in every
penexp module whose namespace holds it, because callers look names up
there (`solver.prox`, `harness.curvature_matrix`), not in the defining
module. Public methods and classmethods of the public classes are patched
on the class. `restore` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
import types

# A span is [name, start, end, thread ident, parent index or None].
NAME, START, END, THREAD, PARENT = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        span = [name, time.perf_counter(), None, threading.get_ident(),
                stack[-1] if stack else None]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        stack.append(idx)
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name, fn, after=None):
        """Return fn wrapped in a span called name.

        after(args, kwargs, result), when given, runs once the span has
        closed, inside a span of its own named "bench.after", so the time it
        takes is subtracted from the enclosing span's self time.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                check = self._open("bench.after")
                try:
                    after(args, kwargs, result)
                finally:
                    self._close(check)
            return result
        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_package(self, package, hooks=None, only=None):
        """Wrap the public functions and methods of every package module.

        Span names are "<module>.<function>" or "<module>.<Class>.<method>",
        with the package prefix dropped. hooks maps span names to after
        callbacks. only, when given, limits the wrapping to those names.
        """
        hooks = hooks or {}
        prefix = package.__name__ + "."
        modules = [m for k, m in sorted(sys.modules.items())
                   if k.startswith(prefix) and m is not None]
        for mod in modules:
            short = mod.__name__[len(prefix):]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    name = "%s.%s" % (short, attr)
                    if only is not None and name not in only:
                        continue
                    wrapped = self.wrap(name, obj, hooks.get(name))
                    for other in [package] + modules:
                        for key, val in list(vars(other).items()):
                            if val is obj:
                                self._set(other, key, wrapped)
                elif inspect.isclass(obj):
                    self._patch_class(short, obj, hooks, only)

    def _patch_class(self, short, cls, hooks, only):
        for attr, raw in sorted(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = "%s.%s.%s" % (short, cls.__name__, attr)
            if only is not None and name not in only:
                continue
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(
                    self.wrap(name, raw.__func__, hooks.get(name))))
            elif isinstance(raw, types.FunctionType):
                self._set(cls, attr, self.wrap(name, raw, hooks.get(name)))

    def patch_private(self, module, attr, name):
        """Wrap one private module function that no public name reaches."""
        self._set(module, attr, self.wrap(name, getattr(module, attr)))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def span_totals(spans):
    """Per-name inclusive time and call count, and per-layer self time.

    A span's self time is its duration minus the durations of the spans
    whose parent it is; the layer is the part of the name before the first
    dot.
    """
    child = [0.0] * len(spans)
    for sp in spans:
        if sp[PARENT] is not None:
            child[sp[PARENT]] += sp[END] - sp[START]
    inclusive, calls, layer_self = {}, {}, {}
    for i, sp in enumerate(spans):
        name, dur = sp[NAME], sp[END] - sp[START]
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + dur - child[i]
        calls[name] = calls.get(name, 0) + 1
        inclusive[name] = inclusive.get(name, 0.0) + dur
    return inclusive, calls, layer_self


def per_span_cost(samples=20000):
    """Seconds a span adds to one call, measured on a wrapped no-op."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("bench.noop", noop)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(samples):
            noop()
        t1 = time.perf_counter()
        for _ in range(samples):
            traced()
        t2 = time.perf_counter()
        tracer.spans.clear()
        best = min(best, ((t2 - t1) - (t1 - t0)) / samples)
    return max(best, 0.0)

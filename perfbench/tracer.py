"""Span and counter tracing of a package's public functions, applied from outside.

``Tracer.install(package)`` imports every module of the package and replaces
each public module-level function with a wrapper that records one span per
call. Every module namespace of the package that holds the original function
object (including re-exports such as the package ``__init__``) gets the
wrapper, so intra-package calls are traced too. The wrappers stay for the
life of the process. The program's source is never edited.

A span is ``(name, start, end, parent, run)``: ``parent`` is the index of the
enclosing span or -1, and ``run`` is the id of the request the span belongs
to (one CLI command). Spans stay in memory; the caller writes them out
when the run ends.
"""

import functools
import importlib
import inspect
import pkgutil
import time
from collections import Counter


class Tracer:
    def __init__(self, hooks=None, counted_methods=()):
        """``hooks`` maps a qualified name ("module.function") to
        ``hook(tracer, args, kwargs, result)``, called after each successful
        call. ``counted_methods`` lists ``(class, method_name)`` pairs whose
        calls are counted as ``calls:<module>.<Class>.<method>`` without a span."""
        self.hooks = dict(hooks or {})
        self.counted_methods = tuple(counted_methods)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: Counter = Counter()
        self.notes: dict = {}
        self.run_id = 0
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent, self.run_id))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.run_id)
                self.counters[f"calls:{name}"] += 1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def _count(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[f"calls:{name}"] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, package_name: str) -> None:
        package = importlib.import_module(package_name)
        modules = [package] + [
            importlib.import_module(f"{package_name}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrapped = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    setattr(module, attr, wrapped[id(obj)])
        for cls, method in self.counted_methods:
            short = cls.__module__.rsplit(".", 1)[-1]
            setattr(cls, method, self._count(f"{short}.{cls.__name__}.{method}",
                                             cls.__dict__[method]))


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time its direct child spans cover.

    Calls run on one thread, so a span's children never overlap."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def inclusive_time(spans, names) -> float:
    """Total duration of spans named in ``names`` that have no ancestor
    also named in ``names`` (so recursion and nesting count once)."""
    names = set(names)
    total = 0.0
    for name, start, end, parent, _ in spans:
        if name not in names:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total

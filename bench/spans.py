"""Span wrappers installed on a package from outside it.

`Tracer.install` wraps every public function and public method of every
loaded module of a package, plus the operators named in `EXTRA_METHODS`,
and rebinds the wrapper at *every* place the original object is bound: the
defining module, each module that did `from .x import y`, the package
`__init__`, and class aliases such as `__rmul__ = __mul__`.  A wrapper that
only replaced the defining module's attribute would miss calls made through
those other names.

Spans nest on one stack.  A span's self time is its duration minus the
durations of the spans directly inside it.  Spans are aggregated as they
close, per (parent name, name) edge, instead of being kept one by one: the
hot leaves (`finab.element_index`, `exactring.CycloRing.reduce_vector`) close
about a million times per invocation.

Generator functions are timed per `next()`: one span per item requested,
and the number of items yielded is counted separately.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# Operators that carry a layer's work but are not public names.
EXTRA_METHODS = {"CycloElem": ("__mul__",)}

# Higher-order helpers left unwrapped: their time is the callback's, which
# belongs to the caller's layer (`report.run_items` runs the naturality loop).
UNWRAPPED = {"report.run_items"}

# Work counters taken from a span's arguments: span name -> (counter, fn).
WORK_COUNTERS = {
    "matrix.determinant": ("n_cubed", lambda mat, *a, **k: mat.rows ** 3),
}


def span_name(obj) -> str:
    """`<module>.<qualname>`, with the package prefix dropped."""
    return f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__qualname__}"


def _is_cached(obj) -> bool:
    return callable(obj) and hasattr(obj, "cache_info")


class Tracer:
    """Aggregated spans for one process."""

    def __init__(self):
        self.edges: dict[tuple[str | None, str], list[int]] = {}  # [calls, total_ns, self_ns]
        self.items: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.caches: dict[str, object] = {}
        self._stack: list[list] = []  # open spans: [name, ns covered by child spans]

    # -- wrappers ------------------------------------------------------------

    def _close(self, frame: list, parent: list | None, dt: int) -> None:
        key = (parent[0] if parent is not None else None, frame[0])
        rec = self.edges.get(key)
        if rec is None:
            rec = self.edges[key] = [0, 0, 0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - frame[1]
        if parent is not None:
            parent[1] += dt

    def wrap(self, name: str, fn):
        stack = self._stack
        close = self._close
        clock = time.perf_counter_ns
        work = WORK_COUNTERS.get(name)
        counters = self.counters

        if inspect.isgeneratorfunction(fn):
            items = self.items
            items.setdefault(name, 0)

            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    parent = stack[-1] if stack else None
                    frame = [name, 0]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = clock() - t0
                        stack.pop()
                        close(frame, parent, dt)
                    items[name] += 1
                    yield item

            return functools.update_wrapper(gen_wrapper, fn)

        def wrapper(*args, **kwargs):
            if work is not None:
                counters[work[0]] = counters.get(work[0], 0) + work[1](*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                close(frame, parent, dt)

        return functools.update_wrapper(wrapper, fn)

    # -- installation --------------------------------------------------------

    def install(self, package: str) -> None:
        """Wrap the package's public callables at every binding."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        owners = list(modules)
        targets = {}  # id(original) -> (original, name); holding originals keeps ids unique
        for mod in modules:
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    owners.append(obj)
                    extra = EXTRA_METHODS.get(obj.__name__, ())
                    for meth_name, meth in vars(obj).items():
                        if inspect.isfunction(meth) and (
                                not meth_name.startswith("_") or meth_name in extra):
                            targets[id(meth)] = (meth, span_name(meth))
                elif (not attr.startswith("_") and span_name(obj) not in UNWRAPPED
                      and (inspect.isfunction(obj) or _is_cached(obj))):
                    targets[id(obj)] = (obj, span_name(obj))
                    if _is_cached(obj):
                        self.caches[span_name(obj)] = obj
        wrappers = {key: self.wrap(name, obj) for key, (obj, name) in targets.items()}
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(owner, attr, wrapper)

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-span totals, the parent -> child edges, items, counters and caches."""
        spans: dict[str, dict] = {}
        for (_, name), (calls, _, self_ns) in self.edges.items():
            rec = spans.setdefault(name, {"calls": 0, "self_ns": 0})
            rec["calls"] += calls
            rec["self_ns"] += self_ns
        caches = {}
        for name, obj in self.caches.items():
            info = obj.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses}
        return {
            "spans": spans,
            "edges": [[parent, name, *rec] for (parent, name), rec in sorted(
                self.edges.items(), key=lambda kv: (kv[0][0] or "", kv[0][1]))],
            "items": dict(self.items),
            "counters": dict(self.counters),
            "caches": caches,
        }

"""Span recorder that times a program's layers from outside its code.

:class:`Tracer` replaces functions, methods, properties and generator
methods with timing wrappers at the attribute names their callers look
up, aggregates per-span call counts, self time and inclusive time, and
puts every original back on :meth:`Tracer.restore`.  Spans nest per
thread: a span's self time is its duration minus the durations of the
spans that ran inside it on the same thread.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass


@dataclass
class SpanStats:
    """Aggregate of every span recorded under one name."""

    calls: int = 0
    #: Self time: duration minus nested spans on the same thread.
    busy_s: float = 0.0
    #: Inclusive duration.
    total_s: float = 0.0
    #: Sum of what the span's ``count`` function returned.
    items: int = 0


class Tracer:
    """Wraps callables with spans; a context manager that restores them.

    With ``keep_intervals`` every top-level span (one with no enclosing
    span on its thread) is also kept as ``(name, start, end)``, so a
    caller can attribute time to requests by when it happened.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 keep_intervals: bool = False):
        self.clock = clock
        self.keep_intervals = keep_intervals
        self.stats: dict[str, SpanStats] = {}
        self.intervals: list[tuple[str, float, float]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             count: Callable | None = None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        nested = [0.0]
        stack.append(nested)
        start = self.clock()
        items = 0
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                items = count(args, result)
            return result
        finally:
            end = self.clock()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][0] += duration
            with self._lock:
                stats = self.stats.get(name)
                if stats is None:
                    stats = self.stats[name] = SpanStats()
                stats.calls += 1
                stats.busy_s += duration - nested[0]
                stats.total_s += duration
                stats.items += items
                if self.keep_intervals and not stack:
                    self.intervals.append((name, start, end))

    def get(self, name: str) -> SpanStats:
        """The stats recorded under ``name`` (zeros if none were)."""
        return self.stats.get(name, SpanStats())

    def _iterate(self, name: str, iterator):
        """Yield from ``iterator``, timing each ``next`` as one span."""
        sentinel = object()
        try:
            while True:
                item = self.call(name, next, (iterator, sentinel), {},
                                 count=lambda _a, r: r is not sentinel)
                if item is sentinel:
                    return
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    # -- patching --------------------------------------------------------
    def _wrapper(self, name: str, fn: Callable, count: Callable | None,
                 iterate: bool) -> Callable:
        if iterate:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self._iterate(name, fn(*args, **kwargs))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.call(name, fn, args, kwargs, count)
        return wrapper

    def wrap_attr(self, owner: object, attr: str, name: str,
                  count: Callable | None = None,
                  iterate: bool = False) -> None:
        """Wrap ``owner.attr`` (a module function, a method or a property
        defined on the class ``owner``) under the span ``name``.

        ``iterate`` times each ``next`` on the returned iterator instead
        of the call itself (for generator methods).
        """
        raw = owner.__dict__[attr]
        if isinstance(raw, property):
            wrapped = property(self._wrapper(name, raw.fget, count, False),
                               raw.fset, raw.fdel, raw.__doc__)
        else:
            wrapped = self._wrapper(name, raw, count, iterate)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def wrap_everywhere(self, fn: Callable, name: str,
                        count: Callable | None = None,
                        package: str = "repro") -> int:
        """Wrap ``fn`` at every module attribute of ``package`` that binds
        it, so callers reach the wrapper whichever name they resolve.
        Returns how many bindings were wrapped."""
        bound = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package
                                      or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.wrap_attr(module, attr, name, count)
                    bound += 1
        if bound == 0:
            raise LookupError(f"{fn!r} is not bound in any {package} module")
        return bound

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

"""Span tracer that wraps the package's public functions from outside.

The tracer patches every binding of a wrapped function: the defining module,
every module that imported the name, and class attributes such as
``Polynomial.__mul__`` together with its alias ``__rmul__``.  Each call
records a span (name, start, end, parent) in memory; per-layer self time is
computed afterwards from the span nesting.  ``restore`` puts every original
object back, so a traced run leaves the package exactly as it found it.

A call whose direct parent span has the same name is folded into that parent
(``is_independent`` calling ``is_dependent``, ``__sub__`` calling
``__add__``), so a layer's call count is the number of outermost calls.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Iterable, Optional


def self_times(spans: Iterable[tuple]) -> dict[str, float]:
    """Total self time per span name: duration minus direct children's.

    Spans are (name, start, end, parent) tuples, parent being the index of
    the enclosing span in the same sequence or -1.  Children of one parent
    never overlap (calls are single-threaded), so subtracting their
    durations gives the part of the parent's interval they do not cover.
    """
    spans = list(spans)
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - child_time[i]
    return dict(out)


class Tracer:
    """Records spans and counters for wrapped callables."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._stack_names: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """A callable that records a `name` span around each call of `fn`.

        `before(tracer, args, kwargs)` runs before the call and
        `after(tracer, result)` after a successful one, both outside the
        timed interval; they update counters.
        """
        spans, stack, names = self.spans, self._stack, self._stack_names
        clock = self.clock

        def traced(*args, **kwargs):
            if names and names[-1] == name:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            names.append(name)
            if before is not None:
                before(self, args, kwargs)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                names.pop()
                spans[index] = (name, start, end, parent)
                self.calls[name] += 1
            if after is not None:
                after(self, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        # Wrapping a functools cache from outside must keep it clearable.
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    # -- patching -----------------------------------------------------------

    def patch(self, owners: Iterable, original: object, wrapper: object) -> None:
        """Replace every binding of `original` in the given modules or classes."""
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every patched binding, most recent first."""
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        return self_times(self.spans)

    def write_spans(self, path: str) -> None:
        """One line per span: name, start, end, parent (tab-separated)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\n")


def package_modules(prefix: str = "rayleigh_kit") -> list:
    """Every imported module of the package, the package itself included."""
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == prefix or name.startswith(prefix + "."))
    ]

"""In-memory span tracing, installed from outside the hitset package.

The tracer replaces module attributes (``hitset.pipeline.solve_cover_lp``
and friends) with thin wrappers that open a span around the original
call, so the package itself is never edited.  Spans are kept in a list
and written out once, when the run ends.

Each span records its name, start, end, parent span index, the id of
the corpus instance being solved, and work counts as attributes.  A
span's self time is its duration minus the time its direct children
cover; calls are strictly nested in one thread, so children never
overlap.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    instance: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for one traced run and restores what it wrapped."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.instance = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent=parent, instance=self.instance))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def count(self, name: str, amount: int = 1) -> None:
        """Add to a counter held by the innermost open span."""
        attrs = self.spans[self._stack[-1]].attrs
        attrs[name] = attrs.get(name, 0) + amount

    def wrap(self, module, attr: str, name, annotate=None) -> None:
        """Replace ``module.attr`` by a spanned wrapper until ``restore``.

        ``name`` is the span name, or a function of the call's arguments
        returning it.  ``annotate(span, args, kwargs, result)`` may store
        attributes on the span after the call returns.
        """
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            index = self.open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if annotate is not None:
                annotate(self.spans[index], args, kwargs, result)
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def count_calls(self, module, attr: str, name: str) -> None:
        """Count calls to ``module.attr`` without opening a span."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            self.count(name)
            return original(*args, **kwargs)

        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for i, s in enumerate(self.spans):
                row = {"id": i, "name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, "instance": s.instance, **s.attrs}
                out.write(json.dumps(row) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own

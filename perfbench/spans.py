"""Span tracing installed from outside the program.

The tracer wraps module attributes (functions, or methods on a class) so
that every call records a span: its layer name, start, end and the span
that was open when it began. Nothing in ``src/`` knows about it. A site
that no longer exists is reported as missing instead of failing, so a
refactor that removes a call path leaves its time unattributed rather
than crashing the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

# Time spent computing a span's counters is recorded under this name, as
# a sibling of the measured span, so it never inflates a layer's self time.
COUNT_SPAN = "trace.count"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into the tracer's span list
    attrs: dict[str, float] = field(default_factory=dict)


# counter(args, kwargs, result) -> attributes recorded on the span
Counter = Callable[[tuple, dict, Any], dict]


@dataclass(frozen=True)
class Site:
    """A call site to wrap: ``module`` plus a dotted ``attr`` path.

    The attribute must be a plain function, either on the module itself
    (as the calling module sees it) or defined on a class (a method).
    """

    layer: str
    module: str
    attr: str
    counter: Optional[Counter] = None

    @property
    def ident(self) -> str:
        return f"{self.module}:{self.attr}"


class Tracer:
    """Collects spans in memory; single-threaded callers only."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def wrap(self, layer: str, fn: Callable, counter: Optional[Counter] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(layer, self._clock(), 0.0, parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = self._clock()
            if counter is not None:
                span.attrs = counter(args, kwargs, result)
                self.spans.append(Span(COUNT_SPAN, span.end, self._clock(), parent))
            return result

        return traced

    @contextmanager
    def installed(self, sites: list[Site]) -> Iterator[list[str]]:
        """Wrap every site that exists; yield the idents of missing ones.

        The original attributes are restored on exit.
        """
        restore: list[tuple[object, str, object]] = []
        missing: list[str] = []
        try:
            for site in sites:
                owner, name = _resolve(site)
                if owner is None:
                    missing.append(site.ident)
                    continue
                original = getattr(owner, name)
                restore.append((owner, name, original))
                setattr(owner, name, self.wrap(site.layer, original, site.counter))
            yield missing
        finally:
            for owner, name, original in reversed(restore):
                setattr(owner, name, original)


def _resolve(site: Site) -> tuple[Optional[object], str]:
    """(object holding the attribute, attribute name), or (None, name)."""
    *path, name = site.attr.split(".")
    try:
        owner: object = importlib.import_module(site.module)
    except ImportError:
        return None, name
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, name
    if not callable(getattr(owner, name, None)):
        return None, name
    return owner, name


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        inner = [(max(c.start, span.start), min(c.end, span.end)) for c in children.get(i, [])]
        out.append((span.end - span.start) - _union_length(inner))
    return out


def covered_time(spans: list[Span]) -> float:
    """Wall time covered by at least one root span."""
    return _union_length([(s.start, s.end) for s in spans if s.parent is None])

"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps functions of the program where their callers reach them (an
attribute of a module or of a class), so the program itself is unchanged.  A
wrapped call opens a span, a record of name, start, end and parent, only when
it is made directly from the top layer (the CLI); a call made from inside
another layer belongs to that layer, so its time stays there and it only adds
to counters.  Spans stay in memory; the benchmark writes them out at the end.

A wrap target that no longer exists (a later refactor may remove it) is
listed as missing, and the layers and counts fed only by missing targets are
reported as absent rather than crashing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the parent span in the same list


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span name.

    A span's self time is its duration minus the part of its interval that
    the union of its children's intervals covers.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        covered = 0.0
        edge = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start - covered)
    return out


# record(tracer, args, kwargs, result) adds the counts of one call
Record = Callable[["Tracer", tuple, dict, object], None]


@dataclass(frozen=True)
class Wrap:
    """One wrap target, the span it opens and the counts it records.

    module/attr name the target, attr possibly dotted ("Class.method").
    layer is the span name opened for calls from the top layer; None wraps
    for counting only.  counts lists the metrics that record adds to.
    """

    module: str
    attr: str
    layer: str | None
    counts: tuple[str, ...] = ()
    record: Record | None = None

    @property
    def target(self) -> str:
        return f"{self.module}.{self.attr}"

    @property
    def feeds(self) -> tuple[str, ...]:
        return ((self.layer,) if self.layer else ()) + self.counts


@dataclass
class Tracer:
    top: str
    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)
    unmeasured: set[str] = field(default_factory=set)
    _stack: list[int] = field(default_factory=list)
    _fed: dict[str, int] = field(default_factory=dict)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), math.nan, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = self.clock()

    def add(self, metric: str, value: float) -> None:
        self.counts[metric] = self.counts.get(metric, 0) + value

    def low(self, metric: str, value: float) -> None:
        self.counts[metric] = min(self.counts.get(metric, value), value)

    def high(self, metric: str, value: float) -> None:
        self.counts[metric] = max(self.counts.get(metric, value), value)

    def absent(self) -> set[str]:
        """Layers and counts that no existing target feeds, or whose record broke."""
        return {m for m, n in self._fed.items() if n == 0} | self.unmeasured

    def _opens_span(self) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]].name == self.top

    def _wrapper(self, fn, w: Wrap):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if w.layer is not None and tracer._opens_span():
                with tracer.span(w.layer):
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
            if w.record is not None and not tracer.unmeasured.issuperset(w.counts):
                try:
                    w.record(tracer, args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    # the result changed shape under a refactor: stop
                    # reporting these counts instead of failing the task
                    tracer.unmeasured.update(w.counts)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, wraps: list[Wrap]):
        """Install the wrappers for the duration of the block."""
        undo = []
        try:
            for w in wraps:
                for m in w.feeds:
                    self._fed.setdefault(m, 0)
                owner, name, fn = _resolve(w.module, w.attr)
                if fn is None:
                    self.missing.append(w.target)
                    continue
                for m in w.feeds:
                    self._fed[m] += 1
                setattr(owner, name, self._wrapper(fn, w))
                undo.append((owner, name, fn))
            yield self
        finally:
            for owner, name, fn in reversed(undo):
                setattr(owner, name, fn)


def _resolve(module: str, attr: str):
    """(owner, name, function) for a dotted target; function None if gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None, None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    fn = getattr(owner, name, None)
    return (owner, name, fn) if callable(fn) else (None, None, None)

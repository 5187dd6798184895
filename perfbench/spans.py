"""Spans around calls into rdiv, and the arithmetic that turns them into figures.

A `Tracer` replaces a function with a recording wrapper in every rdiv module
that bound it at import (``from .nn import train`` copies the name into
``rdiv.system``), and in dict-valued globals such as ``cli._COMMANDS`` that
hold it as a dispatch target. Each call inside a pass becomes one `Span`
with its parent, so a layer's self time is its duration minus what its
child spans cover. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index into the tracer's span list
    pass_id: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs recording wrappers; records spans only while a pass is open."""

    def __init__(self, modules):
        self.modules = list(modules)
        self.spans: list[Span] = []
        self.pass_id: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[dict, str, object]] = []

    def wrap(self, module, attr: str, name: str | Callable,
             count: Callable | None = None) -> None:
        """Wrap `module.attr` wherever rdiv holds it.

        `name` is the span name, or a function of the call's (args, kwargs)
        giving it. `count(args, kwargs, result)` returns the span's counts.
        """
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            if self.pass_id is None:
                return original(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            span = Span(label, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else None, self.pass_id)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        for mod in self.modules:
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    self._patch(namespace, key, wrapper)
                elif isinstance(value, dict):
                    for inner, target in list(value.items()):
                        if target is original:
                            self._patch(value, inner, wrapper)

    @contextlib.contextmanager
    def recording(self, pass_id: int):
        """Record the spans of calls made inside this block as pass `pass_id`."""
        self.pass_id = pass_id
        try:
            yield
        finally:
            self.pass_id = None

    def _patch(self, table: dict, key: str, wrapper) -> None:
        self._patches.append((table, key, table[key]))
        table[key] = wrapper

    def uninstall(self) -> None:
        for table, key, original in reversed(self._patches):
            table[key] = original
        self._patches.clear()


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, each clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def children_of(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent is not None:
            kids[span.parent].append(index)
    return kids


def self_time(spans: list[Span], index: int, kids: list[list[int]]) -> float:
    """A span's duration minus the part of it that its children cover."""
    span = spans[index]
    return span.duration - covered(
        [(spans[k].start, spans[k].end) for k in kids[index]], span.start, span.end)


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def per_pass_totals(spans: list[Span], passes: int) -> dict[str, dict[str, float]]:
    """Per span name: total ms, self ms, calls and summed numeric counts, per pass.

    Total time counts only the outermost span of a name, so a function that
    reaches itself is not counted twice; calls count every span.
    """
    kids = children_of(spans)
    out: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        row = out.setdefault(span.name, {"ms": 0.0, "self_ms": 0.0, "calls": 0.0})
        if not has_ancestor(spans, index, span.name):
            row["ms"] += span.duration * 1e3
        row["self_ms"] += self_time(spans, index, kids) * 1e3
        row["calls"] += 1
        for key, value in span.counts.items():
            if isinstance(value, (int, float)):
                row[key] = row.get(key, 0.0) + value
    return {name: {key: value / passes for key, value in row.items()}
            for name, row in out.items()}


def median(values) -> float:
    return float(statistics.median(list(values)))


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)

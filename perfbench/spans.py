"""In-memory spans recorded around calls into the program's public functions.

A probe replaces a module or class attribute with a wrapper that records a
span (name, start, end, parent span, pass id) and optionally annotates it
from the call's arguments and result. Probes are installed only for the
duration of one pass and restored afterwards, so the program itself is
never edited. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Probe:
    """Wrap owner.attr in a span called name; annotate(attrs, args, result)
    may record counts taken from the call."""

    owner: object
    attr: str
    name: str
    annotate: object = None


class Tracer:
    """Records spans; one Tracer may serve several passes (set .run)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, annotate=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = Span(len(spans), name, 0.0, 0.0, stack[-1] if stack else None, self.run)
            spans.append(span)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if annotate is not None:
                annotate(span.attrs, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def probing(self, probes):
        """Install every probe for the duration of the block."""
        saved = []
        try:
            for probe in probes:
                # a function the program no longer has leaves its metrics at 0
                original = vars(probe.owner).get(probe.attr)
                if original is None:
                    continue
                saved.append((probe.owner, probe.attr, original))
                setattr(probe.owner, probe.attr, self.wrap(probe.name, original, probe.annotate))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def named(self, name, run=None) -> list[Span]:
        return [s for s in self.spans if s.name == name and (run is None or s.run == run)]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result never goes below zero.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children[span.id], key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = span.duration - covered
    return result

"""In-memory span tracer for the benchmark's traced runs.

A span is one call into a layer: name, start, end, the id of the span that
was open when it started, and a few attributes (counts read from the call's
arguments or result).  Every span of one tracer shares its ``run_id``.
Spans are kept in a list and written as JSON lines when the run ends.

Layers are traced from outside: ``Tracer.wrap`` replaces a public callable
on the object the caller looks it up from (a module or a class) and
``Tracer.restore`` puts every original back.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable

__all__ = ["Span", "Tracer", "self_times", "subtree"]


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = float("nan")
    error: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record the block as one span; an exception marks it and propagates."""
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter(), attrs=attrs)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner: object, attr: str, name: str, describe=None) -> None:
        """Trace every call made through ``owner.attr`` as span ``name``.

        ``describe(args, result)``, if given, returns attributes to record.
        """
        # read from __dict__ so a class keeps its plain function, not a bound one
        original = vars(owner)[attr]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
            if describe is not None:
                span.attrs.update(describe(args, result))
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({"run_id": self.run_id, **asdict(span)}) + "\n")


def subtree(spans: list[Span], root: Span) -> list[Span]:
    """``root`` and every span opened beneath it (ids are in open order)."""
    inside = {root.id}
    found = [root]
    for span in spans[root.id + 1 :]:
        if span.parent in inside:
            inside.add(span.id)
            found.append(span)
    return found


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another, never overlapping, so the
    covered time is the sum of their durations.
    """
    spans = list(spans)
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return {span.id: span.duration - covered[span.id] for span in spans}

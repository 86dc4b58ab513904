"""In-memory span recorder for the benchmark's traced pass.

Spans are recorded from the benchmark's own files: :func:`tracing`
replaces a public attribute of a library module or class with a wrapper
that opens a span around every call, and puts the original back when it
exits.  Nothing is installed in the library itself.

Each span is ``(name, start, end, parent, query)``.  The recorder keeps
them in memory; :meth:`SpanRecorder.write` dumps them once the pass ends.
A span's *self time* is its duration minus the part covered by its
children, so the self times of one query's spans sum to the duration of
its root span.  The recorder keeps one stack, so it is only correct for
calls made on a single thread (the traced pass uses the serial backend).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time
import types
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional

__all__ = ["Boundary", "Span", "SpanRecorder", "tracing"]


class Boundary(NamedTuple):
    """A public attribute to wrap, and the layer its self time bills.

    ``owner.attr`` must be the name the *caller* looks the function up
    by: a module-level name imported into the calling module has to be
    wrapped in that module, not where it is defined.  ``count``, when
    given, maps ``(args, result)`` of a call to counters stored on the
    span.
    """

    owner: object
    attr: str
    layer: str
    count: Optional[Callable[[tuple, object], Dict[str, float]]] = None


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "query", "counts")

    def __init__(self, name, layer, parent, query):
        self.name = name
        self.layer = layer
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.query = query
        self.counts: Optional[Dict[str, float]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans on one thread; see the module docstring."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        #: id stamped on every span opened while it is set
        self.query: Optional[int] = None

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, layer, parent, self.query)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str, layer: Optional[str] = None) -> Iterator[Span]:
        """Record a span around a ``with`` block."""
        span = self._open(name, layer or name)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn: Callable, name: str, boundary: Boundary) -> Callable:
        """``fn`` with a span recorded around every call."""
        layer, count = boundary.layer, boundary.count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.counts = count(args, result)
            return result

        return traced

    # -- accounting ---------------------------------------------------------
    def self_times(self) -> List[float]:
        """Self time of every span, in recording order."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def layer_self(self) -> Dict[Optional[int], Dict[str, float]]:
        """Self time summed per query and layer: ``{query: {layer: s}}``."""
        out: Dict[Optional[int], Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for s, own in zip(self.spans, self.self_times()):
            out[s.query][s.layer] += own
        return {q: dict(layers) for q, layers in out.items()}

    def layer_counts(self, layer: str) -> Dict[str, float]:
        """Counters summed over every span of ``layer``; ``calls`` is the
        number of spans."""
        out: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.layer == layer:
                out["calls"] += 1
                for key, value in (s.counts or {}).items():
                    out[key] += value
        return dict(out)

    def write(self, path) -> None:
        """Dump every span as one JSON line (gzip-compressed)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "layer": s.layer,
                    "start": s.start, "end": s.end, "parent": s.parent,
                    "query": s.query, "counts": s.counts,
                }) + "\n")


def _qualname(owner: object, attr: str) -> str:
    if isinstance(owner, types.ModuleType):
        return f"{owner.__name__}.{attr}"
    return f"{owner.__module__}.{owner.__qualname__}.{attr}"


@contextlib.contextmanager
def tracing(recorder: SpanRecorder, boundaries: List[Boundary]):
    """Wrap every boundary for the duration of the ``with`` block.

    On exit each attribute is restored exactly: a name the owner defined
    itself gets its original object back, a name it inherited is deleted
    again so lookup falls through to the base class.
    """
    missing = object()
    saved = []
    try:
        for b in boundaries:
            fn = getattr(b.owner, b.attr)
            saved.append((b.owner, b.attr, vars(b.owner).get(b.attr, missing)))
            setattr(b.owner, b.attr,
                    recorder.wrap(fn, _qualname(b.owner, b.attr), b))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            if original is missing:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

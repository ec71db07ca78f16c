"""In-memory span recorder for the end-to-end benchmark.

The benchmark wraps the public entry point of each pipeline layer (frontend,
passes, backend, encoder, emulators, CPU and zkVM models, measurement cache,
experiment engine, IR interpreter, fuzz generator) from the outside, so the
program itself carries no tracing code.  Spans are kept in memory and written
out when the run ends, as a plain JSON list and as Chrome trace-event JSON
(one track per span kind, loadable in ``chrome://tracing`` or Perfetto).

A :class:`Tracer` with ``timing=False`` installs the same wrappers but only
bumps the layer counters; the benchmark uses it for the untraced serial run,
so counts from two runs of one seed can be compared exactly while that run's
wall time stays free of span bookkeeping.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional


@dataclass
class Span:
    """One timed call into a layer: ``[start, end)`` in ``perf_counter`` seconds."""

    id: int
    parent: Optional[int]
    kind: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: Iterable[tuple[float, float]],
                   lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    run_start = run_end = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        elif b > run_end:
            run_end = b
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap each other (the union is subtracted once) and may
    stick out of their parent (only the part inside the parent counts).
    """
    spans = list(spans)
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {span.id: span.duration - covered_length(children.get(span.id, ()),
                                                    span.start, span.end)
            for span in spans}


def self_time_by_kind(spans: Iterable[Span]) -> dict[str, float]:
    """Summed self time per span kind."""
    spans = list(spans)
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.kind] += own[span.id]
    return dict(totals)


def spans_json(spans: Iterable[Span], origin: float) -> list[dict]:
    """Spans as plain dicts, times in seconds relative to ``origin``."""
    return [{"id": s.id, "parent": s.parent, "kind": s.kind,
             "start_s": s.start - origin, "end_s": s.end - origin}
            for s in spans]


def chrome_trace(spans: Iterable[Span], origin: float) -> dict:
    """Chrome trace-event JSON: complete ("X") events, one track per kind."""
    spans = list(spans)
    kinds = sorted({s.kind for s in spans})
    track = {kind: index + 1 for index, kind in enumerate(kinds)}
    events = [{"name": "thread_name", "ph": "M", "pid": 1, "tid": track[kind],
               "args": {"name": kind}} for kind in kinds]
    for s in spans:
        events.append({"name": s.kind, "cat": s.kind, "ph": "X", "pid": 1,
                       "tid": track[s.kind],
                       "ts": (s.start - origin) * 1e6,
                       "dur": s.duration * 1e6,
                       "args": {"id": s.id, "parent": s.parent}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_traces(spans: list[Span], origin: float, directory: Path,
                 stem: str) -> tuple[Path, Path]:
    """Write ``<stem>.spans.json`` and ``<stem>.trace.json``; returns both paths."""
    directory.mkdir(parents=True, exist_ok=True)
    plain = directory / f"{stem}.spans.json"
    chrome = directory / f"{stem}.trace.json"
    plain.write_text(json.dumps(spans_json(spans, origin)))
    chrome.write_text(json.dumps(chrome_trace(spans, origin)))
    return plain, chrome


@dataclass
class Tracer:
    """Span stack plus layer counters, fed by wrappers around entry points."""

    timing: bool = True
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    #: Consistency problems noticed while tracing (reported as failures).
    problems: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    # -- spans -----------------------------------------------------------------
    def open(self, kind: str) -> Span:
        span = Span(len(self.spans), self._stack[-1].id if self._stack else None,
                    kind, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def add_span(self, kind: str, parent: Span, start: float,
                 end: float) -> None:
        """Record an already-measured interval as a child of ``parent``."""
        self.spans.append(Span(len(self.spans), parent.id, kind, start, end))

    # -- wrappers ----------------------------------------------------------------
    def wrap(self, fn: Callable, kind, after: Optional[Callable] = None,
             probe: Optional[Callable] = None) -> Callable:
        """A wrapper that times ``fn`` as a span and then runs ``after``.

        ``kind`` is a span kind, a callable mapping the first argument to
        one (for methods shared by several classes), or None for a counting
        wrapper without a span.  ``after(tracer, args, kwargs, result)``
        updates counters; in timing mode it runs inside a ``tracing`` span
        so its cost is visible as overhead, not charged to a layer.
        ``probe(tracer, span, args, kwargs, result)`` runs right after the
        span closes, in timing mode only (the CPU-model split uses it).
        """
        tracer = self

        def wrapper(*args, **kwargs):
            span_kind = kind(args[0]) if callable(kind) else kind
            if not tracer.timing or span_kind is None:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, args, kwargs, result)
                return result
            span = tracer.open(span_kind)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if probe is not None:
                probe(tracer, span, args, kwargs, result)
            if after is not None:
                overhead = tracer.open("tracing")
                try:
                    after(tracer, args, kwargs, result)
                finally:
                    tracer.close(overhead)
            return result

        return functools.update_wrapper(wrapper, fn)

    def patch_method(self, owner: type, name: str, kind, **hooks) -> None:
        """Replace ``owner.name`` with a traced wrapper (undone by :meth:`unpatch`)."""
        original = owner.__dict__[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, self.wrap(original, kind, **hooks))

    def patch_function(self, fn: Callable, kind, **hooks) -> None:
        """Replace every module-level reference to ``fn`` in the ``repro`` package.

        Modules import layer entry points by name (``from ..backend import
        compile_module``), so each importing module holds its own reference;
        all of them are swapped, including the defining module's own, so
        calls from inside the package are traced too.
        """
        wrapper = self.wrap(fn, kind, **hooks)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.unpatch()

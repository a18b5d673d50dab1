"""In-memory spans around the library's module-level names.

``Tracer.install`` swaps each named function for a wrapper that records a
span, and puts the originals back when the block ends. Nothing inside the
library changes: a callee is traced only when its caller looks it up as a
module global, which is how ``api`` calls every layer.
"""

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    call: int  # id shared by every span of one top-level call
    parent: int  # index of the enclosing span in Tracer.spans, -1 for a root
    start_ns: int
    end_ns: int = 0
    child_ns: int = 0  # summed duration of the direct children
    counts: dict = field(default_factory=dict)

    @property
    def duration_ns(self):
        return self.end_ns - self.start_ns

    @property
    def self_ns(self):
        return self.duration_ns - self.child_ns


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = 0
        self._open = []  # indices of spans not yet ended, innermost last

    @contextmanager
    def span(self, name):
        """Record one span; a span opened with no enclosing span starts a new call."""
        if not self._open:
            self.calls += 1
        parent = self._open[-1] if self._open else -1
        record = Span(name, self.calls, parent, time.perf_counter_ns())
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end_ns = time.perf_counter_ns()
            self._open.pop()
            if parent >= 0:
                self.spans[parent].child_ns += record.duration_ns

    def _wrapper(self, name, original, count):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if count is not None:
                    record.counts.update(count(args, result))
            return result

        return traced

    @contextmanager
    def install(self, targets):
        """Wrap ``(module, attribute, count)`` targets for the duration of the block.

        The span is named after the module that defines the function, so
        ``api.validate`` is recorded as ``distributions.validate``. ``count``
        is ``None`` or ``count(args, result) -> dict`` of per-span counters.
        """
        saved = []
        try:
            for module, attribute, count in targets:
                original = getattr(module, attribute)
                layer = original.__module__.rsplit(".", 1)[-1]
                saved.append((module, attribute, original))
                setattr(module, attribute, self._wrapper(f"{layer}.{attribute}", original, count))
            yield self
        finally:
            for module, attribute, original in reversed(saved):
                setattr(module, attribute, original)

    def per_call(self, name, value):
        """``value(span)`` summed over the spans called ``name``, one total per call.

        Calls without such a span contribute 0, so a layer a workload never
        enters reads 0 rather than disappearing.
        """
        totals = [0] * self.calls
        for record in self.spans:
            if record.name == name:
                totals[record.call - 1] += value(record)
        return totals

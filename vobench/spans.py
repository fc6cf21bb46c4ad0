"""In-memory spans around the calls the benchmark makes into rigvo.

A span is (name, start, end, parent, frame): times from
time.perf_counter, parent the index of the enclosing span or -1, frame the
frame or window the call served. Spans stay in memory and are written out
once, when the run ends. With tracing off, span() hands back one shared
no-op context, so untraced runs pay for a method call and nothing else.
"""

from __future__ import annotations

import contextlib
import json
import time

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []  # [name, start, end, parent, frame]
        self._stack = []

    def span(self, name, frame=-1):
        return self._span(name, frame) if self.enabled else _NULL

    @contextlib.contextmanager
    def _span(self, name, frame):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, frame]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def durations_ms(self, name):
        return [1e3 * (s[2] - s[1]) for s in self.spans if s[0] == name]

    def per_parent_ms(self, name, parent):
        """Summed duration (ms) of the `name` spans directly under each
        `parent` span, 0 for a parent without one."""
        totals = {i: 0.0 for i, s in enumerate(self.spans) if s[0] == parent}
        for s in self.spans:
            if s[0] == name and s[3] in totals:
                totals[s[3]] += 1e3 * (s[2] - s[1])
        return list(totals.values())

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "frame"],
                       "spans": self.spans}, fh)

"""In-memory spans recorded around calls into the package's modules.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
id of the span that was open when it started, and free-form attributes
(``case`` labels the input, e.g. ``T1000``).  Spans stay in memory and are
written out once, when the run ends.  ``NullTracer`` has the same interface
and records nothing; the end-to-end runs use it.
"""

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def find(self, name, **attrs):
        """Closed spans called ``name`` whose attributes match ``attrs``."""
        return [s for s in self.spans if s["name"] == name
                and s["end"] is not None
                and all(s.get(k) == v for k, v in attrs.items())]

    def durations(self, name, **attrs):
        return [s["end"] - s["start"] for s in self.find(name, **attrs)]

    def self_times(self):
        """Per span name: total duration minus the time its children cover."""
        child = {}
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) \
                    + s["end"] - s["start"]
        out = {}
        for s in self.spans:
            if s["end"] is not None:
                out[s["name"]] = out.get(s["name"], 0.0) \
                    + s["end"] - s["start"] - child.get(s["id"], 0.0)
        return out


class NullTracer:
    enabled = False

    def span(self, name, **attrs):
        return nullcontext()

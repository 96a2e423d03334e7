"""In-memory spans for the traced run.

Spans are recorded from the benchmark's own files: around its calls into
each layer, and at the stage boundaries the network already opens through
``instrument.stage``.  :class:`TimedCounter` is a ``MacCounter`` whose
``stage()`` also records a span, so one traced pass yields both the exact
multiply-adds and the wall time of every counted stage.
"""

import json
import time
from contextlib import contextmanager

from cuenet.instrument import MacCounter


class SpanRecorder:
    """Spans kept in memory as ``[id, parent, request, name, start, end]``.

    Times are ``perf_counter_ns`` values.  Spans of one operation share a
    request id; ``parent`` is the id of the enclosing span, or None.
    """

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, request):
        record = [len(self.spans), self._open[-1] if self._open else None,
                  request, name, time.perf_counter_ns(), None]
        self.spans.append(record)
        self._open.append(record[0])
        try:
            yield record
        finally:
            self._open.pop()
            record[5] = time.perf_counter_ns()

    def self_times_ns(self):
        """Per span id: duration minus the time its children cover.

        Everything runs on one thread, so the children of a span are
        disjoint and the time they cover is the sum of their durations.
        """
        own = {s[0]: s[5] - s[4] for s in self.spans}
        for s in self.spans:
            if s[1] is not None:
                own[s[1]] -= s[5] - s[4]
        return own

    def write(self, path):
        """Write one JSON object per span, with its self time."""
        own = self.self_times_ns()
        keys = ("id", "parent", "request", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({**dict(zip(keys, s)),
                                     "self_ns": own[s[0]]}) + "\n")


class TimedCounter(MacCounter):
    """Multiply-add counter that also opens a span for every stage."""

    def __init__(self, recorder, request):
        super().__init__()
        self._recorder = recorder
        self._request = request

    @contextmanager
    def stage(self, name):
        with self._recorder.span(name, self._request), super().stage(name):
            yield self

"""In-memory span tracing and the timing statistics the benchmark reports.

A span is one call the benchmark makes into a public function of a
``toric_ih`` layer, or one whole job.  Spans are kept in memory as
``[name, start, end, parent, job]`` (``parent`` is the index of the
enclosing span or ``None``; times are ``time.perf_counter`` seconds) and
written out once, when the run ends.  Spans live only in the benchmark: the
library itself is not instrumented.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager, nullcontext
from time import perf_counter

SPAN_FIELDS = ("name", "start", "end", "parent", "job")
JOB_SPAN = "bench.job"


class NullTracer:
    """Tracing off: calls go straight through, no spans are kept."""

    calls = ()

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def job(self, job_id):
        return nullcontext()


class Tracer:
    """Tracing on: one span per call into a layer and one per job.

    ``calls`` holds ``(name, args, result)`` for the calls of the current
    job, so that work counters can be derived from them once the job's
    timed region is over; the runner clears it after every job.
    """

    def __init__(self):
        self.spans = []
        self.calls = []
        self._stack = []
        self._job = None

    def _open(self, name):
        span = [name, perf_counter(), None, self._stack[-1] if self._stack else None, self._job]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        self.calls.append((name, args, result))
        return result

    @contextmanager
    def job(self, job_id):
        self._job = job_id
        span = self._open(JOB_SPAN)
        try:
            yield
        finally:
            self._close(span)
            self._job = None


def self_times(spans):
    """Each span's duration minus the time covered by its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def tail(samples):
    """``(value, percentile, beyond)`` for the highest percentile of the
    samples that still has at least ten samples beyond it.

    With ``n`` sorted samples that is the one at zero-based rank ``n - 11``;
    under linear interpolation between ranks (``rank = p/100 * (n - 1)``)
    it is the ``100 * (n - 11) / (n - 1)`` percentile.  Needs 11 samples.
    """
    n = len(samples)
    if n < 11:
        raise ValueError(f"the tail needs at least 11 samples, got {n}")
    rank = n - 11
    return sorted(samples)[rank], 100.0 * rank / (n - 1), n - 1 - rank


def write_trace(path, spans, meta):
    """Write the spans (and run metadata) as one JSON document."""
    doc = {"meta": meta, "fields": list(SPAN_FIELDS), "spans": spans}
    with open(path, "w") as fh:
        json.dump(doc, fh, allow_nan=False)
        fh.write("\n")


def read_trace(path):
    """``(spans, meta)`` from a file written by :func:`write_trace`."""
    with open(path) as fh:
        doc = json.load(fh)
    if tuple(doc["fields"]) != SPAN_FIELDS:
        raise ValueError(f"unexpected trace fields {doc['fields']}")
    spans = doc["spans"]
    for span in spans:
        if len(span) != len(SPAN_FIELDS) or not all(math.isfinite(t) for t in span[1:3]):
            raise ValueError(f"malformed span {span}")
    return spans, doc["meta"]

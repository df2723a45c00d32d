"""Call recording for the benchmark: a no-op recorder for untraced runs and
a span tracer for traced runs.

Spans are recorded only here, around the calls the workloads make into
`fpt`; the library itself is not instrumented.  A span is
(name, start, end, parent, workload, task id, pass index, failed).  Spans
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class NullRecorder:
    """Untraced run: calls go straight through."""

    traced = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def task(self, name, task_id, pass_index):
        return contextlib.nullcontext()


class Tracer:
    """Records one span per call; `task` opens the parent span of a task."""

    traced = True

    def __init__(self, workload):
        self.workload = workload
        self.spans = []               # dicts, in start order
        self._stack = []              # indices of open spans
        self._task_id = None
        self._pass = None

    @contextlib.contextmanager
    def _span(self, name):
        parent = self._stack[-1] if self._stack else None
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": parent, "workload": self.workload,
                "task": self._task_id, "pass": self._pass, "failed": True}
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
            span["failed"] = False
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self._span(name):
            return fn(*args, **kwargs)

    @contextlib.contextmanager
    def task(self, name, task_id, pass_index):
        self._task_id, self._pass = task_id, pass_index
        try:
            with self._span(name):
                yield
        finally:
            self._task_id = None

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans, pass_index):
    """Per span name, over the spans of one pass (None: set-up): calls,
    failed, busy time (sum of durations) and self time (duration minus
    the part covered by child spans)."""
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out = {}
    for idx, span in enumerate(spans):
        if span["pass"] != pass_index:
            continue
        dur = span["end"] - span["start"]
        agg = out.setdefault(span["name"], {"calls": 0, "failed": 0,
                                            "busy_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["failed"] += int(span["failed"])
        agg["busy_s"] += dur
        agg["self_s"] += dur - child_time[idx]
    return out

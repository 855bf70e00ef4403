"""In-memory span tracer that wraps functions from outside their modules.

A wrapped call records one span: name, start, end, parent span and the
operation id the benchmark was running.  Spans stay in memory (compact
typed arrays) and are written out once, at the end of a run.  Per name
the tracer also keeps running totals of calls and self time, where self
time is the span's duration minus the time its child spans cover; the program is single-threaded, so spans nest strictly and the
children's durations can be summed on a stack as they close.

Nothing here knows about omnalg: ``install`` takes (owner, attribute,
span name, hook) targets and ``uninstall`` puts every original back.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from functools import wraps
from time import perf_counter


class Tracer:
    """Span recorder with per-name call and self-time aggregates."""

    def __init__(self, max_spans: int = 2_000_000) -> None:
        self.max_spans = max_spans
        self.names: list = []
        self._ids: dict = {}
        self.calls: list = []
        self.self_s: list = []
        self.counts: dict = {}
        self.op_id = 0
        self.recording = True
        self.dropped = 0
        self._stack: list = []
        self._patched: list = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    # -- aggregates -----------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def count(self, key: str, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def reset_aggregates(self) -> None:
        """Zero the per-name totals and counters; spans already kept stay."""
        for i in range(len(self.names)):
            self.calls[i] = 0
            self.self_s[i] = 0.0
        self.counts = {}

    def snapshot(self) -> dict:
        """Per-name {calls, self_s} plus the counters."""
        per_name = {name: {"calls": self.calls[i], "self_s": self.self_s[i]}
                    for i, name in enumerate(self.names) if self.calls[i]}
        return {"spans": per_name, "counts": dict(self.counts)}

    # -- wrapping -------------------------------------------------------

    def wrap(self, fn, name: str, hook=None):
        """Return a traced version of ``fn``; ``hook(tracer, args, kwargs,
        result)`` runs after the span closes, so its cost is not charged
        to the span."""
        nid = self.name_id(name)
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        s_name, s_parent, s_op = self.span_name, self.span_parent, self.span_op
        s_start, s_end = self.span_start, self.span_end
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = -1
            if tracer.recording:
                if len(s_start) < tracer.max_spans:
                    idx = len(s_start)
                    s_name.append(nid)
                    s_parent.append(stack[-1][0] if stack else -1)
                    s_op.append(tracer.op_id)
                    s_start.append(0.0)
                    s_end.append(0.0)
                else:
                    tracer.dropped += 1
            frame = [idx, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if idx >= 0:
                    s_start[idx] = start
                    s_end[idx] = end
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def install(self, targets, modules) -> None:
        """Patch each (owner, attribute, name, hook) target in place.

        Class attributes holding classmethods or staticmethods are
        re-wrapped in the same descriptor type.  A module-level function
        is also replaced wherever ``modules`` hold it under an imported
        name, so ``from x import f`` callers see the traced version.
        """
        replaced: dict = {}
        for owner, attr, name, hook in targets:
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self.wrap(raw.__func__, name, hook))
            else:
                new = self.wrap(raw, name, hook)
                if not isinstance(owner, type):
                    replaced[id(raw)] = (raw, new)
            self._patched.append((owner, attr, raw))
            setattr(owner, attr, new)
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value and hit[1] is not value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    # -- output ---------------------------------------------------------

    def write_spans(self, stem: str) -> dict:
        """Write the kept spans as ``<stem>.bin`` plus a ``<stem>.json`` header.

        The binary file holds five native-endian columns one after the
        other: int32 name id, int32 parent span index (-1 for a root),
        int32 op id, float64 start and float64 end (perf_counter seconds).
        """
        os.makedirs(os.path.dirname(stem) or ".", exist_ok=True)
        count = len(self.span_start)
        with open(stem + ".bin", "wb") as out:
            for column in (self.span_name, self.span_parent, self.span_op,
                           self.span_start, self.span_end):
                column.tofile(out)
        header = {"names": self.names, "count": count, "dropped": self.dropped,
                  "columns": [["name", "int32"], ["parent", "int32"],
                              ["op", "int32"], ["start_s", "float64"],
                              ["end_s", "float64"]],
                  "byteorder": sys.byteorder}
        with open(stem + ".json", "w") as out:
            json.dump(header, out)
        return header

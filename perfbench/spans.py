"""Span recording for the traced run, from the benchmark's own files.

Spans wrap the benchmark's calls into each layer's public functions; no
tracing lives inside the program.  A span has a name, start, end, its
parent span and the request it belongs to.  Spans are kept in memory and
written once, as Chrome trace-event JSON (``chrome://tracing`` and
Perfetto read it), when the run ends.

Self time — a span's duration minus the part its child spans cover — is
accumulated per span name as spans close, so the per-layer totals need no
pass over the stored spans.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

import numpy as np

#: spans stored for export; later spans still count toward self time.
MAX_STORED_SPANS = 200_000


class Tracer:
    """Collects spans; nesting is tracked per thread."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: List[tuple] = []
        self.recorded = 0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request_id: Optional[int] = None) -> list:
        """Open a span nested under this thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = parent[3]
        # name, span id, parent id, request id, seconds covered by children, start
        frame = [name, next(self._ids), parent[1] if parent else 0, request_id,
                 0.0, time.perf_counter()]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> float:
        """Close ``frame`` (the innermost open span); returns its seconds."""
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        name, span_id, parent_id, request_id, child_s, start = frame
        duration = end - start
        if stack:
            stack[-1][4] += duration
        self._close(name, span_id, parent_id, request_id, start, end, duration - child_s)
        return duration

    def new_id(self) -> int:
        """Reserve a span id, so children can name a parent not yet closed."""
        return next(self._ids)

    def record(self, name: str, start: float, end: float, parent_id: int = 0,
               request_id: Optional[int] = None, span_id: int = 0) -> int:
        """Store a span whose ends were timed elsewhere (e.g. on two threads)."""
        span_id = span_id or next(self._ids)
        self._close(name, span_id, parent_id, request_id, start, end, end - start)
        return span_id

    def _close(self, name, span_id, parent_id, request_id, start, end, self_s) -> None:
        with self._lock:
            self.recorded += 1
            self.self_s[name] += self_s
            self.calls[name] += 1
            if len(self.spans) < MAX_STORED_SPANS:
                self.spans.append((name, span_id, parent_id, request_id, start, end,
                                   threading.get_ident()))

    def span(self, name: str, request_id: Optional[int] = None) -> "_Span":
        return _Span(self, name, request_id)

    def write_chrome(self, path: str, process_name: str) -> str:
        """Write the stored spans as Chrome trace-event JSON; returns ``path``."""
        pid = os.getpid()
        events: List[Dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": process_name}}]
        for name, span_id, parent_id, request_id, start, end, tid in self.spans:
            events.append({
                "name": name, "cat": process_name, "ph": "X", "pid": pid, "tid": tid,
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"span_id": span_id, "parent_id": parent_id,
                         "request_id": request_id},
            })
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"spans_recorded": self.recorded,
                                     "spans_stored": len(self.spans)}}, handle)
        return path


class _Span:
    __slots__ = ("tracer", "name", "request_id", "frame")

    def __init__(self, tracer: Tracer, name: str, request_id: Optional[int]) -> None:
        self.tracer, self.name, self.request_id = tracer, name, request_id

    def __enter__(self) -> "_Span":
        self.frame = self.tracer.begin(self.name, self.request_id)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.frame)


def maybe_span(tracer: Optional[Tracer], name: str, request_id: Optional[int] = None):
    """``tracer.span(...)`` when tracing, else a no-op context."""
    return tracer.span(name, request_id) if tracer is not None else _NULL


class _Null:
    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL = _Null()


def _nbytes(value) -> int:
    return value.nbytes if isinstance(value, np.ndarray) else 0


class KernelProbe:
    """Wraps public methods of one object in spans and counts bytes moved.

    ``install()`` shadows each method with an instance attribute that opens
    a span around the original call; ``remove()`` deletes the shadows, so
    untraced calls run the unmodified methods.  Bytes moved per call are
    computed from array sizes: every array argument read plus the array
    returned (an ``out=`` buffer is counted once, as the write).
    """

    def __init__(self, target: Any, names, tracer: Tracer, prefix: str) -> None:
        self.target = target
        self.names = tuple(names)
        self.tracer = tracer
        self.prefix = prefix
        self.bytes: Dict[str, int] = defaultdict(int)
        self.installed = False

    def _wrap(self, name: str, original: Callable) -> Callable:
        tracer, moved, span_name = self.tracer, self.bytes, self.prefix + name

        def traced(*args, **kwargs):
            frame = tracer.begin(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(frame)
            moved[name] += sum(_nbytes(arg) for arg in args) + _nbytes(result)
            return result

        return traced

    def install(self) -> None:
        for name in self.names:
            setattr(self.target, name, self._wrap(name, getattr(self.target, name)))
        self.installed = True

    def remove(self) -> None:
        if self.installed:
            for name in self.names:
                delattr(self.target, name)
            self.installed = False

"""A single-threaded open-loop load generator.

One thread sends every request at its due time from a seeded Poisson
schedule; completions arrive through ``add_done_callback`` on whatever
thread settles the future.  Each request is timed from when it was *due*,
not from when it was sent, so a stall in the generator or the system
shows up as latency of every request it delayed.  How late the generator
ran is measured too, and a rung whose generator ran late is marked
invalid in the report.  Its lateness already counts against its latency
limit, and due times are absolute, so a late generator catches up and
the rung still offers its rate on average.

A rung ends early, with the remaining requests never sent, once the
requests outstanding reach ``abort_outstanding``.  That is the sign of a
growing backlog, and stopping there keeps the generator from pushing the
system into refusing work just to confirm the rung failed.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from . import stats

#: a rung is marked invalid when its generator's p99 lateness exceeds this.
LATE_LIMIT_MS = 10.0

#: latency limit of the goodput rule, and the share that must meet it.
LIMIT_MS = 50.0
LIMIT_SHARE = 0.99


@dataclass
class Rung:
    rate: float
    planned: int
    outcomes: stats.Outcomes = field(default_factory=stats.Outcomes)
    late_ms: List[float] = field(default_factory=list)
    submit_us: List[float] = field(default_factory=list)
    traced_ms: List[float] = field(default_factory=list)
    untraced_ms: List[float] = field(default_factory=list)
    sent: int = 0
    refused: int = 0
    errored: int = 0
    aborted: bool = False
    outstanding_at_end: int = 0
    duration_s: float = 0.0

    @property
    def late_p99_ms(self) -> float:
        return stats.nearest_rank(sorted(self.late_ms), 99.0) if self.late_ms else 0.0

    @property
    def valid(self) -> bool:
        return self.late_p99_ms <= LATE_LIMIT_MS

    @property
    def backlog_growing(self) -> bool:
        """More than the limit's worth of arrivals still queued at the end."""
        return self.aborted or self.outstanding_at_end > max(4.0, self.rate * LIMIT_MS / 1000.0)

    @property
    def passed(self) -> bool:
        return (not self.backlog_growing and self.outcomes.failed == 0
                and stats.share_within(self.outcomes, LIMIT_MS) >= LIMIT_SHARE)

    def summary(self) -> Dict[str, Any]:
        succeeded = self.outcomes.succeeded
        timing = stats.timing(succeeded).to_dict() if succeeded else None
        return {
            "rate": self.rate, "planned": self.planned,
            "sent": self.sent, "attempted": self.outcomes.attempted,
            "succeeded": len(succeeded), "failed": self.outcomes.failed,
            "refused": self.refused, "errored": self.errored,
            "latency": timing,
            "within_limit_share": (stats.share_within(self.outcomes, LIMIT_MS)
                                   if self.outcomes.attempted else None),
            "late_p99_ms": self.late_p99_ms, "valid": self.valid,
            "aborted": self.aborted, "outstanding_at_end": self.outstanding_at_end,
            "backlog_growing": self.backlog_growing, "passed": self.passed,
            "duration_s": self.duration_s,
        }


def run_rung(submit: Callable[[int], Any], rate: float, count: int,
             rng: np.random.Generator, abort_outstanding: int,
             refusals: tuple, tracer=None,
             on_result: Optional[Callable[[int, Any], None]] = None,
             drain_timeout: float = 30.0) -> Rung:
    """Offer ``count`` requests at ``rate``/s; ``submit(i)`` returns a future.

    ``on_result(i, value)`` sees each successful answer (on the thread that
    settled it).  With a tracer, even-numbered requests get a ``request``
    span from due time to completion with a ``submit`` child span, and the
    odd-numbered ones run untraced, so their latencies can be compared.
    """
    rung = Rung(rate=rate, planned=count)
    latencies: List[Optional[float]] = [None] * count
    traced_flags = [False] * count
    completed: List[int] = []          # list.append is atomic under the GIL
    all_done = threading.Event()
    lock = threading.Lock()
    state = {"closed": False}

    def finish(index: int, due: float, span_id: int, future) -> None:
        now = time.perf_counter()
        try:
            value = future.result(timeout=0)
        except Exception:              # errored request: failed, misses every limit
            rung.errored += 1
        else:
            latencies[index] = (now - due) * 1000.0
            if on_result is not None:
                on_result(index, value)
        if span_id:
            tracer.record("request", due, now, request_id=index, span_id=span_id)
        completed.append(index)
        with lock:
            if state["closed"] and len(completed) >= rung.sent:
                all_done.set()

    offsets = np.cumsum(rng.exponential(1.0 / rate, size=count))
    start = time.perf_counter() + 0.005
    for index in range(count):
        due = start + float(offsets[index])
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        if rung.sent - len(completed) >= abort_outstanding:
            rung.aborted = True
            break
        began = time.perf_counter()
        rung.late_ms.append((began - due) * 1000.0)
        traced = tracer is not None and index % 2 == 0
        traced_flags[index] = traced
        span_id = tracer.new_id() if traced else 0
        try:
            future = submit(index)
        except refusals:
            rung.refused += 1
            rung.outcomes.add(None)
            continue
        submitted = time.perf_counter()
        rung.submit_us.append((submitted - began) * 1e6)
        if traced:
            tracer.record("submit", began, submitted, parent_id=span_id, request_id=index)
        rung.sent += 1
        future.add_done_callback(
            lambda fut, i=index, d=due, s=span_id: finish(i, d, s, fut))
    rung.duration_s = time.perf_counter() - start
    rung.outstanding_at_end = rung.sent - len(completed)
    with lock:
        state["closed"] = True
        if len(completed) >= rung.sent:
            all_done.set()
    all_done.wait(drain_timeout)
    settled = sorted(completed)
    for index in settled:
        rung.outcomes.add(latencies[index])
        if latencies[index] is not None:
            (rung.traced_ms if traced_flags[index] else rung.untraced_ms).append(
                latencies[index])
    for _ in range(rung.sent - len(settled)):   # never settled within the drain timeout
        rung.outcomes.add(None)
    return rung


def goodput(rungs: List[Rung]) -> float:
    """The highest rate at which a rung passed, with a passing rung at every
    lower rate of the ladder (a rate may have been tried more than once).

    When no rate passed, it is the first rung's rate of requests answered
    within the limit, so the metric stays positive and still moves with
    the system.
    """
    passed = {rung.rate for rung in rungs if rung.passed}
    best = 0.0
    for rate in sorted({rung.rate for rung in rungs}):
        if rate not in passed:
            break
        best = rate
    if best == 0.0 and rungs:
        first = rungs[0]
        within = stats.share_within(first.outcomes, LIMIT_MS) if first.outcomes.attempted else 0
        best = max(within * first.outcomes.attempted / max(first.duration_s, 1e-9), 1e-3)
    return best

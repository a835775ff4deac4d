"""Pool-level continuous cross-request batching.

The first serving PR batched *per worker*: each worker greedily coalesced
whatever happened to be in its own queue, so two compatible requests that
landed on different workers never shared a forward, and a request sent to a
busy worker queued behind it even while another worker idled.  This module
moves the decision up a level: admitted requests land in one pool-wide
FIFO :class:`RequestBacklog`, and whenever *any* worker has dispatch
capacity the pool cuts the next batch from the front of the backlog —
across connections, across submitters.

The batching is **continuous** in the vLLM sense: there is no timer waiting
for a batch to fill.  Under light load every request is dispatched alone the
moment it arrives (no added latency); under heavy load batches grow toward
``max_batch_size`` naturally, because requests accumulate exactly while all
workers are busy.  Batch size adapts to load instead of being configured.

The pool keeps a bounded number of batches in flight per worker: one
computing, plus enough parked in the worker's queue that the worker never
idles between batches.  How many "enough" is depends on the workload —
when transport dominates compute the pipe must be deeper to hide it, and
when compute dominates anything beyond one parked batch only grows queue
latency: a request is better off in the backlog (where it can still be
shed, retried or batched with later arrivals) than committed to a specific
worker.  :class:`PipelineController` picks the depth per worker from the
measured stage percentiles, bounded to
[:data:`MIN_PIPELINE_DEPTH`, :data:`MAX_PIPELINE_DEPTH`].
"""

from __future__ import annotations

import collections
import math
import time
from typing import Any, Deque, List, Optional

#: the adaptive depth never drops below one batch in flight…
MIN_PIPELINE_DEPTH = 1
#: …and never commits more than four to a single worker (beyond that the
#: marginal batch only sits in the worker's queue accruing latency it could
#: have avoided in the shed-able backlog).
MAX_PIPELINE_DEPTH = 4
#: starting depth (one computing + one parked) until measurements arrive.
DEFAULT_PIPELINE_DEPTH = 2


def ring_slots(max_depth: int = MAX_PIPELINE_DEPTH) -> int:
    """Request/response ring slots needed to sustain ``max_depth`` in flight.

    One slot per in-flight batch, plus two spare: one so a response can be
    leased while every request slot is still occupied, one so a crash retry
    can re-lease before the reclaimed slot's frame is drained.  This is the
    single source of truth for auto ring sizing — the pool must size rings
    for the *maximum* depth the controller may reach, not the default, or
    dispatch stalls on RingFull exactly when the controller ramps up.
    """
    return int(max_depth) + 2


def coalescing_key(request: Any) -> tuple:
    """What must match for two requests to share one batch frame.

    Two requests fuse only when they agree on the stacked tensor's shape
    *and* on their secure configuration: on secure pools ``request.secure``
    is the (protocol, frac_bits, truncation) triple the answer must be
    computed under, and mixing configurations in one frame would execute
    half the batch with the wrong number format.  Float-pool requests all
    carry ``secure=None`` and coalesce purely by shape, exactly as before.
    """
    return (getattr(request, "payload").shape, getattr(request, "secure", None))


class RequestBacklog:
    """FIFO of admitted-but-undispatched requests, with batch cutting.

    Not thread-safe on its own — the pool mutates it under its lock, which
    also makes the FIFO guarantee meaningful (single ordered admitter).
    """

    def __init__(self) -> None:
        self._queue: Deque[Any] = collections.deque()

    def append(self, request: Any) -> None:
        """Admit one request at the back (stamps its enqueue time)."""
        if getattr(request, "t_admit", None) is None:
            request.t_admit = time.perf_counter()
        self._queue.append(request)

    def requeue(self, requests: List[Any]) -> None:
        """Put retried/undispatchable requests back at the *front*, in order.

        Crash retries must not lose their place behind requests that arrived
        after them, or a crashy worker could starve its oldest victims.
        """
        for request in reversed(requests):
            self._queue.appendleft(request)

    def cut(self, max_batch_size: int) -> List[Any]:
        """Remove and return the next batch (up to ``max_batch_size``)."""
        batch: List[Any] = []
        while self._queue and len(batch) < max_batch_size:
            batch.append(self._queue.popleft())
        return batch

    def drain(self) -> List[Any]:
        """Remove and return everything (pool shutdown)."""
        remaining = list(self._queue)
        self._queue.clear()
        return remaining

    def oldest_wait_s(self, now: Optional[float] = None) -> float:
        """Seconds the head request has been waiting (0 when empty)."""
        if not self._queue:
            return 0.0
        now = time.perf_counter() if now is None else now
        return max(now - self._queue[0].t_admit, 0.0)

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def __repr__(self) -> str:
        return f"RequestBacklog({len(self._queue)} pending)"


class PipelineController:
    """Per-worker in-flight depth, tuned from measured stage percentiles.

    The steady-state rule is Little's-law shaped: to keep a worker busy
    while a batch crosses the transport, the pool needs
    ``1 + ceil(transport_p95 / compute_p50)`` batches committed — one
    computing plus enough in the queue to cover the hand-off gap.  Two
    guard rails temper it:

    * **cold start** — below :attr:`MIN_SAMPLES` compute observations the
      controller holds :data:`DEFAULT_PIPELINE_DEPTH`; early percentiles
      are noise.
    * **variance cap** — when ``compute_p99 > 4 x compute_p50`` the service
      times are too erratic for deep commitment (a slow batch would strand
      everything queued behind it on this worker), so the target is capped
      at the default.

    Depth moves at most one step per :meth:`update` (hysteresis: the
    reservoir percentiles drift slowly, and oscillating depth would thrash
    ring occupancy).  ``fixed`` pins the depth and disables adaptation —
    the ``ServeConfig.pipeline_depth`` override.
    """

    #: compute observations required before the controller trusts percentiles
    MIN_SAMPLES = 16

    def __init__(self, stages: Any = None, fixed: int = 0) -> None:
        if fixed and not MIN_PIPELINE_DEPTH <= fixed <= MAX_PIPELINE_DEPTH:
            raise ValueError(
                f"fixed pipeline depth must be in "
                f"[{MIN_PIPELINE_DEPTH}, {MAX_PIPELINE_DEPTH}], got {fixed}")
        self._stages = stages
        self._fixed = int(fixed)
        self.depth = self._fixed or DEFAULT_PIPELINE_DEPTH
        self.raises = 0
        self.lowers = 0

    @property
    def fixed(self) -> bool:
        return bool(self._fixed)

    def update(self) -> int:
        """Re-evaluate the target depth; returns the (possibly new) depth."""
        if self._fixed or self._stages is None:
            return self.depth
        compute = self._stages.stage("compute")
        if compute.count < self.MIN_SAMPLES:
            return self.depth
        compute_p50 = compute.percentile(50)
        if compute_p50 <= 0.0:
            return self.depth
        transport_p95 = self._stages.stage("transport").percentile(95)
        target = 1 + math.ceil(transport_p95 / compute_p50)
        if compute.percentile(99) > 4.0 * compute_p50:
            target = min(target, DEFAULT_PIPELINE_DEPTH)
        target = max(MIN_PIPELINE_DEPTH, min(MAX_PIPELINE_DEPTH, target))
        if target > self.depth:
            self.depth += 1
            self.raises += 1
        elif target < self.depth:
            self.depth -= 1
            self.lowers += 1
        return self.depth

    def __repr__(self) -> str:
        mode = "fixed" if self._fixed else "adaptive"
        return f"PipelineController(depth={self.depth}, {mode})"


class Batch:
    """Parent-side bookkeeping for one dispatched batch frame."""

    __slots__ = ("batch_id", "requests", "slot", "seq", "dispatched_at")

    def __init__(self, batch_id: int, requests: List[Any],
                 slot: Optional[int] = None, seq: Optional[int] = None) -> None:
        self.batch_id = batch_id
        self.requests = requests
        self.slot = slot                  # leased request-ring slot (shm only)
        self.seq = seq
        self.dispatched_at = time.perf_counter()

    def __len__(self) -> int:
        return len(self.requests)

    def __repr__(self) -> str:
        via = "shm" if self.slot is not None else "pipe"
        return f"Batch(#{self.batch_id}, {len(self.requests)} requests, {via})"

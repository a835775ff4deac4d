"""Summary statistics shared by every workload.

Timings are reported as a median plus tails read at the highest standard
percentile that still has at least :data:`MIN_BEYOND` samples beyond it,
so a tail is never read off a handful of points.  Percentiles are
nearest-rank, the estimator the program's own ``GET /stats`` uses, so
every reported value is a latency that actually happened.

Two tails are kept.  ``tail`` chooses among :data:`GATED_PERCENTILES`
(p50, p90) and is the end-to-end metric; ``top`` chooses among
:data:`TAIL_PERCENTILES` (up to p99) and is printed and reported beside
it.  On a shared host, stalls of the virtual CPUs hit around one request
in a hundred, so a p99 swings with the host's load from one identical run
to the next, while the 90th percentile lies below those stalls.

Refused and errored requests count as failed, and as missing every
latency limit (:func:`share_within`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: percentiles a tail may be read at, lowest first.
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0)

#: percentiles the end-to-end tail may be read at.
GATED_PERCENTILES = (50.0, 90.0)

#: samples that must lie strictly beyond a percentile before it is reported.
MIN_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(math.ceil(q * len(sorted_values) / 100.0), 1)
    return sorted_values[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q``-th percentile."""
    return n - max(math.ceil(q * n / 100.0), 1)


def tail_percentile(n: int, candidates: Sequence[float] = TAIL_PERCENTILES) -> float:
    """The highest of ``candidates`` with >= ``MIN_BEYOND`` samples beyond it.

    Falls back to the lowest candidate, the median, when even that has
    fewer than ten samples beyond it (fewer than 21 samples), so the tail
    is never read above what the sample supports.
    """
    best = candidates[0]
    for q in candidates:
        if samples_beyond(n, q) >= MIN_BEYOND:
            best = q
    return best


@dataclass
class Timing:
    """Median and both tails of one latency sample, in milliseconds."""

    count: int
    p50_ms: float
    tail_ms: float
    tail_q: float
    top_ms: float
    top_q: float

    def to_dict(self) -> Dict[str, float]:
        return {"count": self.count, "p50_ms": self.p50_ms,
                "tail_ms": self.tail_ms, "tail_percentile": self.tail_q,
                "top_ms": self.top_ms, "top_percentile": self.top_q}


def timing(values_ms: Sequence[float]) -> Timing:
    """Summarise a latency sample (raises on an empty one)."""
    ordered = sorted(values_ms)
    tail_q = tail_percentile(len(ordered), GATED_PERCENTILES)
    top_q = tail_percentile(len(ordered))
    return Timing(count=len(ordered), p50_ms=nearest_rank(ordered, 50.0),
                  tail_ms=nearest_rank(ordered, tail_q), tail_q=tail_q,
                  top_ms=nearest_rank(ordered, top_q), top_q=top_q)


def median(values: Sequence[float]) -> float:
    """Nearest-rank median (a value that was measured, never an average)."""
    return nearest_rank(sorted(values), 50.0)


#: windows in which the hypervisor took more than this share of the host's
#: CPU time are left out of a windowed reading (see :func:`calm_windows`).
STEAL_LIMIT = 0.03


def median_of_means(groups: Sequence[Sequence[float]]) -> float:
    """Median over the non-empty ``groups`` of each group's mean."""
    means = [sum(group) / len(group) for group in groups if group]
    if not means:
        raise ValueError("median of means of no samples")
    return median(means)


@dataclass
class Windowed:
    """A closed loop read window by window: the median over the kept windows
    of each window's success rate, median and gated tail."""

    windows: int
    kept: int
    throughput_per_s: float
    p50_ms: float
    tail_ms: float
    tail_q: float
    rates_per_s: List[float]
    p50s_ms: List[float]
    steal: List[Optional[float]]

    def to_dict(self) -> Dict[str, object]:
        return {"windows": self.windows, "kept": self.kept,
                "throughput_per_s": self.throughput_per_s, "p50_ms": self.p50_ms,
                "tail_ms": self.tail_ms, "tail_percentile": self.tail_q,
                "rates_per_s": self.rates_per_s, "p50s_ms": self.p50s_ms,
                "steal": self.steal}


def calm_windows(steal: Sequence[Optional[float]], limit: float = STEAL_LIMIT) -> List[int]:
    """Indices of the windows to read, given each window's steal share.

    On a shared virtual machine the hypervisor at times hands the CPUs to
    other guests; the program then runs slower for reasons of its own host,
    not of its code.  Windows where it took more than ``limit`` of the CPU
    time are left out, unless that would leave fewer than half of them:
    then the least-stolen half is read.  A window whose steal is unknown
    (no ``/proc/stat``) counts as calm.
    """
    known = [0.0 if value is None else value for value in steal]
    calm = [i for i, value in enumerate(known) if value <= limit]
    if 2 * len(calm) >= len(known):
        return calm
    least = sorted(range(len(known)), key=lambda i: (known[i], i))[:(len(known) + 1) // 2]
    return sorted(least)


def windowed(spans: Sequence[tuple], seconds: float, window_s: float = 1.0) -> Windowed:
    """Per-window medians of ``(start, events, steal)`` measured spans.

    Each span's ``[start, start + seconds)`` is cut into whole windows of
    ``window_s``; an event ``(end time, latency ms or None)`` falls in the
    window its request ended in, and events outside the span are left out.
    ``steal`` holds each window's steal share (see :func:`calm_windows`,
    which picks the windows read).  A window's rate counts only its
    successes, so a window in which every request failed reads 0 and a
    stall shows as a slow window rather than vanishing.  Taking the median
    over windows keeps a few seconds of a shared host's stalls from moving
    the result.  Latencies come from windows with at least one success.
    """
    per_span = int(seconds // window_s)
    if per_span < 1:
        raise ValueError("a measured span holds no whole window")
    latencies: List[List[float]] = []
    steal: List[Optional[float]] = []
    for start, events, span_steal in spans:
        mine: List[List[float]] = [[] for _ in range(per_span)]
        for end, latency in events:
            index = math.floor((end - start) / window_s)
            if 0 <= index < per_span and latency is not None:
                mine[index].append(latency)
        latencies += mine
        steal += (list(span_steal or ()) + [None] * per_span)[:per_span]
    kept = [latencies[i] for i in calm_windows(steal)]
    timed = [timing(values) for values in kept if values]
    if not timed:
        raise ValueError("no request succeeded in any window")
    rates = [len(values) / window_s for values in latencies]
    return Windowed(windows=len(latencies), kept=len(kept),
                    throughput_per_s=median([len(values) / window_s for values in kept]),
                    p50_ms=median([t.p50_ms for t in timed]),
                    tail_ms=median([t.tail_ms for t in timed]),
                    tail_q=min(t.tail_q for t in timed), rates_per_s=rates,
                    p50s_ms=[t.p50_ms for t in timed], steal=steal)


@dataclass
class Outcomes:
    """Per-request outcomes of one phase: latency if it succeeded, else None."""

    latencies_ms: List[Optional[float]] = field(default_factory=list)

    def add(self, latency_ms: Optional[float]) -> None:
        self.latencies_ms.append(latency_ms)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)

    @property
    def failed(self) -> int:
        return sum(1 for value in self.latencies_ms if value is None)

    @property
    def succeeded(self) -> List[float]:
        return [value for value in self.latencies_ms if value is not None]


def share_within(outcomes: Outcomes, limit_ms: float) -> float:
    """Share of attempted requests that succeeded within ``limit_ms``.

    A failed or refused request misses the limit whatever its latency.
    """
    if outcomes.attempted == 0:
        raise ValueError("no requests attempted")
    hits = sum(1 for value in outcomes.latencies_ms
               if value is not None and value <= limit_ms)
    return hits / outcomes.attempted


def succeeded_share(attempted: int, failed: int) -> float:
    """Succeeded requests over attempted ones."""
    if attempted < 1:
        raise ValueError("no requests attempted")
    return (attempted - failed) / attempted

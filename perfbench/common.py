"""What every workload shares: its inputs, its result record and the run
context recorded beside every result."""

from __future__ import annotations

import os
import platform
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .spans import Tracer

#: set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: the preset every serving and inference workload runs.
PRESET = "smoke"


@dataclass
class RunArgs:
    seed: int
    seconds: float
    tracer: Optional[Tracer]
    root: str

    @property
    def trace(self) -> bool:
        return self.tracer is not None


@dataclass
class Result:
    """What a workload measured.

    ``metrics`` holds the values printed on the result line (end-to-end
    names untraced, the workload's per-layer names traced); ``detail``
    carries sample counts, percentiles and anything else worth keeping in
    the report file.
    """

    metrics: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, Any] = field(default_factory=dict)
    checks: List[Dict[str, Any]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    context: Dict[str, Any] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: Any = None) -> bool:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(check["ok"] for check in self.checks)


def repeat_setup(setup: Callable[[int], Any], keep: Callable[[Any], None],
                 discard: Callable[[Any], None]) -> List[float]:
    """Run ``setup`` :data:`SETUP_REPEATS` times; returns the wall times.

    ``setup(i)`` returns a handle once the first correct answer is in;
    every handle but the last goes to ``discard`` (which tears it down),
    the last to ``keep``.
    """
    times = []
    for index in range(SETUP_REPEATS):
        start = time.perf_counter()
        handle = setup(index)
        times.append(time.perf_counter() - start)
        (keep if index == SETUP_REPEATS - 1 else discard)(handle)
    return times


def pool_layers(after: dict, before: Optional[dict] = None) -> Dict[str, float]:
    """``pool.*`` per-layer metrics from ``WorkerPool.stats()`` snapshots.

    Stage percentiles come from the pool's own latency reservoir; counters
    are differences from ``before`` (totals without it).  ``batch_mean`` is
    completed requests per request-ring lease.
    """
    def counters(snapshot: Optional[dict]) -> Dict[str, float]:
        if snapshot is None:
            return dict.fromkeys(("completed", "leases", "shed", "retried", "respawns",
                                  "inline_dispatches", "assembly_fallbacks"), 0)
        transport = snapshot["transport"]
        return {
            "completed": snapshot["completed"],
            "leases": sum(ring["request"].get("leases", 0)
                          for ring in (transport["rings"] or {}).values()),
            "shed": snapshot["rejected_saturated"] + snapshot["rejected_budget"],
            "retried": snapshot["retried"],
            "respawns": snapshot["respawns"],
            "inline_dispatches": transport["inline_dispatches"],
            "assembly_fallbacks": transport["assembly_fallbacks"],
        }

    now, base = counters(after), counters(before)
    delta = {key: now[key] - base[key] for key in now}
    metrics = {f"pool.{stage}_{q}_ms": after["latency"][stage][f"{q}_ms"]
               for stage in ("queue", "transport", "compute") for q in ("p50", "p99")}
    metrics["pool.batch_mean"] = delta["completed"] / max(delta["leases"], 1)
    metrics.update({f"pool.{key}": delta[key] for key in
                    ("shed", "retried", "respawns", "inline_dispatches", "assembly_fallbacks")})
    return metrics


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0      # Linux reports KiB


def blas_info() -> Dict[str, Any]:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):      # older numpy: no dict mode
        return {"name": "unknown", "version": "unknown"}


def run_context(args: RunArgs) -> Dict[str, Any]:
    """Host and software context; thread variables are recorded, not set."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "blas": blas_info(),
        "thread_env": {key: value for key, value in sorted(os.environ.items())
                       if key.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def cpu_times() -> Optional[List[int]]:
    """The kernel's aggregate CPU time counters, where ``/proc/stat`` exists."""
    try:
        with open("/proc/stat") as handle:
            return [int(value) for value in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(before: Optional[List[int]], after: Optional[List[int]]) -> Optional[float]:
    """Share of CPU time the hypervisor gave other guests between two readings.

    On a shared virtual machine this is what moves timings between
    identical runs, so every report records it.
    """
    if not before or not after or len(before) < 8 or len(after) < 8:
        return None
    delta = [new - old for old, new in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total > 0 else None


def program_env(root: str) -> Dict[str, str]:
    """Environment for a child process that runs the checkout's program."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


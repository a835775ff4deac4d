"""``serve_open``: an in-process ``WorkerPool`` under an open loop.

The smoke preset served by 2 workers at the default ``ServeConfig``.  Set-up
builds the experiment, starts the pool and ends at its first answer; it is
repeated three times.  After :data:`WARMUP_REQUESTS` discarded requests,
one generator thread (:mod:`perfbench.openloop`) offers seeded Poisson
arrivals of distinct single samples at each rate of :data:`LADDER` in turn
(:func:`rung_requests`: at least 1,000 per rung, so each p99 rests on
1,000 samples; the light rung runs longest).  A rung passes the goodput rule when 99% of its
requests answer within 50 ms, timed from their due times, nothing failed
and no backlog was left growing.  A failing rung above the light one is run
once more, so one stall of a shared host does not end the ladder; the
ladder stops at the first rate that fails twice, which lies past the knee.

End to end, ``p50_ms``/``tail_ms`` are the light rung (:data:`LIGHT`,
where the pool is far from saturated) and ``throughput_per_s`` is the
goodput.  The heavy rung (:data:`HEAVY`), where a queue builds and batches
form, is reported per layer.  Pool per-layer numbers come from
``WorkerPool.stats()``: counters as differences over the ladder, stage
percentiles from the pool's own reservoir.

Every 25th answer is compared bit for bit with the in-process compiled
forward of the same seeded model at batch 1.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro.experiment import Experiment, get_preset
from repro.serve import AdmissionRejected, PoolClosed, PoolSaturated, ServeConfig, WorkerPool

from . import openloop, stats
from .common import PRESET, Result, RunArgs, peak_rss_mb, pool_layers, repeat_setup
from .spans import maybe_span

SHAPE = (3, 32, 32)
WORKERS = 2
BANK = 256                  # base samples; each request perturbs one into a new input
LIGHT, HEAVY = 150, 500
LADDER = (150, 300, 500, 550, 600, 650, 700, 750, 800, 850, 900, 1000)
MIN_RUNG_REQUESTS = 1000
ATTEMPTS = 2
WARMUP_REQUESTS = 400
WARMUP_RATE = 200
CHECK_EVERY = 25
REFUSALS = (AdmissionRejected, PoolSaturated, PoolClosed)


def rung_requests(rate: int, seconds: float) -> int:
    """Requests offered at ``rate``: the light rung gets 2,000 at 15 seconds."""
    share = 8 / 9 if rate == LIGHT else 1 / 15
    return max(MIN_RUNG_REQUESTS, round(rate * seconds * share))


def run(args: RunArgs) -> Result:
    result = Result()
    tracer = args.tracer
    rng = np.random.default_rng(args.seed)
    bank = rng.standard_normal((BANK,) + SHAPE).astype(np.float32)
    config = ServeConfig(workers=WORKERS)
    pool_start_s: List[float] = []

    def sample(index: int) -> np.ndarray:
        """Request ``index``'s input: a bank sample with one element made unique."""
        value = bank[index % BANK].copy()
        value[0, 0, 0] = np.float32(index) * np.float32(1e-4)
        return value

    def setup(index: int):
        with maybe_span(tracer, "setup", index):
            experiment = Experiment(get_preset(PRESET))
            model = experiment.build()
            pool = WorkerPool(experiment.spec, state=model.state_dict(), config=config)
            start = time.perf_counter()
            with maybe_span(tracer, "pool.start"):
                pool.start()
            pool_start_s.append(time.perf_counter() - start)
            first = pool.predict(bank[0])
        return pool, first

    kept = []
    setup_times = repeat_setup(setup, kept.append, lambda handle: handle[0].close())
    pool, first = kept[0]
    reference = Experiment(get_preset(PRESET))
    reference.build()
    compiled = reference.compile_inference()
    result.check("first_answer_matches_compiled",
                 np.array_equal(np.asarray(first), compiled(bank[:1])[0]))

    answers: Dict[int, np.ndarray] = {}
    next_index = [0]

    def submit(offset: int):
        return pool.submit(sample(next_index[0] + offset))

    def keep_answer(offset: int, value) -> None:
        index = next_index[0] + offset
        if index % CHECK_EVERY == 0:
            answers[index] = np.array(value, copy=True)

    # End a rung before the pool's watermark refuses work: its backlog grows.
    abort_at = max(8, config.effective_watermark - 8)
    rungs: List[openloop.Rung] = []
    try:
        openloop.run_rung(submit, WARMUP_RATE, WARMUP_REQUESTS, rng, abort_at, REFUSALS)
        next_index[0] += WARMUP_REQUESTS
        before = pool.stats()
        for rate in LADDER:
            count = rung_requests(rate, args.seconds)
            for attempt in range(1 if rate == LIGHT else ATTEMPTS):
                with maybe_span(tracer, f"rung.{rate}"):
                    rung = openloop.run_rung(submit, rate, count, rng, abort_at, REFUSALS,
                                             tracer=tracer, on_result=keep_answer)
                next_index[0] += count
                rungs.append(rung)
                time.sleep(0.05)
                if rung.passed:
                    break
            if not rung.passed:
                break
        snapshot = pool.stats()
    finally:
        pool.close()

    mismatches = sum(1 for index, value in answers.items()
                     if not np.array_equal(value, compiled(sample(index)[None])[0]))
    result.check("served_answers_match_compiled", mismatches == 0 and len(answers) > 0,
                 f"{mismatches} of {len(answers)} sampled answers differ")

    by_rate: Dict[int, openloop.Rung] = {}
    for rung in rungs:                  # the first attempt at each rate
        by_rate.setdefault(rung.rate, rung)
    light = by_rate[LIGHT]
    # On a host too slow to pass the rungs below it, the heavy rung never
    # runs; its per-layer numbers then come from the last rung that did.
    heavy = by_rate.get(HEAVY, rungs[-1])
    result.attempted = sum(rung.outcomes.attempted for rung in rungs)
    result.failed = sum(rung.outcomes.failed for rung in rungs)
    light_timing = stats.timing(light.outcomes.succeeded)
    heavy_timing = stats.timing(heavy.outcomes.succeeded)
    goodput = openloop.goodput(rungs)
    end_to_end = {
        "setup_s": stats.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "succeeded_share": stats.succeeded_share(result.attempted, result.failed),
        "p50_ms": light_timing.p50_ms,
        "tail_ms": light_timing.tail_ms,
        "throughput_per_s": goodput,
    }
    submit_us = sorted(value for rung in rungs for value in rung.submit_us)
    late_ms = sorted(value for rung in rungs for value in rung.late_ms)
    result.detail.update({
        "setup_s": setup_times,
        "pool_start_s": pool_start_s,
        "rungs": [rung.summary() for rung in rungs],
        "heavy_rung_rate": heavy.rate,
        "goodput_rule": f"highest rate with a passing rung at it and every lower rate: "
                        f"{openloop.LIMIT_SHARE:.0%} within {openloop.LIMIT_MS} ms of "
                        f"the due time, nothing failed, no growing backlog",
        "stats_latency": snapshot["latency"],
        "headline": {"what": f"request at {LIGHT}/s, from its due time",
                     **light_timing.to_dict()},
        "samples": {"setup_s": len(setup_times), "p50_ms": light_timing.count,
                    "tail_ms": light_timing.count, "throughput_per_s": len(rungs),
                    "succeeded_share": result.attempted},
    })
    result.context.update({"backend": config.backend, "workers": WORKERS,
                           "batch_sizes": [1], "max_batch_size": config.max_batch_size,
                           "preset": PRESET, "ladder": list(LADDER)})
    if tracer is None:
        result.metrics = end_to_end
        return result

    result.detail["end_to_end_traced"] = end_to_end
    # Layers only this workload measures; BENCHMARK.json lists them once
    # this workload is listed, so until then they live in the report.
    result.detail["unlisted_layers"] = {
        "pool.submit_p50_us": stats.nearest_rank(submit_us, 50.0),
        "pool.submit_p99_us": stats.nearest_rank(submit_us, 99.0),
        "loadgen.late_p99_ms": stats.nearest_rank(late_ms, 99.0),
        "loadgen.heavy_p50_ms": heavy_timing.p50_ms,
        "loadgen.heavy_tail_ms": heavy_timing.tail_ms,
    }
    traced = stats.timing(light.traced_ms)
    untraced = stats.timing(light.untraced_ms)
    result.metrics = {
        "pool.start_s": stats.median(pool_start_s),
        **pool_layers(snapshot, before),
        "overhead.p50_ms": traced.p50_ms - untraced.p50_ms,
        "overhead.tail_ms": traced.tail_ms - untraced.tail_ms,
        "trace.spans": tracer.recorded,
    }
    return result

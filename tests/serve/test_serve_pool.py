"""WorkerPool behaviour: dispatch, bit-identity, crashes, backpressure, drain."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.serve import (
    PoolClosed,
    PoolSaturated,
    ServeConfig,
    WorkerCrashed,
    WorkerPool,
)


def wait_until(predicate, timeout: float = 15.0, interval: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture(scope="module")
def pool(smoke):
    """One 2-worker pool shared by the happy-path tests (startup is ~2 s)."""
    config = ServeConfig(workers=2, startup_timeout=120.0)
    with WorkerPool(smoke.spec, state=smoke.state, config=config) as running:
        yield running


class TestPoolServing:
    def test_outputs_are_bit_identical_to_the_single_process_predictor(self, pool, smoke):
        for sample, expected in zip(smoke.samples, smoke.expected):
            out = pool.predict(sample, timeout=60.0)
            assert out.dtype == expected.dtype
            assert np.array_equal(out, expected)

    def test_submit_returns_futures_that_resolve(self, pool, smoke):
        futures = [pool.submit(sample) for sample in smoke.samples]
        outputs = [future.result(timeout=60.0) for future in futures]
        # Concurrent submissions get coalesced into worker micro-batches, so
        # (as documented on BatchedPredictor) the answers may differ from the
        # batch-of-1 reference by BLAS float associativity — not bit-exact,
        # but tight.  Sequential requests (the test above) stay bit-identical.
        for out, expected in zip(outputs, smoke.expected):
            np.testing.assert_allclose(out, expected, rtol=1e-5)
        assert all(future.done() for future in futures)

    def test_dispatch_spreads_across_workers(self, pool, smoke):
        for _ in range(3):
            for sample in smoke.samples:
                pool.predict(sample, timeout=60.0)
        served = [worker["served"] for worker in pool.stats()["workers"]]
        # Least-loaded + round-robin tie-breaking: nobody is starved.
        assert all(count > 0 for count in served), served

    def test_stats_counters_are_consistent(self, pool, smoke):
        stats = pool.stats()
        assert stats["completed"] + stats["failed"] + stats["in_flight"] \
            == stats["submitted"]
        assert stats["accepting"] is True
        assert len(stats["workers"]) == 2

    def test_submit_before_start_raises(self, smoke):
        unstarted = WorkerPool(smoke.spec, state=smoke.state,
                               config=ServeConfig(workers=1))
        with pytest.raises(PoolClosed, match="not started"):
            unstarted.submit(smoke.samples[0])


class TestPoolFailureModes:
    def test_idle_worker_crash_is_respawned_and_serving_continues(self, smoke):
        config = ServeConfig(workers=1, startup_timeout=120.0)
        with WorkerPool(smoke.spec, state=smoke.state, config=config) as pool:
            first = pool.predict(smoke.samples[0], timeout=60.0)
            pool._workers[0].process.kill()
            assert wait_until(lambda: pool.stats()["respawns"] >= 1), pool.stats()
            assert wait_until(lambda: pool.alive_workers() == 1)
            again = pool.predict(smoke.samples[0], timeout=60.0)
            assert np.array_equal(first, again)
            generations = [w["generation"] for w in pool.stats()["workers"]]
            assert generations == [1]

    def test_in_flight_request_is_retried_on_the_respawned_worker(self, smoke):
        config = ServeConfig(workers=1, max_retries=1, startup_timeout=120.0)
        with WorkerPool(smoke.spec, state=smoke.state, config=config) as pool:
            future = pool.submit(smoke.samples[0])
            victim = pool._workers[0]
            assert future in [r.future for r in victim.in_flight.values()] or future.done()
            victim.process.kill()
            # The dispatcher must respawn the worker and replay the request —
            # the caller sees a normal (bit-identical) answer, just later.
            out = future.result(timeout=90.0)
            assert np.array_equal(out, smoke.expected[0])
            stats = pool.stats()
            assert stats["respawns"] >= 1
            # retried may be 0 in the rare case the answer raced the kill.
            assert stats["retried"] in (0, 1)

    def test_crash_without_retries_surfaces_worker_crashed(self, smoke, park_worker):
        config = ServeConfig(workers=1, max_retries=0, startup_timeout=120.0)
        with WorkerPool(smoke.spec, state=smoke.state, config=config) as pool:
            future = park_worker(pool, 30.0)     # parked on the worker
            pool._workers[0].process.kill()
            with pytest.raises(WorkerCrashed, match="died with this request"):
                future.result(timeout=60.0)
            assert pool.stats()["failed"] >= 1

    def test_saturated_pool_sheds_load_at_the_watermark(self, smoke, park_worker):
        config = ServeConfig(workers=1, watermark=2, startup_timeout=120.0)
        with WorkerPool(smoke.spec, state=smoke.state, config=config) as pool:
            blocker = park_worker(pool, 1.0)         # occupies the lone worker
            queued = pool.submit(smoke.samples[0])   # waits behind it
            with pytest.raises(PoolSaturated, match="watermark"):
                pool.submit(smoke.samples[1])        # third: over the watermark
            assert pool.stats()["rejected_saturated"] == 1
            # Shedding is temporary: the backlog drains and service resumes.
            assert blocker.result(timeout=60.0) is None
            assert np.array_equal(queued.result(timeout=60.0), smoke.expected[0])
            assert np.array_equal(pool.predict(smoke.samples[1], timeout=60.0),
                                  smoke.expected[1])

    def test_drain_stops_admissions_but_finishes_in_flight_work(self, smoke):
        config = ServeConfig(workers=1, startup_timeout=120.0)
        with WorkerPool(smoke.spec, state=smoke.state, config=config) as pool:
            future = pool.submit(smoke.samples[0])
            assert pool.drain(timeout=60.0) is True
            assert future.done()
            with pytest.raises(PoolClosed, match="draining"):
                pool.submit(smoke.samples[1])

    def test_deterministic_startup_crash_does_not_spawn_storm(self, smoke):
        # A worker that can never come up (here: unknown model name) must be
        # given up on after MAX_EARLY_CRASHES respawns, and start() must fail
        # with a readable error instead of burning the whole startup timeout.
        from repro.serve.pool import MAX_EARLY_CRASHES

        broken = smoke.spec.to_dict()
        broken["model"] = dict(broken["model"], name="definitely_not_a_model")
        pool = WorkerPool(broken, config=ServeConfig(workers=1, startup_timeout=120.0))
        with pytest.raises(RuntimeError, match="keeps crashing during startup"):
            pool.start()
        assert pool._early_crashes[0] >= MAX_EARLY_CRASHES
        assert pool.respawns <= MAX_EARLY_CRASHES     # bounded, not a storm
        pool.close()

    def test_close_is_idempotent_and_rejects_stragglers(self, smoke):
        config = ServeConfig(workers=1, startup_timeout=120.0)
        pool = WorkerPool(smoke.spec, state=smoke.state, config=config).start()
        pool.predict(smoke.samples[0], timeout=60.0)
        pool.close()
        pool.close()
        with pytest.raises(PoolClosed):
            pool.submit(smoke.samples[0])

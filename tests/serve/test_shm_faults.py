"""Fault injection for the zero-copy data plane.

The claim under test (ISSUE 7 tentpole): a SIGKILLed worker can neither leak
nor corrupt a shared-memory segment — its leased slots are reclaimed, its
orphaned requests are retried on the respawned worker, and every answer the
caller finally sees is bit-identical to the single-process reference (and to
the pickle-everything ``pipe`` transport, which is kept around precisely to
be this test's control group).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.serve import ServeConfig, WorkerPool
from repro.serve.shm import ShmRing


def wait_until(predicate, timeout: float = 30.0, interval: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestKillWithLeasedSlots:
    def test_sigkill_mid_batch_reclaims_slots_and_retries_requests(self, smoke,
                                                                  park_worker):
        config = ServeConfig(workers=1, transport="shm", max_retries=1,
                             startup_timeout=120.0)
        with WorkerPool(smoke.spec, state=smoke.state, config=config) as pool:
            rings = pool._rings[0]
            # Park the worker on a sleep, then pile a batch behind it: the
            # batch frame is written into a leased request-ring slot that the
            # sleeping worker will never release on its own.
            blocker = park_worker(pool, 1.0)
            futures = [pool.submit(sample) for sample in smoke.samples[:4]]
            assert wait_until(lambda: rings.request.leased_slots()), \
                "batch frame should be parked in a leased slot"
            pool._workers[0].process.kill()

            # Every orphan resolves through the respawned worker, bit-exact.
            assert blocker.result(timeout=120.0) is None
            outputs = [future.result(timeout=120.0) for future in futures]
            for out, expected in zip(outputs, smoke.expected[:4]):
                assert np.array_equal(out, expected)

            stats = pool.stats()
            assert stats["respawns"] >= 1
            assert stats["retried"] >= 1
            # The dead generation's slots were reclaimed, not leaked: the
            # ring drains back to empty once the retries complete.
            assert wait_until(lambda: not rings.request.leased_slots())
            assert wait_until(lambda: not rings.response.leased_slots())
            assert rings.request.stats()["reclaimed"] >= 1

    def test_rings_survive_respawn_without_reallocation(self, smoke):
        config = ServeConfig(workers=1, transport="shm", startup_timeout=120.0)
        with WorkerPool(smoke.spec, state=smoke.state, config=config) as pool:
            names_before = (pool._rings[0].request.name,
                            pool._rings[0].response.name)
            first = pool.predict(smoke.samples[0], timeout=60.0)
            pool._workers[0].process.kill()
            assert wait_until(lambda: pool.stats()["respawns"] >= 1)
            assert wait_until(lambda: pool.alive_workers() == 1)
            again = pool.predict(smoke.samples[0], timeout=60.0)
            assert np.array_equal(first, again)
            # Same segments, new worker generation: a crash costs a header
            # scan, not two segment allocations.
            assert (pool._rings[0].request.name,
                    pool._rings[0].response.name) == names_before

    def test_close_unlinks_every_segment(self, smoke):
        config = ServeConfig(workers=1, transport="shm", startup_timeout=120.0)
        pool = WorkerPool(smoke.spec, state=smoke.state, config=config).start()
        names = [pool._rings[0].request.name, pool._rings[0].response.name]
        pool.predict(smoke.samples[0], timeout=60.0)
        pool.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                ShmRing(2, 1024, name=name, create=False, unregister=False)


class TestTransportEquivalence:
    """shm and pipe must be indistinguishable to callers, bit for bit."""

    @pytest.fixture(scope="class", params=["shm", "pipe"])
    def transport_outputs(self, request, smoke):
        config = ServeConfig(workers=2, transport=request.param,
                             startup_timeout=120.0)
        with WorkerPool(smoke.spec, state=smoke.state, config=config) as pool:
            # Submit everything at once so the continuous batcher actually
            # coalesces — the adversarial case for bit-identity.
            futures = [pool.submit(sample) for sample in smoke.samples]
            outputs = [future.result(timeout=120.0) for future in futures]
            stats = pool.stats()
        return request.param, outputs, stats

    def test_outputs_match_the_batch_of_1_reference(self, transport_outputs, smoke):
        transport, outputs, _ = transport_outputs
        for out, expected in zip(outputs, smoke.expected):
            assert np.array_equal(out, expected), \
                f"{transport} transport drifted from the reference"

    def test_transport_stats_reflect_the_configured_path(self, transport_outputs):
        transport, _, stats = transport_outputs
        assert stats["transport"]["kind"] == transport
        if transport == "shm":
            ring_stats = stats["transport"]["rings"]
            assert ring_stats is not None
            total_leases = sum(worker["request"]["leases"]
                               for worker in ring_stats.values())
            assert total_leases >= 1             # tensors really took the rings
        else:
            assert stats["transport"]["rings"] is None


class TestFusedBatching:
    def test_fused_mode_is_close_but_fast_path_is_exact(self, smoke):
        config = ServeConfig(workers=1, fused_batching=True,
                             startup_timeout=120.0)
        with WorkerPool(smoke.spec, state=smoke.state, config=config) as pool:
            futures = [pool.submit(sample) for sample in smoke.samples]
            outputs = [future.result(timeout=120.0) for future in futures]
        # Fused batches trade bit-identity for one big forward: answers are
        # allclose (BLAS associativity), not guaranteed bit-equal.
        for out, expected in zip(outputs, smoke.expected):
            np.testing.assert_allclose(out, expected, rtol=1e-5)

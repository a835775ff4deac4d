"""Latency-budget admission control: the EWMA gate and its HTTP face (429)."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serve import (
    AdmissionController,
    AdmissionRejected,
    ServeConfig,
    ServingApp,
    ServingServer,
)


class TestAdmissionController:
    def test_budget_zero_disables_the_gate(self):
        controller = AdmissionController(0.0)
        assert controller.enabled is False
        controller.observe(10_000.0)
        decision = controller.decide(queued=10_000, workers=1)
        assert decision.admitted is True

    def test_admits_unconditionally_before_any_observation(self):
        controller = AdmissionController(1.0)
        assert controller.decide(queued=10_000, workers=1).admitted is True

    def test_ewma_converges_on_the_service_time(self):
        controller = AdmissionController(50.0, alpha=0.2)
        controller.observe(100.0)
        assert controller.service_ms == 100.0            # first sample seeds
        controller.observe(50.0)
        assert controller.service_ms == pytest.approx(90.0)  # 100 + .2*(50-100)
        for _ in range(100):
            controller.observe(50.0)
        assert controller.service_ms == pytest.approx(50.0, rel=0.01)

    def test_non_finite_and_negative_observations_are_ignored(self):
        controller = AdmissionController(50.0)
        controller.observe(float("nan"))
        controller.observe(float("inf"))
        controller.observe(-1.0)
        assert controller.service_ms is None
        assert controller.observations == 0

    def test_littles_law_wait_estimate(self):
        controller = AdmissionController(50.0)
        controller.observe(10.0)
        assert controller.estimated_wait_ms(queued=8, workers=2) == pytest.approx(40.0)
        assert controller.estimated_wait_ms(queued=0, workers=2) == 0.0

    def test_rejects_once_the_estimate_exceeds_the_budget(self):
        controller = AdmissionController(budget_ms=20.0)
        controller.observe(10.0)
        assert controller.decide(queued=2, workers=1).admitted is True   # 20 <= 20
        decision = controller.decide(queued=3, workers=1)                # 30 > 20
        assert decision.admitted is False
        assert decision.estimated_wait_ms == pytest.approx(30.0)
        assert decision.retry_after_s == 1       # ceil((30-20)/1000) floored at 1s
        stats = controller.stats()
        assert stats["admitted"] == 1 and stats["rejected"] == 1

    def test_retry_after_scales_with_the_excess_backlog(self):
        controller = AdmissionController(budget_ms=100.0)
        controller.observe(1000.0)
        decision = controller.decide(queued=5, workers=1)    # 5000ms est
        assert decision.admitted is False
        assert decision.retry_after_s == 5       # ceil((5000-100)/1000)

    def test_reject_builds_a_carrying_exception(self):
        controller = AdmissionController(10.0)
        controller.observe(100.0)
        decision = controller.decide(queued=5, workers=1)
        error = controller.reject(decision)
        assert isinstance(error, AdmissionRejected)
        assert error.estimated_wait_ms == decision.estimated_wait_ms
        assert error.budget_ms == 10.0
        assert error.retry_after_s == decision.retry_after_s
        assert "latency budget" in str(error)

    def test_invalid_construction_raises(self):
        with pytest.raises(ValueError):
            AdmissionController(-1.0)
        with pytest.raises(ValueError):
            AdmissionController(10.0, alpha=0.0)


class StubPool:
    """Raises AdmissionRejected like an over-budget pool would."""

    def __init__(self):
        self.config = ServeConfig(workers=1, latency_budget_ms=25.0)
        self.accepting = True

    def predict(self, sample, timeout=None):
        raise AdmissionRejected("estimated queue wait 80.0 ms exceeds the "
                                "latency budget 25.0 ms; retry in 1s",
                                estimated_wait_ms=80.0, budget_ms=25.0,
                                retry_after_s=1)

    def alive_workers(self):
        return 1

    def stats(self):
        return {}


class TestAppLevel429:
    def test_over_budget_predict_is_429_with_retry_hint(self):
        app = ServingApp(StubPool(), (3, 32, 32))
        sample = np.ones((3, 32, 32), dtype=np.float32)
        status, body = app.predict_payload({"input": sample.tolist()})
        assert status == 429
        assert body["retry_after_s"] == 1
        assert body["estimated_wait_ms"] == 80.0
        assert body["budget_ms"] == 25.0
        assert "latency budget" in body["error"]

    def test_healthz_is_unaffected_by_budget_pressure(self):
        app = ServingApp(StubPool(), (3, 32, 32))
        status, body = app.healthz()
        assert status == 200 and body["status"] == "ok"   # busy is not broken


# --------------------------------------------------------------------------- #
# Integration: a real server with a (near-impossible) latency budget
# --------------------------------------------------------------------------- #

class TestAdmissionOverHTTP:
    def test_429_with_retry_after_header_and_green_healthz(self, smoke, park_worker):
        # A 0.01 ms budget rejects the moment anything is queued and the EWMA
        # has one observation — deterministic without timing games.  Cache off
        # so every request reaches the pool.
        config = ServeConfig(workers=1, port=0, cache_size=0,
                             latency_budget_ms=0.01, startup_timeout=120.0)
        with ServingServer(smoke.spec, state=smoke.state, config=config) as server:
            payload = json.dumps({"input": smoke.samples[0].tolist()}).encode()

            def post():
                request = urllib.request.Request(
                    f"{server.url}/predict", data=payload,
                    headers={"Content-Type": "application/json"}, method="POST")
                try:
                    with urllib.request.urlopen(request, timeout=60) as response:
                        return response.status, dict(response.headers), \
                            json.loads(response.read())
                except urllib.error.HTTPError as error:
                    return error.code, dict(error.headers), json.loads(error.read())

            status, _, _ = post()                # seeds the service-time EWMA
            assert status == 200
            blocker = park_worker(server.pool, 1.0)   # one queued request
            status, headers, body = post()
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert body["retry_after_s"] >= 1
            assert body["budget_ms"] == 0.01
            # Over-budget is busy, not broken: health stays green and the
            # rejection is visible in the stats counters.
            health_status, health = json.loads(urllib.request.urlopen(
                f"{server.url}/healthz", timeout=30).read()), None
            assert health_status["status"] == "ok"
            stats = json.loads(urllib.request.urlopen(
                f"{server.url}/stats", timeout=30).read())
            assert stats["pool"]["rejected_budget"] >= 1
            assert stats["pool"]["admission"]["enabled"] is True
            assert stats["pool"]["admission"]["rejected"] >= 1
            assert stats["serving"]["endpoints"]["/predict"]["shed"] >= 1
            assert blocker.result(timeout=60.0) is None

    def test_budget_disabled_by_default_never_429s(self, smoke):
        config = ServeConfig(workers=1, port=0, cache_size=0,
                             startup_timeout=120.0)
        with ServingServer(smoke.spec, state=smoke.state, config=config) as server:
            app = server.app
            for sample in smoke.samples[:3]:
                status, _ = app.predict_payload({"input": sample.tolist()})
                assert status == 200
            assert server.pool.stats()["rejected_budget"] == 0

"""The worker-side build path, exercised in-process (no subprocess needed)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve.worker import REQUEST_KINDS, build_serving_predictor, execute_request


class TestBuildServingPredictor:
    def test_rebuilt_worker_matches_parent_bit_for_bit(self, smoke):
        """Spec dict + state dict over "IPC" → identical predictions."""
        predictor = build_serving_predictor(
            smoke.spec.to_dict(), dict(smoke.state), max_batch_size=1, max_wait=0.0)
        try:
            for sample, expected in zip(smoke.samples, smoke.expected):
                out = predictor.predict(sample, timeout=30.0)
                assert np.array_equal(out, expected)
        finally:
            predictor.close()

    def test_without_state_the_worker_serves_the_seeded_build(self, smoke):
        predictor = build_serving_predictor(
            smoke.spec.to_dict(), {}, max_batch_size=1, max_wait=0.0)
        try:
            out = predictor.predict(smoke.samples[0], timeout=30.0)
            # The smoke spec builds deterministically from its seed, and the
            # parent model was never trained, so even the no-state path agrees.
            assert np.array_equal(out, smoke.expected[0])
        finally:
            predictor.close()


class TestExecuteRequest:
    def test_sleep_returns_none(self):
        assert execute_request("sleep", 0.0) is None

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown request kind"):
            execute_request("transmogrify", None)
        assert REQUEST_KINDS == ("batch", "sleep")

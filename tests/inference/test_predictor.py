"""Micro-batching BatchedPredictor behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.experiment import Experiment, get_preset
from repro.inference import BatchedPredictor, compile_model
from repro.utils import seed_everything


def small_model() -> nn.Sequential:
    seed_everything(0)
    return nn.Sequential(nn.Flatten(), nn.Linear(12, 8), nn.ReLU(), nn.Linear(8, 3))


def samples(count: int, shape=(3, 2, 2)) -> np.ndarray:
    rng = np.random.default_rng(3)
    return rng.standard_normal((count,) + shape).astype(np.float32)


class TestBatchedPredictor:
    def test_predict_matches_direct_compiled_forward(self):
        model = small_model()
        compiled = compile_model(model)
        with BatchedPredictor(compiled, max_batch_size=4) as predictor:
            batch = samples(1)
            out = predictor.predict(batch[0])
        np.testing.assert_array_equal(out, compiled(batch)[0])

    def test_submissions_are_coalesced_into_micro_batches(self):
        model = small_model()
        predictor = BatchedPredictor(model, max_batch_size=4, max_wait=0.05,
                                     autostart=False)
        batch = samples(10)
        handles = [predictor.submit(sample) for sample in batch]
        predictor.start()
        outputs = np.stack([handle.result(timeout=10.0) for handle in handles])
        predictor.close()

        direct = predictor.compiled(batch)
        np.testing.assert_allclose(outputs, direct, atol=1e-6, rtol=1e-5)
        stats = predictor.stats
        assert stats.requests == 10
        assert stats.batches < stats.requests          # batching happened
        assert stats.max_batch_size_seen <= 4
        assert stats.batched_samples == 10
        assert stats.mean_batch_size > 1.0

    def test_results_keep_request_order_identity(self):
        # Distinct inputs must map to their own outputs even when coalesced.
        model = small_model()
        predictor = BatchedPredictor(model, max_batch_size=8, max_wait=0.05,
                                     autostart=False)
        batch = samples(6)
        handles = [predictor.submit(sample) for sample in batch]
        predictor.start()
        outputs = [handle.result(timeout=10.0) for handle in handles]
        predictor.close()
        for sample, out in zip(batch, outputs):
            np.testing.assert_allclose(out, predictor.compiled(sample[None])[0],
                                       atol=1e-6, rtol=1e-5)

    def test_predict_batch_chunks_by_max_batch_size(self):
        model = small_model()
        predictor = BatchedPredictor(model, max_batch_size=4)
        batch = samples(9)
        out = predictor.predict_batch(batch)
        assert out.shape == (9, 3)
        assert list(predictor.stats.batch_sizes) == [4, 4, 1]
        predictor.close()

    def test_worker_errors_propagate_to_the_caller(self):
        model = small_model()
        with BatchedPredictor(model, max_batch_size=2) as predictor:
            bad = np.zeros((5,), dtype=np.float32)  # wrong feature count
            with pytest.raises(Exception):
                predictor.predict(bad, timeout=10.0)

    def test_submit_after_close_raises(self):
        predictor = BatchedPredictor(small_model())
        predictor.close()
        with pytest.raises(RuntimeError, match="shut down"):
            predictor.submit(samples(1)[0])

    def test_close_is_idempotent(self):
        predictor = BatchedPredictor(small_model())
        predictor.predict(samples(1)[0])
        predictor.close()
        predictor.close()

    def test_close_rejects_samples_the_worker_never_served(self):
        # Worker intentionally never started: queued handles must fail fast
        # instead of blocking until their timeout.
        predictor = BatchedPredictor(small_model(), autostart=False)
        handle = predictor.submit(samples(1)[0])
        predictor.close()
        with pytest.raises(RuntimeError, match="closed"):
            handle.result(timeout=5.0)

    def test_start_after_close_raises(self):
        predictor = BatchedPredictor(small_model(), autostart=False)
        predictor.close()
        with pytest.raises(RuntimeError, match="shut down"):
            predictor.start()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            BatchedPredictor(small_model(), max_batch_size=0)
        with pytest.raises(ValueError):
            BatchedPredictor(small_model(), max_wait=-1.0)


class TestShutdownRobustness:
    """Shutdown semantics hardened for the repro.serve pool integration."""

    def test_shutdown_is_an_idempotent_alias_of_close(self):
        predictor = BatchedPredictor(small_model())
        predictor.predict(samples(1)[0])
        predictor.close()
        predictor.close()          # double close must be a no-op

    def test_submit_after_shutdown_raises_a_clear_error(self):
        predictor = BatchedPredictor(small_model())
        predictor.predict(samples(1)[0])
        predictor.close()
        with pytest.raises(RuntimeError, match="create a new BatchedPredictor"):
            predictor.submit(samples(1)[0])
        # A second violation gets the same clear answer, not a hang.
        with pytest.raises(RuntimeError, match="create a new BatchedPredictor"):
            predictor.submit(samples(1)[0])

    def test_worker_thread_is_daemonized(self):
        predictor = BatchedPredictor(small_model())
        predictor.predict(samples(1)[0])
        assert predictor._worker is not None and predictor._worker.daemon
        predictor.close()

    def test_abandoned_predictor_does_not_hang_interpreter_exit(self):
        # A predictor that was never closed must not keep the interpreter
        # alive: its worker is a daemon thread.  Run a real interpreter so we
        # observe actual process exit, with a hard timeout as the failure mode.
        import subprocess
        import sys

        script = (
            "import numpy as np\n"
            "from repro import nn\n"
            "from repro.inference import BatchedPredictor\n"
            "model = nn.Sequential(nn.Flatten(), nn.Linear(12, 8))\n"
            "predictor = BatchedPredictor(model, max_batch_size=4)\n"
            "out = predictor.predict(np.zeros((3, 2, 2), dtype=np.float32))\n"
            "assert out.shape == (8,)\n"
            "print('served-without-close')\n"   # predictor deliberately abandoned
        )
        result = subprocess.run([sys.executable, "-c", script], timeout=60,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert "served-without-close" in result.stdout


class TestBatchDependenceWarning:
    def test_micro_batching_a_batch_stat_model_warns(self):
        model = nn.Sequential(nn.Flatten(), nn.Linear(12, 8),
                              nn.BatchNorm1d(8, track_running_stats=False))
        with pytest.warns(RuntimeWarning, match="batch statistics"):
            predictor = BatchedPredictor(model, max_batch_size=4)
        predictor.close()

    def test_max_batch_size_one_does_not_warn(self):
        import warnings

        model = nn.Sequential(nn.Flatten(), nn.Linear(12, 8),
                              nn.BatchNorm1d(8, track_running_stats=False))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            predictor = BatchedPredictor(model, max_batch_size=1)
        predictor.close()


class TestMeasureServing:
    def test_shared_measurement_pipeline(self):
        from repro.inference import compile_model, measure_serving

        model = small_model()
        model.eval()
        compiled = compile_model(model)
        results = measure_serving(model, compiled, samples(6),
                                  max_batch_size=4, max_wait=0.01, repeats=1)
        assert results["max_abs_diff"] == 0.0       # bit-exact on this model
        assert results["fallback_modules"] == 0
        assert results["eager_ms_per_sample"] > 0
        assert results["compiled_ms_per_sample"] > 0
        assert results["samples"] == 6
        assert results["batches"] >= 2              # 6 samples, cap 4
        assert results["throughput_samples_per_s"] > 0

    def test_measure_serving_forces_and_restores_eval_semantics(self):
        from repro.inference import compile_model, measure_serving

        model = nn.Sequential(nn.Flatten(), nn.Linear(12, 8), nn.BatchNorm1d(8))
        model.train(True)
        bn = model[2]
        mean_before = bn.running_mean.copy()
        results = measure_serving(model, compile_model(model), samples(4),
                                  max_batch_size=2, repeats=1)
        np.testing.assert_array_equal(bn.running_mean, mean_before)
        assert model.training                       # restored
        assert results["max_abs_diff"] == 0.0       # compared in eval mode

    def test_max_abs_diff_treats_matching_nonfinite_as_agreement(self):
        from repro.inference import max_abs_diff

        a = np.array([1.0, np.inf, np.nan, -np.inf], dtype=np.float32)
        assert max_abs_diff(a, a.copy()) == 0.0
        b = np.array([1.0, np.inf, 0.0, -np.inf], dtype=np.float32)
        assert np.isnan(max_abs_diff(a, b))         # NaN vs finite surfaces
        c = np.array([1.5, np.inf, np.nan, -np.inf], dtype=np.float32)
        assert max_abs_diff(a, c) == 0.5


class TestExperimentIntegration:
    def test_experiment_predictor_and_compile_inference(self):
        experiment = Experiment(get_preset("smoke"))
        model = experiment.build()
        compiled = experiment.compile_inference()
        assert experiment.results["compile"]["steps"] == compiled.num_steps
        assert experiment.results["compile"]["fallback_modules"] == 0

        rng = np.random.default_rng(0)
        batch = rng.standard_normal((3, 3, 32, 32)).astype(np.float32)
        with experiment.predictor(max_batch_size=4, max_wait=0.01) as predictor:
            out = predictor.predict(batch[0], timeout=30.0)
        np.testing.assert_allclose(out, compiled(batch[:1])[0], atol=0, rtol=1e-5)

"""Shared fixtures for the scale-out serving tests.

Worker processes are the expensive part of this suite (each spawn re-imports
the library and compiles the model), so anything processes-backed is scoped
as widely as isolation allows and every test model is the tiny ``smoke``
preset (quadratic VGG-8 at 1/8 width).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiment import Experiment, get_preset


class SmokeSetup:
    """The smoke experiment, its weights, and reference predictor outputs."""

    def __init__(self) -> None:
        self.experiment = Experiment(get_preset("smoke"))
        self.model = self.experiment.build()
        self.model.eval()
        self.state = self.model.state_dict()
        self.spec = self.experiment.spec
        rng = np.random.default_rng(7)
        self.samples = rng.standard_normal(
            (6,) + tuple(self.spec.data.input_shape)).astype(np.float32)
        # Reference outputs from the single-process path, strict batch-of-1
        # so sequential pool requests compare bit for bit.
        with self.experiment.predictor(max_batch_size=1) as predictor:
            self.expected = [predictor.predict(sample) for sample in self.samples]


@pytest.fixture(scope="session")
def smoke():
    return SmokeSetup()


def _park_worker(pool, seconds: float):
    """Occupy one worker of ``pool`` for ``seconds`` with the worker's
    ``sleep`` frame, which bypasses the batcher to pin a specific worker.
    Returns the request's future (resolves to ``None``)."""
    return pool._submit("sleep", float(seconds))


@pytest.fixture
def park_worker():
    """``park_worker(pool, seconds)``: real in-flight work for drain,
    shedding and crash tests."""
    return _park_worker

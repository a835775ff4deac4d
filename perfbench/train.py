"""``train``: ``Experiment.fit`` on the ``vgg8-quadratic`` preset.

The paper's neuron in VGG-8 at width 0.5, batch 32, on the preset's
synthetic CIFAR-shaped data generated from ``--seed`` (the model's own
initialisation stays the preset's), trained exactly as the preset says
(its epochs, learning rate and schedule).  Set-up runs from
constructing the experiment to the end of the first training step; it is
repeated three times, the first two fits abandoned after that step.  The
third fit runs to the end, and further whole fits of the same spec follow
until ``--seconds`` have passed since its first step.  The first
:data:`WARMUP_STEPS` steps of every fit are discarded.

Engine callbacks time each step (batch begin to end), the data wait
(batch end to the next batch begin within an epoch) and the evaluation
(last batch end to ``on_eval``).  The traced run also wraps
``model.forward`` and the adapter's ``optimizer.step`` on even-numbered
steps; backward is the step minus those two.

Correctness: every step's loss is finite, and in every fit the median
step loss of the last epoch is below the loss of the first step.  The
median, because the quadratic network's loss can spike for a single step
and recover, which would swing an epoch mean past the first step's loss
with training otherwise working.
"""

from __future__ import annotations

import math
import time
from typing import List, Optional

from repro.engine.callbacks import Callback
from repro.experiment import Experiment, ExperimentSpec, get_preset

from . import stats
from .common import Result, RunArgs, SETUP_REPEATS, peak_rss_mb

PRESET = "vgg8-quadratic"
WARMUP_STEPS = 2


class _SetupDone(Exception):
    """Abandons a set-up fit once its first step has finished."""


def _spec(seed: int) -> ExperimentSpec:
    data = get_preset(PRESET).to_dict()
    data["data"]["seed"] = seed
    return ExperimentSpec.from_dict(data)


class _Clock(Callback):
    """Engine callback recording what one fit did and when."""

    def __init__(self, tracer, stop_after_first: bool) -> None:
        self.tracer = tracer
        self.stop_after_first = stop_after_first
        self.first_step_end: Optional[float] = None
        self.steps: List[dict] = []
        self.data_s: List[float] = []
        self.cycle_s: List[float] = []
        self.eval_s: List[float] = []
        self._begin = self._end = 0.0
        self._frame = None
        self._current: dict = {}

    # -- wrappers installed by the traced run --------------------------------
    def _timed(self, name: str, key: str, original):
        def wrapper(*args, **kwargs):
            if self._frame is None:
                return original(*args, **kwargs)
            frame = self.tracer.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._current[key] = self._current.get(key, 0.0) + self.tracer.end(frame)
        return wrapper

    # -- engine hooks ----------------------------------------------------------
    def on_train_begin(self, trainer) -> None:
        if self.tracer is not None:
            adapter = trainer.adapter
            adapter.model.forward = self._timed("train.forward", "forward_s",
                                                adapter.model.forward)
            adapter.optimizer.step = self._timed("train.optim", "optim_s",
                                                 adapter.optimizer.step)

    def on_batch_begin(self, trainer, epoch: int, batch_index: int) -> None:
        now = time.perf_counter()
        if batch_index > 0:
            self.data_s.append(now - self._end)
            self.cycle_s.append(now - self._begin)
            if self.tracer is not None:
                self.tracer.record("train.data", self._end, now)
        self._current = {"index": len(self.steps), "epoch": epoch}
        if self.tracer is not None and len(self.steps) % 2 == 0:
            self._frame = self.tracer.begin("train.step", len(self.steps))
        self._begin = time.perf_counter()

    def on_batch_end(self, trainer, epoch: int, batch_index: int, metrics) -> None:
        self._end = time.perf_counter()
        step = self._current
        step["step_s"] = self._end - self._begin
        step["loss"] = metrics.get("train_loss", math.nan)
        step["traced"] = self._frame is not None
        if self._frame is not None:
            self.tracer.end(self._frame)
            self._frame = None
        self.steps.append(step)
        if self.first_step_end is None:
            self.first_step_end = self._end
            if self.stop_after_first:
                raise _SetupDone()

    def on_eval(self, trainer, epoch: int, metrics) -> None:
        now = time.perf_counter()
        self.eval_s.append(now - self._end)
        if self.tracer is not None:
            self.tracer.record("train.eval", self._end, now)


def run(args: RunArgs) -> Result:
    result = Result()
    tracer = args.tracer
    setup_times = []
    for index in range(SETUP_REPEATS):
        last = index == SETUP_REPEATS - 1
        clock = _Clock(tracer if last else None, stop_after_first=not last)
        start = time.perf_counter()
        experiment = Experiment(_spec(args.seed))
        try:
            experiment.fit(callbacks=[clock])
        except _SetupDone:
            pass
        setup_times.append(clock.first_step_end - start)
        if tracer is not None:
            tracer.record("setup", start, clock.first_step_end, request_id=index)
    measure_start = clock.first_step_end
    fits = [(clock, experiment.history)]
    while time.perf_counter() - measure_start < args.seconds:
        clock = _Clock(tracer, stop_after_first=False)
        experiment = Experiment(_spec(args.seed))
        experiment.fit(callbacks=[clock])
        fits.append((clock, experiment.history))

    steps, cycle_ms, data_ms, eval_s = [], [], [], []
    for index, (clock, history) in enumerate(fits):
        losses = [step["loss"] for step in clock.steps]
        finite = all(math.isfinite(loss) for loss in losses)
        result.check(f"fit{index}_loss_finite", finite,
                     f"{sum(not math.isfinite(loss) for loss in losses)} non-finite "
                     f"of {len(losses)}")
        last_epoch = stats.median([step["loss"] for step in clock.steps
                                   if step["epoch"] == clock.steps[-1]["epoch"]])
        result.check(f"fit{index}_loss_decreases", finite and last_epoch < losses[0],
                     f"first step {losses[0]:.4f} -> last epoch median {last_epoch:.4f} "
                     f"(highest step {max(losses):.4f})")
        steps += clock.steps[WARMUP_STEPS:]
        cycle_ms += [value * 1000.0 for value in clock.cycle_s[WARMUP_STEPS:]]
        data_ms += [value * 1000.0 for value in clock.data_s]
        eval_s += clock.eval_s
    result.attempted = len(steps)
    result.failed = sum(1 for step in steps if not math.isfinite(step["loss"]))

    step_timing = stats.timing([step["step_s"] * 1000.0 for step in steps])
    batch_size = experiment.spec.train.batch_size
    end_to_end = {
        "setup_s": stats.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "succeeded_share": stats.succeeded_share(result.attempted, result.failed),
        "p50_ms": step_timing.p50_ms,
        "tail_ms": step_timing.tail_ms,
        "throughput_per_s": batch_size * 1000.0 / stats.median(cycle_ms),
    }
    result.detail.update({
        "setup_s": setup_times,
        "fits": len(fits),
        "epoch_loss": [list(history.train_loss) for _, history in fits],
        "throughput_per_s": "batch size / median step-to-step cycle (step + data wait)",
        "headline": {"what": "training step", **step_timing.to_dict()},
        "samples": {"setup_s": len(setup_times), "p50_ms": step_timing.count,
                    "tail_ms": step_timing.count, "throughput_per_s": len(cycle_ms),
                    "succeeded_share": result.attempted},
    })
    result.context.update({"backend": "autodiff", "workers": 0,
                           "batch_sizes": [batch_size], "preset": PRESET})
    if tracer is None:
        result.metrics = end_to_end
        return result

    result.detail["end_to_end_traced"] = end_to_end
    traced = [step for step in steps if step["traced"]]
    untraced = [step["step_s"] * 1000.0 for step in steps if not step["traced"]]
    traced_ms = [step["step_s"] * 1000.0 for step in traced]
    forward = [step.get("forward_s", 0.0) * 1000.0 for step in traced]
    optim = [step.get("optim_s", 0.0) * 1000.0 for step in traced]
    backward = [s - f - o for s, f, o in zip(traced_ms, forward, optim)]
    traced_timing, untraced_timing = stats.timing(traced_ms), stats.timing(untraced)
    result.metrics = {
        "train.step_p50_ms": step_timing.p50_ms,
        "train.step_tail_ms": step_timing.tail_ms,
        "train.forward_p50_ms": stats.median(forward),
        "train.backward_p50_ms": stats.median(backward),
        "train.optim_p50_ms": stats.median(optim),
        "train.data_p50_ms": stats.median(data_ms),
        "train.eval_s": stats.median(eval_s),
        "overhead.p50_ms": traced_timing.p50_ms - untraced_timing.p50_ms,
        "overhead.tail_ms": traced_timing.tail_ms - untraced_timing.tail_ms,
        "trace.spans": tracer.recorded,
    }
    return result

"""``infer_offline``: compiled forwards and secure queries, in-process.

Set-up builds the smoke preset, compiles it, warms it up for batch 1 and
32 and builds the secure predictor, ending at the first answers.  The
measured phases — batch-1 compiled forwards, batch-32 compiled forwards
and batch-1 secure queries — then take turns in one-second rounds, split
40/40/20, for ``--seconds``, so each phase samples the whole run rather
than one stretch of a host whose speed drifts.  Batch 1 exposes per-call
interpreter overhead, batch 32 kernel throughput; the secure path is the
paper's privacy-preserving inference.

A shared host switches every few seconds between a fast and a slow speed
(batch-1 forwards of about 1.1 and 1.9 ms on a 2-vCPU virtual machine).
The median forward of a run then jumps between the two with the share of
time spent in each, so ``p50_ms`` and ``throughput_per_s`` are read as the
median over :data:`SEGMENT_ROUNDS`-round segments of each segment's mean
forward: a segment spans several switches, and the median over segments
still ignores a stalled one.  ``tail_ms`` is the p90 of all forwards.

Every compiled output is compared with the reference answer for its input,
computed at set-up and itself checked bit for bit against the eager
forward; secure answers must repeat exactly, as nearest truncation is
deterministic.  The secure trace must match the static operation count
exactly and contain no garbled-circuit comparison, and its top-1 agreement
with the converted float model is reported.  ``inference.glue_ms`` is the
untraced forward's median minus the traced kernels' self time per forward:
step bookkeeping, buffer lookups, reshapes and the compiler's inline
pooling.

The traced run alternates: even-numbered units run with spans around the
forward and around every public kernel method of ``compiled.backend``
(:data:`~perfbench.catalog.KERNELS`), odd-numbered ones run untraced, so
the tracing overhead is the difference between the two halves.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from . import stats
from .catalog import KERNELS
from .common import PRESET, Result, RunArgs, peak_rss_mb, repeat_setup
from .spans import KernelProbe, maybe_span

SHAPE = (3, 32, 32)
BANK = 64              # distinct batch-1 inputs, cycled
BATCHES = 4            # distinct batch-32 inputs, cycled
EAGER_CHECKED = 8      # batch-1 references also checked against eager
SECURE_CHECKED = 16    # inputs whose secure answers must repeat exactly
WARMUP = {"b1": 20, "b32": 3, "secure": 3}
ROUND_S = 1.0          # one round runs each phase for its share of this
SEGMENT_ROUNDS = 4     # rounds per segment (see the module docstring)
SHARES = {"b1": 0.4, "b32": 0.4, "secure": 0.2}


def _eager(model, x: np.ndarray) -> np.ndarray:
    from repro.autodiff import Tensor, no_grad

    model.train(False)
    with no_grad(), np.errstate(all="ignore"):
        return np.asarray(model(Tensor(x)).data, dtype=np.float32)


class _Phase:
    """Unit timings of one phase, split by whether the unit was traced."""

    def __init__(self) -> None:
        self.all_ms: List[float] = []
        self.segments: List[List[float]] = []
        self.traced_ms: List[float] = []
        self.untraced_ms: List[float] = []
        self.units = 0
        self.mismatches = 0
        self.failed = 0
        self.traced_units = 0
        self.kernel_s = dict.fromkeys(KERNELS, 0.0)
        self.kernel_calls = dict.fromkeys(KERNELS, 0)
        self.kernel_bytes = dict.fromkeys(KERNELS, 0)


def run(args: RunArgs) -> Result:
    from repro.experiment import Experiment, get_preset
    from repro.ppml import analyse_model

    result = Result()
    tracer = args.tracer
    rng = np.random.default_rng(args.seed)
    bank = rng.standard_normal((BANK,) + SHAPE).astype(np.float32)
    batches = [rng.standard_normal((32,) + SHAPE).astype(np.float32)
               for _ in range(BATCHES)]
    parts: Dict[str, List[float]] = {"compile": [], "warmup": [], "secure": []}

    def setup(index: int):
        with maybe_span(tracer, "setup", index):
            experiment = Experiment(get_preset(PRESET))
            with maybe_span(tracer, "experiment.build"):
                experiment.build()
            start = time.perf_counter()
            with maybe_span(tracer, "inference.compile"):
                compiled = experiment.compile_inference(recompile=True)
            compiled_at = time.perf_counter()
            with maybe_span(tracer, "inference.warmup"):
                compiled.warmup(SHAPE, (1, 32))
            warm_at = time.perf_counter()
            first = compiled(bank[:1])
            secure_start = time.perf_counter()
            with maybe_span(tracer, "ppml.secure_predictor"):
                secure = experiment.secure_predictor()
                secure.predict(bank[0])
            parts["secure"].append(time.perf_counter() - secure_start)
        parts["compile"].append(compiled_at - start)
        parts["warmup"].append(warm_at - compiled_at)
        return experiment, compiled, secure, first

    kept = []
    setup_times = repeat_setup(setup, kept.append, lambda handle: handle[2].close())
    experiment, compiled, secure, first = kept[0]
    model = experiment.model

    # References: compiled answers per input, the first few checked against eager.
    reference_b1 = np.stack([compiled(bank[i:i + 1])[0] for i in range(BANK)])
    reference_b32 = [compiled(batch) for batch in batches]
    eager_b1 = np.stack([_eager(model, bank[i:i + 1])[0] for i in range(EAGER_CHECKED)])
    result.check("compiled_equals_eager_b1",
                 np.array_equal(reference_b1[:EAGER_CHECKED], eager_b1)
                 and np.array_equal(first[0], eager_b1[0]),
                 f"max |diff| {float(np.abs(reference_b1[:EAGER_CHECKED] - eager_b1).max()):.3e}")
    eager_b32 = _eager(model, batches[0])
    result.check("compiled_equals_eager_b32", np.array_equal(reference_b32[0], eager_b32),
                 f"max |diff| {float(np.abs(reference_b32[0] - eager_b32).max()):.3e}")

    reference_secure = [secure.predict(bank[i]) for i in range(SECURE_CHECKED)]
    probe = KernelProbe(compiled.backend, KERNELS, tracer, "backends.") if tracer else None

    def kernel_totals():
        return ({k: tracer.self_s["backends." + k] for k in KERNELS},
                {k: tracer.calls["backends." + k] for k in KERNELS},
                dict(probe.bytes))

    units = {
        "b1": (lambda i: compiled(bank[i % BANK:i % BANK + 1]),
               lambda i, out: np.array_equal(out[0], reference_b1[i % BANK])),
        "b32": (lambda i: compiled(batches[i % BATCHES]),
                lambda i, out: np.array_equal(out, reference_b32[i % BATCHES])),
        "secure": (lambda i: secure.predict(bank[i % BANK]),
                   lambda i, out: i % BANK >= SECURE_CHECKED
                   or np.array_equal(out, reference_secure[i % BANK])),
    }
    phases = {name: _Phase() for name in units}

    def run_block(name: str, seconds: float) -> None:
        """Run ``name``'s units for ``seconds``, continuing its numbering."""
        phase, (unit, check) = phases[name], units[name]
        before = kernel_totals() if tracer else None
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            index = phase.units
            phase.units += 1
            traced = tracer is not None and index % 2 == 0
            if traced:
                probe.install()
                frame = tracer.begin(f"forward.{name}", index)
            start = time.perf_counter()
            try:
                output = unit(index)
            except Exception as error:  # counted as a failed unit, run goes on
                phase.failed += 1
                result.detail.setdefault("errors", []).append(f"{name}: {error!r}")
                output = elapsed_ms = None
            else:
                elapsed_ms = (time.perf_counter() - start) * 1000.0
            if traced:
                tracer.end(frame)
                probe.remove()
                phase.traced_units += 1
            if output is not None and not check(index, output):
                phase.mismatches += 1
            if elapsed_ms is not None:
                phase.all_ms.append(elapsed_ms)
                phase.segments[-1].append(elapsed_ms)
                (phase.traced_ms if traced else phase.untraced_ms).append(elapsed_ms)
        if tracer:
            after = kernel_totals()
            for k in KERNELS:
                phase.kernel_s[k] += after[0][k] - before[0][k]
                phase.kernel_calls[k] += after[1][k] - before[1][k]
                phase.kernel_bytes[k] += after[2].get(k, 0) - before[2].get(k, 0)

    for name, (unit, _) in units.items():
        for index in range(WARMUP[name]):
            unit(index)
    started, rounds = time.perf_counter(), 0
    while time.perf_counter() - started < args.seconds:
        for name in units:
            if rounds % SEGMENT_ROUNDS == 0:
                phases[name].segments.append([])
            run_block(name, ROUND_S * SHARES[name])
        rounds += 1
    per_kernel = {
        name: {k: {"ms": phases[name].kernel_s[k] * 1000.0 / phases[name].traced_units,
                   "calls": phases[name].kernel_calls[k] / phases[name].traced_units,
                   "mb": phases[name].kernel_bytes[k] / phases[name].traced_units / 1e6}
               for k in KERNELS}
        for name in ("b1", "b32")} if tracer else {}

    # Secure correctness: executed trace against the static count.
    trace = secure.last_trace
    start = time.perf_counter()
    with maybe_span(tracer, "ppml.analyse_model"):
        static = analyse_model(secure.model, SHAPE)
    analyse_s = time.perf_counter() - start
    diff = trace.count_diff([layer.operations for layer in static.layers])
    result.check("secure_counts_match_static", diff == {}, {k: list(v) for k, v in diff.items()})
    result.check("secure_garbled_free", trace.garbled_free, trace.totals())
    secure_top1 = np.argmax(np.stack(reference_secure).reshape(SECURE_CHECKED, -1), axis=1)
    float_top1 = np.argmax(_eager(secure.model, bank[:SECURE_CHECKED])
                           .reshape(SECURE_CHECKED, -1), axis=1)
    agreement = float(np.mean(secure_top1 == float_top1))
    start = time.perf_counter()
    with maybe_span(tracer, "profiler.profile"):
        experiment.profile()
    profile_s = time.perf_counter() - start
    secure.close()

    for name, phase in phases.items():
        result.check(f"{name}_outputs_match_reference", phase.mismatches == 0,
                     f"{phase.mismatches} mismatching outputs")
    result.attempted = sum(len(p.all_ms) + p.failed for p in phases.values())
    result.failed = sum(p.failed for p in phases.values())

    b1_timing = stats.timing(phases["b1"].all_ms)
    b32_timing = stats.timing(phases["b32"].all_ms)
    secure_timing = stats.timing(phases["secure"].all_ms)
    b1_ms = stats.median_of_means(phases["b1"].segments)
    b32_ms = stats.median_of_means(phases["b32"].segments)
    end_to_end = {
        "setup_s": stats.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "succeeded_share": stats.succeeded_share(result.attempted, result.failed),
        "p50_ms": b1_ms,
        "tail_ms": b1_timing.tail_ms,
        "throughput_per_s": 32 * 1000.0 / b32_ms,
    }
    result.detail.update({
        "setup_s": setup_times,
        "b1": b1_timing.to_dict(), "b32": b32_timing.to_dict(),
        "secure": secure_timing.to_dict(),
        "p50_ms": f"median over {len(phases['b1'].segments)} segments of the mean "
                  f"batch-1 forward",
        "throughput_per_s": "32 / median over segments of the mean batch-32 forward",
        "secure_top1_agreement": agreement,
        "secure_totals": trace.totals(),
        "headline": {"what": "batch-1 compiled forward", **b1_timing.to_dict()},
        "samples": {"setup_s": len(setup_times), "p50_ms": b1_timing.count,
                    "tail_ms": b1_timing.count, "throughput_per_s": b32_timing.count,
                    "succeeded_share": result.attempted},
    })
    result.context.update({"backend": compiled.backend.name, "workers": 0,
                           "batch_sizes": [1, 32], "preset": PRESET})
    if tracer is None:
        result.metrics = end_to_end
        return result

    result.detail["end_to_end_traced"] = end_to_end
    traced = stats.timing(phases["b1"].traced_ms)
    untraced = stats.timing(phases["b1"].untraced_ms)
    layers = {
        "inference.compile_s": stats.median(parts["compile"]),
        "inference.warmup_s": stats.median(parts["warmup"]),
        "inference.b32_p50_ms": b32_timing.p50_ms,
        "inference.glue_ms.b1": untraced.p50_ms - sum(
            per_kernel["b1"][k]["ms"] for k in KERNELS),
        "inference.glue_ms.b32": stats.timing(phases["b32"].untraced_ms).p50_ms - sum(
            per_kernel["b32"][k]["ms"] for k in KERNELS),
        "ppml.secure_setup_s": stats.median(parts["secure"]),
        "ppml.analyse_s": analyse_s,
        "profiler.profile_s": profile_s,
        "ppml.query_p50_ms": secure_timing.p50_ms,
        "ppml.mult_ops": trace.total_mult_ops,
        "ppml.truncations": trace.total_truncations,
        "ppml.relu_ops": trace.total_relu_ops,
        "ppml.rounds": trace.total_rounds,
        "ppml.online_ms_est": trace.estimate().online_milliseconds,
        "ppml.top1_agreement": agreement,
        "overhead.p50_ms": traced.p50_ms - untraced.p50_ms,
        "overhead.tail_ms": traced.tail_ms - untraced.tail_ms,
        "trace.spans": tracer.recorded,
    }
    for kernel in KERNELS:
        layers[f"backends.{kernel}_ms.b1"] = per_kernel["b1"][kernel]["ms"]
        layers[f"backends.{kernel}_ms.b32"] = per_kernel["b32"][kernel]["ms"]
        layers[f"backends.{kernel}_calls"] = per_kernel["b1"][kernel]["calls"]
        layers[f"backends.{kernel}_mb"] = per_kernel["b32"][kernel]["mb"]
    result.detail["kernels"] = per_kernel
    result.metrics = layers
    return result

"""The benchmark's metric names, read from ``BENCHMARK.json``, and which
workload measures which of them.

End-to-end metrics are reported by every workload, each measured on that
workload's own unit of work:

==============  ===================  ==================  ================  ===========
workload        unit of work         p50_ms / tail_ms    throughput_per_s  setup_s ends
==============  ===================  ==================  ================  ===========
serve_http      one POST /predict    per-second windows  requests/s        first answer
serve_open      one pool request     light rung (150/s)  goodput rate      first answer
infer_offline   one forward          batch-1 forward     batch-32 samples  first answer
train           one training step    step time           samples/s         first step
==============  ===================  ==================  ================  ===========

``tail_ms`` is the 90th percentile, or the median where fewer than 100
units ran; the p99-style ``top`` tail is printed and kept in each run's
report beside it, but not gated (see :mod:`perfbench.stats`).  Each
workload's module says how it reads ``p50_ms`` and ``throughput_per_s``
steadily on a shared host: over windows on ``serve_http``, as a median
of segment means on ``infer_offline``.

Per-layer metrics come from the traced run (``--trace 1``).  Each names
the layer it measures; a layer a workload does not run reads 0 there.

``serve_open`` is runnable and reported but not listed in
``BENCHMARK.json``.  Under an open loop at fixed rates, a host whose CPUs
are being taken by its neighbours tips the worker pool past its knee: on a
2-vCPU shared virtual machine, between identical runs, its light-rung
median moved from 5.6 to 25 ms and its goodput from 750 to 120 requests/s.
The pool's BLAS thread pools are unpinned, so its workers oversubscribe
the cores; once the program pins them, this workload can be listed.  The
layers only it measures (generator lateness, time inside ``submit``) stay
in its report until then.
"""

from __future__ import annotations

import json
import os

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(_ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

#: (name, unit, better, bound) of every end-to-end metric; bound is the
#: share of the parent's median by which it may worsen before a change
#: counts as a regression.
END_TO_END = tuple((m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"])

#: (name, unit, better) of every per-layer metric.
PER_LAYER = tuple((m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"])

#: public kernel methods of ``compiled.backend`` that the traced run wraps.
KERNELS = ("im2col", "conv_project", "combine", "gemm",
           "maxpool", "avgpool", "multiply", "add")

#: per-layer name prefixes each workload measures.  Every workload also
#: reports its span count, and all but ``serve_http`` the tracing overhead:
#: ``serve_http`` opens no span on the request path (see its module).
OWNED_PREFIXES = {
    "serve_http": ("http.", "pool."),
    "serve_open": ("pool.", "overhead."),
    "infer_offline": ("inference.", "backends.", "ppml.", "profiler.", "overhead."),
    "train": ("train.", "overhead."),
}

def owned_layers(workload: str) -> tuple:
    """Per-layer names ``workload`` measures (the others read 0 on it)."""
    prefixes = OWNED_PREFIXES[workload] + ("trace.",)
    return tuple(name for name, _, _ in PER_LAYER if name.startswith(prefixes))


def metrics_block(workload: str, values: dict, trace: bool) -> dict:
    """The result line's ``metrics`` object, in catalog order.

    ``values`` must hold exactly the names the workload measures for the
    run kind (every end-to-end metric, or its :func:`owned_layers`): a
    missing or unknown name is a bug in the workload, so it raises rather
    than printing a result line that would be misread.  Per-layer metrics of
    layers the workload does not run are filled with 0.
    """
    if trace:
        catalog = [(name, unit) for name, unit, _ in PER_LAYER]
        names = owned_layers(workload)
    else:
        catalog = [(name, unit) for name, unit, _, _ in END_TO_END]
        names = [name for name, _ in catalog]
    missing = sorted(set(names) - set(values))
    unknown = sorted(set(values) - set(names))
    if missing or unknown:
        raise KeyError(f"metric names disagree with the catalog: missing={missing} "
                       f"unknown={unknown}")
    values = {**{name: 0.0 for name, _ in catalog}, **values}
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in catalog}

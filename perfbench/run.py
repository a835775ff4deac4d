#!/usr/bin/env python3
"""QuadraLib reproduction benchmark: four workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload serve_http --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

Workloads (``BENCHMARK.json`` says why each exists):

* ``serve_http``    — ``python -m repro serve smoke`` driven over HTTP by a
  closed loop of two keep-alive clients (``perfbench/serve_http.py``);
* ``serve_open``    — an in-process ``WorkerPool`` under a seeded Poisson
  open loop over a rate ladder (``perfbench/serve_open.py``); runnable
  and reported, but not listed in ``BENCHMARK.json``;
* ``infer_offline`` — compiled batch-1/batch-32 forwards and secure queries
  (``perfbench/infer_offline.py``);
* ``train``         — ``Experiment.fit`` on ``vgg8-quadratic``
  (``perfbench/train.py``).

With ``--trace 0`` the last stdout line is one JSON object carrying every
end-to-end metric; with ``--trace 1`` it carries every per-layer metric,
spans are written as Chrome trace-event JSON and the tracing overhead is
reported.  Both write a report with sample counts, percentiles, checks and
the run context (cores, BLAS, thread variables, versions, seed, and the
share of CPU time a shared host's hypervisor took during the run) to
``.perfbench_out/``.  The program's outputs are checked in every run; a
failed check prints ``"correct": false`` and exits 1.  Nothing here sets
thread-count variables: the run measures the program as it configures
itself.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("serve_http", "serve_open", "infer_offline", "train")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import it from there."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"error: no program source at {src}/repro; run from a "
                         f"checkout of the repository")
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [src, ROOT] + [entry for entry in sys.path
                                 if os.path.abspath(entry or os.curdir) != here]
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {src}")


def _print_human(workload: str, result, metrics: dict, context: dict) -> None:
    samples = result.detail.get("samples", {})
    print("context " + json.dumps(context, default=str))
    for check in result.checks:
        print(f"check {check['name']:<34} {'ok' if check['ok'] else 'FAILED'}"
              f"  {check['detail'] if check['detail'] is not None else ''}")
    headline = result.detail.get("headline")
    if headline is not None:
        print(f"{workload:<14} {headline['what']}: p50 {headline['p50_ms']:.4g} ms, "
              f"tail p{headline['tail_percentile']:g} {headline['tail_ms']:.4g} ms, "
              f"top p{headline['top_percentile']:g} {headline['top_ms']:.4g} ms "
              f"(n={headline['count']})")
    for name, entry in metrics.items():
        count = samples.get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"{workload:<14} {name:<30} {entry['value']:>14.6g} {entry['unit']}{suffix}")


def run_one(args: argparse.Namespace) -> int:
    _import_program()
    from perfbench import catalog, common, spans

    module = importlib.import_module(f"perfbench.{args.workload}")
    tracer = spans.Tracer() if args.trace else None
    run_args = common.RunArgs(seed=args.seed, seconds=args.seconds, tracer=tracer, root=ROOT)
    started, cpu_before = time.perf_counter(), common.cpu_times()
    result = module.run(run_args)
    metrics = catalog.metrics_block(args.workload, result.metrics, bool(args.trace))
    line = {"correct": result.correct, "attempted": int(result.attempted),
            "failed": int(result.failed), "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    context = {**common.run_context(run_args), **result.context,
               "cpu_steal_share": common.steal_share(cpu_before, common.cpu_times())}
    report = {
        "workload": args.workload,
        "result": line,
        "checks": result.checks,
        "detail": result.detail,
        "context": context,
        "wall_s": time.perf_counter() - started,
    }
    if tracer is not None:
        report["chrome_trace"] = tracer.write_chrome(
            os.path.join(OUT_DIR, f"trace-{stem}.json"), args.workload)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"report-{stem}.json"), "w") as handle:
        json.dump(report, handle, indent=1, default=str)
    _print_human(args.workload, result, metrics, context)
    print(json.dumps(line), flush=True)
    return 0 if result.correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process so peak memory stays per workload."""
    _import_program()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOAD_NAMES:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = completed.stdout.strip().splitlines()
        try:
            result = json.loads(lines.pop())
        except (IndexError, ValueError):      # the workload printed no result
            result = None
        print("\n".join(lines), flush=True)
        if completed.returncode != 0 or result is None:
            code = code or completed.returncode or 1
            combined["correct"] = False
        if result is None:
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}/{name}": entry
                                    for name, entry in result["metrics"].items()})
    print(json.dumps(combined), flush=True)
    return code


def _exit_on_sigterm(signum, frame) -> None:
    # Unwind through the workloads' finally blocks, which stop their servers
    # and worker pools, instead of dying with their children orphaned.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    args = _parser().parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark's own rules: the tail percentile, failure
accounting and the metric names it prints.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import catalog, openloop, stats  # noqa: E402


# --------------------------------------------------------------- tail rule
@pytest.mark.parametrize("n, expected", [
    (1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0), (100, 90.0),
    (99, 50.0), (24, 50.0), (20, 50.0), (5, 50.0), (100_000, 99.0),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


@pytest.mark.parametrize("n, expected", [(28, 50.0), (99, 50.0), (100, 90.0), (5000, 90.0)])
def test_gated_tail_stops_at_p90(n, expected):
    assert stats.tail_percentile(n, stats.GATED_PERCENTILES) == expected


def test_tail_rule_holds_for_every_sample_size():
    for n in range(1, 3001):
        q = stats.tail_percentile(n)
        assert q == 50.0 or stats.samples_beyond(n, q) >= stats.MIN_BEYOND
        higher = [p for p in stats.TAIL_PERCENTILES if p > q]
        assert all(stats.samples_beyond(n, p) < stats.MIN_BEYOND for p in higher)


def test_timing_reports_measured_values():
    values = [float(v) for v in range(1, 1001)]        # 1..1000 ms
    timing = stats.timing(reversed(values))
    assert (timing.count, timing.p50_ms, timing.tail_ms, timing.tail_q,
            timing.top_ms, timing.top_q) == (1000, 500.0, 900.0, 90.0, 990.0, 99.0)
    assert stats.samples_beyond(1000, 99.0) == 10


# ------------------------------------------------------- failure accounting
def test_failed_requests_count_and_miss_every_limit():
    outcomes = stats.Outcomes()
    for latency in (1.0, 2.0, None, 3.0, None):
        outcomes.add(latency)
    assert (outcomes.attempted, outcomes.failed) == (5, 2)
    assert stats.share_within(outcomes, limit_ms=1e9) == pytest.approx(3 / 5)
    assert stats.succeeded_share(outcomes.attempted, outcomes.failed) == pytest.approx(3 / 5)


def test_windows_read_medians_and_count_failed_windows_as_zero_rate():
    events = []
    for window, (count, latency) in enumerate([(10, 2.0), (10, 3.0), (4, 50.0)]):
        events += [(window + 0.5, latency)] * count
    events += [(3.5, None)] * 10 + [(4.2, 1.0)] * 99     # all failed; outside the span
    windows = stats.windowed([(0.0, events, [])], seconds=4.0)
    assert windows.windows == 4
    assert windows.throughput_per_s == 4.0       # median of 10, 10, 4, 0 (nearest rank)
    assert (windows.p50_ms, windows.tail_ms) == (3.0, 3.0)
    # Spans are pooled window by window; each is read from its own start.
    busy = [(100.5 + window, 7.0) for window in range(4) for _ in range(20)]
    pooled = stats.windowed([(0.0, events, None), (100.0, busy, [0.0] * 4)], seconds=4.0)
    assert pooled.windows == 8 and pooled.throughput_per_s == 10.0
    assert pooled.rates_per_s == [10.0, 10.0, 4.0, 0.0, 20.0, 20.0, 20.0, 20.0]
    with pytest.raises(ValueError):
        stats.windowed([(0.0, events, [])], seconds=0.5)


def test_median_of_means_ignores_one_stalled_segment():
    segments = [[1.0, 3.0], [2.0, 2.0, 2.0], [], [500.0, 1.0], [1.0, 2.0]]
    assert stats.median_of_means(segments) == 2.0       # of 2, 2, 250.5, 1.5
    with pytest.raises(ValueError):
        stats.median_of_means([[], []])


def test_windows_the_hypervisor_took_are_left_out():
    events = [(window + 0.5, 1.0 + window) for window in range(4) for _ in range(10 + window)]
    windows = stats.windowed([(0.0, events, [0.0, 0.5, 0.01, None])], seconds=4.0)
    assert (windows.windows, windows.kept) == (4, 3)
    assert windows.throughput_per_s == 12.0 and windows.p50_ms == 3.0   # of windows 0, 2, 3
    assert stats.calm_windows([0.0, 0.02, 0.01, None]) == [0, 1, 2, 3]
    # Fewer than half calm: the least-stolen half is read instead.
    assert stats.calm_windows([0.0, 0.2, 0.1, 0.3, 0.02]) == [0, 2, 4]
    assert stats.calm_windows([0.2, 0.1, 0.3, 0.02]) == [1, 3]
    assert stats.calm_windows([0.5, 0.4, 0.3]) == [1, 2]


def _serve_stub(answers_per_connection):
    """An HTTP stub on a thread: answers ``answers_per_connection`` requests
    per connection (None: all of them; 0: none, the request hangs), then
    drops the connection."""
    import asyncio
    import threading

    body = json.dumps({"output": [0.0]}).encode()
    ready, box = threading.Event(), {}

    async def handle(reader, writer):
        answered = 0
        try:
            while answers_per_connection is None or answered < answers_per_connection:
                length = 0
                while True:
                    line = await reader.readline()
                    if not line:
                        return
                    if line == b"\r\n":
                        break
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                await reader.readexactly(length)
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body)
                             + body)
                await writer.drain()
                answered += 1
            if answers_per_connection == 0:
                await asyncio.sleep(3600)
        except (OSError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

    async def main():
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        box["port"] = server.sockets[0].getsockname()[1]
        box["loop"], box["stop"] = asyncio.get_running_loop(), asyncio.Event()
        ready.set()
        async with server:
            await box["stop"].wait()

    thread = threading.Thread(target=asyncio.run, args=(main(),), daemon=True)
    thread.start()
    ready.wait(10)

    def stop():
        box["loop"].call_soon_threadsafe(box["stop"].set)
        thread.join(10)

    return box["port"], stop


def _closed_loop(monkeypatch, answers_per_connection, seconds):
    import asyncio

    serve_http = pytest.importorskip("perfbench.serve_http")
    monkeypatch.setattr(serve_http, "WARMUP_REQUESTS", 0)
    monkeypatch.setattr(serve_http, "RESPONSE_TIMEOUT_S", 0.2)
    monkeypatch.setattr(serve_http, "SCHEDULE", 64)
    monkeypatch.setattr(serve_http, "UNIQUE_INPUTS", 64)
    port, stop = _serve_stub(answers_per_connection)
    try:
        loop = serve_http._Loop(serve_http.Inputs(np.random.default_rng(0)), seconds, None)
        started = time.perf_counter()
        # A client that hangs fails the test instead of hanging it.
        asyncio.run(asyncio.wait_for(loop.run("127.0.0.1", port), seconds + 5.0))
        return loop, time.perf_counter() - started
    finally:
        stop()


def test_closed_loop_reconnects_after_dropped_connections(monkeypatch):
    loop, elapsed = _closed_loop(monkeypatch, answers_per_connection=3, seconds=1.0)
    outcomes = loop.outcomes
    # Every fourth request on a connection finds it closed: it fails, and the
    # client reconnects and keeps going until the deadline.
    assert outcomes.failed >= 2 and outcomes.attempted - outcomes.failed >= 3 * outcomes.failed
    ends_ok = [end for end, latency in loop.events if latency is not None]
    ends_failed = [end for end, latency in loop.events if latency is None]
    assert max(ends_ok) > max(ends_failed[:2])
    assert max(ends_ok) >= loop.deadline - 0.25
    assert elapsed < 5.0


def test_closed_loop_counts_unanswered_requests_as_failed(monkeypatch):
    loop, elapsed = _closed_loop(monkeypatch, answers_per_connection=0, seconds=0.5)
    outcomes = loop.outcomes
    assert outcomes.attempted >= 2 and outcomes.failed == outcomes.attempted
    assert stats.share_within(outcomes, limit_ms=1e9) == 0.0
    assert elapsed < 5.0


class _Future:
    def __init__(self, value=None, error=None):
        self.value, self.error = value, error

    def add_done_callback(self, callback):
        callback(self)

    def result(self, timeout=None):
        if self.error is not None:
            raise self.error
        return self.value


class _Refused(Exception):
    pass


def test_open_loop_counts_refused_and_errored_as_failed():
    def submit(index):
        if index % 10 == 3:
            raise _Refused("over budget")
        if index % 10 == 7:
            return _Future(error=RuntimeError("worker crashed"))
        return _Future(value=index)

    seen = []
    rung = openloop.run_rung(submit, rate=5000, count=50, rng=np.random.default_rng(0),
                             abort_outstanding=100, refusals=(_Refused,),
                             on_result=lambda i, value: seen.append(value))
    assert rung.outcomes.attempted == 50
    assert (rung.refused, rung.errored, rung.outcomes.failed) == (5, 5, 10)
    assert stats.share_within(rung.outcomes, openloop.LIMIT_MS) <= 0.8
    assert not rung.passed
    assert sorted(seen) == [i for i in range(50) if i % 10 not in (3, 7)]


def test_open_loop_times_requests_from_their_due_time():
    rung = openloop.run_rung(lambda i: _Future(value=i), rate=2000, count=40,
                             rng=np.random.default_rng(1), abort_outstanding=100,
                             refusals=(_Refused,))
    assert rung.outcomes.failed == 0 and rung.sent == 40
    # Answered on submit, so each latency is the generator's own lateness.
    assert min(rung.outcomes.succeeded) >= 0.0
    assert max(rung.outcomes.succeeded) >= max(rung.late_ms)


def test_goodput_needs_a_passing_rung_at_every_lower_rate():
    def rung(rate, passed):
        result = openloop.Rung(rate=rate, planned=10, duration_s=1.0)
        for _ in range(100):
            result.outcomes.add(1.0 if passed else None)
        return result

    assert openloop.goodput([rung(150, True), rung(300, False), rung(300, True),
                             rung(500, False), rung(500, False)]) == 300
    assert openloop.goodput([rung(150, True), rung(300, False), rung(500, True)]) == 150


# ------------------------------------------------------------ metric names
def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_every_listed_workload_runs_and_every_layer_is_measured():
    from perfbench import run

    listed = [w["name"] for w in _benchmark_json()["workloads"]]
    assert set(listed) <= set(catalog.OWNED_PREFIXES) == set(run.WORKLOAD_NAMES)
    measured = {name for workload in listed for name in catalog.owned_layers(workload)}
    assert measured == {name for name, *_ in catalog.PER_LAYER}


def test_benchmark_json_follows_the_format():
    spec = _benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in spec["workloads"]] + \
        [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(name.match(n) for n in names) and len(names) == len(set(names))
    assert 2 <= len(spec["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert 1 <= len(spec["per_layer"]) <= 128
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(unit.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert 1 <= spec["run_seconds"] <= 60


@pytest.mark.parametrize("workload", list(catalog.OWNED_PREFIXES))
@pytest.mark.parametrize("trace", [False, True])
def test_printed_metric_names_match_benchmark_json(workload, trace):
    spec = _benchmark_json()
    expected = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    measured = (catalog.owned_layers(workload) if trace
                else [name for name, *_ in catalog.END_TO_END])
    block = catalog.metrics_block(workload, {name: 1.5 for name in measured}, trace)
    assert list(block) == expected
    assert all(set(entry) == {"value", "unit"} for entry in block.values())


def test_metrics_block_rejects_missing_and_unknown_names():
    names = [name for name, *_ in catalog.END_TO_END]
    with pytest.raises(KeyError):
        catalog.metrics_block("train", {name: 1.0 for name in names[1:]}, trace=False)
    with pytest.raises(KeyError):
        catalog.metrics_block("train", {**{name: 1.0 for name in names}, "extra": 1.0},
                              trace=False)
    with pytest.raises(KeyError):     # a layer the workload does not run
        catalog.metrics_block("train", {**{n: 1.0 for n in catalog.owned_layers("train")},
                                        "http.cache_hit_share": 1.0}, trace=True)

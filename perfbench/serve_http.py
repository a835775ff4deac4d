"""``serve_http``: ``python -m repro serve smoke`` driven over HTTP.

The server runs as a subprocess at its defaults (2 workers, LRU response
cache), exactly as a user starts it; set-up runs from spawning it to its
first correct answer.  The run has :data:`SEGMENTS` segments, each with a
server of its own: set up, measure for an equal share of ``--seconds``,
stop.  In each, a
closed loop of :data:`CLIENTS` keep-alive connections on one asyncio
thread posts ``{"input": ...}`` bodies after :data:`WARMUP_REQUESTS`
discarded requests.  A quarter of the requests repeat one of a
:data:`HOT_SET`-input hot set, so the response cache serves them; the rest
are inputs never sent before, which the cache cannot serve.  The measured
span is read in :data:`WINDOW_S` windows: ``p50_ms``, ``tail_ms`` and
``throughput_per_s`` are medians over windows of each window's median,
gated tail and success rate, so a few seconds of host stalls do not move
them.  Windows in which the hypervisor gave the CPUs to other guests are
left out (:func:`perfbench.stats.calm_windows`).  The whole-run
percentiles are printed and kept beside them.

Nothing is traced on the request path: the traced run records each
request's span after its response is timed, so it reports no tracing
overhead for this workload.

Bodies are encoded at set-up: every input shares one seeded base image and
differs in its first row, whose JSON text is precomputed, so the loop only
joins bytes.  Every :data:`CHECK_EVERY`-th answer is compared bit for bit
with the in-process compiled forward of the same seeded model.  Front-door
and pool per-layer numbers come from the server's public ``GET /stats``.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlparse

import numpy as np

from repro.experiment import Experiment, get_preset

from . import stats
from .common import (PRESET, Result, RunArgs, cpu_times, peak_rss_mb, pool_layers,
                     program_env, steal_share)
from .spans import maybe_span

SHAPE = (3, 32, 32)
CLIENTS = 2
HOT_SET = 64
HOT_SHARE = 0.25
UNIQUE_INPUTS = 20_000      # distinct first rows; the loop wraps around after these
SCHEDULE = 200_000
SEGMENTS = 5                # servers per run, each set up, measured and stopped in turn
WARMUP_REQUESTS = 100
CHECK_EVERY = 20
START_TIMEOUT_S = 120.0
RESPONSE_TIMEOUT_S = 10.0   # an unanswered request counts as failed after this
RETRY_PAUSE_S = 0.05        # pause after a failed request before reconnecting
WINDOW_S = 1.0              # p50, tail and rate are medians over windows this long
STOP_TIMEOUT_S = 30.0

Key = Tuple[bool, int]      # (from the hot set, row index)

#: per-layer counts, summed over the run's servers.
_COUNTERS = ("pool.shed", "pool.retried", "pool.respawns", "pool.inline_dispatches",
             "pool.assembly_fallbacks")


class Inputs:
    """Seeded request inputs and their pre-encoded JSON bodies."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.base = np.round(rng.standard_normal(SHAPE), 3)
        prefix = '{"input": [['
        first_row = json.dumps(self.base[0, 0].tolist())
        text = json.dumps({"input": self.base.tolist()})
        if not text.startswith(prefix + first_row):
            raise AssertionError("unexpected JSON layout of the base input")
        self.prefix = prefix.encode()
        self.rest = text[len(prefix) + len(first_row):].encode()
        self.rows = {True: np.round(rng.standard_normal((HOT_SET, SHAPE[2])), 3),
                     False: np.round(rng.standard_normal((UNIQUE_INPUTS, SHAPE[2])), 3)}
        self.probe_row = np.round(rng.standard_normal(SHAPE[2]), 3)
        self.text = {hot: [json.dumps(row.tolist()).encode() for row in rows]
                     for hot, rows in self.rows.items()}
        hot = rng.random(SCHEDULE) < HOT_SHARE
        hot_index = rng.integers(HOT_SET, size=SCHEDULE)
        unique_index = np.cumsum(~hot) % UNIQUE_INPUTS
        self.schedule: List[Key] = [(True, int(h)) if is_hot else (False, int(u))
                                    for is_hot, h, u in zip(hot, hot_index, unique_index)]

    def body(self, key: Key) -> bytes:
        hot, index = key
        return self.prefix + self.text[hot][index] + self.rest

    def probe_body(self) -> bytes:
        return self.prefix + json.dumps(self.probe_row.tolist()).encode() + self.rest

    def array(self, key: Optional[Key]) -> np.ndarray:
        """The float32 input the server parses from ``key``'s body (None: probe)."""
        value = self.base.copy()
        value[0, 0] = self.probe_row if key is None else self.rows[key[0]][key[1]]
        return value.astype(np.float32)


def _request(body: bytes) -> bytes:
    return (b"POST /predict HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n" % len(body)) + body


async def _read_response(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return status, await reader.readexactly(length)


class Server:
    """One ``repro serve`` subprocess."""

    def __init__(self, root: str, log_path: str) -> None:
        self.started = time.perf_counter()
        self.log = open(log_path, "ab")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", PRESET, "--workers", "2", "--port", "0"],
            cwd=root, env=program_env(root), stdout=subprocess.PIPE, stderr=self.log)
        self.url = self._wait_listening()
        self.listening_s = time.perf_counter() - self.started
        # Drain the rest of stdout so the server can never block on a full pipe.
        self._drain = threading.Thread(target=self._copy_stdout, daemon=True)
        self._drain.start()
        parsed = urlparse(self.url)
        self.host, self.port = parsed.hostname, parsed.port

    def _wait_listening(self) -> str:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            self.log.write(line)
            text = line.decode(errors="replace")
            if text.startswith("serving ") and " on http://" in text:
                return text.split(" on ", 1)[1].split()[0]
        self.stop()
        raise RuntimeError("repro serve exited or did not start listening; "
                           f"see {self.log.name}")

    def _copy_stdout(self) -> None:
        for line in self.process.stdout:
            self.log.write(line)

    def get(self, path: str) -> dict:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def post(self, body: bytes) -> dict:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            connection.request("POST", "/predict", body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            payload = json.loads(response.read())
            if response.status != 200:
                raise RuntimeError(f"POST /predict answered {response.status}: {payload}")
            return payload
        finally:
            connection.close()

    def stop(self) -> None:
        """SIGINT (the server drains and exits), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._join_drain()
        self.log.close()

    def _join_drain(self) -> None:
        drain = getattr(self, "_drain", None)
        if drain is not None:
            drain.join(timeout=5)


class _Loop:
    """Closed-loop state shared by the client coroutines."""

    def __init__(self, inputs: Inputs, seconds: float, tracer, offset: int = 0) -> None:
        self.inputs = inputs
        self.seconds = seconds
        self.tracer = tracer
        self.offset = offset        # schedule position of this loop's first request
        self.next = 0
        self.measure_start: Optional[float] = None
        self.deadline = float("inf")
        self.outcomes = stats.Outcomes()
        self.events: List[Tuple[float, Optional[float]]] = []
        self.answers: Dict[int, Tuple[Key, list]] = {}
        self.errors: List[str] = []
        self.steal: List[Optional[float]] = []     # hypervisor's share per window

    def take(self) -> Optional[Tuple[int, Key]]:
        now = time.perf_counter()
        if self.next == WARMUP_REQUESTS:
            self.measure_start, self.deadline = now, now + self.seconds
        if now >= self.deadline:
            return None
        index = self.next
        self.next += 1
        return index, self.inputs.schedule[(self.offset + index) % SCHEDULE]

    def record(self, index: int, key: Key, start: float, end: float,
               status: Optional[int], payload: Optional[bytes]) -> None:
        measured = index - WARMUP_REQUESTS
        if measured < 0:
            return
        latency = None
        if status == 200:
            try:
                output = json.loads(payload)["output"]
            except (ValueError, KeyError) as error:
                self.errors.append(f"request {index}: bad body {error!r}")
            else:
                latency = (end - start) * 1000.0
                if measured % CHECK_EVERY == 0:
                    self.answers[index] = (key, output)
        elif status is not None:
            self.errors.append(f"request {index}: HTTP {status} {payload[:200]!r}")
        self.outcomes.add(latency)
        self.events.append((end, latency))
        if self.tracer is not None:
            self.tracer.record("http.request", start, end, request_id=self.offset + index)

    async def client(self, host: str, port: int) -> None:
        """Post requests until the deadline over one keep-alive connection.

        A request that errors, or is not answered within
        :data:`RESPONSE_TIMEOUT_S`, counts as failed; the connection is
        then dropped and reopened for the next request, so a front door
        that closes connections or stops answering shows as failures for
        the rest of the run rather than ending the run early or hanging it.
        """
        connection = None
        try:
            while True:
                item = self.take()
                if item is None:
                    return
                index, key = item
                message = _request(self.inputs.body(key))
                start = time.perf_counter()
                try:
                    if connection is None:
                        connection = await asyncio.wait_for(
                            asyncio.open_connection(host, port), RESPONSE_TIMEOUT_S)
                    reader, writer = connection
                    writer.write(message)
                    await writer.drain()
                    status, payload = await asyncio.wait_for(_read_response(reader),
                                                             RESPONSE_TIMEOUT_S)
                except (OSError, asyncio.IncompleteReadError, asyncio.TimeoutError,
                        ValueError) as error:
                    self.errors.append(f"request {index}: {error!r}")
                    self.record(index, key, start, time.perf_counter(), None, None)
                    await _close(connection)
                    connection = None
                    await asyncio.sleep(RETRY_PAUSE_S)
                    continue
                self.record(index, key, start, time.perf_counter(), status, payload)
        finally:
            await _close(connection)

    async def sample_steal(self) -> None:
        """Read the host's CPU counters at each window edge of the measured span."""
        while self.measure_start is None:
            await asyncio.sleep(0.005)
        readings = [cpu_times()]
        for edge in range(1, int(self.seconds // WINDOW_S) + 1):
            await asyncio.sleep(max(self.measure_start + edge * WINDOW_S - time.perf_counter(), 0))
            readings.append(cpu_times())
        self.steal = [steal_share(a, b) for a, b in zip(readings, readings[1:])]

    async def run(self, host: str, port: int) -> None:
        await asyncio.gather(self.sample_steal(),
                             *(self.client(host, port) for _ in range(CLIENTS)))


async def _close(connection) -> None:
    if connection is None:
        return
    writer = connection[1]
    writer.close()
    try:
        await writer.wait_closed()
    except OSError:
        pass


def _layers(snapshot: dict) -> Dict[str, float]:
    """Front-door and pool per-layer metrics from one server's ``GET /stats``."""
    endpoint = snapshot["serving"]["endpoints"]["/predict"]
    cache = snapshot["cache"]
    return {
        "http.endpoint_p50_ms": endpoint["p50_ms"],
        "http.endpoint_p99_ms": endpoint["p99_ms"],
        "http.frontdoor_p50_ms": endpoint["p50_ms"]
        - snapshot["pool"]["latency"]["total"]["p50_ms"],
        "http.cache_hit_share": cache["hits"] / max(cache["hits"] + cache["misses"], 1),
        **pool_layers(snapshot["pool"]),
    }


def run(args: RunArgs) -> Result:
    result = Result()
    tracer = args.tracer
    inputs = Inputs(np.random.default_rng(args.seed))
    reference = Experiment(get_preset(PRESET))
    reference.build()
    compiled = reference.compile_inference()
    out_dir = os.path.join(args.root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, f"serve_http-seed{args.seed}-server.log")
    listening_s: List[float] = []
    firsts: List[list] = []
    setup_times: List[float] = []
    loops: List[_Loop] = []
    snapshots: List[dict] = []

    # One segment per set-up: start a server, measure it for an equal share
    # of the run, stop it.  Spreading the run over several servers started
    # at different times keeps one server's luck with the host's scheduler
    # from deciding the result.
    for index in range(SEGMENTS):
        started = time.perf_counter()
        with maybe_span(tracer, "setup", index):
            server = Server(args.root, log_path)
            try:
                with maybe_span(tracer, "http.first_answer"):
                    firsts.append(server.post(inputs.probe_body())["output"])
            except BaseException:
                server.stop()
                raise
        setup_times.append(time.perf_counter() - started)
        listening_s.append(server.listening_s)
        try:
            loop = _Loop(inputs, args.seconds / SEGMENTS, tracer,
                         offset=sum(done.next for done in loops))
            with maybe_span(tracer, "closed_loop", index):
                asyncio.run(loop.run(server.host, server.port))
            loops.append(loop)
            snapshots.append(server.get("/stats"))
        finally:
            server.stop()

    probe_reference = compiled(inputs.array(None)[None])[0]
    result.check("first_answers_match_compiled",
                 all(np.array_equal(np.asarray(first, dtype=np.float32), probe_reference)
                     for first in firsts))
    answers = [answer for loop in loops for answer in loop.answers.values()]
    mismatches = sum(
        1 for key, output in answers
        if not np.array_equal(np.asarray(output, dtype=np.float32),
                              compiled(inputs.array(key)[None])[0]))
    result.check("served_answers_match_compiled", mismatches == 0 and len(answers) > 0,
                 f"{mismatches} of {len(answers)} sampled answers differ")

    outcomes = stats.Outcomes([latency for loop in loops
                               for latency in loop.outcomes.latencies_ms])
    result.attempted, result.failed = outcomes.attempted, outcomes.failed
    timing = stats.timing(outcomes.succeeded)
    windows = stats.windowed([(loop.measure_start, loop.events, loop.steal) for loop in loops],
                             args.seconds / SEGMENTS, WINDOW_S)
    end_to_end = {
        "setup_s": stats.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "succeeded_share": stats.succeeded_share(outcomes.attempted, outcomes.failed),
        "p50_ms": windows.p50_ms,
        "tail_ms": windows.tail_ms,
        "throughput_per_s": windows.throughput_per_s,
    }
    sent = [inputs.schedule[(loop.offset + i) % SCHEDULE][0]
            for loop in loops for i in range(WARMUP_REQUESTS, loop.next)]
    result.detail.update({
        "setup_s": setup_times,
        "listening_s": listening_s,
        "requests": timing.to_dict(),
        "windows": windows.to_dict(),
        "hot_share_sent": sum(sent) / max(len(sent), 1),
        "errors": [error for loop in loops for error in loop.errors][:20],
        "stats": [{"endpoints": snapshot["serving"]["endpoints"], "cache": snapshot["cache"],
                   "latency": snapshot["pool"]["latency"]} for snapshot in snapshots],
        "headline": {"what": "POST /predict round trip, whole run", **timing.to_dict()},
        "samples": {"setup_s": len(setup_times), "p50_ms": timing.count,
                    "tail_ms": timing.count, "throughput_per_s": windows.windows,
                    "succeeded_share": outcomes.attempted},
    })
    result.context.update({"backend": "numpy", "workers": 2, "batch_sizes": [1],
                           "clients": CLIENTS, "preset": PRESET,
                           "segments": SEGMENTS})
    if tracer is None:
        result.metrics = end_to_end
        return result

    result.detail["end_to_end_traced"] = end_to_end
    # Counters add up over the segments' servers; rates and percentiles are
    # the median server's.
    per_server = [_layers(snapshot) for snapshot in snapshots]
    result.metrics = {
        name: (sum if name in _COUNTERS else stats.median)([layers[name] for layers in per_server])
        for name in per_server[0]
    }
    result.metrics.update({"pool.start_s": stats.median(listening_s),
                           "trace.spans": tracer.recorded})
    return result

"""The worker-process side of the serving pool.

Each worker is an independent OS process that receives the experiment spec
and the trained weights over IPC (both pickle cleanly: the spec as a plain
dict, the weights as a name → ``np.ndarray`` state dict), rebuilds the model,
compiles it, and executes the batch frames the pool's continuous batcher
cuts for it.  Because every worker starts from the same serialized weights
and the compiled path is deterministic, any worker answers any request with
the same bits.

Wire protocol (control frames are picklable tuples; tensor payloads travel
either inline or through the worker's shared-memory rings):

* parent → worker::

      ("batch", batch_id, [request_ids], payload[, meta])   # the data plane
      ("sleep", request_id, seconds)                # drain tests, warm-up
      None                                          # drain and exit

  where ``payload`` is ``("shm", ShmFrame)`` — the stacked float32 batch is
  parked in the request ring — or ``("inline", ndarray)`` for the pipe
  transport and for tensors that outgrew a slot.  The optional fifth
  element ``meta`` only appears on secure pools: ``None`` for the default
  secure configuration, or ``{"protocol", "frac_bits", "truncation"}`` for
  a per-request override (the worker compiles that variant lazily).

* worker → parent::

      ("ready", worker_id, pid)                     # serving can begin
      ("okb", batch_id, [request_ids], payload, timings)
      ("errb", batch_id, [request_ids], message)
      ("ok", request_id, output) / ("err", request_id, message)
      ("bye", worker_id)

  ``timings`` is ``{"read_ms": float, "compute_ms": [per-request floats]}``
  — durations measured on the worker's own clock, so the parent never has
  to compare timestamps across processes.  Secure workers add a
  ``"secure"`` key: one ``ProtocolTrace.totals()`` dict per request, which
  is how per-request protocol accounting reaches ``GET /stats``.

Batch execution honors the pool's bit-exactness contract: by default every
request in a frame runs as its own batch-of-1 forward (identical bits to
``Experiment.predictor(max_batch_size=1)`` no matter how requests were
coalesced); ``fused_batching`` trades that for one fused forward per frame.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

#: Message kinds a worker understands.
REQUEST_KINDS = ("batch", "sleep")


def execute_request(kind: str, payload: Any) -> Any:
    """Run one already-parsed control frame (everything but ``batch``)."""
    if kind == "sleep":
        time.sleep(float(payload))
        return None
    raise ValueError(f"unknown request kind '{kind}'; valid: {REQUEST_KINDS}")


def build_serving_predictor(spec_dict: Dict[str, Any], state: Dict[str, np.ndarray],
                            max_batch_size: int, max_wait: float,
                            backend: str = "numpy",
                            secure: Optional[Dict[str, Any]] = None):
    """Rebuild the model from its IPC form and wrap it for serving.

    Split out of :func:`worker_main` so tests can exercise the
    deserialize → build → load → compile path in-process.  ``backend`` is the
    compute backend each worker compiles with (a :mod:`repro.backends` name).

    When ``secure`` is given (a dict with ``protocol`` / ``frac_bits`` /
    ``truncation`` / ``strategy``, i.e. the secure fields of
    ``ServeConfig.to_dict()``), the model is converted PPML-friendly and
    wrapped in a :class:`~repro.ppml.SecurePredictor` instead — the same
    deserialize → build → load path, one code path either way, which is what
    keeps served secure answers bit-identical to the single-process
    ``Experiment.secure_predictor()``.  Empty ``protocol`` / ``strategy``
    defer to the spec's ``ppml`` section; strategy ``"none"`` serves the
    model unconverted (ReLUs cost garbled comparisons).

    Either return type satisfies the :class:`repro.inference.Predictor`
    protocol.
    """
    from ..experiment import ExperimentSpec
    from ..inference import BatchedPredictor
    from ..utils.seed import seed_everything

    spec = ExperimentSpec.from_dict(spec_dict)
    # Seeded exactly like Experiment.build(), so even a worker that receives
    # no weights reproduces the parent's freshly built model.
    seed_everything(spec.seed)
    model = spec.model.build()
    if state:
        model.load_state_dict(dict(state))
    model.eval()
    if secure is not None:
        from .. import ppml

        strategy = secure.get("strategy") or spec.ppml.strategy
        if strategy != "none":
            model, _ = ppml.to_ppml_friendly(model, strategy=strategy,
                                             inplace=False)
        return ppml.SecurePredictor(
            model,
            protocol=secure.get("protocol") or spec.ppml.protocol,
            frac_bits=int(secure.get("frac_bits", 12)),
            truncation=str(secure.get("truncation", "nearest")),
            seed=spec.seed)
    return BatchedPredictor(model, max_batch_size=max_batch_size,
                            max_wait=max_wait, backend=backend)


def run_batch(compiled, batch: np.ndarray,
              fused: bool) -> Tuple[np.ndarray, List[float], Optional[List[Dict[str, int]]]]:
    """Execute one stacked batch; returns (outputs, per-request compute ms,
    per-request secure totals — or ``None`` on the float path).

    ``fused=False`` runs each sample as its own batch-of-1 forward — the
    exact compute path of ``BatchedPredictor`` serving one sample, so the
    answer is bit-identical regardless of how the pool coalesced requests.
    ``fused=True`` runs the whole stack in one forward (maximum throughput;
    float-associativity drift between batch sizes, as documented on
    ``BatchedPredictor``).

    When ``compiled`` is a :class:`~repro.ppml.SecureCompiledModel`, each
    batch-of-1 forward leaves its measured ``ProtocolTrace`` on
    ``last_trace``; the totals are collected per request so the pool can
    account for the offline material every answer consumed.  (Secure pools
    never fuse — ``ServeConfig`` rejects the combination.)
    """
    with np.errstate(all="ignore"):          # serving tolerates non-finite
        if fused:
            clock = time.perf_counter()
            outputs = compiled(batch)
            elapsed_ms = (time.perf_counter() - clock) * 1000.0
            return outputs, [elapsed_ms / len(batch)] * len(batch), None
        rows = []
        timings = []
        secure_totals: List[Dict[str, int]] = []
        for index in range(len(batch)):
            clock = time.perf_counter()
            rows.append(compiled(batch[index:index + 1]))
            timings.append((time.perf_counter() - clock) * 1000.0)
            trace = getattr(compiled, "last_trace", None)
            if trace is not None:
                secure_totals.append(trace.totals())
        return (np.concatenate(rows, axis=0), timings,
                secure_totals if secure_totals else None)


class ResponseArena:
    """Per-worker reusable output storage — the allocation-free answer path.

    A warm float worker should not touch the heap per batch: request rows
    arrive as views on the request ring, and this arena gives the compiled
    model somewhere persistent to put the answers.  Preferred storage is a
    leased **response-ring slot** (``ShmRing.assemble``): each per-request
    forward runs with ``out=`` straight into its row of the slot, so the
    response is ready to ship the moment the last row lands — zero copies,
    zero allocations.  When the ring is full (parent stalled) the rows land
    in a pooled arena buffer instead (:class:`~repro.inference.buffers.
    BufferPool`, the PR-6 machinery — one allocation ever per output
    geometry), and the respond step retries the ring with a copy.

    The output row geometry for an input row shape is discovered on the
    first batch (one ordinary allocating forward) and cached; every later
    batch of that shape is served without asking the heap.  Secure batches
    never come here — their compiled models trace protocol rounds and do
    not take ``out=``.
    """

    __slots__ = ("ring", "pool", "_row_geometry")

    def __init__(self, ring=None) -> None:
        from ..inference.buffers import BufferPool

        self.ring = ring
        self.pool = BufferPool()
        #: input row (shape, dtype) -> output row (shape, dtype)
        self._row_geometry: Dict[tuple, Tuple[tuple, np.dtype]] = {}

    def serve(self, compiled, batch: np.ndarray, fused: bool, batch_id: int,
              request_ids, read_ms: float, response_queue) -> None:
        """Execute one float batch into arena storage and ship the answer.

        Raises like :func:`run_batch` would — the caller turns any failure
        into an ``errb`` frame; a response slot leased before the failure is
        released here first.
        """
        n = len(batch)
        key = (batch.shape[1:], str(batch.dtype))
        first = None
        first_ms = 0.0
        geometry = self._row_geometry.get(key)
        if geometry is None:
            # Cold path: one ordinary forward discovers the output row
            # geometry (and is kept — row 0 of this very batch).
            with np.errstate(all="ignore"):
                clock = time.perf_counter()
                first = compiled(batch[0:1])
                first_ms = (time.perf_counter() - clock) * 1000.0
            geometry = (tuple(first.shape[1:]), first.dtype)
            self._row_geometry[key] = geometry
        row_shape, dtype = geometry
        out_shape = (n,) + row_shape
        slot = seq = None
        view = out_frame = None
        if self.ring is not None:
            try:
                slot, seq = self.ring.lease()
                view, out_frame = self.ring.assemble(slot, seq, out_shape, dtype)
            except Exception:
                # Ring full or the batch outgrew a slot — arena buffer below.
                if slot is not None:
                    try:
                        self.ring.release(slot, seq)
                    except Exception:
                        pass
                view = out_frame = None
        if view is None:
            view = self.pool.get("response", out_shape, dtype)
        try:
            timings: List[float] = []
            with np.errstate(all="ignore"):
                if fused:
                    clock = time.perf_counter()
                    compiled(batch, out=view)
                    timings = [(time.perf_counter() - clock) * 1000.0 / n] * n
                else:
                    start = 0
                    if first is not None:
                        np.copyto(view[0:1], first, casting="same_kind")
                        timings.append(first_ms)
                        start = 1
                    for index in range(start, n):
                        clock = time.perf_counter()
                        compiled(batch[index:index + 1],
                                 out=view[index:index + 1])
                        timings.append((time.perf_counter() - clock) * 1000.0)
        except BaseException:
            if out_frame is not None:
                try:
                    self.ring.release(slot, seq)
                except Exception:
                    pass
            raise
        payload_timings = {"read_ms": read_ms, "compute_ms": timings}
        if out_frame is not None:
            response_queue.put(("okb", batch_id, request_ids,
                                ("shm", out_frame), payload_timings))
            return
        # Arena-buffer fallback: retry the ring at respond time (write()
        # copies the rows in — still allocation-free), and if even that
        # fails the inline path must *copy*: the queue's feeder thread
        # pickles asynchronously, and the pooled buffer will be overwritten
        # by the next batch.
        _respond_batch(response_queue, self.ring, batch_id, request_ids,
                       view, payload_timings, copy_inline=True)


def _batch_tensor(payload, request_ring) -> Tuple[np.ndarray, Optional[Any]]:
    """Materialize a batch payload; returns (array, frame-to-release)."""
    via, data = payload
    if via == "shm":
        if request_ring is None:
            raise RuntimeError("received a shm frame but this worker has no rings")
        return request_ring.read(data), data
    return np.asarray(data, dtype=np.float32), None


def _respond_batch(response_queue, response_ring, batch_id, request_ids,
                   outputs: np.ndarray, timings: Dict[str, Any],
                   copy_inline: bool = False) -> None:
    """Ship a batch result back, through the response ring when it fits.

    ``copy_inline=True`` marks ``outputs`` as living in reused storage (a
    pooled arena buffer): the inline fallback then snapshots it first,
    because ``Queue.put`` pickles on a feeder thread *after* this returns —
    by which time the next batch may have overwritten the buffer.
    """
    if response_ring is not None:
        try:
            slot, seq = response_ring.lease()
            frame = response_ring.write(slot, seq, outputs)
            response_queue.put(("okb", batch_id, request_ids,
                                ("shm", frame), timings))
            return
        except Exception:
            # Ring full (parent stalled) or tensor outgrew the slot — the
            # inline path is always available, just not zero-copy.
            pass
    if copy_inline:
        outputs = np.array(outputs)
    response_queue.put(("okb", batch_id, request_ids, ("inline", outputs), timings))


def _resolve_compiled(predictor, meta: Optional[Dict[str, Any]]):
    """The compiled model a batch frame should execute on.

    ``meta`` is ``None`` for float pools and for secure requests in the
    pool's default configuration; a per-request override dict selects (and
    lazily compiles) the matching :meth:`SecurePredictor.variant`.
    """
    if not meta:
        return predictor.compiled
    return predictor.variant(protocol=meta.get("protocol"),
                             frac_bits=meta.get("frac_bits"),
                             truncation=meta.get("truncation"))


def _serve_batch(predictor, message, request_ring, response_ring,
                 response_queue, fused: bool,
                 arena: Optional[ResponseArena] = None) -> None:
    """Answer one ("batch", ...) frame, isolating failures to its requests.

    Float batches take the arena's allocation-free path when one is given;
    secure batches (their compiled models trace protocol rounds and take no
    ``out=``) keep the classic allocate-and-copy :func:`run_batch` path.
    """
    _, batch_id, request_ids, payload = message[:4]
    meta = message[4] if len(message) > 4 else None
    frame = None
    try:
        clock = time.perf_counter()
        compiled = _resolve_compiled(predictor, meta)
        batch, frame = _batch_tensor(payload, request_ring)
        read_ms = (time.perf_counter() - clock) * 1000.0
        if arena is not None and not hasattr(compiled, "last_trace"):
            arena.serve(compiled, batch, fused, batch_id, request_ids,
                        read_ms, response_queue)
            return
        outputs, compute_ms, secure_totals = run_batch(compiled, batch, fused)
    except BaseException as error:  # noqa: BLE001 — must answer the callers
        response_queue.put(("errb", batch_id, request_ids,
                            f"{type(error).__name__}: {error}"))
        return
    finally:
        if frame is not None:
            try:
                request_ring.release(frame.slot, frame.seq)
            except Exception:   # reclaimed under us — the parent gave up on us
                pass
    timings: Dict[str, Any] = {"read_ms": read_ms, "compute_ms": compute_ms}
    if secure_totals is not None:
        timings["secure"] = secure_totals
    _respond_batch(response_queue, response_ring, batch_id, request_ids,
                   outputs, timings)


def worker_main(worker_id: int, spec_dict: Dict[str, Any], state: Dict[str, np.ndarray],
                config_dict: Dict[str, Any], ring_descriptor: Optional[Dict[str, Any]],
                request_queue, response_queue) -> None:
    """Entry point executed inside each pool process.

    Top-level (not a closure) so it imports cleanly under the ``spawn`` start
    method.  ``config_dict`` is the pool's ``ServeConfig.to_dict()`` and
    ``ring_descriptor`` the worker's :meth:`WorkerRings.descriptor` (``None``
    for the pipe transport).
    """
    import signal

    # A terminal Ctrl+C delivers SIGINT to the whole foreground process
    # group.  The *parent* owns the shutdown (drain, then sentinel/terminate)
    # — a worker that died on the KeyboardInterrupt would fail every request
    # it had in flight instead of draining gracefully.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass

    request_ring = response_ring = None
    if ring_descriptor is not None:
        from .shm import WorkerRings

        request_ring, response_ring = WorkerRings.attach(ring_descriptor)

    predictor = build_serving_predictor(
        spec_dict, state,
        max_batch_size=config_dict.get("max_batch_size", 8),
        max_wait=config_dict.get("max_wait", 0.002),
        backend=config_dict.get("backend", "numpy"),
        secure=config_dict if config_dict.get("secure") else None)
    fused = bool(config_dict.get("fused_batching", False))
    arena = ResponseArena(response_ring)
    response_queue.put(("ready", worker_id, os.getpid()))
    try:
        while True:
            message = request_queue.get()
            if message is None:
                break
            if message[0] == "batch":
                _serve_batch(predictor, message, request_ring,
                             response_ring, response_queue, fused,
                             arena=arena)
                continue
            kind, request_id, payload = message
            try:
                result = execute_request(kind, payload)
                response_queue.put(("ok", request_id, result))
            except BaseException as error:  # noqa: BLE001
                response_queue.put(("err", request_id,
                                    f"{type(error).__name__}: {error}"))
    finally:
        predictor.close()      # every Predictor implementation exposes close()
        response_queue.put(("bye", worker_id))
        for ring in (request_ring, response_ring):
            if ring is not None:
                try:
                    ring.close()
                except Exception:
                    pass

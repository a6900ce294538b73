"""The single-process serving tier: asyncio front end over the
sharded engine pool.

Wire format, transport guarantees (one request per line, responses in
request order per connection, bounded framing and pipelining, graceful
drain), the admission ladder and the verb table live in
:mod:`repro.server.lineserver`, shared with the front tier; this
module fills in what is particular to the ``threads`` topology: the
``stats`` document, the local ``trace`` answer, and handing
analyze/execute to the dispatcher.

Everything that can go wrong with a payload yields a typed
:class:`~repro.api.protocol.ErrorResponse` *on the same connection*
(malformed JSON, wrong protocol version, unknown verb, oversized
request, overload shedding, analysis errors) -- the connection is never
silently dropped and a traceback never crosses the wire.

Admission (on the event loop) is deliberately cheap: decode, validate,
route.  All heavy work happens on the sharded engine pool behind the
:class:`~repro.server.dispatch.Dispatcher` -- the same
inspector/executor separation the paper applies to loops, applied to
the service.

:class:`ServerThread` (re-exported from the transport module) hosts a
server on a background thread with its own event loop -- what the load
generator's self-hosted benchmark mode and the integration tests use.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from ..api import (
    MAX_REQUEST_BYTES,
    EngineConfig,
    ErrorResponse,
    StatsResponse,
    TraceResponse,
)
from .dispatch import AdmissionController, Dispatcher
from .lineserver import LineServer, ServerThread, ready
from .metrics import ServerMetrics
from .pool import EnginePool
from .tracing import RequestTrace, TraceStore

__all__ = ["ReproServer", "ServerThread"]


class ReproServer(LineServer):
    """One serving endpoint: listener + dispatcher + engine pool.

    With ``adaptive_admission=True`` the dispatcher's in-flight budget
    is driven by an AIMD :class:`AdmissionController` fed from the
    sampler task (which also fills the metrics ring that backs protocol
    v6 ``subscribe`` streams): sustained worker-queue saturation shrinks
    the budget so overload is shed at the door, drained queues grow it
    back.
    """

    topology = trace_tier = "threads"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        engine_config: Optional[EngineConfig] = None,
        queue_depth: int = 128,
        max_inflight: int = 256,
        max_request_bytes: int = MAX_REQUEST_BYTES,
        adaptive_admission: bool = False,
        sample_interval_s: float = 0.5,
        trace_sample: float = 0.0,
        trace_store: Optional[TraceStore] = None,
    ):
        super().__init__(
            host=host, port=port, max_request_bytes=max_request_bytes,
            metrics=ServerMetrics(), sample_interval_s=sample_interval_s,
            trace_sample=trace_sample, trace_store=trace_store,
        )
        self.pool = EnginePool(
            workers=workers,
            engine_config=engine_config,
            queue_depth=queue_depth,
            metrics=self.metrics,
        )
        controller = (
            AdmissionController(max_inflight) if adaptive_admission else None
        )
        self.dispatcher = Dispatcher(
            self.pool, metrics=self.metrics, max_inflight=max_inflight,
            controller=controller,
        )

    # -- lifecycle hooks -------------------------------------------------
    async def _on_start(self) -> None:
        self.pool.start()

    async def _on_stop(self) -> None:
        # pool queues are empty by now (handlers awaited their futures);
        # drain=True also covers requests admitted but unawaited
        await asyncio.get_running_loop().run_in_executor(None, self.pool.stop)

    # -- sampling / control loop -----------------------------------------
    def _queue_depths(self) -> list:
        return [self.pool.queue_size(i) for i in range(self.pool.workers)]

    def _stream_sample(self) -> dict:
        return self.metrics.sample(gauges={
            "max_inflight": self.dispatcher.max_inflight,
            "queue_depth": self._queue_depths(),
        })

    def _on_sample(self, sample: dict) -> None:
        """Tick the admission control loop from the sampled depths."""
        self.dispatcher.adapt(
            sum(sample["gauges"]["queue_depth"]),
            self.pool.workers * self.pool.queue_depth,
        )

    # -- verbs -----------------------------------------------------------
    def _stats(self, request, payload, context):
        stats = self.metrics.snapshot()
        # live admission + queue state ride along (extension keys;
        # the registry's own key set stays schema-stable)
        stats["admission"] = self.dispatcher.admission_snapshot()
        stats["queue_depths"] = self._queue_depths()
        stats["analysis_cache"] = self.pool.analysis_cache_counts()
        stats["trace_store"] = self.trace_store.snapshot()
        return ready(StatsResponse(stats=stats))

    def _trace(self, request, payload, context):
        return ready(TraceResponse(
            traces=self._stored_traces(request),
            store=self.trace_store.snapshot(),
        ))

    def _submit(self, request, payload, trace: RequestTrace):
        try:
            return asyncio.wrap_future(
                self.dispatcher.submit(request, trace=trace)
            )
        except Exception as exc:  # noqa: BLE001 -- the contract: never drop the connection
            self.metrics.error("internal")
            trace.finish(status="error", error_code="internal")
            return ready(ErrorResponse(
                "internal", f"{type(exc).__name__}: {exc}"))

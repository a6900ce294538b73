"""The multi-process serving tier: a front-tier proxy over backend
engine processes.

The single-process tier (:mod:`repro.server.server`) shards analysis
across worker *threads*, so every concurrent cold analyze still
contends on one GIL.  :class:`FrontTier` removes that ceiling: it
speaks the same JSON-lines protocol to clients, but owns no engines --
it supervises N independent backend ``repro-eval serve`` *processes*
(:mod:`repro.server.supervisor`) and routes each request by source
digest across them on the process-level consistent-hash ring
(:mod:`repro.server.routing`).

Design rules, in routing order:

* **digest affinity** -- a program's requests land on the ring
  successor owning its digest, so each backend's compile/analysis
  caches see a stable slice of the keyspace (same property the thread
  pool has, promoted one level up);
* **liveness-aware rerouting** -- a dead backend's digests move to
  their next live successor (and only those digests move); in-flight
  requests lost to the death yield a typed *retryable* ``overloaded``
  error, never a dropped connection;
* **hot-shard replication** -- per-digest rate tracking
  (:class:`~repro.server.routing.HotShardTracker`) detects viral
  programs; their analyzes race across the digest's R-replica set
  (any-replica-wins -- the cache-warm replica answers first) and their
  executes rotate across it, so one hot program cannot pin one backend;
* **front-tier coalescing** -- identical concurrent analyzes collapse
  into one backend round-trip *before* fan-out, the same
  single-flight the backend dispatcher runs, applied fleet-wide;
* **byte transparency** -- response lines are returned verbatim, so a
  client cannot tell one backend from the fleet (tested literally:
  byte-equivalence against a direct single-process server); request
  lines are re-serialized only to inject the per-hop trace context
  (protocol v7), which default-tolerant backends ignore semantically.

The ``stats`` verb is answered by the front tier itself with a
topology-aware document: the front's own counters, the supervisor's
per-backend state (pid, restarts, last error) and each live backend's
engine-level stats, aggregated in one round.
"""

from __future__ import annotations

import asyncio
import collections
import json
import time
from typing import Deque, Dict, List, Optional

from ..api import (
    MAX_REQUEST_BYTES,
    ErrorResponse,
    StatsRequest,
    StatsResponse,
    TraceRequest,
    TraceResponse,
    wire_json,
)
from ..api.cache import JsonDiskCache
from .lineserver import LineServer
from .metrics import FrontTierMetrics
from .routing import HotShardTracker, Router
from .supervisor import BackendSupervisor, serve_backend_command
from .tracing import RequestTrace, TraceStore

__all__ = ["BackendDied", "FrontTier"]

#: StreamReader limit for backend connections: response lines (large
#: execute payloads echo arrays back) can far exceed request size.
MAX_RESPONSE_BYTES = 32 * 1024 * 1024

#: Pipelined TCP connections per backend.  Two keeps a slow response on
#: one connection from head-of-line-blocking everything else bound for
#: that backend, without fanning every backend into a connection herd.
CONNS_PER_BACKEND = 2

#: Per-backend timeout when aggregating the topology stats document.
STATS_TIMEOUT_S = 5.0


class BackendDied(Exception):
    """The backend handling a forwarded request went away before
    answering."""


def _died_error() -> ErrorResponse:
    return ErrorResponse(
        "overloaded",
        "backend process died mid-request; safe to retry",
        retryable=True,
    )


def _response_status(response) -> tuple:
    """(status, error_code) for a handler's return value: a raw backend
    response line, a typed :class:`ErrorResponse`, or ``None`` (the
    handler raised)."""
    if response is None:
        return "error", "internal"
    if isinstance(response, ErrorResponse):
        return "error", response.code
    if isinstance(response, (bytes, bytearray)) and (
        b'"kind": "error"' in response or b'"kind":"error"' in response
    ):
        try:
            doc = json.loads(response)
            if isinstance(doc, dict) and doc.get("kind") == "error":
                return "error", doc.get("code", "internal")
        except ValueError:
            pass
    return "ok", None


class _BackendConn:
    """One pipelined connection to one backend process.

    Requests go out in order; the backend answers in order; a FIFO of
    futures matches them back up.  EOF or a transport error fails every
    outstanding future with :class:`BackendDied`.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._pending: Deque[asyncio.Future] = collections.deque()
        self.closed = False
        self._pump = asyncio.create_task(self._read_loop())

    @classmethod
    async def open(cls, host: str, port: int) -> "_BackendConn":
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_RESPONSE_BYTES
        )
        return cls(reader, writer)

    @property
    def inflight(self) -> int:
        return len(self._pending)

    def send(self, raw_line: bytes) -> asyncio.Future:
        """Forward one request line; the returned future resolves to the
        backend's raw response line (no newline) or raises
        :class:`BackendDied`."""
        if self.closed:
            raise BackendDied("connection already closed")
        future = asyncio.get_running_loop().create_future()
        self._pending.append(future)
        try:
            self._writer.write(raw_line + b"\n")
        except (ConnectionError, OSError, RuntimeError) as exc:
            self._pending.remove(future)
            self._fail(exc)
            raise BackendDied(str(exc)) from exc
        return future

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                if not self._pending:
                    continue  # backend spoke out of turn; nothing waits
                future = self._pending.popleft()
                if not future.done():
                    future.set_result(line.rstrip(b"\n"))
        except (ConnectionError, OSError, ValueError, asyncio.LimitOverrunError):
            pass
        finally:
            self._fail(BackendDied("backend connection lost"))

    def _fail(self, exc: Exception) -> None:
        self.closed = True
        while self._pending:
            future = self._pending.popleft()
            if not future.done():
                if isinstance(exc, BackendDied):
                    future.set_exception(exc)
                else:
                    future.set_exception(BackendDied(str(exc)))
        try:
            self._writer.close()
        except Exception:  # noqa: BLE001 -- teardown must not raise
            pass

    async def close(self) -> None:
        self._fail(BackendDied("connection closed"))
        self._pump.cancel()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class _BackendLink:
    """The front tier's view of one supervised backend slot: its
    liveness, current address, and pipelined connection pool."""

    def __init__(self, index: int):
        self.index = index
        self.live = False
        self.address: Optional[tuple] = None
        self.conns: List[_BackendConn] = []

    def up(self, host: str, port: int) -> None:
        self.live = True
        self.address = (host, port)

    def down(self) -> List[_BackendConn]:
        """Mark dead; hand back the connections to fail/close."""
        self.live = False
        self.address = None
        conns, self.conns = self.conns, []
        return conns

    async def acquire(self) -> _BackendConn:
        """The least-loaded open connection, dialing up to
        ``CONNS_PER_BACKEND`` lazily."""
        if not self.live or self.address is None:
            raise BackendDied(f"backend {self.index} is not live")
        self.conns = [c for c in self.conns if not c.closed]
        idle = min(self.conns, key=lambda c: c.inflight, default=None)
        if idle is not None and (idle.inflight == 0 or len(self.conns) >= CONNS_PER_BACKEND):
            return idle
        host, port = self.address
        try:
            conn = await _BackendConn.open(host, port)
        except (ConnectionError, OSError) as exc:
            # supervisor says up but the dial failed: restart race
            raise BackendDied(f"backend {self.index} refused connection") from exc
        self.conns.append(conn)
        return conn


class FrontTier(LineServer):
    """The multi-process serving endpoint: proxy + supervisor + ring.

    The front door (admission ladder, verb table, ``subscribe``, trace
    adoption) is :class:`LineServer`'s, so a request is validated here
    with the same typed answers a single-process server gives, without
    burning a backend round trip on garbage.  The metrics stream runs
    over the *front tier's* registry (backend engine stats stay
    poll-only via ``stats``): its gauges carry per-backend in-flight
    and the live count, its ``hot_shards`` the tracker snapshot.
    """

    topology = "multiproc"
    trace_tier = "front"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        backends: int = 4,
        replicas: int = 2,
        backend_command=None,
        backend_workers: int = 2,
        cache_dir: Optional[str] = None,
        use_disk_cache: bool = True,
        hot_rps: float = 32.0,
        hot_window_s: float = 1.0,
        vnodes: int = 64,
        max_request_bytes: int = MAX_REQUEST_BYTES,
        startup_timeout_s: float = 120.0,
        supervisor: Optional[BackendSupervisor] = None,
        sample_interval_s: float = 0.5,
        trace_sample: float = 0.0,
        trace_store: Optional[TraceStore] = None,
    ):
        super().__init__(
            host=host, port=port, max_request_bytes=max_request_bytes,
            metrics=FrontTierMetrics(), sample_interval_s=sample_interval_s,
            trace_sample=trace_sample, trace_store=trace_store,
        )
        if backends < 1:
            raise ValueError(f"backends must be >= 1 (got {backends})")
        self.backends = backends
        self.replicas = max(1, min(replicas, backends))
        self.router = Router(backends, vnodes=vnodes)
        self.tracker = HotShardTracker(window_s=hot_window_s, hot_rps=hot_rps)
        self.startup_timeout_s = startup_timeout_s
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._links = [_BackendLink(i) for i in range(backends)]
        self._inflight_analyses: Dict[tuple, asyncio.Future] = {}
        self._rotation = 0
        if supervisor is not None:
            self.supervisor = supervisor
            self.supervisor.on_up = self._on_backend_up
            self.supervisor.on_down = self._on_backend_down
        else:
            if backend_command is None:
                backend_command = serve_backend_command(
                    workers=backend_workers,
                    cache_dir=cache_dir,
                    use_disk_cache=use_disk_cache,
                )
            self.supervisor = BackendSupervisor(
                backends,
                backend_command,
                on_up=self._on_backend_up,
                on_down=self._on_backend_down,
            )

    # -- supervisor callbacks (arrive on monitor threads) ----------------
    def _on_backend_up(self, index: int, host: str, port: int) -> None:
        if self._loop is not None and not self._loop.is_closed():
            self._loop.call_soon_threadsafe(self._mark_up, index, host, port)

    def _on_backend_down(self, index: int) -> None:
        if self._loop is not None and not self._loop.is_closed():
            self._loop.call_soon_threadsafe(self._mark_down, index)

    def _mark_up(self, index: int, host: str, port: int) -> None:
        self._links[index].up(host, port)

    def _mark_down(self, index: int) -> None:
        self.metrics.backend_died()
        for conn in self._links[index].down():
            conn._fail(BackendDied(f"backend {index} exited"))

    def _live_set(self) -> frozenset:
        return frozenset(l.index for l in self._links if l.live)

    # -- lifecycle -------------------------------------------------------
    async def _on_start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.supervisor.start()
        up = await self._loop.run_in_executor(
            None, self.supervisor.wait_up, self.startup_timeout_s
        )
        if not up:
            await self._loop.run_in_executor(None, self.supervisor.stop)
            raise RuntimeError(
                f"backend fleet failed to start within "
                f"{self.startup_timeout_s:.0f}s "
                f"({[s.to_json() for s in self.supervisor.statuses()]})"
            )

    async def _on_stop(self) -> None:
        for link in self._links:
            for conn in link.down():
                await conn.close()
        await asyncio.get_running_loop().run_in_executor(None, self.supervisor.stop)

    # -- sampling --------------------------------------------------------
    def _backend_inflight(self) -> list:
        """Requests in flight per backend slot, over its open pipelined
        connections (0 for a dead slot)."""
        return [
            sum(c.inflight for c in link.conns if not c.closed)
            for link in self._links
        ]

    def _stream_sample(self) -> dict:
        """One metrics ring sample with the proxy tier's gauges and the
        hot-shard snapshot attached."""
        return self.metrics.sample(
            gauges={
                "backend_inflight": self._backend_inflight(),
                "backends_live": len(self._live_set()),
            },
            extra={"hot_shards": self.tracker.snapshot()},
        )

    # -- verbs -----------------------------------------------------------
    def _stats(self, request, payload, context):
        return asyncio.ensure_future(self._topology_stats())

    def _trace(self, request, payload, context):
        return asyncio.ensure_future(self._trace_fetch(request))

    def _submit(self, request, payload, trace: RequestTrace):
        return asyncio.ensure_future(self._handle(request.KIND, payload, trace))

    # -- tracing ---------------------------------------------------------
    async def _trace_fetch(self, request: TraceRequest) -> TraceResponse:
        """Answer ``trace`` from the front store, stitching in the child
        spans each live backend recorded for the same trace id."""
        stitched = []
        for doc in self._stored_traces(request):
            children = await self._backend_spans(doc["trace_id"])
            if children:
                have = {span["span_id"] for span in doc["spans"]}
                fresh = [s for s in children if s["span_id"] not in have]
                if fresh:
                    self.trace_store.extend(doc["trace_id"], fresh)
                    updated = self.trace_store.get(doc["trace_id"])
                    if updated is not None:
                        doc = updated
            stitched.append(doc)
        return TraceResponse(
            traces=stitched, store=self.trace_store.snapshot()
        )

    async def _backend_spans(self, trace_id: str) -> list:
        """Every live backend's spans for one trace id (best effort:
        dead/slow backends and evicted traces just contribute none)."""
        fetch_line = wire_json(
            TraceRequest(trace_id=trace_id).to_json()
        ).encode()

        async def one(index: int) -> list:
            try:
                line = await asyncio.wait_for(
                    self._forward(index, fetch_line), STATS_TIMEOUT_S
                )
                doc = json.loads(line)
                if doc.get("kind") == "trace":
                    spans = []
                    for trace_doc in doc.get("traces", []):
                        spans.extend(trace_doc.get("spans", []))
                    return spans
            except (BackendDied, asyncio.TimeoutError, ValueError):
                pass
            return []

        gathered = await asyncio.gather(
            *(one(i) for i in sorted(self._live_set()))
        )
        return [span for spans in gathered for span in spans]

    # -- request handling -------------------------------------------------
    async def _handle(self, kind: str, payload: dict, trace: RequestTrace):
        started = time.monotonic()
        self.metrics.request_admitted()
        response = None
        try:
            digest = JsonDiskCache.digest(payload["source"])
            self.tracker.observe(digest)
            if kind == "analyze":
                response = await self._handle_analyze(digest, payload, trace)
            else:
                response = await self._handle_execute(digest, payload, trace)
            return response
        finally:
            self.metrics.request_completed(time.monotonic() - started)
            status, code = _response_status(response)
            trace.finish(status=status, error_code=code)

    async def _handle_analyze(self, digest: str, payload: dict,
                              trace: RequestTrace):
        # fleet-wide single-flight: concurrent identical analyzes ride
        # one backend round-trip (same key the backend dispatcher uses)
        options = payload.get("options") or {}
        key = (
            digest,
            payload.get("loop"),
            tuple(sorted((str(n), repr(v)) for n, v in options.items())),
        )
        leader = self._inflight_analyses.get(key)
        if leader is not None:
            self.metrics.coalesced()
            join_span = trace.start_span("coalesce_join")
            try:
                return await asyncio.shield(leader)
            finally:
                trace.end_span(join_span)
        future = asyncio.ensure_future(
            self._route_analyze(digest, payload, trace)
        )
        self._inflight_analyses[key] = future
        try:
            return await asyncio.shield(future)
        finally:
            if self._inflight_analyses.get(key) is future:
                del self._inflight_analyses[key]

    def _route_span(self, trace: RequestTrace, digest: str, target,
                    hot: bool, fanout=None) -> None:
        """Record the routing decision as an (instant) span: the ring
        primary, the chosen target (or fan-out set) and whether the
        hot-shard path fired."""
        primary = self.router.primary(digest)
        span = trace.start_span(
            "route", primary=primary, hot=hot,
            rerouted=bool(target is not None and target != primary),
        )
        if target is not None:
            span.set("target", target)
        if fanout is not None:
            span.set("fanout", list(fanout))
        trace.end_span(span)

    async def _route_analyze(self, digest: str, payload: dict,
                             trace: RequestTrace):
        if self.replicas > 1 and self.tracker.is_hot(digest):
            live = self._live_set()
            targets = [b for b in self.router.replicas(digest, self.replicas)
                       if b in live]
            if len(targets) > 1:
                self.metrics.fanout()
                self._route_span(trace, digest, None, hot=True,
                                 fanout=targets)
                return await self._race(targets, payload, trace)
        return await self._forward_routed(digest, payload, trace)

    async def _handle_execute(self, digest: str, payload: dict,
                              trace: RequestTrace):
        # executes mutate nothing shared (engines are deterministic and
        # caches content-addressed), so a hot digest's executes rotate
        # across its replica set instead of pinning the primary
        if self.replicas > 1 and self.tracker.is_hot(digest):
            live = self._live_set()
            targets = [b for b in self.router.replicas(digest, self.replicas)
                       if b in live]
            if len(targets) > 1:
                self.metrics.fanout()
                self._rotation += 1
                index = targets[self._rotation % len(targets)]
                self._route_span(trace, digest, index, hot=True)
                try:
                    return await self._forward(
                        index, None, trace=trace, payload=payload
                    )
                except BackendDied:
                    pass  # fall through to the ring walk
        return await self._forward_routed(digest, payload, trace)

    async def _forward_routed(self, digest: str, payload: dict,
                              trace: RequestTrace):
        """Walk the digest's ring successors until a live backend
        answers; each hop only happens when the previous owner died."""
        tried = set()
        while True:
            live = self._live_set() - tried
            index = self.router.route(digest, live)
            if index is None:
                self.metrics.error("overloaded")
                return _died_error() if tried else ErrorResponse(
                    "overloaded", "no live backend", retryable=True)
            if index != self.router.primary(digest):
                self.metrics.rerouted()
            self._route_span(trace, digest, index, hot=False)
            tried.add(index)
            try:
                return await self._forward(
                    index, None, trace=trace, payload=payload
                )
            except BackendDied:
                continue

    async def _race(self, targets: List[int], payload: dict,
                    trace: RequestTrace):
        """Any-replica-wins: forward to every live replica, return the
        first successful response (the cache-warm replica answers in
        microseconds while a cold one compiles).  Falls back to the
        first typed error when no replica succeeds."""
        tasks = [
            asyncio.ensure_future(
                self._forward(i, None, trace=trace, payload=payload)
            )
            for i in targets
        ]
        first_error = None
        pending = set(tasks)
        try:
            while pending:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    if task.exception() is not None:
                        continue  # that replica died; others may answer
                    line = task.result()
                    if b'"kind": "error"' in line or b'"kind":"error"' in line:
                        try:
                            if json.loads(line).get("kind") == "error":
                                if first_error is None:
                                    first_error = line
                                continue
                        except ValueError:
                            pass
                    return line
            if first_error is not None:
                return first_error
            self.metrics.error("overloaded")
            return _died_error()
        finally:
            for task in pending:
                # losers keep draining on their connections' FIFOs; the
                # forward tasks just stop being awaited
                task.add_done_callback(lambda t: t.exception())

    async def _forward(self, index: int, raw: Optional[bytes],
                       trace: Optional[RequestTrace] = None,
                       payload: Optional[dict] = None) -> bytes:
        """One backend round-trip.  With a trace, the request is
        re-serialized per attempt with this hop's child context
        injected, and the RPC becomes a ``backend_rpc`` span whose
        error status survives the backend's death (the retryable-error
        span the SIGKILL tests pin)."""
        if trace is None or payload is None:
            conn = await self._links[index].acquire()
            return await conn.send(raw)
        span = trace.start_span("backend_rpc", backend=index)
        doc = dict(payload)
        doc["trace"] = trace.child_context(span.span_id).to_wire()
        try:
            conn = await self._links[index].acquire()
            line = await conn.send(wire_json(doc).encode())
        except BackendDied:
            span.set("error", "backend_died")
            span.set("retryable", True)
            trace.end_span(span, status="error")
            raise
        status, code = _response_status(line)
        if code is not None:
            span.set("error_code", code)
        trace.end_span(span, status=status)
        return line

    # -- topology stats ----------------------------------------------------
    async def _topology_stats(self) -> StatsResponse:
        """The front tier's own ``stats`` answer: front counters +
        supervisor view + every live backend's engine stats."""
        stats_line = wire_json(StatsRequest().to_json()).encode()

        async def one(index: int):
            try:
                line = await asyncio.wait_for(
                    self._forward(index, stats_line), STATS_TIMEOUT_S
                )
                payload = json.loads(line)
                if payload.get("kind") == "stats":
                    return payload.get("stats")
            except (BackendDied, asyncio.TimeoutError, ValueError):
                pass
            return None

        live = sorted(self._live_set())
        gathered = await asyncio.gather(*(one(i) for i in live))
        per_backend = dict(zip(live, gathered))
        backends_doc = []
        for status in self.supervisor.statuses():
            doc = status.to_json()
            doc["stats"] = per_backend.get(status.index)
            backends_doc.append(doc)
        front = self.metrics.snapshot()
        front["hot_shards"] = self.tracker.snapshot()
        front["backend_inflight"] = self._backend_inflight()
        return StatsResponse(stats={
            "backends": backends_doc,
            "front": front,
            "topology": {
                "backends": self.backends,
                "kind": "multiproc",
                "live": len(live),
                "replicas": self.replicas,
            },
        })

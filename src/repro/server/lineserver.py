"""The shared asyncio JSON-lines-over-TCP transport.

Both serving tiers speak the same wire format -- one request document
per line, one response document per line, responses **in request order
per connection** while the server works on pipelined requests
concurrently -- so the transport lives here once:

* :class:`ReproServer <repro.server.server.ReproServer>` (the
  single-process engine-pool tier) and
* :class:`FrontTier <repro.server.proxy.FrontTier>` (the multi-process
  front tier)

both subclass :class:`LineServer`, which owns -- once, for every tier
-- the front door as well as the transport:

* the **admission ladder** (:meth:`LineServer._admit`): oversized ->
  JSON -> object -> version -> verb -> decode, each rung answering a
  typed :class:`~repro.api.protocol.ErrorResponse` on the same
  connection, so a hostile line gets the same bytes from either tier;
* the **verb table** (:attr:`LineServer.verbs`): ``kind`` -> handler,
  over exactly the request kinds the protocol declares;
* everything about a verb that does not depend on the tier:
  ``subscribe`` / ``unsubscribe``, trace-context adoption with head
  sampling, the stored-trace lookup, the sampler task that fills the
  metrics ring, and the connection gauges.

A tier fills in only what truly differs: how ``stats`` is assembled,
how ``trace`` is fetched (local vs stitched across backends), how
analyze/execute is submitted (dispatcher vs forward), its gauges
(``_stream_sample``), its labels, and the ``_on_start`` / ``_on_stop``
hooks owning whatever backs the admission (an engine pool, a backend
fleet).

The transport guarantees are the protocol's hard promises and are
enforced here for every tier: bounded line framing (oversized lines
yield a ``too_large`` error and the stream resynchronizes at the next
newline), bounded per-connection pipelining (TCP backpressure instead
of unbounded buffering), and a graceful shutdown that stops accepting,
drains every admitted request, and flushes the responses.
"""

from __future__ import annotations

import asyncio
import json
import random
import threading
from typing import Optional

from ..api import PROTOCOL_VERSION, ErrorResponse, request_from_json, wire_json
from .stream import ResponseStream, Subscription
from .tracing import RequestTrace, TraceContext, TraceStore

__all__ = ["ConnectionContext", "LineServer", "ServerThread"]

#: Upper bound on responses admitted-but-unwritten per connection.  A
#: client that pipelines without reading fills this queue, which stops
#: the server reading its connection -- TCP backpressure instead of
#: unbounded buffering.
MAX_PIPELINED = 256

#: How long one response write may wait for the peer to read before the
#: connection is treated as broken and its remaining output dropped.
DRAIN_TIMEOUT_S = 60.0


class _LineReader:
    """Bounded line framing over an asyncio stream.

    ``next()`` returns ``(line_bytes, None)`` for each complete line,
    ``(None, "too_large")`` once per oversized line (whose remaining
    bytes are then discarded up to its newline, resynchronizing the
    stream), and ``None`` at EOF.
    """

    def __init__(self, reader: asyncio.StreamReader, max_bytes: int):
        self.reader = reader
        self.max_bytes = max_bytes
        self._buffer = bytearray()
        self._discarding = False
        self._eof = False

    async def next(self):
        while True:
            line = self._take_line()
            if line is not None:
                return line
            if self._eof:
                if self._buffer and not self._discarding:
                    # lenient: serve a trailing unterminated line
                    tail = bytes(self._buffer)
                    self._buffer.clear()
                    return (tail, None)
                return None
            chunk = await self.reader.read(65536)
            if not chunk:
                self._eof = True
            else:
                self._buffer += chunk
                if self._discarding:
                    newline = self._buffer.find(b"\n")
                    if newline < 0:
                        self._buffer.clear()
                    else:
                        del self._buffer[: newline + 1]
                        self._discarding = False
                elif self._buffer.find(b"\n") < 0 and len(self._buffer) > self.max_bytes:
                    self._buffer.clear()
                    self._discarding = True
                    return (None, "too_large")

    def _take_line(self):
        newline = self._buffer.find(b"\n")
        if newline < 0:
            return None
        line = bytes(self._buffer[:newline])
        del self._buffer[: newline + 1]
        if len(line) > self.max_bytes:
            return (None, "too_large")
        return (line, None)


class ConnectionContext:
    """Per-connection admission state.

    Today that is exactly one thing: the connection's active metrics
    stream, if any (the protocol allows one live ``subscribe`` per
    connection).  The transport closes the context on teardown so a
    client that disconnects mid-stream -- or a server shutting down --
    never leaves a subscription ticking.
    """

    def __init__(self):
        self.subscription: Optional[ResponseStream] = None

    def close(self) -> None:
        if self.subscription is not None:
            self.subscription.stop()


class LineServer:
    """One JSON-lines serving endpoint: listener, per-connection pump,
    admission ladder and verb table (see the module docstring).

    A tier subclass provides the ``_stats`` / ``_trace`` / ``_submit``
    handlers, ``_stream_sample`` and the ``_on_start`` / ``_on_stop``
    lifecycle hooks; every handler runs on the event loop, must stay
    cheap, and returns an awaitable resolving to a response document
    (or raw response bytes), or a
    :class:`~repro.server.stream.ResponseStream`.
    """

    #: the tier's label in metrics-stream frames (``stream.topology``)
    topology = ""
    #: ... and on the root span of the traces it records (``tier``)
    trace_tier = ""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_request_bytes: int = 1024 * 1024,
        *,
        metrics,
        sample_interval_s: float = 0.5,
        trace_sample: float = 0.0,
        trace_store: Optional[TraceStore] = None,
    ):
        if sample_interval_s <= 0:
            raise ValueError(
                f"sample_interval_s must be > 0 (got {sample_interval_s})"
            )
        if not 0.0 <= trace_sample <= 1.0:
            raise ValueError(
                f"trace_sample must be in [0, 1] (got {trace_sample})"
            )
        self.host = host
        self.port = port  # 0 = ephemeral; the bound port replaces it on start
        self.max_request_bytes = max_request_bytes
        self.metrics = metrics
        self.sample_interval_s = sample_interval_s
        #: head-sampling probability: a request arriving without a wire
        #: trace context (or with an unsampled one) is force-sampled at
        #: this rate, which turns on phase attribution and guaranteed
        #: retention for it; the flag rides the per-hop context to any
        #: downstream tier, so one decision covers the whole request
        self.trace_sample = trace_sample
        self.trace_store = trace_store if trace_store is not None else TraceStore()
        self._trace_rng = random.Random()
        #: ``kind`` -> ``handler(request, payload, context)``
        self.verbs = {
            "analyze": self._work,
            "execute": self._work,
            "stats": self._stats,
            "subscribe": self._subscribe,
            "trace": self._trace,
            "unsubscribe": self._unsubscribe,
        }
        self._sampler_task: Optional[asyncio.Task] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._stopped: Optional[asyncio.Event] = None
        self._conn_tasks: set = set()

    # -- tier surface ---------------------------------------------------
    async def _on_start(self) -> None:
        """Bring up whatever backs admission (pool, backend fleet)."""

    async def _on_stop(self) -> None:
        """Tear the backing down; runs after every connection drained."""

    def _stream_sample(self) -> dict:
        """One metrics ring sample with this tier's gauges attached."""
        raise NotImplementedError

    def _on_sample(self, sample: dict) -> None:
        """Sampler-tick hook (the admission control loop feeds here)."""

    def _stats(self, request, payload, context):
        raise NotImplementedError

    def _trace(self, request, payload, context):
        raise NotImplementedError

    def _submit(self, request, payload, trace: RequestTrace):
        """Start one analyze/execute on whatever backs this tier."""
        raise NotImplementedError

    # -- admission ------------------------------------------------------
    def _reject(self, code: str, message: str):
        self.metrics.error(code)
        return ready(ErrorResponse(code, message))

    def _admit(self, line, oversized, context):
        """The admission ladder: cheap per-request validation and
        routing.  Everything that can be wrong with a line is answered
        here, typed, without a queue slot or a backend round trip."""
        if oversized:
            return self._reject(
                "too_large", f"request exceeds {self.max_request_bytes} bytes")
        try:
            payload = json.loads(line)
        except ValueError:
            return self._reject("malformed", "request is not valid JSON")
        if not isinstance(payload, dict):
            return self._reject("malformed", "request must be a JSON object")
        version = payload.get("version")
        if version != PROTOCOL_VERSION:
            return self._reject(
                "unsupported_version",
                f"unsupported protocol version {version!r} "
                f"(this server speaks {PROTOCOL_VERSION})",
            )
        kind = payload.get("kind")
        # a non-string tag (a list is valid JSON) is unknown, not a
        # TypeError out of the table lookup
        handler = self.verbs.get(kind) if isinstance(kind, str) else None
        if handler is None:
            return self._reject("unknown_verb", f"unknown request kind {kind!r}")
        self.metrics.request_received(kind)
        try:
            request = request_from_json(payload)
        except Exception as exc:  # noqa: BLE001 -- any decode failure is the
            # request's fault, and the contract is a typed response, never
            # a dropped connection
            return self._reject(
                "bad_request", str(exc.args[0] if exc.args else exc))
        return handler(request, payload, context)

    def _work(self, request, payload, context):
        """analyze / execute: adopt the request's wire trace context
        (or mint a fresh one), apply head sampling, hand to the tier."""
        trace = RequestTrace.adopt(
            TraceContext.from_wire(request.trace), store=self.trace_store,
            verb=request.KIND, tier=self.trace_tier,
        )
        if (not trace.sampled and self.trace_sample > 0.0
                and self._trace_rng.random() < self.trace_sample):
            trace.sampled = True
        return self._submit(request, payload, trace)

    def _stored_traces(self, request) -> list:
        """This tier's own answer to a :class:`TraceRequest`."""
        if request.trace_id:
            doc = self.trace_store.get(request.trace_id)
            return [doc] if doc is not None else []
        return self.trace_store.recent(
            limit=request.limit, status=request.status)

    def _subscribe(self, request, payload, context):
        """Start this connection's metrics stream over the tier's own
        registry (one live stream per connection; re-subscribing is
        fine once the previous finished)."""
        active = context.subscription
        if active is not None and not active.finished:
            return self._reject(
                "bad_request",
                "a metrics stream is already active on this connection")
        context.subscription = Subscription(
            self._stream_sample,
            self.topology,
            interval_s=request.interval_s,
            frames=request.frames,
            history=request.history,
            recent_fn=self.metrics.recent_samples,
        )
        return context.subscription

    def _unsubscribe(self, request, payload, context):
        """Stop the connection's stream; the ack (with the exact frame
        count) resolves once the final frame is out, which keeps the
        in-order response contract: frames..., final frame, ack."""
        subscription = context.subscription
        if subscription is None:
            return self._reject(
                "bad_request", "no metrics stream on this connection")
        subscription.stop()
        return subscription.ack()

    # -- sampling -------------------------------------------------------
    async def _sample_loop(self) -> None:
        """Fill the metrics ring (the history a late ``subscribe``
        sees) and tick the tier's control loop, if it has one."""
        while True:
            await asyncio.sleep(self.sample_interval_s)
            self._on_sample(self._stream_sample())

    async def _stop_backing(self) -> None:
        if self._sampler_task is not None:
            self._sampler_task.cancel()
            try:
                await self._sampler_task
            except asyncio.CancelledError:
                pass
            self._sampler_task = None
        await self._on_stop()

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> "LineServer":
        self._stop_event = asyncio.Event()
        self._stopped = asyncio.Event()
        await self._on_start()
        self._sampler_task = asyncio.ensure_future(self._sample_loop())
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
        except BaseException:
            # a failed bind (port in use, bad host) must not leak the
            # idle backing resources
            await self._stop_backing()
            raise
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, stop reading, let every
        admitted request finish and its response flush, then stop the
        backing."""
        if self._stop_event is None or self._stop_event.is_set():
            return
        self._stop_event.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
        await self._stop_backing()
        self._stopped.set()

    async def serve_forever(self) -> None:
        """Run until a :meth:`stop` call (from a signal handler or
        another task) has *completed* the graceful shutdown."""
        if self._server is None:
            await self.start()
        await self._stopped.wait()

    # -- connection handling --------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        self.metrics.connection_opened()
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        order: asyncio.Queue = asyncio.Queue(maxsize=MAX_PIPELINED)
        writer_task = asyncio.create_task(self._write_responses(order, writer))
        liner = _LineReader(reader, self.max_request_bytes)
        context = ConnectionContext()
        stop_wait = asyncio.create_task(self._stop_event.wait())
        try:
            while not self._stop_event.is_set():
                next_line = asyncio.create_task(liner.next())
                done, _pending = await asyncio.wait(
                    {next_line, stop_wait},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if next_line not in done:
                    next_line.cancel()
                    break
                try:
                    item = next_line.result()
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                if item is None:  # client closed its half
                    break
                line, oversized = item
                if line is not None and not line.strip():
                    continue  # blank keepalive line
                await order.put(self._admit(line, oversized, context))
        finally:
            stop_wait.cancel()
            # stop any live stream before the writer drain: the stream
            # emits its final frame promptly and the writer terminates
            context.close()
            try:
                # the writer keeps draining concurrently, so this
                # terminates even when the pipeline is full; a peer that
                # stopped reading is bounded by the drain timeout
                await order.put(None)
                await writer_task
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
                self._conn_tasks.discard(task)
                self.metrics.connection_closed()

    async def _write_responses(self, order: asyncio.Queue, writer) -> None:
        """Await pipelined responses in arrival order and write them.

        A response may be a protocol document (``to_json()``), raw
        ``bytes`` -- an already-serialized line a proxying tier forwards
        verbatim, so a front tier is byte-transparent to its backends --
        or a :class:`~repro.server.stream.ResponseStream`, whose frames
        are each written as their own line while the stream occupies its
        single in-order slot.
        """
        broken = False
        while True:
            pending = await order.get()
            if pending is None:
                return
            if isinstance(pending, ResponseStream):
                broken = await self._write_stream(pending, writer, broken)
                continue
            response = await pending
            if broken:
                continue  # keep consuming futures; peer is gone
            try:
                if isinstance(response, (bytes, bytearray)):
                    writer.write(bytes(response) + b"\n")
                else:
                    writer.write(wire_json(response.to_json()).encode() + b"\n")
                await asyncio.wait_for(writer.drain(), DRAIN_TIMEOUT_S)
            except (ConnectionError, OSError, asyncio.TimeoutError):
                broken = True

    async def _write_stream(self, stream, writer, broken: bool) -> bool:
        """Drain one response stream, writing each frame as a line.

        Always iterates to exhaustion even on a broken peer -- the
        stream's cleanup (resolving a pipelined unsubscribe ack) runs in
        its generator's ``finally`` -- but stops the stream first so
        that takes one final frame, not the full schedule.  Returns the
        updated *broken* flag.
        """
        if broken:
            stream.stop()
        try:
            async for frame in stream.frames():
                if broken:
                    continue
                try:
                    writer.write(wire_json(frame.to_json()).encode() + b"\n")
                    await asyncio.wait_for(writer.drain(), DRAIN_TIMEOUT_S)
                except (ConnectionError, OSError, asyncio.TimeoutError):
                    broken = True
                    stream.stop()
        except Exception:
            # a stream that dies (a failing sample_fn) must not take the
            # writer loop -- and the rest of the connection -- with it
            stream.stop()
        return broken


def ready(response):
    """A resolved future for a response computed during admission."""
    future = asyncio.get_running_loop().create_future()
    future.set_result(response)
    return future


class ServerThread:
    """Host any :class:`LineServer` on a dedicated event-loop thread.

    ``start()`` blocks until the port is bound (so callers can connect
    immediately); ``stop()`` performs the graceful shutdown and joins
    the thread.  Used by the self-hosted load-generation benchmarks and
    the integration tests; the CLI runs servers on the main thread
    instead.

    Construction: either pass a ready server instance (``server=``), or
    pass :class:`~repro.server.ReproServer` keyword arguments (the
    historical form, which builds a single-process engine-pool server).
    """

    def __init__(self, server: Optional[LineServer] = None, **server_kwargs):
        if server is not None and server_kwargs:
            raise ValueError("pass either server= or ReproServer kwargs, not both")
        if server is None:
            from .server import ReproServer

            server = ReproServer(**server_kwargs)
        self.server = server
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._bound = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self._thread.start()
        self._bound.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    @property
    def address(self) -> tuple:
        return (self.server.host, self.server.port)

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            try:
                self._loop.run_until_complete(self.server.start())
            except BaseException as exc:
                self._startup_error = exc
                return
            finally:
                self._bound.set()
            self._loop.run_until_complete(self.server.serve_forever())
            self._loop.run_until_complete(self._loop.shutdown_asyncgens())
            self._loop.run_until_complete(self._loop.shutdown_default_executor())
        finally:
            asyncio.set_event_loop(None)
            self._loop.close()

    def stop(self) -> None:
        if self._loop is None or self._thread is None:
            return
        if self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.server.stop(), self._loop
            )
            future.result(timeout=120)
        self._thread.join(timeout=120)

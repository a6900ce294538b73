"""repro.server: the network serving subsystem.

Puts the :mod:`repro.api` protocol on a socket and keeps it healthy
under concurrent load.  The layering mirrors the paper's
inspector/executor split -- a cheap admission/dispatch front and a
heavy analysis back end:

* :class:`ReproServer` (``server.py``) -- asyncio JSON-lines-over-TCP:
  one request per line, one response per line, responses in request
  order per connection, typed error documents for everything that goes
  wrong, graceful shutdown;
* :class:`EnginePool` (``pool.py``) -- N worker threads, each owning an
  :class:`~repro.api.Engine`; requests routed by source digest on a
  consistent-hash ring for cache locality;
* :class:`Dispatcher` (``dispatch.py``) -- admission control: a global
  max-in-flight budget, bounded per-worker queues with typed
  ``overloaded`` shedding, and in-flight coalescing of identical
  analyze work;
* :class:`ServerMetrics` (``metrics.py``) -- counters + latency
  histogram served through the protocol's ``stats`` verb, plus a
  bounded ring of recent samples;
* :class:`Subscription` (``stream.py``) -- the protocol v6
  ``subscribe`` verb: live incremental metrics frames pushed over the
  same connection, rendered by ``repro-eval top`` (``top.py``);
* :class:`RequestTrace` / :class:`TraceStore` (``tracing.py``) -- the
  protocol v7 per-request distributed tracing: spans at every layer,
  tail-based retention (errors and the slow tail always kept), served
  by the ``trace`` verb and rendered as a waterfall by ``repro-eval
  trace`` (``traceview.py``);
* :class:`ServerClient` (``client.py``) -- a small blocking client;
* :mod:`repro.server.loadgen` -- open-/closed-loop load generation
  (uniform or zipf-skewed) against a running server.

The multi-process tier (``--topology multiproc``) stacks three more
modules on the same transport (``lineserver.py``):

* :class:`FrontTier` (``proxy.py``) -- a front-tier proxy speaking the
  identical protocol, routing requests by source digest across backend
  *processes*, racing hot digests across replicas, and answering
  ``stats`` with an aggregated topology document;
* :class:`BackendSupervisor` (``supervisor.py``) -- spawns/monitors N
  backend ``repro-eval serve`` processes, restarts crashes with
  exponential backoff, drains on shutdown;
* :class:`Router` / :class:`HotShardTracker` (``routing.py``) -- the
  consistent-hash ring promoted to process level plus sliding-window
  hot-shard detection.

Quickstart::

    repro-eval serve --port 7070 --workers 4          # terminal 1
    repro-eval loadgen --port 7070 --clients 8 --requests 200

or in-process::

    from repro.server import ServerThread, ServerClient
    from repro.api import AnalyzeRequest

    hosted = ServerThread(workers=4).start()
    host, port = hosted.address
    with ServerClient(host, port) as client:
        response = client.call(AnalyzeRequest(source=SOURCE, loop="my_loop"))
        print(client.stats().stats["latency"])
    hosted.stop()

See ``docs/SERVER.md`` for the architecture and wire examples.
"""

from .client import ServerClient
from .dispatch import AdmissionController, Dispatcher
from .loadgen import MixItem, ZipfSampler, build_mix, make_request, run_load
from .metrics import FrontTierMetrics, LatencyHistogram, ServerMetrics
from .pool import EnginePool, PoolClosed, consistent_ring
from .proxy import BackendDied, FrontTier
from .routing import HotShardTracker, Router
from .server import ReproServer, ServerThread
from .stream import ResponseStream, Subscription
from .supervisor import BackendSupervisor, serve_backend_command
from .top import render_frame, run_top
from .tracing import RequestTrace, Span, TraceContext, TraceStore
from .traceview import render_recent, render_waterfall, run_trace

__all__ = [
    "ReproServer",
    "ServerThread",
    "ServerClient",
    "EnginePool",
    "PoolClosed",
    "consistent_ring",
    "AdmissionController",
    "Dispatcher",
    "ResponseStream",
    "Subscription",
    "render_frame",
    "run_top",
    "RequestTrace",
    "Span",
    "TraceContext",
    "TraceStore",
    "render_recent",
    "render_waterfall",
    "run_trace",
    "ServerMetrics",
    "FrontTierMetrics",
    "LatencyHistogram",
    "FrontTier",
    "BackendDied",
    "BackendSupervisor",
    "serve_backend_command",
    "Router",
    "HotShardTracker",
    "MixItem",
    "ZipfSampler",
    "build_mix",
    "make_request",
    "run_load",
]

"""Live metrics streaming: the protocol v6 ``subscribe`` verb.

A subscription turns the poll-only ``stats`` snapshot into a push
stream on the *same* JSON-lines connection: the server answers a
:class:`~repro.api.protocol.SubscribeRequest` with a sequence of
:class:`~repro.api.protocol.MetricsFrame` lines instead of a single
response line, still in request order -- requests pipelined behind the
subscribe are answered after the stream's final frame.

The pieces:

* :class:`ResponseStream` -- the marker type the transport
  (:mod:`repro.server.lineserver`) recognizes among pending responses:
  instead of awaiting one document it iterates the stream and writes
  each frame as its own line;
* :class:`Subscription` -- one live stream: paces frames at the
  clamped client-chosen interval, samples the metrics registry through
  an injected callable, emits *deltas* between consecutive samples
  (plus current gauges), and ends on unsubscribe, frame budget
  exhaustion, or connection teardown -- always with a ``final`` frame
  so the client knows the stream is complete;
* :func:`build_stream_body` / :func:`history_entry` -- the pure frame
  construction: cumulative counters diff, gauges pass through, latency
  becomes sparse per-bucket deltas (constant size regardless of
  traffic), ring-buffer samples project to compact history entries.

Frames carry *deltas* rather than snapshots so a dashboard computes
rates with one division and a cheap reader can ignore everything it
does not chart; the first frame's deltas are zero by construction
(there is no earlier sample) and carry the requested ring history
instead.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional

from ..api.protocol import MetricsFrame, UnsubscribeResponse

__all__ = [
    "MAX_INTERVAL_S",
    "MIN_INTERVAL_S",
    "ResponseStream",
    "Subscription",
    "build_stream_body",
    "clamp_interval",
    "history_entry",
]

#: Server-side clamp on the client-chosen frame interval: fast enough
#: for a live dashboard, slow enough that one subscriber cannot turn
#: the metrics lock into a hot spot.
MIN_INTERVAL_S = 0.05
MAX_INTERVAL_S = 60.0

#: Snapshot keys that are gauges (current level, not cumulative): they
#: surface under the frame's ``gauges``, never as deltas.
_GAUGE_KEYS = frozenset({"inflight", "connections"})

#: Snapshot keys handled specially (latency becomes bucket deltas;
#: uptime is carried whole as the frame timestamp).
_SKIP_KEYS = frozenset({"latency", "uptime_s"})


def clamp_interval(interval_s: float) -> float:
    """The interval the server actually streams at."""
    return min(MAX_INTERVAL_S, max(MIN_INTERVAL_S, float(interval_s)))


def _diff_counters(prev: dict, cur: dict) -> dict:
    """Recursive cumulative-counter delta between two snapshot
    documents (gauges and specially-handled keys excluded)."""
    out = {}
    for key, value in cur.items():
        if key in _SKIP_KEYS or key in _GAUGE_KEYS:
            continue
        if isinstance(value, dict):
            before = prev.get(key)
            out[key] = _diff_counters(
                before if isinstance(before, dict) else {}, value
            )
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            before = prev.get(key, 0)
            if isinstance(before, bool) or not isinstance(before, (int, float)):
                before = 0
            out[key] = value - before
    return out


def _diff_latency(prev: dict, cur: dict) -> dict:
    """Sparse per-bucket histogram deltas between two cumulative
    latency states (:meth:`LatencyHistogram.state`).  ``max_s`` is the
    cumulative maximum (a running max has no meaningful delta)."""
    prev_counts = prev.get("counts", {})
    buckets = {}
    for index, count in cur.get("counts", {}).items():
        delta = count - prev_counts.get(index, 0)
        if delta:
            buckets[index] = delta
    return {
        "buckets": buckets,
        "count": cur.get("total", 0) - prev.get("total", 0),
        "invalid": cur.get("invalid", 0) - prev.get("invalid", 0),
        "max_s": round(cur.get("max_s", 0.0), 6),
        "overflow": cur.get("overflow", 0) - prev.get("overflow", 0),
        "sum_s": round(cur.get("sum_s", 0.0) - prev.get("sum_s", 0.0), 6),
    }


def build_stream_body(prev: dict, cur: dict, topology: str) -> dict:
    """One frame's ``stream`` document from two consecutive samples.

    Key set is schema-stable (pinned by the server tests): ``counters``
    (cumulative deltas, including the nested errors/requests/
    speculation documents each tier publishes), ``gauges`` (current
    levels -- inflight, connections, plus whatever the sampling server
    injected: per-worker queue depths, the live admission budget,
    per-backend in-flight counts), ``latency`` (sparse bucket deltas),
    ``hot_shards`` (the tracker snapshot on the front tier, ``null`` on
    the threads tier), ``topology`` and the sample's ``uptime_s``.
    """
    prev_stats = prev.get("stats", {})
    cur_stats = cur.get("stats", {})
    return {
        "counters": _diff_counters(prev_stats, cur_stats),
        "gauges": {
            **cur.get("gauges", {}),
            "connections": cur_stats.get("connections", 0),
            "inflight": cur_stats.get("inflight", 0),
        },
        "hot_shards": cur.get("extra", {}).get("hot_shards"),
        "latency": _diff_latency(
            prev.get("latency_state", {}), cur.get("latency_state", {})
        ),
        "topology": topology,
        "uptime_s": cur_stats.get("uptime_s", 0.0),
    }


def history_entry(sample: dict) -> dict:
    """Compact projection of one ring sample for a first frame's
    ``history`` list: enough to reconstruct the recent load shape
    (completion/shed counters, gauges) without shipping full
    snapshots."""
    stats = sample.get("stats", {})
    return {
        "completed": stats.get("completed", 0),
        "errors": sum(stats.get("errors", {}).values()),
        "gauges": dict(sample.get("gauges", {})),
        "inflight": stats.get("inflight", 0),
        "seq": sample.get("seq", 0),
        "shed": stats.get("shed", 0),
        "uptime_s": stats.get("uptime_s", 0.0),
    }


class ResponseStream:
    """Marker base the transport recognizes among pending responses.

    Where an ordinary admission result is one awaitable resolving to
    one document, a :class:`ResponseStream` is iterated: the writer
    sends each yielded document as its own line, then moves on to the
    next pending response -- the in-order contract holds because the
    stream occupies exactly one slot in the per-connection order queue.
    """

    def stop(self) -> None:
        """Ask the stream to finish (idempotent); it ends with a
        ``final`` frame shortly after."""
        raise NotImplementedError

    def frames(self):
        """The async iterator of response documents."""
        raise NotImplementedError


class Subscription(ResponseStream):
    """One live metrics stream bound to one connection.

    ``sample_fn`` (injected by the owning server) takes a fresh
    registry sample including the server's gauges; ``recent_fn``
    returns recent ring samples for first-frame history.  Frames carry
    deltas between consecutive samples.  The stream ends when
    :meth:`stop` is called (unsubscribe, connection teardown, server
    shutdown) or the frame budget is exhausted; the awaitable from
    :meth:`ack` then resolves to the
    :class:`~repro.api.protocol.UnsubscribeResponse` with the exact
    frame count -- queued *after* the stream, it preserves the
    responses-in-request-order contract.

    Must be created on the event loop (it binds the running loop).
    """

    def __init__(
        self,
        sample_fn: Callable[[], dict],
        topology: str,
        interval_s: float = 1.0,
        frames: int = 0,
        history: int = 0,
        recent_fn: Optional[Callable[[int], list]] = None,
    ):
        self.interval_s = clamp_interval(interval_s)
        self.frame_limit = max(0, int(frames))
        self.history = max(0, int(history))
        self.topology = topology
        self.frames_sent = 0
        self.finished = False
        self._sample_fn = sample_fn
        self._recent_fn = recent_fn
        self._stop_event = asyncio.Event()
        self._done: asyncio.Future = asyncio.get_running_loop().create_future()

    def stop(self) -> None:
        self._stop_event.set()

    def ack(self) -> asyncio.Future:
        """Resolves to the :class:`UnsubscribeResponse` once the stream
        actually finished (so the acked frame count is exact)."""
        return self._done

    def _is_final(self) -> bool:
        return self._stop_event.is_set() or (
            self.frame_limit > 0 and self.frames_sent + 1 >= self.frame_limit
        )

    async def frames(self):
        try:
            prev = self._sample_fn()
            first_history = []
            if self.history and self._recent_fn is not None:
                first_history = [
                    history_entry(s) for s in self._recent_fn(self.history)
                ]
            cur = prev  # first frame: zero deltas + history
            while True:
                final = self._is_final()
                yield MetricsFrame(
                    seq=self.frames_sent,
                    stream=build_stream_body(prev, cur, self.topology),
                    elapsed_s=round(
                        max(0.0, cur["uptime_s"] - prev["uptime_s"]), 6
                    ),
                    final=final,
                    history=first_history if self.frames_sent == 0 else [],
                )
                self.frames_sent += 1
                if final:
                    return
                prev = cur
                try:
                    await asyncio.wait_for(
                        self._stop_event.wait(), self.interval_s
                    )
                except asyncio.TimeoutError:
                    pass
                cur = self._sample_fn()
        finally:
            # resolve the ack no matter how the stream ended (client
            # unsubscribe, frame budget, connection teardown, a
            # sample_fn failure) -- a pipelined unsubscribe must never
            # hang behind a stream that died
            self.finished = True
            if not self._done.done():
                self._done.set_result(
                    UnsubscribeResponse(frames=self.frames_sent)
                )

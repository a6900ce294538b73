"""The sharded engine pool: N worker threads, each owning an Engine.

Requests are routed by *source digest* on a consistent-hash ring, so a
given program always lands on the worker that already holds its compile
memo -- cache locality instead of lock contention.  This is the
serving-side mirror of the paper's inspector/executor split: the cheap
decision (which shard) happens up front on the event loop; the heavy
work (parse, summaries, planning, execution) happens on a worker that
has, with high probability, already paid for it.

Every worker owns a private :class:`~repro.api.Engine`; the ring maps
digests to workers.

Workers communicate through bounded :class:`queue.Queue`\\ s; the pool
itself never blocks a caller -- a full queue raises :class:`queue.Full`
and the dispatcher turns that into a typed ``overloaded`` response
(load shedding, not backpressure-by-hanging).
"""

from __future__ import annotations

import bisect
import hashlib
import queue
import threading
from typing import Optional

from ..api import Engine, EngineConfig
from .metrics import ServerMetrics

__all__ = ["EnginePool", "PoolClosed", "consistent_ring"]

#: Virtual points per shard on the consistent-hash ring.  Enough to
#: keep the assignment spread within a few percent of uniform for the
#: worker counts a single host can run.
_VNODES = 64


class PoolClosed(RuntimeError):
    """Raised for work that was queued but never served because the
    pool shut down (the dispatcher reports it as retryable)."""


def consistent_ring(shards: int, vnodes: int = _VNODES) -> list:
    """The sorted ``(point, shard)`` ring for *shards* workers.

    Points are SHA-256 of ``"shard:vnode"`` -- stable across runs and
    platforms, so the same digest routes to the same shard on every
    server of the same width.
    """
    ring = []
    for shard in range(shards):
        for vnode in range(vnodes):
            token = hashlib.sha256(f"{shard}:{vnode}".encode()).hexdigest()
            ring.append((int(token[:16], 16), shard))
    ring.sort()
    return ring


class _Worker:
    """One shard: a thread, a bounded inbox and an engine."""

    def __init__(self, index: int, engine: Engine, depth: int, pool: "EnginePool"):
        self.index = index
        self.engine = engine
        self.inbox: queue.Queue = queue.Queue(maxsize=depth)
        self.pool = pool
        self.thread = threading.Thread(
            target=self._run, name=f"repro-pool-{index}", daemon=True
        )

    def _run(self) -> None:
        while True:
            item = self.inbox.get()
            if item is None:
                self.inbox.task_done()
                return
            digest, request, future, trace, queue_span = item
            try:
                if trace is not None and queue_span is not None:
                    trace.end_span(queue_span)
                # the cache-locality signal: is the compiled program
                # actually resident right now (not merely seen once and
                # since evicted)?
                warm = bool(digest) and self.engine.holds(digest)
                if warm:
                    self.pool.metrics.warm_hit()
                if trace is not None:
                    trace.root.set("worker", self.index)
                    trace.root.set("warm", warm)
                if not future.set_running_or_notify_cancel():
                    continue
                result = self.engine.serve(
                    request, digest=digest or None, tracer=trace
                )
            except BaseException as exc:  # delivered, never swallowed
                future.set_exception(exc)
            else:
                commits = getattr(result, "speculation_commits", 0)
                rollbacks = getattr(result, "speculation_rollbacks", 0)
                if commits or rollbacks:
                    self.pool.metrics.speculation(commits, rollbacks)
                future.set_result(result)
            finally:
                self.inbox.task_done()


class EnginePool:
    """N worker threads, each with its own engine, routed by digest."""

    def __init__(
        self,
        workers: int = 4,
        engine_config: Optional[EngineConfig] = None,
        queue_depth: int = 128,
        metrics: Optional[ServerMetrics] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1 (got {workers})")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1 (got {queue_depth})")
        self.queue_depth = queue_depth  # per-worker capacity (for
        # utilization math in the adaptive-admission control loop)
        self.metrics = metrics or ServerMetrics()
        config = engine_config or EngineConfig()
        self._workers = [
            _Worker(i, Engine(config), queue_depth, self)
            for i in range(workers)
        ]
        self._ring = consistent_ring(workers)
        self._points = [point for point, _ in self._ring]
        self._lock = threading.Lock()
        self._started = False
        self._closed = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "EnginePool":
        with self._lock:
            if self._closed:
                # fail fast: a restarted pool would bind and then shed
                # every request forever (threads are joined, engines
                # retired) -- pools are single-use by design
                raise PoolClosed("pool was stopped; create a new one")
            if not self._started:
                for worker in self._workers:
                    worker.thread.start()
                self._started = True
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop every worker.  With ``drain`` (the default) queued work
        is served first; otherwise pending futures fail with
        :class:`PoolClosed`."""
        abandoned = []
        with self._lock:
            if self._closed:
                return
            self._closed = True
            # a never-started pool has no workers to drain the queues,
            # so queued futures must be failed, not stranded
            if not drain or not self._started:
                for worker in self._workers:
                    try:
                        while True:
                            item = worker.inbox.get_nowait()
                            worker.inbox.task_done()
                            if item is not None:
                                abandoned.append(item)
                    except queue.Empty:
                        pass
        # failing the futures runs their done-callbacks synchronously
        # (which may take the dispatcher's lock) -- never under ours
        for item in abandoned:
            item[2].set_exception(PoolClosed("pool shut down"))
        # Sentinels go in AFTER releasing the lock: _closed was set
        # under the same lock submit() takes, so every in-flight submit
        # has already enqueued and later ones raise PoolClosed -- no
        # item can slip in behind a sentinel.  And a blocking put on a
        # full inbox must not happen while holding the lock (a worker's
        # done-callback can be waiting on the dispatcher lock whose
        # holder is waiting on ours -- a cycle).
        if self._started:
            for worker in self._workers:
                worker.inbox.put(None)
            for worker in self._workers:
                worker.thread.join()
        # release the engines' global cache-registry entries so retired
        # pools (benchmarks and tests create them routinely) don't pin
        # their compiled programs for the process lifetime
        for worker in self._workers:
            worker.engine.close()

    # -- routing --------------------------------------------------------
    @property
    def workers(self) -> int:
        return len(self._workers)

    def shard_for(self, digest: str) -> int:
        """The shard that owns *digest* (consistent hashing)."""
        point = int(digest[:16], 16)
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):
            index = 0
        return self._ring[index][1]

    def engine_for(self, shard: int) -> Engine:
        return self._workers[shard].engine

    def queue_size(self, shard: int) -> int:
        return self._workers[shard].inbox.qsize()

    def analysis_cache_counts(self) -> list:
        """Per-worker engine analysis-cache outcomes."""
        return [w.engine.analysis_cache_counts() for w in self._workers]

    # -- submission ------------------------------------------------------
    def submit(
        self, shard: int, digest: str, request, future,
        trace=None, queue_span=None,
    ) -> None:
        """Enqueue one request on *shard*.  Raises :class:`queue.Full`
        when the shard's inbox is at depth (the caller sheds) and
        :class:`PoolClosed` after shutdown began.  *trace* (a
        :class:`~repro.server.tracing.RequestTrace`) rides along to the
        worker, which closes *queue_span* on dequeue and hands the
        trace to the engine for compile/execute spans."""
        with self._lock:
            if self._closed:
                raise PoolClosed("pool shut down")
            self._workers[shard].inbox.put_nowait(
                (digest, request, future, trace, queue_span)
            )

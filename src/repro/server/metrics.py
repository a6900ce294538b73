"""Serving observability: counters and a latency histogram.

One :class:`ServerMetrics` instance is shared by the admission layer,
the dispatcher and the engine pool.  Everything is guarded by a single
lock -- the touched state is a handful of integers, so contention is
negligible next to the work being measured -- and :meth:`snapshot`
returns a *schema-stable* JSON-safe document: every counter (including
every error code of :data:`repro.api.protocol.ERROR_CODES`) is always
present, so ``stats`` responses diff cleanly across time and versions.

Latency percentiles come from a fixed logarithmic bucket ladder rather
than a reservoir of raw samples: memory stays constant under millions
of requests.  The reported p50/p95/p99 interpolate log-linearly within
the bucket holding that quantile (assuming ranks spread uniformly in
log-space across the bucket, the natural prior for a geometric ladder),
so the estimate sits inside the winning bucket instead of pinning to
its upper edge -- worst-case error is one bucket ratio (~1.55x), versus
the systematic upper-edge overstatement the old report carried.

Both registries also keep a bounded ring of recent samples
(:meth:`ServerMetrics.sample` / :meth:`ServerMetrics.recent_samples`)
-- the history a late protocol v6 ``subscribe`` stream subscriber sees
without the server holding unbounded state.
"""

from __future__ import annotations

import collections
import math
import threading
import time
from typing import Optional

from ..api.protocol import ERROR_CODES, REQUEST_KINDS

__all__ = ["FrontTierMetrics", "LatencyHistogram", "ServerMetrics"]

#: Histogram bucket upper bounds in seconds: 43 log-spaced edges from
#: 10us to ~1000s (ratio ~1.55), plus a catch-all overflow bucket.
_BUCKET_RATIO = 1.55
_BUCKET_EDGES = tuple(1e-5 * (_BUCKET_RATIO ** i) for i in range(43))


def _interpolate_bucket(index: int, rank_in_bucket: float, count: int) -> float:
    """Log-linear position of a rank within bucket *index* of the
    ladder: ranks are assumed uniform in log-space between the bucket's
    edges (bucket 0's lower edge extends the geometric ladder one step
    down).  Shared by the cumulative histogram and the streaming
    dashboard's windowed quantiles."""
    hi = _BUCKET_EDGES[index]
    lo = _BUCKET_EDGES[index - 1] if index > 0 else hi / _BUCKET_RATIO
    frac = min(1.0, max(0.0, rank_in_bucket / count)) if count else 1.0
    return lo * (hi / lo) ** frac

#: Request verbs the serving layer counts: the protocol's request
#: ``kind`` tags, derived from the one table that declares them.
VERBS = tuple(sorted(REQUEST_KINDS))

#: Bounded history of metrics samples kept for late stream subscribers.
RING_CAPACITY = 256


class LatencyHistogram:
    """Fixed-bucket latency accounting with quantile upper bounds."""

    __slots__ = ("counts", "overflow", "total", "sum_s", "max_s", "invalid")

    def __init__(self):
        self.counts = [0] * len(_BUCKET_EDGES)
        self.overflow = 0
        self.total = 0
        self.sum_s = 0.0
        self.max_s = 0.0
        self.invalid = 0

    def observe(self, seconds: float) -> None:
        # a NaN/inf duration (a broken clock, a subtraction against a
        # poisoned timestamp) must not reach sum_s/max_s: NaN propagates
        # through every later mean and max(0.0, nan) is nan
        if not isinstance(seconds, (int, float)) or not math.isfinite(seconds):
            self.invalid += 1
            return
        seconds = max(0.0, seconds)
        self.total += 1
        self.sum_s += seconds
        if seconds > self.max_s:
            self.max_s = seconds
        # linear scan is fine: 43 edges, and observe() sits next to a
        # network round-trip
        for i, edge in enumerate(_BUCKET_EDGES):
            if seconds <= edge:
                self.counts[i] += 1
                return
        self.overflow += 1

    def quantile(self, q: float) -> float:
        """Quantile *q* estimated by log-linear interpolation within the
        bucket containing it (0 when the histogram is empty).  Never
        exceeds the observed maximum, never leaves the winning bucket."""
        if self.total == 0:
            return 0.0
        rank = q * self.total
        seen = 0
        for i, edge in enumerate(_BUCKET_EDGES):
            count = self.counts[i]
            if count and seen + count >= rank:
                value = _interpolate_bucket(i, rank - seen, count)
                return min(value, self.max_s) if self.max_s > 0 else value
            seen += count
        return self.max_s

    def snapshot(self) -> dict:
        mean = (self.sum_s / self.total) if self.total else 0.0
        return {
            "count": self.total,
            "invalid": self.invalid,
            "mean_s": round(mean, 6),
            "p50_s": round(self.quantile(0.50), 6),
            "p95_s": round(self.quantile(0.95), 6),
            "p99_s": round(self.quantile(0.99), 6),
            "max_s": round(self.max_s, 6),
        }

    def state(self) -> dict:
        """Cumulative bucket state for streaming delta computation
        (:mod:`repro.server.stream`): sparse non-zero counts keyed by
        the stringified bucket index, plus the raw totals."""
        return {
            "counts": {str(i): c for i, c in enumerate(self.counts) if c},
            "invalid": self.invalid,
            "max_s": self.max_s,
            "overflow": self.overflow,
            "sum_s": self.sum_s,
            "total": self.total,
        }


class _Registry:
    """What both tiers' registries share: one lock, the request /
    completion / error / connection / latency accounting every serving
    tier records the same way, and the bounded ring of recent
    ``(seq, snapshot, gauges, latency state)`` samples feeding the
    protocol v6 metrics stream.  A subclass declares only its own event
    counters -- flat ones by name in :attr:`COUNTERS`, anything richer
    through :meth:`_own_locked`.
    """

    #: snapshot keys of the subclass's flat event counters
    COUNTERS: tuple = ()

    def __init__(self, clock=time.monotonic, ring_capacity: int = RING_CAPACITY):
        self._lock = threading.Lock()
        self._clock = clock
        self._started = clock()
        self._requests = {verb: 0 for verb in VERBS}
        self._errors = {code: 0 for code in sorted(ERROR_CODES)}
        self._counters = dict.fromkeys(("coalesced",) + self.COUNTERS, 0)
        self._completed = 0
        self._inflight = 0
        self._connections = 0
        self._latency = LatencyHistogram()
        self._ring: collections.deque = collections.deque(
            maxlen=max(1, ring_capacity)
        )
        self._sample_seq = 0

    # -- recording ------------------------------------------------------
    def _count(self, name: str) -> None:
        with self._lock:
            self._counters[name] += 1

    def connection_opened(self) -> None:
        with self._lock:
            self._connections += 1

    def connection_closed(self) -> None:
        with self._lock:
            # clamped like the inflight gauge: an unmatched close (a
            # connection torn down before its open was recorded) must
            # not drive the gauge negative forever
            self._connections = max(0, self._connections - 1)

    def request_received(self, verb: str) -> None:
        with self._lock:
            if verb in self._requests:
                self._requests[verb] += 1

    def request_admitted(self) -> None:
        with self._lock:
            self._inflight += 1

    def request_completed(self, wall_s: Optional[float] = None) -> None:
        with self._lock:
            self._completed += 1
            self._inflight = max(0, self._inflight - 1)
            if wall_s is not None:
                self._latency.observe(wall_s)

    def error(self, code: str) -> None:
        with self._lock:
            if code in self._errors:
                self._errors[code] += 1

    def coalesced(self) -> None:
        self._count("coalesced")

    # -- reporting ------------------------------------------------------
    def snapshot(self) -> dict:
        """The tier's stats document (served whole by the ``stats`` verb
        on the single-process tier, as the ``front`` half of the
        topology document on the front tier).  Key set is fixed -- every
        counter and every error code is always present -- only values
        vary."""
        with self._lock:
            return self._snapshot_locked()

    def _own_locked(self) -> dict:
        """The subclass's non-flat snapshot entries."""
        return {}

    def _snapshot_locked(self) -> dict:
        return {
            **self._counters,
            **self._own_locked(),
            "completed": self._completed,
            "connections": self._connections,
            "errors": dict(self._errors),
            "inflight": self._inflight,
            "latency": self._latency.snapshot(),
            "requests": dict(self._requests),
            "uptime_s": round(self._clock() - self._started, 3),
        }

    def sample(self, gauges: Optional[dict] = None,
               extra: Optional[dict] = None) -> dict:
        """Take one sample: the full snapshot plus caller-provided
        gauges (per-worker queue depths, the live admission budget, ...)
        and opaque extras (the hot-shard snapshot), appended to the
        bounded ring and returned."""
        with self._lock:
            stats = self._snapshot_locked()
            entry = {
                "seq": self._sample_seq,
                "uptime_s": stats["uptime_s"],
                "stats": stats,
                "gauges": dict(gauges or {}),
                "extra": dict(extra or {}),
                "latency_state": self._latency.state(),
            }
            self._sample_seq += 1
            self._ring.append(entry)
            return entry

    def recent_samples(self, limit: Optional[int] = None) -> list:
        """The most recent ring samples, oldest first (at most *limit*
        when given)."""
        with self._lock:
            samples = list(self._ring)
        if limit is None:
            return samples
        if limit <= 0:
            return []
        return samples[-limit:]


class ServerMetrics(_Registry):
    """Thread-safe counters + latency for one serving endpoint."""

    COUNTERS = ("shed", "warm_hits")

    def __init__(self, clock=time.monotonic, ring_capacity: int = RING_CAPACITY):
        super().__init__(clock, ring_capacity)
        self._speculation = {"commits": 0, "rollbacks": 0}

    def shed(self) -> None:
        with self._lock:
            self._counters["shed"] += 1
            self._errors["overloaded"] += 1

    def warm_hit(self) -> None:
        self._count("warm_hits")

    def speculation(self, commits: int, rollbacks: int) -> None:
        """Fold one execute response's speculative-backend outcome in."""
        with self._lock:
            self._speculation["commits"] += commits
            self._speculation["rollbacks"] += rollbacks

    def _own_locked(self) -> dict:
        return {"speculation": dict(self._speculation)}


class FrontTierMetrics(_Registry):
    """Thread-safe counters + latency for the multi-process front tier.

    Same design rules as :class:`ServerMetrics` (one lock, schema-stable
    :meth:`snapshot`), but the counted events are proxy events: routing,
    replica fan-out, backend deaths and reroutes -- the front tier has
    no engines, so pool/speculation counters live on the backends
    and surface through the aggregated topology stats instead.
    """

    COUNTERS = ("backend_died", "fanouts", "rerouted")

    def fanout(self) -> None:
        """One hot-digest request fanned out across its replica set."""
        self._count("fanouts")

    def rerouted(self) -> None:
        """One request routed past a dead primary to a live successor."""
        self._count("rerouted")

    def backend_died(self) -> None:
        """One backend death observed by the proxy (requests in flight
        on it each receive a retryable ``overloaded`` error)."""
        self._count("backend_died")

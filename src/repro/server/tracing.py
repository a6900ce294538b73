"""Per-request distributed tracing with tail-based retention (v7).

Every analyze/execute request admitted by a serving tier gets a
:class:`RequestTrace`: a trace id, a root span covering the request's
whole lifetime, and child spans recorded at each layer it crosses
(admission + queue wait in the dispatcher, route decision and backend
RPC on the front tier, compile and execute inside the engine).  The
context travels over the wire as the additive protocol v7 ``trace``
field (:meth:`TraceContext.to_wire`); readers that predate it ignore
the field, readers that receive nothing mint their own context -- so
old clients and old backends keep working unchanged.

Retention is *tail-based*: spans are recorded for every request, and
the keep/drop decision happens when the root span finishes, when the
outcome is known.  Errors are always kept, slow-tail requests (root
duration >= ``slow_s``) are always kept, force-sampled requests
(``sampled`` in the wire context, set by ``loadgen --trace`` or by
head-sampling with ``--trace-sample``) are always kept, and everything
else survives with ``keep_probability``.  The store is bounded by both
a trace count and a total span count; eviction removes the lowest
retention class first (probabilistic < sampled < slow < error), oldest
first within a class, so sustained load can never grow the store past
its caps and an error trace is the last thing to go.

Phase attribution bridges the engine's compile span to the existing
:mod:`repro.profiling` counters (``ir.parse``, ``analyzer.summarize``,
``usr.build``, ``core.factor``).  The profiler is process-global, so
only one compile at a time may own it: a non-blocking lock serializes
attribution, and a compile that loses the race simply records no phase
breakdown (best effort by design, never a stall).
"""

from __future__ import annotations

import random
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Callable, Optional

from .. import profiling as _profiling

__all__ = [
    "DEFAULT_KEEP_PROBABILITY",
    "DEFAULT_MAX_SPANS",
    "DEFAULT_MAX_TRACES",
    "DEFAULT_SLOW_S",
    "PHASE_TIMERS",
    "RequestTrace",
    "Span",
    "TraceContext",
    "TraceStore",
    "mint_span_id",
    "mint_trace_id",
]

#: Root-span duration at which a trace joins the always-keep slow tail.
DEFAULT_SLOW_S = 0.25
#: Tail-keep probability for traces that are neither errors, slow, nor
#: force-sampled.
DEFAULT_KEEP_PROBABILITY = 0.05
#: Store bounds: whichever cap is hit first triggers eviction.
DEFAULT_MAX_TRACES = 512
DEFAULT_MAX_SPANS = 8192

#: Compile-span phase attribution: phase label -> profiler timer name.
PHASE_TIMERS = {
    "parse": "ir.parse",
    "summarize": "analyzer.summarize",
    "usr_build": "usr.build",
    "cascade": "core.factor",
}

#: Retention classes in eviction order (lowest evicts first).
KEEP_PRIORITY = {"probabilistic": 0, "sampled": 1, "slow": 2, "error": 3}

# The profiler is process-global state; exactly one phase-attributed
# compile may own it at a time.  Losers skip attribution, never block.
_PHASE_LOCK = threading.Lock()


def mint_trace_id() -> str:
    return uuid.uuid4().hex


def mint_span_id() -> str:
    return uuid.uuid4().hex[:16]


class TraceContext:
    """The wire form of a trace: what crosses a tier boundary.

    ``parent_span_id`` is the span on the *sending* tier that the
    receiving tier's root span should hang under (the front tier sets
    it to its backend-RPC span id, so stitching is pure concatenation).
    """

    __slots__ = ("trace_id", "parent_span_id", "sampled")

    def __init__(
        self,
        trace_id: str,
        parent_span_id: Optional[str] = None,
        sampled: bool = False,
    ):
        self.trace_id = trace_id
        self.parent_span_id = parent_span_id
        self.sampled = sampled

    def to_wire(self) -> dict:
        doc = {"trace_id": self.trace_id, "sampled": self.sampled}
        if self.parent_span_id is not None:
            doc["parent_span_id"] = self.parent_span_id
        return doc

    @classmethod
    def from_wire(cls, payload) -> Optional["TraceContext"]:
        """Default-tolerant reader: anything malformed reads as *no
        context* (the receiver mints its own) rather than an error."""
        if not isinstance(payload, dict):
            return None
        trace_id = payload.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            return None
        parent = payload.get("parent_span_id")
        if parent is not None and not isinstance(parent, str):
            parent = None
        return cls(
            trace_id=trace_id,
            parent_span_id=parent,
            sampled=bool(payload.get("sampled", False)),
        )


class Span:
    """One timed operation inside a trace (wall-clock timestamps, so
    spans from different processes line up on one timeline)."""

    __slots__ = ("span_id", "parent_id", "name", "start_s", "end_s",
                 "status", "attrs")

    def __init__(self, name: str, parent_id: Optional[str], start_s: float):
        self.span_id = mint_span_id()
        self.parent_id = parent_id
        self.name = name
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.status = "ok"
        self.attrs: dict = {}

    def set(self, key: str, value) -> None:
        self.attrs[key] = value

    @property
    def duration_s(self) -> float:
        end = self.end_s if self.end_s is not None else self.start_s
        return max(0.0, end - self.start_s)

    def to_json(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_span_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s if self.end_s is not None else self.start_s,
            "duration_s": round(self.duration_s, 9),
            "status": self.status,
            "attrs": dict(self.attrs),
        }


class RequestTrace:
    """The spans of one request on one tier, rooted at admission.

    Thread-safe: the dispatcher's event loop, the pool worker thread
    and the engine all append spans to the same trace.  ``finish`` ends
    the root span and offers the completed trace to the tier's store
    (exactly once; later calls are ignored).
    """

    def __init__(
        self,
        trace_id: Optional[str] = None,
        sampled: bool = False,
        parent_span_id: Optional[str] = None,
        name: str = "request",
        store: Optional["TraceStore"] = None,
        clock: Callable[[], float] = time.time,
        **root_attrs,
    ):
        self.trace_id = trace_id or mint_trace_id()
        self.sampled = sampled
        self._store = store
        self._clock = clock
        self._lock = threading.Lock()
        self._finished = False
        self.root = Span(name, parent_span_id, clock())
        self.root.attrs.update(root_attrs)
        self.spans = [self.root]

    @classmethod
    def adopt(
        cls,
        context: Optional[TraceContext],
        store: Optional["TraceStore"] = None,
        name: str = "request",
        clock: Callable[[], float] = time.time,
        **root_attrs,
    ) -> "RequestTrace":
        """Continue a wire context, or mint a fresh trace without one."""
        if context is None:
            return cls(store=store, name=name, clock=clock, **root_attrs)
        return cls(
            trace_id=context.trace_id,
            sampled=context.sampled,
            parent_span_id=context.parent_span_id,
            store=store,
            name=name,
            clock=clock,
            **root_attrs,
        )

    def child_context(self, parent_span_id: Optional[str] = None) -> TraceContext:
        """The wire context a downstream tier should adopt."""
        return TraceContext(
            trace_id=self.trace_id,
            parent_span_id=parent_span_id or self.root.span_id,
            sampled=self.sampled,
        )

    def start_span(self, name: str, parent_id: Optional[str] = None,
                   **attrs) -> Span:
        span = Span(name, parent_id or self.root.span_id, self._clock())
        span.attrs.update(attrs)
        with self._lock:
            self.spans.append(span)
        return span

    def end_span(self, span: Span, status: str = "ok") -> None:
        span.end_s = self._clock()
        span.status = status

    @contextmanager
    def span(self, name: str, phases: bool = False,
             parent_id: Optional[str] = None, **attrs):
        """Record one timed operation; ``phases=True`` additionally
        bridges the profiler for compile-phase attribution (sampled
        traces only, and only when no other compile holds the
        profiler)."""
        span = self.start_span(name, parent_id=parent_id, **attrs)
        capture = phases and self.sampled and _PHASE_LOCK.acquire(False)
        if capture:
            was_enabled = _profiling.is_enabled()
            before = _profiling.snapshot().times
            _profiling.enable()
        try:
            yield span
        except BaseException:
            span.status = "error"
            raise
        finally:
            if capture:
                after = _profiling.snapshot().times
                if not was_enabled:
                    _profiling.disable()
                _PHASE_LOCK.release()
                span.attrs["phases"] = {
                    phase: round(delta, 9)
                    for phase, timer in PHASE_TIMERS.items()
                    for delta in [after.get(timer, 0.0) - before.get(timer, 0.0)]
                    if delta > 0.0
                }
            if span.end_s is None:
                self.end_span(span, status=span.status)

    def finish(self, status: str = "ok",
               error_code: Optional[str] = None) -> Optional[dict]:
        """End the root span and offer the trace to the store.  Returns
        the trace document (kept or not), or None on a repeat call."""
        with self._lock:
            if self._finished:
                return None
            self._finished = True
        self.root.end_s = self._clock()
        self.root.status = status
        if error_code:
            self.root.attrs["error_code"] = error_code
        doc = self.to_json()
        if self._store is not None:
            self._store.offer(doc)
        return doc

    def to_json(self) -> dict:
        with self._lock:
            spans = [
                s.to_json() if isinstance(s, Span) else dict(s)
                for s in self.spans
            ]
        return {
            "trace_id": self.trace_id,
            "root_span_id": self.root.span_id,
            "status": self.root.status,
            "sampled": self.sampled,
            "start_s": self.root.start_s,
            "duration_s": round(self.root.duration_s, 9),
            "spans": spans,
        }


class TraceStore:
    """Bounded in-memory trace retention with tail-based sampling.

    ``offer`` classifies a finished trace (error > slow > sampled >
    probabilistic), drops the probabilistic class with probability
    ``1 - keep_probability``, and then evicts -- lowest class first,
    oldest first within a class -- until both the trace-count and the
    total-span caps hold.  A new trace is itself dropped rather than
    evict a strictly higher class, so a store full of error traces
    never loses one to unremarkable traffic.
    """

    def __init__(
        self,
        max_traces: int = DEFAULT_MAX_TRACES,
        max_spans: int = DEFAULT_MAX_SPANS,
        slow_s: float = DEFAULT_SLOW_S,
        keep_probability: float = DEFAULT_KEEP_PROBABILITY,
        rng: Optional[random.Random] = None,
    ):
        self.max_traces = max(1, int(max_traces))
        self.max_spans = max(1, int(max_spans))
        self.slow_s = slow_s
        self.keep_probability = keep_probability
        self._rng = rng if rng is not None else random.Random()
        self._lock = threading.Lock()
        self._traces: dict = {}  # trace_id -> doc, insertion-ordered
        self._span_total = 0
        self.offered = 0
        self.kept = 0
        self.sampled_out = 0
        self.evicted = 0

    def classify(self, doc: dict) -> str:
        if doc.get("status") == "error":
            return "error"
        if doc.get("duration_s", 0.0) >= self.slow_s:
            return "slow"
        if doc.get("sampled"):
            return "sampled"
        return "probabilistic"

    def offer(self, doc: dict) -> bool:
        keep_class = self.classify(doc)
        with self._lock:
            self.offered += 1
            if keep_class == "probabilistic":
                if self._rng.random() >= self.keep_probability:
                    self.sampled_out += 1
                    return False
            doc = dict(doc)
            doc["keep"] = keep_class
            spans = doc.get("spans", [])
            if len(spans) > self.max_spans:
                doc["spans"] = spans[: self.max_spans]
                doc["spans_truncated"] = len(spans) - self.max_spans
            trace_id = doc["trace_id"]
            evicted = self._traces.pop(trace_id, None)
            if evicted is not None:
                self._span_total -= len(evicted.get("spans", []))
            self._traces[trace_id] = doc
            self._span_total += len(doc.get("spans", []))
            admitted = self._evict_locked(trace_id, KEEP_PRIORITY[keep_class])
            if admitted:
                self.kept += 1
            else:
                self.sampled_out += 1
            return admitted

    def _evict_locked(self, new_id: str, new_priority: int) -> bool:
        while (len(self._traces) > self.max_traces
               or self._span_total > self.max_spans):
            victim_id, victim_priority = None, None
            for tid, doc in self._traces.items():  # oldest first
                priority = KEEP_PRIORITY.get(doc.get("keep"), 0)
                if tid == new_id:
                    continue
                if victim_priority is None or priority < victim_priority:
                    victim_id, victim_priority = tid, priority
                    if priority == 0:
                        break
            if victim_id is None or victim_priority > new_priority:
                # nothing evictable below the newcomer: drop it instead
                doc = self._traces.pop(new_id)
                self._span_total -= len(doc.get("spans", []))
                return False
            doc = self._traces.pop(victim_id)
            self._span_total -= len(doc.get("spans", []))
            self.evicted += 1
        return True

    def extend(self, trace_id: str, spans: list) -> None:
        """Append stitched child spans to a stored trace (front tier)."""
        with self._lock:
            doc = self._traces.get(trace_id)
            if doc is None:
                return
            budget = max(0, self.max_spans - len(doc["spans"]))
            doc["spans"] = doc["spans"] + list(spans)[:budget]
            self._span_total += min(len(spans), budget)
            # grafted spans count against the cap like any others
            self._evict_locked(trace_id, KEEP_PRIORITY.get(doc.get("keep"), 0))

    def get(self, trace_id: str) -> Optional[dict]:
        with self._lock:
            doc = self._traces.get(trace_id)
            return dict(doc) if doc is not None else None

    def recent(self, limit: int = 10,
               status: Optional[str] = None) -> list:
        """Newest-first trace documents, optionally status-filtered."""
        with self._lock:
            docs = list(self._traces.values())
        if status:
            docs = [d for d in docs if d.get("status") == status]
        return [dict(d) for d in reversed(docs[-limit:] if limit else docs)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    @property
    def span_total(self) -> int:
        with self._lock:
            return self._span_total

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "traces": len(self._traces),
                "spans": self._span_total,
                "max_traces": self.max_traces,
                "max_spans": self.max_spans,
                "slow_s": self.slow_s,
                "keep_probability": self.keep_probability,
                "offered": self.offered,
                "kept": self.kept,
                "sampled_out": self.sampled_out,
                "evicted": self.evicted,
            }

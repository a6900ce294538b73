"""The tracing layer itself: wire contexts, spans, the per-request
trace, and the bounded tail-sampling store.

The load-bearing contracts: the wire context is default-tolerant
(anything malformed reads as *untraced*, never an error), a finished
trace is offered to the store exactly once, compile-phase attribution
bridges the profiler only under the non-blocking lock, and the store
never exceeds its caps while evicting strictly lowest-retention-class
first -- an error trace is the last thing to go.
"""

import random
import threading

from repro import profiling
from repro.server.tracing import (
    DEFAULT_KEEP_PROBABILITY,
    DEFAULT_MAX_SPANS,
    DEFAULT_MAX_TRACES,
    DEFAULT_SLOW_S,
    KEEP_PRIORITY,
    PHASE_TIMERS,
    RequestTrace,
    Span,
    TraceContext,
    TraceStore,
    mint_span_id,
    mint_trace_id,
)


class _FakeClock:
    """A deterministic clock: each read advances by *step*."""

    def __init__(self, start=1000.0, step=0.01):
        self.now = start
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestTraceContext:
    def test_wire_roundtrip(self):
        context = TraceContext("abc123", parent_span_id="p1", sampled=True)
        again = TraceContext.from_wire(context.to_wire())
        assert again.trace_id == "abc123"
        assert again.parent_span_id == "p1"
        assert again.sampled is True

    def test_parent_omitted_when_absent(self):
        doc = TraceContext("abc").to_wire()
        assert doc == {"trace_id": "abc", "sampled": False}

    def test_malformed_payloads_read_as_untraced(self):
        # default tolerance: a bad context must never become an error
        for payload in (None, 7, "x", [], {}, {"trace_id": ""},
                        {"trace_id": 9}, {"sampled": True}):
            assert TraceContext.from_wire(payload) is None

    def test_malformed_parent_is_dropped_not_fatal(self):
        context = TraceContext.from_wire(
            {"trace_id": "t", "parent_span_id": 42, "sampled": 1}
        )
        assert context.trace_id == "t"
        assert context.parent_span_id is None
        assert context.sampled is True

    def test_minted_ids_are_distinct_hex(self):
        a, b = mint_trace_id(), mint_trace_id()
        assert a != b and len(a) == 32 and int(a, 16) >= 0
        assert len(mint_span_id()) == 16


class TestSpan:
    def test_unfinished_span_serializes_with_zero_duration(self):
        span = Span("execute", parent_id="root", start_s=5.0)
        doc = span.to_json()
        assert doc["end_s"] == doc["start_s"] == 5.0
        assert doc["duration_s"] == 0.0
        assert doc["status"] == "ok"

    def test_attrs_are_copied_out(self):
        span = Span("compile", None, 1.0)
        span.set("cached", True)
        doc = span.to_json()
        doc["attrs"]["cached"] = False
        assert span.attrs["cached"] is True


class TestRequestTrace:
    def test_span_tree_hangs_under_root_by_default(self):
        trace = RequestTrace(clock=_FakeClock(), verb="analyze")
        child = trace.start_span("queue_wait", shard=2)
        trace.end_span(child)
        doc = trace.finish()
        assert doc["status"] == "ok"
        spans = {s["name"]: s for s in doc["spans"]}
        assert spans["request"]["parent_span_id"] is None
        assert spans["queue_wait"]["parent_span_id"] == doc["root_span_id"]
        assert spans["queue_wait"]["attrs"] == {"shard": 2}
        assert spans["request"]["attrs"]["verb"] == "analyze"

    def test_adopt_continues_the_wire_context(self):
        context = TraceContext("wire-id", parent_span_id="up", sampled=True)
        trace = RequestTrace.adopt(context, clock=_FakeClock())
        assert trace.trace_id == "wire-id"
        assert trace.sampled is True
        assert trace.root.parent_id == "up"

    def test_adopt_none_mints_fresh(self):
        trace = RequestTrace.adopt(None, clock=_FakeClock())
        assert trace.trace_id and trace.sampled is False

    def test_child_context_defaults_parent_to_root(self):
        trace = RequestTrace(clock=_FakeClock())
        context = trace.child_context()
        assert context.trace_id == trace.trace_id
        assert context.parent_span_id == trace.root.span_id
        rpc = trace.start_span("backend_rpc")
        assert trace.child_context(rpc.span_id).parent_span_id == rpc.span_id

    def test_finish_is_once_only_and_offers_to_store(self):
        store = TraceStore()
        trace = RequestTrace(sampled=True, store=store, clock=_FakeClock())
        doc = trace.finish()
        assert doc is not None
        assert trace.finish() is None  # repeat call: ignored
        assert len(store) == 1
        assert store.get(trace.trace_id)["keep"] == "sampled"

    def test_finish_error_records_code(self):
        trace = RequestTrace(clock=_FakeClock())
        doc = trace.finish(status="error", error_code="overloaded")
        assert doc["status"] == "error"
        root = doc["spans"][0]
        assert root["attrs"]["error_code"] == "overloaded"

    def test_span_contextmanager_marks_exceptions(self):
        trace = RequestTrace(clock=_FakeClock())
        try:
            with trace.span("compile"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        doc = trace.finish(status="error")
        compile_span = [s for s in doc["spans"] if s["name"] == "compile"][0]
        assert compile_span["status"] == "error"
        assert compile_span["end_s"] >= compile_span["start_s"]

    def test_durations_nest_inside_root(self):
        clock = _FakeClock(step=0.05)
        trace = RequestTrace(clock=clock)
        with trace.span("queue_wait"):
            pass
        with trace.span("compile"):
            pass
        doc = trace.finish()
        root = doc["spans"][0]
        children = doc["spans"][1:]
        assert sum(s["duration_s"] for s in children) <= root["duration_s"]
        for span in children:
            assert root["start_s"] <= span["start_s"]
            assert span["end_s"] <= root["end_s"]

    def test_phase_capture_bridges_profiler_on_sampled_traces(self):
        trace = RequestTrace(sampled=True)
        with trace.span("compile", phases=True):
            with profiling.timer(PHASE_TIMERS["summarize"]):
                pass
            with profiling.timer(PHASE_TIMERS["cascade"]):
                pass
        assert not profiling.is_enabled()  # left as found
        compile_span = trace.spans[-1]
        phases = compile_span.attrs.get("phases", {})
        assert set(phases) <= set(PHASE_TIMERS)
        assert {"summarize", "cascade"} <= set(phases)
        assert all(v >= 0.0 for v in phases.values())

    def test_phase_capture_skipped_on_unsampled_traces(self):
        trace = RequestTrace(sampled=False)
        with trace.span("compile", phases=True):
            with profiling.timer(PHASE_TIMERS["summarize"]):
                pass
        assert "phases" not in trace.spans[-1].attrs

    def test_phase_lock_loser_skips_attribution_without_blocking(self):
        from repro.server import tracing

        trace = RequestTrace(sampled=True)
        assert tracing._PHASE_LOCK.acquire(False)
        try:
            with trace.span("compile", phases=True):
                pass
        finally:
            tracing._PHASE_LOCK.release()
        assert "phases" not in trace.spans[-1].attrs

    def test_concurrent_span_appends_are_safe(self):
        trace = RequestTrace(clock=_FakeClock())

        def record(i):
            for _ in range(50):
                span = trace.start_span(f"op{i}")
                trace.end_span(span)

        threads = [threading.Thread(target=record, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        doc = trace.finish()
        assert len(doc["spans"]) == 1 + 4 * 50

    def test_engine_span_is_noop_without_tracer(self):
        from repro.api.engine import _span

        with _span(None, "compile") as span:
            span.set("cached", True)  # must not raise
        trace = RequestTrace(clock=_FakeClock())
        with _span(trace, "compile") as span:
            span.set("cached", True)
        assert trace.spans[-1].attrs == {"cached": True}


def _doc(trace_id, status="ok", duration_s=0.001, sampled=False, spans=1):
    return {
        "trace_id": trace_id,
        "root_span_id": f"{trace_id}-root",
        "status": status,
        "sampled": sampled,
        "start_s": 0.0,
        "duration_s": duration_s,
        "spans": [{"span_id": f"{trace_id}-s{i}", "parent_span_id": None,
                   "name": "request", "start_s": 0.0, "end_s": duration_s,
                   "duration_s": duration_s, "status": status, "attrs": {}}
                  for i in range(spans)],
    }


class _AlwaysDrop(random.Random):
    def random(self):
        return 1.0  # >= any keep probability


class _AlwaysKeep(random.Random):
    def random(self):
        return 0.0


class TestTraceStore:
    def test_classification_order(self):
        store = TraceStore()
        assert store.classify(_doc("a", status="error")) == "error"
        assert store.classify(_doc("b", duration_s=DEFAULT_SLOW_S)) == "slow"
        assert store.classify(_doc("c", sampled=True)) == "sampled"
        assert store.classify(_doc("d")) == "probabilistic"
        # priorities are strictly ordered
        assert (KEEP_PRIORITY["probabilistic"] < KEEP_PRIORITY["sampled"]
                < KEEP_PRIORITY["slow"] < KEEP_PRIORITY["error"])

    def test_errors_slow_and_sampled_always_kept(self):
        store = TraceStore(rng=_AlwaysDrop())
        assert store.offer(_doc("err", status="error"))
        assert store.offer(_doc("slow", duration_s=1.0))
        assert store.offer(_doc("sampled", sampled=True))
        assert not store.offer(_doc("plain"))
        assert len(store) == 3
        assert store.sampled_out == 1

    def test_probabilistic_keeps_with_configured_probability(self):
        store = TraceStore(rng=_AlwaysKeep())
        assert store.offer(_doc("plain"))
        assert store.get("plain")["keep"] == "probabilistic"
        assert store.keep_probability == DEFAULT_KEEP_PROBABILITY

    def test_trace_cap_evicts_oldest_lowest_class_first(self):
        store = TraceStore(max_traces=2, rng=_AlwaysKeep())
        store.offer(_doc("old-plain"))
        store.offer(_doc("err", status="error"))
        store.offer(_doc("new-plain"))
        assert len(store) == 2
        assert store.get("old-plain") is None  # the lowest class went
        assert store.get("err") is not None
        assert store.get("new-plain") is not None
        assert store.evicted == 1

    def test_newcomer_below_store_floor_is_dropped_not_swapped(self):
        store = TraceStore(max_traces=2, rng=_AlwaysKeep())
        store.offer(_doc("e1", status="error"))
        store.offer(_doc("e2", status="error"))
        assert not store.offer(_doc("plain"))
        assert len(store) == 2
        assert store.get("plain") is None
        assert store.get("e1") is not None and store.get("e2") is not None

    def test_span_cap_bounds_total_and_truncates_oversized(self):
        store = TraceStore(max_traces=100, max_spans=10, rng=_AlwaysKeep())
        store.offer(_doc("big", status="error", spans=25))
        doc = store.get("big")
        assert len(doc["spans"]) == 10
        assert doc["spans_truncated"] == 15
        assert store.span_total <= 10

    def test_span_cap_evicts_whole_traces(self):
        store = TraceStore(max_traces=100, max_spans=10, rng=_AlwaysKeep())
        for i in range(5):
            store.offer(_doc(f"t{i}", status="error", spans=4))
        assert store.span_total <= 10
        assert len(store) <= 2
        assert store.get("t4") is not None  # newest survives

    def test_reoffer_replaces_without_double_count(self):
        store = TraceStore(rng=_AlwaysKeep())
        store.offer(_doc("t", spans=3))
        store.offer(_doc("t", spans=5))
        assert len(store) == 1
        assert store.span_total == 5

    def test_extend_grafts_within_budget(self):
        store = TraceStore(max_spans=6, rng=_AlwaysKeep())
        store.offer(_doc("t", status="error", spans=2))
        extra = _doc("x", spans=10)["spans"]
        store.extend("t", extra)
        doc = store.get("t")
        assert len(doc["spans"]) == 6
        assert store.span_total <= 6
        store.extend("missing", extra)  # unknown id: silently ignored

    def test_recent_is_newest_first_and_status_filtered(self):
        store = TraceStore(rng=_AlwaysKeep())
        store.offer(_doc("a"))
        store.offer(_doc("b", status="error"))
        store.offer(_doc("c"))
        assert [d["trace_id"] for d in store.recent(limit=2)] == ["c", "b"]
        assert [d["trace_id"] for d in store.recent(limit=10, status="error")] \
            == ["b"]

    def test_snapshot_key_set_is_pinned(self):
        store = TraceStore()
        assert set(store.snapshot()) == {
            "traces", "spans", "max_traces", "max_spans", "slow_s",
            "keep_probability", "offered", "kept", "sampled_out", "evicted",
        }
        assert store.snapshot()["max_traces"] == DEFAULT_MAX_TRACES
        assert store.snapshot()["max_spans"] == DEFAULT_MAX_SPANS

    def test_get_returns_copies(self):
        store = TraceStore(rng=_AlwaysKeep())
        store.offer(_doc("t"))
        store.get("t")["status"] = "mangled"
        assert store.get("t")["status"] == "ok"

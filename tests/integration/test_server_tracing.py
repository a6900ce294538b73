"""End-to-end tracing on the threads topology: one ``ReproServer``
whose dispatcher, pool workers and engines all append spans to the
same per-request trace.

The load-bearing contracts: a force-sampled request yields a
well-formed span tree (every parent resolves, children nest inside the
root, sibling durations sum to no more than the root), the compile
span carries profiler-bridged phase attribution, the ``trace`` verb
serves traces by id and by recency before the response reaches the
client, and the stats document gains the per-worker analysis-cache
counts and the trace-store counters.
"""

import threading
import time

import pytest

from repro.api import (
    AnalyzeRequest,
    Engine,
    EngineConfig,
    ExecuteRequest,
    StatsResponse,
    TraceResponse,
    wire_json,
)
from repro.server import ServerClient, ServerThread
from repro.server.tracing import PHASE_TIMERS, mint_trace_id

SOURCE_TEMPLATE = """
program tracing_{name}
param N
array A(200), B(200), IDX(200)

main
  do i = 1, N @ target
    t = B[i] + {increment}
    A[IDX[i]] = A[IDX[i]] + t
  end
end
"""

PARAMS = {"N": 20}
ARRAYS = {"IDX": [(i % 7) + 1 for i in range(200)], "B": [2] * 200}


def _source(name, increment=1):
    """A distinct program per test: a fresh digest guarantees a cold
    compile, so the phase timers actually run."""
    return SOURCE_TEMPLATE.format(name=name, increment=increment)


@pytest.fixture(scope="module")
def hosted():
    thread = ServerThread(
        workers=2, engine_config=EngineConfig(use_disk_cache=False)
    ).start()
    yield thread
    thread.stop()


def _client(hosted):
    host, port = hosted.address
    return ServerClient(host, port)


def _fetch_trace(client, trace_id):
    response = client.trace(trace_id=trace_id)
    assert isinstance(response, TraceResponse)
    assert len(response.traces) == 1
    return response.traces[0]


def _assert_well_formed(doc):
    """Parent/child integrity: one root, every parent resolves, every
    child nests inside the root interval, and the direct children's
    durations sum to no more than the root's."""
    spans = doc["spans"]
    by_id = {span["span_id"]: span for span in spans}
    root = by_id[doc["root_span_id"]]
    assert root["name"] == "request"
    for span in spans:
        parent = span["parent_span_id"]
        if span["span_id"] == doc["root_span_id"]:
            continue
        assert parent in by_id, f"dangling parent on {span['name']}"
        assert span["start_s"] >= root["start_s"] - 1e-6
        assert span["end_s"] <= root["end_s"] + 1e-6
        assert span["end_s"] >= span["start_s"]
    children = [s for s in spans if s["parent_span_id"] == doc["root_span_id"]]
    assert sum(s["duration_s"] for s in children) \
        <= root["duration_s"] + 1e-6
    return by_id, root


class TestForcedTraceSpanTree:
    def test_execute_yields_queue_compile_execute_tree(self, hosted):
        trace_id = mint_trace_id()
        request = ExecuteRequest(
            source=_source("exec_tree"), loop="target",
            params=PARAMS, arrays=ARRAYS,
            trace={"trace_id": trace_id, "sampled": True},
        )
        with _client(hosted) as client:
            response = client.call(request)
            assert response.to_json()["kind"] == "execute"
            doc = _fetch_trace(client, trace_id)
        assert doc["trace_id"] == trace_id
        assert doc["status"] == "ok"
        assert doc["sampled"] is True
        assert doc["keep"] in ("sampled", "slow")
        by_id, root = _assert_well_formed(doc)
        names = [span["name"] for span in doc["spans"]]
        for expected in ("request", "queue_wait", "compile", "execute"):
            assert expected in names, f"missing {expected} span in {names}"
        assert root["attrs"]["verb"] == "execute"
        assert root["attrs"]["tier"] == "threads"
        assert "worker" in root["attrs"]

    def test_compile_span_carries_phase_attribution(self, hosted):
        # structurally unlike every other program in this module: the
        # analyzer's cascade memo is keyed on the USR (not the source
        # digest), so only a novel subscript pattern is guaranteed to
        # pay core.factor rather than hit the memo
        source = """
program tracing_phases
param N
array C(300), D(300), J(300)

main
  do i = 1, N @ target
    u = D[i + 2] + 3
    C[J[i] + 1] = C[J[i] + 1] + u
  end
end
"""
        trace_id = mint_trace_id()
        request = AnalyzeRequest(
            source=source, loop="target",
            trace={"trace_id": trace_id, "sampled": True},
        )
        with _client(hosted) as client:
            client.call(request)
            doc = _fetch_trace(client, trace_id)
        compile_span = [s for s in doc["spans"] if s["name"] == "compile"][0]
        assert compile_span["attrs"]["cached"] is False
        phases = compile_span["attrs"]["phases"]
        assert set(phases) <= set(PHASE_TIMERS)
        assert {"summarize", "usr_build", "cascade"} <= set(phases)
        assert all(v > 0.0 for v in phases.values())
        # the attributed phase time fits inside the compile span
        assert sum(phases.values()) <= compile_span["duration_s"] + 0.05

    def test_execute_span_records_backend_attrs(self, hosted):
        trace_id = mint_trace_id()
        request = ExecuteRequest(
            source=_source("backend_attrs"), loop="target",
            params=PARAMS, arrays=ARRAYS,
            trace={"trace_id": trace_id, "sampled": True},
        )
        with _client(hosted) as client:
            client.call(request)
            doc = _fetch_trace(client, trace_id)
        execute_span = [s for s in doc["spans"] if s["name"] == "execute"][0]
        assert "backend_used" in execute_span["attrs"]
        assert execute_span["attrs"]["chunks"] >= 1

    def test_warm_repeat_is_traced_as_cached(self, hosted):
        source = _source("warm_repeat")
        with _client(hosted) as client:
            client.call(AnalyzeRequest(
                source=source, loop="target",
                trace={"trace_id": mint_trace_id(), "sampled": True},
            ))
            # an immediate repeat can still ride the first request's
            # just-resolved single-flight future (and then records a
            # coalesce_join, not a compile) -- wait out that window
            for _ in range(20):
                time.sleep(0.05)
                repeat = mint_trace_id()
                client.call(AnalyzeRequest(
                    source=source, loop="target",
                    trace={"trace_id": repeat, "sampled": True},
                ))
                doc = _fetch_trace(client, repeat)
                compiles = [s for s in doc["spans"] if s["name"] == "compile"]
                if compiles:
                    break
        assert compiles, "repeat request never reached the pool"
        assert "cached" in compiles[0]["attrs"]
        assert "tier_used" not in compiles[0]["attrs"]
        root = [s for s in doc["spans"]
                if s["span_id"] == doc["root_span_id"]][0]
        # the pool's cache-locality probe saw the resident program
        assert root["attrs"]["warm"] is True

    def test_coalesced_rider_records_join_span(self, hosted, monkeypatch):
        """Pipelined identical analyzes single-flight on the dispatcher;
        the riders' traces carry a coalesce_join span instead of the
        leader's queue_wait/compile spans.  The leader's compile is held
        until the stats verb counts all five riders joined, so they
        coalesce however fast that compile would have been."""
        source = _source("coalesce", increment=9)
        release = threading.Event()
        compile_ = Engine.compile

        def held_compile(engine, text, **kwargs):
            if text == source:
                release.wait(timeout=60.0)
            return compile_(engine, text, **kwargs)

        monkeypatch.setattr(Engine, "compile", held_compile)
        trace_ids = [mint_trace_id() for _ in range(6)]
        with _client(hosted) as client, _client(hosted) as observer:
            coalesced = observer.stats().stats["coalesced"]
            try:
                for trace_id in trace_ids:
                    client.send_line(wire_json(AnalyzeRequest(
                        source=source, loop="target",
                        trace={"trace_id": trace_id, "sampled": True},
                    ).to_json()))
                deadline = time.monotonic() + 60.0
                while observer.stats().stats["coalesced"] < coalesced + 5:
                    assert time.monotonic() < deadline, "riders never joined"
                    time.sleep(0.01)
            finally:
                release.set()
            for _ in trace_ids:
                assert client.recv().to_json()["kind"] == "analyze"
            docs = [_fetch_trace(client, trace_id)
                    for trace_id in trace_ids]
        names_per_doc = [
            {span["name"] for span in doc["spans"]} for doc in docs
        ]
        assert sum("compile" in names for names in names_per_doc) == 1
        joined = [doc for doc, names in zip(docs, names_per_doc)
                  if "coalesce_join" in names]
        assert len(joined) == 5, "every pipelined rider coalesces"
        for doc in joined:
            _assert_well_formed(doc)


class TestErrorTraces:
    def test_bad_request_trace_is_always_kept(self, hosted):
        # sampled=False: retention rides purely on the error class
        trace_id = mint_trace_id()
        request = AnalyzeRequest(
            source=_source("bad_loop"), loop="no_such_loop",
            trace={"trace_id": trace_id, "sampled": False},
        )
        with _client(hosted) as client:
            response = client.call(request)
            assert response.code == "bad_request"
            doc = _fetch_trace(client, trace_id)
        assert doc["status"] == "error"
        assert doc["keep"] == "error"
        root = [s for s in doc["spans"]
                if s["span_id"] == doc["root_span_id"]][0]
        assert root["attrs"]["error_code"] == "bad_request"
        assert root["status"] == "error"

    def test_recent_listing_filters_by_status(self, hosted):
        with _client(hosted) as client:
            response = client.trace(limit=50, status="error")
            assert isinstance(response, TraceResponse)
            assert response.traces, "the error trace above must be listed"
            assert all(d["status"] == "error" for d in response.traces)
            # newest first
            starts = [d["start_s"] for d in response.traces]
            assert starts == sorted(starts, reverse=True)

    def test_unknown_id_returns_empty_not_error(self, hosted):
        with _client(hosted) as client:
            response = client.trace(trace_id="f" * 32)
        assert isinstance(response, TraceResponse)
        assert response.traces == []
        assert response.store["offered"] >= 1


class TestStatsExtensions:
    def test_stats_carries_analysis_cache_and_trace_store(self, hosted):
        with _client(hosted) as client:
            response = client.stats()
        assert isinstance(response, StatsResponse)
        stats = response.stats
        cache_counts = stats["analysis_cache"]
        assert len(cache_counts) == 2  # one per worker engine
        for counts in cache_counts:
            assert set(counts) == {"hits", "misses"}
            assert counts["hits"] >= 0 and counts["misses"] >= 0
        assert sum(c["misses"] for c in cache_counts) >= 1  # cold compiles
        store = stats["trace_store"]
        assert store["kept"] >= 1
        assert store["traces"] <= store["max_traces"]
        assert store["spans"] <= store["max_spans"]


class TestHeadSampling:
    def test_trace_sample_one_keeps_untraced_requests(self):
        thread = ServerThread(
            workers=1, engine_config=EngineConfig(use_disk_cache=False),
            trace_sample=1.0,
        ).start()
        try:
            host, port = thread.address
            with ServerClient(host, port) as client:
                client.call(AnalyzeRequest(
                    source=_source("head_sampled"), loop="target",
                ))
                response = client.trace(limit=10)
            assert len(response.traces) == 1
            doc = response.traces[0]
            assert doc["sampled"] is True  # upgraded at the door
            assert doc["keep"] in ("sampled", "slow")
            assert any(s["name"] == "compile" and "phases" in s["attrs"]
                       for s in doc["spans"])
        finally:
            thread.stop()

    def test_trace_sample_validation(self):
        from repro.server import ReproServer

        with pytest.raises(ValueError, match="trace_sample"):
            ReproServer(workers=1, trace_sample=1.5)

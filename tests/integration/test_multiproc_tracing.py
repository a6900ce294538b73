"""End-to-end tracing across the process boundary: the front tier
stitches each backend's spans under its own backend-RPC span, so one
request reads as one tree even though two interpreters served it.

The chaos bar from the issue: a request whose backend is SIGKILLed
mid-flight must still yield a *kept* trace containing the
retryable-error backend_rpc span -- the trace survives the kill even
though the backend's own span store died with it.
"""

import itertools
import signal
import time

import pytest

from repro.api import AnalyzeRequest, ExecuteRequest, JsonDiskCache, TraceResponse
from repro.server import FrontTier, ServerClient, ServerThread
from repro.server.tracing import mint_trace_id
from repro.workloads import ALL_BENCHMARKS

SOURCE = """
program multiproc_tracing
param N
array A(200), B(200), IDX(200)

main
  do i = 1, N @ target
    t = B[i] + 1
    A[IDX[i]] = A[IDX[i]] + t
  end
end
"""

# structurally distinct from SOURCE so the backend pays the factor
# cascade (its memo is keyed on the USR, not the source digest)
PHASES_SOURCE = """
program multiproc_phases
param N
array C(300), D(300), J(300)

main
  do i = 1, N @ target
    u = D[i + 2] + 3
    C[J[i] + 1] = C[J[i] + 1] + u
  end
end
"""

PARAMS = {"N": 20}
ARRAYS = {"IDX": [(i % 7) + 1 for i in range(200)], "B": [2] * 200}


@pytest.fixture(scope="module")
def hosted():
    front = FrontTier(
        backends=2, replicas=2, backend_workers=1, use_disk_cache=False,
    )
    thread = ServerThread(server=front).start()
    yield thread, front
    thread.stop()


def _client(hosted):
    thread = hosted[0]
    host, port = thread.address
    return ServerClient(host, port)


def _traced_execute(source=SOURCE):
    trace_id = mint_trace_id()
    return trace_id, ExecuteRequest(
        source=source, loop="target", params=PARAMS, arrays=ARRAYS,
        trace={"trace_id": trace_id, "sampled": True},
    )


def _fetch(client, trace_id):
    response = client.trace(trace_id=trace_id)
    assert isinstance(response, TraceResponse)
    assert len(response.traces) == 1, f"trace {trace_id} not kept"
    return response.traces[0]


class TestStitchedTrees:
    def test_front_and_backend_spans_form_one_tree(self, hosted):
        trace_id, request = _traced_execute()
        with _client(hosted) as client:
            assert client.call(request).to_json()["kind"] == "execute"
            doc = _fetch(client, trace_id)

        spans = doc["spans"]
        by_id = {span["span_id"]: span for span in spans}
        front_root = by_id[doc["root_span_id"]]
        assert front_root["attrs"]["tier"] == "front"
        assert front_root["attrs"]["verb"] == "execute"

        names = [span["name"] for span in spans]
        for expected in ("request", "route", "backend_rpc",
                         "queue_wait", "compile", "execute"):
            assert expected in names, f"missing {expected} in {names}"

        # the backend's own root hangs under the front's RPC span
        rpc_spans = [s for s in spans if s["name"] == "backend_rpc"]
        backend_roots = [
            s for s in spans
            if s["name"] == "request" and s["attrs"].get("tier") == "threads"
        ]
        assert backend_roots, "backend subtree was not stitched"
        rpc_ids = {s["span_id"] for s in rpc_spans}
        for backend_root in backend_roots:
            assert backend_root["parent_span_id"] in rpc_ids

        # every span resolves into the single tree, and wall-clock
        # timestamps line up across the two processes (same host; allow
        # a little scheduling slack)
        slack = 0.05
        for span in spans:
            if span["span_id"] == doc["root_span_id"]:
                continue
            assert span["parent_span_id"] in by_id
            assert span["start_s"] >= front_root["start_s"] - slack
            assert span["end_s"] <= front_root["end_s"] + slack
            assert span["end_s"] >= span["start_s"]

        # compile + execute happen inside the backend RPC window
        rpc = rpc_spans[0]
        backend_work = [s for s in spans if s["name"] in ("compile", "execute")]
        for span in backend_work:
            assert span["start_s"] >= rpc["start_s"] - slack
            assert span["end_s"] <= rpc["end_s"] + slack

        # direct children of the front root sum to no more than it
        children = [s for s in spans
                    if s["parent_span_id"] == doc["root_span_id"]]
        assert sum(s["duration_s"] for s in children) \
            <= front_root["duration_s"] + slack

    def test_phase_attribution_crosses_the_process_boundary(self, hosted):
        trace_id, request = _traced_execute(source=PHASES_SOURCE)
        with _client(hosted) as client:
            client.call(request)
            doc = _fetch(client, trace_id)
        compile_spans = [s for s in doc["spans"] if s["name"] == "compile"]
        assert compile_spans, "backend compile span was not stitched"
        phases = compile_spans[0]["attrs"].get("phases", {})
        assert {"summarize", "usr_build", "cascade"} <= set(phases)
        execute_spans = [s for s in doc["spans"] if s["name"] == "execute"]
        assert execute_spans and "backend_used" in execute_spans[0]["attrs"]

    def test_route_span_names_the_chosen_backend(self, hosted):
        trace_id, request = _traced_execute()
        with _client(hosted) as client:
            client.call(request)
            doc = _fetch(client, trace_id)
        route_spans = [s for s in doc["spans"] if s["name"] == "route"]
        assert route_spans
        attrs = route_spans[0]["attrs"]
        assert attrs["primary"] in (0, 1)
        assert "target" in attrs
        rpc = [s for s in doc["spans"] if s["name"] == "backend_rpc"][0]
        assert rpc["attrs"]["backend"] in (0, 1)

    def test_recent_listing_on_the_front_tier(self, hosted):
        with _client(hosted) as client:
            response = client.trace(limit=50)
        assert response.traces, "forced traces must be kept on the front"
        assert response.store["kept"] >= 1
        for doc in response.traces:
            root = [s for s in doc["spans"]
                    if s["span_id"] == doc["root_span_id"]]
            assert root and root[0]["attrs"]["tier"] == "front"


class TestMultiprocStats:
    def test_backend_stats_carry_analysis_cache_and_trace_store(self, hosted):
        with _client(hosted) as client:
            stats = client.stats().stats
        for backend in stats["backends"]:
            backend_stats = backend["stats"]
            assert "analysis_cache" in backend_stats
            for counts in backend_stats["analysis_cache"]:
                assert set(counts) == {"hits", "misses"}
            assert "trace_store" in backend_stats


class TestChaosTracing:
    def test_sigkilled_backend_yields_retryable_error_span(self, hosted):
        """SIGKILL backend 0 while it analyzes a request it owns: the
        request's trace records the dead backend as a backend_rpc span
        with status=error, error=backend_died, retryable=True -- kept,
        not dropped.  The kill fires once the front tier counts the
        request in flight on backend 0, while its cold compile (zeusmp's
        tranx2_do2100, the slowest paper loop to plan) is still running."""
        thread, front = hosted
        assert front.supervisor.wait_up(timeout_s=60.0), \
            "fleet never converged"
        zeusmp = next(b for b in ALL_BENCHMARKS if b.name == "zeusmp")
        source = next(
            text for text in (
                zeusmp.source.replace("program zeusmp", f"program chaos{k}", 1)
                for k in itertools.count()
            )
            if front.router.primary(JsonDiskCache.digest(text)) == 0
        )
        trace_id = mint_trace_id()
        request = AnalyzeRequest(
            source=source, loop="tranx2_do2100",
            trace={"trace_id": trace_id, "sampled": True},
        )
        with _client(hosted) as client, _client(hosted) as observer:
            client.send(request)
            deadline = time.monotonic() + 60.0
            while observer.stats().stats["front"]["backend_inflight"][0] < 1:
                assert time.monotonic() < deadline, "never reached backend 0"
                time.sleep(0.01)
            front.supervisor.kill(0, signal.SIGKILL)
            client.recv()  # answered by the next live ring successor
            doc = _fetch(client, trace_id)

        died = [s for s in doc["spans"] if s["attrs"].get("error") == "backend_died"]
        assert len(died) == 1, "the trace did not record the SIGKILLed backend"
        span = died[0]
        assert span["name"] == "backend_rpc"
        assert span["status"] == "error"
        assert span["attrs"]["retryable"] is True
        assert span["attrs"]["backend"] == 0
        # the trace is a well-formed tree rooted at the front tier
        by_id = {s["span_id"]: s for s in doc["spans"]}
        assert span["parent_span_id"] == doc["root_span_id"]
        assert doc["root_span_id"] in by_id

    def test_fleet_recovers_and_tracing_continues(self, hosted):
        thread, front = hosted
        assert front.supervisor.wait_up(timeout_s=60.0)
        trace_id, request = _traced_execute()
        with _client(hosted) as client:
            assert client.call(request).to_json()["kind"] == "execute"
            doc = _fetch(client, trace_id)
        assert doc["status"] == "ok"
        assert any(s["name"] == "backend_rpc" and s["status"] == "ok"
                   for s in doc["spans"])

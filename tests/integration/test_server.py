"""End-to-end serving: wire equivalence, error paths, pipelining,
shedding, stats, graceful shutdown, and the concurrent soak.

The load-bearing contract: anything served over the socket is
byte-identical (canonical text) to calling ``Engine.serve`` directly
in-process, and every malformed/oversized/overload condition yields a
structured error response on a connection that stays usable.
"""

import json
import random
import socket
import threading

import pytest

from repro.api import (
    PROTOCOL_VERSION,
    AnalyzeRequest,
    Engine,
    EngineConfig,
    ErrorResponse,
    ExecuteRequest,
    StatsResponse,
    wire_json,
)
from repro.server import (
    ServerClient,
    ServerThread,
    build_mix,
    make_request,
    run_load,
)

SOURCE = """
program server_test
param N
array A(200), B(200), IDX(200)

main
  do i = 1, N @ target
    t = B[i] + 1
    A[IDX[i]] = A[IDX[i]] + t
  end
end
"""

PARAMS = {"N": 20}
ARRAYS = {"IDX": [(i % 7) + 1 for i in range(200)], "B": [2] * 200}


@pytest.fixture(scope="module")
def hosted():
    thread = ServerThread(
        workers=3, engine_config=EngineConfig(use_disk_cache=False)
    ).start()
    yield thread
    thread.stop()


@pytest.fixture(scope="module")
def reference():
    return Engine(EngineConfig(use_disk_cache=False))


def _client(hosted):
    host, port = hosted.address
    return ServerClient(host, port)


class TestWireEquivalence:
    def test_analyze_matches_in_process(self, hosted, reference):
        request = AnalyzeRequest(source=SOURCE, loop="target")
        with _client(hosted) as client:
            served = client.call(request)
        assert served.canonical_text() == reference.serve(request).canonical_text()

    def test_execute_matches_in_process(self, hosted, reference):
        request = ExecuteRequest(
            source=SOURCE, loop="target", params=PARAMS, arrays=ARRAYS
        )
        with _client(hosted) as client:
            served = client.call(request)
        assert served.canonical_text() == reference.serve(request).canonical_text()

    def test_mixed_programs_match(self, hosted, reference):
        mix = build_mix(seed=11, programs=6)
        rng = random.Random(11)
        with _client(hosted) as client:
            for _ in range(24):
                request = make_request(rng, mix, analyze_fraction=0.75)
                served = client.call(request)
                expected = reference.serve(request)
                assert served.canonical_text() == expected.canonical_text()


class TestErrorPaths:
    def test_malformed_json(self, hosted):
        with _client(hosted) as client:
            client.send_line("{not json")
            response = client.recv()
            assert isinstance(response, ErrorResponse)
            assert response.code == "malformed"
            assert response.retryable is False

    def test_non_object_payload(self, hosted):
        with _client(hosted) as client:
            client.send_line("[1, 2, 3]")
            assert client.recv().code == "malformed"

    def test_wrong_protocol_version(self, hosted):
        with _client(hosted) as client:
            client.send_line(wire_json({
                "kind": "analyze", "version": PROTOCOL_VERSION + 1,
                "source": SOURCE, "loop": "target",
            }))
            response = client.recv()
            assert response.code == "unsupported_version"
            assert str(PROTOCOL_VERSION) in response.message

    def test_unknown_verb(self, hosted):
        with _client(hosted) as client:
            client.send_line(wire_json({
                "kind": "frobnicate", "version": PROTOCOL_VERSION,
            }))
            assert client.recv().code == "unknown_verb"

    def test_missing_field_is_bad_request(self, hosted):
        with _client(hosted) as client:
            client.send_line(wire_json({
                "kind": "analyze", "version": PROTOCOL_VERSION,
            }))  # no source/loop
            assert client.recv().code == "bad_request"

    def test_non_string_source_is_bad_request(self, hosted):
        with _client(hosted) as client:
            client.send_line(wire_json({
                "kind": "analyze", "version": PROTOCOL_VERSION,
                "source": 123, "loop": "target",
            }))
            assert client.recv().code == "bad_request"
            client.send_line(wire_json({
                "kind": "execute", "version": PROTOCOL_VERSION,
                "source": SOURCE, "loop": None,
            }))
            assert client.recv().code == "bad_request"
            # the connection survived both
            response = client.call(AnalyzeRequest(source=SOURCE, loop="target"))
            assert not isinstance(response, ErrorResponse)

    def test_mistyped_container_fields_are_bad_requests(self, hosted):
        """Non-object params/arrays/options/chunk must never escape as
        an unhandled exception (the connection survives every one)."""
        bad_payloads = [
            {"kind": "execute", "version": PROTOCOL_VERSION,
             "source": SOURCE, "loop": "target", "arrays": [1, 2]},
            {"kind": "execute", "version": PROTOCOL_VERSION,
             "source": SOURCE, "loop": "target", "arrays": {"A": 7}},
            {"kind": "execute", "version": PROTOCOL_VERSION,
             "source": SOURCE, "loop": "target", "params": "N=4"},
            {"kind": "execute", "version": PROTOCOL_VERSION,
             "source": SOURCE, "loop": "target", "chunk": "static"},
            {"kind": "analyze", "version": PROTOCOL_VERSION,
             "source": SOURCE, "loop": "target", "options": [1]},
        ]
        with _client(hosted) as client:
            for payload in bad_payloads:
                client.send_line(wire_json(payload))
                assert client.recv().code == "bad_request", payload
            response = client.call(AnalyzeRequest(source=SOURCE, loop="target"))
            assert not isinstance(response, ErrorResponse)

    def test_mistyped_scalar_fields_never_reach_a_worker(self, hosted):
        """Outside input the decoder used to wave through (a string
        ``jobs``, a string param value, a NaN stream interval) was
        queued, compiled and answered from the worker with a Python
        ``TypeError`` text; it is refused at admission -- a readable
        ``bad_request`` and no queue slot."""
        execute = {"kind": "execute", "version": PROTOCOL_VERSION,
                   "source": SOURCE, "loop": "target"}
        cases = [
            (wire_json(dict(execute, jobs="two")),
             "ExecuteRequest: 'jobs' must be a positive integer or null (got 'two')"),
            (wire_json(dict(execute, jobs=2.5)),
             "ExecuteRequest: 'jobs' must be a positive integer or null (got 2.5)"),
            (wire_json(dict(execute, params={"N": "x"})),
             "ExecuteRequest: param 'N' must be an integer (got str)"),
            (wire_json({"kind": "execute", "version": PROTOCOL_VERSION,
                        "source": SOURCE}),
             "ExecuteRequest: missing required field 'loop'"),
            ('{"kind":"subscribe","version":%d,"interval_s":NaN}'
             % PROTOCOL_VERSION,
             "SubscribeRequest: 'interval_s' must be a finite number (got nan)"),
            (wire_json({"kind": ["x"], "version": PROTOCOL_VERSION}),
             "unknown request kind ['x']"),
        ]
        with _client(hosted) as client:
            before = client.stats().stats
            for line, message in cases:
                client.send_line(line)
                response = client.recv()
                assert isinstance(response, ErrorResponse), line
                assert response.message == message
            after = client.stats().stats
        assert after["completed"] == before["completed"]
        assert after["inflight"] == 0
        assert after["errors"]["bad_request"] == before["errors"]["bad_request"] + 5
        assert after["errors"]["unknown_verb"] == before["errors"]["unknown_verb"] + 1
        # the unhashable kind was never counted as a verb
        assert sum(after["requests"].values()) == \
            sum(before["requests"].values()) + 5 + 1  # + the second stats call

    def test_unknown_loop_is_bad_request(self, hosted):
        with _client(hosted) as client:
            response = client.call(
                AnalyzeRequest(source=SOURCE, loop="no_such_loop")
            )
            assert isinstance(response, ErrorResponse)
            assert response.code == "bad_request"

    def test_overlong_input_array_is_bad_request(self, hosted):
        """More values than ``B(200)`` declares: the caller's mistake,
        named on the wire, not an ``internal`` error."""
        arrays = dict(ARRAYS, B=[2] * 201)
        with _client(hosted) as client:
            response = client.call(ExecuteRequest(
                source=SOURCE, loop="target", params=PARAMS, arrays=arrays
            ))
        assert isinstance(response, ErrorResponse)
        assert response.code == "bad_request"
        assert response.message == (
            "array 'B' is declared with extent 200 but 201 values were supplied"
        )

    def test_error_schema_is_stable(self, hosted):
        with _client(hosted) as client:
            client.send_line("oops")
            payload = client.recv_raw()
        assert set(payload) == {"kind", "version", "code", "message", "retryable"}
        assert payload["kind"] == "error"
        assert payload["version"] == PROTOCOL_VERSION

    def test_connection_survives_every_error(self, hosted, reference):
        request = AnalyzeRequest(source=SOURCE, loop="target")
        with _client(hosted) as client:
            for bad in ("junk", "[]", '{"kind": "x", "version": 3}'):
                client.send_line(bad)
                assert isinstance(client.recv(), ErrorResponse)
            served = client.call(request)
            assert served.canonical_text() == \
                reference.serve(request).canonical_text()


class TestOversizedRequests:
    def test_too_large_then_resync(self, reference):
        hosted = ServerThread(
            workers=1,
            engine_config=EngineConfig(use_disk_cache=False),
            max_request_bytes=4096,
        ).start()
        try:
            with _client(hosted) as client:
                client.send_line("x" * 20_000)
                response = client.recv()
                assert response.code == "too_large"
                assert "4096" in response.message
                # the stream resynchronized: next request works
                request = AnalyzeRequest(source=SOURCE, loop="target")
                served = client.call(request)
                assert served.canonical_text() == \
                    reference.serve(request).canonical_text()
        finally:
            hosted.stop()


class TestPipelining:
    def test_responses_come_back_in_request_order(self, hosted, reference):
        requests = [
            AnalyzeRequest(source=SOURCE, loop="target"),
            ExecuteRequest(source=SOURCE, loop="target",
                           params=PARAMS, arrays=ARRAYS),
            AnalyzeRequest(source=SOURCE.replace("+ t", "+ (t * 2)"),
                           loop="target"),
        ] * 4
        with _client(hosted) as client:
            for request in requests:
                client.send(request)
            for request in requests:
                served = client.recv()
                assert served.canonical_text() == \
                    reference.serve(request).canonical_text()

    def test_blank_lines_are_ignored(self, hosted):
        with _client(hosted) as client:
            client.send_line("")
            client.send_line("   ")
            response = client.call(AnalyzeRequest(source=SOURCE, loop="target"))
            assert not isinstance(response, ErrorResponse)

    def test_half_close_with_full_pipeline_loses_nothing(self, monkeypatch):
        """A client that pipelines past the queue bound, half-closes its
        write side, and keeps reading must still receive every
        response."""
        import repro.server.lineserver as lineserver_mod

        monkeypatch.setattr(lineserver_mod, "MAX_PIPELINED", 2)
        hosted = ServerThread(
            workers=1, engine_config=EngineConfig(use_disk_cache=False)
        ).start()
        try:
            host, port = hosted.address
            count = 10
            with ServerClient(host, port) as client:
                request = AnalyzeRequest(source=SOURCE, loop="target")
                for _ in range(count):
                    client.send(request)
                client.sock.shutdown(socket.SHUT_WR)
                responses = [client.recv() for _ in range(count)]
            assert len(responses) == count
            assert all(not isinstance(r, ErrorResponse) for r in responses)
        finally:
            hosted.stop()


class TestStatsVerb:
    def test_stats_counts_served_requests(self, hosted):
        with _client(hosted) as client:
            before = client.stats().stats
            client.call(AnalyzeRequest(source=SOURCE, loop="target"))
            client.send_line("junk")
            client.recv()
            after = client.stats().stats
        assert after["requests"]["analyze"] >= before["requests"]["analyze"] + 1
        assert after["errors"]["malformed"] >= before["errors"]["malformed"] + 1
        assert after["requests"]["stats"] >= before["requests"]["stats"] + 1
        assert after["connections"] >= 1

    def test_stats_document_shape(self, hosted):
        with _client(hosted) as client:
            response = client.stats()
        assert isinstance(response, StatsResponse)
        stats = response.stats
        assert set(stats["latency"]) == {
            "count", "invalid", "mean_s", "p50_s", "p95_s", "p99_s", "max_s",
        }
        assert stats["completed"] >= 0

    def test_stats_document_carries_admission_state(self, hosted):
        """The v6 stats doc exposes the admission budget and the live
        per-worker queue depths alongside the counters."""
        with _client(hosted) as client:
            stats = client.stats().stats
        admission = stats["admission"]
        assert admission["adaptive"] is False  # static server by default
        assert admission["max_inflight"] == admission["base_max_inflight"]
        assert admission["shed_total"] >= 0
        assert "controller" not in admission
        depths = stats["queue_depths"]
        assert len(depths) == 3  # one per worker
        assert all(isinstance(d, int) and d >= 0 for d in depths)


class TestStreaming:
    """The protocol v6 ``subscribe`` verb over a real socket."""

    STREAM_KEYS = {
        "counters", "gauges", "hot_shards", "latency", "topology",
        "uptime_s",
    }

    def test_fixed_frame_stream_then_connection_reusable(self, hosted):
        with _client(hosted) as client:
            frames = list(client.subscribe(interval_s=0.05, frames=3))
            assert [f.seq for f in frames] == [0, 1, 2]
            assert [f.final for f in frames] == [False, False, True]
            for frame in frames:
                assert set(frame.stream) == self.STREAM_KEYS
                assert frame.stream["topology"] == "threads"
                assert frame.stream["hot_shards"] is None
                assert "inflight" in frame.stream["gauges"]
                assert "connections" in frame.stream["gauges"]
            # elapsed_s is the gap since the previous frame: zero on the
            # first (no predecessor), roughly the interval afterwards
            assert frames[0].elapsed_s == 0.0
            assert all(f.elapsed_s > 0.0 for f in frames[1:])
            # the same connection serves ordinary requests afterwards
            response = client.call(AnalyzeRequest(source=SOURCE, loop="target"))
            assert not isinstance(response, ErrorResponse)

    def test_unsubscribe_acks_with_exact_frame_count(self, hosted):
        with _client(hosted) as client:
            stream = client.subscribe(interval_s=0.05)
            seen = [next(stream), next(stream)]
            assert not seen[-1].final
            ack = client.unsubscribe()
            assert ack.frames >= len(seen)
            # stream slot released: a fresh subscribe works
            refreshed = list(client.subscribe(interval_s=0.05, frames=1))
            assert len(refreshed) == 1 and refreshed[0].final

    def test_duplicate_subscribe_is_rejected_in_order(self, hosted):
        from repro.api import (
            MetricsFrame,
            SubscribeRequest,
            UnsubscribeRequest,
            UnsubscribeResponse,
        )

        with _client(hosted) as client:
            client.send(SubscribeRequest(interval_s=0.05))
            client.send(SubscribeRequest(interval_s=0.05))  # while active
            client.send(UnsubscribeRequest())
            # responses arrive in request order: the stream's frames
            # (ending in a final one), then the duplicate's error, then
            # the ack
            response = client.recv()
            while isinstance(response, MetricsFrame) and not response.final:
                response = client.recv()
            assert isinstance(response, MetricsFrame) and response.final
            error = client.recv()
            assert isinstance(error, ErrorResponse)
            assert error.code == "bad_request"
            assert "already active" in error.message
            ack = client.recv()
            assert isinstance(ack, UnsubscribeResponse)

    def test_unsubscribe_without_stream_is_bad_request(self, hosted):
        from repro.api import UnsubscribeRequest

        with _client(hosted) as client:
            response = client.call(UnsubscribeRequest())
            assert isinstance(response, ErrorResponse)
            assert response.code == "bad_request"

    def test_late_subscriber_receives_ring_history(self):
        import time

        hosted = ServerThread(
            workers=1,
            engine_config=EngineConfig(use_disk_cache=False),
            sample_interval_s=0.05,
        ).start()
        try:
            host, port = hosted.address
            time.sleep(0.4)  # let the sampler fill the ring
            with ServerClient(host, port) as client:
                frames = list(client.subscribe(frames=1, history=4))
            first = frames[0]
            assert 1 <= len(first.history) <= 4
            for entry in first.history:
                assert {"seq", "uptime_s", "completed", "shed"} <= set(entry)
            assert [h["seq"] for h in first.history] == \
                sorted(h["seq"] for h in first.history)
        finally:
            hosted.stop()

    def test_run_top_once_renders_headless(self, hosted):
        import io

        from repro.server import run_top

        host, port = hosted.address
        out = io.StringIO()
        code = run_top(host, port, interval_s=0.05, once=True,
                       history=4, out=out)
        text = out.getvalue()
        assert code == 0
        assert f"repro-eval top -- {host}:{port}" in text
        assert "topology=threads" in text
        assert "(final)" in text  # --once requests exactly one frame
        assert "\x1b" not in text  # headless: no ANSI control codes

    def test_run_top_reports_connection_failure(self):
        import io

        from repro.server import run_top

        # nothing listens on this port (we never started a server there)
        assert run_top("127.0.0.1", 1, once=True, out=io.StringIO()) == 1

    def test_adaptive_server_reports_controller_in_stats(self):
        hosted = ServerThread(
            workers=1,
            engine_config=EngineConfig(use_disk_cache=False),
            max_inflight=8,
            adaptive_admission=True,
        ).start()
        try:
            host, port = hosted.address
            with ServerClient(host, port) as client:
                admission = client.stats().stats["admission"]
            assert admission["adaptive"] is True
            assert admission["base_max_inflight"] == 8
            controller = admission["controller"]
            assert controller["budget"] == admission["max_inflight"]
            assert controller["floor"] >= 1
            assert controller["cap"] == 32
        finally:
            hosted.stop()


class TestOverload:
    def test_burst_beyond_budget_sheds_typed_errors(self):
        hosted = ServerThread(
            workers=1,
            engine_config=EngineConfig(use_disk_cache=False),
            queue_depth=1,
            max_inflight=1,
        ).start()
        try:
            count = 20
            with _client(hosted) as client:
                request = ExecuteRequest(
                    source=SOURCE, loop="target", params=PARAMS, arrays=ARRAYS
                )
                for _ in range(count):
                    client.send(request)
                responses = [client.recv() for _ in range(count)]
            ok = [r for r in responses if not isinstance(r, ErrorResponse)]
            shed = [r for r in responses if isinstance(r, ErrorResponse)]
            assert len(ok) + len(shed) == count
            assert ok, "at least one request must be served"
            assert shed, "a 1-deep server must shed a 20-request burst"
            assert all(r.code == "overloaded" and r.retryable for r in shed)
            snapshot = hosted.server.metrics.snapshot()
            assert snapshot["shed"] == len(shed)
        finally:
            hosted.stop()


class TestGracefulShutdown:
    def test_stop_completes_and_port_closes(self):
        hosted = ServerThread(
            workers=2, engine_config=EngineConfig(use_disk_cache=False)
        ).start()
        host, port = hosted.address
        with ServerClient(host, port) as client:
            response = client.call(AnalyzeRequest(source=SOURCE, loop="target"))
            assert not isinstance(response, ErrorResponse)
        hosted.stop()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2)

    def test_stop_with_idle_open_connection(self):
        hosted = ServerThread(
            workers=1, engine_config=EngineConfig(use_disk_cache=False)
        ).start()
        host, port = hosted.address
        idle = ServerClient(host, port)
        try:
            idle.call(AnalyzeRequest(source=SOURCE, loop="target"))
            hosted.stop()  # must not hang on the idle connection
        finally:
            idle.close()

    def test_double_stop_is_idempotent(self):
        hosted = ServerThread(
            workers=1, engine_config=EngineConfig(use_disk_cache=False)
        ).start()
        hosted.stop()
        hosted.stop()


@pytest.mark.slow
class TestSoak:
    def test_1000_requests_16_connections_byte_identical(self):
        """The acceptance soak: >= 1000 mixed analyze/execute requests
        over >= 16 concurrent connections, every response byte-identical
        to in-process Engine.serve, zero transport failures."""
        hosted = ServerThread(
            workers=4, engine_config=EngineConfig(use_disk_cache=False)
        ).start()
        host, port = hosted.address
        reference = Engine(EngineConfig(use_disk_cache=False))
        mix = build_mix(seed=3, programs=10)
        connections = 16
        per_connection = 63  # 16 * 63 = 1008 requests
        failures = []

        def drive(worker_id):
            rng = random.Random(1000 + worker_id)
            try:
                with ServerClient(host, port, timeout=300) as client:
                    for i in range(per_connection):
                        request = make_request(rng, mix, analyze_fraction=0.8)
                        served = client.call(request)
                        expected = reference.serve(request)
                        if served.canonical_text() != expected.canonical_text():
                            failures.append(
                                f"conn {worker_id} req {i}: mismatch for "
                                f"{type(request).__name__}"
                            )
            except Exception as exc:  # noqa: BLE001 -- any failure fails the soak
                failures.append(f"conn {worker_id}: {type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=drive, args=(i,)) for i in range(connections)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snapshot = hosted.server.metrics.snapshot()
        hosted.stop()
        assert not failures, failures[:5]
        assert snapshot["completed"] == connections * per_connection
        assert snapshot["shed"] == 0
        assert snapshot["inflight"] == 0

    def test_run_load_closed_and_open_loop(self):
        hosted = ServerThread(
            workers=2, engine_config=EngineConfig(use_disk_cache=False)
        ).start()
        host, port = hosted.address
        try:
            closed = run_load(host, port, clients=6, requests=120, seed=5)
            assert closed["completed"] == 120
            assert closed["errors"] == 0
            assert not closed["failures"]
            assert closed["latency"]["p50_s"] <= closed["latency"]["p99_s"]
            opened = run_load(
                host, port, clients=4, requests=80, mode="open",
                rate=400, seed=6,
            )
            assert opened["completed"] == 80
            assert not opened["failures"]
        finally:
            hosted.stop()

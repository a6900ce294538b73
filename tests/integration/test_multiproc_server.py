"""End-to-end multi-process serving: the front tier over real backend
processes.

The load-bearing contracts, in test order: byte transparency (a client
cannot tell the fleet from one server), typed error paths answered at
the front without burning a backend round trip, the topology-aware
stats document, hot-shard replica fan-out, and the chaos bar -- a
backend SIGKILLed under load never drops a connection or emits a
malformed response, only (at worst) a typed *retryable* ``overloaded``
error, and the supervisor brings the fleet back to full strength.
"""

import collections
import json
import random
import signal
import threading
import time

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
    FrontTier,
    ServerClient,
    ServerThread,
    build_mix,
    make_request,
)

SOURCE = """
program multiproc_test
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
    """A front tier over two real backend processes (no disk cache);
    hot_rps is set low so the fan-out test can trip it quickly."""
    front = FrontTier(
        backends=2, replicas=2, backend_workers=1,
        use_disk_cache=False, hot_rps=5.0,
    )
    thread = ServerThread(server=front).start()
    yield thread, front
    thread.stop()


@pytest.fixture(scope="module")
def direct():
    """A plain single-process server, the byte-transparency reference."""
    thread = ServerThread(
        workers=1, engine_config=EngineConfig(use_disk_cache=False)
    ).start()
    yield thread
    thread.stop()


@pytest.fixture(scope="module")
def reference():
    return Engine(EngineConfig(use_disk_cache=False))


def _client(hosted_or_thread):
    thread = hosted_or_thread[0] if isinstance(hosted_or_thread, tuple) else hosted_or_thread
    host, port = thread.address
    return ServerClient(host, port)


def _stats(hosted):
    with _client(hosted) as client:
        response = client.stats()
    assert isinstance(response, StatsResponse)
    return response.stats


def _wait(predicate, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


def _doc(**fields):
    return wire_json(dict({"version": PROTOCOL_VERSION}, **fields))


def _execute(**fields):
    return _doc(kind="execute", source=SOURCE, loop="target", **fields)


#: (case name, raw lines sent on one fresh connection, how many of them
#: open a metrics stream) -- everything outside input can get wrong at
#: the front door.  Each line must draw the same error bytes from the
#: fleet and from a single server.
HOSTILE_LINES = [
    ("oversized", ["x" * (1024 * 1024 + 1)], 0),
    ("not-json", ["{not json"], 0),
    ("json-array", ["[1, 2]"], 0),
    ("json-scalar", ["7"], 0),
    ("wrong-version", [wire_json({"kind": "stats", "version": PROTOCOL_VERSION + 1})], 0),
    ("missing-version", [wire_json({"kind": "stats"})], 0),
    ("unknown-verb", [_doc(kind="reticulate")], 0),
    ("response-kind-as-verb", [_doc(kind="metrics")], 0),
    ("unhashable-kind-list", [_doc(kind=["x"])], 0),
    ("unhashable-kind-object", [_doc(kind={})], 0),
    ("missing-kind", [_doc()], 0),
    ("missing-loop", [_doc(kind="analyze", source=SOURCE)], 0),
    ("source-not-string", [_doc(kind="analyze", source=7, loop="target")], 0),
    ("subscribe-zero-interval", [_doc(kind="subscribe", interval_s=0)], 0),
    ("subscribe-nan-interval",
     ['{"kind":"subscribe","version":%d,"interval_s":NaN}' % PROTOCOL_VERSION], 0),
    ("subscribe-infinite-interval",
     ['{"kind":"subscribe","version":%d,"interval_s":Infinity}' % PROTOCOL_VERSION], 0),
    ("subscribe-negative-frames", [_doc(kind="subscribe", frames=-1)], 0),
    ("duplicate-subscribe",
     [_doc(kind="subscribe", interval_s=0.05), _doc(kind="subscribe"),
      _doc(kind="unsubscribe")], 1),
    ("unsubscribe-without-stream", [_doc(kind="unsubscribe")], 0),
    ("trace-limit-bool", [_doc(kind="trace", limit=True)], 0),
    ("trace-id-not-string", [_doc(kind="trace", trace_id=7)], 0),
    ("execute-jobs-string", [_execute(jobs="two")], 0),
    ("execute-jobs-float", [_execute(jobs=2.5)], 0),
    ("execute-backend-int", [_execute(backend=7)], 0),
    ("execute-null-strategy", [_execute(exact_strategy=None)], 0),
    ("execute-param-string", [_execute(params={"N": "x"})], 0),
    ("execute-array-not-list", [_execute(arrays={"B": 3})], 0),
]

EXPECTED_CODES = collections.defaultdict(lambda: {"bad_request"}, {
    "oversized": {"too_large"},
    "not-json": {"malformed"},
    "json-array": {"malformed"},
    "json-scalar": {"malformed"},
    "wrong-version": {"unsupported_version"},
    "missing-version": {"unsupported_version"},
    "unknown-verb": {"unknown_verb"},
    "response-kind-as-verb": {"unknown_verb"},
    "unhashable-kind-list": {"unknown_verb"},
    "unhashable-kind-object": {"unknown_verb"},
    "missing-kind": {"unknown_verb"},
})


def _error_lines(client, lines, streams):
    """Send *lines*; return the raw bytes of every error line among the
    answers (metrics frames, whose count is timing-dependent, and acks
    are read past: every line draws exactly one non-frame answer except
    a subscribe that opens a stream)."""
    for line in lines:
        client.send_line(line)
    errors, owed = [], len(lines) - streams
    while owed:
        raw = client._reader.readline()
        assert raw, "server closed the connection"
        kind = json.loads(raw)["kind"]
        if kind == "metrics":
            continue
        owed -= 1
        if kind == "error":
            errors.append(raw)
    return errors


def _admission_counts(hosted_or_thread):
    """The tier's own ``errors`` / ``requests`` counters (the fleet's
    live in the ``front`` half of the topology document)."""
    stats = _stats(hosted_or_thread)
    stats = stats.get("front", stats)
    return {"errors": stats["errors"], "requests": stats["requests"]}


def _delta(before, after):
    return {
        group: {key: after[group][key] - before[group][key] for key in after[group]}
        for group in after
    }


class TestByteTransparency:
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

    def test_wire_bytes_match_single_process_server(self, hosted, direct):
        """Literal byte equivalence: the same request lines produce the
        same response lines whether one server or a fleet answers."""
        mix = build_mix(seed=23, programs=5)
        rng = random.Random(23)
        lines = [
            wire_json(make_request(rng, mix, analyze_fraction=0.7).to_json())
            for _ in range(16)
        ]
        with _client(hosted) as fleet, _client(direct) as single:
            for line in lines:
                fleet.send_line(line)
                single.send_line(line)
                assert fleet.recv_raw() == single.recv_raw()


class TestErrorPaths:
    def test_malformed_json(self, hosted):
        with _client(hosted) as client:
            client.send_line("{not json")
            response = client.recv()
            assert isinstance(response, ErrorResponse)
            assert response.code == "malformed"
            assert response.retryable is False

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
                "kind": "reticulate", "version": PROTOCOL_VERSION,
            }))
            assert client.recv().code == "unknown_verb"

    def test_bad_request_bytes_match_single_process(self, hosted, direct):
        """Admission parity: both tiers run the one admission ladder, so
        every hostile line draws byte-identical error lines from the
        fleet and from a single server -- answered at the front, without
        a backend round trip -- and moves the same ``errors`` /
        ``requests`` counters on each."""
        for name, lines, streams in HOSTILE_LINES:
            before = _admission_counts(hosted), _admission_counts(direct)
            with _client(hosted) as fleet, _client(direct) as single:
                fleet_errors = _error_lines(fleet, lines, streams)
                single_errors = _error_lines(single, lines, streams)
            assert fleet_errors, name
            assert fleet_errors == single_errors, name
            for raw in fleet_errors:
                assert json.loads(raw)["code"] in EXPECTED_CODES[name], name
            after = _admission_counts(hosted), _admission_counts(direct)
            assert _delta(before[0], after[0]) == _delta(before[1], after[1]), name

    def test_removed_tiering_option_is_a_typed_error(self, hosted, direct):
        """The analyzer option deleted with Tier-0 is an unknown option
        like any other.  Unlike ``HOSTILE_LINES`` it is raised in a
        worker, behind admission (so the front's own error counters do
        not move and it cannot ride that loop): the answer is the same
        typed error line from the fleet and from a single server, names
        the six valid knobs, leaves nothing in flight, and the worker
        serves the next request."""
        from repro.api.engine import ANALYZER_KNOBS

        line = _doc(kind="analyze", source=SOURCE, loop="target",
                    options={"tiering": False})
        with _client(hosted) as fleet, _client(direct) as single:
            fleet_errors = _error_lines(fleet, [line], 0)
            assert fleet_errors == _error_lines(single, [line], 0)
            (raw,) = fleet_errors
            error = json.loads(raw)
            assert error["code"] == "bad_request"
            assert error["message"] == (
                "unknown analyzer option(s) ['tiering']; "
                f"valid: {list(ANALYZER_KNOBS)}"
            )
            assert len(ANALYZER_KNOBS) == 6
            for client in (fleet, single):
                served = client.call(AnalyzeRequest(source=SOURCE, loop="target"))
                assert served.to_json()["kind"] == "analyze"
        for tier in (hosted, direct):
            stats = _stats(tier)
            assert stats.get("front", stats)["inflight"] == 0
            for backend in stats.get("backends", []):
                assert backend["state"] == "up"
                assert backend["stats"]["inflight"] == 0

    def test_connection_survives_errors(self, hosted):
        with _client(hosted) as client:
            client.send_line("garbage")
            assert client.recv().code == "malformed"
            served = client.call(AnalyzeRequest(source=SOURCE, loop="target"))
            assert served.to_json()["kind"] == "analyze"


class TestTopologyStats:
    def test_stats_document_shape(self, hosted):
        stats = _stats(hosted)
        assert set(stats) == {"backends", "front", "topology"}
        topology = stats["topology"]
        assert topology["kind"] == "multiproc"
        assert topology["backends"] == 2
        assert topology["replicas"] == 2
        assert topology["live"] == 2
        assert len(stats["backends"]) == 2
        for backend in stats["backends"]:
            assert backend["state"] == "up"
            assert backend["pid"] is not None
            # each live backend contributed its own engine-level stats
            assert isinstance(backend["stats"], dict)
            assert "requests" in backend["stats"]
        assert "hot_shards" in stats["front"]
        assert stats["front"]["requests"]["stats"] >= 1
        # v6: live per-backend in-flight levels ride along
        inflight = stats["front"]["backend_inflight"]
        assert len(inflight) == 2
        assert all(isinstance(n, int) and n >= 0 for n in inflight)


class TestStreaming:
    def test_subscribe_streams_multiproc_frames(self, hosted):
        """The same v6 subscribe verb works against the front tier; its
        frames carry the fleet-shaped gauges and hot-shard snapshot."""
        with _client(hosted) as client:
            frames = list(client.subscribe(interval_s=0.05, frames=2))
            assert [f.seq for f in frames] == [0, 1]
            assert frames[-1].final
            for frame in frames:
                assert frame.stream["topology"] == "multiproc"
                hot = frame.stream["hot_shards"]
                assert isinstance(hot, dict) and "hot_digests" in hot
                gauges = frame.stream["gauges"]
                assert len(gauges["backend_inflight"]) == 2
                assert gauges["backends_live"] == 2
            # the connection serves ordinary requests after the stream
            served = client.call(AnalyzeRequest(source=SOURCE, loop="target"))
            assert served.to_json()["kind"] == "analyze"

    def test_unsubscribe_acks_on_front_tier(self, hosted):
        with _client(hosted) as client:
            stream = client.subscribe(interval_s=0.05)
            first = next(stream)
            assert first.seq == 0 and not first.final
            ack = client.unsubscribe()
            assert ack.frames >= 1


class TestHotShardFanOut:
    def test_sustained_hot_digest_fans_to_replicas(self, hosted):
        """Hammering one program past hot_rps flips the tracker and the
        analyzes start racing the replica set (fanouts > 0), without
        ever changing the answer."""
        thread, front = hosted
        request = AnalyzeRequest(source=SOURCE, loop="target")
        texts = set()
        with _client(hosted) as client:
            first = client.call(request)
            texts.add(first.canonical_text())
            for _ in range(40):
                texts.add(client.call(request).canonical_text())
        assert len(texts) == 1  # replicas agree byte-for-byte
        stats = _stats(hosted)
        assert stats["front"]["fanouts"] > 0
        assert stats["front"]["hot_shards"]["hot_digests"] >= 0


class TestChaos:
    def test_sigkill_under_load_yields_no_protocol_violations(self, hosted):
        """The chaos bar: SIGKILL a backend mid-load; every in-flight
        and subsequent request still gets exactly one well-formed
        response (success or typed retryable overloaded), no connection
        is dropped, and the supervisor restores the fleet."""
        thread, front = hosted
        mix = build_mix(seed=31, programs=8)
        violations = []
        responses = []
        lock = threading.Lock()

        def worker(seed):
            rng = random.Random(seed)
            try:
                with _client(hosted) as client:
                    for _ in range(25):
                        request = make_request(rng, mix, analyze_fraction=0.8)
                        doc = client.call(request).to_json()
                        with lock:
                            responses.append(doc)
            except Exception as exc:  # noqa: BLE001 -- any transport
                # failure is exactly the violation under test
                with lock:
                    violations.append(repr(exc))

        threads = [
            threading.Thread(target=worker, args=(100 + i,)) for i in range(6)
        ]
        for t in threads:
            t.start()
        time.sleep(0.3)  # let the load ramp, then pull the trigger
        killed_pid = front.supervisor.kill(0, signal.SIGKILL)
        assert killed_pid is not None
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)

        assert violations == [], f"dropped/failed connections: {violations}"
        assert len(responses) == 6 * 25
        for doc in responses:
            assert doc["kind"] in ("analyze", "execute", "error")
            if doc["kind"] == "error":
                # the only acceptable error is the typed retryable one
                assert doc["code"] == "overloaded"
                assert doc["retryable"] is True

    def test_supervisor_restores_fleet_after_kill(self, hosted):
        assert _wait(
            lambda: _stats(hosted)["topology"]["live"] == 2, timeout_s=60
        )
        stats = _stats(hosted)
        restarts = [b["restarts"] for b in stats["backends"]]
        assert restarts == [1, 0]
        assert stats["front"]["backend_died"] >= 1

    def test_requests_flow_after_recovery(self, hosted, reference):
        request = AnalyzeRequest(source=SOURCE, loop="target")
        with _client(hosted) as client:
            served = client.call(request)
        assert served.canonical_text() == reference.serve(request).canonical_text()

"""Schema stability of the repro.api wire protocol.

The contract: serialize -> deserialize -> re-serialize is byte-identical
for every request/response type, the ``kind`` tag dispatches correctly,
and unknown protocol versions are rejected rather than guessed at.
"""

import json

import pytest

from repro.api import (
    PROTOCOL_VERSION,
    AnalyzeRequest,
    AnalyzeResponse,
    Engine,
    EngineConfig,
    ExecuteRequest,
    ExecuteResponse,
    request_from_json,
    response_from_json,
)

SOURCE = """
program proto
param N, K
array A(300), B(300), IDX(300)

main
  do i = 1, N @ target
    t = B[i] + K
    A[IDX[i]] = A[IDX[i]] + t
  end
end
"""

PARAMS = {"N": 12, "K": 3}
ARRAYS = {"IDX": [(i % 5) + 1 for i in range(300)], "B": [1] * 300}


@pytest.fixture(scope="module")
def engine():
    return Engine(EngineConfig(use_disk_cache=False))


def _roundtrip(document_text, reader):
    payload = json.loads(document_text)
    again = reader(payload)
    return again.canonical_text()


def test_analyze_response_roundtrip_is_byte_identical(engine):
    response = engine.analyze(AnalyzeRequest(source=SOURCE, loop="target"))
    text = response.canonical_text()
    assert _roundtrip(text, lambda p: AnalyzeResponse.from_json(p)) == text
    # the generic reader agrees with the typed one
    assert _roundtrip(text, response_from_json) == text


def test_execute_response_roundtrip_is_byte_identical(engine):
    response = engine.execute(
        ExecuteRequest(source=SOURCE, loop="target", params=PARAMS, arrays=ARRAYS)
    )
    text = response.canonical_text()
    assert _roundtrip(text, lambda p: ExecuteResponse.from_json(p)) == text
    assert _roundtrip(text, response_from_json) == text


def test_request_roundtrip_and_dispatch():
    areq = AnalyzeRequest(source=SOURCE, loop="target", options={"size_cap": 500})
    xreq = ExecuteRequest(
        source=SOURCE, loop="target", params=PARAMS, arrays=ARRAYS,
        exact_strategy="tls",
    )
    for req in (areq, xreq):
        text = req.canonical_text()
        again = request_from_json(json.loads(text))
        assert type(again) is type(req)
        assert again == req
        assert again.canonical_text() == text


def test_cached_flag_never_serialized(engine):
    response = engine.analyze(AnalyzeRequest(source=SOURCE, loop="target"))
    payload = response.to_json()
    assert "cached" not in json.dumps(payload)
    assert AnalyzeResponse.from_json(payload, cached=True).cached is True
    assert AnalyzeResponse.from_json(payload).cached is False


def test_unknown_version_is_rejected(engine):
    response = engine.analyze(AnalyzeRequest(source=SOURCE, loop="target"))
    payload = response.to_json()
    payload["version"] = PROTOCOL_VERSION + 1
    with pytest.raises(ValueError, match="protocol version"):
        AnalyzeResponse.from_json(payload)
    with pytest.raises(ValueError, match="unknown request kind"):
        request_from_json({"kind": "frobnicate"})


def test_analyze_response_content(engine):
    response = engine.analyze(AnalyzeRequest(source=SOURCE, loop="target"))
    assert response.loop == "target"
    assert response.version == PROTOCOL_VERSION
    names = [a.array for a in response.arrays]
    assert names == sorted(names)
    reduction = next(a for a in response.arrays if a.array == "A")
    assert reduction.transform == "reduction"


#: A runtime-dependent scatter: duplicate indices with no exposed
#: reads, so the cascade cannot validate it but the speculative backend
#: commits with the written array privatized -- the shape that fills
#: every v4 speculation field at once.
_SPEC_SOURCE = """
program specproto
param N
array A(N), B(N), IDX(N)

main
  do i = 1, N @ target
    B[IDX[i]] = A[i] + 1
  end
end
"""


def test_v4_speculation_fields_serialize(engine):
    response = engine.execute(
        ExecuteRequest(
            source=_SPEC_SOURCE, loop="target",
            params={"N": 20},
            arrays={"IDX": [(i % 6) + 1 for i in range(20)],
                    "A": [i % 4 for i in range(20)]},
            backend="speculative", jobs=2,
        )
    )
    payload = response.to_json()
    assert payload["version"] == PROTOCOL_VERSION
    assert payload["speculation_commits"] == 1
    assert payload["speculation_rollbacks"] == 0
    assert payload["speculation_privatized"] == ["B"]
    # byte-identical roundtrip with the new fields populated
    text = response.canonical_text()
    assert _roundtrip(text, lambda p: ExecuteResponse.from_json(p)) == text
    # a v4 document without the fields still reads (defaults apply)
    for key in (
        "speculation_commits", "speculation_rollbacks",
        "speculation_privatized",
    ):
        payload.pop(key)
    slim = ExecuteResponse.from_json(payload)
    assert slim.speculation_commits == 0
    assert slim.speculation_rollbacks == 0
    assert slim.speculation_privatized == []


def test_execute_response_matches_report(engine):
    compiled = engine.compile(SOURCE)
    report = compiled.execute("target", PARAMS, ARRAYS)
    response = engine.execute(
        ExecuteRequest(source=SOURCE, loop="target", params=PARAMS, arrays=ARRAYS)
    )
    assert response.parallel == report.parallel
    assert response.correct == report.correct
    assert response.trips == len(report.iteration_costs)
    assert set(response.decisions) == set(report.decisions)


def test_v5_tier_fields_serialize(engine):
    response = engine.analyze(AnalyzeRequest(source=SOURCE, loop="target"))
    payload = response.to_json()
    assert payload["version"] == PROTOCOL_VERSION
    # one pipeline since the Tier-0 screen was deleted: a fresh analyze
    # carries exactly what tiering=off used to answer, still on the wire
    assert payload["tier_used"] == "tier1"
    assert payload["screening"] == "off"
    assert payload["escalation_reason"] == ""
    text = response.canonical_text()
    assert _roundtrip(text, lambda p: AnalyzeResponse.from_json(p)) == text
    # a document written while the screen existed still round-trips
    old = dict(payload, tier_used="tier0", screening="resolved")
    assert AnalyzeResponse.from_json(old).to_json() == old


def test_v5_tier_fields_default_for_older_documents(engine):
    """A pre-v5 reader re-serializing a v5 document would drop the tier
    fields; a v5 reader of such a document must fall back to the
    defaults rather than fail (additive, default-tolerant evolution)."""
    response = engine.analyze(AnalyzeRequest(source=SOURCE, loop="target"))
    payload = response.to_json()
    for key in ("tier_used", "screening", "escalation_reason"):
        payload.pop(key)
    slim = AnalyzeResponse.from_json(payload)
    assert slim.tier_used == "tier1"
    assert slim.screening == "off"
    assert slim.escalation_reason == ""


def test_tiering_request_option_roundtrips():
    request = AnalyzeRequest(
        source=SOURCE, loop="target", options={"tiering": False}
    )
    payload = json.loads(request.canonical_text())
    assert payload["options"] == {"tiering": False}
    again = request_from_json(payload)
    assert again.options == {"tiering": False}


def test_v6_subscribe_roundtrip_and_dispatch():
    from repro.api import SubscribeRequest, UnsubscribeRequest

    sub = SubscribeRequest(interval_s=0.25, frames=5, history=16)
    unsub = UnsubscribeRequest()
    for req in (sub, unsub):
        text = req.canonical_text()
        again = request_from_json(json.loads(text))
        assert type(again) is type(req)
        assert again == req
        assert again.canonical_text() == text
    payload = json.loads(sub.canonical_text())
    assert payload["kind"] == "subscribe"
    assert payload["version"] == PROTOCOL_VERSION


def test_v6_subscribe_fields_default_tolerant():
    from repro.api import SubscribeRequest

    bare = request_from_json(
        {"kind": "subscribe", "version": PROTOCOL_VERSION}
    )
    assert bare == SubscribeRequest()
    assert bare.interval_s == 1.0
    assert bare.frames == 0 and bare.history == 0
    with pytest.raises(ValueError, match="interval_s"):
        request_from_json({
            "kind": "subscribe", "version": PROTOCOL_VERSION,
            "interval_s": 0,
        })
    with pytest.raises(ValueError, match="frames"):
        request_from_json({
            "kind": "subscribe", "version": PROTOCOL_VERSION, "frames": -1,
        })


def test_v6_metrics_frame_roundtrip_and_defaults():
    from repro.api import MetricsFrame, UnsubscribeResponse

    frame = MetricsFrame(
        seq=3,
        stream={"counters": {"completed": 7}, "topology": "threads"},
        elapsed_s=0.5,
        final=True,
        history=[{"seq": 0, "shed": 1}],
    )
    text = frame.canonical_text()
    again = response_from_json(json.loads(text))
    assert type(again) is MetricsFrame
    assert again == frame
    assert again.canonical_text() == text
    # absent optional fields read as their v5-style defaults
    slim = response_from_json(
        {"kind": "metrics", "version": PROTOCOL_VERSION, "seq": 0}
    )
    assert slim.final is False
    assert slim.history == [] and slim.stream == {}
    assert slim.elapsed_s == 0.0
    ack = response_from_json(
        {"kind": "unsubscribed", "version": PROTOCOL_VERSION}
    )
    assert ack == UnsubscribeResponse(frames=0)

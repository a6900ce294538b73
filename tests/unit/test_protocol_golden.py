"""Golden wire corpus: the protocol's bytes, pinned message by message.

``protocol_golden.json`` (next to this file) was recorded at the commit
*before* the message classes became declarative; every entry must keep
reading byte-for-byte the same however the classes are implemented:

* ``full`` -- each of the 14 message classes with every field set to a
  non-default value: ``canonical_text()``, ``wire_json(to_json())``,
  and the serialize -> deserialize -> re-serialize identity;
* ``minimal`` -- a document carrying only the required fields decodes
  (default tolerance) and re-serializes with every default filled in;
* ``rejections`` -- the exact ``ValueError`` text of every malformed
  document the readers reject with a typed message.

Re-record (only ever at a commit whose wire format is the reference)::

    PYTHONPATH=src python tests/unit/test_protocol_golden.py --record

The rejections this file's ``test_*_rejected_at_decode`` functions pin
are the deliberate exceptions: outside input the readers used to wave
through to a worker (or answer with a bare ``KeyError`` argument) is
now refused at decode with a readable message.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from repro.api import (
    PROTOCOL_VERSION,
    AnalyzeRequest,
    AnalyzeResponse,
    ArrayPlanSummary,
    ErrorResponse,
    ExecuteRequest,
    ExecuteResponse,
    MetricsFrame,
    StatsRequest,
    StatsResponse,
    SubscribeRequest,
    TraceRequest,
    TraceResponse,
    UnsubscribeRequest,
    UnsubscribeResponse,
    request_from_json,
    response_from_json,
    wire_json,
)

GOLDEN = Path(__file__).with_name("protocol_golden.json")

V = PROTOCOL_VERSION
CONTEXT = {"trace_id": "a" * 32, "parent_span_id": "b" * 16, "sampled": True}

_ARRAY = ArrayPlanSummary(
    array="A", transform="reduction", flow=["F0", "F1"], output=["O0"],
    slv=["S0"], rred=["R0", "R1"], needs_exact=True, needs_bounds_comp=True,
    extended_reduction=True, reduction_additive=False, static_parallel=True,
)

#: One instance per message class, every field off its default.
FULL = {
    "AnalyzeRequest": AnalyzeRequest(
        source="program p\nend\n", loop="L1",
        options={"size_cap": 500, "tiering": False}, trace=CONTEXT,
    ),
    "ExecuteRequest": ExecuteRequest(
        source="program p\nend\n", loop="L1", params={"N": 12, "K": 3},
        arrays={"IDX": [1, 2, 3], "B": [0, 0]}, exact_strategy="tls",
        backend="thread", jobs=2, chunk={"policy": "dynamic", "size": 4},
        options={"use_civagg": False}, trace=CONTEXT,
    ),
    "StatsRequest": StatsRequest(),
    "SubscribeRequest": SubscribeRequest(interval_s=0.25, frames=5, history=16),
    "UnsubscribeRequest": UnsubscribeRequest(),
    "TraceRequest": TraceRequest(trace_id="c" * 32, limit=25, status="error"),
    "ArrayPlanSummary": _ARRAY,
    "AnalyzeResponse": AnalyzeResponse(
        digest="d" * 16, loop="L1", classification="runtime",
        techniques=["civagg", "monotonicity"], static_parallel=True,
        runtime_tested=True, needs_exact_fallback=True,
        has_scalar_dependence=True, approximate=True, is_while=True,
        civs=["civ1"], arrays=[_ARRAY, ArrayPlanSummary("B", "shared")],
        tier_used="tier0", screening="resolved", escalation_reason="A:flow",
    ),
    "ExecuteResponse": ExecuteResponse(
        digest="d" * 16, loop="L1", classification="runtime", parallel=True,
        correct=True,
        decisions={
            "Z": {"strategy": "parallel", "via": "cascade", "passed_stage": "F1"},
            "A": {"strategy": "sequential", "via": "exact", "passed_stage": None},
        },
        trips=12, seq_work=40.5, test_overhead=1.5, test_leaf_overhead=0.5,
        civ_overhead=2.0, bounds_overhead=3.0, inspector_overhead=4.0,
        speculation_overhead=5.0, used_speculation=True, misspeculated=True,
        speculation_commits=1, speculation_rollbacks=2,
        speculation_privatized=["B"], backend="speculative",
        backend_used="thread", jobs=4, chunks=7,
    ),
    "ErrorResponse": ErrorResponse(
        "overloaded", "worker 3 queue full; retry later", retryable=True,
        version=V + 1,
    ),
    "StatsResponse": StatsResponse(
        stats={"completed": 7, "latency": {"p50_s": 0.001}, "shed": 0},
    ),
    "TraceResponse": TraceResponse(
        traces=[{"trace_id": "e" * 32, "spans": [{"span_id": "r"}]}],
        store={"traces": 1, "kept": 1},
    ),
    "MetricsFrame": MetricsFrame(
        seq=3, stream={"counters": {"completed": 7}, "topology": "threads"},
        elapsed_s=0.5, final=True, history=[{"seq": 0, "shed": 1}],
    ),
    "UnsubscribeResponse": UnsubscribeResponse(frames=9),
}

#: Documents carrying only what each reader requires.
MINIMAL = {
    "AnalyzeRequest": {"kind": "analyze", "version": V, "source": "s", "loop": "L"},
    "ExecuteRequest": {"kind": "execute", "version": V, "source": "s", "loop": "L"},
    "StatsRequest": {"kind": "stats", "version": V},
    "SubscribeRequest": {"kind": "subscribe", "version": V},
    "UnsubscribeRequest": {"kind": "unsubscribe", "version": V},
    "TraceRequest": {"kind": "trace", "version": V},
    "ArrayPlanSummary": {"array": "A", "transform": "shared"},
    "AnalyzeResponse": {
        "kind": "analyze", "version": V, "digest": "d", "loop": "L",
        "classification": "static",
    },
    "ExecuteResponse": {
        "kind": "execute", "version": V, "digest": "d", "loop": "L",
        "classification": "static", "parallel": False, "correct": True,
    },
    "ErrorResponse": {"kind": "error", "code": "internal"},
    "StatsResponse": {"kind": "stats", "version": V, "stats": {}},
    "TraceResponse": {"kind": "trace", "version": V},
    "MetricsFrame": {"kind": "metrics", "version": V, "seq": 0},
    "UnsubscribeResponse": {"kind": "unsubscribed", "version": V},
}

_AREQ = MINIMAL["AnalyzeRequest"]
_XREQ = MINIMAL["ExecuteRequest"]
_SUB = MINIMAL["SubscribeRequest"]
_TREQ = MINIMAL["TraceRequest"]
_FRAME = MINIMAL["MetricsFrame"]

#: (entry name, reader, malformed document) -- all rejected with a
#: typed ValueError whose text is part of the wire contract (the
#: servers copy it into their ``bad_request`` message).
REJECTIONS = [
    (f"{name}.version_skew", type(message).from_json,
     dict(MINIMAL[name], version=V + 1))
    for name, message in FULL.items()
    if name not in ("ArrayPlanSummary", "ErrorResponse")
] + [
    ("AnalyzeRequest.version_missing", AnalyzeRequest.from_json,
     {"kind": "analyze", "source": "s", "loop": "L"}),
    ("AnalyzeRequest.source_int", AnalyzeRequest.from_json, dict(_AREQ, source=7)),
    ("AnalyzeRequest.loop_null", AnalyzeRequest.from_json, dict(_AREQ, loop=None)),
    ("AnalyzeRequest.options_list", AnalyzeRequest.from_json, dict(_AREQ, options=[])),
    ("AnalyzeRequest.trace_str", AnalyzeRequest.from_json, dict(_AREQ, trace="ctx")),
    ("ExecuteRequest.source_int", ExecuteRequest.from_json, dict(_XREQ, source=7)),
    ("ExecuteRequest.params_list", ExecuteRequest.from_json, dict(_XREQ, params=[1])),
    ("ExecuteRequest.arrays_str", ExecuteRequest.from_json, dict(_XREQ, arrays="A")),
    ("ExecuteRequest.array_not_list", ExecuteRequest.from_json,
     dict(_XREQ, arrays={"A": 3})),
    ("ExecuteRequest.chunk_int", ExecuteRequest.from_json, dict(_XREQ, chunk=4)),
    ("ExecuteRequest.options_str", ExecuteRequest.from_json, dict(_XREQ, options="x")),
    ("ExecuteRequest.trace_list", ExecuteRequest.from_json, dict(_XREQ, trace=[1])),
    ("SubscribeRequest.interval_str", SubscribeRequest.from_json,
     dict(_SUB, interval_s="1")),
    ("SubscribeRequest.interval_bool", SubscribeRequest.from_json,
     dict(_SUB, interval_s=True)),
    ("SubscribeRequest.interval_null", SubscribeRequest.from_json,
     dict(_SUB, interval_s=None)),
    ("SubscribeRequest.interval_zero", SubscribeRequest.from_json,
     dict(_SUB, interval_s=0)),
    ("SubscribeRequest.interval_negative", SubscribeRequest.from_json,
     dict(_SUB, interval_s=-0.5)),
    ("SubscribeRequest.frames_negative", SubscribeRequest.from_json,
     dict(_SUB, frames=-1)),
    ("SubscribeRequest.frames_bool", SubscribeRequest.from_json,
     dict(_SUB, frames=True)),
    ("SubscribeRequest.frames_float", SubscribeRequest.from_json,
     dict(_SUB, frames=1.5)),
    ("SubscribeRequest.history_str", SubscribeRequest.from_json,
     dict(_SUB, history="8")),
    ("TraceRequest.trace_id_int", TraceRequest.from_json, dict(_TREQ, trace_id=7)),
    ("TraceRequest.status_int", TraceRequest.from_json, dict(_TREQ, status=1)),
    ("TraceRequest.limit_bool", TraceRequest.from_json, dict(_TREQ, limit=True)),
    ("TraceRequest.limit_negative", TraceRequest.from_json, dict(_TREQ, limit=-1)),
    ("TraceResponse.traces_object", TraceResponse.from_json,
     {"kind": "trace", "version": V, "traces": {}, "store": {}}),
    ("TraceResponse.store_list", TraceResponse.from_json,
     {"kind": "trace", "version": V, "traces": [], "store": []}),
    ("MetricsFrame.seq_negative", MetricsFrame.from_json, dict(_FRAME, seq=-1)),
    ("MetricsFrame.stream_list", MetricsFrame.from_json, dict(_FRAME, stream=[])),
    ("MetricsFrame.elapsed_str", MetricsFrame.from_json, dict(_FRAME, elapsed_s="x")),
    ("UnsubscribeResponse.frames_negative", UnsubscribeResponse.from_json,
     {"kind": "unsubscribed", "version": V, "frames": -1}),
    ("ErrorResponse.empty_code", ErrorResponse.from_json,
     {"kind": "error", "code": ""}),
    ("request.unknown_kind", request_from_json, {"kind": "frobnicate", "version": V}),
    ("request.missing_kind", request_from_json, {"version": V}),
    ("request.unhashable_kind", request_from_json, {"kind": ["x"], "version": V}),
    ("request.response_only_kind", request_from_json, {"kind": "metrics", "version": V}),
    ("response.unknown_kind", response_from_json, {"kind": "frobnicate", "version": V}),
    ("response.unhashable_kind", response_from_json, {"kind": {}, "version": V}),
    ("response.request_only_kind", response_from_json,
     {"kind": "subscribe", "version": V}),
]


def _reader_for(name):
    """The generic ``kind`` dispatcher that must agree with the typed
    reader (ArrayPlanSummary only ever travels nested)."""
    if name == "ArrayPlanSummary":
        return None
    return request_from_json if name.endswith("Request") else response_from_json


def observe() -> dict:
    """Everything the corpus pins, computed from the live classes."""
    full, minimal, rejections = {}, {}, {}
    for name, message in FULL.items():
        entry = {"wire": wire_json(message.to_json())}
        if name != "ArrayPlanSummary":  # only ever travels nested
            entry["canonical"] = message.canonical_text()
        full[name] = entry
        decoded = type(message).from_json(MINIMAL[name])
        minimal[name] = wire_json(decoded.to_json())
    for name, reader, payload in REJECTIONS:
        with pytest.raises(ValueError) as caught:
            reader(payload)
        rejections[name] = str(caught.value)
    return {"full": full, "minimal": minimal, "rejections": rejections}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def observed():
    return observe()


def test_corpus_covers_every_message_class(golden):
    assert sorted(golden["full"]) == sorted(FULL) == sorted(MINIMAL)
    assert len(FULL) == 14
    assert sorted(golden["rejections"]) == sorted(n for n, _, _ in REJECTIONS)


@pytest.mark.parametrize("name", sorted(FULL))
def test_full_document_bytes(name, golden, observed):
    assert observed["full"][name] == golden["full"][name]


@pytest.mark.parametrize("name", sorted(FULL))
def test_roundtrip_identity(name):
    message = FULL[name]
    payload = json.loads(wire_json(message.to_json()))
    readers = [type(message).from_json, _reader_for(name)]
    for reader in filter(None, readers):
        again = reader(payload)
        assert type(again) is type(message)
        assert again == message
        assert wire_json(again.to_json()) == wire_json(message.to_json())


@pytest.mark.parametrize("name", sorted(MINIMAL))
def test_required_only_document_fills_defaults(name, golden, observed):
    assert observed["minimal"][name] == golden["minimal"][name]


@pytest.mark.parametrize("name", [n for n, _, _ in REJECTIONS])
def test_rejection_text(name, golden, observed):
    assert observed["rejections"][name] == golden["rejections"][name]


def test_cached_flag_stays_process_local():
    for name in ("AnalyzeResponse", "ExecuteResponse"):
        payload = FULL[name].to_json()
        assert "cached" not in payload
        cls = type(FULL[name])
        assert cls.from_json(payload, cached=True).cached is True
        assert cls.from_json(payload).cached is False


# -- the deliberate exceptions: outside input now refused at decode ---------


@pytest.mark.parametrize("field,value,text", [
    ("jobs", "two", "ExecuteRequest: 'jobs' must be a positive integer or null (got 'two')"),
    ("jobs", 2.5, "ExecuteRequest: 'jobs' must be a positive integer or null (got 2.5)"),
    ("jobs", True, "ExecuteRequest: 'jobs' must be a positive integer or null (got True)"),
    ("jobs", 0, "ExecuteRequest: 'jobs' must be a positive integer or null (got 0)"),
    ("backend", 7, "ExecuteRequest: 'backend' must be a string or null (got int)"),
    ("exact_strategy", None,
     "ExecuteRequest: 'exact_strategy' must be a string (got NoneType)"),
    ("exact_strategy", ["tls"],
     "ExecuteRequest: 'exact_strategy' must be a string (got list)"),
    ("params", {"N": "x"}, "ExecuteRequest: param 'N' must be an integer (got str)"),
    ("params", {"N": True}, "ExecuteRequest: param 'N' must be an integer (got bool)"),
    ("params", {"N": 1.5}, "ExecuteRequest: param 'N' must be an integer (got float)"),
])
def test_execute_request_field_rejected_at_decode(field, value, text):
    with pytest.raises(ValueError) as caught:
        request_from_json(dict(_XREQ, **{field: value}))
    assert str(caught.value) == text


def test_execute_request_selectors_still_accept_null_and_valid_values():
    decoded = request_from_json(
        dict(_XREQ, jobs=None, backend=None, params={"N": 4})
    )
    assert (decoded.jobs, decoded.backend, decoded.params) == (None, None, {"N": 4})
    decoded = request_from_json(dict(_XREQ, jobs=3, backend="numpy"))
    assert (decoded.jobs, decoded.backend) == (3, "numpy")


@pytest.mark.parametrize("reader,payload,text", [
    (request_from_json, {"kind": "analyze", "version": V, "source": "s"},
     "AnalyzeRequest: missing required field 'loop'"),
    (request_from_json, {"kind": "execute", "version": V, "loop": "L"},
     "ExecuteRequest: missing required field 'source'"),
    (response_from_json, {"kind": "error", "version": V},
     "ErrorResponse: missing required field 'code'"),
    (ArrayPlanSummary.from_json, {"array": "A"},
     "ArrayPlanSummary: missing required field 'transform'"),
])
def test_missing_required_field_rejected_at_decode(reader, payload, text):
    with pytest.raises(ValueError) as caught:
        reader(payload)
    assert str(caught.value) == text


@pytest.mark.parametrize("reader,payload,field", [
    (request_from_json, dict(_SUB, interval_s=math.nan), "interval_s"),
    (request_from_json, dict(_SUB, interval_s=math.inf), "interval_s"),
    # an integer beyond float range would overflow the server's clamp
    (request_from_json, dict(_SUB, interval_s=10 ** 400), "interval_s"),
    (request_from_json, json.loads(
        '{"kind":"subscribe","version":%d,"interval_s":NaN}' % V), "interval_s"),
    (response_from_json, dict(_FRAME, elapsed_s=-math.inf), "elapsed_s"),
])
def test_non_finite_number_rejected_at_decode(reader, payload, field):
    with pytest.raises(ValueError, match=f"'{field}' must be a finite number"):
        reader(payload)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps(observe(), indent=1, sort_keys=True) + "\n")
    print(f"recorded {GOLDEN}")

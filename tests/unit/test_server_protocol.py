"""Schema stability of the serving additions to the wire protocol.

ErrorResponse and the stats verb follow the same contract as the
analyze/execute documents: serialize -> deserialize -> re-serialize is
byte-identical, the ``kind`` tag dispatches, unknown versions are
rejected, and error codes form a closed set.
"""

import json

import pytest

from repro.api import (
    ERROR_CODES,
    PROTOCOL_VERSION,
    ErrorResponse,
    StatsRequest,
    StatsResponse,
    request_from_json,
    response_from_json,
    wire_json,
)


def _roundtrip(document_text, reader):
    payload = json.loads(document_text)
    return reader(payload).canonical_text()


class TestErrorResponse:
    def test_roundtrip_is_byte_identical(self):
        response = ErrorResponse(
            "overloaded", "worker 3 queue full; retry later", retryable=True
        )
        text = response.canonical_text()
        assert _roundtrip(text, ErrorResponse.from_json) == text
        assert _roundtrip(text, response_from_json) == text

    def test_every_code_serializes(self):
        for code in sorted(ERROR_CODES):
            response = ErrorResponse(code, f"detail for {code}")
            again = response_from_json(json.loads(response.canonical_text()))
            assert again.code == code
            assert again.canonical_text() == response.canonical_text()

    def test_malformed_code_rejected(self):
        with pytest.raises(ValueError, match="non-empty string"):
            ErrorResponse("", "nope")
        with pytest.raises(ValueError, match="non-empty string"):
            ErrorResponse(None, "nope")

    def test_foreign_code_is_tolerated(self):
        # a newer server may add codes; older clients must still decode
        payload = {"kind": "error", "version": PROTOCOL_VERSION,
                   "code": "rate_limited", "message": "slow down",
                   "retryable": True}
        decoded = ErrorResponse.from_json(payload)
        assert decoded.code == "rate_limited"
        assert json.loads(decoded.canonical_text()) == payload

    def test_foreign_version_is_still_decodable(self):
        # a version-skewed client must be able to read the error
        # document telling it about the skew; the foreign version is
        # preserved so re-serialization stays byte-identical
        payload = ErrorResponse("unsupported_version", "speak v99").to_json()
        payload["version"] = PROTOCOL_VERSION + 1
        decoded = ErrorResponse.from_json(payload)
        assert decoded.code == "unsupported_version"
        assert decoded.version == PROTOCOL_VERSION + 1
        assert json.loads(decoded.canonical_text()) == payload

    def test_retryable_defaults_false(self):
        payload = ErrorResponse("bad_request", "x").to_json()
        del payload["retryable"]
        assert ErrorResponse.from_json(payload).retryable is False


class TestStatsVerb:
    def test_request_roundtrip_and_dispatch(self):
        request = StatsRequest()
        text = request.canonical_text()
        again = request_from_json(json.loads(text))
        assert isinstance(again, StatsRequest)
        assert again.canonical_text() == text

    def test_response_roundtrip_is_byte_identical(self):
        response = StatsResponse(
            stats={"completed": 7, "latency": {"p50_s": 0.001}, "shed": 0}
        )
        text = response.canonical_text()
        assert _roundtrip(text, StatsResponse.from_json) == text
        assert _roundtrip(text, response_from_json) == text

    def test_unknown_version_rejected(self):
        payload = StatsRequest().to_json()
        payload["version"] = PROTOCOL_VERSION + 1
        with pytest.raises(ValueError, match="protocol version"):
            StatsRequest.from_json(payload)


class TestWireJson:
    def test_single_line(self):
        text = wire_json({"a": [1, 2], "nested": {"b": "x\ny"}})
        assert "\n" not in text

    def test_same_document_as_canonical(self):
        from repro.api import canonical_json

        payload = ErrorResponse("too_large", "4MiB limit").to_json()
        assert json.loads(wire_json(payload)) == json.loads(canonical_json(payload))

    def test_sorted_and_deterministic(self):
        payload = {"z": 1, "a": 2, "m": {"y": 3, "b": 4}}
        assert wire_json(payload) == wire_json(dict(reversed(list(payload.items()))))
        assert wire_json(payload).index('"a"') < wire_json(payload).index('"z"')


class TestOneVerbTable:
    def test_every_layer_counts_the_same_verbs(self):
        """A verb is declared once (its request class); the per-verb
        counters derive from that table and each tier's handler table
        must cover exactly it -- a verb added in one place and not the
        others fails here."""
        from repro.api.protocol import REQUEST_KINDS
        from repro.server import FrontTier, ReproServer
        from repro.server.metrics import VERBS

        declared = set(REQUEST_KINDS)
        assert declared == {
            "analyze", "execute", "stats", "subscribe", "trace", "unsubscribe",
        }
        assert set(VERBS) == declared and len(VERBS) == len(declared)
        for tier in (ReproServer(workers=1), FrontTier(backends=1)):
            assert set(tier.verbs) == declared, type(tier).__name__
            assert set(tier.metrics.snapshot()["requests"]) == declared

    def test_tiers_share_the_front_door(self):
        """The admission ladder and the tier-independent verbs exist
        once, on the transport both tiers subclass."""
        from repro.server import FrontTier, ReproServer

        shared = (
            "_admit", "_subscribe", "_unsubscribe", "_work", "_start_trace",
            "_stored_traces", "_sample_loop", "_connection_opened",
            "_connection_closed",
        )
        for tier in (ReproServer, FrontTier):
            for name in shared:
                assert name not in vars(tier), f"{tier.__name__}.{name}"

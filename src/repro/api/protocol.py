"""Versioned request/response dataclasses with a stable JSON schema.

Every consumer of the analysis pipeline -- the CLI, the batch driver,
the fuzz harness, a future HTTP front-end -- speaks this protocol:

* :class:`AnalyzeRequest` -> :class:`AnalyzeResponse`: compile the
  source and plan one labelled loop (classification, techniques,
  per-array transforms and cascade stages);
* :class:`ExecuteRequest` -> :class:`ExecuteResponse`: additionally run
  the planned loop against concrete inputs under the hybrid runtime and
  report decisions, overheads and the ground-truth verdict.

Schema stability contract: for any response, ``serialize -> deserialize
-> re-serialize`` is byte-identical (enforced by
``tests/unit/test_api_protocol.py``).  :data:`PROTOCOL_VERSION` is part
of every document; a reader must reject documents whose version it does
not understand rather than guess.  The transient ``cached`` flag is
deliberately *not* part of the wire schema (it describes how this
process obtained the document, not the document itself).

Each message is declared **once**: a dataclass whose fields carry
their wire codec (:func:`wire`), from which :class:`Message` derives
``to_json`` / ``from_json`` / ``canonical_text`` and fills the tables
behind :func:`request_from_json` / :func:`response_from_json`.  Adding
a field is one line (defaulted, so older documents keep reading); adding
a verb is one class.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Dict, NamedTuple, Optional

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_REQUEST_BYTES",
    "ERROR_CODES",
    "canonical_json",
    "wire_json",
    "ArrayPlanSummary",
    "AnalyzeRequest",
    "AnalyzeResponse",
    "ExecuteRequest",
    "ExecuteResponse",
    "ErrorResponse",
    "StatsRequest",
    "StatsResponse",
    "SubscribeRequest",
    "UnsubscribeRequest",
    "MetricsFrame",
    "UnsubscribeResponse",
    "TraceRequest",
    "TraceResponse",
    "request_from_json",
    "response_from_json",
]

#: Bump on any incompatible change to the request/response schemas.
#: Readers reject unknown versions; the engine's disk-cache keys include
#: it, so a bump orphans stale cached responses by construction.
#: v2: real execution backends -- ExecuteRequest grew ``backend`` /
#: ``jobs`` / ``chunk`` selectors, ExecuteResponse reports the backend
#: that ran and its worker/chunk counts.  Responses stay reproducible
#: for a given request *on a given host* (``backend_used``/``jobs``
#: legitimately differ across environments -- fallbacks, CPU counts);
#: real wall-clock time is never reproducible and therefore stays off
#: the wire, on ExecutionReport.
#: v3: network serving -- a ``stats`` verb (:class:`StatsRequest` /
#: :class:`StatsResponse`) and a typed :class:`ErrorResponse` the server
#: returns instead of dropping connections; a v2 reader would reject
#: both kinds, so the version moves.
#: v4: the speculative LRPD backend -- ExecuteRequest's ``backend``
#: accepts ``speculative``, and ExecuteResponse reports the speculation
#: outcome (``speculation_commits`` / ``speculation_rollbacks`` /
#: ``speculation_privatized``).  A v3 reader would silently drop those
#: fields from a round-trip, breaking the byte-identity contract, so
#: the version moves.
#: v5: tiered analysis -- AnalyzeResponse reports tier provenance
#: (``tier_used`` / ``screening`` / ``escalation_reason``).  The fields
#: are additive and default-tolerant (a document without them reads as
#: an untired ``tier1``/``off`` answer), but a v4 reader re-serializing
#: a v5 document would drop them, so the version moves.  The Tier-0
#: screen has since been deleted: every engine answers the constants
#: ``tier1`` / ``off`` / ``""``, and the fields stay declared only so
#: v7 bytes do not move -- the next version bump drops them.
#: v6: live metrics streaming -- a ``subscribe`` verb
#: (:class:`SubscribeRequest` / :class:`UnsubscribeRequest`) that
#: streams incremental :class:`MetricsFrame` documents over the same
#: connection, answered by an :class:`UnsubscribeResponse` ack.  The
#: frame fields are default-tolerant in the v5 style (absent ``final``
#: reads as false, absent ``history`` as empty), but a v5 reader would
#: reject all four new kinds outright, so the version moves.
#: v7: distributed tracing -- AnalyzeRequest/ExecuteRequest carry an
#: optional ``trace`` context (``trace_id`` / ``parent_span_id`` /
#: ``sampled``) minted at whichever tier accepts the request, and a
#: ``trace`` verb (:class:`TraceRequest` / :class:`TraceResponse`)
#: fetches stored traces by id or recency.  The ``trace`` field is
#: additive and default-tolerant (absent reads as untraced), but a v6
#: reader re-serializing a v7 request would drop it and would reject
#: the new verb, so the version moves.
PROTOCOL_VERSION = 7

#: Default upper bound on one serialized request document (the serving
#: layer's admission control rejects larger payloads with a
#: ``too_large`` error instead of buffering without bound).  Also the
#: bound on per-request admission cost: decode + digest of a line this
#: size is ~a millisecond of event-loop time, so one large request
#: cannot stall unrelated connections for long.
MAX_REQUEST_BYTES = 1024 * 1024

#: The closed set of :class:`ErrorResponse` codes.  ``overloaded`` is
#: the only retryable-by-construction code (admission control shed the
#: request before any work happened).
ERROR_CODES = frozenset({
    "malformed",        # not JSON, or not a JSON object
    "unsupported_version",
    "unknown_verb",     # unrecognized "kind" tag
    "bad_request",      # well-formed but unservable (bad loop, bad field)
    "too_large",        # request exceeds the size budget
    "overloaded",       # shed by admission control; retry later
    "internal",         # unexpected server-side failure
})


def canonical_json(payload: dict) -> str:
    """The one true serialization (sorted keys, indent=1) -- the form the
    byte-identity contract and the disk cache are defined over."""
    return json.dumps(payload, indent=1, sort_keys=True)


def wire_json(payload: dict) -> str:
    """Single-line serialization for the JSON-lines transport (sorted
    keys, compact separators, no embedded newlines).  Semantically the
    same document as :func:`canonical_json`; the byte-identity contract
    stays defined over the canonical form."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# -- codecs: how one field's value crosses the wire ---------------------------


class Codec(NamedTuple):
    """``decode(value, label, what)`` validates an incoming JSON value
    (its ``ValueError`` names the message *what* and the field *label*);
    ``encode(value)`` copies the outgoing one, so mutating a document
    never reaches the message.  ``None`` = pass through."""

    decode: Optional[Callable] = None
    encode: Optional[Callable] = None


def _bad(what: str, label: str, expected: str, got) -> ValueError:
    return ValueError(f"{what}: {label} must be {expected} (got {got})")


def _checked(types, expected: str, also: Optional[Callable] = None, *,
             got: Callable = lambda value: type(value).__name__,
             copy=None, null: str = "reject") -> Codec:
    """An instance of *types* (a bool is never a number) that *also*
    approves, copied with *copy* in both directions.  JSON ``null`` is
    judged like any value (``null="reject"``), reads as None
    (``"keep"``), or as the empty container ``copy()`` (``"empty"``)."""

    def decode(value, label, what):
        if value is None and null != "reject":
            return None if null == "keep" else copy()
        # the accepting path calls no helper and never evaluates *got*:
        # measured on serve_warm, that alone is several % of a request
        if not isinstance(value, types) or isinstance(value, bool) or (
                also is not None and not also(value)):
            raise _bad(what, label, expected, got(value))
        return value if copy is None else copy(value)

    def encode(value):
        return None if value is None else copy(value)

    # a field that cannot hold None is copied by the builtin itself
    return Codec(decode, encode if copy and null == "keep" else copy)


def _number(positive: bool = False) -> Codec:
    """A finite JSON number: ``json.loads`` accepts ``NaN``/``Infinity``
    (and integers beyond float range), and every comparison against NaN
    is false, so a range check alone would wave them through."""
    plain = _checked((int, float), "a number").decode

    def decode(value, label, what):
        plain(value, label, what)
        if not abs(value) <= sys.float_info.max:
            raise _bad(what, label, "a finite number", repr(value))
        if positive and not value > 0:
            raise _bad(what, label, "> 0", repr(value))
        return value

    return Codec(decode)


def _object_of(item: Codec, noun: str, sort: bool = False) -> Codec:
    """A JSON object (``null`` reads as empty) whose values each cross
    through *item*; a bad value is reported as ``<noun> '<key>'``."""
    item_encode = item.encode or (lambda value: value)

    def decode(value, label, what):
        return {
            key: item.decode(entry, f"{noun} {key!r}", what)
            for key, entry in OBJECT.decode(value, label, what).items()
        }

    def encode(value):
        items = sorted(value.items()) if sort else value.items()
        return {key: item_encode(entry) for key, entry in items}

    return Codec(decode, encode)


def _list_of(part) -> Codec:
    """A list of nested *part* messages."""

    def decode(value, label, what):
        return [part.from_json(doc) for doc in LIST.decode(value, label, what)]

    return Codec(decode, lambda value: [entry.to_json() for entry in value])


#: passes through unchecked (response fields, which only servers write)
ANY = Codec()
#: any JSON value, read as its truthiness
FLAG = Codec(lambda value, label, what: bool(value))
STRING = _checked(str, "a string")
OPT_STRING = _checked(str, "a string or null", null="keep")
INTEGER = _checked(int, "an integer")
COUNT = _checked(int, "a non-negative integer", lambda v: v >= 0, got=repr)
#: a worker-count selector: ``null`` defers to the engine default
OPT_POSITIVE = _checked(
    int, "a positive integer or null", lambda v: v > 0, got=repr, null="keep")
OBJECT = _checked(dict, "a JSON object", copy=dict, null="empty")
OPT_OBJECT = _checked(dict, "a JSON object or null", copy=dict, null="keep")
LIST = _checked(list, "a list", copy=list)


def wire(codec: Codec, default=MISSING, *, factory=MISSING):
    """Declare a dataclass field that crosses the wire through *codec*.
    A field without a default is required on decode; one with a default
    may be absent from the document (the default-tolerance contract)."""
    return field(default=default, default_factory=factory,
                 metadata={"codec": codec})


#: ``kind`` tag -> class, per direction.  The request table is the verb
#: table: the serving layer derives its per-verb counters from it.
REQUEST_KINDS: Dict[str, type] = {}
RESPONSE_KINDS: Dict[str, type] = {}


class Message:
    """Wire behaviour shared by every protocol message.

    Subclassing declares a message: the subclass becomes a dataclass,
    its encode/decode plan is computed from its :func:`wire` fields
    (once, here, never per call) and it is filed under *kind* in
    *table*.  A field declared without :func:`wire` (the ``cached``
    flag) is process-local: never serialized, but settable through
    ``from_json(payload, cached=...)``.  ``check_version=False`` is the
    one declared exception to "readers reject unknown versions".
    """

    #: the document's ``kind`` tag; None for a nested part, which
    #: carries neither a tag nor a version of its own
    KIND: Optional[str] = None

    def __init_subclass__(cls, kind: Optional[str] = None,
                          table: Optional[dict] = None, frozen: bool = True,
                          check_version: bool = True):
        dataclass(frozen=frozen)(cls)
        wired = [(f, f.metadata["codec"]) for f in fields(cls)
                 if "codec" in f.metadata]
        cls.KIND = kind
        cls._CHECK_VERSION = kind is not None and check_version
        cls._ENCODE = tuple((f.name, codec.encode) for f, codec in wired)
        cls._DECODE = tuple(  # (name, its error label, decode, required)
            (f.name, repr(f.name), codec.decode,
             f.default is MISSING and f.default_factory is MISSING)
            for f, codec in wired)
        if table is not None:
            table[kind] = cls

    def to_json(self) -> dict:
        doc = {"kind": self.KIND, "version": self.version} if self.KIND else {}
        for name, encode in self._ENCODE:
            value = getattr(self, name)
            doc[name] = value if encode is None else encode(value)
        return doc

    @classmethod
    def from_json(cls, payload: dict, **local):
        what, version = cls.__name__, payload.get("version")
        if cls._CHECK_VERSION and version != PROTOCOL_VERSION:
            raise ValueError(
                f"{what}: unsupported protocol version {version!r} "
                f"(this reader speaks {PROTOCOL_VERSION})")
        for name, label, decode, required in cls._DECODE:
            if name in payload:
                value = payload[name]
                local[name] = (
                    value if decode is None else decode(value, label, what))
            elif required:
                raise ValueError(f"{what}: missing required field {name!r}")
        return cls(**local)

    def canonical_text(self) -> str:
        return canonical_json(self.to_json())


def _from_table(table: dict, role: str, payload: dict) -> Message:
    kind = payload.get("kind")
    # a non-string tag (valid JSON from outside) is unknown, not a crash
    cls = table.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown {role} kind {kind!r}")
    return cls.from_json(payload)


def request_from_json(payload: dict) -> Message:
    """Dispatch a request document on its ``kind`` tag."""
    return _from_table(REQUEST_KINDS, "request", payload)


def response_from_json(payload: dict) -> Message:
    """Dispatch a response document on its ``kind`` tag."""
    return _from_table(RESPONSE_KINDS, "response", payload)


# -- requests ----------------------------------------------------------------


class AnalyzeRequest(Message, kind="analyze", table=REQUEST_KINDS):
    """Compile *source* and plan the loop labelled *loop*.

    *options* may override the engine's analyzer knobs per request
    (``use_monotonicity``, ``use_reshaping``, ``use_civagg``,
    ``interprocedural``, ``size_cap``, ``work_cap``).  ``trace`` is the
    optional v7 trace context (``trace_id`` / ``parent_span_id`` /
    ``sampled``) propagated by a tracing-aware caller: absent/null
    reads as untraced; its shape is the tracing layer's concern, not
    the protocol's.
    """

    source: str = wire(STRING)
    loop: str = wire(STRING)
    options: dict = wire(OBJECT, factory=dict)
    trace: Optional[dict] = wire(OPT_OBJECT, None)
    version: int = PROTOCOL_VERSION


class ExecuteRequest(Message, kind="execute", table=REQUEST_KINDS):
    """Plan *loop* and execute it against concrete inputs.

    *params* maps parameter names to integers; *arrays* maps array names
    to initial contents (missing arrays start zeroed).  ``backend`` /
    ``jobs`` / ``chunk`` select the real execution backend (``None``
    defers to the serving engine's configured defaults); ``chunk`` is a
    ``{"policy": "static"|"dynamic", "size": int|null}`` document.
    ``trace`` is the optional v7 trace context.
    """

    source: str = wire(STRING)
    loop: str = wire(STRING)
    params: dict = wire(_object_of(INTEGER, "param"), factory=dict)
    arrays: dict = wire(_object_of(LIST, "array"), factory=dict)
    #: exact-test fallback: 'inspector' (hoistable USR evaluation) or
    #: 'tls' (LRPD speculation)
    exact_strategy: str = wire(STRING, "inspector")
    #: execution backend ('sequential' | 'thread' | 'process' | 'numpy'
    #: | 'speculative'; None = engine default)
    backend: Optional[str] = wire(OPT_STRING, None)
    #: worker count for parallel backends (None = engine default)
    jobs: Optional[int] = wire(OPT_POSITIVE, None)
    #: chunk-scheduler spec document (None = engine default)
    chunk: Optional[dict] = wire(OPT_OBJECT, None)
    options: dict = wire(OBJECT, factory=dict)
    #: optional v7 trace context
    trace: Optional[dict] = wire(OPT_OBJECT, None)
    version: int = PROTOCOL_VERSION


class StatsRequest(Message, kind="stats", table=REQUEST_KINDS):
    """Ask a serving endpoint for its observability snapshot.

    Engines themselves hold no counters; the server
    (:mod:`repro.server`) answers from its metrics registry.
    """

    version: int = PROTOCOL_VERSION


class SubscribeRequest(Message, kind="subscribe", table=REQUEST_KINDS):
    """Open a live metrics stream on this connection (protocol v6).

    The server answers with :class:`MetricsFrame` documents at
    approximately ``interval_s`` spacing (servers clamp the interval to
    their supported range) until ``frames`` frames were sent (0 streams
    until an :class:`UnsubscribeRequest`), the connection closes, or the
    server shuts down -- whichever comes first; the last frame carries
    ``final``.  ``history`` asks for up to that many recent ring-buffer
    samples in the first frame, so a late subscriber sees recent load.
    One subscription may be active per connection at a time.
    """

    interval_s: float = wire(_number(positive=True), 1.0)
    #: total frames to stream; 0 = until unsubscribe
    frames: int = wire(COUNT, 0)
    #: recent ring samples to include in the first frame
    history: int = wire(COUNT, 0)
    version: int = PROTOCOL_VERSION


class UnsubscribeRequest(Message, kind="unsubscribe", table=REQUEST_KINDS):
    """End this connection's active metrics stream (protocol v6).

    The server finishes the stream (one last ``final``
    :class:`MetricsFrame`), then acknowledges with an
    :class:`UnsubscribeResponse` -- still in request order, so a client
    reads frames until ``final`` and then exactly one ack.
    """

    version: int = PROTOCOL_VERSION


class TraceRequest(Message, kind="trace", table=REQUEST_KINDS):
    """Fetch stored traces from a serving tier (protocol v7).

    ``trace_id`` fetches one trace by id; when absent the server
    returns up to ``limit`` recent traces (newest first), optionally
    filtered to one root ``status`` (``ok`` / ``error``).
    """

    trace_id: Optional[str] = wire(OPT_STRING, None)
    limit: int = wire(COUNT, 10)
    status: Optional[str] = wire(OPT_STRING, None)
    version: int = PROTOCOL_VERSION


# -- responses ---------------------------------------------------------------


class ArrayPlanSummary(Message):
    """Wire form of one :class:`~repro.core.analyzer.ArrayPlan` (a
    nested part of :class:`AnalyzeResponse`).

    Cascade fields hold the ordered stage labels of the runtime cascade,
    or ``None`` when no runtime test of that kind is needed.
    """

    array: str = wire(ANY)
    #: 'shared' | 'private' | 'reduction'
    transform: str = wire(ANY)
    flow: Optional[list] = wire(ANY, None)
    output: Optional[list] = wire(ANY, None)
    slv: Optional[list] = wire(ANY, None)
    rred: Optional[list] = wire(ANY, None)
    needs_exact: bool = wire(ANY, False)
    needs_bounds_comp: bool = wire(ANY, False)
    extended_reduction: bool = wire(ANY, False)
    reduction_additive: bool = wire(ANY, True)
    static_parallel: bool = wire(ANY, False)

    @classmethod
    def from_plan(cls, plan) -> "ArrayPlanSummary":
        def stages(cascade) -> Optional[list]:
            if cascade is None:
                return None
            return [stage.label for stage in cascade.stages]

        return cls(
            array=plan.array,
            transform=plan.transform,
            flow=stages(plan.flow),
            output=stages(plan.output),
            slv=stages(plan.slv),
            rred=stages(plan.rred),
            needs_exact=plan.needs_exact,
            needs_bounds_comp=plan.needs_bounds_comp,
            extended_reduction=plan.extended_reduction,
            reduction_additive=plan.reduction_additive,
            static_parallel=plan.static_parallel(),
        )


class AnalyzeResponse(Message, kind="analyze", table=RESPONSE_KINDS,
                      frozen=False):
    """The plan for one loop, in wire form."""

    digest: str = wire(ANY)
    loop: str = wire(ANY)
    classification: str = wire(ANY)
    techniques: list = wire(LIST, factory=list)
    static_parallel: bool = wire(ANY, False)
    runtime_tested: bool = wire(ANY, False)
    needs_exact_fallback: bool = wire(ANY, False)
    has_scalar_dependence: bool = wire(ANY, False)
    approximate: bool = wire(ANY, False)
    is_while: bool = wire(ANY, False)
    civs: list = wire(LIST, factory=list)
    arrays: list = wire(_list_of(ArrayPlanSummary), factory=list)
    #: v5 tier provenance, constant since the Tier-0 screen was deleted
    #: (one pipeline: every answer is 'tier1' / 'off' / ''); declared so
    #: v7 documents keep their bytes, dropped at the next version bump.
    #: Documents written while the screen existed may still carry
    #: 'tier0' / 'resolved' | 'escalated' / an 'array:equation' reason.
    tier_used: str = wire(ANY, "tier1")
    screening: str = wire(ANY, "off")
    escalation_reason: str = wire(ANY, "")
    version: int = PROTOCOL_VERSION
    #: served from a cache (process-local; never serialized)
    cached: bool = False

    @classmethod
    def from_plan(cls, plan, digest: str) -> "AnalyzeResponse":
        return cls(
            digest=digest,
            loop=plan.label,
            classification=plan.classification(),
            techniques=plan.techniques(),
            static_parallel=plan.static_parallel(),
            runtime_tested=plan.runtime_tested(),
            needs_exact_fallback=plan.needs_exact_fallback(),
            has_scalar_dependence=plan.has_scalar_dependence(),
            approximate=plan.approximate,
            is_while=plan.is_while,
            civs=[info.name for info in plan.civs],
            arrays=[
                ArrayPlanSummary.from_plan(p)
                for _, p in sorted(plan.arrays.items())
            ],
        )


class ExecuteResponse(Message, kind="execute", table=RESPONSE_KINDS,
                      frozen=False):
    """The outcome of one planned execution, in wire form.

    Per-iteration cost vectors are intentionally summarized (``trips``)
    rather than shipped; the simulated-timing API stays on
    :class:`~repro.runtime.ExecutionReport`.
    """

    digest: str = wire(ANY)
    loop: str = wire(ANY)
    classification: str = wire(ANY)
    parallel: bool = wire(ANY)
    correct: bool = wire(ANY)
    #: array -> {'strategy', 'via', 'passed_stage'}; name-sorted on the
    #: wire
    decisions: dict = wire(
        _object_of(OBJECT, "decision", sort=True), factory=dict)
    trips: int = wire(ANY, 0)
    seq_work: float = wire(ANY, 0.0)
    test_overhead: float = wire(ANY, 0.0)
    test_leaf_overhead: float = wire(ANY, 0.0)
    civ_overhead: float = wire(ANY, 0.0)
    bounds_overhead: float = wire(ANY, 0.0)
    inspector_overhead: float = wire(ANY, 0.0)
    speculation_overhead: float = wire(ANY, 0.0)
    used_speculation: bool = wire(ANY, False)
    misspeculated: bool = wire(ANY, False)
    #: committed speculative-backend runs (LRPD validation passed)
    speculation_commits: int = wire(ANY, 0)
    #: rolled-back speculative-backend runs (conflict -> sequential)
    speculation_rollbacks: int = wire(ANY, 0)
    #: arrays the LRPD test privatized during a committed run
    speculation_privatized: list = wire(LIST, factory=list)
    #: backend the caller requested
    backend: str = wire(ANY, "sequential")
    #: backend that actually ran the loop ('' for sequential outcomes)
    backend_used: str = wire(ANY, "")
    #: workers that participated in the real parallel execution
    jobs: int = wire(ANY, 1)
    #: chunks the iteration space was carved into
    chunks: int = wire(ANY, 0)
    version: int = PROTOCOL_VERSION
    #: served from a cache (process-local; never serialized)
    cached: bool = False

    @classmethod
    def from_report(
        cls, report, classification: str, digest: str
    ) -> "ExecuteResponse":
        return cls(
            digest=digest,
            loop=report.label,
            classification=classification,
            parallel=report.parallel,
            correct=report.correct,
            decisions={
                name: {
                    "strategy": d.strategy,
                    "via": d.via,
                    "passed_stage": d.passed_stage,
                }
                for name, d in sorted(report.decisions.items())
            },
            trips=len(report.iteration_costs),
            seq_work=report.seq_work,
            test_overhead=report.test_overhead,
            test_leaf_overhead=report.test_leaf_overhead,
            civ_overhead=report.civ_overhead,
            bounds_overhead=report.bounds_overhead,
            inspector_overhead=report.inspector_overhead,
            speculation_overhead=report.speculation_overhead,
            used_speculation=report.used_speculation,
            misspeculated=report.misspeculated,
            speculation_commits=report.speculation_commits,
            speculation_rollbacks=report.speculation_rollbacks,
            speculation_privatized=list(report.speculation_privatized),
            backend=report.backend,
            backend_used=report.backend_used,
            jobs=report.jobs,
            chunks=report.chunks,
        )


class ErrorResponse(Message, kind="error", table=RESPONSE_KINDS,
                    check_version=False):
    """A structured failure document: the serving layer's answer to any
    request it cannot serve (never a traceback, never a silently closed
    connection).

    ``code`` is drawn from :data:`ERROR_CODES` for servers of this
    protocol version; clients must *tolerate* codes outside that set (a
    newer server may add one), treating them like ``internal`` unless
    ``retryable`` says otherwise.  ``retryable`` tells the client
    whether the identical request may succeed later (true exactly for
    load-shedding).  ``message`` is human-oriented detail and makes no
    stability promise beyond being a string.

    Deliberately NOT version-checked (a version-skewed client must be
    able to decode the very error document telling it about the skew);
    ``version`` is a wire field instead, so the foreign version is
    preserved and re-serialization stays byte-identical.
    """

    code: str = wire(ANY)
    message: str = wire(ANY, "")
    retryable: bool = wire(ANY, False)
    version: int = wire(ANY, PROTOCOL_VERSION)

    def __post_init__(self):
        # only shape is enforced here -- the closed set would make a
        # newer server's error document undecodable by older clients
        if not isinstance(self.code, str) or not self.code:
            raise ValueError(
                f"error code must be a non-empty string (got {self.code!r})"
            )


class StatsResponse(Message, kind="stats", table=RESPONSE_KINDS):
    """A serving endpoint's observability snapshot.

    ``stats`` is the metrics document of
    :meth:`repro.server.ServerMetrics.snapshot`; its key set is pinned
    there (and by the server tests), not here -- the protocol only
    promises a JSON object.
    """

    stats: dict = wire(OBJECT)
    version: int = PROTOCOL_VERSION


class TraceResponse(Message, kind="trace", table=RESPONSE_KINDS):
    """Stored traces answering a :class:`TraceRequest` (protocol v7).

    ``traces`` is a list of trace documents as built by
    :class:`repro.server.tracing.RequestTrace` (span lists with ids,
    wall-clock timestamps and attributes); ``store`` is the serving
    tier's :meth:`repro.server.tracing.TraceStore.snapshot` counters.
    Their key sets are pinned by the tracing layer and its tests, not
    here -- the protocol only promises a list and an object.
    """

    traces: list = wire(LIST, factory=list)
    store: dict = wire(OBJECT, factory=dict)
    version: int = PROTOCOL_VERSION


class MetricsFrame(Message, kind="metrics", table=RESPONSE_KINDS):
    """One incremental metrics frame of a live stream (protocol v6).

    ``seq`` counts frames within the subscription, monotone from 0.
    ``elapsed_s`` is the measured wall time since the previous frame
    (0 for the first).  ``stream`` is the frame body -- counter deltas,
    current gauges, sparse latency-bucket deltas and (on the front
    tier) the hot-shard snapshot; its key set is pinned by the server
    tests (:mod:`repro.server.stream`), not by the protocol, which only
    promises a JSON object.  ``history`` is non-empty only on the first
    frame and only when the subscriber asked for ring-buffer history.
    Absent ``final``/``history``/``elapsed_s`` fields read as their
    defaults -- the default-tolerance contract.
    """

    seq: int = wire(COUNT)
    stream: dict = wire(OBJECT, factory=dict)
    elapsed_s: float = wire(_number(), 0.0)
    final: bool = wire(FLAG, False)
    history: list = wire(LIST, factory=list)
    version: int = PROTOCOL_VERSION


class UnsubscribeResponse(Message, kind="unsubscribed", table=RESPONSE_KINDS):
    """Acknowledgement ending a metrics stream (protocol v6).

    Arrives after the stream's ``final`` frame; ``frames`` is the exact
    number of frames the subscription delivered.
    """

    frames: int = wire(COUNT, 0)
    version: int = PROTOCOL_VERSION

"""repro.api: the stable, cached, concurrent entry point to the pipeline.

Instead of hand-composing ``parse_program`` + ``HybridAnalyzer`` +
``HybridExecutor`` (with per-call-site caching and threading glue),
consumers create one long-lived :class:`Engine` and go through it::

    from repro.api import Engine, EngineConfig

    engine = Engine(EngineConfig())
    compiled = engine.compile(SOURCE)          # parse + summaries, memoized
    plan = compiled.plan("my_loop")            # LoopPlan, memoized per loop
    report = compiled.execute("my_loop", params, arrays)

    # or speak the versioned wire protocol (CLI / batch / fuzz / HTTP):
    from repro.api import AnalyzeRequest
    response = engine.analyze(AnalyzeRequest(source=SOURCE, loop="my_loop"))
    print(response.canonical_text())           # stable JSON document

    # concurrent fan-out over the engine's worker pool:
    responses = engine.map(requests, jobs=8)

The engine owns the interning/memo layers' warm state, the persistent
disk cache (:class:`AnalysisCache` over :class:`JsonDiskCache`) and the
worker pool (:func:`parallel_map`), so cache policy and concurrency
live in one place.  Direct ``HybridExecutor`` construction remains as
a deprecated shim; see ``docs/API.md`` for the lifecycle, schemas and
deprecation policy.
"""

from .cache import CACHE_VERSION, DEFAULT_CACHE_DIR, JsonDiskCache, parallel_map
from .engine import (
    AnalysisCache,
    CompiledProgram,
    Engine,
    EngineConfig,
    default_engine,
)
from .protocol import (
    ERROR_CODES,
    MAX_REQUEST_BYTES,
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
    canonical_json,
    request_from_json,
    response_from_json,
    wire_json,
)

__all__ = [
    "Engine",
    "EngineConfig",
    "CompiledProgram",
    "AnalysisCache",
    "default_engine",
    "PROTOCOL_VERSION",
    "MAX_REQUEST_BYTES",
    "ERROR_CODES",
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
    "ArrayPlanSummary",
    "request_from_json",
    "response_from_json",
    "canonical_json",
    "wire_json",
    "CACHE_VERSION",
    "DEFAULT_CACHE_DIR",
    "JsonDiskCache",
    "parallel_map",
]

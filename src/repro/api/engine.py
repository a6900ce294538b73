"""The Engine facade: one long-lived, thread-safe entry point.

Every consumer used to re-stitch ``parse_program`` + ``analyze_loop`` +
``HybridExecutor`` by hand, with its own caching and threading glue.
The engine owns all of that in one place:

* :class:`EngineConfig` -- analyzer knobs + cache/concurrency policy,
  fixed for the engine's lifetime;
* :meth:`Engine.compile` -- source text -> :class:`CompiledProgram`
  handle, memoized by source digest (compiling the same text twice
  returns the *same* handle, so plans and interprocedural summaries are
  shared across all callers of one engine);
* :meth:`CompiledProgram.plan` / :meth:`CompiledProgram.execute` -- the
  analyze/execute pipeline with per-loop plan memoization;
* :meth:`Engine.analyze` / :meth:`Engine.execute` /
  :meth:`Engine.serve` -- the request/response protocol of
  :mod:`repro.api.protocol`, with analyze responses persisted in a
  per-engine :class:`AnalysisCache` on disk;
* :meth:`Engine.map` -- concurrent fan-out of requests over the shared
  worker pool (:func:`repro.api.cache.parallel_map`).

Thread-safety model: all memo tables are plain dicts guarded by the
GIL (the package-wide convention -- see :mod:`repro.symbolic.intern`),
so concurrent workers share warm caches and at worst recompute a value,
never corrupt one; disk-cache writes are atomic.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Union

from ..core.analyzer import HybridAnalyzer, LoopPlan
from ..ir.ast import Program
from ..ir.parser import parse_program
from ..runtime.executor import ExecutionReport, HybridExecutor
from ..runtime.inspector import Inspector
from ..runtime.scheduler import CostModel
from ..symbolic.intern import Memo, unregister_cache
from . import cache as _cache
from .cache import JsonDiskCache, parallel_map
from .protocol import (
    PROTOCOL_VERSION,
    AnalyzeRequest,
    AnalyzeResponse,
    ExecuteRequest,
    ExecuteResponse,
)

__all__ = [
    "EngineConfig",
    "AnalysisCache",
    "CompiledProgram",
    "Engine",
    "default_engine",
]

#: Analyzer-knob names an :class:`EngineConfig` (and per-request
#: ``options``) may set; exactly the keyword arguments of
#: :class:`~repro.core.analyzer.HybridAnalyzer`.
ANALYZER_KNOBS = (
    "use_monotonicity",
    "use_reshaping",
    "use_civagg",
    "interprocedural",
    "size_cap",
    "work_cap",
)


@dataclass(frozen=True)
class EngineConfig:
    """Policy of one engine, fixed for its lifetime."""

    # -- analyzer knobs (defaults match HybridAnalyzer) -----------------
    use_monotonicity: bool = True
    use_reshaping: bool = True
    use_civagg: bool = True
    interprocedural: bool = True
    size_cap: Optional[int] = None
    work_cap: Optional[int] = None
    # -- cache / concurrency policy -------------------------------------
    #: persistent cache location (None = .repro-cache / $REPRO_CACHE_DIR)
    cache_dir: Optional[str] = None
    #: persist analyze responses to disk (memory memos are always on)
    use_disk_cache: bool = True
    #: default worker-pool width for :meth:`Engine.map` and for the
    #: parallel execution backends (None = CPUs)
    jobs: Optional[int] = None
    #: bound on distinct compiled programs held in memory
    compile_cache_size: int = 4096
    # -- execution policy ------------------------------------------------
    #: default execution backend for validated parallel loops
    #: ('sequential' | 'thread' | 'process' | 'numpy' | 'speculative')
    backend: str = "sequential"
    #: default chunk-scheduler spec for the parallel backends, as a
    #: ``{"policy": ..., "size": ...}`` document (None = static)
    chunk: Optional[dict] = None

    def analyzer_knobs(self) -> dict:
        return {name: getattr(self, name) for name in ANALYZER_KNOBS}


class _NullSpan:
    """No-op span so traced and untraced calls share one code path."""

    __slots__ = ()

    def set(self, key, value) -> None:
        pass


_NULL_SPAN = _NullSpan()


@contextmanager
def _span(tracer, name: str, phases: bool = False):
    """One tracer span when a tracer is attached, a no-op otherwise.

    *tracer* is duck-typed (``.span(name, phases=...)`` yielding an
    object with ``.set``) so the engine stays import-independent of the
    serving layer's :mod:`repro.server.tracing`.
    """
    if tracer is None:
        yield _NULL_SPAN
    else:
        with tracer.span(name, phases=phases) as span:
            yield span


def _knob_text(knobs: dict) -> str:
    """Stable text form of an effective knob mapping -- the one true
    serialization every analysis cache key is built from (cache and
    concurrency policy deliberately excluded: they cannot change an
    analysis result)."""
    return "|".join(f"{k}={v!r}" for k, v in sorted(knobs.items()))


class AnalysisCache(JsonDiskCache):
    """Persistent analyze-response cache, keyed on everything that can
    change the answer: protocol + cache-format versions, source digest,
    loop label and the effective analyzer knobs.  Changes to the
    analysis *code* itself require a
    :data:`repro.api.cache.CACHE_VERSION` bump (which orphans every old
    entry by construction)."""

    def key(self, source_digest: str, loop: str, knob_text: str) -> str:
        tail = self.digest(
            f"v{_cache.CACHE_VERSION}\0p{PROTOCOL_VERSION}\0"
            f"{source_digest}\0{loop}\0{knob_text}"
        )
        return f"api-analyze-{source_digest}-{tail}"

    def load(
        self, source_digest: str, loop: str, knob_text: str
    ) -> Optional[AnalyzeResponse]:
        payload = self.load_json(self.key(source_digest, loop, knob_text))
        if payload is None:
            return None
        try:
            return AnalyzeResponse.from_json(payload, cached=True)
        except (KeyError, TypeError, ValueError):
            return None  # foreign/stale schema: treat as a miss

    def store(
        self,
        source_digest: str,
        loop: str,
        knob_text: str,
        response: AnalyzeResponse,
    ) -> None:
        self.store_json(
            self.key(source_digest, loop, knob_text), response.to_json()
        )


class CompiledProgram:
    """A compiled source handle: parse + summaries + memoized plans.

    Obtained from :meth:`Engine.compile`; all callers compiling the same
    source through the same engine share one instance, so the
    interprocedural summary memo (keyed on program identity) and the
    per-loop plan memo below are shared too.
    """

    def __init__(
        self,
        engine: "Engine",
        program: Program,
        source: Optional[str],
        digest: str,
    ):
        self.engine = engine
        self.program = program
        #: concrete syntax, when compiled from text (None for
        #: Program-object compiles, which cannot be disk-cached)
        self.source = source
        #: stable source digest; empty for Program-object compiles (a
        #: process-specific id must never leak into wire documents)
        self.digest = digest
        self._analyzers: dict = {}
        self._plans: dict = {}

    # -- analysis -------------------------------------------------------
    def _knobs(self, overrides: dict) -> dict:
        knobs = self.engine.config.analyzer_knobs()
        unknown = set(overrides) - set(ANALYZER_KNOBS)
        if unknown:
            raise TypeError(
                f"unknown analyzer option(s) {sorted(unknown)}; "
                f"valid: {list(ANALYZER_KNOBS)}"
            )
        knobs.update(overrides)
        return knobs

    def _analyzer(self, knobs: dict) -> HybridAnalyzer:
        key = tuple(sorted(knobs.items()))
        analyzer = self._analyzers.get(key)
        if analyzer is None:
            analyzer = HybridAnalyzer(self.program, **knobs)
            self._analyzers[key] = analyzer
        return analyzer

    def plan(self, loop: str, **options) -> LoopPlan:
        """The :class:`LoopPlan` for the loop labelled *loop*, memoized
        per (loop, effective analyzer knobs)."""
        knobs = self._knobs(options)
        key = (loop, tuple(sorted(knobs.items())))
        plan = self._plans.get(key)
        if plan is None:
            plan = self._analyzer(knobs).analyze(loop)
            self._plans[key] = plan
        return plan

    def plan_cached(self, loop: str, **options) -> bool:
        """Whether :meth:`plan` for these arguments is already memoized
        (an analysis-cache probe; never computes anything)."""
        knobs = self._knobs(options)
        return (loop, tuple(sorted(knobs.items()))) in self._plans

    def analyze(self, loop: str, **options) -> AnalyzeResponse:
        """Plan *loop* and summarize the plan as an
        :class:`AnalyzeResponse` (consulting/feeding the engine's disk
        cache for source-backed compiles)."""
        knob_text = _knob_text(self._knobs(options))
        disk = self.engine._disk if self.source is not None else None
        if disk is not None:
            hit = disk.load(self.digest, loop, knob_text)
            if hit is not None:
                self.engine.record_analysis_cache(hit=True)
                return hit
        self.engine.record_analysis_cache(hit=self.plan_cached(loop, **options))
        response = AnalyzeResponse.from_plan(
            self.plan(loop, **options), self.digest
        )
        if disk is not None:
            disk.store(self.digest, loop, knob_text, response)
        return response

    # -- execution ------------------------------------------------------
    def executor(
        self,
        loop: str,
        *,
        exact_strategy: str = "inspector",
        inspector: Optional[Inspector] = None,
        cost: Optional[CostModel] = None,
        plan: Optional[LoopPlan] = None,
        backend: Optional[str] = None,
        jobs: Optional[int] = None,
        chunk: Optional[dict] = None,
        **options,
    ) -> HybridExecutor:
        """A :class:`HybridExecutor` for *loop* (plan from the memo
        unless an explicit *plan* is given).  Backend selection falls
        back to the engine's configured execution policy."""
        config = self.engine.config
        return HybridExecutor(
            self.program,
            plan if plan is not None else self.plan(loop, **options),
            cost=cost,
            inspector=inspector,
            exact_strategy=exact_strategy,
            backend=backend if backend is not None else config.backend,
            jobs=jobs if jobs is not None else config.jobs,
            chunk=chunk if chunk is not None else config.chunk,
        )

    def execute(
        self, loop: str, params: dict, arrays: dict, **kwargs
    ) -> ExecutionReport:
        """Plan (memoized) and execute *loop* against concrete inputs.

        Keyword options are those of :meth:`executor`.  The inputs are
        never mutated or kept (every interpreter run works on the copy
        it makes of them).
        """
        return self.executor(loop, **kwargs).run(params, arrays)


#: Distinguishes the compile memos of multiple engines in the global
#: cache registry (so ``clear_caches()`` resets every engine).
_ENGINE_COUNTER = itertools.count()


class _EvictingMemo(Memo):
    """A :class:`Memo` that evicts the least-recently-used entry at
    capacity instead of refusing new ones.  The compile working set is
    unbounded under fuzzing (every generated/shrunk candidate is a
    distinct source), so the base class's store-nothing-past-capacity
    policy would both pin the first ``max_size`` programs forever and
    stop memoizing exactly when the long-lived engine needs it most.

    Recency matters once an engine serves mixed traffic: a hot
    long-lived program must not be evicted just because it was compiled
    before a burst of cold one-shot candidates, so :meth:`get` touches
    its entry (move-to-end).  And because the serving pool
    (:mod:`repro.server.pool`) makes concurrent ``put``/``get`` routine,
    the touch/evict/insert sequences -- which are not individually
    atomic dict operations -- run under a lock."""

    __slots__ = ("_lock",)

    def __init__(self, name: str, max_size: int = 200_000):
        # Memo.__init__ registers the cache globally, so the lock must
        # exist before any other thread can look the table up.
        self._lock = threading.Lock()
        super().__init__(name, max_size=max_size)

    def get(self, key):
        with self._lock:
            value = self.data.pop(key, None)
            if value is None:
                self.misses += 1
            else:
                # re-insert at the back: dicts iterate in insertion
                # order, so the front is always the LRU victim
                self.data[key] = value
                self.hits += 1
            return value

    def put(self, key, value):
        with self._lock:
            if key not in self.data and len(self.data) >= self.max_size:
                try:
                    self.data.pop(next(iter(self.data)), None)
                except StopIteration:
                    pass
            self.data[key] = value
        return value

    def clear(self):
        # the registry-wide clear_caches() path must honor the same
        # lock as put/get, or a concurrent put sees the dict mutate
        # mid-iteration
        with self._lock:
            super().clear()

#: The process-wide default engine (lazily created; shared by the
#: deprecation shims and every consumer that does not need custom
#: policy).
_DEFAULT_ENGINE: Optional["Engine"] = None


class Engine:
    """A long-lived, thread-safe facade over the whole pipeline."""

    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config or EngineConfig()
        self._compile_memo = _EvictingMemo(
            f"api.engine.compile#{next(_ENGINE_COUNTER)}",
            max_size=self.config.compile_cache_size,
        )
        self._disk: Optional[AnalysisCache] = (
            AnalysisCache(self.config.cache_dir)
            if self.config.use_disk_cache
            else None
        )
        #: analysis-cache outcomes (disk hit or warm plan memo = hit);
        #: plain ints mutated under the GIL, read by the stats verb
        self.analysis_hits = 0
        self.analysis_misses = 0

    def record_analysis_cache(self, hit: bool) -> None:
        if hit:
            self.analysis_hits += 1
        else:
            self.analysis_misses += 1

    def analysis_cache_counts(self) -> dict:
        return {"hits": self.analysis_hits, "misses": self.analysis_misses}

    # -- compilation ----------------------------------------------------
    def compile(
        self,
        source: Union[str, Program],
        *,
        program: Optional[Program] = None,
        digest: Optional[str] = None,
    ) -> CompiledProgram:
        """Compile *source* into a shared :class:`CompiledProgram`.

        Accepts source text (memoized by digest; repeated compiles of
        the same text return the same handle) or an already-parsed
        :class:`Program` (memoized by object identity; such handles
        skip the disk cache because no stable digest exists).  A caller
        holding both may pass *program* alongside the text to skip the
        parse -- the invariant ``parse_program(source) == program`` is
        the caller's responsibility.  Likewise a caller that already
        hashed the text (the serving dispatcher routes by digest) may
        pass *digest* to skip rehashing -- the invariant
        ``digest == JsonDiskCache.digest(source)`` is theirs too.
        """
        if isinstance(source, Program):
            program, source = source, None
        if source is not None:
            if digest is None:
                digest = JsonDiskCache.digest(source)
            key = ("src", digest)
        elif program is not None:
            digest = ""  # no stable digest exists for an object compile
            key = ("obj", id(program))
        else:
            raise TypeError("compile() needs source text or a Program")
        hit = self._compile_memo.get(key)
        if hit is not None and (source is None or hit.source == source):
            return hit
        if program is None:
            program = parse_program(source)
        compiled = CompiledProgram(self, program, source, digest)
        return self._compile_memo.put(key, compiled)

    def parse(self, source: str) -> Program:
        """Parse *source* through the compile memo."""
        return self.compile(source).program

    def holds(self, source_digest: str) -> bool:
        """Whether this engine currently holds a compiled program for
        *source_digest* -- a cache-locality probe (used by the serving
        pool's warm-hit metric); never compiles anything."""
        return ("src", source_digest) in self._compile_memo.data

    # -- protocol service -----------------------------------------------
    def analyze(
        self,
        request: AnalyzeRequest,
        digest: Optional[str] = None,
        tracer=None,
    ) -> AnalyzeResponse:
        with _span(tracer, "compile", phases=True) as span:
            response = self.compile(request.source, digest=digest).analyze(
                request.loop, **request.options
            )
            span.set("cached", response.cached)
        return response

    def execute(
        self,
        request: ExecuteRequest,
        digest: Optional[str] = None,
        tracer=None,
    ) -> ExecuteResponse:
        with _span(tracer, "compile", phases=True) as span:
            compiled = self.compile(request.source, digest=digest)
            warm = compiled.plan_cached(request.loop, **request.options)
            self.record_analysis_cache(hit=warm)
            plan = compiled.plan(request.loop, **request.options)
            span.set("cached", warm)
        with _span(tracer, "execute") as span:
            report = compiled.execute(
                request.loop,
                request.params,
                request.arrays,
                plan=plan,
                exact_strategy=request.exact_strategy,
                backend=request.backend,
                jobs=request.jobs,
                chunk=request.chunk,
            )
            span.set("backend_used", report.backend_used)
            span.set("jobs", report.jobs)
            span.set("chunks", report.chunks)
            span.set("parallel", report.parallel)
            if report.used_speculation or report.speculation_commits:
                span.set("speculation_commits", report.speculation_commits)
                span.set("speculation_rollbacks", report.speculation_rollbacks)
        return ExecuteResponse.from_report(
            report, plan.classification(), compiled.digest
        )

    def serve(self, request, digest: Optional[str] = None, tracer=None):
        """Dispatch one request of either kind.  *digest*, when given,
        must be the source digest of *request* (trusted fast path for
        the serving pool, which already routed by it).  *tracer*, when
        given, records compile/execute spans (duck-typed -- see
        :func:`_span`)."""
        if isinstance(request, AnalyzeRequest):
            return self.analyze(request, digest=digest, tracer=tracer)
        if isinstance(request, ExecuteRequest):
            return self.execute(request, digest=digest, tracer=tracer)
        raise TypeError(f"not a protocol request: {request!r}")

    # -- concurrency ----------------------------------------------------
    def map(self, requests, jobs: Optional[int] = None) -> list:
        """Serve *requests* concurrently on the shared worker pool,
        preserving order.  *jobs* defaults to the engine's configured
        width (then to the CPU count)."""
        return parallel_map(self.serve, requests, jobs or self.config.jobs)

    def map_items(self, fn, items, jobs: Optional[int] = None) -> list:
        """Generic fan-out under the engine's concurrency policy -- the
        hook the batch and fuzz drivers run their own work units
        through."""
        return parallel_map(fn, items, jobs or self.config.jobs)

    # -- cache management -----------------------------------------------
    @property
    def disk_cache(self) -> Optional[AnalysisCache]:
        return self._disk

    def clear_memory(self) -> None:
        """Drop every in-memory compiled program (plans go with them)."""
        self._compile_memo.clear()

    def clear_disk(self) -> int:
        """Delete this engine's persisted analyze responses."""
        if self._disk is None:
            return 0
        removed = 0
        for path in self._disk.directory.glob("api-analyze-*.json"):
            path.unlink()
            removed += 1
        return removed

    def close(self) -> None:
        """Retire this engine: drop its compiled programs and release
        its global cache-registry entry so the engine (and everything
        its memo pins) can be garbage-collected.  A closed engine still
        works -- it just no longer appears in ``cache_stats()`` / gets
        reset by ``clear_caches()``.  Long-lived embedders that create
        engines routinely (the serving pool does) must call this."""
        self._compile_memo.clear()
        unregister_cache(self._compile_memo)


def default_engine() -> Engine:
    """The process-wide default engine (created on first use).

    Creation is idempotent-enough under the GIL: two racing first calls
    may build two engines, but only one is published and cached state is
    merely recomputed, never corrupted.
    """
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = Engine()
    return _DEFAULT_ENGINE

"""The three-way differential soundness oracle.

For every generated case the oracle runs three independent views of the
same loop and cross-checks them:

1. **analysis** -- the full static pipeline (the harness's
   :func:`fuzz_engine` compiling and planning the case) produces a
   :class:`LoopPlan` and its classification;
2. **trace** -- the reference interpreter re-executes the program with a
   trace target (:mod:`repro.ir.interp` role 2), yielding the *true*
   cross-iteration dependences of this run;
3. **execution** -- :class:`repro.runtime.HybridExecutor` evaluates the
   cascades, applies the per-array transforms, runs the loop with
   iteration-isolated memory and compares the merged final state against
   the sequential ground truth.

The verdict vocabulary:

* ``sound-parallel`` -- the runtime validated the loop and the parallel
  memory state matches sequential execution;
* ``sound-sequential`` -- the loop ran sequentially and the trace shows
  it was right to (dependences exist, or a scalar dependence or <= 1
  trip makes parallelism pointless);
* ``precision-gap`` -- the trace proves this run independent but the
  system still ran it sequentially.  A completeness (not soundness)
  miss: recorded, never failed;
* ``unsound`` -- the system parallelized and either the final memory
  diverged from sequential execution, or a predicate claimed
  independence for an array whose trace shows a cross-iteration
  dependence.  Always a bug;
* ``crash`` -- any pipeline layer raised on a well-formed input.
  Always a bug (the generator guarantees in-bounds programs).
"""

from __future__ import annotations

import time
import traceback
from dataclasses import asdict, dataclass, field
from typing import Optional

from ..api.cache import JsonDiskCache
from ..api.engine import Engine, EngineConfig
from ..core.analyzer import LoopPlan
from ..ir.interp import LoopTrace, Machine
from .generator import FuzzCase, GeneratorConfig, generate_case

__all__ = [
    "FUZZ_VERSION",
    "OUTCOMES",
    "CaseResult",
    "FuzzReport",
    "FuzzCache",
    "fuzz_engine",
    "classify_outcome",
    "run_case",
    "run_seed",
    "run_fuzz",
    "format_fuzz_report",
]

#: Bump when generator grammar or oracle semantics change: invalidates
#: every cached per-seed verdict by construction.
FUZZ_VERSION = 1

#: Verdict vocabulary, in reporting order.
OUTCOMES = (
    "sound-parallel",
    "sound-sequential",
    "precision-gap",
    "unsound",
    "crash",
)

#: Outcomes that fail a fuzz run.
FAILING_OUTCOMES = ("unsound", "crash")

#: Predicate-size bound used when analyzing generated programs.  The
#: default cap (Section 3.6) is sized for the curated benchmarks;
#: adversarial random programs can push FACTOR's included/disjoint
#: recursion orders of magnitude past them, so the harness trades a
#: little precision (a capped predicate folds to false = exact/TLS
#: fallback, still sound) for bounded per-seed analysis time.
ANALYSIS_SIZE_CAP = 3_000

#: Inference budget (factor/included/disjoint subproblems) per cascade
#: when analyzing generated programs; same rationale and soundness
#: argument as :data:`ANALYSIS_SIZE_CAP`.
ANALYSIS_WORK_CAP = 4_000

#: The harness's long-lived engine (lazily built).  It carries the
#: tightened caps above and skips the disk cache: generated programs
#: are unique per seed, so only the in-memory compile/plan memos pay
#: off (repeated oracle calls on one case, e.g. during shrinking).
_FUZZ_ENGINE: Optional[Engine] = None


def fuzz_engine() -> Engine:
    global _FUZZ_ENGINE
    if _FUZZ_ENGINE is None:
        _FUZZ_ENGINE = Engine(
            EngineConfig(
                size_cap=ANALYSIS_SIZE_CAP,
                work_cap=ANALYSIS_WORK_CAP,
                use_disk_cache=False,
            )
        )
    return _FUZZ_ENGINE


@dataclass
class CaseResult:
    """Verdict for one seed."""

    seed: int
    outcome: str
    #: the plan's Table 1-3 label ('?' when analysis crashed)
    classification: str = "?"
    parallel: bool = False
    #: did the trace show any cross-iteration dependence?
    dependent: Optional[bool] = None
    trips: int = 0
    exact_strategy: str = "inspector"
    #: execution backend the case ran on
    backend: str = "sequential"
    detail: str = ""
    cached: bool = False

    @property
    def failed(self) -> bool:
        return self.outcome in FAILING_OUTCOMES

    def to_json(self) -> dict:
        out = asdict(self)
        out.pop("cached", None)
        return out

    @classmethod
    def from_json(cls, payload: dict) -> "CaseResult":
        payload.pop("cached", None)
        return cls(cached=True, **payload)


def _per_array_dependences(trace: LoopTrace) -> dict:
    """Per-array trace verdicts: name -> (has_any_dep, has_flow_dep).

    *any* covers flow, anti and output dependences; *flow* covers a
    location written in one iteration and expose-read in a different one
    (either order -- the executor's privatization only licenses output
    dependences).
    """
    writers: dict = {}
    readers: dict = {}
    for rec in trace.iterations:
        for arr, locs in rec.writes.items():
            for loc in locs:
                writers.setdefault((arr, loc), set()).add(rec.iteration)
        for arr, locs in rec.exposed_reads.items():
            for loc in locs:
                readers.setdefault((arr, loc), set()).add(rec.iteration)
    verdict: dict = {}

    def mark(arr: str, any_dep: bool, flow_dep: bool) -> None:
        prev_any, prev_flow = verdict.get(arr, (False, False))
        verdict[arr] = (prev_any or any_dep, prev_flow or flow_dep)

    for (arr, _loc), owners in writers.items():
        if len(owners) > 1:
            mark(arr, True, False)
    for key, reads in readers.items():
        arr = key[0]
        owners = writers.get(key, set())
        for r in reads:
            if owners - {r}:
                mark(arr, True, True)
                break
    return verdict


#: decision.via values that constitute an *independence claim* by the
#: analysis (static proof, predicate cascade, or exact USR evaluation);
#: 'speculation' is trace-derived and consistent by construction.
_CLAIMING_VIAS = ("static", "predicate", "inspector")


def classify_outcome(
    plan: LoopPlan, trace: Optional[LoopTrace], report
) -> tuple:
    """(outcome, detail) from the three views of one case."""
    trace_iters = trace.iterations if trace is not None else []
    dependent = (
        trace.has_cross_iteration_dependence() if trace is not None else False
    )
    if report.parallel and not report.correct:
        return (
            "unsound",
            "parallel final memory diverges from sequential ground truth",
        )
    if report.parallel and trace is not None:
        per_array = _per_array_dependences(trace)
        for arr, decision in report.decisions.items():
            any_dep, flow_dep = per_array.get(arr, (False, False))
            if decision.via not in _CLAIMING_VIAS:
                continue
            if decision.strategy == "shared" and any_dep:
                return (
                    "unsound",
                    f"{arr}: claimed fully independent (via {decision.via}, "
                    f"stage {decision.passed_stage}) but the trace has a "
                    "cross-iteration dependence",
                )
            if decision.strategy == "private" and flow_dep:
                return (
                    "unsound",
                    f"{arr}: claimed flow-independent (via {decision.via}) "
                    "but the trace has a cross-iteration flow dependence",
                )
    if report.parallel:
        return ("sound-parallel", "")
    if (
        not dependent
        and len(trace_iters) > 1
        and not plan.has_scalar_dependence()
    ):
        return (
            "precision-gap",
            "trace shows this run independent, but the loop ran sequentially",
        )
    return ("sound-sequential", "")


def run_case(
    case: FuzzCase,
    backend: str = "sequential",
    jobs: Optional[int] = None,
    chunk: Optional[dict] = None,
) -> CaseResult:
    """Run the three-way oracle on one case.

    *backend*/*jobs*/*chunk* select the execution backend for view 3,
    so the same differential harness that validates the analysis also
    validates every real execution backend against the interpreter.
    """
    base = CaseResult(seed=case.seed, outcome="crash",
                      exact_strategy=case.exact_strategy, backend=backend)
    compiled = fuzz_engine().compile(case.source, program=case.program)
    try:
        plan = compiled.plan(case.label)
        base.classification = plan.classification()
    except Exception as exc:  # noqa: BLE001 -- any crash is the finding
        base.detail = f"analyzer: {type(exc).__name__}: {exc}\n" + (
            traceback.format_exc(limit=6)
        )
        return base
    try:
        machine = Machine(
            case.program,
            params=case.params,
            arrays=case.arrays,
            trace_label=case.label,
        )
        seq = machine.run()
    except Exception as exc:  # noqa: BLE001
        base.detail = f"interpreter: {type(exc).__name__}: {exc}"
        return base
    trace = seq.trace
    base.trips = len(trace.iterations) if trace is not None else 0
    base.dependent = (
        trace.has_cross_iteration_dependence() if trace is not None else False
    )
    try:
        report = compiled.execute(
            case.label,
            case.params,
            case.arrays,
            plan=plan,
            exact_strategy=case.exact_strategy,
            backend=backend,
            jobs=jobs,
            chunk=chunk,
        )
    except Exception as exc:  # noqa: BLE001
        base.detail = f"executor: {type(exc).__name__}: {exc}\n" + (
            traceback.format_exc(limit=6)
        )
        return base
    base.parallel = report.parallel
    base.outcome, base.detail = classify_outcome(plan, trace, report)
    return base


def run_seed(
    seed: int,
    config: Optional[GeneratorConfig] = None,
    backend: str = "sequential",
    jobs: Optional[int] = None,
    chunk: Optional[dict] = None,
) -> CaseResult:
    """Generate and judge one seed (deterministic end to end)."""
    return run_case(
        generate_case(seed, config), backend=backend, jobs=jobs, chunk=chunk
    )


# -- batch driver ------------------------------------------------------------


class FuzzCache(JsonDiskCache):
    """Persistent per-seed verdict cache (same store as ``batch``).

    Keys digest the fuzz format version, every generator knob and the
    seed; any grammar or oracle change (a :data:`FUZZ_VERSION` bump)
    orphans old entries rather than serving them.
    """

    def seed_key(
        self,
        seed: int,
        config: GeneratorConfig,
        backend: str = "sequential",
        backend_jobs: Optional[int] = None,
        chunk: Optional[dict] = None,
    ) -> str:
        # The whole execution configuration is part of the key: verdicts
        # SHOULD be identical across jobs/chunk specs (that is a pinned
        # property), but a chunk-boundary bug is exactly what backend
        # fuzzing exists to catch -- serving a cached verdict from a
        # different configuration would mask it.
        digest = self.digest(
            f"fuzz\0v{FUZZ_VERSION}\0{config.digest_text()}\0"
            f"b{backend}\0j{backend_jobs}\0c{sorted((chunk or {}).items())}"
        )
        return f"fuzz-s{seed}-{digest}"

    def load_seed(
        self,
        seed: int,
        config: GeneratorConfig,
        backend: str = "sequential",
        backend_jobs: Optional[int] = None,
        chunk: Optional[dict] = None,
    ) -> Optional[CaseResult]:
        payload = self.load_json(
            self.seed_key(seed, config, backend, backend_jobs, chunk)
        )
        if payload is None:
            return None
        try:
            return CaseResult.from_json(payload)
        except TypeError:
            return None  # foreign schema: treat as a miss

    def store_seed(
        self,
        seed: int,
        config: GeneratorConfig,
        result: CaseResult,
        backend: str = "sequential",
        backend_jobs: Optional[int] = None,
        chunk: Optional[dict] = None,
    ) -> None:
        self.store_json(
            self.seed_key(seed, config, backend, backend_jobs, chunk),
            result.to_json(),
        )


@dataclass
class FuzzReport:
    """Aggregate of one fuzz run."""

    results: list = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def counts(self) -> dict:
        out = {name: 0 for name in OUTCOMES}
        for r in self.results:
            out[r.outcome] = out.get(r.outcome, 0) + 1
        return out

    @property
    def failures(self) -> list:
        return [r for r in self.results if r.failed]

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.cached)

    def classification_histogram(self) -> list:
        hist: dict = {}
        for r in self.results:
            hist[r.classification] = hist.get(r.classification, 0) + 1
        return sorted(hist.items(), key=lambda kv: (-kv[1], kv[0]))

    @property
    def ok(self) -> bool:
        return not self.failures


def run_fuzz(
    seeds: int,
    seed_start: int = 0,
    jobs: Optional[int] = None,
    config: Optional[GeneratorConfig] = None,
    cache: Optional[FuzzCache] = None,
    backend: str = "sequential",
    backend_jobs: Optional[int] = None,
    chunk: Optional[dict] = None,
) -> FuzzReport:
    """Judge seeds ``[seed_start, seed_start + seeds)`` concurrently.

    Fans out on the fuzz engine's worker pool and (when *cache* is
    given) consults the persistent on-disk store; a cached seed is pure
    disk I/O.  *backend*/*backend_jobs*/*chunk* run every case's
    execution view on a real backend (verdicts are cached per backend).
    """
    config = config or GeneratorConfig()

    def one(seed: int) -> CaseResult:
        if cache is not None:
            hit = cache.load_seed(seed, config, backend, backend_jobs, chunk)
            if hit is not None:
                return hit
        result = run_seed(seed, config, backend=backend,
                          jobs=backend_jobs, chunk=chunk)
        if cache is not None and not result.failed:
            # Failures are never cached: they are meant to be re-run
            # (and shrunk) until fixed.
            cache.store_seed(seed, config, result, backend,
                             backend_jobs, chunk)
        return result

    started = time.perf_counter()
    results = fuzz_engine().map_items(
        one, range(seed_start, seed_start + seeds), jobs
    )
    return FuzzReport(results=results, elapsed_s=time.perf_counter() - started)


def format_fuzz_report(report: FuzzReport, verbose_failures: int = 5) -> str:
    """Human-readable soundness/precision summary of a fuzz run."""
    from ..evaluation.tables import format_fuzz_table

    lines = [format_fuzz_table(report)]
    for r in report.failures[:verbose_failures]:
        first = r.detail.strip().splitlines()
        lines.append(
            f"  seed {r.seed}: {r.outcome} [{r.classification}] "
            f"{first[0] if first else ''}"
        )
    if len(report.failures) > verbose_failures:
        lines.append(f"  ... and {len(report.failures) - verbose_failures} more")
    return "\n".join(lines)

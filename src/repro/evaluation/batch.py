"""Parallel batch analysis of the whole benchmark suite (``repro-eval batch``).

The evaluation harness analyzes and executes all 26 benchmark models.
Doing that one benchmark at a time, from scratch, on every invocation is
the slowest part of the development loop, so this driver adds the two
missing scaling layers on top of the hash-consed analysis core:

* **Concurrency** -- benchmarks are independent, so they are dispatched
  to the engine's shared worker pool (:meth:`repro.api.Engine.map_items`).
  The analysis memo tables (:mod:`repro.symbolic.intern`) are plain
  dicts guarded by the GIL: concurrent workers share warm caches and at
  worst recompute a value, never corrupt one.
* **A persistent on-disk result cache** -- each benchmark's measured
  outcome is summarized into a JSON document stored under a key that
  hashes the benchmark's *program text* together with the system, scale
  and cache-format version.  Editing a benchmark program (or bumping
  :data:`CACHE_VERSION`) changes the key, so stale entries can never be
  served; re-running an unchanged suite is pure disk I/O.

Usage::

    python -m repro.evaluation batch                 # everything, cached
    python -m repro.evaluation batch --suite perfect # one suite
    python -m repro.evaluation batch --no-cache      # force recompute
    python -m repro.evaluation batch --clear-cache   # drop the disk cache
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional, Sequence

from ..api import default_engine
from ..api.cache import CACHE_VERSION, JsonDiskCache
from ..workloads import ALL_BENCHMARKS, BenchmarkSpec
from .model import measure_benchmark
from .tables import _SUITE_PROCS

__all__ = [
    "LoopResult",
    "BenchmarkResult",
    "BatchReport",
    "BatchCache",
    "analyze_benchmark",
    "run_batch",
    "format_batch",
]



@dataclass(frozen=True)
class LoopResult:
    """Cached summary of one measured loop."""

    label: str
    classification: str
    techniques: list
    parallel: bool
    correct: bool
    runtime_label: str
    speedup: float


@dataclass
class BenchmarkResult:
    """Cached summary of one benchmark under one system/scale."""

    name: str
    suite: str
    system: str
    scale: int
    norm_time: float
    rtov: float
    procs: int
    elapsed_s: float
    loops: list = field(default_factory=list)
    #: True when this result was served from the persistent cache.
    cached: bool = False

    @classmethod
    def from_json(cls, payload: dict) -> "BenchmarkResult":
        loops = [LoopResult(**l) for l in payload.pop("loops", [])]
        payload.pop("cached", None)
        return cls(loops=loops, cached=True, **payload)

    def to_json(self) -> dict:
        out = asdict(self)
        out.pop("cached", None)
        return out


@dataclass
class BatchReport:
    """Outcome of one batch run."""

    results: list = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.cached)

    @property
    def cache_misses(self) -> int:
        return sum(1 for r in self.results if not r.cached)


class BatchCache(JsonDiskCache):
    """Persistent per-benchmark result cache, keyed on the spec's inputs.

    The key digests every *data* input of the measurement: benchmark
    name, **program source text**, the per-loop metadata rows (labels,
    coverage, granularity), the suite-level coverage figures, system,
    dataset scale and the cache-format version.  A change to any of them
    -- most importantly an edit to the benchmark program or its loop
    table -- yields a different file name, so a stale entry is
    unreachable rather than merely suspect.  Changes to the *analysis
    code itself* are not hashable; bump :data:`CACHE_VERSION` (or run
    ``--no-cache`` / ``--clear-cache``) when measurement semantics
    change.
    """

    def key(self, spec: BenchmarkSpec, system: str, scale: int) -> str:
        digest = hashlib.sha256()
        digest.update(f"v{CACHE_VERSION}\0{spec.name}\0{system}\0{scale}\0".encode())
        digest.update(spec.source.encode())
        digest.update(f"\0sc={spec.sc}\0scrt={spec.scrt}\0".encode())
        for loop in spec.loops:
            digest.update(
                f"\0{loop.label}\0{loop.lsc}\0{loop.gr_ms}\0"
                f"{loop.paper_class}\0{loop.paper_parallel}".encode()
            )
        return f"{spec.name}-{system}-s{scale}-{digest.hexdigest()[:16]}"

    def load(self, spec: BenchmarkSpec, system: str, scale: int) -> Optional[BenchmarkResult]:
        payload = self.load_json(self.key(spec, system, scale))
        if payload is None:
            return None
        try:
            return BenchmarkResult.from_json(payload)
        except TypeError:
            return None  # unreadable/foreign schema: treat as a miss

    def store(self, spec: BenchmarkSpec, system: str, scale: int, result: BenchmarkResult) -> None:
        self.store_json(self.key(spec, system, scale), result.to_json())


def analyze_benchmark(
    spec: BenchmarkSpec,
    system: str = "hybrid",
    scale: int = 1,
    cache: Optional[BatchCache] = None,
) -> BenchmarkResult:
    """Measure one benchmark, consulting/feeding the persistent cache."""
    if cache is not None:
        hit = cache.load(spec, system, scale)
        if hit is not None:
            return hit
    procs = _SUITE_PROCS.get(spec.suite, 4)
    started = time.perf_counter()
    measurement = measure_benchmark(spec, system=system, scale=scale)
    elapsed = time.perf_counter() - started
    loops = []
    for label, loop in measurement.loops.items():
        loops.append(
            LoopResult(
                label=label,
                classification=loop.plan.classification() if loop.plan else "?",
                techniques=loop.plan.techniques() if loop.plan else [],
                parallel=loop.parallel,
                correct=loop.correct,
                runtime_label=loop.runtime_label,
                speedup=round(loop.speedup(procs), 4),
            )
        )
    result = BenchmarkResult(
        name=spec.name,
        suite=spec.suite,
        system=system,
        scale=scale,
        norm_time=round(measurement.norm_time(procs), 4),
        rtov=round(measurement.rtov(procs), 4),
        procs=procs,
        elapsed_s=round(elapsed, 4),
        loops=loops,
    )
    if cache is not None:
        cache.store(spec, system, scale, result)
    return result


def _select(suites: Optional[Iterable[str]], names: Optional[Iterable[str]]) -> list:
    wanted = list(ALL_BENCHMARKS)
    if suites:
        suites = set(suites)
        wanted = [b for b in wanted if b.suite in suites]
    if names:
        names = set(names)
        unknown = names - {b.name for b in ALL_BENCHMARKS}
        if unknown:
            known = ", ".join(sorted(b.name for b in ALL_BENCHMARKS))
            raise KeyError(
                f"unknown benchmark(s) {sorted(unknown)}; choose from: {known}"
            )
        wanted = [b for b in wanted if b.name in names]
    if not wanted and (suites or names):
        raise KeyError("the --suite/--benchmark filters select no benchmarks")
    return wanted


def run_batch(
    suites: Optional[Sequence[str]] = None,
    names: Optional[Sequence[str]] = None,
    system: str = "hybrid",
    scale: int = 1,
    jobs: Optional[int] = None,
    cache: Optional[BatchCache] = None,
    use_cache: bool = True,
) -> BatchReport:
    """Analyze every selected benchmark concurrently.

    *jobs* defaults to the CPU count.  With *use_cache* (the default) a
    :class:`BatchCache` is consulted per benchmark; pass an explicit
    *cache* to control its location, or ``use_cache=False`` to force a
    full recomputation without touching the disk.
    """
    selected = _select(suites, names)
    if use_cache and cache is None:
        cache = BatchCache()
    elif not use_cache:
        cache = None
    started = time.perf_counter()
    report = BatchReport()
    report.results = default_engine().map_items(
        lambda spec: analyze_benchmark(spec, system, scale, cache),
        selected,
        jobs,
    )
    report.elapsed_s = time.perf_counter() - started
    return report


def _classification_rank(label: str) -> tuple:
    """Order classifications by runtime expense (worst = most costly).

    Static outcomes rank lowest, runtime-tested loops rank by their
    cheapest cascade stage's complexity (O(1) < O(N) < O(N^k)), and the
    exact-fallback family (EXACT/TLS/HOIST-USR) ranks highest.
    """
    if label.startswith(("EXACT", "TLS", "HOIST-USR")):
        return (3, 0, label)
    if label.startswith(("STATIC-PAR", "STATIC-SEQ", "CIVagg", "SRED")):
        return (0, 0, label)
    depth = 0
    if "O(N^" in label:
        try:
            depth = int(label.split("O(N^", 1)[1].split(")", 1)[0])
        except ValueError:
            depth = 2
    elif "O(N)" in label:
        depth = 1
    bounds = 1 if "BOUNDS-COMP" in label else 0
    return (1 + bounds, depth, label)


def format_batch(report: BatchReport) -> str:
    """Human-readable summary table of a batch run."""
    lines = []
    header = (
        f"{'benchmark':<12} {'suite':<9} {'class (worst loop)':<22} "
        f"{'norm':>7} {'rtov':>6} {'loops':>5} {'ok':>3} {'src':>6}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for r in sorted(report.results, key=lambda r: (r.suite, r.name)):
        worst = max(
            (l.classification for l in r.loops),
            key=_classification_rank,
            default="-",
        )
        all_ok = all(l.correct for l in r.loops)
        lines.append(
            f"{r.name:<12} {r.suite:<9} {worst:<22} "
            f"{r.norm_time:>7.3f} {r.rtov:>6.3f} {len(r.loops):>5} "
            f"{'yes' if all_ok else 'NO':>3} {'cache' if r.cached else 'run':>6}"
        )
    lines.append(
        f"{len(report.results)} benchmarks in {report.elapsed_s:.2f}s "
        f"({report.cache_hits} cached, {report.cache_misses} analyzed)"
    )
    return "\n".join(lines)

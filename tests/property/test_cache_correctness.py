"""Cache-correctness properties of the hash-consed analysis core.

Two invariants guard the memoization layers:

1. Caching must be *semantically invisible*: analyzing a loop with warm
   caches (maximal sharing, every memo table populated) must yield
   exactly the same :class:`~repro.core.analyzer.LoopPlan` as a
   cold-start analysis with every cache cleared.  The plans are compared
   by a structural fingerprint covering classification, techniques and
   every per-array cascade.
2. The batch driver's persistent cache must key on the benchmark's
   program text: any edit to the source invalidates the entry, while an
   unchanged program round-trips bit-identically.
"""

from __future__ import annotations

import pytest

from repro.core import HybridAnalyzer, LoopPlan, analyzer
from repro.evaluation.batch import BatchCache, analyze_benchmark
from repro.ir.summarize import summarize_loop
from repro.symbolic import clear_caches
from repro.workloads import ALL_BENCHMARKS, BenchmarkSpec, LoopSpec


def _plan_fingerprint(plan: LoopPlan) -> tuple:
    """A deep structural summary of everything a LoopPlan decides."""
    arrays = tuple(
        (
            name,
            ap.transform,
            repr(ap.flow),
            repr(ap.output),
            repr(ap.slv),
            repr(ap.rred),
            ap.needs_bounds_comp,
            ap.extended_reduction,
            ap.needs_exact,
            repr(ap.exact_usr),
        )
        for name, ap in sorted(plan.arrays.items())
    )
    return (
        plan.label,
        plan.index,
        repr(plan.lower),
        repr(plan.upper),
        plan.classification(),
        tuple(plan.techniques()),
        plan.approximate,
        plan.is_while,
        arrays,
    )


def _suite_fingerprints() -> dict:
    out = {}
    for spec in ALL_BENCHMARKS:
        analyzer = HybridAnalyzer(spec.program)
        for loop in spec.loops:
            out[(spec.name, loop.label)] = _plan_fingerprint(
                analyzer.analyze(loop.label)
            )
    return out


def test_interned_and_fresh_analysis_agree_across_suite():
    """Warm-cache plans == cold-start plans for every workload loop."""
    clear_caches()
    _suite_fingerprints()  # populate every cache
    warm = _suite_fingerprints()  # served almost entirely from memos
    clear_caches()
    fresh = _suite_fingerprints()  # recomputed from scratch
    assert warm == fresh


def test_slot_caches_on_survivors_of_a_clear_change_no_plan(monkeypatch):
    """Loop summaries that survive a clear hold atoms whose cached
    expression, and comparisons whose cached negation, are pre-clear
    objects no intern table knows any more.  Planning over them through
    the emptied tables must equal a fully cold analysis."""
    survivors: dict = {}

    def summarize_once(program, label, interprocedural=True):
        key = (id(program), label, interprocedural)
        if key not in survivors:
            survivors[key] = summarize_loop(program, label, interprocedural)
        return survivors[key]

    monkeypatch.setattr(analyzer, "summarize_loop", summarize_once)
    clear_caches()
    _suite_fingerprints()  # fills `survivors` and the slot caches
    clear_caches()
    mixed = _suite_fingerprints()
    monkeypatch.undo()
    clear_caches()
    fresh = _suite_fingerprints()
    assert mixed == fresh


# -- persistent batch cache -------------------------------------------------

_TINY_SOURCE = """
program tiny
param N
array A(128)

main
  do i = 1, N @ tiny_do1
    A[i] = A[i] + 1
  end
end
"""


def _tiny_spec(source: str = _TINY_SOURCE) -> BenchmarkSpec:
    return BenchmarkSpec(
        name="tiny",
        suite="spec92",
        sc=1.0,
        scrt=0.0,
        rtov_paper=0.0,
        source=source,
        loops=[LoopSpec("tiny_do1", 1.0, 1.0, "STATIC-PAR")],
        techniques_paper=[],
        dataset=lambda scale: ({"N": 16 * scale}, {"A": [0] * 128}),
    )


def test_batch_cache_round_trip(tmp_path):
    cache = BatchCache(str(tmp_path))
    spec = _tiny_spec()
    first = analyze_benchmark(spec, cache=cache)
    assert not first.cached
    second = analyze_benchmark(spec, cache=cache)
    assert second.cached
    assert second.to_json() == first.to_json()


def test_batch_cache_invalidates_on_program_text_change(tmp_path):
    cache = BatchCache(str(tmp_path))
    spec = _tiny_spec()
    analyze_benchmark(spec, cache=cache)
    edited = _tiny_spec(_TINY_SOURCE.replace("A[i] + 1", "A[i] + 2"))
    assert cache.key(spec, "hybrid", 1) != cache.key(edited, "hybrid", 1)
    assert cache.load(edited, "hybrid", 1) is None  # stale entry unreachable
    rerun = analyze_benchmark(edited, cache=cache)
    assert not rerun.cached  # really recomputed


def test_batch_cache_keys_on_scale_and_system(tmp_path):
    cache = BatchCache(str(tmp_path))
    spec = _tiny_spec()
    keys = {
        cache.key(spec, "hybrid", 1),
        cache.key(spec, "hybrid", 2),
        cache.key(spec, "baseline", 1),
    }
    assert len(keys) == 3


def test_batch_cache_tolerates_corrupt_entries(tmp_path):
    cache = BatchCache(str(tmp_path))
    spec = _tiny_spec()
    analyze_benchmark(spec, cache=cache)
    for path in tmp_path.glob("*.json"):
        path.write_text("{not json")
    assert cache.load(spec, "hybrid", 1) is None
    result = analyze_benchmark(spec, cache=cache)
    assert not result.cached  # recomputed, and the entry is repaired
    assert cache.load(spec, "hybrid", 1) is not None

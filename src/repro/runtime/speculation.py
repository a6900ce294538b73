"""LRPD-style thread-level speculation (the paper's exact-test fallback).

When every predicate of the cascade fails, the executor may run the loop
speculatively: iterations execute in parallel against shadow structures
that mark, per memory location, whether it was read, written, or written
more than once.  After the run, the markings are analyzed exactly as the
LRPD test does:

* a location written by two different iterations -> output dependence;
* a location written by one iteration and expose-read by another ->
  flow/anti dependence.

On success the speculative run's timing stands (plus the marking
overhead, proportional to the number of traced accesses); on failure the
loop re-executes sequentially and the speculative work is wasted -- both
exactly the cost behaviour the paper attributes to TLS.

Two consumers share the marking analysis:

* :func:`lrpd_test` -- the post-hoc view over a sequential
  :class:`~repro.ir.interp.LoopTrace` (the cost-model path, and the
  trace-side oracle the property suite compares against);
* :func:`lrpd_marks` -- the generic core, over per-iteration marks.  The
  *real* speculative execution backend
  (:class:`~repro.runtime.backends.speculative.SpeculativeBackend`)
  does not need it to commit: its chunks stamp their marks in generated
  code, stop at the first conflict inside a chunk, and are judged
  against each other by set intersection.  It is the backend's
  reference, run on the marks of the per-iteration isolated run
  whenever that judgement finds a conflict, so a rollback's document
  is this function's.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.interp import LoopTrace

__all__ = ["SpeculationResult", "lrpd_marks", "lrpd_test"]


@dataclass
class SpeculationResult:
    """Outcome of the LRPD marking analysis over a traced execution."""

    success: bool
    #: accesses traced: the marking overhead is proportional to this
    traced_accesses: int
    #: privatizable-under-TLS arrays (never expose-read across iterations)
    privatized: frozenset[str] = frozenset()
    #: arrays whose conflicts aborted speculation (empty on success)
    conflicts: frozenset[str] = frozenset()


def lrpd_marks(
    accesses, privatize: bool = True, skip: frozenset = frozenset()
) -> SpeculationResult:
    """Run the LRPD test over shadow marks.

    *accesses* yields one ``(ident, writes, exposed)`` triple per
    executed iteration: a hashable iteration identity, the per-array
    written locations and the per-array expose-read locations (a read of
    a location with no preceding write in the same iteration).  Arrays
    in *skip* are exempt from marking entirely -- the caller has already
    validated a merge rule for them (e.g. a licensed reduction
    delta-merge), so their accesses can neither conflict nor count
    toward the marking overhead.

    With ``privatize`` (the paper's LRPD with privatization), arrays
    whose cross-iteration conflicts are write-write only are treated as
    privatized (with last-value), so only genuine flow dependences --
    a location written by iteration ``i`` and expose-read by ``j != i``
    -- abort speculation.
    """
    traced = 0
    writers: dict[tuple[str, int], set] = {}
    exposed: dict[tuple[str, int], set] = {}
    for ident, writes, reads in accesses:
        for arr, locs in writes.items():
            if arr in skip:
                continue
            traced += len(locs)
            for loc in locs:
                writers.setdefault((arr, loc), set()).add(ident)
        for arr, locs in reads.items():
            if arr in skip:
                continue
            traced += len(locs)
            for loc in locs:
                exposed.setdefault((arr, loc), set()).add(ident)

    output_conflicts: set[str] = set()
    for key, owners in writers.items():
        if len(owners) > 1:
            output_conflicts.add(key[0])

    flow_conflicts: set[str] = set()
    for key, owners in writers.items():
        readers = exposed.get(key, set())
        for r in readers:
            if owners - {r}:
                flow_conflicts.add(key[0])
                break

    if flow_conflicts:
        return SpeculationResult(
            success=False,
            traced_accesses=traced,
            conflicts=frozenset(flow_conflicts),
        )
    if output_conflicts and not privatize:
        return SpeculationResult(
            success=False,
            traced_accesses=traced,
            conflicts=frozenset(output_conflicts),
        )
    return SpeculationResult(
        success=True,
        traced_accesses=traced,
        privatized=frozenset(output_conflicts),
    )


def lrpd_test(trace: LoopTrace, privatize: bool = True) -> SpeculationResult:
    """Run the LRPD marking analysis on an execution trace."""
    return lrpd_marks(
        (
            (rec.iteration, rec.writes, rec.exposed_reads)
            for rec in trace.iterations
        ),
        privatize=privatize,
    )

"""The speculative (LRPD) backend: optimistic execution with rollback.

The paper's final fallback: when no predicate of the cascade could
validate a loop, run it optimistically in parallel anyway, *mark* every
array access made along the way, and let the LRPD test judge the
markings.  This module is that fallback as a real execution backend:

1. **marked run** -- every chunk of the iteration space runs in order
   and in place on its own copy of the pre-loop memory, through the
   *marking* variant of the loop's generated unit
   (:func:`~repro.runtime.backends.base.execute_marked_chunk`).  It
   stamps, per base array and location, the iteration that wrote it and
   the one that expose-read it, and stops with
   :class:`~repro.ir.interp.MarkConflict` at the first access by which
   one of the chunk's iterations depends on another -- before the value
   is read or the location written.  A chunk that runs to its end comes
   back as one outcome whose marks are its distinct written and
   expose-read locations.  Large iteration spaces go to the persistent
   process pool (real, GIL-free parallelism); small ones stay on the
   kept thread pool or inline, where pool overhead would dominate;
2. **validation** -- between chunks, by set intersection: a location
   one chunk wrote and another expose-read is a conflict; one that two
   chunks wrote privatizes its array.  Arrays the runtime already
   licensed as reductions are exempt (their delta-merge is valid
   regardless of overlap) and copied out by diff;
3. **commit** -- the chunk outcomes merge in chunk order under the
   per-array rules, as the ``thread`` backend's do: no undo log, no
   per-iteration outcome (write-write-only arrays are the privatized
   set, merged with last value);
4. **re-judging** -- any conflict, inside a chunk or between chunks,
   discards the chunk results and runs the reference: every iteration
   isolated (:func:`~repro.runtime.backends.base.execute_positions` with
   ``record_exposed=True``), its marks judged by
   :func:`~repro.runtime.speculation.lrpd_marks` and applied to a
   working copy with an undo log (:func:`apply_outcomes`).  On a
   conflict the log restores the byte-identical pre-loop memory
   (:func:`rollback`) and the loop re-executes sequentially *in order*
   (:func:`sequential_execute`) -- the misspeculation penalty the
   paper's TLS numbers charge.

Why a committed chunk run equals the isolated run (docs/ARCHITECTURE.md,
"Speculative execution", says it at length): up to the first conflicting
access, every read of a chunk run in place sees what the same read sees
with its iteration isolated -- a location the iteration itself wrote, or
the pre-loop value, because no other iteration wrote it -- so every
iteration computes the same values, takes the same branches and raises
the same errors.  Marks that validate thus *are* the isolated run's
marks, and the in-order merge of the chunks is the in-order merge of the
iterations.  The marks count the traced accesses as the isolated run
does, so a commit reports the same document.

Soundness of commit: if the marks show no cross-iteration flow
dependence, every iteration's expose-reads saw pre-loop values in the
sequential execution too, so by induction over iterations each computes
the same writes as the sequential run, and the iteration-ordered merge
reconstructs exactly the sequential final memory.  The differential
equivalence suite holds this backend to that claim on every case.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from ... import profiling as _profiling
from ...ir.interp import Machine, MarkConflict, _Frame, copy_arrays
from ..speculation import lrpd_marks
from .base import (
    BackendRun,
    ExecutionBackend,
    LoopTask,
    default_jobs,
    execute_marked_chunk,
    execute_positions,
    last_scalars,
    merge_outcomes,
)
from .chunking import ChunkSpec, plan_chunks
from .threads import map_chunks
from . import processes

__all__ = [
    "SpeculativeBackend",
    "apply_outcomes",
    "rollback",
    "sequential_execute",
]

#: Below this many iterations the optimistic run stays inline: thread
#: (let alone process) dispatch would cost more than the loop body.
INLINE_MAX_ITERS = 16

#: From this many iterations on, the optimistic run uses the persistent
#: process pool -- real parallelism for the loops speculation exists to
#: win, while the small programs of the fuzz corpus stay on threads.
PROCESS_MIN_ITERS = 64

#: the reference's unit: a chunk's iterations, each isolated, with marks
_isolated = partial(execute_positions, per_iteration_snapshot=False, record_exposed=True)


def apply_outcomes(
    working: dict, pre_arrays: dict, outcomes, decisions: dict
) -> list:
    """Apply speculative outcomes to *working* memory (it must start as
    a copy of *pre_arrays*), in iteration order, under the per-array
    merge rules -- the commit attempt.

    Returns the undo log: ``(array, location, pre_value)`` per location
    in first-touch order, O(writes) in size.
    """
    undo: list = []
    merge_outcomes(pre_arrays, outcomes, decisions, working, undo)
    return undo


def rollback(working: dict, undo: list) -> None:
    """Restore *working* from the undo log (reverse first-touch order):
    the O(writes) misspeculation recovery."""
    for arr, loc, value in reversed(undo):
        working[arr][loc - 1] = value


def sequential_execute(
    task: LoopTask, arrays: Optional[dict] = None
) -> tuple:
    """True in-order execution of the task's loop: every iteration
    observes all earlier iterations' writes and scalar updates.

    This is the rollback path's re-execution (and the in-order
    baseline ``bench/`` times).  Returns ``(final_arrays, final_scalars)``.
    *arrays* defaults to the task's pre-loop memory; the input mapping
    itself is never mutated.
    """
    loop = task.program.find_loop(task.label)
    if loop is None:
        raise ValueError(f"no loop labelled {task.label!r}")
    machine = Machine(
        task.program,
        params=task.params,
        arrays=task.pre_arrays if arrays is None else arrays,
    )
    frame = _Frame(dict(task.pre_scalars), dict(task.frame_arrays))
    machine.run_loop(loop, frame, task.iterations)
    return machine.arrays, frame.scalars


def judge_chunks(outcomes: list, exempt: frozenset) -> Optional[tuple]:
    """``(privatized arrays, traced accesses)`` of marked chunks that
    ran to their ends, in chunk order -- or ``None`` when one of them
    wrote a location another expose-read."""
    written: dict = {}
    exposed: dict = {}
    privatized = set()
    for out in outcomes:
        privatized.update(out.rewritten)
        writes = {a: locs for a, locs in out.writes.items() if a not in exempt}
        for arr, locs in writes.items():
            if not exposed.get(arr, set()).isdisjoint(locs):
                return None  # expose-read by an earlier chunk
            if not written.get(arr, set()).isdisjoint(locs):
                privatized.add(arr)
        for arr, locs in out.exposed.items():
            if not written.get(arr, set()).isdisjoint(locs):
                return None  # written by an earlier chunk
        for marks, mine in ((written, writes), (exposed, out.exposed)):
            for arr, locs in mine.items():
                marks.setdefault(arr, set()).update(locs)
    return privatized, sum(out.traced for out in outcomes)


class SpeculativeBackend(ExecutionBackend):
    name = "speculative"

    def execute(
        self,
        task: LoopTask,
        jobs: Optional[int] = None,
        chunk: Optional[ChunkSpec] = None,
    ) -> BackendRun:
        jobs = default_jobs(jobs)
        n = len(task.iterations)
        chunks = plan_chunks(n, jobs, chunk)
        if not chunks:
            return BackendRun(
                arrays=copy_arrays(task.pre_arrays), final_scalars={}, chunks=0,
                jobs=jobs, speculation=_document(True, (), (), 0),
            )
        route, workers = self._route(n, chunks, jobs)
        _profiling.count(f"backends.spec_route_{route}")
        try:
            outcomes = self._run(route, execute_marked_chunk, task, chunks, jobs, workers)
            judged = judge_chunks(outcomes, task.reductions)
        except MarkConflict:
            judged = None
        if judged is None:
            _profiling.count("backends.spec_rejudged")
            return self._reference(task, route, chunks, jobs, workers)
        _profiling.count("backends.spec_in_place")
        privatized, traced = judged
        return BackendRun(
            arrays=merge_outcomes(task.pre_arrays, outcomes, task.decisions),
            final_scalars=last_scalars(outcomes),
            chunks=len(chunks),
            jobs=workers,
            speculation=_document(True, (), privatized, traced),
        )

    @staticmethod
    def _route(n: int, chunks: list, jobs: int) -> tuple:
        """(``"inline"`` | ``"thread"`` | ``"process"``, participating
        workers) of the marked run of *n* iterations in *chunks*."""
        if (
            n >= PROCESS_MIN_ITERS
            and len(chunks) > 1
            and processes.ProcessBackend.available()
        ):
            return "process", min(jobs, len(chunks))
        workers = 1 if n <= INLINE_MAX_ITERS else min(jobs, len(chunks))
        return ("inline" if workers == 1 else "thread"), workers

    @staticmethod
    def _run(route, unit, task, chunks, jobs, workers) -> list:
        """``unit(task, chunk)`` of every chunk, in chunk order, on *route*."""
        if route == "process":
            return processes.execute_chunks(task, chunks, jobs, unit)
        return map_chunks(lambda positions: unit(task, positions), chunks, workers)

    def _reference(self, task, route, chunks, jobs, workers) -> BackendRun:
        """The isolated per-iteration marked run, judged by
        :func:`lrpd_marks`: committed, or rolled back and re-executed
        in order."""
        outcomes = [
            o for result in self._run(route, _isolated, task, chunks, jobs, workers)
            for o in result
        ]
        verdict = lrpd_marks(
            ((o.position, o.writes, o.exposed) for o in outcomes),
            privatize=True,
            skip=task.reductions,
        )
        working = copy_arrays(task.pre_arrays)
        undo = apply_outcomes(working, task.pre_arrays, outcomes, task.decisions)
        if verdict.success:
            arrays, final_scalars = working, last_scalars(outcomes)
        else:
            rollback(working, undo)
            arrays, final_scalars = sequential_execute(task, arrays=working)
        return BackendRun(
            arrays=arrays,
            final_scalars=final_scalars,
            chunks=len(chunks),
            jobs=workers,
            # a failed verdict privatizes nothing, a passed one has no conflicts
            speculation=_document(
                verdict.success, verdict.conflicts, verdict.privatized,
                verdict.traced_accesses,
            ),
        )


def _document(committed, conflicts, privatized, traced) -> dict:
    return {
        "committed": bool(committed),
        "conflicts": sorted(conflicts),
        "privatized": sorted(privatized),
        "rollbacks": int(not committed),
        "traced_accesses": int(traced),
    }

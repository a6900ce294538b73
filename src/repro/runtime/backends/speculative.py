"""The speculative (LRPD) backend: optimistic execution with rollback.

The paper's final fallback: when no predicate of the cascade could
validate a loop, run it optimistically in parallel anyway, *mark* every
array access made along the way, and let the LRPD test judge the
markings afterwards.  This module is that fallback as a real execution
backend:

1. **optimistic run** -- chunks of the iteration space execute in
   parallel, every iteration isolated by undoing its writes
   (:func:`~repro.runtime.backends.base.execute_positions` with
   ``record_exposed=True``; LRPD marks are per iteration by definition,
   so this run keeps one outcome an iteration where ``thread`` and
   ``process`` keep one a chunk): written locations and expose-read
   locations per array.  Large iteration spaces go to the persistent
   process pool (real, GIL-free parallelism); small ones stay on the
   kept thread pool or inline, where pool overhead would dominate;
2. **commit attempt** -- the outcomes are applied to a working copy of
   memory in iteration order under the usual per-array merge rules,
   with an undo log recording each location's pre-value on first touch
   (O(writes) state);
3. **validation** -- :func:`~repro.runtime.speculation.lrpd_marks`
   analyzes the marks.  Arrays the runtime already licensed as
   reductions are exempt (their delta-merge is valid regardless of
   overlap); for everything else a location written by one iteration
   and expose-read by another is a flow dependence and aborts;
4. **commit or rollback** -- on success the applied memory stands
   (write-write-only arrays are the privatized set, merged with last
   value).  On conflict the undo log restores the byte-identical
   pre-loop memory and the loop re-executes sequentially *in order*
   (:func:`sequential_execute`) -- the misspeculation penalty the
   paper's TLS numbers charge.

Soundness of commit: if the marks show no cross-iteration flow
dependence, every iteration's expose-reads saw pre-loop values in the
sequential execution too, so by induction over iterations each computes
the same writes as the sequential run, and the iteration-ordered merge
reconstructs exactly the sequential final memory.  The differential
equivalence suite holds this backend to that claim on every case.
"""

from __future__ import annotations

from typing import Optional

from ...ir.interp import Machine, _Frame, copy_arrays
from ..speculation import lrpd_marks
from .base import (
    BackendRun,
    ExecutionBackend,
    LoopTask,
    default_jobs,
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
        outcomes, workers = (
            self._optimistic_run(task, chunks, jobs, n) if chunks else ([], jobs)
        )

        # Licensed reductions are exempt from validation: their
        # delta-merge is sound however iterations overlap, so marking
        # them would only manufacture false conflicts.
        exempt = frozenset(
            arr for arr, s in task.decisions.items() if s == "reduction"
        )
        verdict = lrpd_marks(
            ((o.position, o.writes, o.exposed) for o in outcomes),
            privatize=True,
            skip=exempt,
        )

        working = copy_arrays(task.pre_arrays)
        undo = apply_outcomes(working, task.pre_arrays, outcomes,
                              task.decisions)
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
            speculation={
                "committed": bool(verdict.success),
                "conflicts": sorted(verdict.conflicts),
                "privatized": sorted(verdict.privatized),
                "rollbacks": int(not verdict.success),
                "traced_accesses": int(verdict.traced_accesses),
            },
        )

    def _optimistic_run(
        self, task: LoopTask, chunks: list, jobs: int, n: int
    ) -> tuple:
        """(outcomes, participating workers) of the marked parallel run."""
        if (
            n >= PROCESS_MIN_ITERS
            and len(chunks) > 1
            and processes.ProcessBackend.available()
        ):
            outcomes = processes.execute_chunks(task, chunks, jobs, marked=True)
            return outcomes, min(jobs, len(chunks))

        def run_chunk(positions):
            return execute_positions(
                task, positions, per_iteration_snapshot=False, record_exposed=True
            )

        workers = 1 if n <= INLINE_MAX_ITERS else min(jobs, len(chunks))
        chunk_outcomes = map_chunks(run_chunk, chunks, workers)
        return [o for result in chunk_outcomes for o in result], workers


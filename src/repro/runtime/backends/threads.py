"""The thread-pool backend.

Chunks of the iteration space are executed by a pool of threads, each
worker running its chunk through the shared undo-log machinery
(:func:`~repro.runtime.backends.base.execute_positions` in chunked
mode): one flat copy of the pre-loop memory per chunk (made by the
chunk's own :class:`~repro.ir.interp.Machine`), O(writes) restore
between iterations, and one more copy as the merge target -- chunks + 1
O(memory) copies a run.  Workers share the read-only pre-state, so the
only cross-thread traffic is the immutable task and the returned
outcomes -- safe under the package's GIL-guarded conventions.

On CPython the interpreter work itself serializes on the GIL; the
backend still wins wall-clock over the reference backend because the
chunked undo-log execution does asymptotically less copying, and it
wins real parallel speedups on GIL-free builds.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from ...ir.interp import copy_arrays
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

__all__ = ["ThreadBackend"]


class ThreadBackend(ExecutionBackend):
    name = "thread"

    def execute(
        self,
        task: LoopTask,
        jobs: Optional[int] = None,
        chunk: Optional[ChunkSpec] = None,
    ) -> BackendRun:
        jobs = default_jobs(jobs)
        chunks = plan_chunks(len(task.iterations), jobs, chunk)
        if not chunks:
            return BackendRun(
                arrays=copy_arrays(task.pre_arrays),
                final_scalars={},
                chunks=0,
                jobs=jobs,
            )

        def run_chunk(positions):
            return execute_positions(task, positions, per_iteration_snapshot=False)

        workers = min(jobs, len(chunks))
        if workers == 1:
            chunk_outcomes = [run_chunk(c) for c in chunks]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                chunk_outcomes = list(pool.map(run_chunk, chunks))
        outcomes = [o for chunk_result in chunk_outcomes for o in chunk_result]
        return BackendRun(
            arrays=merge_outcomes(task.pre_arrays, outcomes, task.decisions),
            final_scalars=last_scalars(outcomes),
            chunks=len(chunks),
            jobs=workers,
        )

"""The sequential reference backend.

Runs every iteration in order, in-process, each against its own fresh
copy of the pre-loop memory (a flat per-array copy, so trips + 2
O(memory) copies a run: the machine's, one per iteration, the merge
target) -- a direct transliteration of what
:class:`~repro.runtime.executor.HybridExecutor` always did inline.  It
is deliberately the clearest (not the fastest) implementation: the
equivalence suite holds every other backend to this one's results, and
this one to the reference interpreter's.
"""

from __future__ import annotations

from typing import Optional

from .base import (
    BackendRun,
    ExecutionBackend,
    LoopTask,
    execute_positions,
    last_scalars,
    merge_outcomes,
)
from .chunking import ChunkSpec

__all__ = ["SequentialBackend"]


class SequentialBackend(ExecutionBackend):
    name = "sequential"

    def execute(
        self,
        task: LoopTask,
        jobs: Optional[int] = None,
        chunk: Optional[ChunkSpec] = None,
    ) -> BackendRun:
        outcomes = execute_positions(
            task, range(len(task.iterations)), per_iteration_snapshot=True
        )
        return BackendRun(
            arrays=merge_outcomes(task.pre_arrays, outcomes, task.decisions),
            final_scalars=last_scalars(outcomes),
            chunks=1,
            jobs=1,
        )

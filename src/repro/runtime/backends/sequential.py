"""The sequential reference backend.

Runs every iteration in order, in-process, each *isolated* on its own
fresh copy of the pre-loop memory (trips + 2 O(memory) copies a run:
the machine's, one per iteration, the merge target).  It is deliberately
the clearest (not the fastest) implementation: the equivalence suite
holds every other backend to this one's results, and this one to the
reference interpreter's.

Isolation for its own sake lives here and nowhere else (the speculative
backend's marked run isolates as a means to per-iteration marks).  It
is an oracle property, not a production one: under a wrong plan an
isolated iteration cannot see an earlier one's write, so the merged
memory differs from the in-order run's and the executor's (and the fuzz
oracle's) memory comparison sees the dependence the plan let through.
A chunk that runs in place would hide it, which is why this backend, not
a chunked one, is the default and the fuzz default.
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

"""Execution-backend contract and the shared iteration machinery.

A backend receives a :class:`LoopTask` -- the frozen state of one
validated parallel loop (pre-loop memory, the iteration list, CIV
prefix values, and the per-array merge strategies the runtime decided
on) -- and returns a :class:`BackendRun` holding the final merged
memory.  The contract every backend must meet, pinned by
``tests/integration/test_backend_equivalence.py``:

    *for any task, the merged memory is identical to the reference
    interpreter's sequential execution.*

Iteration semantics are the paper's conditional-parallelization model:
every iteration observes the pre-loop memory snapshot (plus its own
writes), and the per-array merge rules reconstruct the final state in
iteration order -- direct writes for shared arrays, iteration-ordered
write-back for privatized arrays (= dynamic last value), and delta
accumulation for reductions.

Array memory is ``name -> dense list of ints``, so every snapshot here
is :func:`~repro.ir.interp.copy_arrays`: one flat C-level copy per
array, O(memory) but with no Python-level work per element.
``task.pre_arrays`` itself is never written to.  Two execution modes
share :func:`execute_positions`:

* ``per_iteration_snapshot=True`` -- the reference mode: every
  iteration runs against its own fresh copy of the pre-loop memory
  (exactly what :class:`~repro.runtime.executor.HybridExecutor` always
  did): one O(memory) copy per iteration;
* ``per_iteration_snapshot=False`` -- the chunked production mode: the
  worker's :class:`~repro.ir.interp.Machine` copies the pre-state once
  per chunk and each iteration's writes are *undone* before the next
  one starts.  Restoring only the written locations is O(writes)
  instead of O(memory) per iteration, which is where the chunked
  backends' real speedup over the reference backend comes from.  Writes
  are the only mutations an iteration makes to array memory, so undo
  provably restores the exact pre-state.

:func:`merge_outcomes` makes one more copy, the memory it merges into
and returns.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ...ir.ast import Program
from ...ir.interp import IterationRecord, Machine, _Frame, copy_arrays
from .chunking import ChunkSpec

__all__ = [
    "LoopTask",
    "IterationOutcome",
    "BackendRun",
    "BackendUnsupported",
    "ExecutionBackend",
    "execute_positions",
    "merge_outcomes",
    "last_scalars",
    "default_jobs",
]


class BackendUnsupported(RuntimeError):
    """Raised when a backend cannot execute a task it was handed."""


@dataclass
class LoopTask:
    """Everything a backend needs to execute one validated loop."""

    program: Program
    #: label of the target loop (``program.find_loop(label)`` resolves it)
    label: str
    #: program parameters visible to the interpreter
    params: dict
    #: machine-level array memory at loop entry (read-only for backends)
    pre_arrays: dict
    #: frame scalars at loop entry
    pre_scalars: dict
    #: frame array bindings: name -> (base array, offset)
    frame_arrays: dict
    #: iteration values, in sequential order (DO index values, or 1..T
    #: for while loops)
    iterations: list
    #: CIV names, in plan order
    civ_names: tuple = ()
    #: CIV prefix values per iteration position (precomputed by CIV-COMP)
    civ_values: dict = field(default_factory=dict)
    #: DO index variable (None for while loops)
    index_name: Optional[str] = None
    #: array -> merge strategy ('shared' | 'private' | 'reduction')
    decisions: dict = field(default_factory=dict)


@dataclass
class IterationOutcome:
    """Plain-data result of one iteration (picklable across processes)."""

    #: position in the iteration order (the merge key)
    position: int
    #: the iteration value itself
    iteration: int
    #: array -> sorted written locations
    writes: dict
    #: array -> sorted reduction-updated locations
    updates: dict
    #: array -> {location: final value} for every written location
    values: dict
    #: frame scalars after the iteration body ran
    scalars: dict
    #: array -> sorted expose-read locations (read before any local
    #: write); only populated when the caller asked for them
    #: (``record_exposed``) -- the speculative backend's shadow marks
    exposed: dict = field(default_factory=dict)


@dataclass
class BackendRun:
    """What a backend hands back to the executor."""

    #: final merged array memory
    arrays: dict
    #: frame scalars of the last iteration (empty when no iterations ran)
    final_scalars: dict
    #: how many chunks the iteration space was carved into
    chunks: int
    #: how many workers actually participated
    jobs: int
    #: speculation outcome document (speculative backend only):
    #: ``{"committed": bool, "rollbacks": int, "privatized": [...],
    #: "traced_accesses": int, "conflicts": [...]}``
    speculation: Optional[dict] = None


def default_jobs(jobs: Optional[int]) -> int:
    if jobs is not None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1 (got {jobs})")
        return jobs
    return os.cpu_count() or 2


class ExecutionBackend:
    """One way of running a validated loop's iterations for real."""

    #: registry key (and the ExecuteRequest ``backend`` value)
    name = "abstract"

    @classmethod
    def available(cls) -> bool:
        """Can this backend run in the current environment?"""
        return True

    def supports(self, task: LoopTask) -> bool:
        """Can this backend execute *task*?  Backends with structural
        requirements (the vectorized backend) override this; the
        executor falls back to the sequential reference backend when it
        returns False."""
        return True

    def execute(
        self,
        task: LoopTask,
        jobs: Optional[int] = None,
        chunk: Optional[ChunkSpec] = None,
    ) -> BackendRun:
        raise NotImplementedError


# -- shared iteration machinery ----------------------------------------------


def execute_positions(
    task: LoopTask,
    positions: Sequence[int],
    per_iteration_snapshot: bool,
    record_exposed: bool = False,
) -> list:
    """Execute the given iteration *positions* of *task* in isolation.

    Returns one :class:`IterationOutcome` per position, in the order
    given.  See the module docstring for the two snapshot modes.
    """
    loop = task.program.find_loop(task.label)
    if loop is None:
        raise ValueError(f"no loop labelled {task.label!r}")
    pre_arrays = task.pre_arrays
    machine = Machine(task.program, params=task.params, arrays=pre_arrays)
    local = machine.arrays  # Machine copied pre_arrays into fresh lists
    outcomes = []
    for pos in positions:
        if per_iteration_snapshot:
            machine.arrays = local = copy_arrays(pre_arrays)
        iteration = task.iterations[pos]
        scalars = dict(task.pre_scalars)
        if task.index_name is not None:
            scalars[task.index_name] = iteration
        for name in task.civ_names:
            scalars[name] = task.civ_values[name][pos]
        record = IterationRecord(iteration=iteration)
        machine.run_iteration(loop.body, _Frame(scalars, task.frame_arrays), record)
        values = {
            arr: {loc: local[arr][loc - 1] for loc in locs}
            for arr, locs in record.writes.items()
        }
        outcomes.append(
            IterationOutcome(
                position=pos,
                iteration=iteration,
                writes={a: sorted(l) for a, l in record.writes.items()},
                updates={a: sorted(l) for a, l in record.updates.items()},
                values=values,
                scalars=scalars,
                exposed=(
                    {a: sorted(l) for a, l in record.exposed_reads.items()}
                    if record_exposed
                    else {}
                ),
            )
        )
        if not per_iteration_snapshot:
            # Undo this iteration's writes: O(writes) restore instead of
            # an O(memory) snapshot for the next iteration.
            for arr, locs in record.writes.items():
                source = pre_arrays[arr]
                target = local[arr]
                for loc in locs:
                    target[loc - 1] = source[loc - 1]
    return outcomes


def merge_outcomes(
    pre_arrays: dict, outcomes: Sequence[IterationOutcome], decisions: dict
) -> dict:
    """Reconstruct the final memory from per-iteration outcomes.

    Applies the per-array merge rules in iteration order -- identical to
    the rules the executor always applied, so any backend's merged
    memory is comparable against the sequential ground truth.
    """
    merged = copy_arrays(pre_arrays)
    for out in sorted(outcomes, key=lambda o: o.position):
        for arr, locs in out.writes.items():
            strategy = decisions.get(arr, "private")
            updates = out.updates.get(arr, ())
            update_set = set(updates)
            values = out.values[arr]
            for loc in locs:
                if strategy == "reduction" and loc in update_set:
                    merged[arr][loc - 1] += (
                        values[loc] - pre_arrays[arr][loc - 1]
                    )
                else:
                    merged[arr][loc - 1] = values[loc]
    return merged


def last_scalars(outcomes: Sequence[IterationOutcome]) -> dict:
    """Frame scalars of the sequentially-last iteration (dynamic last
    value for scalars), or empty when no iterations ran."""
    if not outcomes:
        return {}
    return dict(max(outcomes, key=lambda o: o.position).scalars)

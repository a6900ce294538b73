"""Execution-backend contract and the shared iteration machinery.

A backend receives a :class:`LoopTask` -- the frozen state of one
validated parallel loop (pre-loop memory, the iteration list, CIV
prefix values, and the per-array merge strategies the runtime decided
on) -- and returns a :class:`BackendRun` holding the final merged
memory.  The contract every backend must meet, pinned by
``tests/integration/test_backend_equivalence.py``:

    *for any task, the merged memory is identical to the reference
    interpreter's sequential execution.*

The model is the paper's conditional parallelization: a unit of work
observes the pre-loop memory plus its own writes, and the per-array
rules of :func:`merge_outcomes` rebuild the final state in order --
direct writes for shared arrays, ordered write-back for privatized
arrays (= dynamic last value), delta accumulation for reductions.

* :func:`execute_chunk` -- the production unit (``thread``,
  ``process``): a chunk's iterations run in order, in place, on the
  chunk's one copy of the pre-loop memory through the loop's generated
  loop unit and come back as **one** outcome -- a chunk is one iteration
  of the coarsened loop and the rules apply to it verbatim.  It is
  copied out by diffing the arrays the loop assigns against the pre-loop
  memory where that is exact and the cheaper way, else from an access
  record; :func:`_copy_out` is the one place that chooses, and
  docs/ARCHITECTURE.md ("Copying a chunk out") says why, once;
* :func:`execute_in_place` -- the ``thread`` backend's unit for a task
  whose loop assigns only ``shared`` arrays: the chunk runs the plain
  loop unit on the run's one target, which every chunk writes, and
  hands back only its scalars -- no outcome, no merge;
* :func:`execute_marked_chunk` -- the ``speculative`` backend's unit: a
  chunk as above, run through the *marking* variant of the loop unit,
  which stamps the LRPD shadow marks as it goes and raises
  :class:`~repro.ir.interp.MarkConflict` at the first access that makes
  one of the chunk's iterations depend on another.  One outcome, whose
  marks are the chunk's distinct written and expose-read locations;
* :func:`execute_positions` -- one outcome per *iteration*, each a chunk
  of one isolated from the rest, for the two callers that want that on
  purpose: the ``sequential`` reference backend (see its module for
  why) and the ``speculative`` backend's reference run, which judges a
  chunk whose marks conflict by the per-iteration LRPD marks.

Every snapshot is :func:`~repro.ir.interp.copy_arrays`, one flat C-level
copy per array.  ``task.pre_arrays`` itself is never written to, and a
second execute of a task returns what the first did
(``tests/property/test_shared_chunk_props.py`` holds every backend to
both): that is what lets the executor hand a backend the capture's
loop-entry snapshot and check each run against the loop's exit state,
and its arbiter hand one the re-run machine's live memory rather than a
snapshot of it.  A run's memory may share the lists of the arrays the
loop does not assign with ``task.pre_arrays`` (the ``thread`` backend's
in-place target does).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ... import profiling as _profiling
from ...ir.ast import Program
from ...ir.interp import (
    IterationRecord, Machine, Shadows, _Frame, changed_locations, copy_arrays,
    unit_bases,
)
from .chunking import ChunkSpec, plan_chunks

__all__ = [
    "LoopTask",
    "IterationOutcome",
    "BackendRun",
    "BackendUnsupported",
    "ExecutionBackend",
    "ChunkedBackend",
    "execute_chunk",
    "execute_in_place",
    "execute_marked_chunk",
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
    #: machine-level array memory at loop entry (read-only for backends:
    #: in the executor it is the capture's loop-entry snapshot, in its
    #: arbiter the suspended machine's own)
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
    #: statements these iterations executed in the in-order run, if known
    work: Optional[float] = None

    @property
    def reductions(self) -> frozenset:
        """The arrays merged as licensed reductions: their delta-merge
        holds however iterations overlap, so LRPD marks exempt them."""
        return frozenset(a for a, s in self.decisions.items() if s == "reduction")


@dataclass
class IterationOutcome:
    """Plain-data result of one iteration -- or of one chunk, which is
    one iteration of the coarsened loop (picklable across processes)."""

    #: position in the iteration order (the merge key; a chunk's last)
    position: int
    #: the iteration value at that position
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
    #: (``record_exposed``, or a marked chunk) -- the speculative
    #: backend's shadow marks
    exposed: dict = field(default_factory=dict)
    #: a marked chunk's: arrays a location of which two of its
    #: iterations wrote, and its traced-access count
    rewritten: tuple = ()
    traced: int = 0


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


def _execute_groups(
    task: LoopTask, groups, isolate=None, record_exposed=False, marked=False
) -> list:
    """One :class:`IterationOutcome` per group of positions, keyed by
    the group's last: a group runs in order, in place, through the
    loop's unit.  *isolate* starts every group from the pre-loop memory:
    a fresh copy of it (``"snapshot"``), or the one copy with the
    group's writes restored afterwards (``"undo"``; exact, writes being
    the only mutations).  Without it -- a chunk -- the group runs
    unrecorded where :func:`_copy_out` says ``"diff"`` and is copied
    out by diff;
    *marked*, under shadow marks, which are its write set but for the
    licensed reductions, copied out by diff."""
    loop = task.program.find_loop(task.label)
    if loop is None:
        raise ValueError(f"no loop labelled {task.label!r}")
    pre_arrays, iterations = task.pre_arrays, task.iterations
    machine = Machine(task.program, params=task.params, arrays=pre_arrays)
    local = machine.arrays  # Machine copied pre_arrays into fresh lists
    frame = _Frame(dict(task.pre_scalars), task.frame_arrays)
    outcomes = []
    for group in groups:
        if isolate == "snapshot":
            machine.arrays = local = copy_arrays(pre_arrays)
        last = group[-1]
        diffed = None
        if not (isolate or record_exposed or marked):  # a chunk
            route, arrays = _copy_out(task, loop, len(group))
            _profiling.count(f"backends.chunk_{route}")
            diffed = arrays if route == "diff" else None
        record = IterationRecord(iteration=iterations[last])
        if marked:
            exempt = task.reductions
            diffed = [arr for arr in local if arr in exempt]
            machine._shadows = shadows = Shadows(a for a in local if a not in exempt)
        _run_group(machine, loop, frame, task, group, record if diffed is None else None)
        if marked:
            for arr, stamps in shadows.arrays.items():
                written = [loc for loc, s in stamps.items() if s & Shadows.WRITTEN]
                exposed = [loc for loc, s in stamps.items() if s & 3 != Shadows.WRITTEN]
                if written:
                    record.writes[arr] = written
                if exposed:
                    record.exposed_reads[arr] = exposed
        for arr in diffed or ():
            locs = changed_locations(local[arr], pre_arrays[arr])
            record.writes[arr] = locs
            if task.decisions[arr] == "reduction":
                record.updates[arr] = locs
        outcomes.append(
            IterationOutcome(
                position=last,
                iteration=record.iteration,
                writes=_ordered(record.writes),
                updates=_ordered(record.updates),
                values={
                    arr: {loc: local[arr][loc - 1] for loc in locs}
                    for arr, locs in record.writes.items()
                },
                scalars=dict(frame.scalars),
                exposed=_ordered(record.exposed_reads) if record_exposed or marked else {},
                rewritten=tuple(sorted(shadows.rewritten)) if marked else (),
                traced=shadows.traced if marked else 0,
            )
        )
        if isolate == "undo":
            for arr, locs in record.writes.items():
                source, target = pre_arrays[arr], local[arr]
                for loc in locs:
                    target[loc - 1] = source[loc - 1]
    return outcomes


def _run_group(machine: Machine, loop, frame: _Frame, task: LoopTask, group, record) -> None:
    """Run the iterations at positions *group* of *task* in order
    through the loop's unit, under *record* (``None``: the plain unit)."""
    machine.run_loop(
        loop, frame, [task.iterations[pos] for pos in group], record,
        fresh=task.pre_scalars,  # every iteration starts from the entry scalars
        civs=[(name, iter([task.civ_values[name][pos] for pos in group]))
              for name in task.civ_names],
    )


def _ordered(marks: dict) -> dict:
    return {arr: sorted(locs) for arr, locs in marks.items()}


def _copy_out(task: LoopTask, loop, trips: int, in_place: bool = False) -> tuple:
    """How a chunk of *trips* iterations of *task* hands back what it
    wrote -- the one copy-out choice (docs/ARCHITECTURE.md, "Copying a
    chunk out") -- as ``(route, the base arrays the loop's unit assigns)``,
    the latter ``None`` where :func:`~repro.ir.interp.unit_bases` does
    not know them:

    * ``"in_place"``: *in_place* (the caller's chunks can share one
      target) and all those arrays are ``shared``, so no location one
      chunk writes is touched by another: the chunks write the target
      and nothing is copied out;
    * ``"diff"``: all are ``shared`` or ``reduction`` and hold at most
      16 elements per statement of the chunk's share of ``task.work``:
      diffing them against the pre-loop memory is exact and cheaper
      than a record;
    * ``"record"``: otherwise, and whenever the unit hands something
      back to the machine -- what it can write is then more than it
      assigns."""
    bases = unit_bases(task.program, loop, task.frame_arrays)
    strategies = {task.decisions.get(arr) for arr in bases or ()}
    if bases is None or not strategies <= {"shared", "reduction"}:
        return "record", bases
    if in_place and strategies <= {"shared"}:
        return "in_place", bases
    elements = sum(len(task.pre_arrays.get(arr, ())) for arr in bases)
    share = trips / max(len(task.iterations), 1)
    cheap = task.work is None or elements <= 16 * task.work * share
    return ("diff" if cheap else "record"), bases


def execute_chunk(task: LoopTask, positions: Sequence[int]) -> IterationOutcome:
    """Run the contiguous, non-empty *positions* of *task* in order and
    in place: one outcome for the whole chunk."""
    return _execute_groups(task, (positions,))[0]


def execute_in_place(task: LoopTask, positions: Sequence[int], target: dict) -> dict:
    """Run the contiguous, non-empty *positions* of *task* in order
    through the plain loop unit on *target* itself -- the one copy of
    the pre-loop memory that every chunk of the run writes, for a task
    :func:`_copy_out` sends ``"in_place"`` -- and return the frame
    scalars after the last.  Nothing is recorded, diffed or merged."""
    loop = task.program.find_loop(task.label)
    frame = _Frame(dict(task.pre_scalars), task.frame_arrays)
    _run_group(Machine.adopting(task.program, task.params, target), loop, frame,
               task, positions, None)
    return frame.scalars


def execute_marked_chunk(task: LoopTask, positions: Sequence[int]) -> IterationOutcome:
    """Run the contiguous, non-empty *positions* of *task* in order and
    in place under LRPD shadow marks: one outcome for the whole chunk,
    or :class:`~repro.ir.interp.MarkConflict` at the first access by
    which one of its iterations depends on another."""
    return _execute_groups(task, (positions,), marked=True)[0]


def execute_positions(
    task: LoopTask,
    positions: Sequence[int],
    per_iteration_snapshot: bool,
    record_exposed: bool = False,
) -> list:
    """Execute the given iteration *positions* of *task* in isolation --
    each a chunk of one, started from the pre-loop memory (a fresh copy
    of it with ``per_iteration_snapshot``, else an O(writes) undo).

    Returns one :class:`IterationOutcome` per position, in the order
    given.
    """
    return _execute_groups(
        task, ((pos,) for pos in positions),
        "snapshot" if per_iteration_snapshot else "undo", record_exposed,
    )


class ChunkedBackend(ExecutionBackend):
    """A pool backend whose unit is the chunk: carve the iteration
    space, have :meth:`run_chunks` produce one outcome a chunk, fold
    them in chunk order."""

    def run_chunks(self, task: LoopTask, chunks: list, jobs: int) -> list:
        raise NotImplementedError

    def execute(self, task, jobs=None, chunk=None) -> BackendRun:
        jobs = default_jobs(jobs)
        chunks = plan_chunks(len(task.iterations), jobs, chunk)
        outcomes = self.run_chunks(task, chunks, jobs) if chunks else []
        return BackendRun(
            arrays=merge_outcomes(task.pre_arrays, outcomes, task.decisions),
            final_scalars=last_scalars(outcomes),
            chunks=len(chunks),
            jobs=min(jobs, len(chunks)) or jobs,
        )


def merge_outcomes(
    pre_arrays: dict,
    outcomes: Sequence[IterationOutcome],
    decisions: dict,
    merged: Optional[dict] = None,
    undo: Optional[list] = None,
) -> dict:
    """Reconstruct the final memory from outcomes (one an iteration or
    one a chunk): the per-array merge rules, applied in position order
    to *merged* (default: a fresh copy of *pre_arrays*).  A list given
    as *undo* collects ``(array, location, value before)`` per location
    in first-touch order -- the speculative backend's rollback log.
    """
    if merged is None:
        merged = copy_arrays(pre_arrays)
    touched: set = set()
    for out in sorted(outcomes, key=lambda o: o.position):
        for arr, locs in out.writes.items():
            reduction = decisions.get(arr, "private") == "reduction"
            update_set = set(out.updates.get(arr, ())) if reduction else ()
            values, target, pre = out.values[arr], merged[arr], pre_arrays[arr]
            for loc in locs:
                if undo is not None and (arr, loc) not in touched:
                    touched.add((arr, loc))
                    undo.append((arr, loc, target[loc - 1]))
                if loc in update_set:
                    target[loc - 1] += values[loc] - pre[loc - 1]
                else:
                    target[loc - 1] = values[loc]
    return merged


def last_scalars(outcomes: Sequence[IterationOutcome]) -> dict:
    """Frame scalars of the sequentially-last iteration (dynamic last
    value for scalars), or empty when no iterations ran."""
    if not outcomes:
        return {}
    return dict(max(outcomes, key=lambda o: o.position).scalars)

"""The IR machine: runs programs as Python code generated from them.

It plays three roles in the reproduction:

1. **ground truth**: sequential execution defines the correct final
   memory state against which every parallelization is checked;
2. **dependence oracle**: with a *trace target*, it records each
   iteration's exposed reads and writes per array, from which true
   cross-iteration dependences are computed (the paper's authors had the
   actual machine for this);
3. **cost model**: every executed statement counts one unit of work, and
   per-loop iteration work is recorded so the simulated multiprocessor
   (:mod:`repro.runtime.scheduler`) can schedule iterations.

Nothing here walks a statement or an expression.  :mod:`repro.ir.lower`
writes each body (``Program.main``, a subroutine's), each labelled loop
and each expression the machine needs itself (array extents, labelled
loops' bounds and conditions, call arguments) as a Python function, in
one variant for when an iteration record is active, one for when LRPD
shadow marks are (:class:`Shadows`, the speculative backend's marked
chunk) and one for when neither is.  :meth:`Machine._code` compiles a variant the first time it is
*executed* -- never at analysis time -- and keeps it in
``Program._lowered``: the code lives as long as its program, and a
program is lowered once however many machines run it (a process worker
keeps the program it unpickled, see ``backends/processes.py``).  A
labelled loop's function -- its *loop unit* -- owns the iteration loop:
it binds arrays and scalars once and runs the body inline once per value
it is handed, so nothing is re-established per iteration.  What stays
here is what that code returns to: labelled loops (the ``loop_executor``
hook, tracing, work and trip counts), calls (argument binding) and the
seam the backends and the executor drive a loop through
(:meth:`Machine.iteration_values`, :meth:`Machine.run_loop`).

Arrays are dense Python lists indexed 1-based, Fortran style.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, count
from operator import ne
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .. import profiling as _profiling
from .ast import Call, Do, IRExpr, IRStmt, Program, While
from .lower import lower

__all__ = [
    "Machine", "IterationRecord", "LoopTrace", "RunResult", "InterpError",
    "MarkConflict", "Shadows", "copy_arrays", "changed_locations", "unit_assigns",
    "unit_bases",
]

_WHILE_FUEL = 10_000_000


class InterpError(RuntimeError):
    """Raised on runtime errors (unbound names, bad indexes...)."""


class MarkConflict(Exception):
    """Raised by marking code at the first access that makes one
    iteration of a marked run depend on another -- a read of a location
    another wrote, a write of one another expose-read -- before the
    value is read or the location written.  Its arguments are the base
    array and the location."""


class Shadows:
    """The LRPD shadow marks of one marked run, kept by the marking
    variant of the generated code (:mod:`repro.ir.lower`) while they
    are the machine's ``_shadows``."""

    __slots__ = ("arrays", "it", "rewritten", "traced")

    #: what a stamp's low bits say the last iteration to touch a location did
    READ, READ_BY_SEVERAL, WRITTEN, READ_THEN_WRITTEN = range(4)

    def __init__(self, arrays: Iterable[str]):
        #: base array -> {location: stamp}: the last iteration to touch
        #: it, times 4, plus what it did (``READ`` ... above; ``READ_BY_
        #: SEVERAL``: earlier iterations expose-read it too).  Arrays not
        #: named are exempt from marking.
        self.arrays: dict = {name: {} for name in arrays}
        #: stamp base of the iteration being marked: 4 times its ordinal
        #: (``None`` before the first)
        self.it: Optional[int] = None
        #: arrays a location of which two iterations wrote
        self.rewritten: set = set()
        #: every iteration's distinct written plus distinct expose-read
        #: locations of the marked arrays, summed
        self.traced = 0


def copy_arrays(arrays: Mapping[str, Sequence[int]]) -> dict[str, list[int]]:
    """A private snapshot of array memory: one flat C-level copy per
    array.  Memory is ``name -> dense list of ints``, so this is exact
    and O(elements) without a Python-level call per element."""
    return {name: list(values) for name, values in arrays.items()}


def changed_locations(new: Sequence[int], old: Sequence[int]) -> list[int]:
    """The 1-based locations at which two equally long arrays differ,
    ascending.  Where they do not -- a copy shares its elements with the
    original -- a block costs two slices and a list comparison, a few
    nanoseconds an element; only blocks that differ are looked into."""
    locations: list[int] = []
    for start in range(0, len(new), 512):
        ours, theirs = new[start:start + 512], old[start:start + 512]
        if ours != theirs:
            locations += compress(count(start + 1), map(ne, ours, theirs))
    return locations


@dataclass
class IterationRecord:
    """Memory behaviour of one iteration of the traced loop."""

    iteration: int
    #: locations written, per array
    writes: dict[str, set[int]] = field(default_factory=dict)
    #: locations read before any local write ("exposed" reads), per array
    exposed_reads: dict[str, set[int]] = field(default_factory=dict)
    #: locations whose first access is a reduction-style update, per array
    updates: dict[str, set[int]] = field(default_factory=dict)
    #: units of work executed by this iteration
    work: int = 0


@dataclass
class LoopTrace:
    """All iteration records of one execution of the traced loop."""

    label: str
    iterations: list[IterationRecord] = field(default_factory=list)

    def has_cross_iteration_dependence(self) -> bool:
        """True when some location is written by one iteration and touched
        (read or written) by a different one -- the loop is NOT fully
        independent."""
        writers: dict[tuple[str, int], int] = {}
        for rec in self.iterations:
            for arr, locs in rec.writes.items():
                for loc in locs:
                    key = (arr, loc)
                    if key in writers and writers[key] != rec.iteration:
                        return True
                    writers[key] = rec.iteration
        for rec in self.iterations:
            for arr, locs in rec.exposed_reads.items():
                for loc in locs:
                    owner = writers.get((arr, loc))
                    if owner is not None and owner != rec.iteration:
                        return True
        # Anti dependences: a read (even exposed) in iteration i of a
        # location written later is covered by the writers map above only
        # for flow order; check the symmetric direction too.
        readers: dict[tuple[str, int], set[int]] = {}
        for rec in self.iterations:
            for arr, locs in rec.exposed_reads.items():
                for loc in locs:
                    readers.setdefault((arr, loc), set()).add(rec.iteration)
        for key, owner in writers.items():
            for reader in readers.get(key, ()):
                if reader != owner:
                    return True
        return False

    def flow_independent(self) -> bool:
        """No location is written by one iteration and expose-read by
        another (in either order: covers flow and anti dependences)."""
        writers: dict[tuple[str, int], set[int]] = {}
        for rec in self.iterations:
            for arr, locs in rec.writes.items():
                for loc in locs:
                    writers.setdefault((arr, loc), set()).add(rec.iteration)
        for rec in self.iterations:
            for arr, locs in rec.exposed_reads.items():
                for loc in locs:
                    owners = writers.get((arr, loc), set())
                    if owners - {rec.iteration}:
                        return False
        return True

    def output_independent(self) -> bool:
        """No location is written by two different iterations."""
        writers: dict[tuple[str, int], int] = {}
        for rec in self.iterations:
            for arr, locs in rec.writes.items():
                for loc in locs:
                    key = (arr, loc)
                    if key in writers and writers[key] != rec.iteration:
                        return False
                    writers[key] = rec.iteration
        return True

    def total_work(self) -> int:
        return sum(rec.work for rec in self.iterations)


@dataclass
class RunResult:
    """Outcome of a program run: final memory, cost, optional trace."""

    scalars: dict[str, int]
    arrays: dict[str, list[int]]
    work: int
    trace: Optional[LoopTrace] = None
    loop_work: dict[str, int] = field(default_factory=dict)
    loop_trips: dict[str, int] = field(default_factory=dict)


class _Frame:
    """One activation: scalar bindings + array bindings (name, offset)."""

    __slots__ = ("scalars", "arrays")

    def __init__(
        self, scalars: dict[str, int], arrays: dict[str, tuple[str, int]]
    ):
        self.scalars = scalars
        self.arrays = arrays


class Machine:
    """Executes a program against concrete parameter/array inputs.

    The constructor owns its copy of memory: *arrays* (any mapping of
    name to a sequence of ints, possibly shorter than declared) is
    copied once into fresh zero-padded lists and never written to, so
    callers hand their data over as it is instead of pre-copying it.
    :meth:`adopting` is the one way to build a machine without that
    copy, and :meth:`run` hands the memory over instead of copying it
    back out.
    """

    def __init__(
        self,
        program: Program,
        params: Optional[Mapping[str, int]] = None,
        arrays: Optional[Mapping[str, Sequence[int]]] = None,
        trace_label: Optional[str] = None,
        loop_executor: Optional[Callable] = None,
        loop_executor_label: Optional[str] = None,
    ):
        self._start(program, params, trace_label, loop_executor, loop_executor_label)
        self.arrays: dict[str, list[int]] = {}
        for decl in program.arrays:
            size = self._eval(decl.size, _Frame(dict(self.params), {}))
            provided = arrays.get(decl.name) if arrays else None
            data = list(provided) if provided is not None else []
            if len(data) > max(size, 0):
                raise ValueError(
                    f"array {decl.name!r} is declared with extent {size} "
                    f"but {len(data)} values were supplied"
                )
            data.extend([0] * (size - len(data)))
            self.arrays[decl.name] = data

    @classmethod
    def adopting(
        cls, program: Program, params: Mapping[str, int], arrays: dict[str, list[int]]
    ) -> "Machine":
        """A machine that works on *arrays* themselves, not on a copy:
        memory already laid out as a machine lays it out (a copy of
        another machine's), whose lists take every write the machine
        makes.  The ``thread`` backend's in-place chunks share one such
        target."""
        machine = cls.__new__(cls)
        machine._start(program, params)
        machine.arrays = arrays
        return machine

    def _start(
        self,
        program: Program,
        params: Optional[Mapping[str, int]],
        trace_label: Optional[str] = None,
        loop_executor: Optional[Callable] = None,
        loop_executor_label: Optional[str] = None,
    ) -> None:
        """Everything but the memory."""
        #: optional hook: called as ``loop_executor(machine, stmt, frame)``
        #: instead of the built-in sequential execution when the loop with
        #: ``loop_executor_label`` is reached (the parallel runtime uses
        #: this to take over the target loop).
        self.loop_executor = loop_executor
        self.loop_executor_label = loop_executor_label
        self.program = program
        self.params = dict(params or {})
        self.work = 0
        self.loop_work: dict[str, int] = {}
        self.loop_trips: dict[str, int] = {}
        self.trace_label = trace_label
        self.trace: Optional[LoopTrace] = (
            LoopTrace(trace_label) if trace_label else None
        )
        self._active_record: Optional[IterationRecord] = None
        self._shadows: Optional[Shadows] = None

    # -- public API -------------------------------------------------------
    def run(self) -> RunResult:
        """Execute main to completion and hand the memory over: the
        result's ``arrays`` are the machine's own, not a copy, so the
        machine is done with once it has run."""
        frame = _Frame(dict(self.params), {name: (name, 0) for name in self.arrays})
        self._exec_body(self.program.main, frame)
        return RunResult(
            scalars=dict(frame.scalars),
            arrays=self.arrays,
            work=self.work,
            trace=self.trace,
            loop_work=dict(self.loop_work),
            loop_trips=dict(self.loop_trips),
        )

    def run_loop(
        self,
        loop: IRStmt,
        frame: _Frame,
        values: Iterable,
        record: Optional[IterationRecord] = None,
        fresh: Optional[dict] = None,
        costs: Optional[list] = None,
        civs: Sequence[tuple] = (),
    ):
        """Run labelled *loop*'s body in *frame* once per value of
        *values*, through its loop unit (:meth:`repro.ir.lower._Emitter.
        loop_unit` says what a value, *fresh*, *costs* and *civs* are),
        with *record* collecting the accesses and work of all of them
        (``None``: unrecorded); the previously active record is back in
        place afterwards, also on error.  Returns the last value run."""
        previous = self._active_record
        self._active_record = record
        try:
            return self._code(loop)(self, frame, values, fresh, costs, civs)
        finally:
            self._active_record = previous

    def trace_loop(self, loop, frame, values: Iterable, records: list, **watch) -> int:
        """:meth:`run_loop` one value at a time, each under a record of
        its own appended to *records*; returns how many there were."""
        trips = 0
        for trips, i in enumerate(values, 1):
            record = IterationRecord(iteration=i)
            self.run_loop(loop, frame, (i,), record, **watch)
            records.append(record)  # only once it ran to its end
        return trips

    def iteration_values(self, loop: IRStmt, frame: _Frame) -> Iterable[int]:
        """The iteration values of *loop* entered in *frame*, for
        :meth:`run_loop`: a DO loop's index values, or 1, 2, ... for as
        long as a while loop's condition holds in the frame (evaluated
        when the next value is asked for, so between bodies)."""
        if isinstance(loop, Do):
            lower = self._eval(loop.lower, frame)
            return range(lower, self._eval(loop.upper, frame) + 1)
        if isinstance(loop, While):
            return self._while_trips(loop, frame)
        raise TypeError(f"unsupported loop {loop!r}")

    def _while_trips(self, loop: While, frame: _Frame) -> Iterator[int]:
        trips = 0
        while self._eval(loop.cond, frame) != 0:
            trips += 1
            if trips > _WHILE_FUEL:
                raise InterpError(f"while loop {loop.label or ''} ran away")
            yield trips

    # -- generated code -----------------------------------------------------
    def _code(self, node: Union[tuple, IRStmt, IRExpr]) -> Callable:
        """The function generated for *node* (a statement tuple, a
        labelled loop or an expression; a loop's has ``assigns``, see
        :class:`~repro.ir.lower.Lowered`, as an attribute), in the
        variant for whether marks, else a record, are active;
        lowered on first use.  Threads racing to a first use may each
        lower it -- the results are interchangeable and the last one
        stored stays."""
        variant = _MARKING if self._shadows is not None else self._active_record is not None
        return _compiled(self.program, node, variant)

    def _exec_body(self, stmts: tuple[IRStmt, ...], frame: _Frame) -> None:
        self._code(stmts)(self, frame)

    def _eval(self, expr: IRExpr, frame: _Frame) -> int:
        return self._code(expr)(self, frame)

    def _exec_loop(self, stmt, frame: _Frame) -> None:
        label = stmt.label
        if (
            self.loop_executor is not None
            and label is not None
            and label == self.loop_executor_label
        ):
            self.loop_executor(self, stmt, frame)
            return
        tracing = (
            label is not None
            and label == self.trace_label
            and self.trace is not None
        )
        work_before = self.work
        values = self.iteration_values(stmt, frame)
        if tracing:
            trips = self.trace_loop(stmt, frame, values, self.trace.iterations)
        else:  # under whatever record is active
            last = self.run_loop(stmt, frame, values, self._active_record)
            trips = len(values) if isinstance(stmt, Do) else last or 0
        if label:
            self.loop_work[label] = (
                self.loop_work.get(label, 0) + self.work - work_before
            )
            self.loop_trips[label] = self.loop_trips.get(label, 0) + trips

    def _exec_call(self, stmt: Call, frame: _Frame) -> None:
        callee = self.program.subroutines.get(stmt.callee)
        if callee is None:
            raise InterpError(f"call to unknown subroutine {stmt.callee!r}")
        scalars: dict[str, int] = {}
        arrays: dict[str, tuple[str, int]] = {}
        scalar_iter = iter(callee.scalar_params)
        array_iter = iter(callee.array_params)
        for arg in stmt.args:
            if arg.is_array():
                try:
                    formal = next(array_iter)
                except StopIteration:
                    raise InterpError(
                        f"too many array arguments to {stmt.callee!r}"
                    ) from None
                base_name, base_off = frame.arrays[arg.array]
                extra = self._eval(arg.offset, frame) if arg.offset else 0
                arrays[formal] = (base_name, base_off + extra)
            else:
                try:
                    formal = next(scalar_iter)
                except StopIteration:
                    raise InterpError(
                        f"too many scalar arguments to {stmt.callee!r}"
                    ) from None
                scalars[formal] = self._eval(arg.scalar, frame)
        if next(scalar_iter, None) is not None or next(array_iter, None) is not None:
            raise InterpError(f"missing arguments in call to {stmt.callee!r}")
        # Globals (program params) remain visible inside subroutines.
        inner = dict(self.params)
        inner.update(scalars)
        self._exec_body(callee.body, _Frame(inner, arrays))


def _compiled(program: Program, node, variant) -> Callable:
    """The function generated for *node* of *program* in *variant*,
    kept in ``Program._lowered``; lowered on first use."""
    codes = program._lowered
    key = (id(node), variant)
    entry = codes.get(key)
    if entry is None:
        # the entry holds *node*, so its id cannot be reused meanwhile
        entry = codes[key] = (node, _generate(node, variant))
    return entry[1]


def unit_assigns(program: Program, loop: IRStmt) -> Optional[tuple]:
    """What labelled *loop*'s plain loop unit assigns, by frame name:
    all it can write -- or ``None`` when it hands something back to the
    machine and can write more (:class:`~repro.ir.lower.Lowered`)."""
    return _compiled(program, loop, False).assigns


def unit_bases(program: Program, loop: IRStmt, frame_arrays: Mapping) -> Optional[list]:
    """The base arrays labelled *loop*'s plain loop unit assigns, its
    :func:`unit_assigns` resolved through *frame_arrays* (name ->
    ``(base, offset)``) and in order, once each -- or ``None`` when what
    it can write is not known that way (it hands something back to the
    machine, or a name it assigns is not bound in the frame)."""
    assigns = unit_assigns(program, loop)
    if assigns is None or any(name not in frame_arrays for name in assigns):
        return None
    return list(dict.fromkeys(frame_arrays[name][0] for name in assigns))


# -- what the generated code calls -----------------------------------------------

def _unbound(machine: Machine, name: str) -> int:
    """The value of a scalar its frame does not hold: a program
    parameter's, or an error."""
    try:
        return machine.params[name]
    except KeyError:
        raise InterpError(f"unbound scalar {name!r}") from None


def _bad_access(machine: Machine, frame: _Frame, array: str, loc: int) -> None:
    """The error of an access that failed its bounds check."""
    try:
        name, _ = frame.arrays[array]
    except KeyError:
        raise InterpError(f"unbound array {array!r}") from None
    size = len(machine.arrays[name])
    raise InterpError(f"{name}[{loc}] out of bounds (size {size})")


#: the key of the marking variant in ``Program._lowered`` (beside
#: ``False`` and ``True``, whether a record is active)
_MARKING = "marking"

#: the globals of every generated function, beside its own ``K``
_GLOBALS = {
    "InterpError": InterpError,
    "Conflict": MarkConflict,
    "UNSET": object(),
    "NOBIND": (None, 0),
    "unbound": _unbound,
    "bad_access": _bad_access,
    "fuel": lambda: _WHILE_FUEL,
}


@_profiling.timed("ir.lower")
def _generate(node: Union[tuple, IRStmt, IRExpr], variant) -> Callable:
    """Lower *node* in *variant* (``_MARKING``, or whether it records)
    and compile the result: ``run(machine, frame)``, a labelled loop's
    with the values to run after them."""
    lowered = lower(node, variant is True, variant == _MARKING)
    namespace = dict(_GLOBALS, K=lowered.consts)
    exec(compile(lowered.source, "<lowered>", "exec"), namespace)
    run = namespace["run"]
    run.assigns = lowered.assigns
    return run

"""Reference interpreter for the loop IR.

The interpreter plays three roles in the reproduction:

1. **ground truth**: sequential execution defines the correct final
   memory state against which every parallelization is checked;
2. **dependence oracle**: with a *trace target*, it records each
   iteration's exposed reads and writes per array, from which true
   cross-iteration dependences are computed (the paper's authors had the
   actual machine for this);
3. **cost model**: every executed statement counts one unit of work, and
   per-loop iteration work is recorded so the simulated multiprocessor
   (:mod:`repro.runtime.scheduler`) can schedule iterations.

Arrays are dense Python lists indexed 1-based, Fortran style.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional, Sequence

from .ast import (
    ArrayRead,
    AssignArray,
    AssignScalar,
    BinOp,
    Call,
    Do,
    If,
    Intrinsic,
    IRExpr,
    IRStmt,
    Num,
    Program,
    Subroutine,
    UnaryOp,
    Var,
    While,
)

__all__ = [
    "Machine", "IterationRecord", "LoopTrace", "RunResult", "InterpError",
    "copy_arrays",
]

_WHILE_FUEL = 10_000_000


class InterpError(RuntimeError):
    """Raised on runtime errors (unbound names, bad indexes...)."""


def copy_arrays(arrays: Mapping[str, Sequence[int]]) -> dict[str, list[int]]:
    """A private snapshot of array memory: one flat C-level copy per
    array.  Memory is ``name -> dense list of ints``, so this is exact
    and O(elements) without a Python-level call per element."""
    return {name: list(values) for name, values in arrays.items()}


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
        self.arrays: dict[str, list[int]] = {}
        for decl in program.arrays:
            size = self._const_or_param(decl.size)
            provided = arrays.get(decl.name) if arrays else None
            data = list(provided) if provided is not None else []
            if len(data) < size:
                data.extend([0] * (size - len(data)))
            self.arrays[decl.name] = data

    def _const_or_param(self, expr: IRExpr) -> int:
        frame = _Frame(dict(self.params), {})
        return self._eval(expr, frame)

    # -- public API -------------------------------------------------------
    def run(self) -> RunResult:
        """Execute main to completion."""
        frame = _Frame(dict(self.params), {name: (name, 0) for name in self.arrays})
        self._exec_body(self.program.main, frame)
        return RunResult(
            scalars=dict(frame.scalars),
            arrays=copy_arrays(self.arrays),
            work=self.work,
            trace=self.trace,
            loop_work=dict(self.loop_work),
            loop_trips=dict(self.loop_trips),
        )

    def run_iteration(
        self,
        body: tuple[IRStmt, ...],
        frame: _Frame,
        record: Optional[IterationRecord],
    ) -> None:
        """Execute *body* once in *frame* with *record* collecting its
        accesses and work (``None``: unrecorded); the previously active
        record is back in place afterwards, also on error."""
        previous = self._active_record
        self._active_record = record
        try:
            self._exec_body(body, frame)
        finally:
            self._active_record = previous

    def iteration_values(self, loop: IRStmt, frame: _Frame) -> Iterator[int]:
        """The iteration values of *loop* entered in *frame*, one per
        trip, for a caller that runs the body between values: a DO
        loop's index values (bound in the frame before each is
        yielded), or 1, 2, ... for as long as a while loop's condition
        holds."""
        if isinstance(loop, Do):
            scalars, index = frame.scalars, loop.index
            lower = self._eval(loop.lower, frame)
            upper = self._eval(loop.upper, frame)
            for i in range(lower, upper + 1):
                scalars[index] = i
                yield i
        elif isinstance(loop, While):
            trips = 0
            while self._eval(loop.cond, frame) != 0:
                trips += 1
                if trips > _WHILE_FUEL:
                    raise InterpError(f"while loop {loop.label or ''} ran away")
                yield trips
        else:
            raise TypeError(f"unsupported loop {loop!r}")

    # -- execution ----------------------------------------------------------
    def _exec_body(self, stmts: tuple[IRStmt, ...], frame: _Frame) -> None:
        for stmt in stmts:
            self._exec(stmt, frame)

    def _exec(self, stmt: IRStmt, frame: _Frame) -> None:
        self.work += 1
        record = self._active_record
        if record is not None:
            record.work += 1
        try:
            handler = _EXEC[type(stmt)]
        except KeyError:
            raise InterpError(f"unknown statement {stmt!r}") from None
        handler(self, stmt, frame)

    def _exec_assign_scalar(self, stmt: AssignScalar, frame: _Frame) -> None:
        frame.scalars[stmt.name] = self._eval(stmt.expr, frame)

    def _exec_assign_array(self, stmt: AssignArray, frame: _Frame) -> None:
        index = self._eval(stmt.index, frame)
        # Evaluate RHS first: reads happen before the write.
        value = self._eval(stmt.expr, frame)
        self._store(stmt.array, index, value, frame, update=stmt.is_update)

    def _exec_if(self, stmt: If, frame: _Frame) -> None:
        if self._eval(stmt.cond, frame) != 0:
            self._exec_body(stmt.then_body, frame)
        else:
            self._exec_body(stmt.else_body, frame)

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
        trips = 0
        for i in self.iteration_values(stmt, frame):
            trips += 1
            if tracing:
                record = IterationRecord(iteration=i)
                self.run_iteration(stmt.body, frame, record)
                self.trace.iterations.append(record)
            else:
                self._exec_body(stmt.body, frame)
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

    # -- memory ----------------------------------------------------------------
    def _load(self, array: str, index: int, frame: _Frame) -> int:
        try:
            name, offset = frame.arrays[array]
        except KeyError:
            raise InterpError(f"unbound array {array!r}") from None
        loc = offset + index
        data = self.arrays[name]
        if not (1 <= loc <= len(data)):
            raise InterpError(f"{name}[{loc}] out of bounds (size {len(data)})")
        rec = self._active_record
        if rec is not None:
            written = rec.writes.get(name)
            if not written or loc not in written:
                rec.exposed_reads.setdefault(name, set()).add(loc)
        return data[loc - 1]

    def _store(
        self, array: str, index: int, value: int, frame: _Frame, update: bool
    ) -> None:
        try:
            name, offset = frame.arrays[array]
        except KeyError:
            raise InterpError(f"unbound array {array!r}") from None
        loc = offset + index
        data = self.arrays[name]
        if not (1 <= loc <= len(data)):
            raise InterpError(f"{name}[{loc}] out of bounds (size {len(data)})")
        rec = self._active_record
        if rec is not None:
            rec.writes.setdefault(name, set()).add(loc)
            if update:
                rec.updates.setdefault(name, set()).add(loc)
        data[loc - 1] = value

    # -- expressions --------------------------------------------------------------
    def _eval(self, expr: IRExpr, frame: _Frame) -> int:
        try:
            handler = _EVAL[type(expr)]
        except KeyError:
            raise InterpError(f"unknown expression {expr!r}") from None
        return handler(self, expr, frame)

    def _eval_num(self, expr: Num, frame: _Frame) -> int:
        return expr.value

    def _eval_var(self, expr: Var, frame: _Frame) -> int:
        if expr.name in frame.scalars:
            return frame.scalars[expr.name]
        if expr.name in self.params:
            return self.params[expr.name]
        raise InterpError(f"unbound scalar {expr.name!r}")

    def _eval_array_read(self, expr: ArrayRead, frame: _Frame) -> int:
        index = self._eval(expr.index, frame)
        return self._load(expr.array, index, frame)

    def _eval_binop(self, expr: BinOp, frame: _Frame) -> int:
        left = self._eval(expr.left, frame)
        op = expr.op
        apply = _BINOPS.get(op)
        if apply is not None:
            return apply(left, self._eval(expr.right, frame))
        # Not in the table: the short-circuit forms, whose right operand
        # runs only when the left one leaves the result open.
        if op == "and":
            return 1 if (left != 0 and self._eval(expr.right, frame) != 0) else 0
        if op == "or":
            return 1 if (left != 0 or self._eval(expr.right, frame) != 0) else 0
        self._eval(expr.right, frame)
        raise InterpError(f"unknown operator {op!r}")

    def _eval_unary(self, expr: UnaryOp, frame: _Frame) -> int:
        value = self._eval(expr.arg, frame)
        try:
            apply = _UNARY_OPS[expr.op]
        except KeyError:
            raise InterpError(f"unknown unary {expr.op!r}") from None
        return apply(value)

    def _eval_intrinsic(self, expr: Intrinsic, frame: _Frame) -> int:
        values = [self._eval(a, frame) for a in expr.args]
        try:
            apply = _INTRINSICS[expr.name]
        except KeyError:
            raise InterpError(f"unknown intrinsic {expr.name!r}") from None
        return apply(values)


def _floordiv(left: int, right: int) -> int:
    if right == 0:
        raise InterpError("division by zero")
    return left // right


def _mod(left: int, right: int) -> int:
    if right == 0:
        raise InterpError("modulo by zero")
    return left % right


#: eager binary operators (``and``/``or`` short-circuit in
#: :meth:`Machine._eval_binop`); comparisons produce 0/1, not bools
_BINOPS: dict[str, Callable[[int, int], int]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _floordiv,
    "%": _mod,
    "==": lambda left, right: 1 if left == right else 0,
    "!=": lambda left, right: 1 if left != right else 0,
    "<": lambda left, right: 1 if left < right else 0,
    "<=": lambda left, right: 1 if left <= right else 0,
    ">": lambda left, right: 1 if left > right else 0,
    ">=": lambda left, right: 1 if left >= right else 0,
}

_UNARY_OPS: dict[str, Callable[[int], int]] = {
    "-": operator.neg,
    "not": lambda value: 0 if value else 1,
}

_INTRINSICS: dict[str, Callable[[list], int]] = {"min": min, "max": max}

#: ``type(node) -> handler(machine, node, frame)``, one table per family;
#: a node type missing from its table is an "unknown statement/expression"
_EXEC: dict[type, Callable] = {
    AssignScalar: Machine._exec_assign_scalar,
    AssignArray: Machine._exec_assign_array,
    If: Machine._exec_if,
    Do: Machine._exec_loop,
    While: Machine._exec_loop,
    Call: Machine._exec_call,
}

_EVAL: dict[type, Callable] = {
    Num: Machine._eval_num,
    Var: Machine._eval_var,
    ArrayRead: Machine._eval_array_read,
    BinOp: Machine._eval_binop,
    UnaryOp: Machine._eval_unary,
    Intrinsic: Machine._eval_intrinsic,
}

"""A loop's generated unit does what entering its body once an
iteration did.

:class:`~repro.ir.interp.Machine` runs a labelled loop through one
generated function that owns the iteration loop (``ir/lower.py``'s loop
unit).  ``PerIterationMachine`` below is the path it replaced, kept here
only, as the reference: the loop lives in Python and every iteration is
one call of the body's own generated function, in a frame whose scalars
the caller prepared.  Over fuzz seeds and the regression corpus, for
every labelled loop of every program, both must agree on everything the
callers of ``run_loop`` read: final memory and scalars (the index after
zero trips and after the last one included), ``work``, ``loop_work`` and
``loop_trips``, the traced records, per-iteration costs, CIV prefixes,
the per-iteration restart of a chunk -- and, for a body that fails in
iteration *k*, the error's text and the memory and work left behind.
(``test_interp_dispatch_props.py`` holds both to the tree-walker.)
"""

from pathlib import Path

import pytest

from repro.fuzz import generate_case, load_corpus_case
from repro.ir import interp, parse_program
from repro.ir.ast import AssignScalar, Do, While
from repro.ir.interp import InterpError, IterationRecord, Machine, _Frame, copy_arrays

CORPUS = sorted(
    (Path(__file__).parent.parent / "regression" / "corpus").glob("*.json")
)
SEEDS = range(60)


class PerIterationMachine(Machine):
    """The machine before loop units: one body call an iteration."""

    def _bound_values(self, loop, frame):
        for i in self.iteration_values(loop, frame):
            if isinstance(loop, Do):
                frame.scalars[loop.index] = i
            yield i

    def _exec_loop(self, stmt, frame):
        if self.loop_executor is not None and stmt.label == self.loop_executor_label:
            self.loop_executor(self, stmt, frame)
            return
        tracing = stmt.label == self.trace_label and self.trace is not None
        work_before = self.work
        trips = 0
        for i in self._bound_values(stmt, frame):
            trips += 1
            if tracing:
                record = IterationRecord(iteration=i)
                previous, self._active_record = self._active_record, record
                try:
                    self._exec_body(stmt.body, frame)
                finally:
                    self._active_record = previous
                self.trace.iterations.append(record)
            else:
                self._exec_body(stmt.body, frame)
        self.loop_work[stmt.label] = (
            self.loop_work.get(stmt.label, 0) + self.work - work_before
        )
        self.loop_trips[stmt.label] = self.loop_trips.get(stmt.label, 0) + trips

    def run_loop(self, loop, frame, values, record=None, fresh=None, costs=None, civs=()):
        previous, self._active_record = self._active_record, record
        last = None
        try:
            for last in values:
                if fresh is not None:
                    frame.scalars = dict(fresh)
                    for name, prefix in civs:
                        frame.scalars[name] = next(prefix)
                if isinstance(loop, Do):
                    frame.scalars[loop.index] = last
                if costs is not None:
                    for name, prefix in civs:
                        prefix.append(frame.scalars.get(name, 0))
                    before = self.work
                self._exec_body(loop.body, frame)
                if costs is not None:
                    costs.append(float(self.work - before))
            return last
        finally:
            self._active_record = previous


def _state(machine, frame=None):
    return {
        "arrays": copy_arrays(machine.arrays),
        "scalars": None if frame is None else dict(frame.scalars),
        "work": machine.work,
        "loop_work": dict(machine.loop_work),
        "loop_trips": dict(machine.loop_trips),
        "trace": machine.trace.iterations if machine.trace is not None else None,
    }


def _whole_run(cls, program, params, arrays, trace_label=None, **hook):
    machine = cls(program, params=params, arrays=arrays, trace_label=trace_label, **hook)
    try:
        return {"error": None, "result": machine.run().scalars, **_state(machine)}
    except InterpError as exc:
        return {"error": str(exc), **_state(machine)}


def _entries(cls, program, params, arrays, label, drive):
    """What *drive* saw at every entry into loop *label* of a run on
    *cls* (it appends to the list it is handed, then lets the error of a
    failing body go on), with the run's own observation last."""
    seen = []
    seen.append(_whole_run(
        cls, program, params, arrays,
        loop_executor=lambda m, s, f: drive(m, s, f, seen), loop_executor_label=label,
    ))
    return seen


def _watched(machine, stmt, frame, seen):
    """The capture's call: in order, costs and the values of *every*
    scalar of the frame (as if each were a CIV) observed."""
    names = sorted(set(frame.scalars) | {"no_such_scalar"})
    costs, civs = [], tuple((name, []) for name in names)
    try:
        last = machine.run_loop(
            stmt, frame, machine.iteration_values(stmt, frame), None, None, costs, civs
        )
    finally:
        seen.append((costs, civs, _state(machine, frame)))
    seen.append(last)


def _assigns_scalars(stmts) -> bool:
    return any(
        isinstance(stmt, (AssignScalar, Do))
        or _assigns_scalars(getattr(stmt, "body", ()))
        or _assigns_scalars(getattr(stmt, "then_body", ()))
        or _assigns_scalars(getattr(stmt, "else_body", ()))
        for stmt in stmts
    )


def _restarted(machine, stmt, frame, seen):
    """The chunk's call, on the values the in-order run takes: every
    iteration from the entry scalars, two of them overridden per
    iteration as CIV prefixes are (a CIV is a scalar the body assigns:
    a body that assigns none has none), under one record and under none."""
    values = list(machine.iteration_values(stmt, frame)) if isinstance(stmt, Do) else [1, 2, 3]
    names = sorted(frame.scalars)[:2] if _assigns_scalars(stmt.body) else []
    for recorded in (True, False):
        trial = type(machine)(machine.program, params=machine.params, arrays=machine.arrays)
        inner = _Frame(dict(frame.scalars), frame.arrays)
        record = IterationRecord(0) if recorded else None
        civs = tuple((name, iter(range(k, k + len(values)))) for k, name in enumerate(names))
        try:
            error = None
            trial.run_loop(stmt, inner, values, record, dict(frame.scalars), None, civs)
        except InterpError as exc:
            error = str(exc)
        seen.append((error, record, _state(trial, inner)))
    # and the loop itself, so the run goes on as it would have
    machine.run_loop(stmt, frame, machine.iteration_values(stmt, frame))


def _assert_every_loop_agrees(program, params, arrays, trace_label):
    assert _whole_run(Machine, program, params, arrays, trace_label) == _whole_run(
        PerIterationMachine, program, params, arrays, trace_label
    )
    for label in program.labelled_loops():
        for drive in (_watched, _restarted):
            new = _entries(Machine, program, params, arrays, label, drive)
            assert new == _entries(PerIterationMachine, program, params, arrays, label, drive), (
                label, drive.__name__
            )


def test_fuzz_seeds():
    loops = 0
    for seed in SEEDS:
        case = generate_case(seed)
        loops += len(case.program.labelled_loops())
        _assert_every_loop_agrees(case.program, case.params, case.arrays, case.label)
    assert loops >= len(SEEDS)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_programs(path):
    case = load_corpus_case(path).to_case()
    _assert_every_loop_agrees(case.program, case.params, case.arrays, case.label)


# -- hand-built shapes ----------------------------------------------------------

SHAPES = {
    "nested_labels_calls_and_offsets": (
        "program p\nparam N\narray A(32), B(32)\n"
        "subroutine bump(X[], k)\n  do j = 1, k @ inner\n    X[j] = X[j] + k\n  end\nend\n"
        "main\n  s = 0\n  do i = 1, N @ outer\n    call bump(A[] + i, i)\n"
        "    do j = 1, i @ mid\n      B[j] = B[j] + A[j]\n      s = s + 1\n    end\n"
        "    t = s\n  end\n  B[32] = s + t + i + j\nend\n",
        {"N": 5},
    ),
    "zero_trips_leave_the_index_alone": (
        "program p\nparam N\narray A(4)\nmain\n  i = 7\n  do i = 3, N @ l\n"
        "    A[i] = i\n  end\n  A[1] = i\nend\n",
        {"N": 2},
    ),
    "the_index_keeps_its_last_value": (
        "program p\nparam N\narray A(8)\nmain\n  do i = 1, N @ l\n    A[i] = i\n"
        "    i = i + 10\n  end\n  A[8] = i\nend\n",
        {"N": 4},
    ),
    "while_with_civ": (
        "program p\nparam N\narray OUT(16)\nmain\n  k = 1\n  w = 0\n"
        "  while k <= N @ l\n    if k % 2 == 0 then\n      w = w + 1\n    end\n"
        "    OUT[w + 1] = k\n    k = k + 1\n  end\n  OUT[16] = k + w\nend\n",
        {"N": 9},
    ),
    "body_past_the_depth_limit": (
        "program p\nparam N\narray A(8)\nmain\n  do i = 1, N @ l\n"
        + "".join("  " * d + "    if i > 0 then\n" for d in range(14))
        + "  " * 14 + "    A[i] = i\n"
        + "".join("  " * d + "    end\n" for d in reversed(range(14)))
        + "  end\nend\n",
        {"N": 3},
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_hand_built_shapes(shape):
    source, params = SHAPES[shape]
    program = parse_program(source)
    _assert_every_loop_agrees(program, params, {}, program.labelled_loops()[0])
    assert _whole_run(Machine, program, params, {})["error"] is None


def test_index_after_zero_trips_and_after_the_last():
    for shape, expected in (("zero_trips_leave_the_index_alone", 7),
                            ("the_index_keeps_its_last_value", 14)):
        source, params = SHAPES[shape]
        assert _whole_run(Machine, parse_program(source), params, {})["result"]["i"] == expected


# -- a body that fails in iteration k ------------------------------------------------

FAILING = {
    "out_of_bounds": (
        "program p\nparam N\narray A(4)\nmain\n  do i = 1, N @ l\n    A[i] = i\n"
        "    A[i + 2] = A[i] + 1\n  end\nend\n",
        "A[5] out of bounds (size 4)",
    ),
    "unbound_scalar": (
        "program p\nparam N\narray A(8)\nmain\n  do i = 1, N @ l\n    A[i] = i\n"
        "    if i == 3 then\n      A[i] = ghost\n    end\n    if i == 2 then\n"
        "      late = 1\n    end\n  end\nend\n",
        "unbound scalar 'ghost'",
    ),
    "division_by_zero": (
        "program p\nparam N\narray A(8)\nmain\n  do i = 1, N @ l\n    A[i] = i\n"
        "    A[i + 1] = 12 / (3 - i)\n  end\nend\n",
        "division by zero",
    ),
    "while_fuel": (
        "program p\nparam N\narray A(8)\nmain\n  k = 0\n  while k < N @ l\n"
        "    A[1] = A[1] + 1\n  end\nend\n",
        "while loop l ran away",
    ),
    "inside_a_call_from_the_body": (
        "program p\nparam N\narray A(4)\nsubroutine poke(X[], k)\n  X[k] = k\nend\n"
        "main\n  do i = 1, N @ l\n    A[1] = A[1] + 1\n    call poke(A[], i + 2)\n  end\nend\n",
        "A[5] out of bounds (size 4)",
    ),
}


@pytest.mark.parametrize("shape", sorted(FAILING))
def test_a_failing_iteration_leaves_the_same_wreck(shape, monkeypatch):
    monkeypatch.setattr(interp, "_WHILE_FUEL", 5)
    source, message = FAILING[shape]
    program = parse_program(source)
    for trace_label in (None, "l"):
        new = _whole_run(Machine, program, {"N": 6}, {}, trace_label)
        assert new == _whole_run(PerIterationMachine, program, {"N": 6}, {}, trace_label)
        assert new["error"] == message and new["work"] > 2
        assert any(new["arrays"]["A"])  # the iterations before the failing one ran
    for drive in (_watched, _restarted):
        new = _entries(Machine, program, {"N": 6}, {}, "l", drive)
        assert new == _entries(PerIterationMachine, program, {"N": 6}, {}, "l", drive)
        assert new[-1]["error"] == message


def test_the_reference_enters_no_loop_unit(monkeypatch):
    """The comparison means something only while the reference shares no
    loop code with ``Machine``: it compiles units for bodies and
    expressions, never for a ``Do`` or a ``While``."""
    compiled = []
    code = Machine._code
    monkeypatch.setattr(
        Machine, "_code", lambda self, node: (compiled.append(type(node)), code(self, node))[1]
    )
    source, params = SHAPES["nested_labels_calls_and_offsets"]
    program = parse_program(source)
    _whole_run(PerIterationMachine, program, params, {}, "outer")
    _entries(PerIterationMachine, program, params, {}, "outer", _watched)
    assert compiled and not {Do, While} & set(compiled)
    _whole_run(Machine, program, params, {})
    assert Do in compiled

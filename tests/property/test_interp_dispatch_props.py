"""The machine's generated code does what the tree-walker it replaced did.

:class:`~repro.ir.interp.Machine` runs a program as Python functions
that :mod:`repro.ir.lower` writes from its bodies.  ``LadderMachine``
below is the execution core as it stood before any of that -- the
``isinstance`` ladders of ``_exec``/``_eval``, the string ``if``-chain of
``_apply_binop``, ``_resolve``-based memory access, separate DO and
while loops -- kept here only, as the reference: the one tree-walking
evaluator left in the repository.  It overrides every method ``Machine``
executes or evaluates with, so a reference run enters no generated code
(``test_the_reference_runs_none_of_the_machines_execution_core`` counts
that).  Both machines must agree on everything a run can be observed
by: final arrays and scalars, ``work``, ``loop_work``, ``loop_trips``,
every traced iteration's record (writes / exposed reads / updates /
work) and, when a run fails, the exact ``InterpError`` text and how far
the run got.

Mutation check: swapping two entries of the emitter's operator table
``lower.BINOP_SOURCE`` (``+``/``-``, or ``<``/``<=``) makes
``test_expressions_agree``, ``test_generated_programs_agree`` and at
least six more tests here fail; ``test_a_swapped_operator_is_caught``
keeps that sensitivity pinned.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fuzz import generate_case
from repro.ir import interp, lower, parse_program
from repro.ir.ast import (
    ARITH_OPS,
    BOOL_OPS,
    COMPARISONS,
    ArrayDecl,
    ArrayRead,
    AssignArray,
    AssignScalar,
    BinOp,
    Call,
    CallArg,
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
from repro.ir.interp import InterpError, IterationRecord, Machine

# -- the reference: the interpreter's execution core before the tables ----------


def _apply_binop(op, left, right):
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise InterpError("division by zero")
        return left // right
    if op == "%":
        if right == 0:
            raise InterpError("modulo by zero")
        return left % right
    if op == "==":
        return 1 if left == right else 0
    if op == "!=":
        return 1 if left != right else 0
    if op == "<":
        return 1 if left < right else 0
    if op == "<=":
        return 1 if left <= right else 0
    if op == ">":
        return 1 if left > right else 0
    if op == ">=":
        return 1 if left >= right else 0
    raise InterpError(f"unknown operator {op!r}")


class LadderMachine(Machine):
    def _exec_body(self, stmts, frame):
        for stmt in stmts:
            self._exec(stmt, frame)

    def _exec(self, stmt, frame):
        self.work += 1
        if self._active_record is not None:
            self._active_record.work += 1
        if isinstance(stmt, AssignScalar):
            frame.scalars[stmt.name] = self._eval(stmt.expr, frame)
            return
        if isinstance(stmt, AssignArray):
            index = self._eval(stmt.index, frame)
            value = self._eval(stmt.expr, frame)
            self._store(stmt.array, index, value, frame, update=stmt.is_update)
            return
        if isinstance(stmt, If):
            if self._eval(stmt.cond, frame) != 0:
                self._exec_body(stmt.then_body, frame)
            else:
                self._exec_body(stmt.else_body, frame)
            return
        if isinstance(stmt, Do):
            self._exec_do(stmt, frame)
            return
        if isinstance(stmt, While):
            self._exec_while(stmt, frame)
            return
        if isinstance(stmt, Call):
            self._exec_call(stmt, frame)
            return
        raise InterpError(f"unknown statement {stmt!r}")

    def _exec_do(self, stmt, frame):
        lower = self._eval(stmt.lower, frame)
        upper = self._eval(stmt.upper, frame)
        tracing = stmt.label is not None and stmt.label == self.trace_label
        work_before = self.work
        trips = max(0, upper - lower + 1)
        for i in range(lower, upper + 1):
            frame.scalars[stmt.index] = i
            if tracing and self.trace is not None:
                record = IterationRecord(iteration=i)
                prev = self._active_record
                self._active_record = record
                self._exec_body(stmt.body, frame)
                self._active_record = prev
                self.trace.iterations.append(record)
            else:
                self._exec_body(stmt.body, frame)
        if stmt.label:
            self.loop_work[stmt.label] = (
                self.loop_work.get(stmt.label, 0) + self.work - work_before
            )
            self.loop_trips[stmt.label] = self.loop_trips.get(stmt.label, 0) + trips

    def _exec_while(self, stmt, frame):
        tracing = stmt.label is not None and stmt.label == self.trace_label
        work_before = self.work
        trips = 0
        while self._eval(stmt.cond, frame) != 0:
            trips += 1
            if trips > interp._WHILE_FUEL:
                raise InterpError(f"while loop {stmt.label or ''} ran away")
            if tracing and self.trace is not None:
                record = IterationRecord(iteration=trips)
                prev = self._active_record
                self._active_record = record
                self._exec_body(stmt.body, frame)
                self._active_record = prev
                self.trace.iterations.append(record)
            else:
                self._exec_body(stmt.body, frame)
        if stmt.label:
            self.loop_work[stmt.label] = (
                self.loop_work.get(stmt.label, 0) + self.work - work_before
            )
            self.loop_trips[stmt.label] = self.loop_trips.get(stmt.label, 0) + trips

    def _resolve(self, array, index, frame):
        if array not in frame.arrays:
            raise InterpError(f"unbound array {array!r}")
        base_name, offset = frame.arrays[array]
        return base_name, offset + index

    def _load(self, array, index, frame):
        name, loc = self._resolve(array, index, frame)
        data = self.arrays[name]
        if not (1 <= loc <= len(data)):
            raise InterpError(f"{name}[{loc}] out of bounds (size {len(data)})")
        rec = self._active_record
        if rec is not None:
            written = rec.writes.get(name)
            if not written or loc not in written:
                rec.exposed_reads.setdefault(name, set()).add(loc)
        return data[loc - 1]

    def _store(self, array, index, value, frame, update):
        name, loc = self._resolve(array, index, frame)
        data = self.arrays[name]
        if not (1 <= loc <= len(data)):
            raise InterpError(f"{name}[{loc}] out of bounds (size {len(data)})")
        rec = self._active_record
        if rec is not None:
            rec.writes.setdefault(name, set()).add(loc)
            if update:
                rec.updates.setdefault(name, set()).add(loc)
        data[loc - 1] = value

    def _eval(self, expr, frame):
        if isinstance(expr, Num):
            return expr.value
        if isinstance(expr, Var):
            if expr.name in frame.scalars:
                return frame.scalars[expr.name]
            if expr.name in self.params:
                return self.params[expr.name]
            raise InterpError(f"unbound scalar {expr.name!r}")
        if isinstance(expr, ArrayRead):
            index = self._eval(expr.index, frame)
            return self._load(expr.array, index, frame)
        if isinstance(expr, BinOp):
            left = self._eval(expr.left, frame)
            if expr.op == "and":
                return 1 if (left != 0 and self._eval(expr.right, frame) != 0) else 0
            if expr.op == "or":
                return 1 if (left != 0 or self._eval(expr.right, frame) != 0) else 0
            right = self._eval(expr.right, frame)
            return _apply_binop(expr.op, left, right)
        if isinstance(expr, UnaryOp):
            value = self._eval(expr.arg, frame)
            if expr.op == "-":
                return -value
            if expr.op == "not":
                return 0 if value else 1
            raise InterpError(f"unknown unary {expr.op!r}")
        if isinstance(expr, Intrinsic):
            values = [self._eval(a, frame) for a in expr.args]
            if expr.name == "min":
                return min(values)
            if expr.name == "max":
                return max(values)
            raise InterpError(f"unknown intrinsic {expr.name!r}")
        raise InterpError(f"unknown expression {expr!r}")


# -- observing a run ------------------------------------------------------------


def observe(machine_cls, program, params=None, arrays=None, trace_label=None):
    """Everything a run of *program* on *machine_cls* can be told by.
    A failed run is observed too: the error, and the state it left."""
    try:
        machine = machine_cls(
            program, params=params, arrays=arrays, trace_label=trace_label
        )
    except InterpError as exc:
        return {"error": f"constructor: {exc}"}
    scalars = None
    try:
        error = None
        scalars = machine.run().scalars
    except InterpError as exc:
        error = str(exc)
    trace = machine.trace.iterations if machine.trace is not None else None
    return {
        "error": error,
        "scalars": scalars,
        "arrays": machine.arrays,
        "work": machine.work,
        "loop_work": machine.loop_work,
        "loop_trips": machine.loop_trips,
        "trace": trace,  # IterationRecord is a dataclass: == is field-wise
    }


def agree(program, **inputs):
    """Both machines observe the same run; returns the observation."""
    new = observe(Machine, program, **inputs)
    assert new == observe(LadderMachine, program, **inputs)
    return new


# -- the reference is independent ---------------------------------------------------


#: what ``Machine`` executes statements and evaluates expressions with
_MACHINE_CORE = ("_exec_body", "_eval", "_code")


@pytest.mark.parametrize("traced", ["outer", None])
def test_the_reference_runs_none_of_the_machines_execution_core(traced, monkeypatch):
    """``agree`` compares two implementations only while the reference
    shares no execution code with ``Machine``: every unit of work of a
    reference run is a call of ``LadderMachine._exec``, and whatever
    ``Machine`` executes and evaluates with is never entered (call
    counts, taken on a program with loops, calls and offsets)."""
    calls = {"ladder": 0, "machine": 0}

    def counted(key, method):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return method(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        LadderMachine, "_exec", counted("ladder", LadderMachine._exec)
    )
    for name in _MACHINE_CORE:
        monkeypatch.setattr(Machine, name, counted("machine", getattr(Machine, name)))
    program = parse_program(NESTED_AND_CALLS)
    inputs = dict(params={"N": 6}, arrays={"A": list(range(32))}, trace_label=traced)
    seen = observe(LadderMachine, program, **inputs)
    assert seen["error"] is None
    assert calls == {"ladder": seen["work"], "machine": 0}
    observe(Machine, program, **inputs)
    assert calls["machine"] > 0  # the counter does see the machine's own runs


# -- generated programs -----------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 50_000))
def test_generated_programs_agree(seed):
    case = generate_case(seed)
    seen = agree(
        case.program, params=case.params, arrays=case.arrays,
        trace_label=case.label,
    )
    assert seen["error"] is None and seen["trace"] is not None


# -- expressions: every operator, short-circuits, division by zero -----------------

_ENV = {"x": 7, "y": -3, "z": 0}


def _expressions():
    leaves = st.one_of(
        st.integers(-4, 9).map(Num),
        st.sampled_from(sorted(_ENV)).map(Var),
        st.integers(1, 4).map(lambda i: ArrayRead("A", Num(i))),
    )

    def extend(inner):
        return st.one_of(
            st.builds(
                BinOp, st.sampled_from(ARITH_OPS + COMPARISONS + BOOL_OPS),
                inner, inner,
            ),
            st.builds(UnaryOp, st.sampled_from(("-", "not")), inner),
            st.builds(
                Intrinsic, st.sampled_from(("min", "max")),
                st.lists(inner, min_size=1, max_size=3).map(tuple),
            ),
            inner.map(lambda index: ArrayRead("A", index)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(expr=_expressions())
def test_expressions_agree(expr):
    """One traced iteration storing the expression: value or error text,
    the reads it exposed (so also which operands a short-circuit
    skipped) and the work all match."""
    program = Program(
        arrays=(ArrayDecl("A", Num(4)), ArrayDecl("R", Num(1))),
        main=(Do("i", Num(1), Num(1), (AssignArray("R", Num(1), expr),), "t"),),
    )
    agree(program, params=_ENV, arrays={"A": [3, 0, -2, 5]}, trace_label="t")


def test_a_swapped_operator_is_caught(monkeypatch):
    source = "program p\narray R(2)\nmain\n  R[1] = 7 - 2\n  R[2] = 3 < 3\nend\n"
    agree(parse_program(source))
    for a, b in (("+", "-"), ("<", "<=")):
        swapped = {a: lower.BINOP_SOURCE[b], b: lower.BINOP_SOURCE[a]}
        with monkeypatch.context() as patch:
            for op, text in swapped.items():
                patch.setitem(lower.BINOP_SOURCE, op, text)
            with pytest.raises(AssertionError):
                agree(parse_program(source))  # a fresh program: nothing lowered yet


# -- hand cases: every InterpError, text for text ------------------------------------


class AlienExpr(IRExpr):
    def __repr__(self):
        return "<alien expr>"


class AlienStmt(IRStmt):
    def __repr__(self):
        return "<alien stmt>"


def _main(*stmts, subs=()):
    return Program(
        params=("N",),
        arrays=(ArrayDecl("A", Num(4)),),
        subroutines={sub.name: sub for sub in subs},
        main=tuple(stmts),
    )


_SUB = Subroutine("s", ("a",), ("X",), (AssignArray("X", Var("a"), Num(1)),))
_ONE = Num(1)

ERROR_CASES = [
    ("unbound scalar", _main(AssignScalar("r", Var("nope"))),
     "unbound scalar 'nope'"),
    ("unbound array read", _main(AssignScalar("r", ArrayRead("Z", _ONE))),
     "unbound array 'Z'"),
    ("unbound array write", _main(AssignArray("Z", _ONE, _ONE)),
     "unbound array 'Z'"),
    ("read out of bounds", _main(AssignScalar("r", ArrayRead("A", Num(5)))),
     "A[5] out of bounds (size 4)"),
    ("write out of bounds", _main(AssignArray("A", Num(0), _ONE)),
     "A[0] out of bounds (size 4)"),
    ("offset section out of bounds",
     _main(Call("s", (CallArg(scalar=Num(2)), CallArg(array="A", offset=Num(3)))),
           subs=(_SUB,)),
     "A[5] out of bounds (size 4)"),
    ("division by zero",
     _main(AssignArray("A", _ONE, _ONE), AssignScalar("r", BinOp("/", _ONE, Num(0)))),
     "division by zero"),
    ("modulo by zero", _main(AssignScalar("r", BinOp("%", _ONE, Var("z")))),
     "modulo by zero"),
    ("unknown subroutine", _main(Call("ghost", ())),
     "call to unknown subroutine 'ghost'"),
    ("too many scalar arguments",
     _main(Call("s", (CallArg(scalar=_ONE), CallArg(scalar=_ONE))), subs=(_SUB,)),
     "too many scalar arguments to 's'"),
    ("too many array arguments",
     _main(Call("s", (CallArg(array="A"), CallArg(array="A"))), subs=(_SUB,)),
     "too many array arguments to 's'"),
    ("missing arguments", _main(Call("s", (CallArg(scalar=_ONE),)), subs=(_SUB,)),
     "missing arguments in call to 's'"),
    ("foreign expression", _main(AssignScalar("r", BinOp("+", _ONE, AlienExpr()))),
     "unknown expression <alien expr>"),
    ("foreign statement", _main(AssignScalar("r", _ONE), AlienStmt()),
     "unknown statement <alien stmt>"),
    ("unknown operator", _main(AssignScalar("r", BinOp("**", _ONE, _ONE))),
     "unknown operator '**'"),
    ("unknown unary", _main(AssignScalar("r", UnaryOp("~", _ONE))),
     "unknown unary '~'"),
    ("unknown intrinsic", _main(AssignScalar("r", Intrinsic("abs", (_ONE,)))),
     "unknown intrinsic 'abs'"),
]


@pytest.mark.parametrize(
    "program, message",
    [case[1:] for case in ERROR_CASES],
    ids=[case[0] for case in ERROR_CASES],
)
def test_error_text_is_unchanged(program, message):
    seen = agree(program, params={"N": 4, "z": 0})
    assert seen["error"] == message


def test_unbound_parameter_in_an_array_size():
    program = Program(arrays=(ArrayDecl("A", Var("N")),))
    assert agree(program)["error"] == "constructor: unbound scalar 'N'"


def test_runaway_while(monkeypatch):
    monkeypatch.setattr(interp, "_WHILE_FUEL", 50)
    spin = While(BinOp("<", Num(0), _ONE), (AssignScalar("k", _ONE),), "spin")
    seen = agree(_main(spin), params={"N": 4}, trace_label="spin")
    assert seen["error"] == "while loop spin ran away"
    assert seen["work"] == 1 + 50 and len(seen["trace"]) == 50
    unlabelled = agree(_main(While(_ONE, ())), params={"N": 4})
    assert unlabelled["error"] == "while loop  ran away"


# -- hand cases: control flow the generator reaches rarely ------------------------------

NESTED_AND_CALLS = """
program p
param N
array A(32), B(32)

subroutine bump(k, X[])
  X[k] = X[k] + k
end

main
  s = 0
  do i = 1, N @ outer
    if (i % 2) == 0 and A[i] < 3 then
      A[i] = A[i] + 1
    else
      B[i] = min(A[i], i) - max(s, 0 - i)
    end
    do j = i, i + 1 @ inner
      call bump(j, A[])
      call bump(1, B[] + j)
    end
    s = s + (not (i == 3))
    while s > 2 @ drain
      s = s - 2
    end
  end
  do i = 5, 1 @ empty
    A[1] = 99
  end
end
"""


@pytest.mark.parametrize("traced", ["outer", "inner", "drain", "empty", None])
def test_nested_loops_calls_and_offsets_agree(traced):
    program = parse_program(NESTED_AND_CALLS)
    seen = agree(
        program, params={"N": 6}, arrays={"A": list(range(32))},
        trace_label=traced,
    )
    assert seen["error"] is None
    assert seen["loop_trips"] == {"outer": 6, "inner": 12, "drain": 2, "empty": 0}


# -- hand cases: what an emitter can get wrong and a tree-walker cannot --------------
#
# Each body runs as the one iteration of a labelled loop, traced (the
# recording variant of the generated code) and untraced (the plain one).

_FAR = ArrayRead("A", Num(99999))
_FAR_ERROR = "A[99999] out of bounds (size 4)"


def both_variants(*body, subs=(), **inputs):
    program = Program(
        params=("N",),
        arrays=(ArrayDecl("A", Num(4)), ArrayDecl("B", Num(4))),
        subroutines={sub.name: sub for sub in subs},
        main=(Do("i", _ONE, _ONE, tuple(body), "t"),),
    )
    inputs.setdefault("params", {"N": 4})
    inputs.setdefault("arrays", {"A": [3, 0, -2, 5]})
    traced = agree(program, trace_label="t", **inputs)
    untraced = agree(program, **inputs)
    assert traced["error"] == untraced["error"]
    assert traced["arrays"] == untraced["arrays"]
    return traced


@pytest.mark.parametrize("expr, message", [
    # only the right operand needs statements: the left one still runs first
    (BinOp("+", Var("u"), _FAR), "unbound scalar 'u'"),
    (BinOp("+", _FAR, Var("u")), _FAR_ERROR),
    (BinOp("<", Var("u"), _FAR), "unbound scalar 'u'"),
    (BinOp("/", Var("u"), Num(0)), "unbound scalar 'u'"),
    (BinOp("/", _ONE, BinOp("%", _ONE, Var("u"))), "unbound scalar 'u'"),
    (BinOp("%", _FAR, Num(0)), _FAR_ERROR),
    (BinOp("**", Var("u"), _FAR), "unbound scalar 'u'"),
    (BinOp("**", _ONE, _FAR), _FAR_ERROR),
    (Intrinsic("min", (_ONE, Var("u"), _FAR)), "unbound scalar 'u'"),
    (Intrinsic("abs", (Var("u"),)), "unbound scalar 'u'"),
    (UnaryOp("~", Var("u")), "unbound scalar 'u'"),
    (ArrayRead("B", BinOp("+", Var("u"), _FAR)), "unbound scalar 'u'"),
    (BinOp("and", Var("u"), _FAR), "unbound scalar 'u'"),
    (BinOp("or", BinOp("and", _ONE, _FAR), Var("u")), _FAR_ERROR),
])
def test_operands_run_left_to_right(expr, message):
    assert both_variants(AssignScalar("r", expr))["error"] == message
    assert both_variants(If(expr, (), ()))["error"] == message


@pytest.mark.parametrize("index, value, message", [
    (Var("u"), _FAR, "unbound scalar 'u'"),
    (Var("u"), Var("nope"), "unbound scalar 'u'"),
    (Num(0), Var("u"), "unbound scalar 'u'"),  # the value, then the bounds
    (Num(0), BinOp("/", _ONE, Num(0)), "division by zero"),
    (_FAR, Var("u"), _FAR_ERROR),
])
def test_a_store_evaluates_index_then_value_then_checks(index, value, message):
    assert both_variants(AssignArray("B", index, value))["error"] == message
    seen = both_variants(AssignArray("Z", index, value))  # unbound comes last too
    assert seen["error"] == message


@pytest.mark.parametrize("expr, value", [
    (BinOp("and", Num(0), _FAR), 0),
    (BinOp("or", _ONE, BinOp("/", _ONE, Num(0))), 1),
    (BinOp("or", _ONE, _FAR), 1),
    (BinOp("and", BinOp("or", Num(0), ArrayRead("A", Num(2))), _FAR), 0),
    (BinOp("or", Num(7), AlienExpr()), 1),
    (UnaryOp("not", BinOp("and", Num(0), Var("nope"))), 1),
])
def test_a_decided_short_circuit_runs_no_right_side(expr, value):
    seen = both_variants(AssignArray("B", _ONE, expr))
    assert seen["error"] is None and seen["arrays"]["B"][0] == value
    (record,) = seen["trace"]
    assert 99999 not in record.exposed_reads.get("A", ())
    as_condition = both_variants(
        If(expr, (AssignArray("B", _ONE, _ONE),), (AssignArray("B", _ONE, Num(0)),))
    )
    assert as_condition["arrays"]["B"][0] == value


def test_a_record_names_only_the_arrays_it_touched():
    seen = both_variants(
        If(BinOp("==", Var("i"), Num(2)),
           (AssignArray("A", _ONE, ArrayRead("B", _ONE)),),
           (AssignArray("B", Num(2), Num(5), is_update=True),)),
        AssignScalar("r", ArrayRead("B", Num(2))),  # its own write: not exposed
    )
    (record,) = seen["trace"]
    assert (record.writes, record.updates, record.exposed_reads) == (
        {"B": {2}}, {"B": {2}}, {}
    )


_INNER = Subroutine("inner", ("k",), ("Y",), (
    AssignArray("Y", Var("k"), BinOp("+", ArrayRead("Y", Var("k")), Num(10)),
                is_update=True),
))
_OUTER = Subroutine("outer", ("k",), ("X",), (
    Call("inner", (CallArg(scalar=Var("k")), CallArg(array="X", offset=_ONE))),
    AssignArray("X", _ONE, ArrayRead("X", Num(2))),
))


@pytest.mark.parametrize("k, error", [(1, None), (3, "A[5] out of bounds (size 4)")])
def test_offsets_add_up_two_calls_deep(k, error):
    seen = both_variants(
        Call("outer", (CallArg(scalar=Num(k)), CallArg(array="A", offset=_ONE))),
        subs=(_INNER, _OUTER),
    )
    assert seen["error"] == error
    if error is None:  # A[1+1+1] += 10, then A[1+1] = A[1+2]
        assert seen["arrays"]["A"] == [3, 8, 8, 5]
        assert seen["trace"][0].exposed_reads == {"A": {3}}


@pytest.mark.parametrize("cond", [
    _ONE,
    BinOp("<", ArrayRead("A", Num(2)), _ONE),  # needs statements in the loop
])
def test_runaway_while_inside_a_loop_body(cond, monkeypatch):
    monkeypatch.setattr(interp, "_WHILE_FUEL", 7)
    seen = both_variants(While(cond, (AssignScalar("k", _ONE),)))
    assert seen["error"] == "while loop  ran away"
    assert seen["work"] == 1 + 1 + 7
    labelled = both_variants(While(cond, (), "spin"))
    assert labelled["error"] == "while loop spin ran away"


def test_a_foreign_node_fails_when_it_runs_not_when_it_is_lowered():
    dormant = both_variants(
        If(Num(0), (AlienStmt(),), (AssignScalar("r", _ONE),)),
        AssignScalar("q", BinOp("and", Num(0), AlienExpr())),
    )
    assert dormant["error"] is None and dormant["work"] == 1 + 3
    reached = both_variants(AssignScalar("r", _ONE), If(_ONE, (AlienStmt(),)))
    assert reached["error"] == "unknown statement <alien stmt>"
    assert reached["work"] == 1 + 3  # the foreign statement was counted


def test_nesting_deeper_than_python_allows():
    """Blocks past the emitter's depth limit go back through the
    machine; expressions past its inline limit through temporaries."""
    body = (AssignArray("B", Var("j29"), BinOp("+", ArrayRead("B", Var("j29")), _ONE)),)
    for level in reversed(range(30)):
        loop = Do(f"j{level}", _ONE, Num(2 if level == 29 else 1), body)
        body = (If(_ONE, (loop,)),)
    expr = Var("i")
    for level in range(250):
        expr = BinOp("+", expr, Num(level))
    seen = both_variants(*body, AssignArray("B", Num(3), expr))
    assert seen["error"] is None
    assert seen["arrays"]["B"] == [1, 1, 1 + sum(range(250)), 0]
    assert seen["work"] == 1 + 2 * 30 + 2 + 1


SHARED_FRAME = """
program p
array A(8)
main
  s = 1
  do i = 1, 3 @ a
    s = s + i
  end
  A[1] = s + i
  do k = 1, 2
    do j = 1, 2 @ b
      s = s * 2
    end
    A[k + 1] = s + j
  end
end
"""


@pytest.mark.parametrize("traced", ["a", "b", None])
def test_scalars_set_by_a_labelled_loop_are_read_after_it(traced):
    """A labelled loop's body is its own function sharing the frame: the
    code around it must not go on with its own copies of the scalars."""
    seen = agree(parse_program(SHARED_FRAME), trace_label=traced)
    assert seen["error"] is None
    assert seen["arrays"]["A"][:3] == [7 + 3, 28 + 2, 112 + 2]

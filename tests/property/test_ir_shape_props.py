"""The IR's declared shape and the traversals built on it.

``ir/ast.py`` declares once which fields of each node class hold
sub-expressions (``OPERANDS``) and which hold nested bodies (``BODIES``);
``walk_stmts``, ``walk_exprs`` and ``rebuild`` read that declaration.
Over fuzz-generated programs and the paper's benchmark programs (which
add subroutines and calls): the statement walk agrees with a
hand-written reference, rebuilding reaches every operand the walk
reaches and the identity rebuild gives an equal program, and the
shrinker's literal pass replaces exactly the literal its enumeration
reported at each index.
"""

from dataclasses import replace

import pytest

from repro.fuzz import generate_case
from repro.fuzz.shrink import _num_sites, _replace_num
from repro.ir import parse_program
from repro.ir.ast import (
    ArrayRead,
    AssignArray,
    Call,
    CallArg,
    Do,
    If,
    Num,
    Var,
    While,
    rebuild,
    walk_exprs,
    walk_stmts,
)
from repro.workloads import ALL_BENCHMARKS

SEEDS = range(40)


def _programs():
    for seed in SEEDS:
        yield pytest.param(generate_case(seed).program, id=f"seed{seed}")
    for bench in ALL_BENCHMARKS:
        yield pytest.param(parse_program(bench.source), id=bench.name)


def _bodies(program):
    return [program.main] + [sub.body for sub in program.subroutines.values()]


def _reference_stmts(body):
    out = []
    for s in body:
        out.append(s)
        if isinstance(s, If):
            out += _reference_stmts(s.then_body) + _reference_stmts(s.else_body)
        elif isinstance(s, (Do, While)):
            out += _reference_stmts(s.body)
    return out


def _nums(body):
    return [
        e.value for s in walk_stmts(body) for e in walk_exprs(s)
        if isinstance(e, Num)
    ]


def _map_program(program, expr):
    def body(stmts):
        return tuple(rebuild(s, expr, body) for s in stmts)

    return replace(
        program,
        main=body(program.main),
        subroutines={
            name: replace(sub, body=body(sub.body))
            for name, sub in program.subroutines.items()
        },
    )


@pytest.mark.parametrize("program", _programs())
def test_statement_walk_matches_the_reference(program):
    for body in _bodies(program):
        assert list(walk_stmts(body)) == _reference_stmts(body)
    assert list(program.statements()) == [
        s for body in _bodies(program) for s in _reference_stmts(body)
    ]


@pytest.mark.parametrize("program", _programs())
def test_identity_rebuild_returns_an_equal_program(program):
    def identity(e):
        return rebuild(e, identity)

    assert _map_program(program, identity) == program


@pytest.mark.parametrize("program", _programs())
def test_rebuild_reaches_every_operand_the_walk_reaches(program):
    def bump(e):
        return Num(e.value + 1) if isinstance(e, Num) else rebuild(e, bump)

    bumped = _map_program(program, bump)
    for old, new in zip(_bodies(program), _bodies(bumped)):
        assert _nums(new) == [v + 1 for v in _nums(old)]


@pytest.mark.parametrize("seed", SEEDS)
def test_replacing_the_kth_literal_changes_the_enumerated_one(seed):
    main = generate_case(seed).program.main
    before = _nums(main)
    for k, value in _num_sites(main):
        assert before[k] == value > 1
        after = _nums(_replace_num(main, k, value - 1))
        assert after == before[:k] + [value - 1] + before[k + 1:]


def test_operands_come_in_field_order():
    store = AssignArray("A", ArrayRead("B", Var("i")), Num(7))
    assert list(walk_exprs(store)) == [ArrayRead("B", Var("i")), Var("i"), Num(7)]
    call = Call("sub", (
        CallArg(array="A", offset=Num(1)),
        CallArg(scalar=Var("n")),
        CallArg(array="B", offset=Var("k"), scalar=Num(2)),
    ))
    assert list(walk_exprs(call)) == [Num(1), Var("n"), Var("k"), Num(2)]
    # a statement's own operands only, not those of its nested bodies
    loop = Do("i", Num(1), Var("n"), (store,))
    assert list(walk_exprs(loop)) == [Num(1), Var("n")]

"""Degenerate loop shapes through every layer: zero-trip and
single-iteration DO loops, never-entered WHILE loops, and empty bodies
must analyze and execute without crashing (satellite of the fuzzing PR:
any generator-reachable degenerate shape gets an explicit test)."""

import copy

import pytest

from repro.api import default_engine
from repro.ir import Machine, parse_program
from repro.runtime import HybridExecutor


def _program(body, decls="param N\narray A(32), B(32)"):
    return parse_program(f"program t\n{decls}\n\nmain\n{body}\nend\nend\n")


def _execute(program, label="l", params=None, arrays=None, **kwargs):
    params = params or {"N": 0}
    arrays = arrays or {}
    plan = default_engine().compile(program).plan(label)
    executor = HybridExecutor(program, plan, **kwargs)
    return executor.run(params, copy.deepcopy(arrays))


class TestInterpreterDegenerate:
    def test_zero_trip_do_constant_bounds(self):
        prog = _program("do i = 5, 2 @ l\n  A[i] = 1\nend\n")
        result = Machine(prog, params={"N": 0}, trace_label="l").run()
        assert result.trace is not None
        assert result.trace.iterations == []
        assert result.loop_trips["l"] == 0
        assert all(v == 0 for v in result.arrays["A"])

    def test_zero_trip_do_param_bound(self):
        prog = _program("do i = 1, N @ l\n  A[i] = 1\nend\n")
        result = Machine(prog, params={"N": 0}, trace_label="l").run()
        assert result.trace.iterations == []
        assert result.loop_work["l"] == 0  # no body work was charged

    def test_single_iteration_do(self):
        prog = _program("do i = 1, N @ l\n  A[i] = i\nend\n")
        result = Machine(prog, params={"N": 1}, trace_label="l").run()
        assert len(result.trace.iterations) == 1
        assert result.arrays["A"][0] == 1
        trace = result.trace
        assert not trace.has_cross_iteration_dependence()

    def test_empty_body_do(self):
        prog = _program("do i = 1, N @ l\nend\n")
        result = Machine(prog, params={"N": 4}, trace_label="l").run()
        assert len(result.trace.iterations) == 4
        assert all(rec.work == 0 for rec in result.trace.iterations)

    def test_never_entered_while(self):
        prog = _program("x = 9\nwhile x < 3 @ l\n  x = x + 1\nend\n")
        result = Machine(prog, params={"N": 0}, trace_label="l").run()
        assert result.trace.iterations == []
        assert result.loop_trips["l"] == 0
        assert result.scalars["x"] == 9

    def test_single_trip_while(self):
        prog = _program("x = 0\nwhile x < 1 @ l\n  x = x + 1\nend\n")
        result = Machine(prog, params={"N": 0}, trace_label="l").run()
        assert len(result.trace.iterations) == 1
        assert result.scalars["x"] == 1


class TestExecutorDegenerate:
    def test_zero_trip_do_executes(self):
        prog = _program("do i = 1, N @ l\n  A[i] = B[i] + 1\nend\n")
        report = _execute(prog, params={"N": 0})
        assert report.correct
        assert report.seq_work == 0.0
        assert report.iteration_costs == []

    def test_zero_trip_constant_bounds_executes(self):
        prog = _program("do i = 5, 2 @ l\n  A[i] = 1\nend\n")
        report = _execute(prog, params={"N": 0})
        assert report.correct

    def test_single_iteration_do_executes(self):
        prog = _program("do i = 1, N @ l\n  A[i] = B[i] + 1\nend\n")
        report = _execute(prog, params={"N": 1}, arrays={"B": list(range(32))})
        assert report.correct
        assert len(report.iteration_costs) == 1

    def test_empty_body_do_executes(self):
        prog = _program("do i = 1, N @ l\nend\n")
        report = _execute(prog, params={"N": 3})
        assert report.correct

    def test_never_entered_while_executes(self):
        prog = _program("x = 9\nwhile x < 3 @ l\n  x = x + 1\nend\n")
        report = _execute(prog)
        assert report.correct
        assert report.seq_work == 0.0

    @pytest.mark.parametrize("strategy", ["inspector", "tls"])
    def test_zero_trip_with_runtime_tests(self, strategy):
        # K-offset subscripts force a cascade; it must evaluate cleanly
        # over an empty iteration space.
        prog = _program(
            "do i = 1, N @ l\n  A[K + i] = A[i] + 1\nend\n",
            decls="param N, K\narray A(64)",
        )
        report = _execute(
            prog, params={"N": 0, "K": 3}, exact_strategy=strategy
        )
        assert report.correct

    def test_degenerate_analysis_classifies(self):
        # Classification must not crash on empty bodies either.
        prog = _program("do i = 1, N @ l\nend\n")
        plan = default_engine().compile(prog).plan("l")
        assert plan.classification() == "STATIC-PAR"
        assert plan.arrays == {}

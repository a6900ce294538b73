"""Predicate code generation and placement (Section 5).

The paper's compiler emits the predicate cascade as real Fortran code:
the *loop slice* computing each predicate's inputs is extracted, every
leaf is placed at the *most dominated definition* (MDD) of its input
symbols, composition nodes at the common post-dominator, non-constant
predicates become parallel and/or-reductions, and the per-symbol
cascades are chained so "the first successful predicate disables the
evaluation of the rest".

Here only the loop bodies are generated code (:mod:`repro.ir.lower`);
the executor still evaluates cascades directly, so this module produces
the *plan* of their generated code -- an ordered, deduplicated test
schedule with slice and placement information -- both as a structured
object the executor's behaviour can be checked against and as printable
pseudo-code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..pdag import Cascade
from .analyzer import LoopPlan

__all__ = ["RuntimeTest", "TestSchedule", "generate_schedule", "format_schedule"]


@dataclass(frozen=True)
class RuntimeTest:
    """One emitted runtime test."""

    array: str
    #: 'flow' | 'output' | 'rred' | 'slv'
    kind: str
    #: cascade stage label, e.g. 'O(1)'
    complexity: str
    #: input symbols the test's slice must compute
    inputs: frozenset[str]
    #: evaluated as a parallel and/or-reduction (non-constant complexity)
    parallel_reduction: bool
    #: order rank within the schedule (lower runs earlier)
    rank: int


@dataclass
class TestSchedule:
    """The generated code's test plan for one loop."""

    label: str
    tests: list[RuntimeTest] = field(default_factory=list)
    #: names precomputed by loop slices before the tests run (CIV-COMP)
    precomputed: list[str] = field(default_factory=list)
    #: arrays whose bounds a BOUNDS-COMP pass must estimate first
    bounds_comp: list[str] = field(default_factory=list)
    #: arrays with an exact-test fallback after the cascade
    exact_fallback: list[str] = field(default_factory=list)

    def ordered_kinds(self) -> list[str]:
        return [t.complexity for t in self.tests]


_COMPLEXITY_RANK = {"O(1)": 0, "O(N)": 1}


def _rank(label: str) -> int:
    return _COMPLEXITY_RANK.get(label, 2)


def _tests_of(array: str, kind: str, cascade: Optional[Cascade]) -> list[tuple]:
    if cascade is None:
        return []
    out = []
    for stage in cascade.stages:
        out.append(
            (
                array,
                kind,
                stage.label,
                frozenset(stage.predicate.free_symbols()),
                stage.predicate.loop_depth() > 0,
            )
        )
    return out


def generate_schedule(plan: LoopPlan) -> TestSchedule:
    """Emit the Section 5 test schedule for a planned loop.

    Tests across all arrays are merged and ordered by estimated
    complexity (cheapest first), deduplicating stages that share the
    same predicate inputs at the same complexity for the same array.
    """
    schedule = TestSchedule(label=plan.label)
    raw: list[tuple] = []
    for array, aplan in plan.arrays.items():
        raw.extend(_tests_of(array, "flow", aplan.flow))
        raw.extend(_tests_of(array, "output", aplan.output))
        raw.extend(_tests_of(array, "rred", aplan.rred))
        raw.extend(_tests_of(array, "slv", aplan.slv))
        if aplan.needs_bounds_comp:
            schedule.bounds_comp.append(array)
        if aplan.needs_exact or aplan.exact_usr is not None:
            schedule.exact_fallback.append(array)
    raw.sort(key=lambda t: (_rank(t[2]), t[0], t[1]))
    seen = set()
    for rank, (array, kind, label, inputs, par) in enumerate(raw):
        key = (array, kind, label)
        if key in seen:
            continue
        seen.add(key)
        schedule.tests.append(
            RuntimeTest(
                array=array,
                kind=kind,
                complexity=label,
                inputs=inputs,
                parallel_reduction=par,
                rank=rank,
            )
        )
    for info in plan.civs:
        schedule.precomputed.append(info.prefix_array)
    if plan.is_while and plan.trip_symbol:
        schedule.precomputed.append(plan.trip_symbol)
    return schedule


def format_schedule(schedule: TestSchedule) -> str:
    """Render the schedule as the pseudo-code the compiler would emit."""
    lines = [f"! runtime tests for loop {schedule.label}"]
    for name in schedule.precomputed:
        lines.append(f"CALL precompute_slice({name})   ! CIV-COMP")
    for arr in schedule.bounds_comp:
        lines.append(f"CALL bounds_comp({arr})          ! MIN/MAX reduction")
    for test in schedule.tests:
        how = "DOALL and-reduce" if test.parallel_reduction else "scalar"
        inputs = ", ".join(sorted(test.inputs)) or "-"
        lines.append(
            f"IF (.NOT. done) done = test_{test.kind}_{test.array}"
            f"()  ! {test.complexity}, {how}; inputs: {inputs}"
        )
    for arr in schedule.exact_fallback:
        lines.append(f"IF (.NOT. done) CALL exact_test({arr})  ! inspector/TLS")
    lines.append("IF (done) run parallel ELSE run sequential")
    return "\n".join(lines)

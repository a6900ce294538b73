"""Property tests for the speculative execution backend.

Four claims, each checked over fuzz-generated programs and curated
shapes:

* **rollback is exact** -- applying speculative outcomes to a working
  copy and then undoing them from the log restores byte-identical
  pre-loop memory, whatever the loop did;
* **marks agree with the trace oracle** -- the LRPD verdict computed
  from the optimistic run's shadow marks matches the verdict computed
  from an in-order dependence trace of the same loop;
* **the outcome is schedule-independent** -- commit/rollback counts and
  the privatized set do not depend on the worker count or the chunk
  policy, because the marks derive from per-iteration outcomes alone.
* **the backend is the isolated reference** -- over an enumerated
  matrix of trip counts (both sides of every route threshold), loop
  shapes and schedules, and over the fuzz cases, the backend's memory,
  final scalars and speculation document -- or the error it raises --
  equal those of the per-iteration isolated marked run judged by
  ``lrpd_marks``.
"""

import copy

import pytest

from repro.api import Engine, EngineConfig
from repro.evaluation import profile
from repro.fuzz import generate_case
from repro.ir import Machine, parse_program
from repro.runtime.backends import ChunkSpec, LoopTask
from repro.runtime.backends.base import execute_positions, last_scalars
from repro.runtime.backends.speculative import (
    SpeculativeBackend, apply_outcomes, rollback, sequential_execute,
)
from repro.runtime.speculation import lrpd_marks, lrpd_test

#: Fuzz seeds used by the backend-level properties below.  A case only
#: qualifies when its target loop executes at least once (capture_task
#: refuses degenerate loops).
SEEDS = range(60)


def _capture(case):
    engine = Engine(EngineConfig(use_disk_cache=False))
    executor = engine.compile(case.program).executor(
        case.label, backend="speculative"
    )
    try:
        return executor.capture_task(case.params, case.arrays)
    except ValueError:
        return None  # loop never executed for these inputs


def _optimistic(task):
    return execute_positions(
        task,
        list(range(len(task.iterations))),
        per_iteration_snapshot=False,
        record_exposed=True,
    )


# -- rollback restores byte-identical memory ---------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_rollback_restores_pre_loop_memory(seed):
    task = _capture(generate_case(seed))
    if task is None:
        pytest.skip("target loop never executed")
    outcomes = _optimistic(task)
    pre_snapshot = copy.deepcopy(task.pre_arrays)
    working = {k: list(v) for k, v in task.pre_arrays.items()}
    undo = apply_outcomes(working, task.pre_arrays, outcomes, task.decisions)
    rollback(working, undo)
    assert working == pre_snapshot
    # the log never mutates the canonical pre-state either
    assert task.pre_arrays == pre_snapshot


# -- marks verdict agrees with the trace oracle ------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_marks_agree_with_trace_oracle(seed):
    case = generate_case(seed)
    task = _capture(case)
    if task is None:
        pytest.skip("target loop never executed")
    outcomes = _optimistic(task)
    marks = lrpd_marks(
        ((o.position, o.writes, o.exposed) for o in outcomes),
        privatize=True,
    )
    machine = Machine(
        case.program,
        params=case.params,
        arrays=copy.deepcopy(case.arrays),
        trace_label=case.label,
    )
    trace = machine.run().trace
    assert trace is not None
    oracle = lrpd_test(trace, privatize=True)
    assert marks.success == oracle.success, (
        f"seed {seed}: marks said success={marks.success}, trace oracle "
        f"said success={oracle.success}"
    )
    if marks.success:
        assert marks.privatized == oracle.privatized


# -- commit/rollback outcome is schedule-independent -------------------------

_SCHEDULES = (
    {"jobs": 1, "chunk": None},
    {"jobs": 2, "chunk": {"policy": "static", "size": None}},
    {"jobs": 4, "chunk": {"policy": "dynamic", "size": 3}},
    {"jobs": 4, "chunk": {"policy": "static", "size": 5}},
)

_COMMIT_SOURCE = """
program upd
param N, K
array H(K), IDX(N), V(N)

main
  do i = 1, N @ target
    H[IDX[i]] = V[i] + H[IDX[i]] * 2
  end
end
"""


def _spec_report(source, params, arrays, schedule):
    engine = Engine(EngineConfig(use_disk_cache=False))
    return engine.compile(source).execute(
        "target", params, arrays, backend="speculative", **schedule
    )


@pytest.mark.parametrize("conflicting", (False, True), ids=("commit", "rollback"))
def test_outcome_is_schedule_independent_curated(conflicting):
    if conflicting:
        idx = [((i * 3) % 8) + 1 for i in range(40)]
    else:
        idx = [((i * 7) % 40) + 1 for i in range(40)]
    arrays = {"IDX": idx, "V": [i % 9 for i in range(40)]}
    reports = [
        _spec_report(_COMMIT_SOURCE, {"N": 40, "K": 40}, arrays, schedule)
        for schedule in _SCHEDULES
    ]
    outcomes = {
        (
            r.speculation_commits,
            r.speculation_rollbacks,
            tuple(r.speculation_privatized),
            r.parallel,
            r.correct,
        )
        for r in reports
    }
    assert len(outcomes) == 1, f"schedule-dependent outcomes: {outcomes}"
    assert all(r.correct for r in reports)
    assert reports[0].speculation_rollbacks == (1 if conflicting else 0)


@pytest.mark.parametrize("seed", (23, 28, 37, 45))
def test_outcome_is_schedule_independent_on_gap_seeds(seed):
    """Precision-gap fuzz seeds: whatever the speculative verdict is, it
    must not depend on the schedule."""
    case = generate_case(seed)
    engine = Engine(EngineConfig(use_disk_cache=False))
    compiled = engine.compile(case.program)
    outcomes = set()
    for schedule in _SCHEDULES:
        report = compiled.execute(
            case.label, case.params, case.arrays,
            backend="speculative", **schedule,
        )
        assert report.correct
        outcomes.add(
            (
                report.speculation_commits,
                report.speculation_rollbacks,
                tuple(report.speculation_privatized),
                report.parallel,
            )
        )
    assert len(outcomes) == 1, f"seed {seed}: {outcomes}"


# -- the backend equals the isolated reference, enumerated --------------------
#
# Trip counts fall on both sides of INLINE_MAX_ITERS (16) and
# PROCESS_MIN_ITERS (64), so every route of the marked run is taken; the
# schedules put conflicts inside one chunk and between chunks.  The
# reference is the per-iteration isolated run the LRPD test is defined
# on: execute_positions' marks judged by lrpd_marks, applied, and rolled
# back into an in-order re-run on a conflict.

GATE_TRIPS = (1, 15, 16, 17, 63, 64, 65, 130)

GATE_SCHEDULES = {
    "jobs1": (1, None),
    "static2": (2, ChunkSpec("static")),
    "dynamic1": (2, ChunkSpec("dynamic", 1)),
    "dynamic3": (2, ChunkSpec("dynamic", 3)),
}


def _loop(arrays: str, body: str) -> str:
    return (
        f"program gate\nparam N\narray {arrays}\nmain\n"
        f"  do i = 1, N @ target\n{body}  end\nend\n"
    )


#: shape -> (source, arrays for trip count n, decisions)
GATE_SHAPES = {
    # every iteration its own cell of B
    "disjoint": (
        _loop("B(N), A(N), IDX(N)", "    B[IDX[i]] = A[i] * 2 + B[IDX[i]]\n"),
        lambda n: {"A": [k % 7 for k in range(n)], "IDX": list(range(n, 0, -1))},
        {"A": "private", "B": "private", "IDX": "private"},
    ),
    # T[1] written by every iteration, read only after its own write
    "write_write": (
        _loop("B(N), T(2), V(N)", "    T[1] = V[i] + i\n    B[i] = T[1] * 3\n"),
        lambda n: {"V": [k % 5 for k in range(n)]},
        {"B": "private", "T": "private", "V": "private"},
    ),
    # A[i + 1] read by i, written by i + 1
    "anti": (
        _loop("A(N + 1), B(N), V(N)", "    B[i] = A[i + 1]\n    A[i] = V[i]\n"),
        lambda n: {"A": [k + 3 for k in range(n + 1)], "V": [k % 4 for k in range(n)]},
        {"A": "private", "B": "private", "V": "private"},
    ),
    # A[i + 1] written by i, read by i + 1: inside a chunk unless it ends there
    "flow_in_chunk": (
        _loop("A(N + 1), V(N)", "    A[i + 1] = A[i] + V[i]\n"),
        lambda n: {"A": [2], "V": [k % 3 + 1 for k in range(n)]},
        {"A": "private", "V": "private"},
    ),
    # A[1] written by the first iteration, read by the last
    "flow_across": (
        _loop(
            "A(2), B(N), V(N)",
            "    if i == 1 then\n      A[1] = V[i] + 1\n    end\n"
            "    if i == N then\n      B[i] = A[1]\n    else\n      B[i] = V[i]\n"
            "    end\n",
        ),
        lambda n: {"A": [9, 9], "V": [k % 6 for k in range(n)]},
        {"A": "private", "B": "private", "V": "private"},
    ),
    # F[i] decides a branch and P[i] a subscript; both are written by
    # the iteration before: isolated, iteration 2 reads P's pre-loop
    # value and fails its bounds check; in order it does not
    "feeds_control": (
        _loop(
            "B(N + 1), P(N + 1), F(N + 1)",
            "    if F[i] > 0 then\n      B[i] = 1\n    end\n"
            "    B[P[i]] = i\n    P[i + 1] = 1\n    F[i + 1] = 1\n",
        ),
        lambda n: {"P": [1] + [n + 9] * n},
        {"B": "private", "P": "private", "F": "private"},
    ),
    # the upper half of the iterations write past B's end
    "out_of_bounds": (
        _loop("B(N), V(N)", "    B[i * 2] = V[i]\n"),
        lambda n: {"V": [k % 8 for k in range(n)]},
        {"B": "private", "V": "private"},
    ),
    # H is a licensed reduction: exempt from the marks, merged by delta
    "reduction": (
        _loop("H(4), IDX(N), V(N)", "    H[IDX[i]] = H[IDX[i]] + V[i]\n"),
        lambda n: {"H": [1, 2, 3, 4], "IDX": [k % 4 + 1 for k in range(n)],
                   "V": [k % 9 for k in range(n)]},
        {"H": "reduction", "IDX": "private", "V": "private"},
    ),
}


def gate_task(shape: str, n: int) -> LoopTask:
    """The task of *shape* at trip count *n*, built without a capture
    (the out-of-bounds shape cannot be run in order)."""
    source, arrays, decisions = GATE_SHAPES[shape]
    program = parse_program(source)
    params = {"N": n}
    pre = Machine(program, params=params, arrays=arrays(n)).arrays
    return LoopTask(
        program=program, label="target", params=params, pre_arrays=pre,
        pre_scalars=dict(params), frame_arrays={name: (name, 0) for name in pre},
        iterations=list(range(1, n + 1)), index_name="i",
        decisions=dict(decisions),
    )


def _outcome(run) -> tuple:
    """What a speculative run hands back, or the error it raised."""
    try:
        return ("ran",) + run()
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))


def reference_run(task: LoopTask) -> tuple:
    """(arrays, final scalars, speculation document) of the isolated
    per-iteration marked run, judged and committed or rolled back."""
    outcomes = _optimistic(task)
    exempt = frozenset(a for a, s in task.decisions.items() if s == "reduction")
    verdict = lrpd_marks(
        ((o.position, o.writes, o.exposed) for o in outcomes),
        privatize=True, skip=exempt,
    )
    working = {k: list(v) for k, v in task.pre_arrays.items()}
    undo = apply_outcomes(working, task.pre_arrays, outcomes, task.decisions)
    if verdict.success:
        arrays, scalars = working, last_scalars(outcomes)
    else:
        rollback(working, undo)
        arrays, scalars = sequential_execute(task, arrays=working)
    return arrays, scalars, {
        "committed": bool(verdict.success),
        "conflicts": sorted(verdict.conflicts),
        "privatized": sorted(verdict.privatized),
        "rollbacks": int(not verdict.success),
        "traced_accesses": int(verdict.traced_accesses),
    }


def backend_run(task: LoopTask, jobs: int, chunk) -> tuple:
    run = SpeculativeBackend().execute(task, jobs=jobs, chunk=chunk)
    return run.arrays, run.final_scalars, run.speculation


@pytest.mark.parametrize("schedule", GATE_SCHEDULES)
@pytest.mark.parametrize("shape", GATE_SHAPES)
@pytest.mark.parametrize("n", GATE_TRIPS)
def test_the_backend_equals_the_isolated_reference(n, shape, schedule):
    jobs, chunk = GATE_SCHEDULES[schedule]
    expected = _outcome(lambda: reference_run(gate_task(shape, n)))
    got = _outcome(lambda: backend_run(gate_task(shape, n), jobs, chunk))
    assert got == expected


def test_the_gate_matrix_covers_commits_rollbacks_and_errors():
    """The shapes do what their names say at the largest trip count."""
    kinds = {}
    for shape in GATE_SHAPES:
        result = _outcome(lambda: reference_run(gate_task(shape, 130)))
        kinds[shape] = result[0] if result[0] == "raised" else (
            "commit" if result[3]["committed"] else "rollback"
        )
    assert kinds == {
        "disjoint": "commit", "write_write": "commit", "anti": "rollback",
        "flow_in_chunk": "rollback", "flow_across": "rollback",
        "feeds_control": "raised", "out_of_bounds": "raised",
        "reduction": "commit",
    }


def test_the_gate_matrix_reaches_every_route():
    """A commit and a conflict at each route's trip counts, counted by
    the profiler: inline up to 16 iterations, the thread pool between,
    the process pool from 64."""
    with profile.profiling():
        for n in (15, 17, 64):
            for shape in ("disjoint", "anti"):
                backend_run(gate_task(shape, n), 2, ChunkSpec("static"))
    counts = profile.snapshot().counts
    assert {name: counts.get(f"backends.spec_{name}", 0) for name in (
        "route_inline", "route_thread", "route_process", "in_place", "rejudged",
    )} == {"route_inline": 2, "route_thread": 2, "route_process": 2,
           "in_place": 3, "rejudged": 3}


@pytest.mark.parametrize("schedule", GATE_SCHEDULES)
@pytest.mark.parametrize("seed", SEEDS)
def test_the_backend_equals_the_isolated_reference_on_fuzz_cases(seed, schedule):
    """The same, on the generated programs: calls, nested and labelled
    loops, while loops and CIVs reach the marked run here."""
    task = _capture(generate_case(seed))
    if task is None:
        pytest.skip("target loop never executed")
    task.decisions = {name: "private" for name in task.pre_arrays}
    jobs, chunk = GATE_SCHEDULES[schedule]
    expected = _outcome(lambda: reference_run(task))
    assert _outcome(lambda: backend_run(task, jobs, chunk)) == expected

"""Property tests for the speculative execution backend.

Three claims, each checked over fuzz-generated programs and curated
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
"""

import copy

import pytest

from repro.api import Engine, EngineConfig
from repro.fuzz import generate_case
from repro.ir import Machine
from repro.runtime.backends.base import execute_positions
from repro.runtime.backends.speculative import apply_outcomes, rollback
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

"""Unit tests for the simulated runtime: scheduler, speculation,
inspector, and the conditional-parallelization executor."""

import copy
import dataclasses
import pickle
import sys
import threading

import pytest

from repro.api import Engine, EngineConfig, default_engine
from repro.evaluation import profile
from repro.fuzz import generate_case, run_case
from repro.fuzz.oracle import classify_outcome
from repro.ir import parse_program
from repro.ir.interp import (
    InterpError,
    IterationRecord,
    LoopTrace,
    Machine,
    copy_arrays,
)
from repro.runtime import (
    ArrayDecision,
    CostModel,
    HybridExecutor,
    Inspector,
    evaluate_usr_cost,
    lrpd_test,
    schedule_parallel,
)
from repro.runtime.backends import BACKENDS, available_backends, plan_chunks
from repro.runtime.backends.base import (
    execute_chunk,
    execute_positions,
    merge_outcomes,
)
from repro.runtime.backends.speculative import sequential_execute


class TestScheduler:
    def test_single_proc(self):
        t = schedule_parallel([10, 10, 10, 10], 1, CostModel())
        assert t.time == 40 and t.spawn == 0

    def test_perfect_split(self):
        cost = CostModel(spawn_overhead=5)
        t = schedule_parallel([10] * 4, 4, cost)
        assert t.time == 15  # 10 + spawn

    def test_imbalance(self):
        cost = CostModel(spawn_overhead=0)
        t = schedule_parallel([100, 1, 1, 1], 2, cost)
        assert t.time == 101  # contiguous blocks: [100,1] | [1,1]

    def test_more_procs_than_iterations(self):
        cost = CostModel(spawn_overhead=0, bandwidth_knee=64)
        t = schedule_parallel([10, 10], 8, cost)
        assert t.time == 10

    def test_bandwidth_knee(self):
        cost = CostModel(spawn_overhead=0, bandwidth_knee=8,
                         bandwidth_efficiency=0.5)
        t8 = schedule_parallel([1.0] * 64, 8, cost)
        t16 = schedule_parallel([1.0] * 64, 16, cost)
        # 16 procs still helps but far from 2x over 8.
        assert t16.time < t8.time
        assert t16.time > t8.time / 2

    def test_empty(self):
        assert schedule_parallel([], 4, CostModel()).time == 0


def _trace(records):
    return LoopTrace("t", records)


class TestLRPD:
    def test_independent_passes(self):
        recs = [
            IterationRecord(1, writes={"A": {1}}, exposed_reads={"B": {5}}),
            IterationRecord(2, writes={"A": {2}}, exposed_reads={"B": {5}}),
        ]
        result = lrpd_test(_trace(recs))
        assert result.success
        assert result.traced_accesses == 4

    def test_flow_conflict_fails(self):
        recs = [
            IterationRecord(1, writes={"A": {1}}),
            IterationRecord(2, exposed_reads={"A": {1}}),
        ]
        assert not lrpd_test(_trace(recs)).success

    def test_output_conflict_privatized(self):
        recs = [
            IterationRecord(1, writes={"A": {1}}),
            IterationRecord(2, writes={"A": {1}}),
        ]
        result = lrpd_test(_trace(recs))
        assert result.success
        assert "A" in result.privatized

    def test_output_conflict_without_privatization(self):
        recs = [
            IterationRecord(1, writes={"A": {1}}),
            IterationRecord(2, writes={"A": {1}}),
        ]
        assert not lrpd_test(_trace(recs), privatize=False).success

    def test_own_read_after_write_ok(self):
        recs = [
            IterationRecord(1, writes={"A": {1}}, exposed_reads={"A": set()}),
            IterationRecord(2, writes={"A": {2}}),
        ]
        assert lrpd_test(_trace(recs)).success


class TestInspector:
    def test_cost_proportional_to_sets(self):
        from repro.lmad import interval
        from repro.usr import usr_leaf, usr_subtract

        u = usr_subtract(usr_leaf(interval(1, 100)), usr_leaf(interval(0, 100)))
        out, cost = evaluate_usr_cost(u, {})
        assert out == set()
        assert cost >= 200  # both operand sets materialized

    def test_memoization(self):
        from repro.lmad import interval
        from repro.symbolic import sym
        from repro.usr import usr_leaf, usr_subtract

        u = usr_subtract(
            usr_leaf(interval(1, sym("N"))), usr_leaf(interval(0, sym("N")))
        )
        insp = Inspector()
        r1 = insp.check_empty(u, {"N": 50})
        r2 = insp.check_empty(u, {"N": 50})
        r3 = insp.check_empty(u, {"N": 60})
        assert r1.cost > 0 and not r1.memoized
        assert r2.cost == 0 and r2.memoized
        assert not r3.memoized  # different inputs: fresh evaluation


def _build(src):
    return parse_program(src)


EXEC_SRC = """
program p
param N, OFF
array A(256), B(256)
main
  do i = 1, N @ l
    A[OFF + i] = B[i] + 1
  end
end
"""


class TestExecutor:
    def test_parallel_correct(self):
        prog = _build(EXEC_SRC)
        plan = default_engine().compile(prog).plan("l")
        ex = HybridExecutor(prog, plan)
        r = ex.run({"N": 8, "OFF": 0}, {"B": list(range(256))})
        assert r.parallel and r.correct
        assert r.seq_work == sum(r.iteration_costs)

    def test_speedup_monotone_in_procs(self):
        prog = _build(EXEC_SRC)
        plan = default_engine().compile(prog).plan("l")
        ex = HybridExecutor(prog, plan)
        r = ex.run({"N": 32, "OFF": 0}, {"B": [0] * 256})
        cost = CostModel(spawn_overhead=1)
        assert r.speedup(4, cost) > r.speedup(2, cost) > 1.0

    def test_privatization_with_output_deps(self):
        src = """
program p
param N
array A(64), B(64), T(8)
main
  do i = 1, N @ l
    do j = 1, 4
      T[j] = B[(i-1)*4 + j]
    end
    do j = 1, 4
      A[(i-1)*4 + j] = T[j] * 2
    end
  end
end
"""
        prog = _build(src)
        plan = default_engine().compile(prog).plan("l")
        ex = HybridExecutor(prog, plan)
        r = ex.run({"N": 8}, {"B": list(range(64))})
        assert r.parallel and r.correct
        assert r.decisions["T"].strategy == "private"

    def test_reduction_merging(self):
        src = """
program p
param N
array A(64), B(64), W(64)
main
  do i = 1, N @ l
    A[B[i]] = A[B[i]] + W[i]
  end
end
"""
        prog = _build(src)
        plan = default_engine().compile(prog).plan("l")
        ex = HybridExecutor(prog, plan)
        # Colliding targets: the reduction transform must still be exact.
        arrays = {"B": [1, 2, 1, 2, 1, 2, 1, 2] + [1] * 56,
                  "W": [1] * 64}
        r = ex.run({"N": 8}, arrays)
        assert r.parallel and r.correct
        assert r.decisions["A"].strategy == "reduction"

    def test_scalar_dep_runs_sequential(self):
        src = """
program p
param N
array A(64), B(64)
main
  t = 0
  do i = 1, N @ l
    t = t * 2 + B[i]
    A[i] = t
  end
end
"""
        prog = _build(src)
        plan = default_engine().compile(prog).plan("l")
        ex = HybridExecutor(prog, plan)
        r = ex.run({"N": 8}, {"B": [1] * 64})
        assert not r.parallel
        assert r.correct

    def test_speculation_on_independent_index_arrays(self):
        src = """
program p
param N
array Z(128), KX(64), KZ(64), W(64)
main
  do n = 1, N @ l
    Z[KX[n]] = W[n] + Z[KZ[n]]
  end
end
"""
        prog = _build(src)
        plan = default_engine().compile(prog).plan("l")
        ex = HybridExecutor(prog, plan, exact_strategy="tls")
        kx = [2 * i + 1 for i in range(64)]
        kz = [2 * i + 2 for i in range(64)]
        r = ex.run({"N": 8}, {"KX": kx, "KZ": kz, "W": [3] * 64})
        assert r.parallel and r.correct
        assert r.used_speculation

    def test_misspeculation_detected(self):
        src = """
program p
param N
array Z(128), KX(64), KZ(64), W(64)
main
  do n = 1, N @ l
    Z[KX[n]] = W[n] + Z[KZ[n]]
  end
end
"""
        prog = _build(src)
        plan = default_engine().compile(prog).plan("l")
        ex = HybridExecutor(prog, plan, exact_strategy="tls")
        # Reads hit earlier iterations' writes: genuine flow dependence.
        kx = [i + 1 for i in range(64)]
        kz = [max(1, i) for i in range(64)]
        r = ex.run({"N": 8}, {"KX": kx, "KZ": kz, "W": [3] * 64})
        assert not r.parallel
        assert r.correct  # ran sequentially, result untouched

    def test_civ_comp_overhead_charged(self):
        src = """
program p
param N
array A(256), NSP(64)
main
  civ = 0
  do i = 1, N @ l
    if NSP[i] > 0 then
      do j = 1, NSP[i]
        A[civ + j] = i
      end
      civ = civ + NSP[i]
    end
  end
end
"""
        prog = _build(src)
        plan = default_engine().compile(prog).plan("l")
        ex = HybridExecutor(prog, plan)
        r = ex.run({"N": 8}, {"NSP": [2] * 64})
        assert r.parallel and r.correct
        assert r.civ_overhead > 0

    def test_bad_strategy_rejected(self):
        prog = _build(EXEC_SRC)
        plan = default_engine().compile(prog).plan("l")
        with pytest.raises(ValueError):
            HybridExecutor(prog, plan, exact_strategy="nope")

    def test_rtov_definition(self):
        prog = _build(EXEC_SRC)
        plan = default_engine().compile(prog).plan("l")
        ex = HybridExecutor(prog, plan)
        r = ex.run({"N": 16, "OFF": 0}, {"B": [0] * 256})
        cost = CostModel(spawn_overhead=1)
        assert 0.0 <= r.rtov(4, cost) < 1.0


HISTOGRAM_SRC = """
program h
param N, K
array H(K), V(N), IDX(N)
main
  do i = 1, N @ l
    H[IDX[i]] = H[IDX[i]] + V[i]
  end
end
"""
LRPD_SRC = """
program p
param N
array Z(128), KX(64), KZ(64), W(64)
main
  do n = 1, N @ l
    Z[KX[n]] = W[n] + Z[KZ[n]]
  end
end
"""
LRPD_INDEPENDENT = {
    "KX": [2 * i + 1 for i in range(64)],
    "KZ": [2 * i + 2 for i in range(64)],
    "W": [3] * 64,
}
LRPD_DEPENDENT = {
    "KX": [i + 1 for i in range(64)],
    "KZ": [max(1, i) for i in range(64)],
    "W": [3] * 64,
}


class _RaisingInspector(Inspector):
    def check_empty(self, usr, env):
        raise KeyError("a symbol the environment does not bind")


class TestOnDemandRecords:
    """The ground-truth capture runs the plain body and keeps work
    counts; per-iteration access records come from one recording
    re-capture, made only when the LRPD test is reached."""

    @staticmethod
    def _run(arrays, always_record=False, **kwargs):
        """(report without ``wall_s``, recording flag of each
        ``_capture`` call).  *always_record* makes every capture a
        recording one -- what the executor did before records became
        on-demand."""
        prog = _build(LRPD_SRC)
        ex = HybridExecutor(
            prog, default_engine().compile(prog).plan("l"), backend="thread", jobs=2, **kwargs
        )
        calls = []
        capture = ex._capture

        def counting(params, arrays, recording=False, exits=False):
            calls.append(recording)
            return capture(params, arrays, recording or always_record, exits)

        ex._capture = counting
        return _untimed(ex.run({"N": 8}, arrays)), calls

    def test_a_cascade_validated_execute_captures_once(self):
        prog = _build(EXEC_SRC.replace("B[i]", "A[i]"))
        ex = HybridExecutor(prog, default_engine().compile(prog).plan("l"))
        calls = []
        capture = ex._capture
        ex._capture = lambda *a, **k: calls.append(k) or capture(*a, **k)
        r = ex.run({"N": 8, "OFF": 100}, {})
        assert r.parallel and r.decisions["A"].via == "predicate"
        assert calls == [{"exits": True}]

    def test_an_inspector_validated_execute_captures_once(self):
        report, calls = self._run(LRPD_INDEPENDENT)
        assert report.parallel and report.decisions["Z"].via == "inspector"
        assert report.inspector_overhead == 344.0
        assert calls == [False]

    @pytest.mark.parametrize("kwargs", [
        {"exact_strategy": "tls"}, {"inspector": _RaisingInspector()},
    ], ids=["tls", "raising-inspector"])
    @pytest.mark.parametrize("arrays, strategy, misspeculated", [
        (LRPD_INDEPENDENT, "shared", False),
        (LRPD_DEPENDENT, "dependent", True),
    ], ids=["independent", "dependent"])
    def test_an_lrpd_execute_recaptures_once_and_reports_the_same(
        self, kwargs, arrays, strategy, misspeculated
    ):
        report, calls = self._run(arrays, **kwargs)
        assert calls == [False, True]
        # the values the per-iteration-recording executor reported
        assert report.speculation_overhead == 40.0
        assert report.decisions["Z"] == ArrayDecision("Z", strategy, "speculation")
        assert (report.used_speculation, report.misspeculated) == (True, misspeculated)
        assert report.parallel is not misspeculated and report.correct
        assert report.iteration_costs == [1.0] * 8 and report.seq_work == 8.0
        always, _ = self._run(arrays, always_record=True, **kwargs)
        assert report == always

    def test_capture_task_is_the_recording_captures_task(self):
        prog = _build(LRPD_SRC)
        ex = HybridExecutor(prog, default_engine().compile(prog).plan("l"))
        task = ex.capture_task({"N": 8}, LRPD_INDEPENDENT)
        (entry,), _ = ex._capture({"N": 8}, LRPD_INDEPENDENT, recording=True)
        assert task == entry.task
        assert task.iterations == list(range(1, 9)) and task.index_name == "n"
        assert task.decisions == {} and task.pre_scalars == {"N": 8}
        assert [r.work for r in entry.records] == entry.costs == [1.0] * 8
        assert ex._capture({"N": 8}, LRPD_INDEPENDENT)[0][0].records == []


REENTER_VARYING = """
program p
param N
array A(N), B(N)
main
  do k = 1, 2
    do i = 1, k * 3 @ tgt
      A[i] = B[i] + k
    end
    B[1] = B[1] + A[6]
  end
end
"""

# Fixed bound; every iteration expose-reads the location it then writes,
# so the union of two entries' iterations looks flow-dependent.
REENTER_FIXED = """
program p
param N
array A(N), B(N), C(N)
main
  do k = 1, 2
    do i = 1, N @ tgt
      C[i] = A[i]
      A[i] = B[i] + k
    end
    B[1] = B[1] + A[6]
  end
end
"""

# Independent at the second entry (off = N), a flow chain at the first
# (off = 0): the runtime predicate must hold at *every* entry.
REENTER_PREDICATE = """
program p
param N
array A(64)
main
  do k = 1, 2
    off = (k - 1) * N
    do i = 1, N @ tgt
      A[off + i + 1] = A[i] + 1
    end
  end
end
"""

BACKEND_NAMES = ("sequential", "thread", "process", "numpy", "speculative")


@pytest.mark.parametrize("backend", BACKEND_NAMES)
class TestLoopReentry:
    """A target loop entered more than once: each entry keeps its own
    pre-state, iterations, records and CIV prefixes, and the parallel
    re-run's n-th entry runs the n-th entry's iterations."""

    def _run(self, src, backend, arrays):
        prog = _build(src)
        ex = HybridExecutor(prog, default_engine().compile(prog).plan("tgt"), backend=backend, jobs=2)
        return ex.run({"N": 6}, arrays)

    def test_varying_trip_count(self, backend):
        r = self._run(REENTER_VARYING, backend, {"B": [1, 2, 3, 4, 5, 6]})
        assert r.parallel and r.correct
        assert len(r.iteration_costs) == 3 + 6
        assert r.seq_work == sum(r.iteration_costs)

    def test_fixed_trip_count_never_runs_the_union(self, backend):
        r = self._run(REENTER_FIXED, backend, {"B": [1, 2, 3, 4, 5, 6]})
        assert r.parallel and r.correct
        assert len(r.iteration_costs) == 12
        assert r.speculation_rollbacks == 0
        if r.backend_used == "speculative":
            assert r.speculation_commits == 2  # one per entry

    def test_predicate_must_hold_at_every_entry(self, backend):
        r = self._run(REENTER_PREDICATE, backend, {"A": [0] * 64})
        assert r.correct and not r.parallel
        assert r.decisions["A"].strategy == "dependent"
        assert r.inspector_overhead > 0  # the exact test settled it


def _bench_tools():
    """``tools/exec_digests.py`` and ``bench/benchinputs.py``, importable."""
    from pathlib import Path

    root = Path(__file__).parents[2]
    for path in (root / "tools", root / "bench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import benchinputs
    import exec_digests

    return exec_digests, benchinputs


# The flow-dependent loop of tests/unit/test_chunk_backends.py, which a
# mislabelled plan calls shared: the reference backend's isolated
# iterations leave A wrong, and the suffix either overwrites it or not.
MISLABELLED_FLOW = (
    "program p\narray A(4)\nmain\n  do i = 1, 3 @ l\n"
    "    A[1] = A[1] + i\n    A[i + 1] = A[1]\n  end\n{suffix}end\n"
)
OVERWRITE_SUFFIX = "  do j = 1, 4\n    A[j] = j\n  end\n"


def _mislabel_every_array_shared(monkeypatch):
    monkeypatch.setattr(
        HybridExecutor, "_decide_array",
        lambda self, array, *rest: ArrayDecision(array, "shared", "static"),
    )


def _pinned_case(name):
    """``(source, label, params, arrays, backend, strategy, options,
    mislabelled)`` of the pinned execute *name*."""
    sources = {"reenter_varying": REENTER_VARYING, "reenter_fixed": REENTER_FIXED,
               "reenter_predicate": REENTER_PREDICATE}
    shape, _, backend = name.partition("@")
    if shape in sources:
        inputs = ({"A": [0] * 64} if shape == "reenter_predicate"
                  else {"B": [1, 2, 3, 4, 5, 6]})
        return sources[shape], "tgt", {"N": 6}, inputs, backend, "inspector", {}, False
    if shape == "entered_twice":
        source = REENTER_VARYING.replace("@ tgt", "@ target")
        return (source, "target", {"N": 6}, {"B": [1, 2, 3, 4, 5, 6]}, backend,
                "inspector", {}, False)
    if shape.startswith("mislabelled"):
        suffix = OVERWRITE_SUFFIX if shape == "mislabelled_overwritten" else ""
        return (MISLABELLED_FLOW.format(suffix=suffix), "l", {}, {"A": [5]}, backend,
                "inspector", {}, True)
    _, benchinputs = _bench_tools()
    (item,) = [i for i in benchinputs.load_pool("mix") if i.name == shape]
    return (item.source, item.loop, item.params, item.arrays, backend, item.strategy,
            item.options, False)


#: sha256 of every ExecutionReport field but ``wall_s`` (the definition of
#: tools/exec_digests.py) for executes the golden exec digests do not
#: reach: loops entered twice, loops whose in-order and parallel exit
#: states differ in a scalar the program never reads again, and plans
#: that mislabel a flow-dependent array shared
PINNED_REPORTS = {
    "entered_twice@sequential":
        "e7d5e4c5926eeb60f5adbe65b1abbe892f319cd9956946c6e8da1dcbb66f5c14",
    "entered_twice@thread":
        "04228ed94c2d0af03aa7dffb235a8ea033400d3952991fee51ce2ecadb47ba8d",
    "mislabelled_overwritten@process":
        "c7f74d03ed4f4ca38d23efad2ff0a01c00a3ca0fcf6c4769567eba983852fa18",
    "mislabelled_overwritten@sequential":
        "52a458f6f4ea851314336c54a6dd0a00a4921cc337f97160d0a470baddf44ee7",
    "mislabelled_shows@process":
        "b7ec644c428d021ab3cc83a82ad2783c5d6fc865ad703d61cad07f1fa407cef1",
    "mislabelled_shows@sequential":
        "722ad5c2aebaa930858edd08394a2b9a092f7f79daa4466f8775c1961dfe65c1",
    "mix007@thread":
        "1f83a2e73219354ee6ab9a68003d7a04ad96fec862fd604f8b725351ad3fe31e",
    "mix021@thread":
        "abf2732d5fbf27d7ce3c1beb06ed15876f821969a46db338d7d0464d00caa049",
    "mix025@thread":
        "15d925649afdab465744e3800f249ad96d6a13e6fca646494066a0eecf81d56a",
    "reenter_fixed@numpy":
        "4494a36cd8aa4413b84319f038fb0ce8c6eeefff284b4a6e3f5118d85a41d1c0",
    "reenter_fixed@process":
        "1d7d9f3730d442b2c46e3c9fa5597ab449d447f57fc5ee02210695b74f929732",
    "reenter_fixed@sequential":
        "c0e72625715d77c1374d3fc5b628062bf81938922da8b79155785afa2d15a8d7",
    "reenter_fixed@speculative":
        "b07737aeef0da9d43e1adf8d152dcf95f03edc659f1dc47a6842bd7d3754c7ab",
    "reenter_fixed@thread":
        "7d76494ad5e6d4be5eb433cefc773cf655789ba87296f2a86f6ed2c1922e7442",
    "reenter_predicate@numpy":
        "c1743242596e1a6589fc583c37f5a39330e5fd4db97f5ec9fd07b61104da1942",
    "reenter_predicate@process":
        "0430ea2a1d5a4fa7826a984b7ac0491fc4ec788e94bf0705d0349c21c1609b1a",
    "reenter_predicate@sequential":
        "3262a0b3e58167d0a322de1fff789b37dea0c68d554b9f7f17b9082d3319c6ea",
    "reenter_predicate@speculative":
        "7f4eb6777baa58a47703bda869d8e113594d5912b072f7f1673cc1b7379fdb88",
    "reenter_predicate@thread":
        "df37798d999a158be02038b0a9886f37701af8abb0f2ad9a9a6c923aa8b7a4f9",
    "reenter_varying@numpy":
        "07347a14553aab39f575bf1dc52ccd7a0762a25f77ae7328cc47d144ef94cf5e",
    "reenter_varying@process":
        "515d36ec1e6b1fa9b3d3a3efcc5db0aaac81198bdf116c2c79fdff1ac84bcf64",
    "reenter_varying@sequential":
        "34659e727b4a1bb3c349c342b03e1ca507788874b16db25828ed67b365435994",
    "reenter_varying@speculative":
        "010f8e8e1559ab22cb557eb41c4900ab886dbab93efdd26eed91d42cdd0ed1d4",
    "reenter_varying@thread":
        "81109e25e9d8560106b94ab6d26375612bcfc28257e397781027a73b14b3bb40",
}


class TestPinnedReports:
    """Every report of an execute whose loop is entered more than once,
    or whose parallel run leaves the loop in another state than the
    in-order run did, stays what it is, byte for byte."""

    @pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
    def test_report_digest(self, name, monkeypatch):
        source, label, params, arrays, backend, strategy, options, mislabelled = (
            _pinned_case(name))
        if backend not in available_backends():
            pytest.skip(f"{backend} is not available here")
        if mislabelled:
            _mislabel_every_array_shared(monkeypatch)
        compiled = Engine(EngineConfig(use_disk_cache=False)).compile(source)
        report = compiled.execute(label, params, arrays, backend=backend, jobs=2,
                                  exact_strategy=strategy, **options)
        exec_digests, _ = _bench_tools()
        assert exec_digests._sha(exec_digests.report_text(report)) == PINNED_REPORTS[name]

    def test_the_mislabelled_plans_end_both_ways(self, monkeypatch):
        """One wrong loop result is overwritten by the program's suffix,
        the other shows in the final memory."""
        _mislabel_every_array_shared(monkeypatch)
        ends = []
        for suffix in (OVERWRITE_SUFFIX, ""):
            compiled = Engine(EngineConfig(use_disk_cache=False)).compile(
                MISLABELLED_FLOW.format(suffix=suffix))
            report = compiled.execute("l", {}, {"A": [5]}, backend="sequential")
            ends.append((report.parallel, report.correct))
        assert ends == [(True, True), (True, False)]


# ``t`` is dead after the loop, and the last iteration leaves it
# unassigned: a backend's frame then differs from the in-order run's at
# the loop's exit, and the final memory does not.
DEAD_SCALAR = """
program p
param N
array A(N), B(N)
main
  do k = 1, 2
    do i = 1, N @ l
      if (i < N) then
        t = i
      end
      A[i] = B[i] + k
    end
  end
end
"""


class TestExitCheck:
    """A parallel run is checked at the loop's exit; the whole program
    runs again, as the arbiter, only when an entry's exit state differs,
    and each entry's backend runs once either way."""

    @staticmethod
    def _run(source, backend, arrays, params=None, label="tgt"):
        """(report without ``wall_s``, whole-program runs, backend runs,
        entries verified, arbiter runs)."""
        prog = _build(source)
        ex = HybridExecutor(
            prog, default_engine().compile(prog).plan(label), backend=backend, jobs=2
        )
        programs, backends = [], []
        run_program, run_backend = ex._run_program, ex._run_backend
        ex._run_program = lambda *a: programs.append(1) or run_program(*a)
        ex._run_backend = lambda *a: backends.append(1) or run_backend(*a)
        with profile.profiling():
            report = ex.run(params or {"N": 6}, arrays)
            counts = profile.snapshot().counts
        return (_untimed(report), len(programs), len(backends),
                counts.get("runtime.entries_verified", 0),
                counts.get("runtime.arbiter_runs", 0))

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_matching_exits_run_the_program_once(self, backend):
        report, programs, backends, verified, arbiters = self._run(
            REENTER_VARYING, backend, {"B": [1, 2, 3, 4, 5, 6]})
        assert report.parallel and report.correct
        assert (programs, backends, verified, arbiters) == (1, 2, 2, 0)

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_a_dead_scalar_goes_to_the_arbiter_at_the_first_entry(self, backend):
        report, programs, backends, verified, arbiters = self._run(
            DEAD_SCALAR, backend, {"B": [1, 2, 3, 4, 5, 6]}, label="l")
        assert report.parallel and report.correct
        # the first entry's run is handed over, the second's made anew
        assert (programs, backends, verified, arbiters) == (2, 2, 0, 1)

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("source, arrays, label", [
        (REENTER_VARYING, {"B": [1, 2, 3, 4, 5, 6]}, "tgt"),
        (REENTER_FIXED, {"B": [1, 2, 3, 4, 5, 6]}, "tgt"),
        (DEAD_SCALAR, {"B": [1, 2, 3, 4, 5, 6]}, "l"),
    ], ids=["varying", "fixed", "dead-scalar"])
    def test_the_report_is_the_one_a_full_re_run_gives(
        self, backend, source, arrays, label, monkeypatch
    ):
        checked = self._run(source, backend, arrays, label=label)[0]
        monkeypatch.setattr(
            HybridExecutor, "_parallel_execute",
            lambda self, params, arrays, entries, strategies, report, seq: (
                self._arbiter(params, arrays, entries, [], strategies, report) == seq),
        )
        assert self._run(source, backend, arrays, label=label)[0] == checked


# ``t`` is live after the loop, and the last iteration leaves it
# unassigned; no iteration reads it before writing it.
LIVE_OUT_SCALAR = """
program p
param N
array A(N), B(N)
main
  t = 0
  do i = 1, N @ tgt
    if (A[i] > 0) then
      t = A[i]
    end
    B[i] = A[i] + 1
  end
  B[1] = t
end
"""


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a backend's final scalars are the last iteration's, which restarts "
    "from the entry scalars, so a live-out scalar the last iteration does "
    "not assign loses its value; the plan counts only exposed reads as "
    "scalar dependences"))
def test_a_live_out_scalar_the_last_iteration_skips_is_kept():
    compiled = Engine(EngineConfig(use_disk_cache=False)).compile(LIVE_OUT_SCALAR)
    arrays = {"A": [5, 0, 7, 0, 0, 0, 0, 0]}
    trace = Machine(compiled.program, {"N": 8}, arrays, trace_label="tgt").run().trace
    ends = {}
    for backend in ("sequential", "thread", "process", "speculative"):
        report = compiled.execute("tgt", {"N": 8}, arrays, backend=backend, jobs=2)
        outcome, _ = classify_outcome(compiled.plan("tgt"), trace, report)
        ends[backend] = (report.correct, outcome)
    assert all(correct and outcome != "unsound" for correct, outcome in ends.values()), ends


def _untimed(report):
    return dataclasses.replace(report, wall_s=0.0)


def _aliased(theirs, mine) -> bool:
    """Does any list of *theirs* share identity with one of *mine*?"""
    return any(a is b for a in theirs.values() for b in mine.values())


class TestInputsAndCopies:
    """``Engine.execute`` never mutates its inputs and never hands them
    on: the interpreter owns the one copy it makes, every later
    snapshot is a flat per-array copy, and ``copy.deepcopy`` -- an
    O(elements) Python-level walk -- is not on the execute path."""

    PARAMS = {"N": 8, "OFF": 0}

    @pytest.fixture(autouse=True)
    def refuse_deepcopy(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("copy.deepcopy called on the execute path")

        monkeypatch.setattr(copy, "deepcopy", refuse)

    @pytest.fixture
    def backend_calls(self, monkeypatch):
        """(task, run) of every backend execute made during the test."""
        calls = []
        for cls in BACKENDS.values():
            def execute(self, task, jobs=None, chunk=None, _inner=cls.execute):
                run = _inner(self, task, jobs=jobs, chunk=chunk)
                calls.append((task, run))
                return run

            monkeypatch.setattr(cls, "execute", execute)
        return calls

    @pytest.fixture
    def compiled(self):
        engine = Engine(EngineConfig(use_disk_cache=False))
        yield engine.compile(EXEC_SRC)
        engine.close()

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_execute_neither_mutates_nor_aliases_inputs(
        self, backend, compiled, backend_calls
    ):
        # B shorter than its declared 256: the machine pads its own copy.
        arrays = {"A": [7] * 256, "B": list(range(1, 17))}
        saved = copy_arrays(arrays)
        report = compiled.execute("l", self.PARAMS, arrays, backend=backend, jobs=2)
        assert report.parallel and report.correct
        assert arrays == saved
        ((task, run),) = backend_calls
        assert not _aliased(task.pre_arrays, arrays)
        assert not _aliased(run.arrays, arrays)
        assert not _aliased(vars(report), arrays)
        returned = copy_arrays(task.pre_arrays), copy_arrays(run.arrays)
        arrays["A"].clear()
        arrays["B"][:] = [99] * 16
        assert (task.pre_arrays, run.arrays) == returned
        assert run.arrays["A"][:9] == [2, 3, 4, 5, 6, 7, 8, 9, 7]

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_list_tuple_and_short_inputs_agree(self, backend, compiled):
        full = list(range(1, 17)) + [0] * 240
        reports = [
            _untimed(compiled.execute(
                "l", self.PARAMS, {"B": b}, backend=backend, jobs=2
            ))
            for b in (full, tuple(full), full[:16], tuple(full[:16]))
        ]
        assert reports[0].parallel and reports[0].correct
        assert all(r == reports[0] for r in reports[1:])

    def test_capture_task_owns_its_memory(self, compiled):
        arrays = {"B": list(range(1, 17))}
        task = compiled.executor("l").capture_task(self.PARAMS, arrays)
        assert arrays == {"B": list(range(1, 17))}
        assert not _aliased(task.pre_arrays, arrays)
        assert task.pre_arrays["B"] == list(range(1, 17)) + [0] * 240
        assert task.iterations == list(range(1, 9))

    def test_oracle_case_keeps_its_inputs(self):
        case = generate_case(3)
        saved = copy_arrays(case.arrays)
        result = run_case(case, backend="thread", jobs=2)
        assert result.outcome != "crash", result.detail
        assert case.arrays == saved

    WIDENED = """
program widened
param N
array A(N), B(N)
main
  do i = 1, N @ l
    B[i] = A[i + 5]
  end
end
"""

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_an_input_longer_than_its_extent_is_rejected(self, backend):
        """Twenty values for ``A(10)`` would make ``A[i + 5]`` legal: the
        declared program, not the supplied data, sets the bounds."""
        engine = Engine(EngineConfig(use_disk_cache=False))
        compiled = engine.compile(self.WIDENED)
        with pytest.raises(ValueError, match=(
            "array 'A' is declared with extent 10 but 20 values were supplied"
        )):
            compiled.execute(
                "l", {"N": 10}, {"A": list(range(20))}, backend=backend, jobs=2
            )
        with pytest.raises(InterpError, match=r"A\[11\] out of bounds \(size 10\)"):
            compiled.execute(
                "l", {"N": 10}, {"A": list(range(10))}, backend=backend, jobs=2
            )
        engine.close()


REBIND_SRC = """
program rebind
param N
array A(8), B(8)

subroutine sweep(X[], Y[])
  do i = 1, N @ tgt
    X[i] = X[i] + 1
  end
  Y[2] = X[1]
end

main
  do k = 1, 2
    call sweep(A[], B[])
    B[k + 2] = A[1]
  end
  B[1] = A[1]
end
"""


class TestGeneratedCode:
    """The machine runs code generated from the program and kept on it
    (``Program._lowered``): what holds for that code beyond computing
    the right values."""

    def test_arrays_rebound_by_the_loop_hook_are_seen_at_once(self):
        """The hook swaps ``machine.arrays`` for fresh lists (what the
        executor's arbiter does with the backend's result): the statement
        after the loop, after the call around it and after the loop
        around that all read the new memory, and write into it."""
        def hook(machine, stmt, frame):
            arrays = copy_arrays(machine.arrays)
            arrays["A"][0] += 10
            machine.arrays = arrays

        machine = Machine(
            parse_program(REBIND_SRC), params={"N": 4},
            loop_executor=hook, loop_executor_label="tgt",
        )
        first = machine.arrays
        result = machine.run()
        assert result.arrays["A"][0] == 20
        assert result.arrays["B"][:4] == [20, 20, 10, 20]
        assert first["B"] == [0] * 8  # nothing was written to the old lists

    @pytest.mark.parametrize("snapshot", [True, False])
    def test_every_isolated_iteration_starts_from_the_pre_state(self, snapshot):
        """The reference backend's unit (``snapshot``): ``execute_positions``
        swaps the machine's memory between iterations of one compiled
        body, so each starts from the pre-state.  The production unit
        (not ``snapshot``): ``execute_chunk`` runs the same iterations in
        place and hands back one outcome per chunk, whose merge is the
        in-order memory."""
        program = parse_program(
            "program p\narray A(4)\nmain\n  do i = 1, 3 @ l\n"
            "    A[1] = A[1] + i\n    A[i + 1] = A[1]\n  end\nend\n"
        )
        compiled = Engine(EngineConfig(use_disk_cache=False)).compile(program)
        task = compiled.executor("l").capture_task({}, {"A": [5]})
        if snapshot:
            outcomes = execute_positions(task, range(3), per_iteration_snapshot=True)
            assert [o.values for o in outcomes] == [
                {"A": {1: 5 + i, i + 1: 5 + i}} for i in (1, 2, 3)
            ]
        else:
            chunks = plan_chunks(3, jobs=1)
            outcomes = [execute_chunk(task, chunk) for chunk in chunks]
            assert len(outcomes) == len(chunks) == 1
            assert (outcomes[0].position, outcomes[0].iteration) == (2, 3)
            assert outcomes[0].values == {"A": {1: 11, 2: 6, 3: 8, 4: 11}}
            assert outcomes[0].scalars == {"i": 3}
            merged = merge_outcomes(task.pre_arrays, outcomes, task.decisions)
            assert merged == sequential_execute(task)[0] == {"A": [11, 6, 8, 11]}
        assert task.pre_arrays == {"A": [5, 0, 0, 0]}

    def test_a_lowered_program_pickles_as_if_it_never_ran(self):
        compiled = Engine(EngineConfig(use_disk_cache=False)).compile(EXEC_SRC)
        task = compiled.executor("l").capture_task({"N": 8, "OFF": 0}, {})
        fresh = dataclasses.replace(task, program=parse_program(EXEC_SRC))
        assert task.program._lowered and not fresh.program._lowered
        blob = pickle.dumps(task)
        assert len(blob) <= len(pickle.dumps(fresh))
        back = pickle.loads(blob)
        assert back == task and back.program._lowered == {}
        assert copy.copy(task.program)._lowered == {}

    def test_threads_racing_to_a_first_execute_agree(self):
        """Eight threads lower and run one cold program at once; racing
        lowerings may repeat work, never corrupt it."""
        case = generate_case(11)
        serial = _untimed(
            Engine(EngineConfig(use_disk_cache=False))
            .compile(case.source)
            .execute(case.label, case.params, case.arrays, backend="sequential")
        )
        compiled = Engine(EngineConfig(use_disk_cache=False)).compile(case.source)
        compiled.plan(case.label)
        assert not compiled.program._lowered
        barrier = threading.Barrier(8)
        reports = []

        def first_execute():
            barrier.wait(timeout=30)
            reports.append(_untimed(compiled.execute(
                case.label, case.params, case.arrays, backend="sequential"
            )))

        threads = [threading.Thread(target=first_execute) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert reports == [serial] * 8

    def test_lowering_is_lazy_and_happens_once(self):
        """``Engine.compile`` and ``plan`` generate nothing; the first
        execute does, under the ``ir.lower`` timer; the second finds it
        all there."""
        compiled = Engine(EngineConfig(use_disk_cache=False)).compile(EXEC_SRC)
        compiled.plan("l")
        assert compiled.program._lowered == {}
        lowered = []
        for _ in range(2):
            with profile.profiling():
                compiled.execute("l", {"N": 8, "OFF": 0}, {}, backend="sequential")
            lowered.append(profile.snapshot().calls.get("ir.lower", 0))
        assert lowered[0] == len(compiled.program._lowered) > 0
        assert lowered[1] == 0

    @pytest.mark.parametrize("source, params, arrays, overhead", [
        (HISTOGRAM_SRC, {"N": 40, "K": 8},
         {"V": [1] * 40, "IDX": [i % 8 + 1 for i in range(40)]}, "bounds_overhead"),
        (LRPD_SRC, {"N": 8}, LRPD_INDEPENDENT, "inspector_overhead"),
    ], ids=["bounds-comp", "inspector"])
    def test_a_second_execute_builds_and_lowers_nothing(
        self, source, params, arrays, overhead
    ):
        """The decision step's USR code (BOUNDS-COMP's whole-loop
        recurrence, the inspector's exact set) is built, lowered and
        compiled on the first execute and kept with the program: the
        second execute records no lowering and constructs no USR node."""
        from repro.usr.nodes import _USR_INTERN

        compiled = Engine(EngineConfig(use_disk_cache=False)).compile(source)
        compiled.plan("l")
        lowered, built, charged = [], [], []
        for _ in range(2):
            nodes = _USR_INTERN.hits + _USR_INTERN.misses
            with profile.profiling():
                report = compiled.execute("l", params, arrays, backend="sequential")
            calls = profile.snapshot().calls
            lowered.append(calls.get("usr.lower", 0) + calls.get("ir.lower", 0))
            built.append(_USR_INTERN.hits + _USR_INTERN.misses - nodes)
            charged.append(getattr(report, overhead))
        assert lowered[0] > 0 and lowered[1] == 0
        assert built[1] == 0
        assert charged[0] > 0 and charged[1] > 0

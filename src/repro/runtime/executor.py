"""The conditional-parallelization executor (Section 5's generated code).

Given a :class:`~repro.core.analyzer.LoopPlan` and concrete inputs, the
executor reproduces what the paper's generated OpenMP code does:

1. precompute CIV prefix values via the loop slice (CIV-COMP), charging
   the slice's modelled cost;
2. evaluate the predicate cascades cheapest-first ("the first successful
   predicate disables the evaluation of the rest"), charging every leaf
   evaluation and loop iteration;
3. run BOUNDS-COMP for reductions without static bounds;
4. fall back to exact tests (memoized inspector USR evaluation, or
   LRPD-style speculation) when every predicate fails;
5. execute the loop -- in parallel under the per-array transforms
   (shared / privatized-with-last-value / reduction) when validated,
   sequentially otherwise -- and *check the result against the
   sequential ground truth*;
6. report timings from the simulated multiprocessor, including the
   runtime-test overhead that the paper's RTov columns measure.

Parallel execution is real: a backend runs the loop's iterations (the
reference backend each in isolation from the pre-loop memory, the pool
backends a chunk at a time), then per-array merge rules reconstruct the
final state (direct writes for shared arrays, ordered write-back for
privatized arrays = dynamic last value, delta accumulation for
reductions).  A wrong analysis therefore produces a wrong final memory
and is caught by the ground-truth comparison.

The ground-truth run executes the target loop's generated loop unit
(:meth:`~repro.ir.interp.Machine.run_loop`) and keeps each iteration's
work; only the LRPD test reads per-iteration access records, so they
come from one recording re-run (the unit, one value at a time), made
when an exact fallback actually reaches it.

The caller's arrays are never written to and never kept: each
whole-program run hands them to a :class:`~repro.ir.interp.Machine`,
which makes the one copy it works on; docs/ARCHITECTURE.md counts the
O(memory) copies of one execute.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Optional

from ..core.analyzer import ArrayPlan, LoopPlan
from ..ir.ast import AssignScalar, Do, If, Program, While
from ..ir.interp import IterationRecord, LoopTrace, Machine, RunResult, copy_arrays
from ..ir.scalars import _stmt_reads, expr_scalar_reads
from ..pdag import EvalStats
from ..usr import estimate_bounds, usr_recurrence
from .backends import DEFAULT_BACKEND, BACKENDS, ChunkSpec, LoopTask, get_backend
from .inspector import Inspector
from .scheduler import CostModel, schedule_parallel
from .speculation import lrpd_test

__all__ = ["ArrayDecision", "ExecutionReport", "HybridExecutor"]


@dataclass
class ArrayDecision:
    """Final runtime decision for one array."""

    array: str
    #: 'shared' | 'private' | 'reduction' | 'dependent'
    strategy: str
    #: how independence was established: 'static' | 'predicate' |
    #: 'inspector' | 'speculation' | 'failed'
    via: str
    passed_stage: Optional[str] = None


@dataclass
class ExecutionReport:
    """Everything measured for one execution of the planned loop."""

    label: str
    parallel: bool
    correct: bool
    seq_work: float
    iteration_costs: list[float] = field(default_factory=list)
    test_overhead: float = 0.0
    #: the O(1) part of the predicate tests (leaf evaluations)
    test_leaf_overhead: float = 0.0
    civ_overhead: float = 0.0
    bounds_overhead: float = 0.0
    inspector_overhead: float = 0.0
    speculation_overhead: float = 0.0
    decisions: dict[str, ArrayDecision] = field(default_factory=dict)
    used_speculation: bool = False
    misspeculated: bool = False
    #: committed speculative backend runs (LRPD validation passed)
    speculation_commits: int = 0
    #: rolled-back speculative backend runs (conflict -> undo-log
    #: restore -> in-order sequential re-execution)
    speculation_rollbacks: int = 0
    #: arrays the LRPD test privatized during a committed speculative
    #: run (write-write conflicts only, merged with last value)
    speculation_privatized: list = field(default_factory=list)
    #: execution backend the caller requested
    backend: str = DEFAULT_BACKEND
    #: backend that actually ran the loop ('' when the loop stayed
    #: sequential; differs from ``backend`` after a fallback, e.g. a
    #: non-vectorizable loop requested on 'numpy')
    backend_used: str = ""
    #: workers that participated in the real parallel execution
    jobs: int = 1
    #: chunks the iteration space was carved into
    chunks: int = 0
    #: real wall-clock seconds spent inside the backend
    wall_s: float = 0.0

    @property
    def total_overhead(self) -> float:
        return (
            self.test_overhead
            + self.civ_overhead
            + self.bounds_overhead
            + self.inspector_overhead
            + self.speculation_overhead
        )

    @property
    def serial_overhead(self) -> float:
        """O(1) predicate leaves: evaluated once, before the loop."""
        return self.test_leaf_overhead

    @property
    def parallelizable_overhead(self) -> float:
        """Work the paper's runtime distributes across processors:
        O(N) predicate iterations (and/or-reduced in parallel), the CIV
        precomputation slice, BOUNDS-COMP's MIN/MAX reduction, LRPD
        marking, and hoisted inspector evaluations."""
        return self.total_overhead - self.test_leaf_overhead

    def parallel_time(self, procs: int, cost: CostModel) -> float:
        """Simulated makespan on *procs* processors, overhead included."""
        if not self.parallel or procs <= 1:
            return self.seq_work + (self.total_overhead if self.parallel else 0.0)
        timing = schedule_parallel(self.iteration_costs, procs, cost)
        eff = cost.effective_procs(min(procs, max(1, len(self.iteration_costs))))
        time = (
            timing.time
            + self.serial_overhead
            + self.parallelizable_overhead / eff
        )
        if self.misspeculated:
            time += self.seq_work  # wasted speculative run re-done sequentially
        return time

    def speedup(self, procs: int, cost: CostModel) -> float:
        par = self.parallel_time(procs, cost)
        return self.seq_work / par if par > 0 else 1.0

    def overhead_time(self, procs: int, cost: CostModel) -> float:
        """The overhead's contribution to the parallel makespan: serial
        O(1) tests plus the parallelized tests' per-processor share."""
        if procs <= 1:
            return self.total_overhead
        eff = cost.effective_procs(min(procs, max(1, len(self.iteration_costs))))
        return self.serial_overhead + self.parallelizable_overhead / eff

    def rtov(self, procs: int, cost: CostModel) -> float:
        """Runtime-test overhead as a fraction of parallel time (RTov)."""
        par = self.parallel_time(procs, cost)
        return self.overhead_time(procs, cost) / par if par > 0 else 0.0


@dataclass
class _LoopEntry:
    """One entry into the target loop during the sequential run: its
    frozen entry state with the iterations and CIV prefixes it went on
    to produce, each iteration's work and -- from a recording capture
    only -- each iteration's access record."""

    task: LoopTask
    costs: list[float]
    records: list[IterationRecord]

    def env(self, plan: LoopPlan) -> dict:
        """The runtime environment predicates see at this entry: the
        pre-loop state plus the CIV prefixes."""
        env: dict = dict(self.task.params)
        env.update(self.task.pre_scalars)
        env.update(self.task.pre_arrays)
        for info in plan.civs:
            env[info.prefix_array] = self.task.civ_values[info.name]
        if plan.is_while and plan.trip_symbol:
            env[plan.trip_symbol] = len(self.task.iterations)
        return env


class HybridExecutor:
    """Executes one planned loop under the hybrid runtime."""

    def __init__(
        self,
        program: Program,
        plan: LoopPlan,
        cost: Optional[CostModel] = None,
        inspector: Optional[Inspector] = None,
        exact_strategy: str = "inspector",
        backend: str = DEFAULT_BACKEND,
        jobs: Optional[int] = None,
        chunk=None,
    ):
        self.program = program
        self.plan = plan
        self.cost = cost or CostModel()
        #: shared across runs: models HOIST-USR amortization
        self.inspector = inspector or Inspector()
        #: exact-test fallback: 'inspector' (hoistable USR evaluation) or
        #: 'tls' (LRPD speculation) -- Section 5's "if we can amortize the
        #: cost ... we use direct evaluation, otherwise we use TLS"
        if exact_strategy not in ("inspector", "tls"):
            raise ValueError(f"bad exact_strategy {exact_strategy!r}")
        self.exact_strategy = exact_strategy
        #: real execution backend for validated parallel loops
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; valid: {list(BACKENDS)}"
            )
        self.backend = backend
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1 (got {jobs})")
        self.jobs = jobs
        self.chunk = ChunkSpec.from_json(chunk)

    # -- public API ----------------------------------------------------------
    def run(self, params: dict, arrays: dict) -> ExecutionReport:
        label = self.plan.label
        # 1. Sequential ground-truth run (also captures, per entry into
        #    the target loop, the pre-loop state, per-iteration work and
        #    CIV prefix values).
        entries, seq_result = self._capture(params, arrays)
        seq_arrays = seq_result.arrays
        iter_costs = [c for entry in entries for c in entry.costs]
        seq_work = float(sum(iter_costs))

        report = ExecutionReport(
            label=label,
            parallel=False,
            correct=True,
            seq_work=seq_work,
            iteration_costs=iter_costs,
            backend=self.backend,
        )
        speculable = self.backend == "speculative" and any(
            len(entry.task.iterations) > 1 for entry in entries
        )

        # Loops with scalar flow dependences or unanalyzable constructs
        # run sequentially unless speculation is explicitly viable; the
        # paper's generated code would not have parallelized them.
        analysis = self.plan.analysis
        scalar_dep = bool(analysis and analysis.scalar_flow_deps - _civ_names(self.plan))
        if self.plan.approximate or scalar_dep:
            report.decisions["<loop>"] = ArrayDecision("<loop>", "dependent", "failed")
            # Unanalyzable array accesses are exactly what the LRPD
            # marks validate at runtime, so the speculative backend may
            # still try the loop.  A cross-iteration *scalar* flow
            # dependence stays a hard stop: scalar accesses carry no
            # shadow marks, so speculation could not detect the
            # conflict.
            if speculable and not scalar_dep:
                return self._speculative_fallback(
                    params, arrays, entries, report.decisions, report,
                    seq_arrays,
                )
            return report

        # 2. Runtime environments for predicates, one per entry: pre-loop
        #    state + CIV prefixes (paying the CIV-COMP slice cost).
        envs = [entry.env(self.plan) for entry in entries]
        if self.plan.civs:
            report.civ_overhead = seq_work * self._civ_slice_fraction()

        # 3. Per-array decisions via cascades / exact fallbacks; a test
        #    holds only when it holds at every entry.
        stats = EvalStats()

        @functools.cache
        def lrpd_traces() -> list:
            # Only the LRPD test reads access records; the first array
            # to reach it pays for one recording re-capture (the same
            # program on the same input: the same iterations).
            recorded, _ = self._capture(params, arrays, recording=True)
            return [LoopTrace(label, entry.records) for entry in recorded]

        decisions = {
            array: self._decide_array(array, aplan, envs, stats, report, lrpd_traces)
            for array, aplan in self.plan.arrays.items()
        }
        report.test_overhead = float(stats.total_steps)
        report.test_leaf_overhead = float(stats.leaf_evals)
        report.decisions = decisions

        if any(d.strategy == "dependent" for d in decisions.values()):
            if speculable:
                # The cascade failed end to end: the paper's last resort
                # is to run the loop speculatively anyway and let the
                # LRPD test judge the attempt after the fact.
                return self._speculative_fallback(
                    params, arrays, entries, decisions, report, seq_arrays
                )
            # Exact tests failed or proved dependence: sequential run.
            return report

        # 4. Parallel overlay execution + ground-truth validation.
        strategies = {name: d.strategy for name, d in decisions.items()}
        par_arrays = self._parallel_execute(
            params, arrays, entries, strategies, report
        )
        # A validated loop's speculative run always commits (the
        # predicates that validated it are sound); guard anyway so a
        # rollback is never misreported as a parallel execution.
        report.parallel = report.speculation_rollbacks == 0
        report.correct = par_arrays == seq_arrays
        return report

    # -- sequential capture -----------------------------------------------------
    def _loop_task(
        self, machine: Machine, stmt, frame, iterations, civ_values, decisions
    ) -> LoopTask:
        """Freeze the loop's entry state -- *machine* and *frame* as
        they stand when *stmt* is reached, memory snapshotted -- as a
        backend-executable task over the given iterations."""
        return LoopTask(
            program=self.program,
            label=self.plan.label,
            params=dict(machine.params),
            pre_arrays=copy_arrays(machine.arrays),
            pre_scalars=dict(frame.scalars),
            frame_arrays=dict(frame.arrays),
            iterations=iterations,
            civ_names=tuple(info.name for info in self.plan.civs),
            civ_values=civ_values,
            index_name=stmt.index if isinstance(stmt, Do) else None,
            decisions=decisions,
        )

    def _capturing_seq(self, machine: Machine, stmt, frame, recording) -> _LoopEntry:
        """Run one entry of the target loop in order, through its loop
        unit, keeping each iteration's work (the plain and the recording
        variant count the same) and, with *recording*, its access record."""
        civs = {info.name: [] for info in self.plan.civs}
        entry = _LoopEntry(self._loop_task(machine, stmt, frame, [], civs, {}), [], [])
        values = machine.iteration_values(stmt, frame)
        watch = {"costs": entry.costs, "civs": civs.items()}
        if recording:
            machine.trace_loop(stmt, frame, values, entry.records, **watch)
        else:
            machine.run_loop(stmt, frame, values, **watch)
        trips = len(entry.costs)  # a while loop's values are 1..trips
        entry.task.iterations += values if isinstance(stmt, Do) else range(1, trips + 1)
        for name, prefix in civs.items():  # final CIV values (the paper's CIV@5)
            prefix.append(frame.scalars.get(name, 0))
        return entry

    def _run_program(self, params: dict, arrays: dict, hook) -> RunResult:
        """The whole program, *hook* standing in for the target loop."""
        return Machine(
            self.program, params=params, arrays=arrays,
            loop_executor=hook, loop_executor_label=self.plan.label,
        ).run()

    def _capture(
        self, params: dict, arrays: dict, recording: bool = False
    ) -> tuple[list, RunResult]:
        """The in-order run of the whole program with the target loop
        captured: (one :class:`_LoopEntry` per time it was entered, the
        run's result)."""
        entries: list[_LoopEntry] = []
        result = self._run_program(params, arrays, lambda m, s, f: entries.append(
            self._capturing_seq(m, s, f, recording)
        ))
        if not entries:
            raise ValueError(f"target loop {self.plan.label!r} never executed")
        return entries, result

    # -- decision logic ------------------------------------------------------------
    @staticmethod
    def _evaluate(cascade, envs: list, stats: EvalStats):
        """Evaluate *cascade* at each entry's environment until one
        fails, charging every evaluation; the last outcome decides."""
        for env in envs:
            outcome = cascade.evaluate(env)
            if outcome.stats.loop_iterations > 0:
                # O(N)+ tests: the paper evaluates them as parallel
                # and/or-reductions; count everything as loop work.
                stats.loop_iterations += outcome.stats.total_steps
            else:
                stats.leaf_evals += outcome.stats.leaf_evals
            if not outcome.passed:
                break
        return outcome

    def _decide_array(
        self,
        array: str,
        aplan: ArrayPlan,
        envs: list,
        stats: EvalStats,
        report: ExecutionReport,
        traces,
    ) -> ArrayDecision:
        if aplan.needs_exact:
            return self._exact_fallback(array, aplan, envs, report, traces)
        via = "static"
        passed: Optional[str] = None
        output_passed = aplan.output is None and aplan.transform == "shared"
        for kind, cascade in aplan.runtime_cascades():
            outcome = self._evaluate(cascade, envs, stats)
            if outcome.passed:
                via = "predicate"
                passed = outcome.stage_label
                if kind == "output":
                    output_passed = True
            elif kind == "flow":
                # Flow predicate failed: only an exact test can save us.
                return self._exact_fallback(array, aplan, envs, report, traces)
            else:
                # Output predicate failed: fall back to privatization.
                via = "predicate"
                return ArrayDecision(array, "private", via, passed)
        if aplan.transform == "private" and output_passed:
            # Output independence proven at runtime: no privatization
            # needed, iterations may write the shared array directly.
            return ArrayDecision(array, "shared", via, passed)
        if aplan.transform == "reduction":
            if aplan.rred is not None:
                outcome = self._evaluate(aplan.rred, envs, stats)
                if outcome.passed:
                    # Updates proven independent: direct shared access.
                    return ArrayDecision(array, "shared", "predicate", outcome.stage_label)
            if not aplan.reduction_additive:
                # Maybe-overlapping non-additive updates cannot be
                # delta-merged; only an exact test can still validate.
                return self._exact_fallback(array, aplan, envs, report, traces)
            if aplan.needs_bounds_comp:
                self._run_bounds_comp(array, envs, report)
            return ArrayDecision(array, "reduction", via, passed)
        return ArrayDecision(array, aplan.transform, via, passed)

    def _run_bounds_comp(self, array: str, envs: list, report: ExecutionReport):
        analysis = self.plan.analysis
        if analysis is None or array not in analysis.summaries:
            return
        ls = analysis.summaries[array]
        rw_total = usr_recurrence(ls.index, ls.lower, ls.upper, ls.per_iteration.rw)
        for env in envs:
            report.bounds_overhead += float(estimate_bounds(rw_total, env).iterations)

    def _exact_fallback(
        self,
        array: str,
        aplan: ArrayPlan,
        envs: list,
        report: ExecutionReport,
        traces,
    ) -> ArrayDecision:
        # Hoistable inspector evaluation (its memo models the paper's
        # HOIST-USR loops) or LRPD speculation, per the chosen strategy.
        usr = aplan.exact_usr if self.exact_strategy == "inspector" else None
        if usr is not None:
            try:
                results = [self.inspector.check_empty(usr, env) for env in envs]
            except (KeyError, TypeError, ValueError):
                results = None
            if results is not None:
                report.inspector_overhead += float(sum(r.cost for r in results))
                if all(r.empty for r in results):
                    return ArrayDecision(array, aplan.transform, "inspector")
                return ArrayDecision(array, "dependent", "inspector")
        # LRPD speculation: the marking overhead is proportional to the
        # traced accesses; a misspeculation re-runs the loop serially
        # (charged by ExecutionReport.parallel_time).
        report.used_speculation = True
        verdicts = [lrpd_test(trace) for trace in traces()]
        report.speculation_overhead += float(
            sum(v.traced_accesses for v in verdicts)
        )
        if all(v.success for v in verdicts):
            privatized = any(array in v.privatized for v in verdicts)
            return ArrayDecision(
                array, "private" if privatized else "shared", "speculation"
            )
        report.misspeculated = True
        return ArrayDecision(array, "dependent", "speculation")

    # -- parallel overlay execution ------------------------------------------------
    def _resolve_backend(self, task: LoopTask):
        """The backend that will actually run *task*: the requested one,
        or the sequential reference backend when the request cannot be
        honoured (unavailable in this environment, or structurally
        unsupported -- e.g. a non-vectorizable loop on 'numpy')."""
        requested = get_backend(self.backend)
        if type(requested).available() and requested.supports(task):
            return requested
        return get_backend("sequential")

    def capture_task(self, params: dict, arrays: dict) -> LoopTask:
        """Freeze the target loop of one concrete run as a
        :class:`LoopTask` without executing any backend.

        The task carries the pre-loop memory, the captured iteration
        list and CIV prefixes of the loop's first entry; ``decisions``
        is left empty (callers pick their own merge strategies).
        ``bench/`` times its in-order sequential baseline over exactly
        this task.
        """
        entries, _ = self._capture(params, arrays)
        return entries[0].task

    @staticmethod
    def _note_speculation(report: ExecutionReport, run) -> None:
        """Fold a backend run's speculation outcome into the report."""
        doc = run.speculation
        if doc is None:
            return
        report.used_speculation = True
        report.speculation_overhead += float(doc["traced_accesses"])
        if doc["committed"]:
            report.speculation_commits += 1
        else:
            report.speculation_rollbacks += doc["rollbacks"]
            report.misspeculated = True
        if doc["privatized"]:
            report.speculation_privatized = sorted(
                set(report.speculation_privatized) | set(doc["privatized"])
            )

    def _parallel_execute(
        self,
        params: dict,
        arrays: dict,
        entries: list,
        strategies: dict[str, str],
        report: ExecutionReport,
    ) -> dict[str, list[int]]:
        """Re-run the whole program, delegating the target loop to the
        selected execution backend (iteration-isolated memory, per-array
        merge rules) and recording the real wall-clock cost.  The
        *n*-th time the loop is reached runs the iterations the *n*-th
        entry of the sequential run made, from the re-run's own state."""
        remaining = iter(entries)

        def parallel_hook(machine: Machine, stmt, frame):
            entry = next(remaining, None)
            if entry is None:
                raise RuntimeError(
                    f"loop {self.plan.label!r} entered more often in the "
                    "parallel re-run than in the sequential run"
                )
            iterations = entry.task.iterations
            task = self._loop_task(
                machine, stmt, frame, iterations, entry.task.civ_values,
                strategies,
            )
            task.work = sum(entry.costs)
            backend = self._resolve_backend(task)
            started = time.perf_counter()
            run = backend.execute(task, jobs=self.jobs, chunk=self.chunk)
            report.wall_s += time.perf_counter() - started
            report.backend_used = backend.name
            report.jobs = max(report.jobs, run.jobs)
            report.chunks += run.chunks
            self._note_speculation(report, run)
            machine.arrays = run.arrays
            frame.scalars.update(run.final_scalars)
            if task.index_name is not None and iterations:
                frame.scalars[task.index_name] = iterations[-1]

        return self._run_program(params, arrays, parallel_hook).arrays

    def _speculative_fallback(
        self,
        params: dict,
        arrays: dict,
        entries: list,
        decisions: dict[str, ArrayDecision],
        report: ExecutionReport,
        seq_arrays: dict,
    ) -> ExecutionReport:
        """Run the loop on the speculative backend after the cascade
        failed: commit makes the run parallel after the fact; a conflict
        rolls back and re-executes sequentially (the loop stays correct
        either way, only the timing differs)."""
        strategies = {
            name: ("private" if d.strategy == "dependent" else d.strategy)
            for name, d in decisions.items()
        }
        par_arrays = self._parallel_execute(
            params, arrays, entries, strategies, report
        )
        committed = (
            report.speculation_commits > 0
            and report.speculation_rollbacks == 0
        )
        report.parallel = committed
        report.correct = par_arrays == seq_arrays
        for name, d in decisions.items():
            if d.strategy != "dependent":
                continue
            if committed:
                strategy = (
                    "private"
                    if name in report.speculation_privatized
                    else "shared"
                )
                report.decisions[name] = ArrayDecision(
                    name, strategy, "speculation"
                )
            else:
                report.decisions[name] = ArrayDecision(
                    name, "dependent", "speculation"
                )
        return report

    # -- CIV slice cost ----------------------------------------------------------
    def _civ_slice_fraction(self) -> float:
        """Fraction of body statements in the CIV computation slice.

        Backward slice over scalar names starting from CIV increments and
        the loop/while conditions that guard them; the paper's track
        benchmark pays ~47% because the slice covers most of the body.
        """
        loop = self.program.find_loop(self.plan.label)
        if loop is None:
            return 0.1
        civ_names = {info.name for info in self.plan.civs}
        if self.plan.is_while and isinstance(loop, While):
            civ_names |= expr_scalar_reads(loop.cond)
        relevant: set[str] = set(civ_names)
        body = loop.body
        total, in_slice = _slice_sizes(body, relevant)
        if total == 0:
            return 0.1
        return max(0.05, min(1.0, in_slice / total))


def _civ_names(plan: LoopPlan) -> frozenset[str]:
    return frozenset(info.name for info in plan.civs)


def _slice_sizes(body, relevant: set[str]) -> tuple[int, int]:
    """(total statements, statements in the backward slice of *relevant*).

    Fixpoint over scalar names: a statement is in the slice when it
    assigns a relevant scalar or controls one; its read scalars become
    relevant too.
    """
    def stmts_of(stmts):
        out = []
        for s in stmts:
            out.append(s)
            if isinstance(s, If):
                out.extend(stmts_of(s.then_body))
                out.extend(stmts_of(s.else_body))
            elif isinstance(s, (Do, While)):
                out.extend(stmts_of(s.body))
        return out

    flat = stmts_of(body)
    changed = True
    in_slice: set[int] = set()
    while changed:
        changed = False
        for idx, s in enumerate(flat):
            if idx in in_slice:
                continue
            # it assigns a relevant scalar, or controls a statement that does
            hit = any(
                isinstance(x, AssignScalar) and x.name in relevant
                for x in stmts_of((s,))
            )
            if hit:
                in_slice.add(idx)
                for name in _stmt_reads(s):
                    if name not in relevant:
                        relevant.add(name)
                        changed = True
    return (len(flat), len(in_slice))

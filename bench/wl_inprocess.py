"""The three in-process workloads: ``compile_cold``, ``exec_paper`` and
``exec_kernels``.  One caller, no server; the layers under
``repro.api.Engine`` are measured from outside.

A workload object is prepared (timed by the runner as set-up, possibly
several times), then either measured untraced or given one traced
pass.  Both return ``{"attempted", "failed", "problems", "metrics"}``.
"""

from __future__ import annotations

import time

from benchinputs import (
    kernel_items,
    load_expected,
    load_pool,
    matches,
    paper_items,
    shuffled,
)
from benchlib import (
    HostClock,
    Spans,
    best_item_metrics,
    geomean,
    median,
    peak_rss_mb,
    ratio,
)

from repro.api import AnalyzeRequest, AnalyzeResponse, Engine, EngineConfig
from repro.evaluation import profile
from repro.ir import parse_program
from repro.symbolic.intern import cache_stats, clear_caches

#: the 2-core sizing of every parallel execute
JOBS = 2


def _passes(one_pass, seconds: float, min_passes: int) -> list:
    """Run whole passes until *seconds* have gone by (and at least
    *min_passes*); returns each pass's wall."""
    walls = []
    started = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        one_pass()
        walls.append(time.perf_counter() - t0)
    return walls


def _measured(clock: HostClock) -> dict:
    clock.finish()
    metrics = best_item_metrics(clock.samples)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics


class CompileCold:
    """Cold analysis of the 91 paper loops and the 32 fuzz programs:
    every process-global memo is dropped before *each* item, so an
    item's cost does not depend on what the seed put before it."""

    name = "compile_cold"
    setup_repeats = 3
    #: one pass is ~7.5 s here (one loop alone 2.4 s), so two passes
    #: overrun a ten-second run; one pass would leave nothing to pick
    #: the best of
    min_passes = 2

    def prepare(self, seed: int, quick: bool) -> None:
        items = paper_items() + load_pool("mix")
        if quick:
            items = [i for i in items if i.name.startswith(("swim/", "mix000", "mix001"))]
        self.items = shuffled(items, seed, self.name)
        self.expected = load_expected()
        self.problems: list = []

    def release(self) -> None:
        pass

    def _check(self, item, response) -> None:
        if not matches(self.expected[item.name], response):
            self.problems.append(f"{item.name}: analysis differs from expected.json")

    def measure(self, seconds: float) -> dict:
        clock = HostClock()

        def one_pass():
            engine = Engine(EngineConfig(use_disk_cache=False))
            for item in self.items:
                clear_caches()
                t0 = time.perf_counter()
                response = engine.analyze(AnalyzeRequest(
                    source=item.source, loop=item.loop, options=item.options,
                ))
                clock.record(item.name, time.perf_counter() - t0)
                self._check(item, response)
            engine.close()

        walls = _passes(one_pass, seconds, self.min_passes)
        return {
            "attempted": len(self.items) * len(walls),
            "failed": len(self.problems),
            "problems": self.problems,
            "metrics": _measured(clock),
            "host_factors": clock.factors,
        }

    def traced(self, seconds: float) -> dict:
        """One pass with the kernel profiler on and a harness span
        around each step ``Engine.analyze`` is made of."""
        spans = Spans()
        engine = Engine(EngineConfig(use_disk_cache=False))
        item_walls = []
        source_bytes = tier0 = hits = misses = 0
        pass_start = time.perf_counter()
        with profile.profiling():
            for item in self.items:
                t0 = time.perf_counter()
                with spans.span("item"):
                    with spans.span("clear_caches"):
                        clear_caches()
                    with spans.span("ir.parse"):
                        program = parse_program(item.source)
                    with spans.span("api.compile"):
                        compiled = engine.compile(item.source, program=program)
                    with spans.span("core.plan"):
                        plan = compiled.plan(item.loop, **item.options)
                    with spans.span("api.respond"):
                        response = AnalyzeResponse.from_plan(plan, compiled.digest)
                        response.canonical_text()
                item_walls.append(time.perf_counter() - t0)
                source_bytes += len(item.source.encode())
                tier0 += plan.tier_used == "tier0"
                for memo in cache_stats().values():
                    hits += memo["hits"]
                    misses += memo["misses"]
                self._check(item, response)
        pass_wall = time.perf_counter() - pass_start
        snap = profile.snapshot()
        engine.close()
        timer, calls, count = snap.times.get, snap.calls.get, snap.counts.get
        metrics = {
            "ir.parse_s": spans.total("ir.parse"),
            "ir.parse_bytes_per_s": ratio(source_bytes, spans.total("ir.parse")),
            "ir.summarize_s": timer("analyzer.summarize", 0.0),
            "usr.build_s": timer("usr.build", 0.0),
            "usr.reshape_s": timer("usr.reshape", 0.0),
            "usr.reshape_calls": calls("usr.reshape", 0),
            "symbolic.fm_s": timer("fm.eliminate_symbol", 0.0),
            "symbolic.fm_calls": calls("fm.eliminate_symbol", 0),
            "symbolic.free_symbols_computes": count("expr.free_symbols.compute", 0),
            "symbolic.memo_hit_frac": ratio(hits, hits + misses),
            "lmad.disjoint_s": timer("lmad.disjoint_sets", 0.0),
            "lmad.included_s": timer("lmad.included_sets", 0.0),
            "lmad.disjoint_pairs": count("lmad.disjoint_pairs", 0),
            "lmad.disjoint_pairs_fast": count("lmad.disjoint_pairs_fast", 0),
            "lmad.included_pairs": count("lmad.included_pairs", 0),
            "pdag.simplify_s": timer("pdag.simplify", 0.0),
            "core.plan_s": spans.total("core.plan"),
            "core.factor_s": timer("core.factor", 0.0),
            "core.screen_s": timer("core.screen_static", 0.0),
            "core.tier0_frac": tier0 / len(self.items),
            "core.top2_share": sum(sorted(item_walls)[-2:]) / pass_wall,
            "api.compile_s": spans.total("api.compile"),
            "api.respond_s": spans.total("api.respond"),
            "gen.span_cover_frac": spans.top_level_total() / pass_wall,
        }
        return {
            "attempted": len(self.items),
            "failed": len(self.problems),
            "problems": self.problems,
            "metrics": metrics,
            "spans": spans.records,
        }


class Execute:
    """Warm-plan execution of a fixed item list, each item on the
    backend it names.  ``exec_paper`` and ``exec_kernels`` differ only
    in their items."""

    setup_repeats = 2
    min_passes = 3

    def __init__(self, name: str):
        self.name = name
        self.engine = None

    def prepare(self, seed: int, quick: bool) -> None:
        if self.name == "exec_paper":
            items = paper_items()
            if quick:
                items = [i for i in items if i.name.startswith("swim/")]
            warm_up = items[:8]
        else:
            items = kernel_items(seed, quick)
            # spin the process pool up on small inputs
            warm_up = kernel_items(seed, quick=True)
        self.expected = load_expected()
        self.problems: list = []
        clear_caches()
        self.engine = Engine(EngineConfig(use_disk_cache=False))
        self.items = shuffled(items, seed, self.name)
        for item in self.items:
            self.engine.compile(item.source).plan(item.loop)
        for item in warm_up:
            self._execute(item)

    def release(self) -> None:
        if self.engine is not None:
            self.engine.close()

    def _execute(self, item):
        return self.engine.compile(item.source).execute(
            item.loop, item.params, item.arrays,
            backend=item.backend, jobs=JOBS, exact_strategy=item.strategy,
        )

    def _check(self, item, report) -> None:
        """Every execute must match the in-order interpreter (the
        executor's own comparison), run in parallel exactly when the
        paper's system did, and commit or roll back as the data says."""
        if not report.correct:
            self.problems.append(f"{item.name}: result differs from the interpreter")
        paper = self.expected.get(item.name, {}).get("paper_parallel")
        if paper is not None and report.parallel != paper:
            self.problems.append(
                f"{item.name}: parallel={report.parallel}, the paper says {paper}"
            )
        outcome = (report.speculation_commits, report.speculation_rollbacks)
        if item.expect and outcome != ((1, 0) if item.expect == "commit" else (0, 1)):
            self.problems.append(
                f"{item.name}: expected {item.expect}, got "
                f"commits/rollbacks={outcome}"
            )

    def measure(self, seconds: float) -> dict:
        clock = HostClock()

        def one_pass():
            for item in self.items:
                t0 = time.perf_counter()
                report = self._execute(item)
                clock.record(item.name, time.perf_counter() - t0)
                self._check(item, report)

        walls = _passes(one_pass, seconds, self.min_passes)
        return {
            "attempted": len(self.items) * len(walls),
            "failed": len(self.problems),
            "problems": self.problems,
            "metrics": _measured(clock),
            "host_factors": clock.factors,
        }

    def _cascade_pass(self, item, task) -> tuple:
        """Evaluate the plan's runtime cascades on the environment
        ``HybridExecutor.run`` builds in its step 2, rebuilt here from
        the captured task; returns (cascades run, cascades passed)."""
        plan = self.engine.compile(item.source).plan(item.loop)
        civs = {info.name for info in plan.civs}
        analysis = plan.analysis
        if plan.approximate or (analysis and analysis.scalar_flow_deps - civs):
            return 0, 0  # the executor never reaches its predicates
        env = dict(task.params)
        env.update(task.pre_scalars)
        env.update(task.pre_arrays)
        for info in plan.civs:
            env[info.prefix_array] = task.civ_values[info.name]
        if plan.is_while and plan.trip_symbol:
            env[plan.trip_symbol] = len(task.iterations)
        ran = passed = 0
        for aplan in plan.arrays.values():
            if aplan.needs_exact:
                continue
            cascades = [c for _, c in aplan.runtime_cascades()]
            if aplan.transform == "reduction" and aplan.rred is not None:
                cascades.append(aplan.rred)
            for cascade in cascades:
                ran += 1
                if not cascade.evaluate(env).passed:
                    break
                passed += 1
        return ran, passed

    def traced(self, seconds: float) -> dict:
        """Passes of three spans per item: the in-order interpreter
        (the honest baseline), the cascades alone, and the execute."""
        spans = Spans()
        totals = dict.fromkeys((
            "ran", "passed", "backend_s", "test_steps",
            "inspector_steps", "spec_accesses", "chunks", "fallbacks",
            "commits", "rollbacks",
        ), 0)
        by_backend: dict = {}
        speedups = []
        rollback_loss = []
        counters = {"cascade.runs": 0, "cascade.leaf_evals": 0}
        passes = 0

        def one_pass():
            nonlocal passes
            passes += 1
            for item in self.items:
                with spans.span("item"):
                    executor = self.engine.compile(item.source).executor(
                        item.loop, backend=item.backend
                    )
                    t0 = time.perf_counter()
                    with spans.span("runtime.groundtruth"):
                        task = executor.capture_task(item.params, item.arrays)
                    inorder_s = time.perf_counter() - t0
                    with spans.span("runtime.cascade_eval"):
                        ran, passed = self._cascade_pass(item, task)
                    with spans.span("execute"), profile.profiling():
                        report = self._execute(item)
                    counts = profile.snapshot().counts
                    for name in counters:
                        counters[name] += counts.get(name, 0)
                self._check(item, report)
                totals["ran"] += ran
                totals["passed"] += passed
                totals["test_steps"] += report.test_overhead
                totals["inspector_steps"] += report.inspector_overhead
                totals["spec_accesses"] += report.speculation_overhead
                totals["commits"] += report.speculation_commits
                totals["rollbacks"] += report.speculation_rollbacks
                totals["chunks"] += report.chunks
                if not report.wall_s:
                    continue  # the loop stayed sequential: no backend ran
                totals["backend_s"] += report.wall_s
                if report.backend_used != item.backend:
                    totals["fallbacks"] += 1
                    continue  # the reference backend's time is nobody's
                used = by_backend.setdefault(report.backend_used, [0.0, 0])
                used[0] += report.wall_s
                used[1] += len(report.iteration_costs)
                if item.expect == "rollback":
                    rollback_loss.append(report.wall_s / inorder_s)
                else:
                    speedups.append(inorder_s / report.wall_s)

        pass_walls = _passes(one_pass, seconds / 2, 1)
        execute_s = spans.total("execute")
        groundtruth_s = spans.total("runtime.groundtruth")
        metrics = {
            "pdag.cascade_runs": counters["cascade.runs"] / passes,
            "pdag.cascade_leaf_evals": counters["cascade.leaf_evals"] / passes,
            "runtime.groundtruth_s": groundtruth_s / passes,
            "runtime.cascade_eval_s": spans.total("runtime.cascade_eval") / passes,
            "runtime.cascade_pass_frac": ratio(totals["passed"], totals["ran"]),
            "runtime.rtov_frac": ratio(
                spans.total("runtime.cascade_eval"), totals["backend_s"]
            ),
            "runtime.test_steps": totals["test_steps"] / passes,
            "runtime.inspector_steps": totals["inspector_steps"] / passes,
            "runtime.spec_traced_accesses": totals["spec_accesses"] / passes,
            # the execute runs the interpreter once itself, which the
            # separately timed in-order run stands in for
            "runtime.execute_overhead_s": (
                execute_s - groundtruth_s - totals["backend_s"]
            ) / passes,
            "runtime.speedup_vs_inorder": geomean(speedups) if speedups else 0.0,
            "backends.chunks": totals["chunks"] / passes,
            "backends.fallbacks": totals["fallbacks"] / passes,
            "backends.spec_commits": totals["commits"] / passes,
            "backends.spec_rollbacks": totals["rollbacks"] / passes,
            "backends.rollback_loss": median(rollback_loss) if rollback_loss else 0.0,
            "gen.span_cover_frac": spans.top_level_total() / sum(pass_walls),
        }
        for backend, (wall_s, trips) in by_backend.items():
            metrics[f"backends.{backend}_s"] = wall_s / passes
            metrics[f"backends.{backend}_iter_per_s"] = trips / wall_s
        return {
            "attempted": len(self.items) * passes,
            "failed": len(self.problems),
            "problems": self.problems,
            "metrics": metrics,
            "spans": spans.records,
        }


def make(name: str):
    return CompileCold() if name == "compile_cold" else Execute(name)

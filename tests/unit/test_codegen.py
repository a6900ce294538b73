"""Unit tests for the Section 5 test-schedule generation."""

from repro.api import default_engine
from repro.core import HybridAnalyzer
from repro.core.codegen import format_schedule, generate_schedule
from repro.ir import parse_program
from repro.workloads import get_benchmark


def _plan(body, decls="param N, K1, K2\narray A(512), B(512)"):
    prog = parse_program(f"program t\n{decls}\n\nmain\n{body}\nend\n")
    return default_engine().compile(prog).plan("l")


class TestSchedule:
    def test_cheapest_first(self):
        spec = get_benchmark("dyfesm")
        plan = HybridAnalyzer(spec.program).analyze("solvh_do20")
        schedule = generate_schedule(plan)
        ranks = [0 if t.complexity == "O(1)" else (1 if t.complexity == "O(N)" else 2)
                 for t in schedule.tests]
        assert ranks == sorted(ranks)

    def test_static_loop_has_no_tests(self):
        plan = _plan("""
  do i = 1, N @ l
    A[i] = B[i] + 1
  end
""")
        schedule = generate_schedule(plan)
        assert not schedule.tests
        assert not schedule.precomputed

    def test_predicate_loop_lists_inputs(self):
        plan = _plan("""
  do i = 1, N @ l
    A[K1 + i] = A[K2 + i] + 1
  end
""")
        schedule = generate_schedule(plan)
        assert schedule.tests
        all_inputs = set()
        for t in schedule.tests:
            all_inputs |= t.inputs
        assert {"K1", "K2"} <= all_inputs

    def test_parallel_reduction_marked(self):
        plan = _plan("""
  do i = 1, N @ l
    A[B[i] + 1] = A[B[i] + 1] + 1
  end
""")
        schedule = generate_schedule(plan)
        on = [t for t in schedule.tests if t.complexity != "O(1)"]
        assert on and all(t.parallel_reduction for t in on)

    def test_civ_precompute_listed(self):
        spec = get_benchmark("track")
        plan = HybridAnalyzer(spec.program).analyze("extend_do400")
        schedule = generate_schedule(plan)
        assert any(name.startswith("$civ_") for name in schedule.precomputed)
        assert any(name.startswith("$trips_") for name in schedule.precomputed)

    def test_bounds_comp_listed(self):
        spec = get_benchmark("gromacs")
        plan = HybridAnalyzer(spec.program).analyze("inl1130_do1")
        schedule = generate_schedule(plan)
        assert "F" in schedule.bounds_comp

    def test_format_is_printable(self):
        spec = get_benchmark("dyfesm")
        plan = HybridAnalyzer(spec.program).analyze("solvh_do20")
        text = format_schedule(generate_schedule(plan))
        assert "runtime tests for loop solvh_do20" in text
        assert "run parallel ELSE run sequential" in text

    def test_schedule_is_deduplicated(self):
        """A predicate stage shared between the flow and output cascades
        of one array (or repeated across stages) is emitted once per
        (array, kind, complexity)."""
        spec = get_benchmark("dyfesm")
        plan = HybridAnalyzer(spec.program).analyze("solvh_do20")
        schedule = generate_schedule(plan)
        keys = [(t.array, t.kind, t.complexity) for t in schedule.tests]
        assert len(keys) == len(set(keys))

    def test_ranks_are_dense_and_ordered(self):
        spec = get_benchmark("dyfesm")
        plan = HybridAnalyzer(spec.program).analyze("solvh_do20")
        schedule = generate_schedule(plan)
        assert [t.rank for t in schedule.tests] == sorted(
            t.rank for t in schedule.tests
        )

    def test_cheapest_first_synthetic(self):
        """A loop with both an O(1)-testable offset pair and an
        indirection-driven stage orders O(1) before the rest."""
        plan = _plan("""
  do i = 1, N @ l
    A[K1 + i] = A[K2 + i] + B[B[i] + 1]
  end
""")
        schedule = generate_schedule(plan)
        labels = schedule.ordered_kinds()
        assert labels == sorted(labels, key=lambda l: {"O(1)": 0, "O(N)": 1}.get(l, 2))

    def test_stable_across_hash_consing_runs(self):
        """Cold-start and warm-cache analysis must emit bit-identical
        schedules: clear every interning/memo table, re-parse, re-plan,
        and compare the full RuntimeTest lists."""
        from repro.symbolic.intern import clear_caches

        def build():
            prog = parse_program(
                "program t\nparam N, K1, K2\narray A(512), B(512)\n\nmain\n"
                "  do i = 1, N @ l\n"
                "    A[K1 + i] = A[K2 + i] + B[i]\n"
                "  end\nend\nend\n"
            )
            return generate_schedule(default_engine().compile(prog).plan("l"))

        warm = build()
        clear_caches()
        cold = build()
        assert cold.tests == warm.tests
        assert cold.precomputed == warm.precomputed
        assert cold.bounds_comp == warm.bounds_comp
        assert cold.exact_fallback == warm.exact_fallback
        assert format_schedule(cold) == format_schedule(warm)

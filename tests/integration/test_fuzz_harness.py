"""Integration tests of the differential-fuzzing harness: the oracle's
verdict logic, the shrinker, the per-seed verdict cache, and soundness
smoke/soak sweeps over seed ranges."""

import pytest

from repro.fuzz import (
    FuzzCache,
    GeneratorConfig,
    format_fuzz_report,
    generate_case,
    run_case,
    run_fuzz,
    run_seed,
    shrink_case,
)
from repro.evaluation.cli import main
from repro.fuzz.oracle import FAILING_OUTCOMES, OUTCOMES, CaseResult
from repro.ir import parse_program
from repro.ir.ast import AssignArray, BinOp, Num, Var


def _case_from(source, params, arrays, exact_strategy="inspector"):
    from repro.fuzz.generator import FuzzCase

    return FuzzCase(
        seed=0,
        program=parse_program(source),
        source=source,
        params=params,
        arrays=arrays,
        label="fuzz_loop",
        exact_strategy=exact_strategy,
    )


class TestOracleVerdicts:
    def test_independent_loop_is_sound_parallel(self):
        case = _case_from(
            "program p\nparam N\narray A(20), B(20)\nmain\n"
            "do i = 1, N @ fuzz_loop\nA[i] = B[i] + 1\nend\nend\nend\n",
            {"N": 8},
            {"A": [0] * 20, "B": list(range(20))},
        )
        result = run_case(case)
        assert result.outcome == "sound-parallel"
        assert result.parallel
        assert result.dependent is False

    def test_flow_dependent_loop_is_sound_sequential(self):
        case = _case_from(
            "program p\nparam N\narray A(20)\nmain\n"
            "do i = 2, N @ fuzz_loop\nA[i] = A[i - 1] + 1\nend\nend\nend\n",
            {"N": 8},
            {"A": [0] * 20},
        )
        result = run_case(case)
        assert result.outcome == "sound-sequential"
        assert result.dependent is True

    def test_crash_is_reported_with_layer(self):
        # Out-of-bounds write: the interpreter faults, and the oracle
        # attributes the crash instead of raising.
        case = _case_from(
            "program p\nparam N\narray A(3)\nmain\n"
            "do i = 1, N @ fuzz_loop\nA[i] = i\nend\nend\nend\n",
            {"N": 9},
            {"A": [0] * 3},
        )
        result = run_case(case)
        assert result.outcome == "crash"
        assert "interpreter:" in result.detail or "executor:" in result.detail

    def test_outcomes_vocabulary_is_closed(self):
        for seed in range(30):
            assert run_seed(seed).outcome in OUTCOMES


class TestShrinker:
    def test_shrinks_crash_to_minimal_program(self):
        source = (
            "program p\nparam N\narray A(3), B(50)\nmain\n"
            "t = 1\n"
            "do i = 1, N @ fuzz_loop\n"
            "B[i] = i\n"
            "if (i > 1) then\nB[i + 1] = 0\nend\n"
            "A[i + 3] = i\n"  # the actual out-of-bounds site
            "end\nend\nend\n"
        )
        case = _case_from(source, {"N": 4}, {"A": [0] * 3, "B": [0] * 50})
        baseline = run_case(case)
        assert baseline.outcome == "crash"
        shrunk = shrink_case(case)
        assert shrunk.outcome == "crash"
        # The unrelated statements must be gone.
        assert "B[i]" not in shrunk.case.source
        assert "if" not in shrunk.case.source
        assert shrunk.stmts_after < shrunk.stmts_before
        assert "seed 0" in shrunk.provenance
        # The minimized program still reproduces.
        assert run_case(shrunk.case).outcome == "crash"

    def test_shrink_preserves_target_loop(self):
        case = generate_case(11)
        shrunk = shrink_case(case, budget=60)
        assert shrunk.case.program.find_loop("fuzz_loop") is not None

    def test_literal_pass_replaces_the_literal_it_enumerated(self):
        """``A[i + 2] = 100`` under an oracle that keeps the case while the
        stored literal is >= 50: the index literal shrinks to 1 and the
        stored one to 50, in a handful of oracle calls.  Enumeration and
        replacement must visit literals in one order; otherwise the pass
        rewrites one literal while shrinking the value of another, never
        tries 50, and spends the whole budget on no-op candidates."""
        source = (
            "program p\nparam N\narray A(20)\nmain\n"
            "do i = 1, N @ fuzz_loop\nA[i + 2] = 100\nend\nend\nend\n"
        )
        case = _case_from(source, {"N": 4}, {"A": [0] * 20})

        def store(c):
            for s in c.program.find_loop(c.label).body:
                if isinstance(s, AssignArray) and isinstance(s.expr, Num):
                    return s
            return None

        def oracle(c):
            s = store(c)
            keep = s is not None and s.expr.value >= 50
            return CaseResult(
                seed=c.seed, outcome="unsound" if keep else "sound-parallel"
            )

        shrunk = shrink_case(case, oracle=oracle)
        s = store(shrunk.case)
        assert s.expr == Num(50)
        assert s.index == BinOp("+", Var("i"), Num(1))
        assert shrunk.oracle_calls < 40


class TestFuzzDriverAndCache:
    def test_run_fuzz_counts_and_format(self):
        report = run_fuzz(seeds=12, jobs=2)
        assert len(report.results) == 12
        assert sum(report.counts.values()) == 12
        text = format_fuzz_report(report)
        assert "Differential fuzzing: 12 seed(s)" in text
        assert "soundness:" in text
        assert "classifications:" in text
        assert "decision step: inspector reached" in text

    @pytest.mark.parametrize("backend", ["sequential", "thread"])
    def test_the_fuzz_reaches_the_inspector(self, backend):
        """Seeds 0-49 send at least one array to the inspector's exact
        test, so the fuzz legs exercise its generated code.  (They send
        none to BOUNDS-COMP: not gated here.)"""
        report = run_fuzz(seeds=50, jobs=2, backend=backend)
        assert report.ok, format_fuzz_report(report)
        assert report.inspector_reached >= 1

    def test_the_speculative_leg_reports_its_marked_runs(self, capsys):
        """Seeds 0-49 on the speculative backend: every marked run took
        a route, some committed in place and some conflicts went to the
        isolated run; ``repro-eval fuzz`` prints the counts.  (All these
        loops are short: the pooled routes are the gate matrix's to reach,
        tests/property/test_speculation_backend_props.py.)"""
        report = run_fuzz(seeds=50, jobs=2, backend="speculative", backend_jobs=2)
        assert report.ok, format_fuzz_report(report)
        routes = report.spec_inline + report.spec_thread + report.spec_process
        assert routes >= report.spec_in_place + report.spec_rejudged > 0
        assert report.spec_in_place >= 1 and report.spec_rejudged >= 1
        assert (
            f"speculative marked run: inline {report.spec_inline}, thread pool "
            f"{report.spec_thread}, process pool {report.spec_process}; committed "
            f"in place {report.spec_in_place}, re-judged by the isolated run "
            f"{report.spec_rejudged}"
        ) in format_fuzz_report(report)
        assert main(["fuzz", "--seeds", "4", "--jobs", "2", "--no-cache",
                     "--backend", "speculative", "--chunk", "dynamic:1"]) == 0
        assert "speculative marked run: inline" in capsys.readouterr().out

    def test_the_thread_leg_runs_chunks_in_place(self, capsys):
        """Seeds 0-49 on ``thread``: the all-``shared`` tasks' chunks
        write one target in place, the others are diffed or recorded;
        most parallel runs match the in-order run's state at the loop's
        exit, at least one execute goes to the whole-program re-run, and
        none is unsound.  ``repro-eval fuzz`` prints the counts; the
        chunks' are fixed, each entry of each seed's loop running its
        backend exactly once."""
        report = run_fuzz(seeds=50, jobs=2, backend="thread", backend_jobs=2)
        assert report.ok, format_fuzz_report(report)
        assert report.arbiter_runs >= 1 and report.entries_verified >= 1
        text = format_fuzz_report(report)
        assert "chunks copied out: in place 25, by diff 4, by record 4" in text
        assert (
            f"loop exits: {report.entries_verified} entries matched the in-order "
            f"run, {report.arbiter_runs} execute(s) re-run whole"
        ) in text
        assert main(["fuzz", "--seeds", "4", "--jobs", "2", "--no-cache",
                     "--backend", "thread", "--chunk", "dynamic:1"]) == 0
        out = capsys.readouterr().out
        assert "chunks copied out: in place" in out and "loop exits:" in out

    def test_verdicts_are_cached_and_stable(self, tmp_path):
        cache = FuzzCache(str(tmp_path))
        cold = run_fuzz(seeds=6, jobs=2, cache=cache)
        warm = run_fuzz(seeds=6, jobs=2, cache=cache)
        assert warm.cache_hits == 6
        for a, b in zip(cold.results, warm.results):
            assert (a.seed, a.outcome, a.classification) == (
                b.seed, b.outcome, b.classification,
            )

    def test_cache_key_depends_on_config(self, tmp_path):
        cache = FuzzCache(str(tmp_path))
        a = GeneratorConfig()
        b = GeneratorConfig(max_trip=5)
        assert cache.seed_key(1, a) != cache.seed_key(1, b)
        assert cache.seed_key(1, a) != cache.seed_key(2, a)

    def test_seed_start_selects_range(self):
        report = run_fuzz(seeds=3, seed_start=20, jobs=1)
        assert [r.seed for r in report.results] == [20, 21, 22]


class TestSoundnessSweep:
    def test_smoke_no_soundness_violations(self):
        """Fast tier-1 guard: the first 25 seeds stay sound."""
        report = run_fuzz(seeds=25, jobs=4)
        assert report.ok, format_fuzz_report(report)

    @pytest.mark.slow
    def test_soak_no_soundness_violations(self):
        """Slow soak (excluded from -m 'not slow'): a wide seed range
        must produce zero unsound/crash verdicts."""
        report = run_fuzz(seeds=150, seed_start=1000, jobs=4)
        failing = [r for r in report.results if r.outcome in FAILING_OUTCOMES]
        assert not failing, format_fuzz_report(report, verbose_failures=10)

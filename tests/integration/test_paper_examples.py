"""Integration tests for the paper's worked examples (Sections 1.2-4)."""

import pytest

from repro.api import default_engine
from repro.core import HybridAnalyzer
from repro.ir import parse_program
from repro.runtime import CostModel, HybridExecutor
from repro.workloads import get_benchmark


class TestSolvhDo20:
    """The Section 1.2 running example (dyfesm's SOLVH_DO20)."""

    @pytest.fixture(scope="class")
    def setup(self):
        spec = get_benchmark("dyfesm")
        plan = HybridAnalyzer(spec.program).analyze("solvh_do20")
        return spec, plan

    def test_classified_with_runtime_predicates(self, setup):
        _, plan = setup
        assert plan.classification().startswith(("F/OI", "FI", "OI"))

    def test_xe_privatized(self, setup):
        """XE's per-iteration writes are loop-invariant: privatization
        with last-value (the paper's SLV treatment)."""
        _, plan = setup
        assert plan.arrays["XE"].transform == "private"

    def test_xe_flow_predicate_matches_paper(self, setup):
        """Fig. 4: F = SYM != 1  and  NS <= 16*NP."""
        _, plan = setup
        cascade = plan.arrays["XE"].flow
        base = {"N": 2, "IA": [1] * 64, "IB": [1, 3] + [0] * 62}
        ok = dict(base, SYM=0, NS=16, NP=1)
        sym_bad = dict(base, SYM=1, NS=16, NP=1)
        ns_bad = dict(base, SYM=0, NS=17, NP=1)
        assert cascade.evaluate(ok).passed
        assert not cascade.evaluate(sym_bad).passed
        assert not cascade.evaluate(ns_bad).passed

    def test_executes_parallel_and_correct(self, setup):
        spec, plan = setup
        params, arrays = spec.dataset(1)
        report = HybridExecutor(spec.program, plan).run(params, arrays)
        assert report.parallel and report.correct

    def test_overlapping_slots_still_correct(self, setup):
        """With colliding IB slots the predicates fail; the runtime must
        fall back to something that is still correct."""
        spec, plan = setup
        params, arrays = spec.dataset(1)
        arrays = dict(arrays)
        arrays["IB"] = [1] * 64  # all iterations hit the same HE slots
        report = HybridExecutor(spec.program, plan).run(params, arrays)
        assert report.correct


class TestMonotonicityExamples:
    def test_fig3b_output_independence(self):
        """Fig. 3(b): HE's output independence via the monotone predicate
        AND_i NS <= 32*(IB(i+1)-IA(i)-IB(i)+1)."""
        src = """
program t
param N, NS
array HE(40960), IA(64), IB(64)
main
  do i = 1, N @ l
    do k = 1, IA[i]
      do j = 1, NS
        HE[32*(IB[i] + k - 2) + j] = j
      end
    end
  end
end
"""
        prog = parse_program(src)
        plan = default_engine().compile(prog).plan("l")
        he = plan.arrays["HE"]
        cascade = he.output if he.output is not None else he.flow
        assert cascade is not None
        good = {"N": 3, "NS": 16, "IA": [2] * 64,
                "IB": [1, 3, 5] + [0] * 61}
        bad = {"N": 3, "NS": 200, "IA": [2] * 64,
               "IB": [1, 1, 1] + [0] * 61}
        assert cascade.evaluate(good).passed
        assert not cascade.evaluate(bad).passed

    def test_footnote5_reduction_monotonicity(self):
        """Section 4 footnote: B(i) < B(i+1) proves the reduction's
        updates independent (RRED upgrades to direct access)."""
        src = """
program t
param N
array A(256), B(64), W(64)
main
  do i = 1, N @ l
    A[B[i]] = A[B[i]] + W[i]
  end
end
"""
        prog = parse_program(src)
        plan = default_engine().compile(prog).plan("l")
        rred = plan.arrays["A"].rred
        assert rred is not None
        mono = {"N": 4, "B": [1, 5, 9, 13] + [0] * 60, "W": [1] * 64,
                "A": [0] * 256}
        dup = {"N": 4, "B": [1, 5, 1, 5] + [0] * 60, "W": [1] * 64,
               "A": [0] * 256}
        assert rred.evaluate(mono).passed
        assert not rred.evaluate(dup).passed


class TestCivExample:
    """Fig. 7(b): CORREC_DO401-style conditionally incremented IV."""

    def test_civagg_static_output_independence(self):
        spec = get_benchmark("bdna")
        plan = HybridAnalyzer(spec.program).analyze("actfor_do240")
        assert plan.classification() == "CIVagg"
        assert plan.civs and plan.civs[0].name == "civ"

    def test_execution_with_civ_comp(self):
        spec = get_benchmark("bdna")
        plan = HybridAnalyzer(spec.program).analyze("actfor_do240")
        params, arrays = spec.dataset(1)
        report = HybridExecutor(spec.program, plan).run(params, arrays)
        assert report.parallel and report.correct
        assert report.civ_overhead > 0  # the CIV-COMP slice is paid


class TestUmegExample:
    """Fig. 9(b): TRANX2_DO2100 needs the UMEG-preserving reshaping."""

    def test_with_reshaping_o1_predicate(self):
        spec = get_benchmark("zeusmp")
        plan = HybridAnalyzer(spec.program).analyze("tranx2_do2100")
        d = plan.arrays["D"]
        cascades = [c for _k, c in d.runtime_cascades()]
        assert cascades
        params, arrays = spec.dataset(1)
        env = dict(params)
        env.update({k: list(v) for k, v in arrays.items()})
        env.setdefault("E", [0] * 32768)
        assert any(c.evaluate(env).passed for c in cascades)

    def test_execution(self):
        spec = get_benchmark("zeusmp")
        plan = HybridAnalyzer(spec.program).analyze("tranx2_do2100")
        params, arrays = spec.dataset(1)
        report = HybridExecutor(spec.program, plan).run(params, arrays)
        assert report.parallel and report.correct


class TestBoundsCompExample:
    """Fig. 7(a): gromacs's reduction with unknown array bounds."""

    def test_bounds_comp_planned(self):
        spec = get_benchmark("gromacs")
        plan = HybridAnalyzer(spec.program).analyze("inl1130_do1")
        assert plan.arrays["F"].needs_bounds_comp
        assert "BOUNDS-COMP" in plan.techniques()

    def test_bounds_overhead_scales_with_iterations(self):
        spec = get_benchmark("gromacs")
        plan = HybridAnalyzer(spec.program).analyze("inl1130_do1")
        ex = HybridExecutor(spec.program, plan)
        p1, a1 = spec.dataset(1)
        p2, a2 = spec.dataset(2)
        r1 = ex.run(p1, a1)
        r2 = ex.run(p2, a2)
        assert r1.correct and r2.correct
        assert r2.bounds_overhead > r1.bounds_overhead > 0


class TestTrackCivComp:
    """Section 6.2: track's while loops need CIV-COMP; the slice is
    nearly as expensive as the loop (paper: 47% overhead)."""

    def test_while_loop_parallelized(self):
        spec = get_benchmark("track")
        plan = HybridAnalyzer(spec.program).analyze("extend_do400")
        assert plan.is_while
        params, arrays = spec.dataset(1)
        report = HybridExecutor(spec.program, plan).run(params, arrays)
        assert report.parallel and report.correct

    def test_slice_overhead_substantial(self):
        spec = get_benchmark("track")
        plan = HybridAnalyzer(spec.program).analyze("extend_do400")
        params, arrays = spec.dataset(1)
        report = HybridExecutor(spec.program, plan).run(params, arrays)
        cost = CostModel(spawn_overhead=1)
        assert report.rtov(4, cost) > 0.15  # large, track-style overhead

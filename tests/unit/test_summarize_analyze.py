"""Unit tests for the summarizer and the hybrid analyzer on small kernels."""

import pytest

from repro.api import default_engine
from repro.core import HybridAnalyzer
from repro.ir import parse_program, summarize_loop


def _prog(body, decls="param N\narray A(512), B(512), C(512)"):
    return parse_program(f"program t\n{decls}\n\nmain\n{body}\nend\n")


class TestSummarizer:
    def test_simple_write_read(self):
        prog = _prog("""
  do i = 1, N @ l
    A[i] = B[i] + 1
  end
""")
        inp = summarize_loop(prog, "l")
        assert set(inp.summaries) == {"A", "B"}
        a = inp.summaries["A"]
        assert a.aggregate.wf.evaluate({"N": 3}) == {1, 2, 3}
        b = inp.summaries["B"]
        assert b.aggregate.ro.evaluate({"N": 3}) == {1, 2, 3}

    def test_gated_access(self):
        prog = _prog("""
  do i = 1, N @ l
    if C[i] > 0 then
      A[i] = 1
    end
  end
""")
        inp = summarize_loop(prog, "l")
        wf = inp.summaries["A"].aggregate.wf
        assert wf.evaluate({"N": 3, "C": [1, 0, 1]}) == {1, 3}

    def test_reduction_detected(self):
        prog = _prog("""
  do i = 1, N @ l
    A[B[i]] = A[B[i]] + C[i]
  end
""")
        inp = summarize_loop(prog, "l")
        assert "A" in inp.reductions
        assert not inp.reductions["A"].has_other_writes

    def test_ext_rred_shape(self):
        prog = _prog("""
  do i = 1, N @ l
    A[i] = C[i]
    A[256 + B[i]] = A[256 + B[i]] + 1
  end
""")
        inp = summarize_loop(prog, "l")
        assert inp.reductions["A"].has_other_writes

    def test_civ_detection(self):
        prog = _prog("""
  civ = 0
  do i = 1, N @ l
    if B[i] > 0 then
      do j = 1, B[i]
        A[civ + j] = i
      end
      civ = civ + B[i]
    end
  end
""")
        inp = summarize_loop(prog, "l")
        assert len(inp.civs) == 1
        assert inp.civs[0].name == "civ"
        assert inp.civs[0].prefix_array in inp.monotone_arrays

    def test_scalar_flow_dep_detected(self):
        prog = _prog("""
  t = 0
  do i = 1, N @ l
    t = t * 2 + B[i]
    A[i] = t
  end
""")
        inp = summarize_loop(prog, "l")
        assert "t" in inp.scalar_flow_deps

    def test_local_scalar_not_dep(self):
        prog = _prog("""
  do i = 1, N @ l
    t = B[i] * 2
    A[i] = t
  end
""")
        inp = summarize_loop(prog, "l")
        assert "t" not in inp.scalar_flow_deps

    def test_interprocedural_translation(self):
        prog = parse_program("""
program t
param N
array A(512)
subroutine f(X[], v)
  X[1] = v
  X[2] = v + 1
end
main
  do i = 1, N @ l
    call f(A[] + (i-1)*2, i)
  end
end
""")
        inp = summarize_loop(prog, "l")
        wf = inp.summaries["A"].aggregate.wf
        assert wf.evaluate({"N": 3}) == {1, 2, 3, 4, 5, 6}

    def test_intraprocedural_mode_clobbers(self):
        prog = parse_program("""
program t
param N
array A(512)
subroutine f(X[])
  X[1] = 0
end
main
  do i = 1, N @ l
    call f(A[] + i)
  end
end
""")
        inp = summarize_loop(prog, "l", interprocedural=False)
        assert inp.approximate

    def test_while_loop_summary(self):
        prog = _prog("""
  i = 1
  while i <= N @ l
    A[i] = 2
    i = i + 1
  end
""")
        inp = summarize_loop(prog, "l")
        assert inp.is_while
        assert inp.trip_symbol is not None


class TestAnalyzer:
    def test_static_parallel(self):
        prog = _prog("""
  do i = 1, N @ l
    A[i] = B[i] + B[i+1]
  end
""")
        plan = default_engine().compile(prog).plan("l")
        assert plan.classification() == "STATIC-PAR"
        assert plan.static_parallel()

    def test_privatization_plan(self):
        prog = _prog("""
  do i = 1, N @ l
    do j = 1, 4
      C[j] = B[(i-1)*4 + j]
    end
    do j = 1, 4
      A[(i-1)*4 + j] = C[j]
    end
  end
""")
        plan = default_engine().compile(prog).plan("l")
        assert plan.arrays["C"].transform == "private"
        assert "PRIV" in plan.techniques()
        assert plan.classification() == "STATIC-PAR"

    def test_runtime_flow_predicate(self):
        prog = _prog("""
  do i = 1, N @ l
    A[K1 + i] = A[K2 + i] + 1
  end
""", decls="param N, K1, K2\narray A(512)")
        plan = default_engine().compile(prog).plan("l")
        assert plan.classification().startswith("FI")
        assert plan.arrays["A"].flow is not None

    def test_scalar_dep_is_static_seq(self):
        prog = _prog("""
  t = 0
  do i = 1, N @ l
    t = t * 2 + B[i]
    A[i] = t
  end
""")
        plan = default_engine().compile(prog).plan("l")
        assert plan.classification() == "STATIC-SEQ"

    def test_civ_loop_classified(self):
        prog = _prog("""
  civ = 0
  do i = 1, N @ l
    if B[i] > 0 then
      do j = 1, B[i]
        A[civ + j] = i
      end
      civ = civ + B[i]
    end
  end
""")
        plan = default_engine().compile(prog).plan("l")
        assert plan.classification() == "CIVagg"
        assert "CIV-COMP" in plan.techniques()

    def test_reduction_plan(self):
        prog = _prog("""
  do i = 1, N @ l
    A[B[i]] = A[B[i]] + C[i]
  end
""")
        plan = default_engine().compile(prog).plan("l")
        assert plan.arrays["A"].transform == "reduction"

    def test_monotone_index_reduction_predicate(self):
        prog = _prog("""
  do i = 1, N @ l
    do j = 1, C[i]
      A[B[i] + j] = A[B[i] + j] + 1
    end
  end
""")
        plan = default_engine().compile(prog).plan("l")
        aplan = plan.arrays["A"]
        assert aplan.rred is not None  # the monotonicity O(N) test

    def test_flags_disable_monotonicity(self):
        src = """
  do i = 1, N @ l
    do j = 1, C[i]
      A[B[i] + j] = A[B[i] + j] + 1
    end
  end
"""
        with_mon = HybridAnalyzer(_prog(src)).analyze("l")
        without = HybridAnalyzer(_prog(src), use_monotonicity=False).analyze("l")
        env = {"N": 3, "B": [0, 10, 20] + [0] * 61, "C": [3] * 64, "A": [0] * 512}
        # Monotone index data: only the MON rule can accept at runtime.
        assert with_mon.arrays["A"].rred.evaluate(env).passed
        if without.arrays["A"].rred is not None:
            assert not without.arrays["A"].rred.evaluate(env).passed

"""Micro-benchmarks for the hash-consed symbolic core.

The acceptance bar for the interning/memoization layer is that a
*repeated* full-suite analysis runs at least 2x faster than the cold
path.  The caches make it dramatically faster than that (the second run
is almost entirely dict lookups), but the assertion is kept at the
conservative 2x so the benchmark stays robust on slow or noisy machines.
"""

import time

import pytest

from repro.core import HybridAnalyzer
from repro.pdag import Cascade, CascadeStage, p_leaf
from repro.symbolic import TRUE, as_expr, b_or, cache_stats, clear_caches, gt0, sym
from repro.symbolic import boolean
from repro.symbolic.expr import ArrayRef, Atom, Expr, Sym
from repro.workloads import ALL_BENCHMARKS


def _analyze_full_suite():
    for spec in ALL_BENCHMARKS:
        analyzer = HybridAnalyzer(spec.program)
        for loop in spec.loops:
            analyzer.analyze(loop.label)


def test_expressions_are_hash_consed():
    """Structurally equal expressions are pointer-equal."""
    a = sym("N") * 3 + sym("M") - 7
    b = sym("N") * 3 + sym("M") - 7
    assert a is b
    assert (a + 1) is (b + 1)


def test_interning_survives_cache_clear():
    """Clearing caches degrades identity, never correctness -- also for
    values whose slot caches (an atom's expression, a comparison's
    negation) were filled before the clear and are read after it."""
    old_atom = Sym("N")
    a = old_atom.as_expr() + 1
    old_cmp = gt0(a)
    old_neg = old_cmp.negated()
    clear_caches()
    b = sym("N") + 1
    assert a == b  # structural equality still holds
    assert b is (sym("N") + 1)  # and new values intern afresh
    # the surviving atom still answers with its pre-clear expression: it
    # equals and hashes like a fresh one, and arithmetic on it interns
    # into the new table
    assert old_atom is not Sym("N")
    assert old_atom.as_expr() == sym("N")
    assert hash(old_atom.as_expr()) == hash(sym("N"))
    assert (old_atom.as_expr() + 1) is b
    # the surviving comparison's cached negation folds against fresh values
    new_cmp = gt0(b)
    assert old_cmp.negated() is old_neg
    assert old_neg == new_cmp.negated()
    assert b_or(new_cmp, old_neg) is TRUE
    assert b_or(old_cmp, new_cmp.negated()) is TRUE


def test_mono_key_table_is_a_registered_cache():
    """The monomial sort-key table is dropped by clear_caches() like
    every other cache, and reports through cache_stats()."""
    sym("N") * 3 + sym("M") - 7
    assert cache_stats()["symbolic.mono_key"]["entries"] > 0
    clear_caches()
    assert cache_stats()["symbolic.mono_key"]["entries"] == 0


def test_rebuilding_an_interned_expression_computes_no_sort_key(monkeypatch):
    """Counts, not timings: once an expression is interned, building it
    again -- from a term dict in another order, or by arithmetic --
    neither calls ``Atom._order_key`` nor misses the mono-key table."""
    first = Expr._from_terms(
        {(): -7, ((Sym("y"), 1),): 2, ((Sym("x"), 1),): 1}
    )
    assert len(first.terms) == 3
    calls = []
    original = Atom._order_key
    monkeypatch.setattr(
        Atom, "_order_key", lambda self: calls.append(self) or original(self)
    )
    misses = cache_stats()["symbolic.mono_key"]["misses"]
    assert Expr._from_terms(dict(reversed(first.terms))) is first
    assert (sym("x") + 2 * sym("y") - 7) is first
    assert calls == []
    assert cache_stats()["symbolic.mono_key"]["misses"] == misses


def test_b_or_over_negated_comparisons_builds_no_comparison(monkeypatch):
    """``b_or`` asks every comparison operand for its negation; a
    comparison negated once answers from its slot."""
    cmps = [gt0(sym("x") - k) for k in range(3)]
    negations = [c.negated() for c in cmps]
    other = gt0(sym("y"))
    other.negated()
    made = []
    original = boolean._make_cmp
    monkeypatch.setattr(
        boolean, "_make_cmp", lambda e, op: made.append(op) or original(e, op)
    )
    assert b_or(*cmps).args == tuple(cmps)
    assert b_or(cmps[2], other, negations[2]) is TRUE
    assert b_or(*negations).args == tuple(negations)
    assert made == []


def test_repeated_full_suite_analysis_speedup():
    """Second full-suite analysis must be >= 2x faster than the cold run."""
    clear_caches()
    t0 = time.perf_counter()
    _analyze_full_suite()
    cold = time.perf_counter() - t0

    t0 = time.perf_counter()
    _analyze_full_suite()
    warm = time.perf_counter() - t0

    speedup = cold / max(warm, 1e-9)
    assert speedup >= 2.0, (
        f"warm full-suite analysis only {speedup:.2f}x faster "
        f"(cold={cold:.3f}s, warm={warm:.3f}s)"
    )


def test_caches_report_hits_after_warm_run():
    """The memo registry records real reuse during repeated analysis."""
    clear_caches()
    _analyze_full_suite()
    _analyze_full_suite()
    stats = cache_stats()
    assert stats["core.cascade_of"]["hits"] > 0
    assert stats["symbolic.expr"]["hit_rate"] > 0.5
    assert stats["usr.nodes"]["hits"] > 0


def test_cascade_shares_leaf_evaluations_across_stages():
    """A leaf shared by several cascade stages evaluates its (possibly
    expensive) condition once per cascade run; the modelled cost still
    counts each logical evaluation."""
    calls = {"n": 0}

    def probe(_idx):
        calls["n"] += 1
        return -1  # leaf is false -> every stage is consulted

    shared = p_leaf(gt0(as_expr(ArrayRef("PROBE", [1]))))
    cascade = Cascade(
        [
            CascadeStage("O(1)", shared),
            CascadeStage("O(N)", shared),
            CascadeStage("O(N^2)", shared),
        ]
    )
    outcome = cascade.evaluate({"PROBE": probe})
    assert not outcome.passed
    assert calls["n"] == 1  # evaluated once, shared across stages
    assert outcome.stats.leaf_evals == 3  # modelled cost unchanged

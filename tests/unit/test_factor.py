"""Unit tests for the FACTOR inference algorithm (Fig. 5)."""

import pytest

from repro.core import FactorContext, factor
from repro.core.monotonic import match_self_overlap, monotonicity_predicate
from repro.lmad import interval, point
from repro.pdag import simplify
from repro.symbolic import ArrayRef, as_expr, b_not, cmp_eq, cmp_ne, sym
from repro.usr import (
    usr_gate,
    usr_intersect,
    usr_leaf,
    usr_recurrence,
    usr_subtract,
    usr_union,
)


def check_soundness(usr, pred, envs):
    """The central invariant: pred true => usr empty."""
    for env in envs:
        if pred.evaluate(env):
            assert usr.evaluate(env) == set(), f"unsound under {env}"


class TestBasicRules:
    def test_leaf_nonempty_is_false(self):
        p = factor(usr_leaf(interval(1, 5)))
        assert p.is_false()

    def test_empty_leaf_is_true(self):
        from repro.usr import EMPTY

        assert factor(EMPTY).is_true()

    def test_gate_rule(self):
        """Fig. 4: F(g # S) = not g  or  F(S)."""
        g = usr_gate(cmp_ne(sym("SYM"), 1), usr_leaf(interval(1, 5)))
        p = factor(g)
        assert p.evaluate({"SYM": 1})
        assert not p.evaluate({"SYM": 0})

    def test_union_rule(self):
        u = usr_union(
            usr_gate(cmp_eq(sym("a"), 1), usr_leaf(point(1))),
            usr_gate(cmp_eq(sym("b"), 1), usr_leaf(point(2))),
        )
        p = factor(u)
        assert p.evaluate({"a": 0, "b": 0})
        assert not p.evaluate({"a": 1, "b": 0})

    def test_subtract_rule_via_inclusion(self):
        s = usr_subtract(
            usr_leaf(interval(1, sym("NS"))),
            usr_leaf(interval(1, 16 * sym("NP"))),
        )
        p = factor(s)
        assert p.evaluate({"NS": 16, "NP": 1})
        assert not p.evaluate({"NS": 17, "NP": 1})

    def test_intersect_rule_via_disjointness(self):
        s = usr_intersect(
            usr_leaf(interval(1, sym("N"))),
            usr_leaf(interval(sym("M"), sym("M") + 10)),
        )
        p = factor(s)
        assert p.evaluate({"N": 5, "M": 6})
        assert not p.evaluate({"N": 5, "M": 5})

    def test_paper_fig4(self):
        """The complete Fig. 4 derivation for the Fig. 3(c) USR."""
        ns, np_, s = sym("NS"), sym("NP"), sym("SYM")
        s1 = usr_subtract(
            usr_leaf(interval(0, ns - 1)), usr_leaf(interval(0, 16 * np_ - 1))
        )
        a = usr_gate(cmp_ne(s, 1), s1)
        b = usr_gate(cmp_eq(s, 1), usr_leaf(interval(0, ns - 1)))
        find = usr_union(a, b)
        p = simplify(factor(find))
        # Paper: F(A u B) = NS <= 16*NP  and  SYM != 1
        assert p.evaluate({"SYM": 0, "NS": 16, "NP": 1})
        assert not p.evaluate({"SYM": 1, "NS": 16, "NP": 1})
        assert not p.evaluate({"SYM": 0, "NS": 17, "NP": 1})

    def test_soundness_randomized(self):
        envs = [
            {"N": n, "M": m, "SYM": s}
            for n in (0, 1, 3, 7)
            for m in (0, 2, 5, 9)
            for s in (0, 1)
        ]
        usr = usr_union(
            usr_gate(
                cmp_ne(sym("SYM"), 1),
                usr_subtract(
                    usr_leaf(interval(1, sym("N"))),
                    usr_leaf(interval(1, sym("M"))),
                ),
            ),
            usr_intersect(
                usr_leaf(interval(1, sym("N"))),
                usr_leaf(interval(sym("M") + 1, sym("M") + 3)),
            ),
        )
        pred = factor(usr)
        check_soundness(usr, pred, envs)


class TestRecurrenceRules:
    def test_loop_conjunction(self):
        body = usr_gate(
            cmp_eq(ArrayRef("B", [sym("i")]).as_expr(), 0),
            usr_leaf(point(sym("i"))),
        )
        r = usr_recurrence("i", 1, sym("N"), body)
        p = factor(r)
        assert p.evaluate({"N": 3, "B": [1, 2, 3]})
        assert not p.evaluate({"N": 3, "B": [1, 0, 3]})

    def test_rule1_same_loop_invariant_overestimates(self):
        """Two recurrences over the same loop: invariant overestimates."""
        w = usr_recurrence(
            "i", 1, sym("N"),
            usr_leaf(point(sym("i"))),
        )
        r = usr_recurrence(
            "i", 1, sym("N"),
            usr_leaf(point(sym("i") + sym("OFF"))),
        )
        p = factor(usr_intersect(w, r))
        # Disjoint when OFF pushes the reads past the writes.
        assert p.evaluate({"N": 5, "OFF": 5})
        assert not p.evaluate({"N": 5, "OFF": 2})

    def test_monotonicity_match(self):
        """The OIND self-overlap shape is recognized."""
        i = sym("i")
        ib = ArrayRef("IB", [i])
        ia = ArrayRef("IA", [i])
        wf = usr_leaf(interval(32 * (ib - 1), 32 * (ib + ia - 2) + sym("NS") - 1))
        from repro.usr import Summary, aggregate_loop
        from repro.core import output_independence_usr

        ls = aggregate_loop("i", 1, sym("N"), Summary(wf=wf))
        oind = output_independence_usr(ls)
        matched = match_self_overlap(oind)
        assert matched is not None

    def test_paper_fig3b_predicate(self):
        """The Fig. 3(b) monotonicity predicate:
        AND_i NS <= 32*(IB(i+1)-IA(i)-IB(i)+1)."""
        i = sym("i")
        ib = ArrayRef("IB", [i])
        ia = ArrayRef("IA", [i])
        wf = usr_leaf(interval(32 * (ib - 1), 32 * (ib + ia - 2) + sym("NS") - 1))
        from repro.usr import Summary, aggregate_loop
        from repro.core import output_independence_usr

        ls = aggregate_loop("i", 1, sym("N"), Summary(wf=wf))
        pred = simplify(factor(output_independence_usr(ls)))
        good = {"N": 3, "NS": 2, "IB": [1, 3, 6], "IA": [2, 3, 1]}
        bad = {"N": 3, "NS": 200, "IB": [1, 2, 3], "IA": [1, 1, 1]}
        assert pred.evaluate(good)
        assert not pred.evaluate(bad)

    def test_monotonicity_disabled_by_flag(self):
        i = sym("i")
        b = ArrayRef("B", [i])
        wf = usr_leaf(interval(b, b + 3))
        from repro.usr import Summary, aggregate_loop
        from repro.core import output_independence_usr

        ls = aggregate_loop("i", 1, sym("N"), Summary(wf=wf))
        oind = output_independence_usr(ls)
        with_mono = factor(oind, FactorContext(use_monotonicity=True))
        without = factor(oind, FactorContext(use_monotonicity=False))
        env = {"N": 3, "B": [1, 10, 20]}
        assert with_mono.evaluate(env)
        assert not without.evaluate(env)

    def test_variable_capture_avoided(self):
        """Two recurrences sharing an index name must not capture each
        other's variables (regression test for the distribution rules)."""
        n = sym("N")
        w = usr_recurrence(
            "n", 1, n, usr_leaf(point(ArrayRef("KX", [sym("n")])))
        )
        r = usr_recurrence(
            "n", 1, n, usr_leaf(point(ArrayRef("KX", [sym("n")]) + sym("M")))
        )
        ctx = FactorContext(distribute_disjoint_recurrences=True)
        pred = factor(usr_intersect(w, r), ctx)
        # KX = [1, 2], M = 1: writes {1,2}, reads {2,3}: THEY INTERSECT.
        env = {"N": 2, "M": 1, "KX": [1, 2]}
        assert usr_intersect(w, r).evaluate(env) != set()
        assert not pred.evaluate(env)


class TestFillsArr:
    def test_rule5(self):
        """FILLS_ARR: a dense LMAD covering the declared array bounds
        includes any (in-bounds) summary, even an opaque one."""
        ctx = FactorContext(array_extent=(as_expr(1), sym("SZ")))
        opaque = usr_recurrence(
            "i", 1, sym("N"), usr_leaf(point(ArrayRef("B", [sym("i")])))
        )
        s = usr_subtract(opaque, usr_leaf(interval(1, sym("K"))))
        p = factor(s, ctx)
        # K >= SZ: the subtrahend covers the whole declared array, so the
        # opaque accesses (in-bounds by assumption) are all subtracted.
        good = {"K": 10, "SZ": 10, "N": 1, "B": [5]}
        assert p.evaluate(good)
        # K < SZ and an access beyond K: genuinely non-empty.
        bad = {"K": 9, "SZ": 10, "N": 1, "B": [10]}
        assert s.evaluate(bad) != set()
        assert not p.evaluate(bad)

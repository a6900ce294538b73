"""The FACTOR logic-inference algorithm (Fig. 5) -- the paper's core.

``factor(S)`` translates a USR ``S`` into a PDAG predicate ``P`` with the
*sufficiency* invariant ``P => (S = {})``.  The translation recurses by
inference on set-algebra properties:

* a union is empty when every operand is;
* a gated summary is empty when the gate fails or the body is empty;
* a difference is empty when the minuend is empty or included in the
  subtrahend (-> ``included``);
* an intersection is empty when an operand is empty or the operands are
  disjoint (-> ``disjoint``);
* a recurrence is empty when every iteration's summary is (a loop
  conjunction) -- unless it matches the self-overlap pattern, where the
  monotonicity rule of Section 3.3 fires first.

``included``/``disjoint`` implement the numbered helper rules (1)-(5) of
Fig. 5, falling back to the conditional LMAD estimates of Section 3.2
(``INCLUDED_APP``/``DISJOINT_APP``) when no structural rule applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .. import profiling as _profiling

from ..lmad import (
    disjoint_lmad_sets,
    fills_array,
    included_lmad_sets,
)
from ..pdag import (
    PDAG,
    PFALSE,
    PTRUE,
    p_and,
    p_call,
    p_leaf,
    p_loop_and,
    p_or,
)
from ..symbolic import Expr, b_not, sym
from ..symbolic.intern import Memo
from ..usr import (
    CallSite,
    Gate,
    Intersect,
    Leaf,
    Recurrence,
    Subtract,
    Union,
    USR,
    overestimate,
    reshape,
    underestimate,
)
from .monotonic import match_self_overlap, monotonicity_predicate

__all__ = ["FactorContext", "factor", "included", "disjoint"]


def _bound_indices(s: USR) -> frozenset[str]:
    """All recurrence index names bound anywhere inside *s*."""
    out = set()
    if isinstance(s, Recurrence):
        out.add(s.index)
    for child in s.children():
        out |= _bound_indices(child)
    return frozenset(out)


def _rename_recurrence(u: Recurrence, ctx: "FactorContext") -> Recurrence:
    """Alpha-rename a recurrence's index to a fresh name."""
    fresh = ctx.fresh_index(u.index)
    body = u.body.substitute({u.index: sym(fresh)})
    return Recurrence(fresh, u.lower, u.upper, body, partial=u.partial)


@dataclass
class FactorContext:
    """Analysis-wide knobs and context for one factorization run.

    ``array_extent`` is the declared index range of the summarized array,
    needed by the ``FILLS_ARR`` rule (5); the feature flags exist for the
    ablation studies of DESIGN.md.
    """

    array_extent: Optional[tuple[Expr, Expr]] = None
    #: opaque arrays known non-decreasing (CIV prefix arrays, Section 3.3)
    monotone: frozenset[str] = frozenset()
    use_monotonicity: bool = True
    use_reshaping: bool = True
    #: distribute DISJOINT over single recurrences (AND over iterations).
    #: NOT part of the paper's Fig. 5 rule set -- it manufactures O(N^2)
    #: pairwise tests where the paper falls back to exact tests/TLS --
    #: so it defaults off; the ablation benches can enable it.
    distribute_disjoint_recurrences: bool = False
    max_depth: int = 64
    #: node-size bound on emitted predicates (Section 3.6: "we bound a
    #: potential explosion in predicate size via a convenient constant
    #: factor"); oversized results are dropped to false (still sufficient).
    size_cap: int = 50_000
    #: optional bound on the number of factor/included/disjoint
    #: subproblems explored per run.  The pair recursion is memoized but
    #: its subproblem space is still combinatorial on adversarial
    #: summaries; once the budget is spent every further query folds to
    #: false (still sufficient -- the loop falls back to exact tests).
    #: Deterministic, unlike a wall-clock bound.  None = unlimited.
    work_cap: Optional[int] = None
    _fresh: int = field(default=0, repr=False)
    _work: int = field(default=0, repr=False)
    _factor_memo: dict = field(default_factory=dict, repr=False)
    _incl_memo: dict = field(default_factory=dict, repr=False)
    _disj_memo: dict = field(default_factory=dict, repr=False)

    def fresh_index(self, base: str) -> str:
        self._fresh += 1
        return f"{base}${self._fresh}"

    def spend(self) -> bool:
        """Consume one unit of inference budget; True when exhausted."""
        if self.work_cap is None:
            return False
        if self._work >= self.work_cap:
            return True
        self._work += 1
        return False


def _leaf_empty(leaf: Leaf) -> PDAG:
    from ..usr.estimate import _leaf_empty_pred

    return p_leaf(_leaf_empty_pred(leaf))


@_profiling.timed("core.factor")
def factor(s: USR, ctx: Optional[FactorContext] = None) -> PDAG:
    """Translate summary *s* into a sufficient emptiness predicate."""
    ctx = ctx or FactorContext()
    if ctx.use_reshaping:
        s = reshape(s)
    result = _factor(s, ctx, ctx.max_depth)
    if ctx.monotone:
        result = _fold_monotone_leaves(result, ctx.monotone)
    return result


def _fold_monotone_leaves(
    pred: PDAG, monotone: frozenset[str], memo: Optional[dict] = None
) -> PDAG:
    """Fold comparison leaves provable from CIV monotonicity facts.

    PDAGs are DAGs with heavy structural sharing; the *memo* (per top
    call, keyed on node identity semantics via the cached hashes) keeps
    this walk linear in the number of distinct nodes -- a naive tree
    recursion is exponential on factored predicates.
    """
    from ..pdag import PAnd, PCall, PLeaf, PLoopAnd, POr
    from ..symbolic.monotone import monotone_simplify

    if memo is None:
        memo = {}
    cached = memo.get(pred)
    if cached is not None:
        return cached
    if isinstance(pred, PLeaf):
        result = p_leaf(monotone_simplify(pred.cond, monotone))
    elif isinstance(pred, PAnd):
        result = p_and(
            *(_fold_monotone_leaves(a, monotone, memo) for a in pred.args)
        )
    elif isinstance(pred, POr):
        result = p_or(
            *(_fold_monotone_leaves(a, monotone, memo) for a in pred.args)
        )
    elif isinstance(pred, PCall):
        result = p_call(
            pred.callee, _fold_monotone_leaves(pred.body, monotone, memo)
        )
    elif isinstance(pred, PLoopAnd):
        result = p_loop_and(
            pred.index,
            pred.lower,
            pred.upper,
            _fold_monotone_leaves(pred.body, monotone, memo),
        )
    else:
        raise TypeError(f"unknown PDAG node {pred!r}")
    memo[pred] = result
    return result


def _capped(result: PDAG, ctx: FactorContext) -> PDAG:
    """Enforce Section 3.6's predicate-size bound: an oversized result
    is dropped to false, which stays sufficient (the paper: "we bound a
    potential explosion in predicate size via a convenient constant
    factor").  Without this, the included/disjoint double recursion can
    go combinatorial on adversarial (e.g. fuzz-generated) summaries."""
    if result.node_count() > ctx.size_cap:
        return PFALSE
    return result


def _factor(s: USR, ctx: FactorContext, fuel: int) -> PDAG:
    if fuel <= 0:
        return PFALSE
    cached = ctx._factor_memo.get(s)
    if cached is not None:
        return cached
    if ctx.spend():
        return PFALSE
    result = _capped(_factor_uncached(s, ctx, fuel), ctx)
    ctx._factor_memo[s] = result
    return result


def _factor_uncached(s: USR, ctx: FactorContext, fuel: int) -> PDAG:
    if isinstance(s, Leaf):
        return _leaf_empty(s)
    if isinstance(s, Gate):
        return p_or(p_leaf(b_not(s.cond)), _factor(s.body, ctx, fuel - 1))
    if isinstance(s, Union):
        return p_and(*(_factor(a, ctx, fuel - 1) for a in s.args))
    if isinstance(s, Subtract):
        return p_or(
            _factor(s.left, ctx, fuel - 1),
            included(s.left, s.right, ctx, fuel - 1),
        )
    if isinstance(s, Intersect):
        parts = [_factor(a, ctx, fuel - 1) for a in s.args]
        pairs = []
        for i in range(len(s.args)):
            for j in range(i + 1, len(s.args)):
                pairs.append(disjoint(s.args[i], s.args[j], ctx, fuel - 1))
        return p_or(*parts, *pairs)
    if isinstance(s, CallSite):
        return p_call(s.callee, _factor(s.body, ctx, fuel - 1))
    if isinstance(s, Recurrence):
        if ctx.use_monotonicity and not s.partial:
            matched = match_self_overlap(s)
            if matched is not None:
                mono = monotonicity_predicate(matched, ctx.monotone)
                if not mono.is_false():
                    # The loop conjunction of per-iteration emptiness also
                    # suffices; keep both avenues.
                    per_iter = p_loop_and(
                        s.index, s.lower, s.upper, _factor(s.body, ctx, fuel - 1)
                    )
                    return p_or(mono, per_iter)
        return p_loop_and(s.index, s.lower, s.upper, _factor(s.body, ctx, fuel - 1))
    raise TypeError(f"unknown USR node {s!r}")


# -- INCLUDED ----------------------------------------------------------------


def included(s1: USR, s2: USR, ctx: FactorContext, fuel: int) -> PDAG:
    """Sufficient predicate for ``s1`` to be a subset of ``s2``."""
    if fuel <= 0:
        return PFALSE
    if s1 == s2:
        return PTRUE
    memo_key = (s1, s2)
    cached = ctx._incl_memo.get(memo_key)
    if cached is not None:
        return cached
    if ctx.spend():
        return PFALSE
    result = _capped(_included_uncached(s1, s2, ctx, fuel), ctx)
    ctx._incl_memo[memo_key] = result
    return result


def _included_uncached(s1: USR, s2: USR, ctx: FactorContext, fuel: int) -> PDAG:
    # Rule (3): recurrences over the same loop compare iteration-wise.
    if (
        isinstance(s1, Recurrence)
        and isinstance(s2, Recurrence)
        and _same_loop(s1, s2)
    ):
        body2 = s2.body.substitute({s2.index: sym(s1.index)})
        return p_loop_and(
            s1.index, s1.lower, s1.upper, included(s1.body, body2, ctx, fuel - 1)
        )
    p1 = _included_h(s1, s2, ctx, fuel - 1)
    if p1.is_true():
        return p1
    return p_or(p1, _included_app(s1, s2, ctx))


def _included_h(s: USR, u: USR, ctx: FactorContext, fuel: int) -> PDAG:
    """Structural inclusion rules, casing on target *u* then source *s*."""
    if fuel <= 0:
        return PFALSE
    p1: PDAG = PFALSE
    if isinstance(u, Gate):
        p1 = p_and(p_leaf(u.cond), included(s, u.body, ctx, fuel - 1))
    elif isinstance(u, Union):
        p1 = p_or(*(included(s, a, ctx, fuel - 1) for a in u.args))
    elif isinstance(u, Subtract):
        # Rule (4): S included in S1 - S2 if S in S1 and S disjoint S2.
        p1 = p_and(
            included(s, u.left, ctx, fuel - 1),
            disjoint(s, u.right, ctx, fuel - 1),
        )
    elif isinstance(u, Intersect):
        p1 = p_and(*(included(s, a, ctx, fuel - 1) for a in u.args))
    elif isinstance(u, Leaf):
        # Rule (5): an LMAD covering the whole declared array includes
        # any summary of the same array.
        if ctx.array_extent is not None and len(u.lmads) == 1:
            lo, hi = ctx.array_extent
            p1 = p_leaf(fills_array(u.lmads[0], lo, hi))
    elif isinstance(u, CallSite):
        p1 = p_call(u.callee, included(s, u.body, ctx, fuel - 1))
    elif isinstance(u, Recurrence):
        # S in U_i S2_i if S is in one iteration's summary; pick lower
        # and upper instances as cheap witnesses.
        for witness in (u.lower, u.upper):
            inst = u.body.substitute({u.index: witness})
            p1 = p_or(p1, included(s, inst, ctx, fuel - 1))

    p2: PDAG = PFALSE
    if isinstance(s, Gate):
        p2 = p_or(p_leaf(b_not(s.cond)), included(s.body, u, ctx, fuel - 1))
    elif isinstance(s, Union):
        p2 = p_and(*(included(a, u, ctx, fuel - 1) for a in s.args))
    elif isinstance(s, Subtract):
        p2 = included(s.left, u, ctx, fuel - 1)
    elif isinstance(s, Intersect):
        p2 = p_or(*(included(a, u, ctx, fuel - 1) for a in s.args))
    elif isinstance(s, CallSite):
        p2 = p_call(s.callee, included(s.body, u, ctx, fuel - 1))
    elif isinstance(s, Recurrence):
        if s.index in u.free_symbols() or s.index in _bound_indices(u):
            s = _rename_recurrence(s, ctx)
        if s.index not in u.free_symbols():
            p2 = p_loop_and(
                s.index, s.lower, s.upper, included(s.body, u, ctx, fuel - 1)
            )
    elif isinstance(s, Leaf) and isinstance(u, Leaf):
        p2 = p_leaf(included_lmad_sets(s.lmads, u.lmads))
    return p_or(p1, p2)


#: The APP fallbacks are pure functions of their summaries and the
#: monotone-fact set (the only context field they read), and FACTOR
#: meets the same operand pairs again across equations and arrays of
#: one loop: per cold item, 515 of 10 824 INCLUDED and 166 of 5 147
#: DISJOINT lookups hit on compile_cold's items, 1 077 of 4 033 and
#: 423 of 2 932 on the churn programs.
_INCLUDED_APP_MEMO = Memo("core.included_app", max_size=200_000)
_DISJOINT_APP_MEMO = Memo("core.disjoint_app", max_size=200_000)


def _included_app(c: USR, d: USR, ctx: FactorContext) -> PDAG:
    """Fallback to the LMAD domain via conditional estimates."""
    key = (c, d, ctx.monotone)
    cached = _INCLUDED_APP_MEMO.get(key)
    if cached is not None:
        return cached
    over_c = overestimate(c, ctx.monotone)
    under_d = underestimate(d)
    pieces: list[PDAG] = [p_leaf(over_c.pred)]
    if not over_c.failed and not under_d.failed:
        pieces.append(
            p_and(
                p_leaf(under_d.pred),
                p_leaf(included_lmad_sets(over_c.lmads, under_d.lmads)),
            )
        )
    return _INCLUDED_APP_MEMO.put(key, p_or(*pieces))


# -- DISJOINT ----------------------------------------------------------------


def _same_loop(a: Recurrence, b: Recurrence) -> bool:
    if a.lower != b.lower:
        return False
    if a.index == b.index:
        return a.upper == b.upper
    renamed = b.upper.substitute({b.index: sym(a.index)})
    return a.upper == renamed


def disjoint(s1: USR, s2: USR, ctx: FactorContext, fuel: int) -> PDAG:
    """Sufficient predicate for ``s1`` and ``s2`` to not intersect."""
    if fuel <= 0:
        return PFALSE
    memo_key = frozenset((s1, s2)) if s1 != s2 else (s1, s2)
    cached = ctx._disj_memo.get(memo_key)
    if cached is not None:
        return cached
    if ctx.spend():
        return PFALSE
    result = _capped(_disjoint_uncached(s1, s2, ctx, fuel), ctx)
    ctx._disj_memo[memo_key] = result
    return result


def _disjoint_uncached(s1: USR, s2: USR, ctx: FactorContext, fuel: int) -> PDAG:
    # Rule (1): two recurrences over the same loop.  Iteration-wise
    # disjointness does NOT imply set disjointness, so compare
    # loop-invariant overestimates of the bodies instead.
    if (
        isinstance(s1, Recurrence)
        and isinstance(s2, Recurrence)
        and not s1.partial
        and not s2.partial
        and _same_loop(s1, s2)
    ):
        inv1 = _invariant_overestimate(s1.body, s1.index, s1.lower, s1.upper)
        inv2 = _invariant_overestimate(s2.body, s2.index, s2.lower, s2.upper)
        if inv1 is not None and inv2 is not None:
            rule1 = disjoint(inv1, inv2, ctx, fuel - 1)
            if not rule1.is_false():
                return rule1
    p1 = _disjoint_h(s1, s2, ctx, fuel - 1)
    if p1.is_true():
        return p1
    p2 = _disjoint_h(s2, s1, ctx, fuel - 1)
    if p2.is_true():
        return p2
    return p_or(p1, p2, _disjoint_app(s1, s2, ctx))


def _invariant_overestimate(body: USR, index: str, lower, upper) -> Optional[USR]:
    """Overestimate *body* by something invariant in *index*: filter out
    loop-variant gates, and aggregate index-dependent LMAD leaves over
    the whole index range (how Fig. 9(b)'s ``C_inv_i`` covers all of
    loop k while keeping its gates)."""
    if index not in body.free_symbols():
        return body
    if isinstance(body, Leaf):
        out = []
        for lmad in body.lmads:
            agg = lmad.aggregated(index, lower, upper)
            if agg is None:
                return None
            out.append(agg)
        return Leaf(out)
    if isinstance(body, Gate):
        if index in body.cond.free_symbols():
            return _invariant_overestimate(body.body, index, lower, upper)
        inner = _invariant_overestimate(body.body, index, lower, upper)
        if inner is None:
            return None
        from ..usr import usr_gate

        return usr_gate(body.cond, inner)
    if isinstance(body, Union):
        from ..usr import usr_union

        parts = [_invariant_overestimate(a, index, lower, upper) for a in body.args]
        if any(p is None for p in parts):
            return None
        return usr_union(*parts)
    if isinstance(body, Subtract):
        return _invariant_overestimate(body.left, index, lower, upper)
    if isinstance(body, Intersect):
        for a in body.args:
            inv = _invariant_overestimate(a, index, lower, upper)
            if inv is not None:
                return inv
        return None
    if isinstance(body, CallSite):
        return _invariant_overestimate(body.body, index, lower, upper)
    # Irreducible index-dependent nodes (e.g. an inner-loop recurrence of
    # subtractions): fall back to the LMAD overestimate operator, then
    # aggregate its result over this loop's range.
    est = overestimate(body)
    if est.failed:
        return None
    out = []
    for lmad in est.lmads:
        if index in lmad.free_symbols():
            agg = lmad.aggregated(index, lower, upper)
            if agg is None:
                return None
            out.append(agg)
        else:
            out.append(lmad)
    return Leaf(out)


def _disjoint_h(u: USR, s: USR, ctx: FactorContext, fuel: int) -> PDAG:
    """Structural disjointness rules casing on the first operand."""
    if fuel <= 0:
        return PFALSE
    if isinstance(u, Gate):
        return p_or(p_leaf(b_not(u.cond)), disjoint(u.body, s, ctx, fuel - 1))
    if isinstance(u, Union):
        return p_and(*(disjoint(a, s, ctx, fuel - 1) for a in u.args))
    if isinstance(u, Subtract):
        # Rule (2): S disjoint from S1-S2 if disjoint from S1, or S is
        # included in S2 (then S cannot survive the subtraction).
        return p_or(
            disjoint(u.left, s, ctx, fuel - 1),
            included(s, u.right, ctx, fuel - 1),
        )
    if isinstance(u, Intersect):
        return p_or(*(disjoint(a, s, ctx, fuel - 1) for a in u.args))
    if isinstance(u, CallSite):
        return p_call(u.callee, disjoint(u.body, s, ctx, fuel - 1))
    if (
        isinstance(u, Recurrence)
        and not u.partial
        and ctx.distribute_disjoint_recurrences
    ):
        # A single recurrence IS iteration-distributable: U_i S_i is
        # disjoint from S when every S_i is.  Rename the bound index when
        # it collides with S's free symbols OR with any index bound
        # inside S (which would otherwise capture it when S distributes
        # its own recurrences).
        if u.index in s.free_symbols() or u.index in _bound_indices(s):
            u = _rename_recurrence(u, ctx)
        if u.index not in s.free_symbols():
            return p_loop_and(
                u.index, u.lower, u.upper, disjoint(u.body, s, ctx, fuel - 1)
            )
    return PFALSE


def _disjoint_app(c: USR, d: USR, ctx: FactorContext) -> PDAG:
    key = (c, d, ctx.monotone)
    cached = _DISJOINT_APP_MEMO.get(key)
    if cached is not None:
        return cached
    over_c = overestimate(c, ctx.monotone)
    over_d = overestimate(d, ctx.monotone)
    pieces: list[PDAG] = [p_leaf(over_c.pred), p_leaf(over_d.pred)]
    if not over_c.failed and not over_d.failed:
        pieces.append(p_leaf(disjoint_lmad_sets(over_c.lmads, over_d.lmads)))
    return _DISJOINT_APP_MEMO.put(key, p_or(*pieces))

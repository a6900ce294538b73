"""The hybrid analyzer: classify a loop and plan its parallelization.

This is the Section 5 driver.  For every array accessed by the target
loop it builds the flow- and output-independence USRs (Section 2.2),
translates them through FACTOR into predicate cascades, and decides the
parallelization strategy per array:

* ``shared``: provably independent, iterations work on the shared array;
* ``private`` (+ SLV/DLV): flow-independent but output-dependent, so the
  array is privatized with copy-in overlay semantics and the last value
  is restored statically (last iteration covers all writes) or
  dynamically;
* ``reduction``: update-shaped accesses run as a parallel reduction
  (SRED), upgraded at runtime to direct access when the RRED predicate
  proves the updates independent, with BOUNDS-COMP when the reduced
  region's bounds cannot be aggregated statically;
* exact fallback: all predicates false -- the executor must run an exact
  test (inspector USR evaluation or LRPD-style speculation).

The loop-level verdict aggregates array verdicts; runtime predicates are
cascaded cheapest-first across arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .. import profiling as _profiling
from ..ir.ast import Program
from ..ir.summarize import CIVInfo, LoopAnalysisInput, summarize_loop
from ..pdag import Cascade, build_cascade, simplify
from ..symbolic import Expr
from ..symbolic.intern import Memo
from ..usr import USR, overestimate
from .factor import FactorContext, factor
from .independence import (
    ext_rred_usr,
    flow_independence_usr,
    output_independence_usr,
    rw_self_overlap_usr,
    static_last_value_usr,
)

__all__ = ["ArrayPlan", "LoopPlan", "HybridAnalyzer"]


@dataclass
class ArrayPlan:
    """Parallelization decision for one array in the target loop."""

    array: str
    #: 'shared' | 'private' | 'reduction'
    transform: str
    #: runtime flow-independence cascade; None = statically independent
    flow: Optional[Cascade] = None
    #: runtime output-independence cascade; None = statically independent
    output: Optional[Cascade] = None
    #: for private arrays: static-last-value cascade (None = SLV holds
    #: statically; a failing cascade at runtime falls back to DLV)
    slv: Optional[Cascade] = None
    #: for reductions: predicate proving updates independent (RRED)
    rred: Optional[Cascade] = None
    #: reduction needs runtime bounds estimation (BOUNDS-COMP)
    needs_bounds_comp: bool = False
    #: EXT-RRED shape: reduction array also written by plain statements
    extended_reduction: bool = False
    #: every update of this reduction array is additive (delta-merge
    #: safe); when False, a failed/absent RRED proof must fall back to
    #: an exact test instead of the reduction transform
    reduction_additive: bool = True
    #: no cascade could prove independence; exact fallback required
    needs_exact: bool = False
    #: USR whose emptiness the exact fallback must decide
    exact_usr: Optional[USR] = None

    def static_parallel(self) -> bool:
        """True when no runtime work is needed for this array."""
        return (
            self.flow is None
            and self.output is None
            and not self.needs_exact
            and not self.needs_bounds_comp
            and self.rred is None
        )

    def runtime_cascades(self) -> list[tuple[str, Cascade]]:
        out = []
        if self.flow is not None:
            out.append(("flow", self.flow))
        if self.output is not None:
            out.append(("output", self.output))
        return out


@dataclass
class LoopPlan:
    """Complete parallelization plan for one loop."""

    label: str
    index: str
    lower: Expr
    upper: Expr
    arrays: dict[str, ArrayPlan] = field(default_factory=dict)
    civs: list[CIVInfo] = field(default_factory=list)
    #: summarizer hit unanalyzable constructs: conservative fallback only
    approximate: bool = False
    is_while: bool = False
    trip_symbol: Optional[str] = None
    analysis: Optional[LoopAnalysisInput] = None

    #: constant since the Tier-0 screen was deleted (there is one
    #: pipeline); kept only because bench/wl_inprocess.py reads it --
    #: goes once a benchmark PR drops core.tier0_frac (see ROADMAP)
    tier_used: str = "tier1"

    # -- verdicts -------------------------------------------------------
    def static_parallel(self) -> bool:
        return not self.approximate and all(
            p.static_parallel() for p in self.arrays.values()
        )

    def needs_exact_fallback(self) -> bool:
        return self.approximate or any(p.needs_exact for p in self.arrays.values())

    def runtime_tested(self) -> bool:
        return not self.static_parallel() and not self.needs_exact_fallback()

    def has_scalar_dependence(self) -> bool:
        """A non-CIV scalar is read before written across iterations."""
        if self.analysis is None:
            return False
        civs = {c.name for c in self.civs}
        return bool(self.analysis.scalar_flow_deps - civs)

    def classification(self) -> str:
        """The paper's Table 1-3 vocabulary for this loop's status."""
        if self.has_scalar_dependence():
            return "STATIC-SEQ"
        if self.static_parallel():
            if self.civs:
                return "CIVagg"
            if any(p.transform == "reduction" for p in self.arrays.values()):
                return "SRED"
            return "STATIC-PAR"
        if self.needs_exact_fallback():
            return "EXACT"
        kinds = []
        worst = "O(1)"
        for plan in self.arrays.values():
            for kind, cascade in plan.runtime_cascades():
                kinds.append("F" if kind == "flow" else "O")
                label = cascade.cheapest_label() or "O(1)"
                if _complexity_rank(label) > _complexity_rank(worst):
                    worst = label
            if plan.rred is not None:
                kinds.append("R")
                label = plan.rred.cheapest_label() or "O(1)"
                if _complexity_rank(label) > _complexity_rank(worst):
                    worst = label
        bounds = any(p.needs_bounds_comp for p in self.arrays.values())
        kind_set = set(kinds)
        if not kind_set:
            return "BOUNDS-COMP" if bounds else "SRED"
        if kind_set <= {"R"}:
            prefix = "RRED"
        elif "F" in kind_set and "O" in kind_set:
            prefix = "F/OI"
        elif "F" in kind_set:
            prefix = "FI"
        elif "O" in kind_set:
            prefix = "OI"
        else:
            prefix = "RRED"
        label = f"{prefix} {worst}"
        if bounds:
            label += "+BOUNDS-COMP"
        return label

    def techniques(self) -> list[str]:
        """Parallelism-enabling techniques used (Table 1-3 legend)."""
        out = set()
        for plan in self.arrays.values():
            if plan.transform == "private":
                out.add("PRIV")
                if plan.slv is None:
                    out.add("SLV")
                else:
                    out.add("DLV")
            if plan.transform == "reduction":
                if plan.rred is not None:
                    out.add("RRED")
                else:
                    out.add("SRED")
                if plan.extended_reduction:
                    out.add("EXT-RRED")
                if plan.needs_bounds_comp:
                    out.add("BOUNDS-COMP")
        if self.civs:
            out.add("CIVagg")
            out.add("CIV-COMP")
        mono_used = any(
            _cascade_mentions_loop(p.output) or _cascade_mentions_loop(p.rred)
            for p in self.arrays.values()
        )
        if mono_used:
            out.add("MON")
        return sorted(out)


def _cascade_mentions_loop(cascade: Optional[Cascade]) -> bool:
    if cascade is None:
        return False
    return any(stage.predicate.loop_depth() > 0 for stage in cascade.stages)


def _complexity_rank(label: str) -> int:
    if label == "O(1)":
        return 0
    if label == "O(N)":
        return 1
    return 2


#: Memo for the factor->simplify->cascade pipeline, keyed on the
#: (interned) USR plus every semantic knob of the factor context.  This
#: is the analyzer's dominant cost; repeated analysis of the same loop
#: (per-array reuse, ablation sweeps, batch re-runs) becomes a lookup.
_CASCADE_MEMO = Memo("core.cascade_of", max_size=100_000)


class HybridAnalyzer:
    """Analyzes labelled loops of a program into :class:`LoopPlan` s."""

    def __init__(self, program: Program, use_monotonicity: bool = True,
                 use_reshaping: bool = True, use_civagg: bool = True,
                 interprocedural: bool = True,
                 size_cap: Optional[int] = None,
                 work_cap: Optional[int] = None):
        self.program = program
        self.use_monotonicity = use_monotonicity
        self.use_reshaping = use_reshaping
        self.use_civagg = use_civagg
        self.interprocedural = interprocedural
        #: optional overrides of FactorContext.size_cap (Section 3.6's
        #: predicate-size bound) and FactorContext.work_cap (inference
        #: budget); None keeps the defaults.  The fuzz harness tightens
        #: both to bound analysis time on adversarial generated programs.
        self.size_cap = size_cap
        self.work_cap = work_cap

    def _context(self, analysis: LoopAnalysisInput, array: str) -> FactorContext:
        from ..ir.convert import to_expr
        from ..symbolic import as_expr

        extent = None
        decl = self.program.array_decl(array)
        if decl is not None:
            size = to_expr(decl.size, {})
            if size is not None:
                extent = (as_expr(1), size)
        monotone = analysis.monotone_arrays if self.use_civagg else frozenset()
        kwargs = {}
        if self.size_cap is not None:
            kwargs["size_cap"] = self.size_cap
        if self.work_cap is not None:
            kwargs["work_cap"] = self.work_cap
        return FactorContext(
            array_extent=extent,
            monotone=monotone,
            use_monotonicity=self.use_monotonicity,
            use_reshaping=self.use_reshaping,
            **kwargs,
        )

    @_profiling.timed("analyzer.analyze")
    def analyze(self, label: str) -> LoopPlan:
        with _profiling.timer("analyzer.summarize"):
            analysis = summarize_loop(
                self.program, label, interprocedural=self.interprocedural
            )
        plan = LoopPlan(
            label=label,
            index=analysis.index,
            lower=analysis.lower,
            upper=analysis.upper,
            civs=analysis.civs,
            approximate=analysis.approximate,
            is_while=analysis.is_while,
            trip_symbol=analysis.trip_symbol,
            analysis=analysis,
        )
        for array, ls in analysis.summaries.items():
            ctx = self._context(analysis, array)
            reduction = analysis.reductions.get(array)
            if reduction is not None:
                plan.arrays[array] = self._plan_reduction(
                    array, ls, ctx, reduction
                )
            else:
                plan.arrays[array] = self._plan_regular(array, ls, ctx)
        return plan

    # -- per-array planning ---------------------------------------------------
    def _plan_regular(self, array: str, ls, ctx: FactorContext) -> ArrayPlan:
        find = flow_independence_usr(ls)
        oind = output_independence_usr(ls)
        flow_cascade, flow_static, flow_failed = self._cascade_of(find, ctx)
        out_cascade, out_static, out_failed = self._cascade_of(oind, ctx)
        if flow_failed:
            from ..usr import usr_union

            return ArrayPlan(
                array=array,
                transform="shared",
                needs_exact=True,
                # The exact test must decide flow AND output independence.
                exact_usr=usr_union(find, oind),
            )
        if not out_failed and out_cascade is not None:
            out_cascade = self._drop_degenerate(out_cascade, ls)
            if out_cascade is None:
                out_failed = True
        if out_failed or not out_static:
            # Output dependences may exist: privatize + last value.  The
            # output cascade, when present, upgrades to shared at runtime.
            slv = static_last_value_usr(ls)
            slv_cascade, slv_static, slv_failed = self._cascade_of(slv, ctx)
            from ..usr import usr_union

            return ArrayPlan(
                array=array,
                transform="private",
                flow=flow_cascade,
                output=None if out_failed else out_cascade,
                slv=None if slv_static else (None if slv_failed else slv_cascade),
                # A runtime flow failure can still be rescued by the
                # exact test; output dependences are already handled by
                # privatization, so only flow matters here.
                exact_usr=find if flow_cascade is not None else None,
            )
        from ..usr import usr_union

        exact = None
        if flow_cascade is not None or out_cascade is not None:
            exact = usr_union(find, oind)
        return ArrayPlan(
            array=array,
            transform="shared",
            flow=flow_cascade,
            output=out_cascade,
            exact_usr=exact,
        )

    def _plan_reduction(
        self, array: str, ls, ctx: FactorContext, info
    ) -> ArrayPlan:
        overlap = rw_self_overlap_usr(ls)
        rred_cascade, rred_static, rred_failed = self._cascade_of(overlap, ctx)
        if not rred_failed and not rred_static and rred_cascade is not None:
            rred_cascade = self._drop_degenerate(rred_cascade, ls)
            if rred_cascade is None:
                rred_failed = True
        if rred_static:
            # Updates are provably independent: no reduction transform is
            # needed at all; plan the array like a regular one.
            return self._plan_regular(array, ls, ctx)
        has_other_writes = info.has_other_writes
        # Enabling flow condition: any NON-update access of the array --
        # write-first (EXT-RRED, Section 4) *or* plain read -- must not
        # meet the reduction accesses across iterations.  A read of a
        # location other iterations update would observe the pre-loop
        # value under the reduction transform but the running sum
        # sequentially, so reads gate the transform exactly like writes.
        has_other_reads = not (
            ls.per_iteration.ro.is_empty_leaf()
            and ls.per_iteration.exposed.is_empty_leaf()
        )
        needs_exact = False
        flow_cascade = None
        exact = None
        if has_other_writes or has_other_reads:
            enabling = ext_rred_usr(ls)
            flow_cascade, flow_static, flow_failed = self._cascade_of(enabling, ctx)
            if flow_failed:
                needs_exact = True
                flow_cascade = None
            exact = enabling
        if not info.additive:
            # Non-additive updates cannot be delta-merged: the only
            # parallel avenues are a passing RRED cascade (updates
            # proven disjoint at runtime -> direct access) or an exact
            # test over every access including the update overlap.
            from ..usr import usr_union

            exact = usr_union(exact, overlap) if exact is not None else overlap
            if rred_failed:
                # No cascade can validate the updates either: the exact
                # test is the only avenue, and the plan must say so (a
                # silent rred=None here would read as a statically valid
                # SRED, which the executor never runs).
                needs_exact = True
        bounds_needed = self._needs_bounds_comp(ls, ctx)
        return ArrayPlan(
            array=array,
            transform="reduction",
            flow=flow_cascade,
            rred=None if rred_static else (None if rred_failed else rred_cascade),
            needs_bounds_comp=bounds_needed,
            extended_reduction=has_other_writes,
            reduction_additive=info.additive,
            needs_exact=needs_exact,
            exact_usr=exact,
        )

    def _drop_degenerate(self, cascade: Cascade, ls) -> Optional[Cascade]:
        """Remove cascade stages whose predicates only constrain the loop
        bounds themselves (they pass only for <= 1 iteration -- e.g.
        ``N < 2`` -- and would misreport a privatization loop as runtime
        tested).  Returns None when nothing meaningful remains."""
        from ..pdag import CascadeStage

        bound_syms = ls.lower.free_symbols() | ls.upper.free_symbols()
        kept = [
            stage
            for stage in cascade.stages
            if not stage.predicate.free_symbols() <= bound_syms
        ]
        if not kept:
            return None
        return Cascade(kept)

    def _needs_bounds_comp(self, ls, ctx: FactorContext) -> bool:
        """Reduction bounds are unknown statically: the whole-loop RW
        region has no LMAD overestimate (index arrays etc.), so the
        runtime must MIN/MAX-reduce them (Fig. 7(a))."""
        from ..usr import usr_recurrence

        rw_total = usr_recurrence(
            ls.index, ls.lower, ls.upper, ls.per_iteration.rw
        )
        est = overestimate(rw_total, ctx.monotone)
        return est.failed

    def _cascade_of(
        self, usr: USR, ctx: FactorContext
    ) -> tuple[Optional[Cascade], bool, bool]:
        """(cascade, statically_true, failed): factor + simplify + cascade.

        ``statically_true`` means no runtime test is needed at all;
        ``failed`` means the predicate is identically false (the paper's
        'resort to exact test' case).

        Memoized globally on (usr, factor-context knobs).  *ctx* only
        contributes its knobs: the factoring itself runs in a fresh
        :class:`FactorContext` so mutable per-context state (the fresh-
        index counter, per-context memos) cannot leak into the cached
        value -- identical keys yield bit-identical cascades regardless
        of call order or cache warmth.
        """
        from dataclasses import fields as _dc_fields

        # Every public FactorContext field is a semantic knob; deriving
        # the memo key and the fresh-context copy from the dataclass
        # definition means a future knob can never be forgotten in one
        # of them (which would serve cascades across configurations).
        knobs = {
            f.name: getattr(ctx, f.name)
            for f in _dc_fields(FactorContext)
            if not f.name.startswith("_")
        }
        key = (usr,) + tuple(knobs[name] for name in sorted(knobs))
        cached = _CASCADE_MEMO.get(key)
        if cached is not None:
            return cached
        fresh_ctx = FactorContext(**knobs)
        pred = simplify(factor(usr, fresh_ctx))
        if pred.is_true():
            result = (None, True, False)
        elif pred.is_false():
            result = (None, False, True)
        else:
            result = (build_cascade(pred), False, False)
        return _CASCADE_MEMO.put(key, result)

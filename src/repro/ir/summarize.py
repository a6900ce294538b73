"""Interprocedural access summarization: loop IR -> USR summaries.

This is the Section 2 construction: a bottom-up, structural data-flow
pass over the region tree that produces per-array (WF, RO, RW) summaries
represented as USRs.  Statement summaries are composed in program order
(Fig. 2(a)), IF branches merge under mutually exclusive gates, DO loops
aggregate (Fig. 2(b)), and call sites translate the callee's summary into
the caller's index space (array renaming + base offsets, modelling
Fortran's reshaping at call boundaries).

Scalars are executed symbolically; conditionally incremented scalars that
defeat closed forms (CIVs, Section 3.3) are modelled with *prefix atoms*
``$civ_c_label(i)`` denoting the scalar's value on entry to iteration
``i`` -- exactly the paper's ``CIV@k`` names of Fig. 7(b) -- plus
recorded increment information so the runtime can precompute them
(CIV-COMP) and the factorizer can exploit their monotonicity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .. import profiling as _profiling
from ..symbolic import ArrayRef, BoolExpr, Expr, sym
from ..usr import (
    EMPTY,
    LoopSummaries,
    Summary,
    aggregate_loop,
    compose,
    merge_branches,
    usr_gate,
    usr_leaf,
    usr_union,
)
from ..lmad import point
from .ast import (
    AssignArray,
    AssignScalar,
    Call,
    Do,
    If,
    IRStmt,
    Program,
    Subroutine,
    While,
)
from .convert import to_bool, to_expr

__all__ = [
    "CIVInfo",
    "ReductionInfo",
    "RegionSummary",
    "LoopAnalysisInput",
    "Summarizer",
    "summarize_loop",
]


@dataclass(frozen=True)
class CIVInfo:
    """A conditionally incremented induction variable of the target loop.

    ``prefix_array`` names the virtual prefix-sum array: its ``i``-th
    entry is the CIV's value on entry to iteration ``i``; entry
    ``upper+1`` is the final value (the paper's ``CIV@5``).
    ``nonnegative`` records whether every increment is provably >= 0,
    which makes the prefix array monotone.
    """

    name: str
    prefix_array: str
    loop_label: str
    nonnegative: bool


@dataclass(frozen=True)
class ReductionInfo:
    """A reduction candidate: ``A[e] = A[e] + expr`` statements."""

    array: str
    #: True when the loop also writes the array outside update statements
    #: (the EXT-RRED shape of Section 4).
    has_other_writes: bool
    #: True when every update of the array has the additive spine
    #: ``A[e] = A[e] +/- delta``.  Only additive updates commute under
    #: the runtime's delta-merge; a non-additive update (``max``,
    #: ``*``, ...) may run as a reduction only if proven non-overlapping.
    additive: bool = True


@dataclass
class RegionSummary:
    """Per-array summaries plus the symbolic scalar state at region exit."""

    arrays: dict[str, Summary] = field(default_factory=dict)
    scalars: dict[str, Expr] = field(default_factory=dict)
    #: arrays updated by reduction-shaped statements in this region
    reduction_arrays: set[str] = field(default_factory=set)
    #: arrays with at least one non-additive update (cannot delta-merge)
    nonadditive_updates: set[str] = field(default_factory=set)
    #: arrays written by non-reduction statements in this region
    plain_written: set[str] = field(default_factory=set)
    #: region contained constructs the converter could not represent
    approximate: bool = False

    def array_summary(self, name: str) -> Summary:
        return self.arrays.get(name, Summary())


@dataclass
class LoopAnalysisInput:
    """Everything the analyzer needs about one target loop."""

    label: str
    index: str
    lower: Expr
    upper: Expr
    summaries: dict[str, LoopSummaries]
    body_summary: RegionSummary
    reductions: dict[str, ReductionInfo]
    civs: list[CIVInfo]
    monotone_arrays: frozenset[str]
    approximate: bool
    #: scalars carrying a loop-level flow dependence (read-before-write,
    #: not a CIV): forbids parallelization regardless of array summaries
    scalar_flow_deps: frozenset[str] = frozenset()
    is_while: bool = False
    trip_symbol: Optional[str] = None


def _demote(summary: Summary) -> Summary:
    """Most conservative reclassification: everything becomes RW (and,
    for the reduction gate, everything counts as an exposed read)."""
    accessed = summary.all_accessed()
    return Summary(wf=EMPTY, ro=EMPTY, rw=accessed, exposed=accessed)


class Summarizer:
    """Summarizes a program's regions; memoizes subroutine summaries.

    With ``interprocedural=False`` (the commercial-compiler baseline
    model) call sites are not translated: every array of the program
    becomes a conservative whole-array RW access at the call, exactly the
    "lacks interprocedural dependence analysis" behaviour the paper
    attributes to ifort/xlf.
    """

    def __init__(self, program: Program, interprocedural: bool = True):
        self.program = program
        self.interprocedural = interprocedural
        self._sub_cache: dict[str, RegionSummary] = {}
        self._fresh = 0

    # -- helpers -----------------------------------------------------------
    def fresh_symbol(self, base: str) -> Expr:
        self._fresh += 1
        return sym(f"${base}.{self._fresh}")

    # -- region summarization ------------------------------------------------
    def summarize_region(
        self,
        stmts: tuple[IRStmt, ...],
        scalars: dict[str, Expr],
        civ_names: Optional[dict[str, Expr]] = None,
    ) -> RegionSummary:
        """Summarize a statement sequence starting from *scalars*.

        *civ_names* maps CIV scalar names to their entry-value expressions;
        assignments of shape ``c = c + e`` to those names are tracked
        without destroying the prefix-atom representation.
        """
        region = RegionSummary(scalars=dict(scalars))
        for stmt in stmts:
            step = self._summarize_stmt(stmt, region, civ_names or {})
            self._merge_sequential(region, step)
        return region

    def _merge_sequential(self, region: RegionSummary, step: RegionSummary) -> None:
        for name, summary in step.arrays.items():
            if name in region.arrays:
                region.arrays[name] = compose(region.arrays[name], summary)
            else:
                region.arrays[name] = summary
        region.scalars = step.scalars
        region.reduction_arrays |= step.reduction_arrays
        region.nonadditive_updates |= step.nonadditive_updates
        region.plain_written |= step.plain_written
        region.approximate |= step.approximate

    def _summarize_stmt(
        self,
        stmt: IRStmt,
        region: RegionSummary,
        civ_names: dict[str, Expr],
    ) -> RegionSummary:
        scalars = region.scalars
        if isinstance(stmt, AssignScalar):
            return self._do_assign_scalar(stmt, scalars)
        if isinstance(stmt, AssignArray):
            return self._do_assign_array(stmt, scalars)
        if isinstance(stmt, If):
            return self._do_if(stmt, scalars, civ_names)
        if isinstance(stmt, Do):
            return self._do_loop(stmt, scalars)
        if isinstance(stmt, While):
            return self._do_while(stmt, scalars)
        if isinstance(stmt, Call):
            return self._do_call(stmt, scalars)
        raise TypeError(f"unknown statement {stmt!r}")

    # -- statements -----------------------------------------------------------
    def _do_assign_scalar(
        self, stmt: AssignScalar, scalars: dict[str, Expr]
    ) -> RegionSummary:
        out = RegionSummary(scalars=dict(scalars))
        value = to_expr(stmt.expr, scalars)
        reads = self._collect_reads(stmt.expr, scalars)
        if value is None:
            value = self.fresh_symbol(stmt.name)
            out.approximate = True
        out.scalars[stmt.name] = value
        for arr, usr in reads.items():
            out.arrays[arr] = Summary.read(usr)
        return out

    def _do_assign_array(
        self, stmt: AssignArray, scalars: dict[str, Expr]
    ) -> RegionSummary:
        out = RegionSummary(scalars=dict(scalars))
        index = to_expr(stmt.index, scalars)
        reads = self._collect_reads(stmt.expr, scalars)
        # Index-expression reads count too (e.g. A[B[i]] reads B).
        for arr, usr in self._collect_reads(stmt.index, scalars).items():
            reads[arr] = usr_union(reads.get(arr, EMPTY), usr)
        if index is None:
            # Unknown write target: the whole array becomes RW.
            decl = self.program.array_decl(stmt.array)
            size = (
                to_expr(decl.size, {}) if decl is not None else None
            )
            from ..lmad import interval

            whole = usr_leaf(
                interval(1, size if size is not None else sym("$unknown"))
            )
            out.arrays[stmt.array] = Summary.read_write(whole)
            out.approximate = True
        else:
            target = usr_leaf(point(index))
            if stmt.is_update:
                from .parser import is_additive_update

                out.arrays[stmt.array] = Summary.read_write(target)
                out.reduction_arrays.add(stmt.array)
                if not is_additive_update(stmt.expr, stmt.array, stmt.index):
                    out.nonadditive_updates.add(stmt.array)
                # Only the self-read ``A[index]`` is part of the update;
                # any OTHER element of the same array read by the RHS
                # (``A[e] = A[e] + A[f]``) is a genuine exposed read and
                # must stay in the summary, or flow dependences through
                # it would be invisible to the independence equations.
                self_reads = reads.pop(stmt.array, None)
                if self_reads is not None and self_reads != target:
                    from ..usr.build import usr_subtract

                    other = usr_subtract(self_reads, target)
                    if other is not EMPTY:
                        reads[stmt.array] = other
            else:
                out.arrays[stmt.array] = Summary.write(target)
                out.plain_written.add(stmt.array)
        for arr, usr in reads.items():
            read_summary = Summary.read(usr)
            if arr in out.arrays:
                out.arrays[arr] = compose(read_summary, out.arrays[arr])
            else:
                out.arrays[arr] = read_summary
        return out

    def _collect_reads(self, expr, scalars: dict[str, Expr]) -> dict:
        """Array elements read while evaluating *expr*, as USRs."""
        from .ast import ArrayRead, BinOp, Intrinsic, UnaryOp

        out: dict[str, object] = {}

        def walk(e) -> None:
            if isinstance(e, ArrayRead):
                idx = to_expr(e.index, scalars)
                if idx is not None:
                    leaf = usr_leaf(point(idx))
                else:
                    from ..lmad import interval

                    decl = self.program.array_decl(e.array)
                    size = to_expr(decl.size, {}) if decl else sym("$unknown")
                    leaf = usr_leaf(interval(1, size))
                out[e.array] = usr_union(out.get(e.array, EMPTY), leaf)
                walk(e.index)
            elif isinstance(e, BinOp):
                walk(e.left)
                walk(e.right)
            elif isinstance(e, UnaryOp):
                walk(e.arg)
            elif isinstance(e, Intrinsic):
                for a in e.args:
                    walk(a)

        walk(expr)
        return out

    def _do_if(
        self, stmt: If, scalars: dict[str, Expr], civ_names: dict[str, Expr]
    ) -> RegionSummary:
        cond = to_bool(stmt.cond, scalars)
        then_region = self.summarize_region(stmt.then_body, scalars, civ_names)
        else_region = self.summarize_region(stmt.else_body, scalars, civ_names)
        # Reads performed by evaluating the condition itself.
        cond_reads = self._collect_reads(stmt.cond, scalars)
        out = RegionSummary(scalars={})
        if cond is None:
            # Unconvertible gate: merge both branches conservatively (all
            # touched locations demoted to RW -- sound overestimation).
            # sorted: insertion order here decides downstream iteration
            # order (e.g. the order a loop's arrays are planned in), so
            # it must not depend on per-process hash randomization
            for name in sorted(set(then_region.arrays) | set(else_region.arrays)):
                merged = usr_union(
                    then_region.array_summary(name).all_accessed(),
                    else_region.array_summary(name).all_accessed(),
                )
                out.arrays[name] = Summary.read_write(merged)
            out.approximate = True
            out.scalars = dict(scalars)
            assigned = sorted(set(then_region.scalars) | set(else_region.scalars))
            for name in assigned:
                t = then_region.scalars.get(name, scalars.get(name))
                e = else_region.scalars.get(name, scalars.get(name))
                if t == e and t is not None:
                    out.scalars[name] = t
                else:
                    out.scalars[name] = self.fresh_symbol(name)
        else:
            for name in sorted(set(then_region.arrays) | set(else_region.arrays)):
                out.arrays[name] = merge_branches(
                    cond,
                    then_region.array_summary(name),
                    else_region.array_summary(name),
                )
            out.scalars = dict(scalars)
            for name in sorted(set(then_region.scalars) | set(else_region.scalars)):
                t = then_region.scalars.get(name, scalars.get(name))
                e = else_region.scalars.get(name, scalars.get(name))
                if t == e and t is not None:
                    out.scalars[name] = t
                elif name in civ_names:
                    # CIV merge handled by the caller's prefix atoms: keep
                    # the entry value so later uses see the iteration-start
                    # value (increments live at iteration end).
                    out.scalars[name] = scalars[name]
                else:
                    out.scalars[name] = self.fresh_symbol(name)
        out.reduction_arrays = then_region.reduction_arrays | else_region.reduction_arrays
        out.nonadditive_updates = (
            then_region.nonadditive_updates | else_region.nonadditive_updates
        )
        out.plain_written = then_region.plain_written | else_region.plain_written
        out.approximate |= then_region.approximate or else_region.approximate
        for arr, usr in cond_reads.items():
            read_summary = Summary.read(usr)
            if arr in out.arrays:
                out.arrays[arr] = compose(read_summary, out.arrays[arr])
            else:
                out.arrays[arr] = read_summary
        return out

    # -- loops ------------------------------------------------------------------
    def _loop_bounds(
        self, stmt: Do, scalars: dict[str, Expr]
    ) -> tuple[Optional[Expr], Optional[Expr]]:
        return (to_expr(stmt.lower, scalars), to_expr(stmt.upper, scalars))

    def _do_loop(self, stmt: Do, scalars: dict[str, Expr]) -> RegionSummary:
        from .scalars import assigned_scalars, read_before_write

        lower, upper = self._loop_bounds(stmt, scalars)
        body_scalars = dict(scalars)
        body_scalars[stmt.index] = sym(stmt.index)
        # Scalars assigned inside the loop have unknown values at the
        # entry of iterations after the first; only expose the opaque to
        # scalars actually read before written (defined-before-use
        # scalars keep exact symbolic values).
        exposed = read_before_write(stmt.body)
        for name in assigned_scalars(stmt.body):
            if name != stmt.index and name in exposed:
                self._fresh += 1
                body_scalars[name] = ArrayRef(
                    f"$entry_{name}.{self._fresh}", [sym(stmt.index)]
                ).as_expr()
        body = self.summarize_region(stmt.body, body_scalars)
        out = RegionSummary(scalars=dict(scalars))
        out.reduction_arrays = set(body.reduction_arrays)
        out.nonadditive_updates = set(body.nonadditive_updates)
        out.plain_written = set(body.plain_written)
        out.approximate = body.approximate
        if lower is None or upper is None:
            out.approximate = True
            for name, summary in body.arrays.items():
                out.arrays[name] = _demote(
                    Summary.read_write(summary.all_accessed())
                )
            return out
        for name, summary in body.arrays.items():
            ls = aggregate_loop(stmt.index, lower, upper, summary)
            out.arrays[name] = ls.aggregate
        # Scalar exit values: last-iteration value when it only depends on
        # the index and loop-entry state; otherwise opaque.
        for name, value in body.scalars.items():
            if name == stmt.index:
                continue
            if name in scalars and value == scalars[name]:
                out.scalars[name] = value
                continue
            if value is not None and stmt.index in value.free_symbols():
                out.scalars[name] = value.substitute({stmt.index: upper})
            elif value is not None and not _mentions_fresh(value):
                out.scalars[name] = value
            else:
                out.scalars[name] = self.fresh_symbol(name)
        return out

    def _do_while(self, stmt: While, scalars: dict[str, Expr]) -> RegionSummary:
        """A while loop summarizes like a do-loop with opaque trip count."""
        label = stmt.label or f"while.{self._fresh}"
        trip = f"$trips_{label}"
        index = f"$w_{label}"
        body_scalars = dict(scalars)
        body_scalars[index] = sym(index)
        body = self.summarize_region(stmt.body, body_scalars)
        out = RegionSummary(scalars=dict(scalars))
        out.reduction_arrays = set(body.reduction_arrays)
        out.nonadditive_updates = set(body.nonadditive_updates)
        out.plain_written = set(body.plain_written)
        out.approximate = body.approximate
        for name, summary in body.arrays.items():
            ls = aggregate_loop(index, sym(index) * 0 + 1, sym(trip), summary)
            out.arrays[name] = ls.aggregate
        for name, value in body.scalars.items():
            if name == index:
                continue
            if name in scalars and value == scalars[name]:
                out.scalars[name] = value
            else:
                out.scalars[name] = self.fresh_symbol(name)
        return out

    # -- calls --------------------------------------------------------------------
    def summarize_subroutine(self, name: str) -> RegionSummary:
        """Summary of a subroutine body in terms of its formals (memoized)."""
        if name in self._sub_cache:
            return self._sub_cache[name]
        sub = self.program.subroutines[name]
        scalars = {p: sym(p) for p in sub.scalar_params}
        summary = self.summarize_region(sub.body, scalars)
        self._sub_cache[name] = summary
        return summary

    def _opaque_call(self, stmt: Call, scalars: dict[str, Expr]) -> RegionSummary:
        """Intra-procedural baseline: a call clobbers its array arguments
        (whole-array RW) and yields no information."""
        out = RegionSummary(scalars=dict(scalars))
        out.approximate = True
        for arg in stmt.args:
            if arg.is_array():
                usr = _whole_array_usr(self.program, arg.array)
                summary = Summary.read_write(usr)
                if arg.array in out.arrays:
                    out.arrays[arg.array] = compose(out.arrays[arg.array], summary)
                else:
                    out.arrays[arg.array] = summary
        return out

    def _do_call(self, stmt: Call, scalars: dict[str, Expr]) -> RegionSummary:
        sub = self.program.subroutines.get(stmt.callee)
        if sub is None:
            raise KeyError(f"call to unknown subroutine {stmt.callee!r}")
        if not self.interprocedural:
            return self._opaque_call(stmt, scalars)
        callee = self.summarize_subroutine(stmt.callee)
        # Bind formals to actuals.
        scalar_binding: dict[str, Expr] = {}
        array_binding: dict[str, tuple[str, Optional[Expr]]] = {}
        approx = callee.approximate
        scalar_formals = iter(sub.scalar_params)
        array_formals = iter(sub.array_params)
        for arg in stmt.args:
            if arg.is_array():
                formal = next(array_formals)
                offset = None
                if arg.offset is not None:
                    offset = to_expr(arg.offset, scalars)
                    if offset is None:
                        approx = True
                array_binding[formal] = (arg.array, offset)
            else:
                formal = next(scalar_formals)
                value = to_expr(arg.scalar, scalars)
                if value is None:
                    value = self.fresh_symbol(formal)
                    approx = True
                scalar_binding[formal] = value
        out = RegionSummary(scalars=dict(scalars))
        out.approximate = approx
        # Translate each callee-array summary into the caller's space.
        for formal, summary in callee.arrays.items():
            target, offset = array_binding.get(formal, (formal, None))
            translated = _translate_summary(
                summary, scalar_binding, array_binding, offset
            )
            if formal in callee.reduction_arrays:
                out.reduction_arrays.add(target)
            if formal in callee.nonadditive_updates:
                out.nonadditive_updates.add(target)
            if formal in callee.plain_written:
                out.plain_written.add(target)
            if target in out.arrays:
                out.arrays[target] = compose(out.arrays[target], translated)
            else:
                out.arrays[target] = translated
        return out


def _mentions_fresh(expr: Expr) -> bool:
    return any(name.startswith("$") for name in expr.free_symbols())


def _translate_summary(
    summary: Summary,
    scalar_binding: dict[str, Expr],
    array_binding: dict[str, tuple[str, Optional[Expr]]],
    offset: Optional[Expr],
) -> Summary:
    """Substitute formals by actuals and shift bases by the array offset."""
    mapping = dict(scalar_binding)
    renames = {formal: actual for formal, (actual, _off) in array_binding.items()}
    out = summary.substitute(mapping)
    out = Summary(
        wf=_rename_arrays(out.wf, renames),
        ro=_rename_arrays(out.ro, renames),
        rw=_rename_arrays(out.rw, renames),
        exposed=_rename_arrays(out.exposed, renames),
    )
    if offset is not None:
        out = Summary(
            wf=_shift_usr(out.wf, offset),
            ro=_shift_usr(out.ro, offset),
            rw=_shift_usr(out.rw, offset),
            exposed=_shift_usr(out.exposed, offset),
        )
    return out


def _rename_arrays(usr, renames: dict[str, str]):
    """Rename ArrayRef atoms inside all expressions of a USR (index arrays
    passed as parameters keep pointing at the caller's arrays)."""
    if not renames:
        return usr
    from ..usr import CallSite, Gate, Intersect, Leaf, Recurrence, Subtract, Union
    from ..usr.build import usr_call, usr_gate, usr_intersect, usr_recurrence, usr_subtract

    def rename_expr(e: Expr) -> Expr:
        out = e
        for atom in e.atoms():
            if isinstance(atom, ArrayRef) and atom.array in renames:
                new_atom = ArrayRef(
                    renames[atom.array], [rename_expr(i) for i in atom.indices]
                )
                out = _replace_atom(out, atom, new_atom)
        return out

    def rename_bool(b: BoolExpr) -> BoolExpr:
        from ..symbolic import AndB, Cmp, Divides, NotB, OrB, b_and, b_or, b_not as bn

        if isinstance(b, Cmp):
            from ..symbolic.boolean import _make_cmp

            return _make_cmp(rename_expr(b.expr), b.op)
        if isinstance(b, Divides):
            from ..symbolic import divides

            return divides(b.k, rename_expr(b.expr))
        if isinstance(b, AndB):
            return b_and(*(rename_bool(a) for a in b.args))
        if isinstance(b, OrB):
            return b_or(*(rename_bool(a) for a in b.args))
        if isinstance(b, NotB):
            return bn(rename_bool(b.arg))
        return b

    def walk(node):
        if isinstance(node, Leaf):
            from ..lmad import LMAD

            return Leaf(
                LMAD(
                    [rename_expr(d) for d in x.strides],
                    [rename_expr(s) for s in x.spans],
                    rename_expr(x.base),
                )
                for x in node.lmads
            )
        if isinstance(node, Union):
            return usr_union(*(walk(a) for a in node.args))
        if isinstance(node, Intersect):
            return usr_intersect(*(walk(a) for a in node.args))
        if isinstance(node, Subtract):
            return usr_subtract(walk(node.left), walk(node.right))
        if isinstance(node, Gate):
            return usr_gate(rename_bool(node.cond), walk(node.body))
        if isinstance(node, CallSite):
            return usr_call(node.callee, walk(node.body))
        if isinstance(node, Recurrence):
            return usr_recurrence(
                node.index,
                rename_expr(node.lower),
                rename_expr(node.upper),
                walk(node.body),
                partial=node.partial,
            )
        raise TypeError(f"unknown USR node {node!r}")

    return walk(usr)


def _replace_atom(expr: Expr, old: ArrayRef, new: ArrayRef) -> Expr:
    """Replace one atom by another throughout an expression."""
    from ..symbolic.expr import Expr as E

    out: dict = {}
    for mono, coeff in expr.terms:
        new_mono = tuple(
            sorted(
                ((new if a == old else a, p) for a, p in mono),
                key=lambda ap: ap[0]._order_key(),
            )
        )
        out[new_mono] = out.get(new_mono, 0) + coeff
    return E._from_terms(out)


def _shift_usr(usr, offset: Expr):
    """Displace every LMAD base by *offset* (array section passing)."""
    from ..usr import CallSite, Gate, Intersect, Leaf, Recurrence, Subtract, Union
    from ..usr.build import usr_call, usr_gate, usr_intersect, usr_recurrence, usr_subtract

    if isinstance(usr, Leaf):
        return Leaf(x.shifted(offset) for x in usr.lmads)
    if isinstance(usr, Union):
        return usr_union(*(_shift_usr(a, offset) for a in usr.args))
    if isinstance(usr, Intersect):
        return usr_intersect(*(_shift_usr(a, offset) for a in usr.args))
    if isinstance(usr, Subtract):
        return usr_subtract(_shift_usr(usr.left, offset), _shift_usr(usr.right, offset))
    if isinstance(usr, Gate):
        return usr_gate(usr.cond, _shift_usr(usr.body, offset))
    if isinstance(usr, CallSite):
        return usr_call(usr.callee, _shift_usr(usr.body, offset))
    if isinstance(usr, Recurrence):
        return usr_recurrence(
            usr.index, usr.lower, usr.upper, _shift_usr(usr.body, offset),
            partial=usr.partial,
        )
    raise TypeError(f"unknown USR node {usr!r}")


# -- target-loop analysis input ---------------------------------------------------


def _find_civs(stmt: Do) -> list[str]:
    """Scalars only ever assigned as ``c = c + e`` inside the loop body."""
    from .ast import ArrayRead, BinOp, Var

    assigned: dict[str, list] = {}

    def walk(stmts) -> None:
        for s in stmts:
            if isinstance(s, AssignScalar):
                assigned.setdefault(s.name, []).append(s.expr)
            elif isinstance(s, If):
                walk(s.then_body)
                walk(s.else_body)
            elif isinstance(s, (Do, While)):
                walk(s.body)

    walk(stmt.body)
    civs = []
    for name, exprs in assigned.items():
        def is_increment(e) -> bool:
            return (
                isinstance(e, BinOp)
                and e.op == "+"
                and (
                    (isinstance(e.left, Var) and e.left.name == name)
                    or (isinstance(e.right, Var) and e.right.name == name)
                )
            )

        if all(is_increment(e) for e in exprs):
            civs.append(name)
    return civs


def summarize_loop(
    program: Program, label: str, interprocedural: bool = True
) -> LoopAnalysisInput:
    """Produce the analyzer's input for one labelled loop.

    The loop body is summarized as a function of the loop index; CIVs get
    prefix atoms; the per-array summaries are aggregated via Fig. 2(b).
    """
    loop = program.find_loop(label)
    if loop is None:
        raise KeyError(f"no loop labelled {label!r} in program {program.name!r}")
    summarizer = Summarizer(program, interprocedural=interprocedural)
    scalars: dict[str, Expr] = {p: sym(p) for p in program.params}
    is_while = isinstance(loop, While)
    if is_while:
        from ..symbolic import as_expr

        index = f"$w_{label}"
        lower = as_expr(1)
        upper = sym(f"$trips_{label}")
        trip_symbol = f"$trips_{label}"
        body_stmts = loop.body
        civ_candidates = _find_civs(Do(index, None, None, loop.body, label))  # type: ignore[arg-type]
    else:
        index = loop.index
        lower = to_expr(loop.lower, scalars)
        upper = to_expr(loop.upper, scalars)
        trip_symbol = None
        body_stmts = loop.body
        civ_candidates = _find_civs(loop)
        if lower is None or upper is None:
            raise ValueError(f"loop {label!r} has unanalyzable bounds")

    from .scalars import assigned_scalars, read_before_write

    civs: list[CIVInfo] = []
    body_scalars = dict(scalars)
    body_scalars[index] = sym(index)
    civ_entry: dict[str, Expr] = {}
    assigned = assigned_scalars(body_stmts)
    exposed = read_before_write(body_stmts)
    for name in civ_candidates:
        prefix = f"$civ_{name}_{label}"
        entry = ArrayRef(prefix, [sym(index)]).as_expr()
        body_scalars[name] = entry
        civ_entry[name] = entry
        civs.append(
            CIVInfo(name=name, prefix_array=prefix, loop_label=label, nonnegative=True)
        )
    # Scalars assigned in the body have unknown per-iteration entry
    # values; scalars read before written (and not CIVs) carry a
    # loop-level flow dependence.
    scalar_deps: set[str] = set()
    for name in assigned:
        if name == index or name in civ_entry:
            continue
        body_scalars[name] = ArrayRef(
            f"$entry_{name}_{label}", [sym(index)]
        ).as_expr()
        if name in exposed and name in assigned:
            scalar_deps.add(name)

    with _profiling.timer("usr.build"):
        body = summarizer.summarize_region(body_stmts, body_scalars, civ_entry)

    # CIV aggregation refinement (Section 3.3): rewrite gated intervals
    # ending at the iteration's total increment into ungated intervals
    # ending at the next prefix value.
    monotone: set[str] = set()
    if civs:
        from .civagg import civ_aggregate_region, civ_increments_nonneg

        body = civ_aggregate_region(body, civs, index, body_stmts, body_scalars)
        index_bounds = {index: (lower, upper)}
        for info in civs:
            if civ_increments_nonneg(
                body_stmts, info.name, body_scalars, index_bounds
            ):
                monotone.add(info.prefix_array)

    summaries: dict[str, LoopSummaries] = {}
    with _profiling.timer("usr.build"):
        for name, summary in body.arrays.items():
            summaries[name] = aggregate_loop(index, lower, upper, summary)

    reductions: dict[str, ReductionInfo] = {}
    for arr in body.reduction_arrays:
        reductions[arr] = ReductionInfo(
            array=arr,
            has_other_writes=arr in body.plain_written,
            additive=arr not in body.nonadditive_updates,
        )
    return LoopAnalysisInput(
        label=label,
        index=index,
        lower=lower,
        upper=upper,
        summaries=summaries,
        body_summary=body,
        reductions=reductions,
        civs=civs,
        monotone_arrays=frozenset(monotone),
        approximate=body.approximate,
        scalar_flow_deps=frozenset(scalar_deps),
        is_while=is_while,
        trip_symbol=trip_symbol,
    )


def _whole_array_usr(program: Program, name: str):
    from ..lmad import interval

    decl = program.array_decl(name)
    size = to_expr(decl.size, {}) if decl is not None else None
    return usr_leaf(interval(1, size if size is not None else sym("$unknown")))

"""CIV aggregation -- the flow-sensitive refinement of Section 3.3.

A conditionally incremented induction variable (CIV) ``c`` has no closed
form, so accesses indexed through it defeat LMAD aggregation.  The paper's
``CIVagg`` rewrites the per-iteration summary so both CFG paths carry the
*same* interval:

* on the increment path the writes cover ``[c@i + 1, c@i + inc]`` which
  equals ``[c@i + 1, c@(i+1)]``;
* on the other path the interval ``[c@i + 1, c@(i+1)]`` is *empty*
  because ``c@(i+1) = c@i`` puts the upper bound below the lower bound.

The gate therefore cancels and the summary becomes an ungated interval
between consecutive prefix values, which the monotonicity machinery can
reason about exactly (Fig. 7(b)).
"""

from __future__ import annotations

from typing import Optional

from ..lmad import LMAD
from ..symbolic import ArrayRef, BoolExpr, Cmp, Expr, b_and, sym
from ..symbolic.ranges import try_sign
from ..usr import (
    CallSite,
    Gate,
    Intersect,
    Leaf,
    Recurrence,
    Subtract,
    Summary,
    Union,
    USR,
    usr_call,
    usr_gate,
    usr_intersect,
    usr_recurrence,
    usr_subtract,
    usr_union,
)
from .ast import AssignScalar, BinOp, Do, If, IRStmt, Var, While, walk_stmts
from .convert import to_bool, to_expr

__all__ = ["civ_aggregate_region", "civ_increments_nonneg", "collect_increments"]


def collect_increments(
    stmts: tuple[IRStmt, ...],
    name: str,
    scalars: dict[str, Expr],
) -> Optional[list[tuple[Optional[BoolExpr], Expr]]]:
    """Gather ``(gate, increment)`` pairs for CIV *name*.

    Returns None when an increment is unanalyzable (which disables the
    refinement).  Gates stack across nested ifs.
    """
    out: list[tuple[Optional[BoolExpr], Expr]] = []

    def walk(body: tuple[IRStmt, ...], gates: list[BoolExpr]) -> bool:
        for s in body:
            if isinstance(s, AssignScalar) and s.name == name:
                inc = _increment_of(s, name, scalars)
                if inc is None:
                    return False
                gate = b_and(*gates) if gates else None
                out.append((gate, inc))
            elif isinstance(s, If):
                cond = to_bool(s.cond, scalars)
                if cond is None:
                    if _assigns((s,), name):
                        return False
                    continue
                from ..symbolic import b_not

                if not walk(s.then_body, gates + [cond]):
                    return False
                if not walk(s.else_body, gates + [b_not(cond)]):
                    return False
            elif isinstance(s, (Do, While)):
                if _assigns(s.body, name):
                    return False  # nested-loop accumulation: out of scope
        return True

    if not walk(stmts, []):
        return None
    return out


def _assigns(body: tuple[IRStmt, ...], name: str) -> bool:
    return any(
        isinstance(s, AssignScalar) and s.name == name for s in walk_stmts(body)
    )


def _increment_of(
    stmt: AssignScalar, name: str, scalars: dict[str, Expr]
) -> Optional[Expr]:
    """The ``e`` of ``c = c + e`` (either operand order)."""
    expr = stmt.expr
    if not (isinstance(expr, BinOp) and expr.op == "+"):
        return None
    if isinstance(expr.left, Var) and expr.left.name == name:
        return to_expr(expr.right, scalars)
    if isinstance(expr.right, Var) and expr.right.name == name:
        return to_expr(expr.left, scalars)
    return None


def civ_increments_nonneg(
    stmts: tuple[IRStmt, ...],
    name: str,
    scalars: dict[str, Expr],
    bounds: Optional[dict] = None,
) -> bool:
    """Every increment of *name* provably >= 0 (possibly thanks to its own
    gate, e.g. ``if NSP[i] > 0 then ... c = c + NSP[i]``, or to the loop
    index range passed in *bounds*)."""
    incs = collect_increments(stmts, name, scalars)
    if incs is None:
        return False
    for gate, inc in incs:
        if try_sign(inc, bounds or {}) in ("+", "0"):
            continue
        if gate is not None and _gate_implies_nonneg(gate, inc):
            continue
        return False
    return True


def _gate_implies_nonneg(gate: BoolExpr, inc: Expr) -> bool:
    """Does some conjunct of the gate state ``inc > 0`` or ``inc >= 0``?"""
    from ..symbolic import AndB

    conjuncts = gate.args if isinstance(gate, AndB) else (gate,)
    for c in conjuncts:
        if isinstance(c, Cmp) and c.op in (">", ">="):
            if c.expr == inc:
                return True
    return False


def civ_aggregate_region(region, civs, index: str, stmts, scalars):
    """Apply the CIVagg interval rewrite to every array summary.

    For each CIV with a single gated increment, gated write summaries of
    shape ``gate # [c@i + a, c@i + inc + b]`` (constants ``a > b``) are
    rewritten to the ungated ``[c@i + a, c@(i+1) + b]``.
    """
    for info in civs:
        incs = collect_increments(stmts, info.name, scalars)
        if incs is None or len(incs) != 1:
            continue
        gate, inc = incs[0]
        entry = ArrayRef(info.prefix_array, [sym(index)]).as_expr()
        nxt = ArrayRef(info.prefix_array, [sym(index) + 1]).as_expr()
        for arr, summary in list(region.arrays.items()):
            region.arrays[arr] = Summary(
                wf=_rewrite(summary.wf, gate, inc, entry, nxt),
                ro=summary.ro,
                rw=_rewrite(summary.rw, gate, inc, entry, nxt),
                exposed=_rewrite(summary.exposed, gate, inc, entry, nxt),
            )
    return region


def _rewrite(
    usr: USR, gate: Optional[BoolExpr], inc: Expr, entry: Expr, nxt: Expr
) -> USR:
    if isinstance(usr, Leaf):
        if gate is None:
            replaced = _rewrite_leaf(usr, inc, entry, nxt)
            if replaced is not None:
                return replaced
        return usr
    if isinstance(usr, Gate):
        inner = _rewrite(usr.body, gate, inc, entry, nxt)
        if gate is not None and isinstance(inner, Leaf) and _gate_matches(
            usr.cond, gate
        ):
            replaced = _rewrite_leaf(inner, inc, entry, nxt)
            if replaced is not None:
                return replaced
        return usr_gate(usr.cond, inner)
    if isinstance(usr, Union):
        return usr_union(*(_rewrite(a, gate, inc, entry, nxt) for a in usr.args))
    if isinstance(usr, Intersect):
        return usr_intersect(*(_rewrite(a, gate, inc, entry, nxt) for a in usr.args))
    if isinstance(usr, Subtract):
        return usr_subtract(
            _rewrite(usr.left, gate, inc, entry, nxt),
            _rewrite(usr.right, gate, inc, entry, nxt),
        )
    if isinstance(usr, CallSite):
        return usr_call(usr.callee, _rewrite(usr.body, gate, inc, entry, nxt))
    if isinstance(usr, Recurrence):
        return usr_recurrence(
            usr.index,
            usr.lower,
            usr.upper,
            _rewrite(usr.body, gate, inc, entry, nxt),
            partial=usr.partial,
        )
    raise TypeError(f"unknown USR node {usr!r}")


def _rewrite_leaf(
    leaf: Leaf, inc: Expr, entry: Expr, nxt: Expr
) -> Optional[USR]:
    """Rewrite interval LMADs ``[entry+a, entry+inc+b]`` (a > b const) to
    ``[entry+a, nxt+b]``; None when any LMAD does not match."""
    out: list[LMAD] = []
    for lmad in leaf.lmads:
        live = lmad.normalized()
        if live.ndims > 1 or (live.ndims == 1 and live.strides[0] != 1):
            return None
        lower = live.base
        upper = live.base + live.extent()
        a_off = lower - entry
        b_off = upper - entry - inc
        # Offsets may stay symbolic (e.g. ``OUT[M + civ + j]``) as long as
        # they are civ-free and their difference is a positive constant,
        # which keeps the no-increment interval empty.
        prefix_atoms = {a.array for a in entry.atoms() if hasattr(a, "array")}
        for off in (a_off, b_off):
            if any(
                getattr(atom, "array", None) in prefix_atoms
                for atom in off.atoms()
            ):
                return None
        gap = a_off - b_off
        if not gap.is_constant() or gap.constant_value() <= 0:
            return None  # would not be empty on the no-increment path
        new_upper = nxt + b_off
        out.append(LMAD((live.strides[0] if live.ndims else 1,),
                        (new_upper - lower,), lower))
    return Leaf(out)


def _conjuncts(cond: BoolExpr) -> tuple[BoolExpr, ...]:
    from ..symbolic import AndB

    return cond.args if isinstance(cond, AndB) else (cond,)


def _gate_matches(cond: BoolExpr, gate: BoolExpr) -> bool:
    """Does *cond* consist of the CIV gate's conjuncts plus residuals the
    gate already implies?  (Typical residual: the ``span >= 0`` guard a
    loop aggregation adds -- ``NSP(i)-1 >= 0`` -- implied by the gate's
    own ``NSP(i) > 0``.)"""
    gate_parts = set(_conjuncts(gate))
    for part in _conjuncts(cond):
        if part in gate_parts:
            continue
        if not any(_implies(g, part) for g in gate_parts):
            return False
    # Every gate conjunct must be present (cond must be at least as
    # strong as the gate: rewriting relies on "gate false => no
    # increment => empty interval", so cond => gate is what we need).
    for g in gate_parts:
        if g not in set(_conjuncts(cond)) and not any(
            _implies(c, g) for c in _conjuncts(cond)
        ):
            return False
    return True


def _implies(premise: BoolExpr, conclusion: BoolExpr) -> bool:
    """Cheap syntactic implication over canonical comparisons: for
    ``e + c`` differing by a constant, ``e > 0 => e + c >= 0`` when
    ``c >= -1`` (integers), etc."""
    if premise == conclusion:
        return True
    if not (isinstance(premise, Cmp) and isinstance(conclusion, Cmp)):
        return False
    diff = conclusion.expr - premise.expr
    if not diff.is_constant():
        return False
    c = diff.constant_value()
    if premise.op == ">":
        if conclusion.op == ">=":
            return c >= -1
        if conclusion.op == ">":
            return c >= 0
    if premise.op == ">=":
        if conclusion.op == ">=":
            return c >= 0
        if conclusion.op == ">":
            return c >= 1
    return False

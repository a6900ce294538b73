"""USR reshaping transformations (Section 3.4).

Predicates are extracted by pattern matching the *shape* of a summary, so
semantically equal summaries can translate to predicates of different
accuracy.  Two shape-normalizing rewrites fix the important cases:

1. **Repeated subtraction regrouping**: ``(A - B) - C -> A - (B u C)``.
   Performed eagerly by :func:`repro.usr.build.usr_subtract`; the pass
   here re-establishes it after substitutions.
2. **UMEG preservation**: operations between unions of mutually exclusive
   gates distribute *inside* each gate, so each branch is compared
   against the matching branch instead of an opaque mixture.  This was
   the transformation that unlocked ZEUSMP and CALCULIX in the paper.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .. import profiling as _profiling
from ..symbolic import BoolExpr, Cmp, b_not
from ..symbolic.intern import Memo
from .build import usr_gate, usr_intersect, usr_subtract, usr_union
from .nodes import CallSite, Gate, Intersect, Leaf, Recurrence, Subtract, Union, USR

__all__ = ["mutually_exclusive", "reshape", "umeg_parts"]


def mutually_exclusive(c1: BoolExpr, c2: BoolExpr) -> bool:
    """Syntactic proof that two gate conditions cannot hold together.

    Recognizes negation pairs (``SYM.NE.1`` vs ``SYM.EQ.1``) and equality
    gates on the same expression with different constants.
    """
    if c1 == b_not(c2):
        return True
    if isinstance(c1, Cmp) and isinstance(c2, Cmp):
        if c1.op == "==" and c2.op == "==":
            diff = c1.expr - c2.expr
            if diff.is_constant() and diff.constant_value() != 0:
                return True
    return False


def _pairwise_exclusive(conds: Sequence[BoolExpr]) -> bool:
    for i, a in enumerate(conds):
        for b in conds[i + 1:]:
            if not mutually_exclusive(a, b):
                return False
    return True


def umeg_parts(usr: USR) -> Optional[list[tuple[BoolExpr, USR]]]:
    """Decompose a union-of-mutually-exclusive-gates, or return None.

    A single gate counts as a UMEG of one part; a bare union of gates
    qualifies when all gate conditions are pairwise exclusive.
    """
    if isinstance(usr, Gate):
        return [(usr.cond, usr.body)]
    if isinstance(usr, Union) and all(isinstance(a, Gate) for a in usr.args):
        parts = [(a.cond, a.body) for a in usr.args]  # type: ignore[union-attr]
        if _pairwise_exclusive([c for c, _ in parts]):
            return parts
    return None


def _compatible(
    x_parts: list[tuple[BoolExpr, USR]], y: USR
) -> Optional[list[tuple[BoolExpr, USR, USR]]]:
    """Match Y's content against X's gates.

    Returns ``(cond, x_body, y_body_under_cond)`` triples when every gated
    part of Y reuses one of X's conditions (compatible shapes); ungated
    parts of Y are live under every condition.  None when incompatible.
    """
    x_conds = [c for c, _ in x_parts]
    per_cond: dict[BoolExpr, list[USR]] = {c: [] for c in x_conds}
    common: list[USR] = []
    y_items = list(y.args) if isinstance(y, Union) else [y]
    for item in y_items:
        if isinstance(item, Gate):
            if item.cond in per_cond:
                per_cond[item.cond].append(item.body)
                continue
            if all(mutually_exclusive(item.cond, c) for c in x_conds):
                # Dead under every X gate: contributes nothing.
                continue
            return None
        common.append(item)
    out = []
    for cond, x_body in x_parts:
        y_under = usr_union(*per_cond[cond], *common) if (per_cond[cond] or common) else None
        from .build import EMPTY

        out.append((cond, x_body, y_under if y_under is not None else EMPTY))
    return out


def _reshape_subtract(node: Subtract) -> USR:
    left = reshape(node.left)
    right = reshape(node.right)
    x_parts = umeg_parts(left)
    if x_parts is not None and len(x_parts) >= 1:
        matched = _compatible(x_parts, right)
        if matched is not None:
            return usr_union(
                *(usr_gate(c, usr_subtract(xb, yb)) for c, xb, yb in matched)
            )
    return usr_subtract(left, right)


def _reshape_intersect(node: Intersect) -> USR:
    args = [reshape(a) for a in node.args]
    if len(args) == 2:
        for x, y in ((args[0], args[1]), (args[1], args[0])):
            x_parts = umeg_parts(x)
            if x_parts is not None:
                matched = _compatible(x_parts, y)
                if matched is not None:
                    from .build import EMPTY

                    pieces = []
                    for c, xb, yb in matched:
                        if yb.is_empty_leaf():
                            continue  # Ci # (Si ^ {}) = {}
                        pieces.append(usr_gate(c, usr_intersect(xb, yb)))
                    return usr_union(*pieces) if pieces else EMPTY
    return usr_intersect(*args)


#: Reshape is a pure function of one hash-consed node, and a loop's
#: independence equations share summaries (per cold item, 215 of 1 491
#: non-leaf calls hit on compile_cold's items, 521 of 4 196 on churn).
_RESHAPE_MEMO = Memo("usr.reshape", max_size=200_000)


@_profiling.timed("usr.reshape")
def reshape(usr: USR) -> USR:
    """Bottom-up application of the Section 3.4 reshaping rules."""
    if isinstance(usr, Leaf):
        return usr
    cached = _RESHAPE_MEMO.get(usr)
    if cached is not None:
        return cached
    return _RESHAPE_MEMO.put(usr, _reshape_uncached(usr))


def _reshape_uncached(usr: USR) -> USR:
    if isinstance(usr, Subtract):
        return _reshape_subtract(usr)
    if isinstance(usr, Intersect):
        return _reshape_intersect(usr)
    if isinstance(usr, Union):
        return usr_union(*(reshape(a) for a in usr.args))
    if isinstance(usr, Gate):
        return usr_gate(usr.cond, reshape(usr.body))
    if isinstance(usr, CallSite):
        from .build import usr_call

        return usr_call(usr.callee, reshape(usr.body))
    if isinstance(usr, Recurrence):
        from .build import usr_recurrence

        return usr_recurrence(
            usr.index, usr.lower, usr.upper, reshape(usr.body), partial=usr.partial
        )
    raise TypeError(f"unknown USR node {usr!r}")

"""Symbolic Fourier-Motzkin-style elimination (Fig. 6(b) of the paper).

``REDUCE_GT_0`` receives an integer expression ``expr`` and returns a
*sufficient* predicate for ``expr > 0`` that no longer mentions the
eliminated (ranged) symbols.  The rule implemented is exactly the paper's:

    expr = a*i + b,  L <= i <= U,  i not in b
    P = [a >= 0  and  a*L + b > 0]  or  [a < 0  and  a*U + b > 0]

where the four subproblems recurse with a strictly smaller exponent of
``i`` (``a`` may still mention ``i`` for super-linear inputs), so the
recursion terminates -- in exponential time in the number of eliminated
symbols, as the paper notes in Section 3.6.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .. import profiling as _profiling
from .boolean import FALSE, TRUE, AndB, BoolExpr, Cmp, OrB, b_and, b_or, gt0
from .expr import Expr, ExprLike, Sym, as_expr
from .intern import Memo
from .ranges import BoundsEnv, FrozenBounds, freeze_bounds_env, try_sign

__all__ = ["reduce_gt0", "reduce_ge0", "eliminate_symbol"]

#: Hard cap on recursion depth: the typical use eliminates one outer-loop
#: index (Section 3.6), so a small cap loses nothing in practice while
#: bounding compile time.
_MAX_DEPTH = 24


def _find_symbol(expr: Expr, bounds: BoundsEnv, order: Sequence[str]) -> Optional[str]:
    """Pick the next symbol to eliminate: honours *order*, else any ranged
    symbol occurring affinely-decomposably in *expr*."""
    present = expr.free_symbols()
    for name in order:
        if name in present and name in bounds:
            return name
    for name in sorted(present):
        if name in bounds:
            return name
    return None


def _decompose(expr: Expr, name: str) -> tuple[Expr, Expr]:
    """Write ``expr = a*name + b`` with ``name`` not in ``b``.

    For super-linear occurrences, ``a`` keeps the residual powers (degree
    reduced by one), matching the paper's termination argument.  Opaque
    atoms that mention *name* (e.g. ``IA(i)``) cannot be decomposed; the
    caller must treat the expression as irreducible then.
    """
    target = Sym(name)
    a_terms: dict = {}
    b_terms: dict = {}
    for mono, coeff in expr.terms:
        powers = dict(mono)
        if target in powers:
            new_powers = dict(powers)
            if new_powers[target] == 1:
                del new_powers[target]
            else:
                new_powers[target] -= 1
            key = tuple(sorted(new_powers.items(), key=lambda ap: ap[0]._order_key()))
            a_terms[key] = a_terms.get(key, 0) + coeff
        else:
            b_terms[mono] = b_terms.get(mono, 0) + coeff
    return (Expr._from_terms(a_terms), Expr._from_terms(b_terms))


def _decomposable(expr: Expr, name: str) -> bool:
    """True when every occurrence of *name* is as a plain symbol power."""
    for mono, _ in expr.terms:
        for atom, _p in mono:
            if name in atom.free_symbols() and not (
                isinstance(atom, Sym) and atom.name == name
            ):
                return False
    return True


#: Memo for :func:`reduce_gt0`.  The elimination is exponential in the
#: eliminated symbols (Section 3.6) and the same subproblems recur both
#: within one elimination (the four-way case split shares ``a``/``b``
#: pieces) and across simplification passes; the recursion depth is part
#: of the key so cold and warm runs produce bit-identical predicates.
_REDUCE_MEMO = Memo("symbolic.reduce_gt0", max_size=500_000)


def reduce_gt0(
    expr: ExprLike,
    bounds: BoundsEnv,
    order: Sequence[str] = (),
    _depth: int = 0,
) -> BoolExpr:
    """A sufficient predicate for ``expr > 0`` free of the ranged symbols.

    *bounds* maps symbol names to inclusive ``(lower, upper)`` expressions;
    *order* optionally prioritizes elimination (outermost loop index first,
    per Section 3.6).  Falls back to the raw comparison when no eliminable
    symbol remains.  Memoized on interned identities; the environment is
    frozen once here and threaded through the (exponential) recursion so
    neither the memo probes nor the sign tests re-canonicalize it.
    """
    return _reduce_cached(
        as_expr(expr), freeze_bounds_env(bounds), tuple(order), _depth
    )


def _reduce_cached(
    expr: Expr, bounds: FrozenBounds, order: tuple, depth: int
) -> BoolExpr:
    key = (expr, bounds.key, order, depth)
    cached = _REDUCE_MEMO.get(key)
    if cached is not None:
        return cached
    return _REDUCE_MEMO.put(key, _reduce_gt0(expr, bounds, order, depth))


def _reduce_gt0(
    expr: Expr, bounds: FrozenBounds, order: tuple, _depth: int
) -> BoolExpr:
    sign = try_sign(expr, bounds)
    if sign == "+":
        return TRUE
    if sign in ("-", "0"):
        return FALSE
    if _depth >= _MAX_DEPTH:
        return FALSE  # give up conservatively: predicate is only sufficient
    name = _find_symbol(expr, bounds, order)
    if name is None or not _decomposable(expr, name):
        return gt0(expr)
    lower, upper = bounds[name]
    a, b = _decompose(expr, name)
    # a >= 0  <=>  a + 1 > 0 over the integers.
    sub = {name: lower}
    at_lower = (a * lower + b).substitute(sub) if a.depends_on(name) else a * lower + b
    case_nonneg = b_and(
        _reduce_cached(a + 1, bounds, order, _depth + 1),
        _reduce_cached(at_lower, bounds, order, _depth + 1),
    )
    sub = {name: upper}
    at_upper = (a * upper + b).substitute(sub) if a.depends_on(name) else a * upper + b
    case_neg = b_and(
        _reduce_cached(-a, bounds, order, _depth + 1),
        _reduce_cached(at_upper, bounds, order, _depth + 1),
    )
    return b_or(case_nonneg, case_neg)


def reduce_ge0(expr: ExprLike, bounds: BoundsEnv, order: Sequence[str] = ()) -> BoolExpr:
    """A sufficient predicate for ``expr >= 0`` (integers: ``expr+1 > 0``)."""
    return reduce_gt0(as_expr(expr) + 1, bounds, order)


_ELIM_MEMO = Memo("symbolic.eliminate_symbol", max_size=200_000)


@_profiling.timed("fm.eliminate_symbol")
def eliminate_symbol(
    pred: BoolExpr, name: str, lower: ExprLike, upper: ExprLike
) -> BoolExpr:
    """Eliminate one ranged symbol from every comparison leaf of *pred*.

    Comparisons are strengthened via :func:`reduce_gt0`; leaves that do not
    mention *name* pass through unchanged.  Used when hoisting a leaf
    predicate out of its surrounding loop node (Section 3.5).  Memoized:
    the same (leaf, loop) pairs recur across simplification passes and
    cascade stages.
    """
    lower, upper = as_expr(lower), as_expr(upper)
    key = (pred, name, lower, upper)
    cached = _ELIM_MEMO.get(key)
    if cached is not None:
        return cached
    return _ELIM_MEMO.put(key, _eliminate_symbol(pred, name, lower, upper))


def _eliminate_symbol(
    pred: BoolExpr, name: str, lower: Expr, upper: Expr
) -> BoolExpr:
    if name not in pred.free_symbols():
        return pred
    if isinstance(pred, Cmp):
        # Equalities/disequalities over a ranged symbol have no useful
        # sufficient strengthening here; keep them (they stay loop-bound).
        if pred.op not in (">", ">="):
            return pred
        reduce = reduce_gt0 if pred.op == ">" else reduce_ge0
        return reduce(pred.expr, FrozenBounds({name: (lower, upper)}), order=(name,))
    if isinstance(pred, AndB):
        return b_and(*(eliminate_symbol(a, name, lower, upper) for a in pred.args))
    if isinstance(pred, OrB):
        # A disjunction is strengthened disjunct-wise only if each disjunct
        # can be strengthened independently (sound: each implies original).
        return b_or(*(eliminate_symbol(a, name, lower, upper) for a in pred.args))
    return pred  # NotB, Divides, constants

"""Symbolic range propagation.

The inference rules frequently need conservative lower/upper bounds of a
symbolic expression given known ranges of some symbols (typically loop
indexes: ``1 <= i <= N``).  This module implements interval arithmetic on
the polynomial normal form of :class:`~repro.symbolic.expr.Expr`, returning
symbolic bound expressions when they exist and ``None`` when no safe bound
can be formed.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .expr import Expr, ExprLike, Sym, as_expr
from .intern import Memo

__all__ = [
    "Bounds",
    "BoundsEnv",
    "FrozenBounds",
    "bounds_of",
    "freeze_bounds_env",
    "try_sign",
    "definitely_nonneg",
]

#: A pair of optional symbolic bounds (lower, upper); ``None`` = unknown.
Bounds = tuple[Optional[Expr], Optional[Expr]]

#: Known symbol ranges: name -> (lower, upper) expressions (inclusive).
BoundsEnv = Mapping[str, tuple[ExprLike, ExprLike]]


def _add(a: Optional[Expr], b: Optional[Expr]) -> Optional[Expr]:
    if a is None or b is None:
        return None
    return a + b


def _is_point(b: Bounds) -> bool:
    lo, hi = b
    return lo is not None and hi is not None and lo == hi


def _mul_bounds(b1: Bounds, b2: Bounds) -> Bounds:
    """Interval product; exact where operand signs are determinable."""
    # A constant point scales the other interval directly.
    for x, y in ((b1, b2), (b2, b1)):
        if _is_point(x) and x[0].is_constant():
            c = x[0].constant_value()
            lo, hi = y
            if c == 0:
                return (as_expr(0), as_expr(0))
            scaled_lo = None if lo is None else lo * c
            scaled_hi = None if hi is None else hi * c
            if c > 0:
                return (scaled_lo, scaled_hi)
            return (scaled_hi, scaled_lo)
    # Two symbolic points multiply to a point.
    if _is_point(b1) and _is_point(b2):
        product = b1[0] * b2[0]
        return (product, product)
    lo1, hi1 = b1
    lo2, hi2 = b2
    if any(v is None for v in (lo1, hi1, lo2, hi2)):
        return (None, None)
    # Both intervals provably within [0, +inf): monotone product.
    if (
        lo1.is_constant()
        and lo1.constant_value() >= 0
        and lo2.is_constant()
        and lo2.constant_value() >= 0
    ):
        return (lo1 * lo2, hi1 * hi2)
    if all(v.is_constant() for v in (lo1, hi1, lo2, hi2)):
        corners = [
            x.constant_value() * y.constant_value()
            for x in (lo1, hi1)
            for y in (lo2, hi2)
        ]
        return (as_expr(min(corners)), as_expr(max(corners)))
    return (None, None)


#: Memo for :func:`bounds_of`: (expr, frozen env) -> Bounds.  Range
#: queries dominate sign tests, which the Fourier-Motzkin elimination
#: issues for the same (expression, loop-range) pairs across every
#: simplification pass and cascade stage.
_BOUNDS_MEMO = Memo("symbolic.bounds_of", max_size=500_000)


class FrozenBounds(dict):
    """A symbol-range environment whose bounds are expressions and whose
    hashable canonical form (``key``, what the range and elimination
    memos key on) is computed once.  Must not be mutated."""

    __slots__ = ("key",)

    def __init__(self, env: BoundsEnv):
        super().__init__(
            (name, (as_expr(lo), as_expr(hi))) for name, (lo, hi) in env.items()
        )
        self.key = tuple(sorted((name, lo, hi) for name, (lo, hi) in self.items()))


def freeze_bounds_env(env: BoundsEnv) -> FrozenBounds:
    """*env* with its canonical form attached; a caller that issues many
    range queries under one environment freezes it once and passes the
    result to each."""
    return env if type(env) is FrozenBounds else FrozenBounds(env)


def bounds_of(expr: ExprLike, env: BoundsEnv) -> Bounds:
    """Conservative symbolic bounds of *expr* under symbol ranges *env*.

    Works monomial by monomial.  A monomial's bounds are exact when each of
    its atoms either is a ranged symbol with a constant-sign coefficient or
    falls outside *env* (treated as an unknown -> ``(None, None)`` unless
    the whole monomial is that lone atom, in which case the atom itself is
    both bounds -- it is a symbolic constant as far as *env* goes).

    Memoized on the interned expression identity plus the frozen
    environment.
    """
    expr = as_expr(expr)
    env = freeze_bounds_env(env)
    key = (expr, env.key)
    cached = _BOUNDS_MEMO.get(key)
    if cached is not None:
        return cached
    return _BOUNDS_MEMO.put(key, _bounds_of(expr, env))


def _bounds_of(expr: Expr, env: FrozenBounds) -> Bounds:
    total_lo: Optional[Expr] = as_expr(0)
    total_hi: Optional[Expr] = as_expr(0)
    one = as_expr(1)
    ranged = set(env)
    for mono, coeff in expr.terms:
        mono_bounds: Bounds = (one, one)
        for atom, power in mono:
            if isinstance(atom, Sym) and atom.name in env:
                atom_bounds: Bounds = env[atom.name]
            elif atom.free_symbols() & ranged:
                # Atom entangles a ranged symbol opaquely (e.g. IA(i)).
                atom_bounds = (None, None)
            else:
                e = atom.as_expr()
                atom_bounds = (e, e)
            for _ in range(power):
                mono_bounds = _mul_bounds(mono_bounds, atom_bounds)
        lo, hi = mono_bounds
        if coeff >= 0:
            term_lo = None if lo is None else lo * coeff
            term_hi = None if hi is None else hi * coeff
        else:
            term_lo = None if hi is None else hi * coeff
            term_hi = None if lo is None else lo * coeff
        total_lo = _add(total_lo, term_lo)
        total_hi = _add(total_hi, term_hi)
    return (total_lo, total_hi)


def try_sign(expr: ExprLike, env: Optional[BoundsEnv] = None) -> Optional[str]:
    """Best-effort sign of *expr*: ``'+'``, ``'-'``, ``'0'`` or ``None``.

    ``'+'`` means provably ``> 0``; ``'-'`` provably ``< 0``; ``'0'``
    provably zero.  Symbols without a range entry are unconstrained.
    """
    expr = as_expr(expr)
    if expr.is_constant():
        v = expr.constant_value()
        return "0" if v == 0 else ("+" if v > 0 else "-")
    lo, hi = bounds_of(expr, env or {})
    if lo is not None and lo.is_constant() and lo.constant_value() > 0:
        return "+"
    if hi is not None and hi.is_constant() and hi.constant_value() < 0:
        return "-"
    if (
        lo is not None
        and hi is not None
        and lo == hi
        and lo.is_constant()
        and lo.constant_value() == 0
    ):
        return "0"
    return None


def definitely_nonneg(expr: ExprLike, env: Optional[BoundsEnv] = None) -> bool:
    """True when *expr* is provably ``>= 0`` under *env*."""
    expr = as_expr(expr)
    if expr.is_constant():
        return expr.constant_value() >= 0
    lo, _ = bounds_of(expr, env or {})
    return lo is not None and lo.is_constant() and lo.constant_value() >= 0

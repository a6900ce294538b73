"""Symbolic boolean expressions -- the leaves of the PDAG predicate language.

A leaf predicate is a comparison between integer expressions (kept in a
canonical ``e OP 0`` form), a divisibility fact used by the interleaved-
access disjointness rule, or a small and/or/not combination thereof.  The
PDAG language of :mod:`repro.pdag` layers loop-level conjunction and
call-site nodes on top of these leaves.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Mapping

from .expr import EvalEnv, Expr, ExprLike, as_expr

__all__ = [
    "BoolExpr",
    "BTrue",
    "BFalse",
    "TRUE",
    "FALSE",
    "Cmp",
    "Divides",
    "NotB",
    "AndB",
    "OrB",
    "b_and",
    "b_or",
    "b_not",
    "ge0",
    "gt0",
    "eq0",
    "ne0",
    "cmp_ge",
    "cmp_gt",
    "cmp_le",
    "cmp_lt",
    "cmp_eq",
    "cmp_ne",
    "divides",
]


class BoolExpr:
    """Base class of symbolic boolean expressions.

    Instances are immutable, hashable, and evaluable against a runtime
    environment.  ``is_true()`` / ``is_false()`` report *syntactic*
    certainty only.  The hash and free-symbol caches are slots filled on
    first use (subclass constructors never touch them).
    """

    __slots__ = ("_hash_cache", "_free_cache")

    def evaluate(self, env: EvalEnv) -> bool:
        raise NotImplementedError

    def free_symbols(self) -> frozenset[str]:
        """Free symbols, cached per node (predicates share subtrees
        heavily; see the matching caches on Expr and PDAG)."""
        try:
            return self._free_cache
        except AttributeError:
            cached = self._free_symbols()
            self._free_cache = cached
            return cached

    def _free_symbols(self) -> frozenset[str]:
        raise NotImplementedError

    def substitute(self, mapping: Mapping[str, Expr]) -> "BoolExpr":
        raise NotImplementedError

    def key(self) -> tuple:
        raise NotImplementedError

    def is_true(self) -> bool:
        return isinstance(self, BTrue)

    def is_false(self) -> bool:
        return isinstance(self, BFalse)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return type(self) is type(other) and self.key() == other.key()

    def __hash__(self) -> int:
        try:
            return self._hash_cache
        except AttributeError:
            cached = hash((type(self).__name__,) + self.key())
            self._hash_cache = cached
            return cached


class BTrue(BoolExpr):
    """The constant true predicate."""

    __slots__ = ()

    def evaluate(self, env: EvalEnv) -> bool:
        return True

    def _free_symbols(self) -> frozenset[str]:
        return frozenset()

    def substitute(self, mapping: Mapping[str, Expr]) -> "BoolExpr":
        return self

    def key(self) -> tuple:
        return ()

    def __repr__(self) -> str:
        return "true"


class BFalse(BoolExpr):
    """The constant false predicate."""

    __slots__ = ()

    def evaluate(self, env: EvalEnv) -> bool:
        return False

    def _free_symbols(self) -> frozenset[str]:
        return frozenset()

    def substitute(self, mapping: Mapping[str, Expr]) -> "BoolExpr":
        return self

    def key(self) -> tuple:
        return ()

    def __repr__(self) -> str:
        return "false"


TRUE = BTrue()
FALSE = BFalse()

_OPS = {
    ">": lambda v: v > 0,
    ">=": lambda v: v >= 0,
    "==": lambda v: v == 0,
    "!=": lambda v: v != 0,
}

_NEGATED = {">": "<=", ">=": "<", "==": "!=", "!=": "=="}


class Cmp(BoolExpr):
    """A canonical comparison ``expr OP 0`` with OP in ``> >= == !=``.

    Use the module-level constructors (:func:`cmp_ge` etc.) which fold
    constant operands and normalize ``<``/``<=`` away.  The negation is
    computed once per instance (:func:`b_or` asks for it on every call).
    """

    __slots__ = ("expr", "op", "_neg")

    def __init__(self, expr: Expr, op: str):
        if op not in _OPS:
            raise ValueError(f"bad canonical comparison operator {op!r}")
        self.expr = expr
        self.op = op
        self._neg = None

    def evaluate(self, env: EvalEnv) -> bool:
        return _OPS[self.op](self.expr.evaluate(env))

    def _free_symbols(self) -> frozenset[str]:
        return self.expr.free_symbols()

    def substitute(self, mapping: Mapping[str, Expr]) -> "BoolExpr":
        return _make_cmp(self.expr.substitute(mapping), self.op)

    def negated(self) -> "BoolExpr":
        neg = self._neg
        if neg is None:
            if self.op in (">", ">="):
                flipped = -self.expr
                neg = _make_cmp(flipped, ">=" if self.op == ">" else ">")
            else:
                flipped = self.expr
                neg = _make_cmp(flipped, "!=" if self.op == "==" else "==")
            self._neg = neg
            # Nothing folded or rescaled: negating back gives this very
            # comparison, so the new one need not compute it.
            if type(neg) is Cmp and neg.expr is flipped:
                neg._neg = self
        return neg

    def key(self) -> tuple:
        return (self.expr, self.op)

    def __repr__(self) -> str:
        return f"({self.expr!r} {self.op} 0)"


class Divides(BoolExpr):
    """``k | expr`` -- the constant *k* divides the expression's value."""

    __slots__ = ("k", "expr")

    def __init__(self, k: int, expr: ExprLike):
        if k <= 0:
            raise ValueError("divisor must be a positive constant")
        self.k = k
        self.expr = as_expr(expr)

    def evaluate(self, env: EvalEnv) -> bool:
        return self.expr.evaluate(env) % self.k == 0

    def _free_symbols(self) -> frozenset[str]:
        return self.expr.free_symbols()

    def substitute(self, mapping: Mapping[str, Expr]) -> "BoolExpr":
        return divides(self.k, self.expr.substitute(mapping))

    def key(self) -> tuple:
        return (self.k, self.expr)

    def __repr__(self) -> str:
        return f"({self.k} | {self.expr!r})"


class NotB(BoolExpr):
    """Logical negation of a leaf that has no cheaper negated form."""

    __slots__ = ("arg",)

    def __init__(self, arg: BoolExpr):
        self.arg = arg

    def evaluate(self, env: EvalEnv) -> bool:
        return not self.arg.evaluate(env)

    def _free_symbols(self) -> frozenset[str]:
        return self.arg.free_symbols()

    def substitute(self, mapping: Mapping[str, Expr]) -> "BoolExpr":
        return b_not(self.arg.substitute(mapping))

    def key(self) -> tuple:
        return (self.arg,)

    def __repr__(self) -> str:
        return f"!{self.arg!r}"


class _NaryBool(BoolExpr):
    """Shared implementation of flat n-ary and/or leaves."""

    __slots__ = ("args",)
    _neutral: BoolExpr
    _absorbing: BoolExpr
    _symbol: str

    def __init__(self, args: Iterable[BoolExpr]):
        self.args = tuple(args)
        if len(self.args) < 2:
            raise ValueError("n-ary boolean needs at least two arguments")

    def _free_symbols(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for a in self.args:
            out |= a.free_symbols()
        return out

    def key(self) -> tuple:
        return (frozenset(self.args),)

    def __repr__(self) -> str:
        inside = f" {self._symbol} ".join(repr(a) for a in self.args)
        return f"({inside})"


class AndB(_NaryBool):
    """Flat n-ary conjunction of boolean leaves."""

    __slots__ = ()
    _symbol = "&&"

    def evaluate(self, env: EvalEnv) -> bool:
        return all(a.evaluate(env) for a in self.args)

    def substitute(self, mapping: Mapping[str, Expr]) -> "BoolExpr":
        return b_and(*(a.substitute(mapping) for a in self.args))


class OrB(_NaryBool):
    """Flat n-ary disjunction of boolean leaves."""

    __slots__ = ()
    _symbol = "||"

    def evaluate(self, env: EvalEnv) -> bool:
        return any(a.evaluate(env) for a in self.args)

    def substitute(self, mapping: Mapping[str, Expr]) -> "BoolExpr":
        return b_or(*(a.substitute(mapping) for a in self.args))


def _make_cmp(expr: Expr, op: str) -> BoolExpr:
    if expr.is_constant():
        return TRUE if _OPS[op](expr.constant_value()) else FALSE
    # Normalize by the content gcd: 2*N - 4 > 0  ==  N - 2 > 0 (and
    # g*e OP 0 iff e OP 0 for every canonical OP, g being positive).
    g = expr.content_gcd()
    if g > 1:
        expr = expr // g
    return Cmp(expr, op)


def cmp_gt(a: ExprLike, b: ExprLike) -> BoolExpr:
    """``a > b``."""
    return _make_cmp(as_expr(a) - as_expr(b), ">")


def cmp_ge(a: ExprLike, b: ExprLike) -> BoolExpr:
    """``a >= b``."""
    return _make_cmp(as_expr(a) - as_expr(b), ">=")


def cmp_lt(a: ExprLike, b: ExprLike) -> BoolExpr:
    """``a < b``."""
    return cmp_gt(b, a)


def cmp_le(a: ExprLike, b: ExprLike) -> BoolExpr:
    """``a <= b``."""
    return cmp_ge(b, a)


def cmp_eq(a: ExprLike, b: ExprLike) -> BoolExpr:
    """``a == b``."""
    return _make_cmp(as_expr(a) - as_expr(b), "==")


def cmp_ne(a: ExprLike, b: ExprLike) -> BoolExpr:
    """``a != b``."""
    return _make_cmp(as_expr(a) - as_expr(b), "!=")


def gt0(e: ExprLike) -> BoolExpr:
    """``e > 0``."""
    return _make_cmp(as_expr(e), ">")


def ge0(e: ExprLike) -> BoolExpr:
    """``e >= 0``."""
    return _make_cmp(as_expr(e), ">=")


def eq0(e: ExprLike) -> BoolExpr:
    """``e == 0``."""
    return _make_cmp(as_expr(e), "==")


def ne0(e: ExprLike) -> BoolExpr:
    """``e != 0``."""
    return _make_cmp(as_expr(e), "!=")


def divides(k: int, e: ExprLike) -> BoolExpr:
    """``k | e`` with constant folding."""
    if k <= 0:
        raise ValueError("divisor must be positive")
    e = as_expr(e)
    if k == 1:
        return TRUE
    if e.is_constant():
        return TRUE if e.constant_value() % k == 0 else FALSE
    # If every coefficient shares a factor with k we can reduce both sides.
    g = gcd(k, e.content_gcd())
    if g == k:
        return TRUE
    return Divides(k, e)


def b_not(arg: BoolExpr) -> BoolExpr:
    """Logical negation with constant folding and comparison flipping."""
    if arg.is_true():
        return FALSE
    if arg.is_false():
        return TRUE
    if isinstance(arg, Cmp):
        return arg.negated()
    if isinstance(arg, NotB):
        return arg.arg
    if isinstance(arg, AndB):
        return b_or(*(b_not(a) for a in arg.args))
    if isinstance(arg, OrB):
        return b_and(*(b_not(a) for a in arg.args))
    return NotB(arg)


# -- n-ary operand lists ------------------------------------------------------
#
# Shared with :mod:`repro.pdag.nodes`: the functions below only look at
# ``.args`` and the two node classes, so the boolean leaves (AndB/OrB) and
# the PDAG nodes (PAnd/POr) canonicalize their operands through one copy.


def _flatten(cls: type, args: Iterable) -> list:
    # dict keys: first occurrence wins and keeps its place
    out: dict = {}
    for a in args:
        if isinstance(a, cls):
            for c in a.args:
                out[c] = None
        else:
            out[a] = None
    return list(out)


def _absorb(args: list, inner: type) -> list:
    """Absorption: in an OR, drop ``A and B`` when ``A`` is present (and
    dually in an AND).  ``inner`` is the opposite node class: operands are
    viewed as sets of its parts; an operand whose part set is a strict
    superset of another operand's is redundant."""
    if len(args) < 2:
        return args
    for a in args:
        if isinstance(a, inner):
            break
    else:
        # Distinct operands, none of the opposite class: nothing absorbs.
        return args
    part_sets = [
        frozenset(a.args) if isinstance(a, inner) else frozenset((a,)) for a in args
    ]
    kept = []
    for i, a in enumerate(args):
        redundant = False
        for j, other in enumerate(part_sets):
            if i == j:
                continue
            if other < part_sets[i] or (other == part_sets[i] and j < i):
                redundant = True
                break
        if not redundant:
            kept.append(a)
    return kept


def nary_operands(cls: type, inner: type, args: tuple) -> list:
    """The flattened, deduplicated, absorbed operand list of an n-ary
    node of class *cls* (*inner* being the opposite class).  One operand,
    or two that are not n-ary nodes themselves -- most calls -- need none
    of the set machinery."""
    if len(args) == 1:
        if not isinstance(args[0], cls):
            return list(args)
    elif len(args) == 2:
        a, b = args
        if not isinstance(a, (cls, inner)) and not isinstance(b, (cls, inner)):
            return [a] if a == b else [a, b]
    return _absorb(_flatten(cls, args), inner)


def b_and(*args: BoolExpr) -> BoolExpr:
    """Flat conjunction with folding, deduplication and absorption."""
    kept = []
    for a in nary_operands(AndB, OrB, args):
        if a.is_false():
            return FALSE
        if not a.is_true():
            kept.append(a)
    if not kept:
        return TRUE
    if len(kept) == 1:
        return kept[0]
    return AndB(kept)


def b_or(*args: BoolExpr) -> BoolExpr:
    """Flat disjunction with folding, deduplication, absorption, and
    complementary-pair detection (``C or not C -> true``, which is what
    collapses the cross-branch terms of mutually exclusive gates)."""
    kept = []
    for a in nary_operands(OrB, AndB, args):
        if a.is_true():
            return TRUE
        if not a.is_false():
            kept.append(a)
    if not kept:
        return FALSE
    if len(kept) == 1:
        return kept[0]
    complements = [
        a.negated() if isinstance(a, Cmp) else a.arg
        for a in kept
        if isinstance(a, (Cmp, NotB))
    ]
    if complements and not set(kept).isdisjoint(complements):
        return TRUE
    return OrB(kept)

"""PDAG -- the predicate language targeted by the USR translation (Sec. 3).

Like the USR it mirrors, the predicate language is a DAG: leaves are
symbolic boolean expressions (:class:`~repro.symbolic.BoolExpr`), interior
nodes are logical conjunction/disjunction, *loop conjunctions*
(``AND_{i=lo..hi} P(i)`` -- irreducible conjunctions across loop
iterations, the source of O(N) runtime cost) and call-site barriers.

Evaluation counts the leaf predicates executed, which is the quantity the
paper's RTov (runtime-overhead) columns measure.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from ..symbolic import (
    FALSE,
    TRUE,
    BoolExpr,
    EvalEnv,
    Expr,
    ExprLike,
    as_expr,
    b_and,
    b_or,
)
from ..symbolic.boolean import nary_operands

__all__ = [
    "PDAG",
    "PLeaf",
    "PAnd",
    "POr",
    "PLoopAnd",
    "PCall",
    "PTRUE",
    "PFALSE",
    "EvalStats",
    "p_leaf",
    "p_and",
    "p_or",
    "p_loop_and",
    "p_call",
]


class EvalStats:
    """Mutable counter of predicate-evaluation work (modelled runtime)."""

    __slots__ = ("leaf_evals", "loop_iterations")

    def __init__(self) -> None:
        self.leaf_evals = 0
        self.loop_iterations = 0

    @property
    def total_steps(self) -> int:
        return self.leaf_evals + self.loop_iterations

    def __repr__(self) -> str:
        return (
            f"EvalStats(leaves={self.leaf_evals}, "
            f"iterations={self.loop_iterations})"
        )


class PDAG:
    """Base class of predicate-DAG nodes.  Immutable and hashable (hash
    cached -- predicates are DAGs with heavy sharing; the cache slots
    are filled on first use, subclass constructors never touch them).

    ``evaluate`` optionally takes a *memo* dictionary mapping leaf nodes
    to already-computed truth values under the current (top-level)
    environment.  A cascade passes one memo across all of its stages, so
    sub-predicates shared between the O(1)/O(N)/full stages evaluate
    once.  The memo is dropped when entering a loop conjunction (the
    environment changes per iteration) and never alters the modelled
    cost: :class:`EvalStats` counters advance exactly as if every leaf
    had been re-evaluated, keeping the paper's RTov accounting intact.
    """

    __slots__ = ("_hash_cache", "_free_cache", "_count_cache")

    def evaluate(
        self,
        env: EvalEnv,
        stats: Optional[EvalStats] = None,
        memo: Optional[dict] = None,
    ) -> bool:
        raise NotImplementedError

    def children(self) -> tuple["PDAG", ...]:
        raise NotImplementedError

    def free_symbols(self) -> frozenset[str]:
        """Free symbols, cached per node: predicates are DAGs with heavy
        structural sharing, and the constructors (`p_loop_and`) and the
        hoisting passes query this on every visit -- an uncached walk is
        exponential on factored predicates."""
        try:
            return self._free_cache
        except AttributeError:
            cached = self._free_symbols()
            self._free_cache = cached
            return cached

    def _free_symbols(self) -> frozenset[str]:
        raise NotImplementedError

    def substitute(self, mapping: Mapping[str, Expr]) -> "PDAG":
        raise NotImplementedError

    def key(self) -> tuple:
        raise NotImplementedError

    def loop_depth(self) -> int:
        """Nesting depth of loop-conjunction nodes: the O(N^depth) model."""
        inner = max((c.loop_depth() for c in self.children()), default=0)
        return inner + (1 if isinstance(self, PLoopAnd) else 0)

    def is_true(self) -> bool:
        return isinstance(self, PLeaf) and self.cond.is_true()

    def is_false(self) -> bool:
        return isinstance(self, PLeaf) and self.cond.is_false()

    def node_count(self) -> int:
        """Tree node count (shared subgraphs counted per occurrence),
        cached per node -- the size-cap checks in FACTOR query this on
        every inference step."""
        try:
            return self._count_cache
        except AttributeError:
            cached = 1 + sum(c.node_count() for c in self.children())
            self._count_cache = cached
            return cached

    def complexity_label(self) -> str:
        """Human-readable cost class: ``O(1)``, ``O(N)``, ``O(N^2)``..."""
        d = self.loop_depth()
        if d == 0:
            return "O(1)"
        if d == 1:
            return "O(N)"
        return f"O(N^{d})"

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


class PLeaf(PDAG):
    """A symbolic boolean leaf."""

    __slots__ = ("cond",)

    def __init__(self, cond: BoolExpr):
        self.cond = cond

    def evaluate(
        self,
        env: EvalEnv,
        stats: Optional[EvalStats] = None,
        memo: Optional[dict] = None,
    ) -> bool:
        if stats is not None:
            stats.leaf_evals += 1
        if memo is not None:
            cached = memo.get(self)
            if cached is not None:
                return cached
            result = self.cond.evaluate(env)
            memo[self] = result
            return result
        return self.cond.evaluate(env)

    def children(self) -> tuple[PDAG, ...]:
        return ()

    def _free_symbols(self) -> frozenset[str]:
        return self.cond.free_symbols()

    def substitute(self, mapping: Mapping[str, Expr]) -> PDAG:
        return p_leaf(self.cond.substitute(mapping))

    def key(self) -> tuple:
        return (self.cond,)

    def __repr__(self) -> str:
        return repr(self.cond)


PTRUE = PLeaf(TRUE)
PFALSE = PLeaf(FALSE)


class _NaryP(PDAG):
    __slots__ = ("args",)
    _symbol: str

    def __init__(self, args: Iterable[PDAG]):
        self.args = tuple(args)
        if len(self.args) < 2:
            raise ValueError(f"{type(self).__name__} needs >= 2 operands")

    def children(self) -> tuple[PDAG, ...]:
        return self.args

    def _free_symbols(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for a in self.args:
            out |= a.free_symbols()
        return out

    def key(self) -> tuple:
        return (frozenset(self.args),)

    def __repr__(self) -> str:
        return "(" + f" {self._symbol} ".join(repr(a) for a in self.args) + ")"


class PAnd(_NaryP):
    """Flat n-ary conjunction."""

    __slots__ = ()
    _symbol = "AND"

    def evaluate(
        self,
        env: EvalEnv,
        stats: Optional[EvalStats] = None,
        memo: Optional[dict] = None,
    ) -> bool:
        return all(a.evaluate(env, stats, memo) for a in self.args)

    def substitute(self, mapping: Mapping[str, Expr]) -> PDAG:
        return p_and(*(a.substitute(mapping) for a in self.args))


class POr(_NaryP):
    """Flat n-ary disjunction."""

    __slots__ = ()
    _symbol = "OR"

    def evaluate(
        self,
        env: EvalEnv,
        stats: Optional[EvalStats] = None,
        memo: Optional[dict] = None,
    ) -> bool:
        return any(a.evaluate(env, stats, memo) for a in self.args)

    def substitute(self, mapping: Mapping[str, Expr]) -> PDAG:
        return p_or(*(a.substitute(mapping) for a in self.args))


class PLoopAnd(PDAG):
    """``AND_{index=lower..upper} body`` -- an irreducible loop conjunction.

    Evaluation iterates the index range, modelling the paper's parallel
    and-reduction tests of O(N) (or deeper) complexity.  An empty range is
    vacuously true.
    """

    __slots__ = ("index", "lower", "upper", "body")

    def __init__(self, index: str, lower: ExprLike, upper: ExprLike, body: PDAG):
        self.index = index
        self.lower = as_expr(lower)
        self.upper = as_expr(upper)
        self.body = body

    def evaluate(
        self,
        env: EvalEnv,
        stats: Optional[EvalStats] = None,
        memo: Optional[dict] = None,
    ) -> bool:
        # The body runs under per-iteration environments: the shared
        # cascade memo (keyed on the top-level env) must not leak in.
        lo = self.lower.evaluate(env)
        hi = self.upper.evaluate(env)
        child_env = dict(env)
        for i in range(lo, hi + 1):
            if stats is not None:
                stats.loop_iterations += 1
            child_env[self.index] = i
            if not self.body.evaluate(child_env, stats):
                return False
        return True

    def children(self) -> tuple[PDAG, ...]:
        return (self.body,)

    def _free_symbols(self) -> frozenset[str]:
        out = self.lower.free_symbols() | self.upper.free_symbols()
        out |= self.body.free_symbols() - {self.index}
        return out

    def substitute(self, mapping: Mapping[str, Expr]) -> PDAG:
        clean = {k: v for k, v in mapping.items() if k != self.index}
        return p_loop_and(
            self.index,
            self.lower.substitute(clean),
            self.upper.substitute(clean),
            self.body.substitute(clean),
        )

    def key(self) -> tuple:
        return (self.index, self.lower, self.upper, self.body)

    def __repr__(self) -> str:
        return f"(AND_{{{self.index}={self.lower!r}..{self.upper!r}}} {self.body!r})"


class PCall(PDAG):
    """A call-site barrier in the predicate program (``P ./ callee``)."""

    __slots__ = ("callee", "body")

    def __init__(self, callee: str, body: PDAG):
        self.callee = callee
        self.body = body

    def evaluate(
        self,
        env: EvalEnv,
        stats: Optional[EvalStats] = None,
        memo: Optional[dict] = None,
    ) -> bool:
        return self.body.evaluate(env, stats, memo)

    def children(self) -> tuple[PDAG, ...]:
        return (self.body,)

    def _free_symbols(self) -> frozenset[str]:
        return self.body.free_symbols()

    def substitute(self, mapping: Mapping[str, Expr]) -> PDAG:
        return p_call(self.callee, self.body.substitute(mapping))

    def key(self) -> tuple:
        return (self.callee, self.body)

    def __repr__(self) -> str:
        return f"({self.body!r} ./ {self.callee})"


# -- smart constructors ------------------------------------------------------


def p_leaf(cond: BoolExpr) -> PDAG:
    """Leaf constructor reusing the canonical true/false instances."""
    if cond.is_true():
        return PTRUE
    if cond.is_false():
        return PFALSE
    return PLeaf(cond)


def p_and(*args: PDAG) -> PDAG:
    """Conjunction with flattening, deduplication, absorption and
    constant folding.

    Boolean leaves are merged into one leaf, placed first, so that the
    leaf layer (:func:`repro.symbolic.b_and`) can fold them further.
    """
    conds: list[BoolExpr] = []
    others: list[PDAG] = []
    for a in nary_operands(PAnd, POr, args):
        if isinstance(a, PLeaf):
            if a.cond.is_false():
                return PFALSE
            if not a.cond.is_true():
                conds.append(a.cond)
        else:
            others.append(a)
    if conds:
        merged = b_and(*conds)
        if merged.is_false():
            return PFALSE
        if not merged.is_true():
            others.insert(0, PLeaf(merged))
    if not others:
        return PTRUE
    if len(others) == 1:
        return others[0]
    return PAnd(others)


def p_or(*args: PDAG) -> PDAG:
    """Disjunction with flattening, deduplication, absorption and
    constant folding; boolean leaves merge as in :func:`p_and`."""
    conds: list[BoolExpr] = []
    others: list[PDAG] = []
    for a in nary_operands(POr, PAnd, args):
        if isinstance(a, PLeaf):
            if a.cond.is_true():
                return PTRUE
            if not a.cond.is_false():
                conds.append(a.cond)
        else:
            others.append(a)
    if conds:
        merged = b_or(*conds)
        if merged.is_true():
            return PTRUE
        if not merged.is_false():
            others.insert(0, PLeaf(merged))
    if not others:
        return PFALSE
    if len(others) == 1:
        return others[0]
    return POr(others)


def p_loop_and(index: str, lower: ExprLike, upper: ExprLike, body: PDAG) -> PDAG:
    """Loop conjunction; invariant bodies collapse (sound strengthening:
    a non-executing loop is vacuously true, the invariant body implies
    the conjunction otherwise)."""
    if body.is_true():
        return PTRUE
    if index not in body.free_symbols():
        return body
    if body.is_false():
        # AND over a possibly-empty range of false: true only when the
        # range is empty; as a *sufficient* condition, fold to false.
        return PFALSE
    return PLoopAnd(index, lower, upper, body)


def p_call(callee: str, body: PDAG) -> PDAG:
    """Call barrier; constants pass through."""
    if body.is_true() or body.is_false():
        return body
    return PCall(callee, body)

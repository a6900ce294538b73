"""Scalar use-def analysis over loop bodies.

Two facts the summarizer needs about the scalars of a loop body:

* which scalars are **assigned** anywhere in the body -- their values at
  iteration entry are unknown functions of the iteration number, modelled
  by per-iteration *entry opaques* ``$entry_x_label(i)``;
* which assigned scalars may be **read before written** on some path --
  a loop-carried scalar flow dependence that (unless the scalar is a
  recognized CIV) forbids parallelization outright, no matter what the
  array summaries say.

The analysis is conservative: a read inside a nested loop or branch
counts as exposed unless a dominating write precedes it on every path.
"""

from __future__ import annotations

from .ast import (
    AssignScalar, Do, If, IRExpr, IRStmt, Var, While, walk_exprs, walk_stmts,
)

__all__ = ["assigned_scalars", "read_before_write", "expr_scalar_reads"]


def expr_scalar_reads(expr: IRExpr) -> set[str]:
    """All scalar names read by an expression."""
    return {e.name for e in walk_exprs(expr) if isinstance(e, Var)}


def assigned_scalars(stmts: tuple[IRStmt, ...]) -> set[str]:
    """Scalars assigned anywhere in the statement tree (incl. do indexes)."""
    return {
        s.name if isinstance(s, AssignScalar) else s.index
        for s in walk_stmts(stmts)
        if isinstance(s, (AssignScalar, Do))
    }


def read_before_write(stmts: tuple[IRStmt, ...]) -> set[str]:
    """Scalars that may be read before being written on some path.

    Returns reads exposed at the *entry* of the statement sequence.
    Writes inside conditionals or loops do not kill (the body may not
    execute); their reads do count.  Call arguments read scalars.
    """
    exposed: set[str] = set()

    def walk(body: tuple[IRStmt, ...], written: set[str]) -> set[str]:
        """Process *body* given definitely-written set; returns the
        definitely-written set at exit."""
        current = set(written)
        for s in body:
            for name in _stmt_reads(s):
                if name not in current:
                    exposed.add(name)
            if isinstance(s, AssignScalar):
                current.add(s.name)
            elif isinstance(s, If):
                w_then = walk(s.then_body, current)
                w_else = walk(s.else_body, current)
                current = w_then & w_else
            elif isinstance(s, Do):
                inner = set(current)
                inner.add(s.index)
                walk(s.body, inner)
                # body may not execute: no kills survive
            elif isinstance(s, While):
                walk(s.body, set(current))
        return current

    walk(stmts, set())
    return exposed


def _stmt_reads(s: IRStmt) -> set[str]:
    """Scalars read directly by one statement (not by nested bodies)."""
    return {e.name for e in walk_exprs(s) if isinstance(e, Var)}

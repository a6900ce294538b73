"""BOUNDS-COMP: lightweight runtime array-bounds estimation (Section 4).

For reductions over arrays whose bounds are unknown at compile time (e.g.
assumed-size Fortran parameters allocated in C, as in gromacs/calculix),
the paper computes at run time the smallest and largest index touched by
the loop.  The summary is first *overestimated* into a USR containing only
union, call-site and recurrence nodes (subtrahends and gate conditions
dropped); its bounds are then MIN/MAX-reduced across iterations -- a
parallel-friendly O(iterations) computation, far cheaper than exact USR
evaluation which is O(accesses).

This module holds the overestimate, a USR-to-USR rewrite.  The MIN/MAX
loop itself is generated code: :mod:`repro.usr.lower` writes it from the
overestimated summary as one Python function (``"bounds"`` mode), a
``for`` per recurrence, and the executor keeps that function with the
program, compiled on a plan's first execute.  :func:`estimate_bounds`
is the one-off entry point to the same code.
"""

from __future__ import annotations

from typing import Optional

from ..symbolic import EvalEnv
from .build import usr_union
from .nodes import CallSite, Gate, Intersect, Leaf, Recurrence, Subtract, Union, USR

__all__ = ["bounds_overestimate", "estimate_bounds", "BoundsResult"]


def bounds_overestimate(usr: USR) -> USR:
    """Strip *usr* down to union/call-site/recurrence/leaf nodes.

    Drops subtrahends, keeps a single intersection operand, and discards
    gate conditions -- every transformation only grows the denoted set, so
    bounds of the result bound the original.
    """
    if isinstance(usr, Leaf):
        return usr
    if isinstance(usr, Gate):
        return bounds_overestimate(usr.body)
    if isinstance(usr, Subtract):
        return bounds_overestimate(usr.left)
    if isinstance(usr, Intersect):
        return bounds_overestimate(usr.args[0])
    if isinstance(usr, Union):
        return usr_union(*(bounds_overestimate(a) for a in usr.args))
    if isinstance(usr, CallSite):
        from .build import usr_call

        return usr_call(usr.callee, bounds_overestimate(usr.body))
    if isinstance(usr, Recurrence):
        from .build import usr_recurrence

        return usr_recurrence(
            usr.index,
            usr.lower,
            usr.upper,
            bounds_overestimate(usr.body),
            partial=usr.partial,
        )
    raise TypeError(f"unknown USR node {usr!r}")


class BoundsResult:
    """Outcome of a BOUNDS-COMP evaluation.

    ``lower``/``upper`` bound every index the overestimated summary may
    touch (``None`` for an empty summary); ``iterations`` counts the
    recurrence steps executed, which models the run-time overhead of the
    MIN/MAX reduction loop of Fig. 7(a).
    """

    __slots__ = ("lower", "upper", "iterations")

    def __init__(self, lower: Optional[int], upper: Optional[int], iterations: int):
        self.lower = lower
        self.upper = upper
        self.iterations = iterations

    def is_empty(self) -> bool:
        return self.lower is None

    def __repr__(self) -> str:
        return f"BoundsResult([{self.lower}, {self.upper}], iters={self.iterations})"


def estimate_bounds(usr: USR, env: EvalEnv) -> BoundsResult:
    """Evaluate min/max index bounds of the *overestimated* summary.

    Accepts any USR: non-conforming nodes are overestimated as the code
    is written.  Recurrences iterate and MIN/MAX-reduce, counting
    iterations as the modelled runtime cost.  Generates and compiles the
    evaluation on every call; the executor keeps a plan's
    (:func:`repro.usr.lower.kept_unit`).
    """
    from .lower import compile_usr

    return BoundsResult(*compile_usr(usr, "bounds")(env))

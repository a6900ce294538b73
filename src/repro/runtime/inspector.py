"""Exact runtime USR evaluation (the inspector/executor fallback).

When predicates fail but the independence USR's inputs are available
before the loop, the executor can evaluate the USR exactly: the loop is
independent iff the set is empty.  The cost is proportional to the
number of memory locations materialized -- the very overhead the
predicate translation of Section 3 exists to avoid -- so this path is
only chosen when it can be *hoisted*: the paper's HOIST-USR loops
(e.g. apsi's RUN_DO20, dyfesm's MXMULT_DO10) execute many times with
unchanged inputs, letting one evaluation be amortized via memoization.

The evaluation is generated code, as the paper's inspector is code
placed in front of the loop: :mod:`repro.usr.lower` writes each USR's
exact set and cost as one Python function (``"inspect"`` mode), a
``for`` per recurrence.  An :class:`Inspector` compiles a USR's function
on first use and keeps it in its table of units -- the executor hands
it its program's ``_lowered``, so a plan's inspector code is compiled on
its first execute only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..symbolic import EvalEnv
from ..usr import USR
from ..usr.lower import compile_usr, kept_unit

__all__ = ["InspectorResult", "evaluate_usr_cost", "Inspector"]


@dataclass
class InspectorResult:
    """Outcome of an exact USR evaluation."""

    empty: bool
    #: locations materialized: the modelled cost of the evaluation
    cost: int
    #: True when this call was served from the memo (hoisted evaluation)
    memoized: bool = False


def evaluate_usr_cost(usr: USR, env: EvalEnv) -> tuple[set[int], int]:
    """Evaluate *usr* exactly, returning (set, cost).

    Cost counts every element of every intermediate set -- the
    O(accesses) behaviour of direct USR interpretation.  Generates and
    compiles the evaluation on every call; an :class:`Inspector` keeps it.
    """
    return compile_usr(usr, "inspect")(env)


class Inspector:
    """Memoizing exact-USR evaluator (models HOIST-USR amortization).

    The memo key is the tuple of the USR's free-symbol values in the
    environment; repeated executions of the same loop with unchanged
    inputs (the hoistable case) pay the evaluation once.
    """

    def __init__(self, units: Optional[dict] = None) -> None:
        self._memo: dict = {}
        #: the compiled evaluations, by USR identity (see
        #: :func:`~repro.usr.lower.kept_unit`)
        self._units: dict = {} if units is None else units

    def check_empty(self, usr: USR, env: EvalEnv) -> InspectorResult:
        run = kept_unit(self._units, usr, "inspect", lambda: usr)
        key_parts: list = [usr]
        for name in run.names:
            value = env.get(name)
            if isinstance(value, list):
                value = tuple(value)
            key_parts.append((name, value))
        key = tuple(key_parts)
        if key in self._memo:
            empty, cost = self._memo[key]
            return InspectorResult(empty=empty, cost=0, memoized=True)
        out, cost = run(env)
        self._memo[key] = (not out, cost)
        return InspectorResult(empty=not out, cost=cost, memoized=False)

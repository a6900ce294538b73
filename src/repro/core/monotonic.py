"""The monotonicity inference rule (Section 3.3).

Equations of shape ``U_{i=1..N} (S_i  ^  U_{k=1..i-1} S_k) = {}`` -- the
output-independence pattern -- hold whenever the per-iteration summaries
form a monotonic sequence: if the largest index of ``S_i`` is always
smaller than the smallest index of ``S_{i+1}`` (or symmetrically for
decreasing sequences), no two distinct iterations can overlap.

The rule overestimates ``S_i`` by an interval ``[lo(i), hi(i)]`` and
emits the O(N) predicate ``AND_{i=lo..up-1} hi(i) < lo(i+1)``, which for
the paper's Fig. 3(b) example yields exactly
``AND_i NS <= 32*(IB(i+1)-IA(i)-IB(i)+1)``.
"""

from __future__ import annotations

from typing import Optional

from ..pdag import PDAG, PFALSE, p_leaf, p_loop_and, p_or
from ..symbolic import b_and, cmp_gt, sym
from ..usr import Gate, Intersect, Recurrence, USR, overestimate, usr_gate

__all__ = ["match_self_overlap", "monotonicity_predicate"]


def _decompose_overlap(node: Recurrence) -> Optional[USR]:
    """Return the per-iteration summary ``S_i`` of a self-overlap node.

    Recognizes both ``U_i (S_i ^ U_{k<i} S_k)`` and the UMEG-reshaped
    form ``U_i (c_i # (T_i ^ U_{k<i} (c_k # T_k)))`` where
    ``S_i = c_i # T_i``.
    """
    body = node.body
    gate_cond = None
    if isinstance(body, Gate):
        gate_cond = body.cond
        body = body.body
    if not isinstance(body, Intersect) or len(body.args) != 2:
        return None
    parts = list(body.args)
    for current, prefix in (parts, parts[::-1]):
        if not isinstance(prefix, Recurrence) or not prefix.partial:
            continue
        expected_upper = sym(node.index) - 1
        if prefix.upper != expected_upper or prefix.lower != node.lower:
            continue
        full_current = (
            usr_gate(gate_cond, current) if gate_cond is not None else current
        )
        renamed = prefix.body.substitute({prefix.index: sym(node.index)})
        if renamed == full_current:
            return full_current
    return None


def match_self_overlap(node: USR) -> Optional[Recurrence]:
    """Match ``U_i (S_i ^ U_{k=..i-1} S_k)`` and return the outer node.

    The body must be an intersection (possibly pushed under the
    iteration's own gate by the UMEG reshaping) of a summary ``S_i`` with
    a partial recurrence whose body is ``S_i`` alpha-renamed to the
    partial index, which is how
    :func:`repro.usr.dataflow.aggregate_loop` builds the
    output-independence equation.
    """
    if not isinstance(node, Recurrence) or node.partial:
        return None
    if _decompose_overlap(node) is None:
        return None
    return node


def monotonicity_predicate(
    node: Recurrence, monotone: frozenset[str] = frozenset()
) -> PDAG:
    """``AND_i MONOTON(S_i)`` for a matched self-overlap recurrence.

    ``S_i`` is interval-overestimated; monotonically increasing *or*
    decreasing sequences both suffice, with the direction chosen
    globally.  Returns false when no interval overestimate exists.
    """
    current = _decompose_overlap(node)
    if current is None:
        return PFALSE
    est = overestimate(current, monotone)
    if est.failed or not est.lmads:
        return PFALSE
    index = node.index
    lows = []
    highs = []
    for lmad in est.lmads:
        lo, hi = lmad.interval_overestimate()
        lows.append(lo)
        highs.append(hi)
    # Conservative hull when the summary has several LMADs.
    if len(est.lmads) == 1:
        lo_i, hi_i = lows[0], highs[0]
    else:
        from ..symbolic import smax, smin

        lo_i, hi_i = smin(*lows), smax(*highs)
    shift = {index: sym(index) + 1}
    lo_next = lo_i.substitute(shift)
    hi_next = hi_i.substitute(shift)
    # Strictly increasing: every interval ends before the next begins AND
    # the lower endpoints are monotone.  The second conjunct keeps the
    # rule sound when an intermediate iteration's interval is empty
    # (hi < lo), which would otherwise let the chain step backwards.
    #
    # The direction must be chosen GLOBALLY: the disjunction sits outside
    # the loop conjunction.  A per-step choice would wrongly accept
    # alternating sequences like B = [1, 2, 1, 2, ...].
    from ..symbolic import cmp_ge, cmp_le

    increasing = b_and(cmp_gt(lo_next, hi_i), cmp_le(lo_i, lo_next))
    decreasing = b_and(cmp_gt(lo_i, hi_next), cmp_ge(hi_i, hi_next))
    return p_or(
        p_loop_and(index, node.lower, node.upper - 1, p_leaf(increasing)),
        p_loop_and(index, node.lower, node.upper - 1, p_leaf(decreasing)),
    )

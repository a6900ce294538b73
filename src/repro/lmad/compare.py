"""Leaf-predicate extraction from LMAD comparisons (Section 3.2, Fig. 6(a)).

This module turns questions about LMADs -- disjointness, inclusion,
coverage of a whole array -- into *sufficient* symbolic boolean predicates.
The rules implemented are exactly the paper's:

* 1D disjointness: the *interleaved access* test
  ``gcd(d1,d2) does not divide (t1 - t2)`` or the *disjoint intervals*
  test ``t1 > t2 + s2  or  t2 > t1 + s1``;
* 1D inclusion: ``(d2 | d1) and (d2 | t1 - t2) and t1 >= t2 and
  t1 + s1 <= t2 + s2``;
* multi-dimensional disjointness via flattening plus dimension
  unification, outer-dimension projection (``PROJ_OUTER_DIM``) with
  well-formedness guards, and a recursive inner/outer comparison;
* ``FILLS_ARR``: a dense LMAD covering the whole declared array.

All predicates are sufficient conditions only, as the paper notes in
Section 3.6.
"""

from __future__ import annotations

from math import gcd
from typing import Optional, Sequence

from .. import profiling as _profiling
from ..symbolic import (
    FALSE,
    TRUE,
    BoolExpr,
    Expr,
    b_and,
    b_not,
    b_or,
    cmp_eq,
    cmp_ge,
    cmp_gt,
    cmp_le,
    divides,
    as_expr,
)
from .lmad import LMAD, point

__all__ = [
    "disjoint_lmads",
    "included_lmads",
    "disjoint_lmad_sets",
    "included_lmad_sets",
    "fills_array",
    "dense_interval",
]


def _try_exact_div(e: Expr, d: Expr) -> Optional[Expr]:
    """Return ``q`` with ``e == q * d`` when polynomial division is exact."""
    if d.is_constant():
        c = d.constant_value()
        if c == 0:
            return None
        if all(coeff % c == 0 for _m, coeff in e.terms):
            return Expr._from_canonical(
                tuple([(m, coeff // c) for m, coeff in e.terms])
            )
        return None
    if len(d.terms) != 1:
        return None
    (d_mono, d_coeff) = d.terms[0]
    d_powers = dict(d_mono)
    out: dict = {}
    for mono, coeff in e.terms:
        if coeff % d_coeff != 0:
            return None
        powers = dict(mono)
        for atom, p in d_powers.items():
            if powers.get(atom, 0) < p:
                return None
            powers[atom] -= p
            if powers[atom] == 0:
                del powers[atom]
        key = tuple(sorted(powers.items(), key=lambda ap: ap[0]._order_key()))
        out[key] = out.get(key, 0) + coeff // d_coeff
    return Expr._from_terms(out)


def sym_divides(d: Expr, e: Expr) -> BoolExpr:
    """Sufficient predicate for ``d | e`` with symbolic operands."""
    if e.is_constant() and e.constant_value() == 0:
        return TRUE
    if d.is_constant():
        c = abs(d.constant_value())
        if c == 1:
            return TRUE
        if c == 0:
            return FALSE
        return divides(c, e)
    if _try_exact_div(e, d) is not None:
        return TRUE
    return FALSE  # conservatively give up on symbolic divisibility


def _gcd_of(exprs: Sequence[Expr]) -> Optional[int]:
    """GCD of provably constant strides; None when any is symbolic."""
    g = 0
    for e in exprs:
        if not e.is_constant():
            return None
        g = gcd(g, abs(e.constant_value()))
    return g if g != 0 else None


def _interleaved_disjoint(a: LMAD, b: LMAD) -> BoolExpr:
    """The gcd-based interleaving test over flattened descriptors.

    Every index of ``a`` is congruent to ``t_a`` modulo the gcd of its
    strides (likewise ``b``); if the combined gcd does not divide the base
    difference the sets cannot meet.
    """
    strides = list(a.strides) + list(b.strides)
    if not strides:
        return FALSE
    g = _gcd_of(strides)
    if g is None:
        # Equal symbolic strides still admit the test with their own value
        # as modulus, but only a constant modulus yields a checkable leaf.
        return FALSE
    if g <= 1:
        return FALSE
    return b_not(divides(g, a.base - b.base))


def _disjoint_intervals(a: LMAD, b: LMAD) -> BoolExpr:
    """``a`` and ``b`` lie in non-overlapping index ranges."""
    a_lo, a_hi = a.interval_overestimate()
    b_lo, b_hi = b.interval_overestimate()
    return b_or(cmp_gt(a_lo, b_hi), cmp_gt(b_lo, a_hi))


def _empty_pred(a: LMAD) -> BoolExpr:
    """Predicate that ``a`` denotes the empty set (some span negative)."""
    preds = [cmp_gt(as_expr(0), s) for s in a.spans]
    return b_or(*preds) if preds else FALSE


def _disjoint_1d(a: LMAD, b: LMAD) -> BoolExpr:
    """Fig. 6(a)'s ``DISJOINT_LMAD_1D``: interleaving or separation."""
    return b_or(
        _empty_pred(a),
        _empty_pred(b),
        _interleaved_disjoint(a, b),
        _disjoint_intervals(a, b),
    )


def _included_1d(a: LMAD, b: LMAD) -> BoolExpr:
    """Sufficient predicate for a 1D ``a`` to be included in a 1D ``b``."""
    if a.is_definitely_empty():
        return TRUE
    a = a.normalized()
    b = b.normalized()
    if a.ndims > 1 or b.ndims > 1:
        return FALSE
    d1 = a.strides[0] if a.ndims else as_expr(1)
    d2 = b.strides[0] if b.ndims else as_expr(1)
    stride_ok = sym_divides(d2, d1) if b.ndims else TRUE
    offset_ok = sym_divides(d2, a.base - b.base) if b.ndims else TRUE
    lo_ok = cmp_ge(a.base, b.base)
    hi_ok = cmp_le(a.base + a.extent(), b.base + b.extent())
    inside = b_and(stride_ok, offset_ok, lo_ok, hi_ok)
    if b.ndims == 0:
        inside = b_and(cmp_ge(a.base, b.base), cmp_le(a.base + a.extent(), b.base))
    return b_or(_empty_pred(a), inside)


def _flatten(a: LMAD) -> LMAD:
    """Conservative 1D view used by the interleaving/interval tests.

    The flattened descriptor keeps the same base, a stride equal to the
    gcd of the original strides (1 when symbolic) and the summed span, so
    its interval overestimate coincides with the original's.
    """
    a = a.normalized()
    if a.ndims <= 1:
        return a
    g = _gcd_of(a.strides)
    stride = as_expr(g if g is not None else 1)
    return LMAD((stride,), (a.extent(),), a.base)


def _split_base(base: Expr, outer_stride: Expr) -> tuple[Expr, Expr]:
    """Split ``base = inner + outer`` assigning multiples of the outer
    stride to the outer component (paper's CORREC_DO900 heuristic)."""
    outer_terms: dict = {}
    inner_terms: dict = {}
    for mono, coeff in base.terms:
        term = Expr._from_terms({mono: coeff})
        if _try_exact_div(term, outer_stride) is not None:
            outer_terms[mono] = coeff
        else:
            inner_terms[mono] = coeff
    return (
        Expr._from_terms(inner_terms),
        Expr._from_terms(outer_terms),
    )


def _proj_outer_dim(a: LMAD) -> Optional[tuple[BoolExpr, LMAD, LMAD]]:
    """``PROJ_OUTER_DIM``: split off the outermost dimension.

    Returns ``(P_wf, inner, outer)`` where ``P_wf`` guards that the inner
    part never crosses an outer-stride boundary (``0 <= inner range <
    outer stride``), or ``None`` when the LMAD has fewer than 2 dims.
    The input is used as-is: padding dimensions introduced by
    ``UNIFY_LMAD_DIMS`` must survive to here.
    """
    if a.ndims < 2:
        return None
    outer_stride = a.strides[-1]
    outer_span = a.spans[-1]
    inner_base, outer_base = _split_base(a.base, outer_stride)
    inner = LMAD(a.strides[:-1], a.spans[:-1], inner_base)
    outer = LMAD((outer_stride,), (outer_span,), outer_base)
    inner_lo, inner_hi = inner.interval_overestimate()
    wf = b_and(cmp_ge(inner_lo, 0), cmp_gt(outer_stride, inner_hi))
    return (wf, inner, outer)


def _unify_dims(a: LMAD, b: LMAD) -> tuple[LMAD, LMAD]:
    """Pad the shallower LMAD with stride-1/span-0 inner dimensions so both
    have the same dimensionality (paper's ``UNIFY_LMAD_DIMS``)."""
    a = a.normalized()
    b = b.normalized()
    while a.ndims < b.ndims:
        a = LMAD((as_expr(1),) + a.strides, (as_expr(0),) + a.spans, a.base)
    while b.ndims < a.ndims:
        b = LMAD((as_expr(1),) + b.strides, (as_expr(0),) + b.spans, b.base)
    return a, b


def disjoint_lmads(a: LMAD, b: LMAD, _depth: int = 0) -> BoolExpr:
    """Sufficient predicate for ``a`` and ``b`` to be disjoint (Fig. 6(a))."""
    a = a.normalized()
    b = b.normalized()
    if a.ndims <= 1 and b.ndims <= 1:
        return _disjoint_1d(a, b)
    p_flat = _disjoint_1d(_flatten(a), _flatten(b))
    if _depth > 8:
        return p_flat
    c, d = _unify_dims(a, b)
    if c.strides[-1] != d.strides[-1]:
        return p_flat
    proj_c = _proj_outer_dim(c)
    proj_d = _proj_outer_dim(d)
    if proj_c is None or proj_d is None:
        return p_flat
    wf_c, c_in, c_out = proj_c
    wf_d, d_in, d_out = proj_d
    p_out = _disjoint_1d(c_out, d_out)
    p_in = disjoint_lmads(c_in, d_in, _depth + 1)
    return b_or(p_flat, b_and(wf_c, wf_d, b_or(p_out, p_in)))


def included_lmads(a: LMAD, b: LMAD, _depth: int = 0) -> BoolExpr:
    """Sufficient predicate for every index of ``a`` to belong to ``b``."""
    a = a.normalized()
    b = b.normalized()
    if a.is_definitely_empty():
        return TRUE
    # Dense target: any summary within the covered interval is included.
    dense_b = dense_interval(b)
    if dense_b is not None:
        b_lo, b_hi = dense_b
        a_lo, a_hi = a.interval_overestimate()
        return b_or(
            _empty_pred(a),
            b_and(cmp_ge(a_lo, b_lo), cmp_le(a_hi, b_hi)),
        )
    if b.ndims <= 1:
        # Flattening overestimates `a` (gcd stride, same extent), so
        # inclusion of the flattened set implies inclusion of `a`.
        return _included_1d(_flatten(a), b)
    if _depth > 8:
        return FALSE
    # Same-geometry fast path: equal strides dimension-wise, aligned bases
    # and spans that fit imply point-wise containment.
    if a.ndims == b.ndims and a.strides == b.strides:
        span_ok = b_and(*(cmp_le(sa, sb) for sa, sb in zip(a.spans, b.spans)))
        return b_and(span_ok, cmp_eq(a.base, b.base))
    # Project outer dimensions when they share a stride.
    c, d = _unify_dims(a, b)
    if c.strides[-1] == d.strides[-1]:
        proj_c = _proj_outer_dim(c)
        proj_d = _proj_outer_dim(d)
        if proj_c is not None and proj_d is not None:
            wf_c, c_in, c_out = proj_c
            wf_d, d_in, d_out = proj_d
            return b_and(
                wf_c,
                wf_d,
                _included_1d(c_out, d_out),
                included_lmads(c_in, d_in, _depth + 1),
            )
    return FALSE


def point_of(a: LMAD) -> LMAD:
    """The base point of *a* as a degenerate LMAD."""
    return point(a.base)


def dense_interval(a: LMAD) -> Optional[tuple[Expr, Expr]]:
    """``[lo, hi]`` when *a* provably covers a contiguous range, else None.

    Checks telescoping density over constant strides sorted ascending:
    each stride must not exceed one plus the extent covered by the finer
    dimensions.  Only the strides and the *inner* spans need to be
    constants -- the outermost span may stay symbolic, which is how
    ``[1,16]v[15,16*NP-16]+1`` is recognized as the interval
    ``[1, 16*NP]``.
    """
    a = a.normalized()
    if a.ndims == 0:
        return (a.base, a.base)
    if not all(d.is_constant() for d in a.strides):
        if a.ndims == 1 and a.strides[0] == 1:
            return a.interval_overestimate()
        return None
    dims = sorted(
        zip((d.constant_value() for d in a.strides), a.spans),
        key=lambda ds: ds[0],
    )
    covered = 0  # numeric extent covered by finer dims; None once symbolic
    for d, span in dims:
        if covered is None or d > covered + 1:
            return None
        if span.is_constant():
            if span.constant_value() < 0:
                return None
            covered += span.constant_value()
        else:
            covered = None  # symbolic span: must be the outermost dim
    lo, hi = a.interval_overestimate()
    return (lo, hi)


def fills_array(a: LMAD, declared_lower: Expr, declared_upper: Expr) -> BoolExpr:
    """``FILLS_ARR`` (Fig. 5, rule 5): *a* covers the declared array range.

    A dense descriptor that starts at or before the declared lower bound
    and ends at or after the upper bound covers every index any summary of
    the same array may touch.
    """
    span = dense_interval(a)
    if span is None:
        return FALSE
    lo, hi = span
    return b_and(cmp_le(lo, declared_lower), cmp_ge(hi, declared_upper))


try:  # NumPy accelerates the all-constant bulk path; never required.
    import numpy as _np
except ImportError:  # pragma: no cover - the image bakes numpy in
    _np = None


def _const_1d_rows(
    lmads: Sequence[LMAD],
) -> Optional[tuple[list[int], list[int], list[int], list[bool]]]:
    """``(base, hi, stride_gcd, empty)`` per LMAD when every descriptor
    is fully constant with at most one live dimension, else None."""
    bases: list[int] = []
    his: list[int] = []
    gcds: list[int] = []
    empties: list[bool] = []
    for a in lmads:
        if not a.base.is_constant() or not a.has_constant_geometry():
            return None
        a = a.normalized()
        if a.ndims > 1:
            return None
        base = a.base.constant_value()
        spans = [s.constant_value() for s in a.spans]
        bases.append(base)
        his.append(base + sum(spans))
        gcds.append(
            abs(a.strides[0].constant_value()) if a.ndims else 0
        )
        empties.append(any(s < 0 for s in spans))
    return bases, his, gcds, empties


def _disjoint_sets_fast(
    s1: Sequence[LMAD], s2: Sequence[LMAD]
) -> Optional[BoolExpr]:
    """Bulk-evaluated :func:`disjoint_lmad_sets` for all-constant inputs.

    When every LMAD in both sets is fully constant and (normalized) at
    most 1D, each pairwise ``DISJOINT_LMAD_1D`` predicate folds to a
    literal, so the whole conjunction can be computed numerically --
    vectorized over the cross product with NumPy when available -- and
    must equal what the symbolic path would have folded to.  Returns
    None (fall through to the reference) in every other case;
    ``test_lmad.py`` fuzzes the agreement.
    """
    if not s1 or not s2:
        return None
    rows1 = _const_1d_rows(s1)
    if rows1 is None:
        return None
    rows2 = _const_1d_rows(s2)
    if rows2 is None:
        return None
    _profiling.count("lmad.disjoint_pairs_fast", len(s1) * len(s2))
    b1, h1, g1, e1 = rows1
    b2, h2, g2, e2 = rows2
    if _np is not None and len(s1) * len(s2) >= 4:
        base_a = _np.asarray(b1)[:, None]
        base_b = _np.asarray(b2)[None, :]
        hi_a = _np.asarray(h1)[:, None]
        hi_b = _np.asarray(h2)[None, :]
        empty = _np.asarray(e1)[:, None] | _np.asarray(e2)[None, :]
        g = _np.gcd(_np.asarray(g1)[:, None], _np.asarray(g2)[None, :])
        interleaved = (g > 1) & ((base_a - base_b) % _np.where(g > 1, g, 1) != 0)
        separated = (base_a > hi_b) | (base_b > hi_a)
        ok = bool((empty | interleaved | separated).all())
    else:
        ok = True
        for ba, ha, ga, ea in zip(b1, h1, g1, e1):
            for bb, hb, gb, eb in zip(b2, h2, g2, e2):
                if ea or eb:
                    continue
                g = gcd(ga, gb)
                if g > 1 and (ba - bb) % g != 0:
                    continue
                if ba > hb or bb > ha:
                    continue
                ok = False
                break
            if not ok:
                break
    return TRUE if ok else FALSE


@_profiling.timed("lmad.disjoint_sets")
def disjoint_lmad_sets(s1: Sequence[LMAD], s2: Sequence[LMAD]) -> BoolExpr:
    """Every LMAD of ``s1`` disjoint from every LMAD of ``s2``."""
    fast = _disjoint_sets_fast(s1, s2)
    if fast is not None:
        return fast
    _profiling.count("lmad.disjoint_pairs", len(s1) * len(s2))
    preds = [disjoint_lmads(a, b) for a in s1 for b in s2]
    return b_and(*preds) if preds else TRUE


@_profiling.timed("lmad.included_sets")
def included_lmad_sets(s1: Sequence[LMAD], s2: Sequence[LMAD]) -> BoolExpr:
    """Every LMAD of ``s1`` included in at least one LMAD of ``s2``."""
    if not s1:
        return TRUE
    if not s2:
        preds = [_empty_pred(a) for a in s1]
        return b_and(*preds)
    _profiling.count("lmad.included_pairs", len(s1) * len(s2))
    out = []
    for a in s1:
        out.append(b_or(*(included_lmads(a, b) for b in s2)))
    return b_and(*out)

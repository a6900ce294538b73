"""Linear Memory Access Descriptors (LMADs) -- Section 2.1 of the paper.

An LMAD ``[d1,...,dM] v [s1,...,sM] + t`` denotes the unified
(one-dimensional) index set::

    { t + i1*d1 + ... + iM*dM  |  0 <= ik*dk <= sk,  k in 1..M }

where ``dk`` are *strides* and ``sk`` are *spans* (distance covered by the
dimension, already in index units: a dimension with ``c`` points has span
``(c-1)*dk``).  Strides, spans and the base offset ``t`` are symbolic
integer expressions; an LMAD with any provably negative span denotes the
empty set (this encoding is exploited by the CIV aggregation of Section
3.3, where an empty path summary becomes an interval whose upper bound
falls below its lower bound).

Dimensions are stored *innermost first*: ``strides[-1]`` is the outermost
dimension, the one split off by ``PROJ_OUTER_DIM`` (Fig. 6(a)).
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..symbolic import EvalEnv, Expr, ExprLike, as_expr

__all__ = ["LMAD", "interval", "point"]


class LMAD:
    """A (possibly multi-dimensional) linear memory access descriptor."""

    __slots__ = ("strides", "spans", "base")

    def __init__(
        self,
        strides: Iterable[ExprLike],
        spans: Iterable[ExprLike],
        base: ExprLike = 0,
    ):
        self.strides = tuple(as_expr(d) for d in strides)
        self.spans = tuple(as_expr(s) for s in spans)
        self.base = as_expr(base)
        if len(self.strides) != len(self.spans):
            raise ValueError("stride/span dimension mismatch")

    # -- construction helpers -------------------------------------------
    def normalized(self) -> "LMAD":
        """Drop dimensions that are provably single points (span == 0)."""
        dims = [
            (d, s)
            for d, s in zip(self.strides, self.spans)
            if not (s.is_constant() and s.constant_value() == 0)
        ]
        if len(dims) == len(self.strides):
            return self
        if dims:
            strides, spans = zip(*dims)
        else:
            strides, spans = (), ()
        return LMAD(strides, spans, self.base)

    @property
    def ndims(self) -> int:
        return len(self.strides)

    # -- classification ---------------------------------------------------
    def is_point(self) -> bool:
        """True when the descriptor is provably a single index."""
        return all(s.is_constant() and s.constant_value() == 0 for s in self.spans)

    def is_definitely_empty(self) -> bool:
        """True when some span is provably negative (empty encoding)."""
        return any(s.is_constant() and s.constant_value() < 0 for s in self.spans)

    def has_constant_geometry(self) -> bool:
        """True when all strides and spans are integer constants."""
        return all(d.is_constant() for d in self.strides) and all(
            s.is_constant() for s in self.spans
        )

    # -- symbolic geometry -------------------------------------------------
    def extent(self) -> Expr:
        """Total span ``s1 + ... + sM`` (distance from first to last index),
        valid as an upper-bound offset when all strides are positive."""
        total = as_expr(0)
        for s in self.spans:
            total = total + s
        return total

    def interval_overestimate(self) -> tuple[Expr, Expr]:
        """Inclusive symbolic interval ``[base, base + extent()]`` covering
        the LMAD, assuming positive strides and non-negative spans."""
        return (self.base, self.base + self.extent())

    def free_symbols(self) -> frozenset[str]:
        out = self.base.free_symbols()
        for d in self.strides:
            out |= d.free_symbols()
        for s in self.spans:
            out |= s.free_symbols()
        return out

    def substitute(self, mapping) -> "LMAD":
        return LMAD(
            (d.substitute(mapping) for d in self.strides),
            (s.substitute(mapping) for s in self.spans),
            self.base.substitute(mapping),
        )

    def shifted(self, offset: ExprLike) -> "LMAD":
        """The same descriptor displaced by *offset* (call-site translation)."""
        return LMAD(self.strides, self.spans, self.base + as_expr(offset))

    # -- concrete evaluation ----------------------------------------------
    def enumerate(self, env: EvalEnv) -> set[int]:
        """The concrete index set under runtime environment *env*."""
        base = self.base.evaluate(env)
        dims = []
        for d, s in zip(self.strides, self.spans):
            dv, sv = d.evaluate(env), s.evaluate(env)
            if sv < 0:
                return set()  # empty-set encoding
            if dv == 0:
                if sv == 0:
                    continue  # degenerate single point
                raise ValueError(f"zero stride with positive span in {self!r}")
            if dv < 0:
                # A negative stride walks downward: re-anchor the base at
                # the smallest index and walk up.
                count = sv // (-dv) + 1
                base -= (count - 1) * (-dv)
                dv, sv = -dv, (count - 1) * (-dv)
            dims.append((dv, sv))
        out = {base}
        for dv, sv in dims:
            count = sv // dv + 1
            out = {x + i * dv for x in out for i in range(count)}
        return out

    def count(self, env: EvalEnv) -> int:
        """Number of points (with multiplicity collapsed) under *env*."""
        return len(self.enumerate(env))

    # -- identity -----------------------------------------------------------
    def key(self) -> tuple:
        return (self.strides, self.spans, self.base)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LMAD) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(("LMAD",) + self.key())

    def __repr__(self) -> str:
        ds = ",".join(repr(d) for d in self.strides)
        ss = ",".join(repr(s) for s in self.spans)
        return f"[{ds}]v[{ss}]+{self.base!r}"

    # -- loop aggregation ----------------------------------------------------
    def aggregated(
        self, index: str, lower: ExprLike, upper: ExprLike
    ) -> Optional["LMAD"]:
        """Aggregate this per-iteration LMAD across loop ``index = lower..upper``.

        Exact aggregation (Section 2.1's example) succeeds when the loop
        index appears affinely in the base and nowhere in strides or spans:
        a new outermost dimension of stride ``a`` (the index coefficient)
        and span ``a*(upper-lower)`` is appended.  Returns ``None`` when
        exact aggregation fails, in which case the caller introduces a USR
        recurrence node instead.
        """
        lower, upper = as_expr(lower), as_expr(upper)
        for part in (*self.strides, *self.spans):
            if part.depends_on(index):
                return None
        if not self.base.depends_on(index):
            if upper.depends_on(index) or lower.depends_on(index):
                return None
            # Invariant body: the union over iterations is the LMAD itself
            # (provided the loop executes; emptiness is gated by the caller).
            return self
        if not self.base.is_affine_in([index]):
            return None
        coeff = self.base.coeff_of(index)
        if coeff.depends_on(index):
            return None
        rest = self.base.drop(index)
        trip_span = coeff * (upper - lower)
        new_base = rest + coeff * lower
        if coeff.is_constant() and coeff.constant_value() < 0:
            # Flip to a positive stride so interval overestimates stay
            # valid: the smallest index is reached at i = upper.
            return LMAD(
                self.strides + (-coeff,),
                self.spans + (-trip_span,),
                rest + coeff * upper,
            )
        return LMAD(
            self.strides + (coeff,), self.spans + (trip_span,), new_base
        )


def interval(lower: ExprLike, upper: ExprLike) -> LMAD:
    """The dense descriptor ``[1] v [upper-lower] + lower`` = ``[lower, upper]``.

    Empty (negative span) when ``upper < lower``, matching the CIV encoding.
    """
    lower, upper = as_expr(lower), as_expr(upper)
    return LMAD((as_expr(1),), (upper - lower,), lower)


def point(index: ExprLike) -> LMAD:
    """The single-index descriptor ``[]v[] + index``."""
    return LMAD((), (), as_expr(index))

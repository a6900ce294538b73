"""Canonical symbolic integer expressions.

The hybrid-analysis framework reasons about array subscripts, loop bounds
and gate conditions symbolically.  This module provides an immutable,
hashable expression type :class:`Expr` kept in a *polynomial normal form*:
a finite sum of terms, each term an integer coefficient times a product of
*atoms* (powers of opaque symbolic objects).

Atoms are themselves small immutable objects:

* :class:`Sym` -- a named integer symbol (a scalar program variable),
* :class:`ArrayRef` -- an opaque indexed read such as ``IA(i)``,
* :class:`Min` / :class:`Max` -- irreducible extrema of expressions,
* :class:`FloorDiv` -- an irreducible integer division.

Keeping expressions in normal form makes structural equality coincide with
(most) semantic equality, which the inference rules of the FACTOR algorithm
rely on: e.g. proving two LMADs share a stride reduces to an ``==`` check.

Expressions and symbols are *hash-consed* (see :mod:`repro.symbolic.intern`):
the canonicalizing constructors intern their results, so structural
equality additionally coincides with pointer equality for values built
after the last :func:`~repro.symbolic.intern.clear_caches` call.
"""

from __future__ import annotations

from functools import total_ordering
from math import gcd
from typing import Callable, Iterable, Iterator, Mapping, Union

from .. import profiling as _profiling

from .intern import Interner, Memo

__all__ = [
    "Atom",
    "Sym",
    "ArrayRef",
    "Min",
    "Max",
    "FloorDiv",
    "Expr",
    "ExprLike",
    "as_expr",
    "sym",
    "smin",
    "smax",
    "floor_div",
    "EvalEnv",
]

#: Anything accepted where an expression is expected.
ExprLike = Union["Expr", "Atom", int]

#: A runtime environment: scalar names map to ints, array names map either
#: to a sequence or to a callable from index tuples to ints.
EvalEnv = Mapping[str, object]


def _sortable(value) -> tuple:
    """Recursively flatten keys containing Exprs into comparable tuples."""
    if isinstance(value, Expr):
        return ("E", value.sort_key())
    if isinstance(value, tuple):
        return ("T",) + tuple(_sortable(v) for v in value)
    return ("V", type(value).__name__, value)


class Atom:
    """Base class of opaque symbolic atoms.

    Atoms compare by their :meth:`key`, are hashable and totally ordered so
    monomials have a canonical ordering.  The ordering key, the hash and
    the atom's own expression are cached in slots that are filled on
    first use (subclass constructors never touch them).
    """

    __slots__ = ("_ok_cache", "_hash_cache", "_expr_cache")

    def key(self) -> tuple:
        raise NotImplementedError

    def free_symbols(self) -> frozenset[str]:
        raise NotImplementedError

    def evaluate(self, env: EvalEnv) -> int:
        raise NotImplementedError

    def substitute(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        """Return *self* with symbols replaced, as an expression."""
        raise NotImplementedError

    # -- comparisons / hashing ------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return type(self) is type(other) and self.key() == other.key()

    def __lt__(self, other: "Atom") -> bool:
        if not isinstance(other, Atom):
            return NotImplemented
        return self._order_key() < other._order_key()

    def _order_key(self) -> tuple:
        try:
            return self._ok_cache
        except AttributeError:
            cached = (type(self).__name__,) + _sortable(self.key())
            self._ok_cache = cached
            return cached

    def __hash__(self) -> int:
        try:
            return self._hash_cache
        except AttributeError:
            cached = hash((type(self).__name__,) + self.key())
            self._hash_cache = cached
            return cached

    # -- arithmetic sugar (delegate to Expr) ----------------------------
    def as_expr(self) -> "Expr":
        try:
            return self._expr_cache
        except AttributeError:
            mono = ((self, 1),)
            cached = Expr._from_canonical(((mono, 1),))
            self._expr_cache = cached
            return cached

    def __add__(self, other: ExprLike) -> "Expr":
        return self.as_expr() + other

    __radd__ = __add__

    def __sub__(self, other: ExprLike) -> "Expr":
        return self.as_expr() - other

    def __rsub__(self, other: ExprLike) -> "Expr":
        return as_expr(other) - self.as_expr()

    def __mul__(self, other: ExprLike) -> "Expr":
        return self.as_expr() * other

    __rmul__ = __mul__

    def __neg__(self) -> "Expr":
        return -self.as_expr()


#: Interning table for :class:`Sym` atoms (symbol names recur endlessly).
_SYM_INTERN = Interner("symbolic.sym", max_size=100_000)


@total_ordering
class Sym(Atom):
    """A named integer-valued program symbol.

    Instances are hash-consed by name: ``Sym('i') is Sym('i')``.
    """

    __slots__ = ("name",)

    def __new__(cls, name: str):
        cached = _SYM_INTERN.data.get(name)
        if cached is not None:
            _SYM_INTERN.hits += 1
            return cached
        _SYM_INTERN.misses += 1
        self = super().__new__(cls)
        return _SYM_INTERN.put(name, self)

    def __init__(self, name: str):
        self.name = name

    def __getnewargs__(self) -> tuple:
        return (self.name,)

    def key(self) -> tuple:
        return (self.name,)

    def free_symbols(self) -> frozenset[str]:
        return frozenset({self.name})

    def evaluate(self, env: EvalEnv) -> int:
        try:
            value = env[self.name]
        except KeyError:
            raise KeyError(f"unbound symbol {self.name!r}") from None
        if not isinstance(value, int):
            raise TypeError(f"symbol {self.name!r} bound to non-int {value!r}")
        return value

    def substitute(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        if self.name in mapping:
            return mapping[self.name]
        return self.as_expr()

    def __repr__(self) -> str:
        return self.name


class ArrayRef(Atom):
    """An opaque read of an array element, e.g. ``IA(i)``.

    The framework treats index-array values as uninterpreted terms; two
    references are equal iff array name and index expressions are equal.
    """

    __slots__ = ("array", "indices")

    def __init__(self, array: str, indices: Iterable[ExprLike]):
        self.array = array
        self.indices = tuple(as_expr(i) for i in indices)

    def key(self) -> tuple:
        return (self.array, self.indices)

    def free_symbols(self) -> frozenset[str]:
        out = frozenset({self.array})
        for idx in self.indices:
            out |= idx.free_symbols()
        return out

    def evaluate(self, env: EvalEnv) -> int:
        idx = tuple(i.evaluate(env) for i in self.indices)
        try:
            arr = env[self.array]
        except KeyError:
            raise KeyError(f"unbound array {self.array!r}") from None
        if callable(arr):
            return int(arr(*idx))
        # 1-based Fortran-style indexing over Python sequences.
        if len(idx) != 1:
            raise TypeError(
                f"array {self.array!r} bound to a sequence but indexed "
                f"with {len(idx)} subscripts"
            )
        return int(arr[idx[0] - 1])

    def substitute(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        new_indices = tuple(i.substitute(mapping) for i in self.indices)
        return ArrayRef(self.array, new_indices).as_expr()

    def __repr__(self) -> str:
        inside = ",".join(repr(i) for i in self.indices)
        return f"{self.array}({inside})"


class _Extremum(Atom):
    """Common implementation of irreducible Min/Max atoms."""

    __slots__ = ("args",)
    _pick: Callable  # min or max, set by subclass
    _name: str

    def __init__(self, args: Iterable[ExprLike]):
        canon = tuple(sorted({as_expr(a) for a in args}, key=lambda e: e.sort_key()))
        if len(canon) < 2:
            raise ValueError(f"{self._name} needs at least two distinct arguments")
        self.args = canon

    def key(self) -> tuple:
        return (self.args,)

    def free_symbols(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for a in self.args:
            out |= a.free_symbols()
        return out

    def evaluate(self, env: EvalEnv) -> int:
        return type(self)._pick(a.evaluate(env) for a in self.args)

    def substitute(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        new_args = [a.substitute(mapping) for a in self.args]
        return _make_extremum(type(self), new_args)

    def __repr__(self) -> str:
        inside = ",".join(repr(a) for a in self.args)
        return f"{self._name}({inside})"


class Min(_Extremum):
    """Irreducible minimum of two or more expressions."""

    __slots__ = ()
    _pick = min
    _name = "min"


class Max(_Extremum):
    """Irreducible maximum of two or more expressions."""

    __slots__ = ()
    _pick = max
    _name = "max"


class FloorDiv(Atom):
    """Irreducible floor division ``num // den`` (den a positive constant)."""

    __slots__ = ("num", "den")

    def __init__(self, num: ExprLike, den: int):
        if den <= 0:
            raise ValueError("FloorDiv denominator must be positive")
        self.num = as_expr(num)
        self.den = den

    def key(self) -> tuple:
        return (self.num, self.den)

    def free_symbols(self) -> frozenset[str]:
        return self.num.free_symbols()

    def evaluate(self, env: EvalEnv) -> int:
        return self.num.evaluate(env) // self.den

    def substitute(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        return floor_div(self.num.substitute(mapping), self.den)

    def __repr__(self) -> str:
        return f"({self.num!r} div {self.den})"


#: A monomial: sorted tuple of (atom, positive power) pairs.  The empty
#: tuple is the constant monomial.
Monomial = tuple


#: Interning table for :class:`Expr`: canonical terms tuple -> instance.
_EXPR_INTERN = Interner("symbolic.expr", max_size=1_000_000)

#: Sort key of each monomial seen so far: ``(degree, ((atom order key,
#: power), ...))``.  Canonicalization sorts a term list through this
#: table instead of rebuilding the nested key tuples per construction.
#: Keys hold only strings, ints and tuples (never an atom or expression),
#: so a stale entry could not change an answer; the table is registered
#: like every other cache so ``clear_caches()`` stays a true cold start.
_MONO_KEYS = Memo("symbolic.mono_key", max_size=500_000)


def _mono_keys(monos: Iterable[Monomial]) -> list:
    """The sort key of each monomial, through the table."""
    table = _MONO_KEYS
    get = table.data.get
    keys = []
    for mono in monos:
        key = get(mono)
        if key is None:
            table.misses += 1
            key = table.put(
                mono, (len(mono), tuple([(a._order_key(), p) for a, p in mono]))
            )
        else:
            table.hits += 1
        keys.append(key)
    return keys


class Expr:
    """An integer polynomial over symbolic atoms, in canonical form.

    Construct via :func:`as_expr`, :func:`sym`, arithmetic on existing
    expressions, or the atom classes.  Instances are immutable and hashable;
    structural equality is canonical-form equality.

    Expressions are hash-consed: :meth:`_from_canonical` interns on the
    canonical terms tuple, so structurally equal expressions built
    anywhere in the system are pointer-equal.  Equality therefore hits
    the identity fast path on the (very hot) comparison-heavy paths of
    the FACTOR rules, and every downstream cache can key on expressions
    cheaply.  Whether the expression is a constant, and its hash, are
    fixed at construction.
    """

    __slots__ = ("_terms", "_hash", "_const", "_free_cache")

    def __init__(self, *args, **kwargs):
        raise TypeError("use as_expr()/sym() or arithmetic to build Expr")

    @classmethod
    def _from_terms(cls, terms: Mapping[Monomial, int]) -> "Expr":
        """The expression with the given ``monomial -> coefficient``
        terms, in any order and possibly with zero coefficients."""
        items = [item for item in terms.items() if item[1]]
        if len(items) > 1:
            keys = _mono_keys([mono for mono, _coeff in items])
            order = sorted(range(len(items)), key=keys.__getitem__)
            items = [items[i] for i in order]
        return cls._from_canonical(tuple(items))

    @classmethod
    def _from_canonical(cls, canonical: tuple) -> "Expr":
        """Intern an already canonical terms tuple: sorted by monomial
        key, no zero coefficient.  Callers that only rescale or negate
        the coefficients of an existing expression keep its order and
        come here directly."""
        cached = _EXPR_INTERN.data.get(canonical)
        if cached is not None:
            _EXPR_INTERN.hits += 1
            return cached
        _EXPR_INTERN.misses += 1
        self = object.__new__(cls)
        self._terms = canonical
        self._free_cache = None
        # A constant hashes like the int it equals (see __eq__).
        if not canonical:
            self._const = True
            self._hash = hash(0)
        elif len(canonical) == 1 and canonical[0][0] == ():
            self._const = True
            self._hash = hash(canonical[0][1])
        else:
            self._const = False
            self._hash = hash(canonical)
        return _EXPR_INTERN.put(canonical, self)

    # -- basic queries ---------------------------------------------------
    @property
    def terms(self) -> tuple:
        """The canonical ``((monomial, coeff), ...)`` tuple."""
        return self._terms

    def is_constant(self) -> bool:
        return self._const

    def constant_value(self) -> int:
        """The value of a constant expression (raises if symbolic)."""
        if not self._const:
            raise ValueError(f"{self!r} is not constant")
        return self._terms[0][1] if self._terms else 0

    def constant_term(self) -> int:
        """The coefficient of the constant monomial (0 if absent)."""
        for mono, coeff in self._terms:
            if mono == ():
                return coeff
        return 0

    def free_symbols(self) -> frozenset[str]:
        # Cached per instance: expressions are hash-consed, so one
        # computation serves every structurally equal occurrence.
        cached = self._free_cache
        if cached is None:
            _profiling.count("expr.free_symbols.compute")
            out: frozenset[str] = frozenset()
            for mono, _ in self._terms:
                for atom, _p in mono:
                    out |= atom.free_symbols()
            self._free_cache = out
            cached = out
        return cached

    def atoms(self) -> frozenset[Atom]:
        out: set[Atom] = set()
        for mono, _ in self._terms:
            for atom, _p in mono:
                out.add(atom)
        return frozenset(out)

    def depends_on(self, name: str) -> bool:
        return name in self.free_symbols()

    def is_affine_in(self, names: Iterable[str]) -> bool:
        """True if every monomial is degree <= 1 in atoms involving *names*.

        Atoms not involving any of *names* count as symbolic constants.
        """
        names = frozenset(names)
        for mono, _ in self._terms:
            degree = 0
            for atom, power in mono:
                if atom.free_symbols() & names:
                    if not isinstance(atom, Sym):
                        return False
                    degree += power
            if degree > 1:
                return False
        return True

    def coeff_of(self, name: str) -> "Expr":
        """Coefficient of the symbol *name*, assuming affineness in it.

        ``self == coeff_of(name) * name + drop(name)`` when
        ``is_affine_in([name])`` holds.
        """
        target = Sym(name)
        out: dict[Monomial, int] = {}
        for mono, coeff in self._terms:
            powers = dict(mono)
            if target in powers:
                if powers[target] != 1:
                    raise ValueError(f"{self!r} is not affine in {name!r}")
                rest = tuple(sorted(
                    ((a, p) for a, p in mono if a != target),
                    key=lambda ap: ap[0]._order_key(),
                ))
                out[rest] = out.get(rest, 0) + coeff
        return Expr._from_terms(out)

    def drop(self, name: str) -> "Expr":
        """The part of the expression not mentioning symbol *name*."""
        out: dict[Monomial, int] = {}
        for mono, coeff in self._terms:
            if any(name in a.free_symbols() for a, _p in mono):
                continue
            out[mono] = out.get(mono, 0) + coeff
        return Expr._from_terms(out)

    def max_degree_of(self, name: str) -> int:
        """Highest total power of atoms mentioning *name* in any monomial."""
        best = 0
        for mono, _ in self._terms:
            d = sum(p for a, p in mono if name in a.free_symbols())
            best = max(best, d)
        return best

    def content_gcd(self) -> int:
        """GCD of all coefficients (0 for the zero polynomial)."""
        return gcd(*[coeff for _mono, coeff in self._terms])

    # -- evaluation / substitution ----------------------------------------
    def evaluate(self, env: EvalEnv) -> int:
        total = 0
        for mono, coeff in self._terms:
            value = coeff
            for atom, power in mono:
                value *= atom.evaluate(env) ** power
            total += value
        return total

    def substitute(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        """Simultaneously substitute symbols by expressions."""
        if not mapping or not (self.free_symbols() & mapping.keys()):
            return self
        total = as_expr(0)
        for mono, coeff in self._terms:
            value = as_expr(coeff)
            for atom, power in mono:
                replaced = atom.substitute(mapping)
                for _ in range(power):
                    value = value * replaced
            total = total + value
        return total

    # -- arithmetic --------------------------------------------------------
    # Adding a constant, negating and scaling by a constant keep the
    # monomial order, so those results are built without a sort.
    def _plus_constant(self, value: int) -> "Expr":
        if not value:
            return self
        terms = self._terms
        if terms and terms[0][0] == ():  # the constant monomial sorts first
            value += terms[0][1]
            terms = terms[1:]
        if value:
            terms = (((), value),) + terms
        return Expr._from_canonical(terms)

    def _times_constant(self, value: int) -> "Expr":
        if value == 1:
            return self
        if not value:
            return Expr._from_canonical(())
        return Expr._from_canonical(
            tuple([(m, c * value) for m, c in self._terms])
        )

    def __add__(self, other: ExprLike) -> "Expr":
        if other.__class__ is not Expr:
            other = as_expr(other)
        if other._const:
            return self._plus_constant(other.constant_value())
        if self._const:
            return other._plus_constant(self.constant_value())
        out = dict(self._terms)
        for mono, coeff in other._terms:
            out[mono] = out.get(mono, 0) + coeff
        return Expr._from_terms(out)

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return self._times_constant(-1)

    def __sub__(self, other: ExprLike) -> "Expr":
        if other.__class__ is not Expr:
            other = as_expr(other)
        return self + other._times_constant(-1)

    def __rsub__(self, other: ExprLike) -> "Expr":
        return as_expr(other) + (-self)

    def __mul__(self, other: ExprLike) -> "Expr":
        if other.__class__ is not Expr:
            other = as_expr(other)
        if other._const:
            return self._times_constant(other.constant_value())
        if self._const:
            return other._times_constant(self.constant_value())
        out: dict[Monomial, int] = {}
        for m1, c1 in self._terms:
            for m2, c2 in other._terms:
                mono = _merge_monomials(m1, m2)
                out[mono] = out.get(mono, 0) + c1 * c2
        return Expr._from_terms(out)

    __rmul__ = __mul__

    def __floordiv__(self, den: int) -> "Expr":
        """Exact or irreducible floor division by a positive constant."""
        if not isinstance(den, int):
            return NotImplemented
        if den <= 0:
            raise ValueError("division by non-positive constant")
        if den == 1:
            return self
        if all(c % den == 0 for _m, c in self._terms):
            return Expr._from_canonical(
                tuple([(m, c // den) for m, c in self._terms])
            )
        return FloorDiv(self, den).as_expr()

    # -- ordering / display --------------------------------------------------
    def sort_key(self) -> tuple:
        keys = _mono_keys([mono for mono, _coeff in self._terms])
        return tuple(zip(keys, [coeff for _mono, coeff in self._terms]))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, int):
            return self._const and self.constant_value() == other
        if isinstance(other, Atom):
            other = other.as_expr()
        if not isinstance(other, Expr):
            return NotImplemented
        return self._terms is other._terms or self._terms == other._terms

    def __hash__(self) -> int:
        return self._hash

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in self._terms:
            if mono == ():
                parts.append(str(coeff))
                continue
            factors = []
            for atom, power in mono:
                factors.append(repr(atom) if power == 1 else f"{atom!r}^{power}")
            body = "*".join(factors)
            if coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


def _merge_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    powers: dict[Atom, int] = dict(m1)
    for atom, p in m2:
        powers[atom] = powers.get(atom, 0) + p
    return tuple(sorted(powers.items(), key=lambda ap: ap[0]._order_key()))


def as_expr(value: ExprLike) -> Expr:
    """Coerce an int, atom, or expression to :class:`Expr`."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, Atom):
        return value.as_expr()
    if isinstance(value, bool):
        raise TypeError("booleans are not integer expressions")
    if isinstance(value, int):
        return Expr._from_canonical((((), value),) if value else ())
    raise TypeError(f"cannot interpret {value!r} as a symbolic expression")


def sym(name: str) -> Expr:
    """Create a symbol expression: ``sym('N')``."""
    return Sym(name).as_expr()


def _make_extremum(cls: type, args: Iterable[ExprLike]) -> Expr:
    exprs: set[Expr] = set()
    for a in args:
        e = as_expr(a)
        # Flatten nested extrema of the same flavour.
        flattened = False
        if len(e.terms) == 1:
            mono, coeff = e.terms[0]
            if coeff == 1 and len(mono) == 1 and mono[0][1] == 1:
                atom = mono[0][0]
                if isinstance(atom, cls):
                    exprs.update(atom.args)
                    flattened = True
        if not flattened:
            exprs.add(e)
    constants = [e.constant_value() for e in exprs if e.is_constant()]
    symbolic = [e for e in exprs if not e.is_constant()]
    if constants:
        folded = cls._pick(constants)
        if not symbolic:
            return as_expr(folded)
        symbolic.append(as_expr(folded))
    if len(symbolic) == 1:
        return symbolic[0]
    return cls(symbolic).as_expr()


def smin(*args: ExprLike) -> Expr:
    """Symbolic minimum, folding constants and flattening nested mins."""
    if not args:
        raise ValueError("smin of no arguments")
    return _make_extremum(Min, args)


def smax(*args: ExprLike) -> Expr:
    """Symbolic maximum, folding constants and flattening nested maxes."""
    if not args:
        raise ValueError("smax of no arguments")
    return _make_extremum(Max, args)


def floor_div(num: ExprLike, den: int) -> Expr:
    """Floor division of an expression by a positive integer constant."""
    return as_expr(num) // den

"""Invariants of the symbolic kernel's canonical forms (hypothesis).

The constructors of :mod:`repro.symbolic` and :mod:`repro.pdag.nodes`
compute a canonical form once and then answer from slots; these
properties pin what the shortcuts must keep:

* ``Expr._from_terms`` does not depend on the order its terms arrive in
  and interns one object per value;
* a constant expression equals, and hashes like, the ``int`` it denotes
  (``Expr.__eq__(int)`` is used against dict/set members);
* a comparison's cached negation is an involution and ``c or not c``
  folds to true;
* ``b_and``/``b_or``/``p_and``/``p_or``, whose one- and two-operand
  calls skip the flatten -> absorb pipeline, return what the full
  pipeline returns.  The reference copies below are the pipeline as it
  stood before those shortcuts existed.
"""

from hypothesis import given, settings, strategies as st

from repro.pdag import PAnd, PLeaf, POr, p_and, p_call, p_leaf, p_loop_and, p_or
from repro.pdag.nodes import PFALSE, PTRUE
from repro.symbolic import (
    FALSE,
    TRUE,
    AndB,
    Cmp,
    NotB,
    OrB,
    as_expr,
    b_and,
    b_not,
    b_or,
    divides,
    eq0,
    ge0,
    gt0,
    ne0,
    sym,
)
from repro.symbolic.expr import ArrayRef, Expr, Sym

# -- expressions ---------------------------------------------------------------

_ATOMS = [
    Sym("x"),
    Sym("y"),
    Sym("z"),
    ArrayRef("IA", [sym("x")]),
    ArrayRef("IA", [sym("x") + 1]),
]


@st.composite
def monomials(draw):
    """A canonical monomial: atoms in order-key order, positive powers."""
    atoms = draw(st.lists(st.sampled_from(_ATOMS), unique=True, max_size=3))
    atoms.sort(key=lambda a: a._order_key())
    return tuple((a, draw(st.integers(1, 3))) for a in atoms)


term_lists = st.lists(
    st.tuples(monomials(), st.integers(-4, 4)),
    max_size=5,
    unique_by=lambda term: term[0],
)


@given(term_lists, st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_from_terms_is_insertion_order_independent(terms, rng):
    shuffled = list(terms)
    rng.shuffle(shuffled)
    a = Expr._from_terms(dict(terms))
    b = Expr._from_terms(dict(shuffled))
    assert a is b
    assert all(coeff != 0 for _mono, coeff in a.terms)
    keys = [Expr._from_terms({mono: 1}).sort_key()[0][0] for mono, _ in a.terms]
    assert keys == sorted(keys)


@given(term_lists)
@settings(max_examples=100, deadline=None)
def test_sum_of_single_terms_equals_from_terms(terms):
    total = as_expr(0)
    for mono, coeff in terms:
        total = total + Expr._from_terms({mono: coeff})
    assert total is Expr._from_terms(dict(terms))
    assert -(-total) is total
    assert total * 1 is total
    assert total + 0 is total
    assert (total * 3) // 3 is total
    assert total - total == 0


@given(st.integers(-(2 ** 70), 2 ** 70))
def test_constant_expression_hashes_and_compares_like_its_int(k):
    e = as_expr(k)
    assert e.is_constant() and e.constant_value() == k
    assert e == k and hash(e) == hash(k)
    assert e in {k} and k in {e}
    assert (sym("x") + k) - sym("x") is e


# -- comparisons ----------------------------------------------------------------


@st.composite
def affine(draw):
    e = as_expr(draw(st.integers(-4, 4)))
    for name in ("x", "y"):
        e = e + sym(name) * draw(st.integers(-4, 4))
    return e


@st.composite
def cmps(draw):
    make = draw(st.sampled_from([gt0, ge0, eq0, ne0]))
    return make(draw(affine()))


@given(cmps())
@settings(max_examples=150, deadline=None)
def test_negation_is_a_cached_involution(c):
    if not isinstance(c, Cmp):  # folded to a constant
        return
    n = c.negated()
    assert c.negated() is n  # computed once per instance
    assert n.negated() == c
    assert b_not(b_not(c)) == c
    assert b_or(c, n) is TRUE
    assert b_or(n, c) is TRUE


# -- n-ary constructors against the full pipeline -------------------------------


def _ref_flatten(cls, args):
    out, seen = [], set()
    for a in args:
        for c in a.args if isinstance(a, cls) else (a,):
            if c not in seen:
                seen.add(c)
                out.append(c)
    return out


def _ref_absorb(args, inner):
    if len(args) < 2:
        return args
    part_sets = [
        frozenset(a.args) if isinstance(a, inner) else frozenset((a,)) for a in args
    ]
    kept = []
    for i, a in enumerate(args):
        if not any(
            other < part_sets[i] or (other == part_sets[i] and j < i)
            for j, other in enumerate(part_sets)
            if j != i
        ):
            kept.append(a)
    return kept


def _ref_b_and(*args):
    flat = _ref_absorb(_ref_flatten(AndB, args), OrB)
    kept = [a for a in flat if not a.is_true()]
    if any(a.is_false() for a in kept):
        return FALSE
    if not kept:
        return TRUE
    if len(kept) == 1:
        return kept[0]
    return AndB(kept)


def _ref_negated(c):
    if c.op in (">", ">="):
        return (ge0 if c.op == ">" else gt0)(-c.expr)
    return (ne0 if c.op == "==" else eq0)(c.expr)


def _ref_b_or(*args):
    flat = _ref_absorb(_ref_flatten(OrB, args), AndB)
    kept = [a for a in flat if not a.is_false()]
    if any(a.is_true() for a in kept):
        return TRUE
    if not kept:
        return FALSE
    if len(kept) == 1:
        return kept[0]
    seen = set(kept)
    for a in kept:
        if isinstance(a, Cmp) and _ref_negated(a) in seen:
            return TRUE
        if isinstance(a, NotB) and a.arg in seen:
            return TRUE
    return OrB(kept)


def _ref_p_and(*args):
    flat = _ref_absorb(_ref_flatten(PAnd, args), POr)
    if any(a.is_false() for a in flat):
        return PFALSE
    kept = [a for a in flat if not a.is_true()]
    if not kept:
        return PTRUE
    leaves = [a for a in kept if isinstance(a, PLeaf)]
    merged = [p_leaf(_ref_b_and(*(leaf.cond for leaf in leaves)))] if leaves else []
    merged.extend(a for a in kept if not isinstance(a, PLeaf))
    merged = [m for m in merged if not m.is_true()]
    if not merged:
        return PTRUE
    if any(m.is_false() for m in merged):
        return PFALSE
    if len(merged) == 1:
        return merged[0]
    return PAnd(merged)


def _ref_p_or(*args):
    flat = _ref_absorb(_ref_flatten(POr, args), PAnd)
    if any(a.is_true() for a in flat):
        return PTRUE
    kept = [a for a in flat if not a.is_false()]
    if not kept:
        return PFALSE
    leaves = [a for a in kept if isinstance(a, PLeaf)]
    merged = [p_leaf(_ref_b_or(*(leaf.cond for leaf in leaves)))] if leaves else []
    merged.extend(a for a in kept if not isinstance(a, PLeaf))
    merged = [m for m in merged if not m.is_false()]
    if not merged:
        return PFALSE
    if any(m.is_true() for m in merged):
        return PTRUE
    if len(merged) == 1:
        return merged[0]
    return POr(merged)


#: a small pool so that duplicates, complements and shared parts are common
_X, _Y = sym("x"), sym("y")
_LEAVES = [
    TRUE,
    FALSE,
    gt0(_X),
    ge0(-_X),  # complement of x > 0
    gt0(_Y),
    eq0(_X - _Y),
    ne0(_X - _Y),
    divides(3, _X),
    b_not(divides(3, _X)),
]


@st.composite
def bools(draw, depth=2):
    """Leaves and nested and/or nodes; nodes are built both through the
    constructors under test and directly (unflattened, unabsorbed)."""
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return draw(st.sampled_from(_LEAVES))
    args = draw(st.lists(bools(depth=depth - 1), min_size=2, max_size=3))
    cls, make = draw(st.sampled_from([(AndB, b_and), (OrB, b_or)]))
    return cls(args) if draw(st.booleans()) else make(*args)


def _same(a, b):
    """Equal, and rendered alike (n-ary equality ignores operand order;
    plans must not)."""
    return a == b and repr(a) == repr(b)


@given(st.lists(bools(), min_size=1, max_size=4))
@settings(max_examples=400, deadline=None)
def test_b_and_b_or_match_the_full_pipeline(args):
    assert _same(b_and(*args), _ref_b_and(*args))
    assert _same(b_or(*args), _ref_b_or(*args))


@st.composite
def pdags(draw, depth=2):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return p_leaf(draw(bools(depth=1)))
    shape = draw(st.integers(0, 3))
    if shape == 0:
        return p_loop_and("x", 1, _Y, draw(pdags(depth=depth - 1)))
    if shape == 1:
        return p_call("f", draw(pdags(depth=depth - 1)))
    args = draw(st.lists(pdags(depth=depth - 1), min_size=2, max_size=3))
    cls, make = (PAnd, p_and) if shape == 2 else (POr, p_or)
    return cls(args) if draw(st.booleans()) else make(*args)


@given(st.lists(pdags(), min_size=1, max_size=4))
@settings(max_examples=400, deadline=None)
def test_p_and_p_or_match_the_full_pipeline(args):
    assert _same(p_and(*args), _ref_p_and(*args))
    assert _same(p_or(*args), _ref_p_or(*args))

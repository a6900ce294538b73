"""The runtime decision step's USR evaluators agree with the tree-walks.

Two evaluations of a USR run before a loop: the inspector's exact set
with its cost (:func:`repro.runtime.evaluate_usr_cost`, what
``Inspector.check_empty`` charges as ``inspector_overhead``) and
BOUNDS-COMP's min/max index bounds with the count of recurrence steps
(:func:`repro.usr.estimate_bounds`, ``bounds_overhead``).
``reference_usr_cost`` and ``reference_bounds`` below are those
evaluators as tree-walks -- one ``isinstance`` ladder each, a
``dict(env)`` copy per recurrence step -- kept here only, as the
independent reference.  Both must agree with the library on

* the set and its cost, the bounds and the step count;
* the exception, by type and text, whenever one is raised: an unbound
  symbol or array, a non-int binding, a zero stride with a positive span,
  a sequence indexed with two subscripts, an index past a sequence's end;
* callable arrays (called as often, with the same subscripts), negative
  strides and negative spans (the empty encoding).

USRs are drawn as JSON specs (``build``), so a shrunk counterexample can
be committed as a file under ``tests/regression/corpus/usr/`` and is
replayed by ``test_corpus_counterexamples_agree``.  Every runtime USR of
the plans ``tools/exec_digests.py`` pins is also replayed on the entry
environments its executes capture.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.lmad import LMAD
from repro.runtime import Inspector, evaluate_usr_cost
from repro.symbolic import (
    FALSE,
    TRUE,
    AndB,
    ArrayRef,
    NotB,
    OrB,
    as_expr,
    b_and,
    b_not,
    b_or,
    cmp_eq,
    cmp_ge,
    cmp_gt,
    cmp_ne,
    divides,
    floor_div,
    smax,
    smin,
    sym,
)
from repro.usr import (
    CallSite,
    Gate,
    Intersect,
    Leaf,
    Recurrence,
    Subtract,
    Union,
    bounds_overestimate,
    estimate_bounds,
)

CORPUS = Path(__file__).parents[1] / "regression" / "corpus" / "usr"


# -- the references: the runtime evaluators as tree-walks ---------------------


def reference_usr_cost(usr, env):
    """(set, cost): the inspector's exact evaluation, walking the tree."""
    if isinstance(usr, Leaf):
        out = set()
        for lmad in usr.lmads:
            out |= lmad.enumerate(env)
        return out, max(1, len(out))
    if isinstance(usr, Gate):
        if usr.cond.evaluate(env):
            inner, cost = reference_usr_cost(usr.body, env)
            return inner, cost + 1
        return set(), 1
    if isinstance(usr, Union):
        out = set()
        cost = 0
        for a in usr.args:
            part, c = reference_usr_cost(a, env)
            out |= part
            cost += c + len(part)
        return out, cost
    if isinstance(usr, Intersect):
        out, cost = reference_usr_cost(usr.args[0], env)
        for a in usr.args[1:]:
            part, c = reference_usr_cost(a, env)
            out &= part
            cost += c + len(part)
        return out, cost
    if isinstance(usr, Subtract):
        left, c1 = reference_usr_cost(usr.left, env)
        right, c2 = reference_usr_cost(usr.right, env)
        return left - right, c1 + c2 + len(right)
    if isinstance(usr, CallSite):
        inner, cost = reference_usr_cost(usr.body, env)
        return inner, cost + 1
    if isinstance(usr, Recurrence):
        lo = usr.lower.evaluate(env)
        hi = usr.upper.evaluate(env)
        out = set()
        cost = 0
        child = dict(env)
        for i in range(lo, hi + 1):
            child[usr.index] = i
            part, c = reference_usr_cost(usr.body, child)
            out |= part
            cost += c + 1
        return out, cost
    raise TypeError(f"unknown USR node {usr!r}")


def _merge(a, b):
    """Two (lower, upper, steps) results as one."""
    steps = a[2] + b[2]
    if a[0] is None:
        return b[0], b[1], steps
    if b[0] is None:
        return a[0], a[1], steps
    return min(a[0], b[0]), max(a[1], b[1]), steps


def _reference_leaf_bounds(leaf, env):
    lower = upper = None
    for lmad in leaf.lmads:
        base = lmad.base.evaluate(env)
        extent = 0
        empty = False
        for stride, span in zip(lmad.strides, lmad.spans):
            s = span.evaluate(env)
            if s < 0:
                empty = True
                break
            extent += s
            if stride.evaluate(env) < 0:
                base -= s
        if empty:
            continue
        lo, hi = base, base + extent
        lower = lo if lower is None else min(lower, lo)
        upper = hi if upper is None else max(upper, hi)
    return lower, upper, 0


def reference_bounds(usr, env):
    """(lower, upper, recurrence steps): BOUNDS-COMP, walking the tree."""
    if isinstance(usr, Leaf):
        return _reference_leaf_bounds(usr, env)
    if isinstance(usr, (Gate, Subtract, Intersect)):
        return reference_bounds(bounds_overestimate(usr), env)
    if isinstance(usr, Union):
        out = (None, None, 0)
        for a in usr.args:
            out = _merge(out, reference_bounds(a, env))
        return out
    if isinstance(usr, CallSite):
        return reference_bounds(usr.body, env)
    if isinstance(usr, Recurrence):
        lo = usr.lower.evaluate(env)
        hi = usr.upper.evaluate(env)
        out = (None, None, 0)
        child_env = dict(env)
        for i in range(lo, hi + 1):
            child_env[usr.index] = i
            out = _merge(out, reference_bounds(usr.body, child_env))
            out = (out[0], out[1], out[2] + 1)
        return out
    raise TypeError(f"unknown USR node {usr!r}")


def outcome(fn, *args):
    """What calling *fn* shows: its value, or its exception's type and text."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # compared, never swallowed
        return ("raise", type(exc).__name__, str(exc))


def library_bounds(usr, env):
    result = estimate_bounds(usr, env)
    return result.lower, result.upper, result.iterations


def assert_agree(usr, env):
    """The library's evaluators against the references on one input."""
    exact = outcome(reference_usr_cost, usr, env)
    assert outcome(evaluate_usr_cost, usr, env) == exact
    bounds = outcome(reference_bounds, usr, env)
    assert outcome(library_bounds, usr, env) == bounds
    inspector = Inspector()
    checked = outcome(inspector.check_empty, usr, env)
    if exact[0] == "value":
        assert checked[0] == "value", checked
        first = checked[1]
        assert (first.empty, first.cost, first.memoized) == (
            not exact[1][0], exact[1][1], False)
        again = inspector.check_empty(usr, env)
        assert (again.empty, again.cost, again.memoized) == (first.empty, 0, True)
        # the set reference agrees where both evaluate
        direct = outcome(usr.evaluate, env)
        if direct[0] == "value":
            assert direct[1] == exact[1][0]
    else:  # the memo key is built first, and hashes every binding drawn here
        assert checked == exact


# -- USRs and environments as JSON specs --------------------------------------

#: callable arrays of the environments, by name
CALLABLES = {
    "mod": lambda *idx: sum(idx) % 5 - 1,
    "half": lambda *idx: sum(idx) / 2,
    "first": lambda *idx: idx[0],
}


def build_expr(spec):
    if isinstance(spec, bool):
        raise TypeError("booleans are not expression specs")
    if isinstance(spec, int):
        return as_expr(spec)
    if isinstance(spec, str):
        return sym(spec)
    op, *args = spec
    if op == "+":
        return build_expr(args[0]) + build_expr(args[1])
    if op == "*":
        return build_expr(args[0]) * build_expr(args[1])
    if op == "ref":
        return ArrayRef(args[0], [build_expr(i) for i in args[1]]).as_expr()
    if op == "min":
        return smin(build_expr(args[0]), build_expr(args[1]))
    if op == "max":
        return smax(build_expr(args[0]), build_expr(args[1]))
    if op == "div":
        return floor_div(build_expr(args[0]), args[1])
    raise ValueError(f"bad expression spec {spec!r}")


_CMP = {"ge": cmp_ge, "gt": cmp_gt, "eq": cmp_eq, "ne": cmp_ne}


def build_bool(spec):
    if spec is True or spec is False:
        return TRUE if spec else FALSE
    op, *args = spec
    if op in _CMP:
        return _CMP[op](build_expr(args[0]), build_expr(args[1]))
    if op == "divides":
        return divides(args[0], build_expr(args[1]))
    if op == "not":
        return b_not(build_bool(args[0]))
    if op == "and":
        return b_and(*(build_bool(a) for a in args))
    if op == "or":
        return b_or(*(build_bool(a) for a in args))
    # the raw nodes, which the smart constructors may fold away
    if op == "NOT":
        return NotB(build_bool(args[0]))
    if op == "AND":
        return AndB([build_bool(a) for a in args])
    if op == "OR":
        return OrB([build_bool(a) for a in args])
    raise ValueError(f"bad boolean spec {spec!r}")


def build(spec):
    """The USR node tree *spec* describes (raw nodes, nothing folded)."""
    op, *args = spec
    if op == "leaf":
        return Leaf(
            LMAD([build_expr(d) for d in strides], [build_expr(s) for s in spans],
                 build_expr(base))
            for strides, spans, base in args[0]
        )
    if op == "gate":
        return Gate(build_bool(args[0]), build(args[1]))
    if op == "union":
        return Union(build(a) for a in args[0])
    if op == "intersect":
        return Intersect(build(a) for a in args[0])
    if op == "subtract":
        return Subtract(build(args[0]), build(args[1]))
    if op == "call":
        return CallSite("callee", build(args[0]))
    if op == "rec":
        index, lower, upper, body, partial = args
        return Recurrence(index, build_expr(lower), build_expr(upper), build(body),
                          partial=partial)
    raise ValueError(f"bad USR spec {spec!r}")


def build_env(spec):
    env = {}
    for name, value in spec.items():
        if isinstance(value, dict) and "callable" in value:
            value = CALLABLES[value["callable"]]
        elif isinstance(value, dict) and "tuple" in value:
            value = tuple(value["tuple"])
        env[name] = value
    return env


SYMBOLS = ("N", "M", "i", "j")
INDICES = ("i", "j")

small_ints = st.integers(-2, 4)

simple_exprs = st.one_of(small_ints, st.sampled_from(SYMBOLS))

exprs = st.recursive(
    simple_exprs,
    lambda inner: st.one_of(
        st.tuples(st.just("+"), inner, inner).map(list),
        st.tuples(st.just("*"), inner, small_ints).map(list),
        st.tuples(st.just("ref"), st.just("B"), st.lists(inner, min_size=1, max_size=1)).map(list),
        st.tuples(st.just("ref"), st.sampled_from(("C", "i")),
                  st.lists(inner, min_size=1, max_size=2)).map(list),
        st.tuples(st.sampled_from(("min", "max")), inner, inner).map(list),
        st.tuples(st.just("div"), inner, st.integers(1, 3)).map(list),
    ),
    max_leaves=4,
)

bools = st.recursive(
    st.one_of(
        st.booleans(),
        st.tuples(st.sampled_from(sorted(_CMP)), exprs, exprs).map(list),
        st.tuples(st.just("divides"), st.integers(1, 3), exprs).map(list),
    ),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(("not", "NOT")), inner).map(list),
        st.tuples(st.sampled_from(("and", "or", "AND", "OR")), inner, inner).map(list),
    ),
    max_leaves=3,
)



def lmads(strides):
    return st.integers(0, 2).flatmap(lambda dims: st.tuples(
        st.lists(strides, min_size=dims, max_size=dims),
        st.lists(st.one_of(st.integers(-1, 4), st.sampled_from(SYMBOLS),
                           st.tuples(st.just("+"), st.sampled_from(SYMBOLS),
                                     st.integers(-2, 1)).map(list)),
                 min_size=dims, max_size=dims),
        exprs,
    ).map(list))


def usrs(strides=st.one_of(st.integers(-2, 2), st.sampled_from(SYMBOLS))):
    return st.recursive(
        st.lists(lmads(strides), min_size=0, max_size=3).map(lambda ls: ["leaf", ls]),
        lambda inner: st.one_of(
            st.tuples(st.just("gate"), bools, inner).map(list),
            st.tuples(st.sampled_from(("union", "intersect")),
                      st.lists(inner, min_size=2, max_size=3)).map(list),
            st.tuples(st.just("subtract"), inner, inner).map(list),
            st.tuples(st.just("call"), inner).map(list),
            st.tuples(
                st.just("rec"), st.sampled_from(INDICES),
                st.one_of(st.integers(-1, 2), st.sampled_from(SYMBOLS)),
                st.one_of(st.integers(-1, 4), st.sampled_from(SYMBOLS),
                          st.tuples(st.just("+"), st.sampled_from(SYMBOLS),
                                    st.just(-1)).map(list),
                          st.tuples(st.just("ref"), st.just("B"),
                                    st.just([1])).map(list)),
                inner, st.booleans(),
            ).map(list),
        ),
        max_leaves=6,
    )


symbol_values = st.one_of(
    st.integers(-2, 5), st.integers(-2, 5), st.booleans(), st.none(),
    st.lists(st.integers(0, 3), max_size=2),
)
array_values = st.one_of(
    st.lists(st.integers(-3, 6), max_size=5),
    st.lists(st.integers(-3, 6), max_size=5).map(lambda v: {"tuple": v}),
    st.sampled_from(sorted(CALLABLES)).map(lambda n: {"callable": n}),
    st.integers(0, 3), st.none(),
)

envs = st.fixed_dictionaries(
    {},
    optional={
        "N": symbol_values, "M": symbol_values, "i": symbol_values,
        "j": symbol_values, "B": array_values, "C": array_values,
    },
)


@settings(max_examples=400, deadline=None)
@given(usrs(), envs)
def test_generated_evaluators_agree_with_the_tree_walks(spec, env_spec):
    assert_agree(build(spec), build_env(env_spec))


def bound_envs(least):
    return st.fixed_dictionaries({
        "N": st.integers(least, 5), "M": st.integers(least, 5),
        "i": st.integers(least, 3), "j": st.integers(least, 3),
        "B": st.lists(st.integers(-3, 6), min_size=6, max_size=6),
        "C": st.sampled_from(sorted(CALLABLES)).map(lambda n: {"callable": n}),
    })


@settings(max_examples=400, deadline=None)
@given(usrs(), bound_envs(-1))
def test_they_agree_where_every_name_is_bound(spec, env_spec):
    """Mostly-successful evaluations: the sets, costs and bounds
    themselves are compared, not only the first error."""
    assert_agree(build(spec), build_env(env_spec))


def assert_encloses(usr, env):
    exact = outcome(evaluate_usr_cost, usr, env)
    bounds = outcome(library_bounds, usr, env)
    if exact[0] == bounds[0] == "value" and exact[1][0]:
        lower, upper, _ = bounds[1]
        assert lower is not None
        assert lower <= min(exact[1][0]) and max(exact[1][0]) <= upper


@settings(max_examples=300, deadline=None)
@given(usrs(), bound_envs(-1))
def test_bounds_comp_encloses_the_exact_set(spec, env_spec):
    """BOUNDS-COMP overestimates: every index of the exact set lies in
    ``[lower, upper]``, whatever the strides' signs."""
    assert_encloses(build(spec), build_env(env_spec))


def test_a_negative_stride_stays_inside_bounds_comp():
    # [-1]v[1]+0 is {-1, 0}: the base moves down by the span and the
    # extent keeps it
    assert_encloses(build(["leaf", [[[-1], [1], 0]]]), {})


def test_the_strategies_reach_every_outcome():
    """The drawn inputs produce values and each of the guarded errors
    (a gate the generator never reaches would test nothing)."""
    seen = set()
    cases = [
        (["leaf", [[[], [], "N"]]], {}),
        (["leaf", [[[], [], "N"]]], {"N": [1]}),
        (["leaf", [[[0], [2], 1]]], {}),
        (["leaf", [[[], [], ["ref", "C", [1, 2]]]]], {"C": [1, 2]}),
        (["leaf", [[[], [], ["ref", "B", [1]]]]], {}),
        (["leaf", [[[], [], ["ref", "B", [9]]]]], {"B": [1]}),
        (["leaf", [[[-2], [3], ["ref", "B", [0]]]]], {"B": {"callable": "half"}}),
        (["leaf", [[[1], [-1], 0]]], {}),
    ]
    for spec, env in cases:
        got = outcome(evaluate_usr_cost, build(spec), build_env(env))
        seen.add(got[0] if got[0] == "value" else got[1])
        assert_agree(build(spec), build_env(env))
    assert seen == {"value", "KeyError", "TypeError", "ValueError", "IndexError"}


def test_callable_arrays_are_called_alike():
    """The same calls, with the same subscripts, in the same order."""
    spec = ["rec", "i", 1, 3, ["union", [
        ["leaf", [[[], [], ["ref", "C", ["i", 2]]]]],
        ["gate", ["ge", ["ref", "C", ["i"]], 1], ["leaf", [[[1], [2], "i"]]]],
    ]], False]
    for evaluate in (reference_usr_cost, evaluate_usr_cost,
                     reference_bounds, library_bounds):
        calls = []
        env = {"C": lambda *idx: calls.append(idx) or sum(idx)}
        evaluate(build(spec), env)
        if evaluate in (reference_usr_cost, evaluate_usr_cost):
            assert calls == [(1, 2), (1,), (2, 2), (2,), (3, 2), (3,)]
        else:  # BOUNDS-COMP drops the gate, so never evaluates its condition
            assert calls == [(1, 2), (2, 2), (3, 2)]


def test_corpus_counterexamples_agree():
    """Every committed counterexample (``{"usr": spec, "env": spec}``)
    stays fixed."""
    for path in sorted(CORPUS.glob("*.json")):
        doc = json.loads(path.read_text())
        assert_agree(build(doc["usr"]), build_env(doc["env"]))


# -- the runtime USRs of the pinned plans -------------------------------------


def _digest_tools():
    """``tools/exec_digests.py``, importable (it reads ``bench/``'s loaders)."""
    import sys

    root = Path(__file__).parents[2]
    for path in (root / "tools", root / "bench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import exec_digests

    return exec_digests


def _pinned_runtime_usrs():
    """(name, mode, USR, entry environments) for every runtime USR of the
    plans ``tools/exec_digests.py`` pins."""
    from repro.runtime.executor import HybridExecutor

    tools = _digest_tools()
    out = []
    for item, compiled, plan in tools.distinct_plans(tools.pinned()):
        usrs = list(tools.runtime_usrs(plan))
        if not usrs:
            continue
        try:
            entries, _ = HybridExecutor(compiled.program, plan)._capture(
                item.params, item.arrays)
        except Exception:  # the execute itself fails: nothing reaches the USRs
            continue
        envs = [entry.env(plan) for entry in entries]
        out += [(f"{item.name}/{array}", mode, usr, envs)
                for array, mode, usr in usrs]
    return out


def test_every_pinned_runtime_usr_agrees_on_its_entry_environments():
    pinned = _pinned_runtime_usrs()
    modes = [mode for _, mode, _, _ in pinned]
    # 32 exact-test USRs and 18 BOUNDS-COMP summaries across 131 plans
    assert modes.count("inspect") >= 30 and modes.count("bounds") >= 15
    for name, mode, usr, envs in pinned:
        for env in envs:
            if mode == "inspect":
                assert outcome(evaluate_usr_cost, usr, env) == outcome(
                    reference_usr_cost, usr, env), name
            assert outcome(library_bounds, usr, env) == outcome(
                reference_bounds, usr, env), name


# -- BOUNDS-COMP is sound on the loops that run it -----------------------------


def _bounds_comp_cases(quick=True):
    """(name, array, bounds, touched locations) per entry of every pinned
    plan with ``needs_bounds_comp`` (and, with ``quick=False``, of the
    bench-size kernels): the locations come from the loop's
    ``Machine.trace_loop`` records (writes and exposed reads)."""
    from repro.runtime.executor import HybridExecutor

    tools = _digest_tools()
    from benchinputs import kernel_items

    every = tools.pinned() if quick else kernel_items(0)
    for item, compiled, plan in tools.distinct_plans(every):
        bounded = [(array, usr) for array, mode, usr in tools.runtime_usrs(plan)
                   if mode == "bounds"]
        if not bounded:
            continue
        entries, _ = HybridExecutor(compiled.program, plan)._capture(
            item.params, item.arrays, recording=True)
        for array, usr in bounded:
            for entry in entries:
                touched = set()
                for record in entry.records:
                    touched |= record.writes.get(array, set())
                    touched |= record.exposed_reads.get(array, set())
                yield item.name, array, estimate_bounds(usr, entry.env(plan)), touched


@pytest.mark.parametrize("quick", [True, False], ids=["pinned-plans", "bench-kernels"])
def test_bounds_comp_encloses_every_location_the_loop_touched(quick):
    checked = 0
    for name, array, bounds, touched in _bounds_comp_cases(quick):
        if touched:
            assert not bounds.is_empty(), (name, array)
            assert bounds.lower <= min(touched) and max(touched) <= bounds.upper, (
                name, array, bounds, min(touched), max(touched))
            checked += 1
    assert checked >= (10 if quick else 1)

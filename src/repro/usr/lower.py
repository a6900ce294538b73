"""Lower the runtime decision step's USR evaluations to Python source.

Two evaluations of a USR run before a loop (Section 5's generated code):

* ``"inspect"`` -- the inspector's exact set and its cost: ``run(E)``
  returns ``(set, cost)``, the cost counting every element of every
  intermediate set (the O(accesses) behaviour the paper's predicates
  exist to avoid).  ``Inspector.check_empty`` charges it as
  ``inspector_overhead``.
* ``"bounds"`` -- BOUNDS-COMP (Section 4): the smallest and largest
  index of the *overestimated* summary and the number of recurrence
  steps it took, ``run(E)`` returning ``(lower, upper, steps)``
  (``lower``/``upper`` ``None`` when the summary is empty).  Gates,
  subtrahends and all but one intersection operand are dropped
  (:func:`~repro.usr.bounds.bounds_overestimate`) when the code is
  written, so the MIN/MAX loop of Fig. 7(a) is all that runs.

``E`` is the runtime environment.  Every recurrence is a ``for`` over a
local, with no environment copy per step; a symbol bound by an enclosing
recurrence reads that local, any other name is fetched from ``E`` once,
on entry, and checked where it is used (``(e0 if type(e0) is int else
sym(e0, 'N'))``).  The code keeps every check the tree-walks made: the
same sets, bounds, costs and step counts, evaluation in the same order,
and the same exception, by type and text, where one was raised (an
unbound symbol or array, a non-int binding, a zero stride with a
positive span, a sequence indexed with two subscripts).  Callable
arrays are called as often, with the same subscripts.

Expressions (:meth:`_UsrEmitter.expr`) and predicates
(:meth:`_UsrEmitter.cond`) are lowered once, for both modes.  The text
is written with :class:`~repro.ir.lower.Emitter`'s plumbing, from tuples
in the USR's order, so it is the same under every hash seed.  A node
nested deeper than ``_MAX_DEPTH`` blocks calls a unit of its own
(``K[n]``) with the enclosing recurrences' indices bound in a copy of
``E``; so does a subtree of ``_UNIT_NODES`` or more outside every
recurrence, compiled once however often the USR (a DAG the walk
expanded into a tree) repeats it.  Every occurrence is still evaluated.

:func:`kept_unit` keeps a unit in a caller's table -- the executor's
``Program._lowered`` -- so a plan's units are generated on its first
execute and never again; nothing process-wide holds them.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .. import profiling as _profiling
from ..ir.lower import Emitter, Lowered
from ..symbolic import AndB, ArrayRef, BFalse, BTrue, Cmp, Divides, FloorDiv, Max, Min, NotB, OrB, Sym
from .bounds import bounds_overestimate
from .nodes import CallSite, Gate, Intersect, Leaf, Recurrence, Subtract, Union, USR

__all__ = ["MODES", "compile_usr", "kept_unit", "lower_usr"]

#: what a unit computes: the exact set and its cost, or BOUNDS-COMP
MODES = ("inspect", "bounds")

#: deepest block nesting a unit is written at; a node below it becomes a
#: unit of its own (CPython refuses 100 indentation levels)
_MAX_DEPTH = 10

#: a node of at least this many tree nodes, outside every recurrence,
#: becomes a unit of its own, written once however often the (DAG-shaped)
#: USR repeats it: the exact-test USRs repeat most of their subtrees, so
#: their text, and the memory compiling it takes, shrink several-fold
_UNIT_NODES = 12

#: a one-subscript array read whose subscript's source is longer than
#: this calls ``aref`` instead of testing for a list inline (the inline
#: form writes the subscript twice)
_INLINE_INDEX = 80


class _Unset:
    __slots__ = ()

    def __repr__(self) -> str:
        return "UNSET"


#: an environment name that is not bound
UNSET = _Unset()


def sym(value, name: str) -> int:
    """The value of symbol *name*, bound to *value*, which is not an
    ``int`` exactly: ``Sym.evaluate``'s checks."""
    if value is UNSET:
        raise KeyError(f"unbound symbol {name!r}")
    if not isinstance(value, int):
        raise TypeError(f"symbol {name!r} bound to non-int {value!r}")
    return int(value)  # a bool's value, as the walk's products made it


def aref(array, name: str, idx: tuple) -> int:
    """``ArrayRef.evaluate`` once its subscripts *idx* are known, *array*
    being what *name* is bound to."""
    if array is UNSET:
        raise KeyError(f"unbound array {name!r}")
    if callable(array):
        return int(array(*idx))
    if len(idx) != 1:
        raise TypeError(
            f"array {name!r} bound to a sequence but indexed "
            f"with {len(idx)} subscripts"
        )
    return int(array[idx[0] - 1])


def points(base: int, dims: tuple) -> set:
    """``LMAD.enumerate`` once every ``(stride, span)`` pair is known and
    checked (no negative span, no zero stride with a positive span)."""
    walk = []
    for dv, sv in dims:
        if dv == 0:
            continue
        if dv < 0:
            count = sv // (-dv) + 1
            base -= (count - 1) * (-dv)
            dv, sv = -dv, (count - 1) * (-dv)
        walk.append((dv, sv))
    if len(walk) == 1:
        dv, sv = walk[0]
        return set(range(base, base + (sv // dv) * dv + 1, dv))
    out = {base}
    for dv, sv in walk:
        count = sv // dv + 1
        out = {x + i * dv for x in out for i in range(count)}
    return out


_GLOBALS = {"UNSET": UNSET, "sym": sym, "aref": aref, "points": points}


class _Part(NamedTuple):
    """An evaluated node of an ``"inspect"`` unit: its set (a variable
    name, or ``None`` when the node is the single point ``point``) and
    its cost, ``cost_var`` (a variable name or ``None``) plus
    ``cost_const``."""

    set: Optional[str]
    point: Optional[str]
    cost_var: Optional[str]
    cost_const: int

    def as_set(self) -> str:
        return self.set if self.point is None else f"{{{self.point}}}"


def _plus(*terms) -> str:
    """The source of a sum of *terms* (sources, ints; ``None`` skipped)."""
    const = sum(t for t in terms if isinstance(t, int))
    parts = [t for t in terms if isinstance(t, str)]
    if const or not parts:
        parts.append(repr(const))
    return " + ".join(parts)


class _UsrEmitter(Emitter):
    def __init__(self, root: USR, mode: str, units: dict):
        super().__init__("E")
        self.root = root
        self.mode = mode
        self.units = units  # id(node) -> (node, its unit, its source), shared by nested emitters
        self.names: list = []  # environment names, in order of first use
        self.scope: dict = {}  # recurrence index -> its loop's local

    # -- names ---------------------------------------------------------------
    def binding(self, name: str) -> tuple:
        """(local holding what *name* is bound to, is it a recurrence index)."""
        if name in self.scope:
            return self.scope[name], True
        if name not in self.names:
            self.names.append(name)
        return f"e{self.names.index(name)}", False

    def unit(self, node: USR) -> Optional[str]:
        """``K[n]``, *node*'s own unit, when *node* is written as a call
        to one: too deep to write inline, or large and outside every
        recurrence; else ``None``."""
        if self.indent <= _MAX_DEPTH and (
            self.scope or node is self.root or node.node_count() < _UNIT_NODES
        ):
            return None
        entry = self.units.get(id(node))
        if entry is None:
            entry = self.units[id(node)] = (node,) + _compile(node, self.mode, self.units)
        return self.const(entry[1])

    def env(self) -> str:
        """``E`` with the enclosing recurrences' indices bound, as the
        walk's ``dict(env)`` child environments were."""
        if not self.scope:
            return "E"
        inner = ", ".join(f"{name!r}: {local}" for name, local in self.scope.items())
        return f"{{**E, {inner}}}"

    # -- expressions and predicates ----------------------------------------
    def expr(self, expr) -> str:
        """*expr* (an :class:`~repro.symbolic.Expr`) as an inline source,
        its atoms evaluated in the order ``Expr.evaluate`` does."""
        terms = []
        for mono, coeff in expr.terms:
            factors = [
                self.atom(atom) + (f" ** {power}" if power != 1 else "")
                for atom, power in mono
            ]
            if coeff != 1 or not factors:
                factors.insert(0, repr(coeff))
            terms.append(" * ".join(factors))
        if not terms:
            return "0"
        return terms[0] if len(terms) == 1 else "(" + " + ".join(terms) + ")"

    def atom(self, atom) -> str:
        kind = type(atom)
        if kind is Sym:
            local, index = self.binding(atom.name)
            if index:
                return local
            return f"({local} if type({local}) is int else sym({local}, {atom.name!r}))"
        if kind is ArrayRef:
            local, _ = self.binding(atom.array)
            idx = [self.expr(i) for i in atom.indices]
            if len(idx) == 1 and len(idx[0]) <= _INLINE_INDEX:
                return (f"(int({local}[{idx[0]} - 1]) if type({local}) is list "
                        f"else aref({local}, {atom.array!r}, ({idx[0]},)))")
            inside = "".join(f"{i}, " for i in idx)
            return f"aref({local}, {atom.array!r}, ({inside}))"
        if kind is Min or kind is Max:
            return f"{kind._pick.__name__}({', '.join(self.expr(a) for a in atom.args)})"
        if kind is FloorDiv:
            return f"({self.expr(atom.num)} // {atom.den})"
        return f"{self.const(atom)}.evaluate({self.env()})"

    def cond(self, pred) -> str:
        """*pred* (a :class:`~repro.symbolic.BoolExpr`) as an inline
        condition, short-circuiting as ``evaluate`` does."""
        kind = type(pred)
        if kind is BTrue or kind is BFalse:
            return repr(kind is BTrue)
        if kind is Cmp:
            return f"({self.expr(pred.expr)} {pred.op} 0)"
        if kind is Divides:
            return f"({self.expr(pred.expr)} % {pred.k} == 0)"
        if kind is NotB:
            return f"(not {self.cond(pred.arg)})"
        if kind is AndB or kind is OrB:
            word = " and " if kind is AndB else " or "
            return "(" + word.join(self.cond(a) for a in pred.args) + ")"
        return f"{self.const(pred)}.evaluate({self.env()})"

    # -- LMAD dimensions -------------------------------------------------------
    def dims(self, lmad, inner: Callable) -> None:
        """Evaluate *lmad*'s base and dimensions as ``LMAD.enumerate``
        (``"inspect"``: stride, then span) or BOUNDS-COMP (span, then
        stride) does, each dimension under ``if span >= 0`` (a negative
        span leaves the rest unevaluated), then call *inner* with the
        base's temporary and the dimensions' ``(stride, span)``
        temporaries.  Restores the indentation."""
        indent = self.indent
        base = self.pin(self.expr(lmad.base))
        pairs = []
        for stride, span in zip(lmad.strides, lmad.spans):
            if self.mode == "inspect":
                d, s = self.pin(self.expr(stride)), self.pin(self.expr(span))
            else:
                d, s = None, self.pin(self.expr(span))
            if span.is_constant():
                if span.constant_value() < 0:
                    self.indent = indent
                    return
            else:
                self.emit(f"if {s} >= 0:")
                self.indent += 1
            if self.mode == "inspect":
                self.zero_stride(lmad, stride, span, d, s)
            else:
                d = self.pin(self.expr(stride))
            pairs.append((d, s, stride))
        inner(base, pairs)
        self.indent = indent

    def zero_stride(self, lmad, stride, span, d: str, s: str) -> None:
        text = f"zero stride with positive span in {lmad!r}"
        if stride.is_constant() and stride.constant_value() != 0:
            return
        if span.is_constant() and span.constant_value() == 0:
            return
        checks = [f"{d} == 0"] * (not stride.is_constant())
        checks += [s] * (not span.is_constant())
        if checks:
            self.emit(f"if {' and '.join(checks)}: raise ValueError({text!r})")
        else:
            self.emit(f"raise ValueError({text!r})")

    # -- "inspect": the exact set and its cost -----------------------------
    def exact(self, node: USR) -> _Part:
        unit = self.unit(node)
        if unit is not None:
            s, c = self.temp(), self.temp()
            self.emit(f"{s}, {c} = {unit}({self.env()})")
            return _Part(s, None, c, 0)
        kind = type(node)
        if kind is Leaf:
            return self.exact_leaf(node)
        if kind is Gate:
            s, c = self.temp(), self.temp()
            self.emit(f"if {self.cond(node.cond)}:")
            self.indent += 1
            body = self.exact(node.body)
            self.emit(f"{s} = {body.as_set()}")
            self.emit(f"{c} = {_plus(body.cost_var, body.cost_const + 1)}")
            self.indent -= 1
            self.emit("else:")
            self.emit(f"    {s} = set(); {c} = 1")
            return _Part(s, None, c, 0)
        if kind is Union:
            return self.exact_union(node.args)
        if kind is Intersect:
            return self.exact_intersect(node.args)
        if kind is Subtract:
            left = self.exact(node.left)
            right = self.exact(node.right)
            s = self.pin(f"{left.as_set()} - {right.as_set()}")
            size = 1 if right.point is not None else f"len({right.set})"
            return self.part(s, left.cost_var, right.cost_var, size,
                             left.cost_const, right.cost_const)
        if kind is CallSite:
            body = self.exact(node.body)
            return body._replace(cost_const=body.cost_const + 1)
        if kind is Recurrence:
            return self.exact_recurrence(node)
        self.emit(f"raise TypeError({f'unknown USR node {node!r}'!r})")
        return _Part(self.pin("set()"), None, None, 0)

    def part(self, s: str, *terms) -> _Part:
        """A node's part: set *s*, cost the sum of *terms* (sources and
        ints, ``None`` skipped) -- the sources added up here, now."""
        const = sum(t for t in terms if isinstance(t, int))
        dynamic = [t for t in terms if isinstance(t, str)]
        if not dynamic:
            return _Part(s, None, None, const)
        return _Part(s, None, self.pin(" + ".join(dynamic)), const)

    def exact_leaf(self, leaf: Leaf) -> _Part:
        if not leaf.lmads:
            return _Part(self.pin("set()"), None, None, 1)
        if all(not lmad.strides for lmad in leaf.lmads):
            values = [self.expr(lmad.base) for lmad in leaf.lmads]
            if len(values) == 1:
                return _Part(None, self.pin(values[0]), None, 1)
            s = self.pin("{" + ", ".join(values) + "}")
            return _Part(s, None, self.pin(f"len({s})"), 0)
        s = self.pin("set()")
        for lmad in leaf.lmads:
            if not lmad.strides:
                self.emit(f"{s}.add({self.expr(lmad.base)})")
                continue
            self.dims(lmad, lambda base, pairs: self.emit(
                f"{s} |= points({base}, ({''.join(f'({d}, {p}), ' for d, p, _ in pairs)}))"
            ))
        return _Part(s, None, self.pin(f"len({s}) or 1"), 0)

    def exact_union(self, args) -> _Part:
        s = None
        cost, const = None, 0
        for arg in args:
            part = self.exact(arg)
            const += part.cost_const
            if part.point is not None:
                const += 1
                if s is None:
                    s = self.pin(f"{{{part.point}}}")
                else:
                    self.emit(f"{s}.add({part.point})")
                continue
            added = _plus(part.cost_var, f"len({part.set})")
            if cost is None:
                cost = self.pin(added)
            else:
                self.emit(f"{cost} += {added}")
            if s is None:
                s = part.set  # a node's set is its parent's to keep
            else:
                self.emit(f"{s} |= {part.set}")
        return _Part(s, None, cost, const)

    def exact_intersect(self, args) -> _Part:
        first = self.exact(args[0])
        s = first.set if first.point is None else self.pin(first.as_set())
        cost, const = first.cost_var, first.cost_const
        for arg in args[1:]:
            part = self.exact(arg)
            self.emit(f"{s} &= {part.as_set()}")
            const += part.cost_const
            if part.point is not None:
                const += 1
                continue
            added = _plus(part.cost_var, f"len({part.set})")
            if cost is None:
                cost = self.pin(added)
            else:
                self.emit(f"{cost} += {added}")
        return _Part(s, None, cost, const)

    def exact_recurrence(self, node: Recurrence) -> _Part:
        steps = self.pin(f"range({self.expr(node.lower)}, {self.expr(node.upper)} + 1)")
        s, cost = self.pin("set()"), self.temp()
        bodies = []

        def consume(body: _Part) -> None:
            bodies.append(body)
            if body.point is not None:
                self.emit(f"{s}.add({body.point})")
                return
            self.emit(f"{s} |= {body.set}")
            if body.cost_var is not None:
                self.emit(f"{cost} += {body.cost_var}")

        mark = len(self.lines)
        self.loop(node, steps, consume)
        per_step = bodies[0].cost_const + 1  # the body's constant cost, and the step's
        if bodies[0].cost_var is None:
            self.emit(f"{cost} = {per_step} * len({steps})")
        else:
            self.lines.insert(mark, (self.indent, f"{cost} = 0"))
            self.emit(f"{cost} += {per_step} * len({steps})")
        return _Part(s, None, cost, 0)

    def loop(self, node: Recurrence, steps: str, consume: Optional[Callable] = None) -> None:
        """``for <local> in <steps>:`` with *node*'s index bound to the
        local and its body inside, in ``"inspect"`` mode handed to
        *consume* (which writes what the step does with it)."""
        local = self.temp()
        self.emit(f"for {local} in {steps}:")
        self.indent += 1
        outer = self.scope.get(node.index)
        self.scope[node.index] = local
        if self.mode == "inspect":
            consume(self.exact(node.body))
        else:
            self.bounds(node.body)
        self.indent -= 1
        if outer is None:
            del self.scope[node.index]
        else:
            self.scope[node.index] = outer

    # -- "bounds": BOUNDS-COMP ------------------------------------------------
    def bounds(self, node: USR) -> None:
        """Fold the overestimated *node*'s bounds into ``L``/``H`` and its
        recurrence steps into ``n``."""
        unit = self.unit(node)
        if unit is not None:
            lo, hi, steps = self.temp(), self.temp(), self.temp()
            self.emit(f"{lo}, {hi}, {steps} = {unit}({self.env()})")
            self.emit(f"n += {steps}")
            self.emit(f"if {lo} is not None:")
            self.indent += 1
            self.widen(lo, hi)
            self.indent -= 1
            return
        kind = type(node)
        if kind is Leaf:
            for lmad in node.lmads:
                if lmad.strides:
                    self.dims(lmad, self.bounds_dims)
                else:
                    self.widen(self.pin(self.expr(lmad.base)))
        elif kind is Gate or kind is Subtract or kind is Intersect:
            self.bounds(bounds_overestimate(node))
        elif kind is Union:
            for arg in node.args:
                self.bounds(arg)
        elif kind is CallSite:
            self.bounds(node.body)
        elif kind is Recurrence:
            steps = self.pin(f"range({self.expr(node.lower)}, {self.expr(node.upper)} + 1)")
            self.emit(f"n += len({steps})")
            mark = len(self.lines)
            self.loop(node, steps)
            if len(self.lines) == mark + 1:  # a body with nothing to do
                self.lines.pop()
        else:
            self.emit(f"raise TypeError({f'unknown USR node {node!r}'!r})")

    def bounds_dims(self, base: str, pairs: list) -> None:
        """Widen by the LMAD whose checked dimensions are *pairs*: each
        dimension extends it by its span, upward for a non-negative
        stride and downward (moving its base) for a negative one."""
        for d, s, stride in pairs:
            if not stride.is_constant():
                self.emit(f"if {d} < 0: {base} -= {s}")
            elif stride.constant_value() < 0:
                self.emit(f"{base} -= {s}")
        self.widen(base, self.pin(f"{base} + {' + '.join(s for _, s, _ in pairs)}"))

    def widen(self, lo: str, hi: Optional[str] = None) -> None:
        """``L``/``H`` widened to take in ``[lo, hi]`` (``hi`` defaults to
        ``lo``: a single point)."""
        if hi is None:
            self.emit(f"if L is None: L = H = {lo}")
            self.emit(f"elif {lo} < L: L = {lo}")
            self.emit(f"elif {lo} > H: H = {lo}")
            return
        self.emit(f"if L is None: L = {lo}; H = {hi}")
        self.emit("else:")
        self.emit(f"    if {lo} < L: L = {lo}")
        self.emit(f"    if {hi} > H: H = {hi}")


def lower_usr(usr: USR, mode: str, units: Optional[dict] = None) -> Lowered:
    """*usr*'s evaluation in *mode* (one of :data:`MODES`) as the source
    of ``def run(E)``.  The units it calls (``K``) are compiled here and
    entered in *units* as ``id(node) -> (node, run, source)``, in the
    order they are first called."""
    if mode not in MODES:
        raise ValueError(f"unknown USR unit mode {mode!r}")
    emitter = _UsrEmitter(usr, mode, {} if units is None else units)
    if mode == "inspect":
        part = emitter.exact(usr)
        emitter.emit(f"return {part.as_set()}, {_plus(part.cost_var, part.cost_const)}")
        head = []
    else:
        emitter.bounds(usr)
        emitter.emit("return L, H, n")
        head = ["L = H = None", "n = 0"]
    head += [f"e{k} = E.get({name!r}, UNSET)" for k, name in enumerate(emitter.names)]
    return Lowered(emitter.source(head), tuple(emitter.consts), None)


def compile_usr(usr: USR, mode: str) -> Callable:
    """*usr*'s unit in *mode*, compiled: ``run(E)``.  An ``"inspect"``
    unit carries ``names``, the USR's free symbols sorted (what the
    inspector's memo keys on)."""
    run = _compile(usr, mode, {})[0]
    if mode == "inspect":
        run.names = tuple(sorted(usr.free_symbols()))
    return run


@_profiling.timed("usr.lower")
def _compile(usr: USR, mode: str, units: dict) -> tuple:
    """(``run``, its source)."""
    lowered = lower_usr(usr, mode, units)
    namespace = dict(_GLOBALS, K=lowered.consts)
    exec(compile(lowered.source, "<usr-lowered>", "exec"), namespace)
    return namespace["run"], lowered.source


def kept_unit(table: dict, owner, mode: str, build: Callable[[], USR]) -> Callable:
    """The unit of the USR *build()* makes, in *mode*, kept in *table*
    under *owner*'s identity: built and compiled on first use only.
    Threads racing to a first use may each compile it -- the results
    are interchangeable and the last one stored stays."""
    key = (id(owner), mode)
    entry = table.get(key)
    if entry is None:
        # the entry holds *owner*, so its id cannot be reused meanwhile
        entry = table[key] = (owner, compile_usr(build(), mode))
    return entry[1]

"""Lower IR bodies, loops and expressions to Python source.

:func:`lower` turns one *unit* into the text of a function ``run`` that
does to machine ``m`` in frame ``f`` what walking the tree would: the
same values, per-statement work counts and access records, the same
errors with the same texts at the same point of the run.  Three kinds:

* a statement tuple (``Program.main``, a subroutine's body, a body past
  ``_MAX_DEPTH``) -- ``run(m, f)``;
* a single expression (an array extent, a labelled loop's bound or
  condition, a call argument) -- ``run(m, f)`` returning its value;
* a labelled ``do``/``while`` -- the **loop unit**, ``run(m, f, values,
  fresh, costs, civs)``: the body inline, once per value handed, with
  arrays and scalars bound once (:meth:`_Emitter.loop_unit`).

:class:`~repro.ir.interp.Machine` compiles and caches that text; this
module only writes it, from tuples and lists in program order, so it is
the same under every hash seed.

* A statement is ``w += 1`` and its effect; ``w`` is flushed into
  ``m.work`` (and the record's) before control leaves the function and
  in a ``finally``, so the counts are right wherever an error lands.
* Scalars live in ``f.scalars`` and are mirrored in locals ``v<k>``
  (loaded on entry, written through on assignment).  Arrays are bound on
  entry to ``a<k>`` (base name), ``o<k>`` (offset), ``d<k>`` (the list)
  and ``n<k>`` (its length); an unbound array binds to length 0, so any
  access fails its bounds check and ``bad_access`` words the error.
* Array reads, ``/``, ``%`` and a short-circuit whose right side needs
  statements become statements over temporaries ``t<k>``; the rest is
  one inline expression, which Python evaluates left to right as the
  tree-walker did.  Order needs care only where a statement would
  overtake an inline operand that can still raise:
  :meth:`_Emitter.sequence` pins that operand first.
* Unlabelled ``do``/``while``/``if`` nest in place.  Labelled loops and
  calls go back to the machine (``m._exec_loop`` / ``m._exec_call``, the
  statement handed over as ``K[n]``), where the loop hook, tracing and
  the loop bookkeeping live, and bodies nested deeper than
  ``_MAX_DEPTH`` through ``m._exec_body``.  What such a call may have
  replaced -- ``m.arrays`` by a hook, scalars by a body sharing the
  frame -- is bound again right after it.

With *recording* the code also keeps ``m._active_record`` (``R``: work,
writes, reduction updates, exposed reads).  With *marking* it keeps
instead the LRPD shadow marks of ``m._shadows`` (``M``, a
:class:`~repro.ir.interp.Shadows`): per base array a dict ``st<k>``
(bound with the array; ``None`` for an array exempt from marking) from
location to a stamp ``X + s``, ``X`` the iteration being marked (a
multiple of 4, rising) and ``s`` what it did: 0 expose-read, 1
expose-read after another iteration did, 2 wrote, 3 expose-read then
wrote.  A read of a location another iteration wrote (flow) and a write
of a location another iteration expose-read (anti) raise ``Conflict``
before the value is read or the location written; a location written by
two iterations only joins ``M.rewritten``; every iteration's first write
of a location and first exposed read of it counts one in ``T``, flushed
into ``M.traced`` like ``w``.  The loop unit entered while no iteration
is marked (``M.it`` is ``None``) stamps its own iterations; a unit it
reaches -- a labelled loop, a call, an expression -- stamps with the
``X`` it finds.  The machine picks the variant by whether marks, else
a record, are active when the unit is entered.  The text expects in its
globals ``K`` (:attr:`Lowered.consts`), ``InterpError``, ``UNSET`` (no
such scalar in the frame), ``NOBIND`` (``(None, 0)``), ``unbound(m,
name)``, ``bad_access(m, f, array, loc)`` and ``fuel()``; marking code
also ``Conflict``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .ast import (
    BOOL_OPS,
    COMPARISONS,
    ArrayRead,
    AssignArray,
    AssignScalar,
    BinOp,
    Call,
    Do,
    If,
    Intrinsic,
    IRExpr,
    IRStmt,
    Num,
    UnaryOp,
    Var,
    While,
)

__all__ = ["BINOP_SOURCE", "Emitter", "Lowered", "lower"]

#: IR operator -> the Python operator it is written as (comparisons are
#: wrapped to 0/1 where a value is wanted; ``and``/``or`` short-circuit
#: in :meth:`_Emitter.short_circuit`)
BINOP_SOURCE = {
    "+": "+", "-": "-", "*": "*", "/": "//", "%": "%",
    "==": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
}
_BY_ZERO = {"/": "division by zero", "%": "modulo by zero"}
_INTRINSICS = ("min", "max")

#: an inline expression longer than this is pinned to a temporary, which
#: bounds line length and parenthesis nesting for any input tree
_INLINE_MAX = 200
#: deepest indentation nested bodies are written at (CPython refuses
#: more than 20 nested loops and 100 indentation levels)
_MAX_DEPTH = 12

# placeholders for the re-binding lines, which are only known once the
# whole unit has been walked
_ARRAYS, _SCALARS = "<arrays>", "<scalars>"


class Lowered(NamedTuple):
    """One unit as Python source."""

    #: the text of ``def run(m, f)`` (a loop unit's takes more)
    source: str
    #: IR nodes the text hands back to the machine, as ``K[n]``
    consts: tuple
    #: the arrays the text assigns, by their names in the frame: all the
    #: unit can write -- or ``None`` when it hands something back
    #: (``consts``), and what it can write is more than its text shows
    assigns: Optional[tuple]


def lower(
    node: Union[tuple, IRStmt, IRExpr], recording: bool, marking: bool = False
) -> Lowered:
    """*node* -- a statement tuple, a labelled loop or an expression --
    as source; with *recording* the code keeps the machine's active
    iteration record, with *marking* its LRPD shadow marks."""
    emitter = _Emitter(recording, marking)
    counting = not isinstance(node, IRExpr)
    if isinstance(node, (Do, While)):
        emitter.loop_unit(node)
    elif counting:
        emitter.indent = 2  # inside ``def`` and ``try``
        for stmt in node:
            emitter.statement(stmt)
    else:
        value = emitter.value(node)[0]
        if marking:
            value = emitter.pin(value)
            emitter.emit("M.traced += T")
        emitter.emit(f"return {value}")
    assigns = None if emitter.consts else tuple(emitter.assigns)
    return Lowered(emitter.source(counting), tuple(emitter.consts), assigns)


class Emitter:
    """The plumbing of a code generator: lines of ``def run(<params>)``
    at an indentation, fresh temporaries ``t<k>``, and the objects the
    text refers to as ``K[n]``.  :class:`_Emitter` writes IR units with
    it, :mod:`repro.usr.lower` the runtime decision step's USR units."""

    def __init__(self, params: str):
        self.params = params  # of the function written
        self.lines: list = []  # (indent, text or placeholder)
        self.indent = 1
        self.temps = 0
        self.consts: list = []

    def emit(self, text: str) -> None:
        self.lines.append((self.indent, text))

    def temp(self) -> str:
        """A fresh temporary's name."""
        self.temps += 1
        return f"t{self.temps}"

    def pin(self, src: str) -> str:
        """Evaluate *src* here, into a fresh temporary."""
        name = self.temp()
        self.emit(f"{name} = {src}")
        return name

    def const(self, node) -> str:
        self.consts.append(node)
        return f"K[{len(self.consts) - 1}]"

    def source(self, head: list = (), tail: list = (), expand: Optional[dict] = None) -> str:
        """The function's text: *head* and *tail* lines around the body,
        each placeholder line of the body replaced by its *expand* lines."""
        expand = expand or {}
        out = [f"def run({self.params}):"] + ["    " + line for line in head]
        for indent, text in self.lines:
            out += ["    " * indent + line for line in expand.get(text, (text,))]
        out += ["    " + line for line in tail]
        return "\n".join(out) + "\n"


class _Emitter(Emitter):
    def __init__(self, recording: bool, marking: bool = False):
        super().__init__("m, f")
        self.recording = recording
        self.marking = marking
        self.arrays: list = []  # names, in order of first use
        self.scalars: list = []
        self.assigns: list = []  # arrays assigned to, in order of first assignment
        self.restarts = False  # may a scalar's value differ after the unit's text ran
        self.uses_fuel = False
        self.flush = (
            ["m.work += w"] + ["R.work += w"] * recording + ["M.traced += T"] * marking
        )
        self.reset = ["w = 0"] + ["T = 0"] * marking

    # -- plumbing ----------------------------------------------------------
    @staticmethod
    def slot(names: list, name: str) -> int:
        if name not in names:
            names.append(name)
        return names.index(name)

    def fail(self, message: str) -> None:
        self.emit(f"raise InterpError({message!r})")

    def source(self, counting: bool) -> str:
        shadow = "; st{k} = SH.get(a{k})" if self.marking else ""
        binds = {
            _ARRAYS: ["MA = m.arrays"] + [
                f"a{k}, o{k} = FA.get({name!r}, NOBIND); "
                f"d{k} = MA.get(a{k}, ()); n{k} = len(d{k})" + shadow.format(k=k)
                for k, name in enumerate(self.arrays)
            ] if self.arrays else [],
            _SCALARS: [
                f"v{k} = S.get({name!r}, UNSET)"
                for k, name in enumerate(self.scalars)
            ],
        }
        head = ["S = f.scalars", "FA = f.arrays"]
        if self.recording:
            head += ["R = m._active_record", "W = R.writes",
                     "E = R.exposed_reads", "U = R.updates"]
        if self.marking:
            head += ["M = m._shadows", "SH = M.arrays", "X = M.it", "T = 0"]
        if self.uses_fuel:
            head.append("FUEL = fuel()")
        head += binds[_ARRAYS] + binds[_SCALARS]
        tail: list = []
        if counting:
            head += ["w = 0", "try:"] + ["    pass"] * (not self.lines)
            tail = ["finally:"] + ["    " + line for line in self.flush]
        return super().source(head, tail, binds)

    # -- expressions: (source, can it still raise when evaluated) ----------
    def value(self, expr) -> tuple:
        handler = _VALUES.get(type(expr))
        if handler is None:
            self.fail(f"unknown expression {expr!r}")
            return "0", False
        src, raises = handler(self, expr)
        if len(src) > _INLINE_MAX:
            return self.pin(src), False
        return src, raises

    def test(self, expr) -> tuple:
        """*expr* as a Python condition: true when its value is not 0."""
        if type(expr) is BinOp and expr.op in COMPARISONS:
            (left, lraises), (right, rraises) = self.sequence((expr.left, expr.right))
            return f"{left} {BINOP_SOURCE[expr.op]} {right}", lraises or rraises
        if type(expr) is BinOp and expr.op in BOOL_OPS:
            return self.short_circuit(expr)
        if type(expr) is UnaryOp and expr.op == "not":
            src, raises = self.test(expr.arg)
            return f"not ({src})", raises
        src, raises = self.value(expr)
        return f"{src} != 0", raises

    def sequence(self, exprs) -> list:
        """Lower *exprs* for evaluation in the given order.  Statements
        an operand needs run before the inline sources of the operands
        to its left, so a left operand that can still raise is pinned
        ahead of them."""
        done: list = []
        for expr in exprs:
            mark = len(self.lines)
            current = list(self.value(expr))
            if len(self.lines) > mark:
                late, self.lines[mark:] = self.lines[mark:], []
                for earlier in done:
                    if earlier[1]:
                        earlier[:] = self.pin(earlier[0]), False
                self.lines += late
            done.append(current)
        return done

    def short_circuit(self, expr: BinOp) -> tuple:
        left, lraises = self.test(expr.left)
        mark = len(self.lines)
        self.indent += 1
        right, rraises = self.test(expr.right)
        self.indent -= 1
        if len(self.lines) == mark:
            src = f"({left} {expr.op} {right})"
            if len(src) > _INLINE_MAX:
                return self.pin(src), False
            return src, lraises or rraises
        # The right side needs statements: they run under an ``if`` on
        # the left side, which alone decides otherwise.
        result = self.temp()
        self.lines[mark:mark] = [
            (self.indent, f"{result} = {expr.op == 'or'}"),
            (self.indent, f"if {left}:" if expr.op == "and" else f"if not ({left}):"),
        ]
        self.lines.append((self.indent + 1, f"{result} = {right}"))
        return result, False

    def _var(self, expr: Var) -> tuple:
        local = f"v{self.slot(self.scalars, expr.name)}"
        return f"({local} if {local} is not UNSET else unbound(m, {expr.name!r}))", True

    def _array_read(self, expr: ArrayRead) -> tuple:
        loc, k = self.locate(expr.array, self.value(expr.index)[0])
        if self.recording:
            self.emit(f"s = W.get(a{k})")
            self.emit(f"if not s or {loc} not in s:")
            self.note("E", k, loc, 1)
        if self.marking:  # untouched, or touched by earlier iterations only
            self.mark(k, loc, [
                "if s is None:",
                f"    st{k}[{loc}] = X",
                "    T += 1",
                "elif s < X:",
                f"    if s & 2: raise Conflict(a{k}, {loc})",  # flow
                f"    st{k}[{loc}] = X + 1",
                "    T += 1",
            ])
        return f"d{k}[{loc} - 1]", False

    def locate(self, array: str, index: str) -> tuple:
        """(temporary holding the checked location, the array's slot)."""
        k = self.slot(self.arrays, array)
        loc = self.pin(f"o{k} + {index}")
        self.emit(f"if not 0 < {loc} <= n{k}: bad_access(m, f, {array!r}, {loc})")
        return loc, k

    def mark(self, k: int, loc: str, lines: list) -> None:
        """*lines*, with ``s`` the stamp of *loc*, under a test that
        array slot *k* is marked at all."""
        self.emit(f"if st{k} is not None:")
        self.indent += 1
        self.emit(f"s = st{k}.get({loc})")
        for line in lines:
            self.emit(line)
        self.indent -= 1

    def note(self, marks: str, k: int, loc: str, deeper: int = 0) -> None:
        """Add *loc* to the record's *marks* of array slot *k*, creating
        the array's set only now that it is touched."""
        self.indent += deeper
        self.emit(f"s = {marks}.get(a{k})")
        self.emit(f"if s is None: {marks}[a{k}] = {{{loc}}}")
        self.emit(f"else: s.add({loc})")
        self.indent -= deeper

    def _binop(self, expr: BinOp) -> tuple:
        op = expr.op
        if op in COMPARISONS or op in BOOL_OPS:
            src, raises = self.test(expr)
            return f"(1 if {src} else 0)", raises
        (left, lraises), (right, rraises) = self.sequence((expr.left, expr.right))
        if op not in BINOP_SOURCE:
            self.run_for_errors(((left, lraises), (right, rraises)))
            self.fail(f"unknown operator {op!r}")
            return "0", False
        if op in _BY_ZERO and not (type(expr.right) is Num and expr.right.value != 0):
            # both operands are evaluated before the divisor is checked
            if lraises:
                left = self.pin(left)
            right = self.pin(right)
            self.emit(f"if {right} == 0: raise InterpError({_BY_ZERO[op]!r})")
            lraises = rraises = False
        return f"({left} {BINOP_SOURCE[op]} {right})", lraises or rraises

    def run_for_errors(self, operands) -> None:
        """Evaluate operands whose value is not wanted (an inline source
        that cannot raise has no effect and is dropped)."""
        for src, raises in operands:
            if raises:
                self.pin(src)

    def _unary(self, expr: UnaryOp) -> tuple:
        if expr.op == "not":
            src, raises = self.test(expr.arg)
            return f"(0 if {src} else 1)", raises
        src, raises = self.value(expr.arg)
        if expr.op == "-":
            return f"(-{src})", raises
        self.run_for_errors(((src, raises),))
        self.fail(f"unknown unary {expr.op!r}")
        return "0", False

    def _intrinsic(self, expr: Intrinsic) -> tuple:
        operands = self.sequence(expr.args)
        if expr.name not in _INTRINSICS:
            self.run_for_errors(operands)
            self.fail(f"unknown intrinsic {expr.name!r}")
            return "0", False
        args = ", ".join(src for src, _ in operands)
        if len(operands) < 2:
            args = f"[{args}]"
        return f"{expr.name}({args})", any(raises for _, raises in operands)

    # -- statements --------------------------------------------------------
    def statement(self, stmt) -> None:
        self.emit("w += 1")
        handler = _STATEMENTS.get(type(stmt))
        if handler is None:
            self.fail(f"unknown statement {stmt!r}")
        else:
            handler(self, stmt)

    def block(self, stmts: tuple) -> None:
        self.indent += 1
        if not stmts:
            self.emit("pass")
        elif self.indent > _MAX_DEPTH:
            self.leave(f"m._exec_body({self.const(stmts)}, f)", scalars=True)
        else:
            for stmt in stmts:
                self.statement(stmt)
        self.indent -= 1

    def leave(self, call: str, scalars: bool) -> None:
        """Hand over to the machine, then bind again what a loop hook
        (``m.arrays``) or a body sharing this frame (scalars) may have
        replaced."""
        self.restarts |= scalars
        for line in self.flush + self.reset + [call, _ARRAYS] + [_SCALARS] * scalars:
            self.emit(line)

    def _assign_scalar(self, stmt: AssignScalar) -> None:
        src = self.value(stmt.expr)[0]
        local = f"v{self.slot(self.scalars, stmt.name)}"
        self.restarts = True
        self.emit(f"S[{stmt.name!r}] = {local} = {src}")

    def _assign_array(self, stmt: AssignArray) -> None:
        (index, iraises), (value, raises) = self.sequence((stmt.index, stmt.expr))
        if raises:  # the right-hand side runs before the bounds check
            if iraises:
                index = self.pin(index)
            value = self.pin(value)
        loc, k = self.locate(stmt.array, index)
        self.slot(self.assigns, stmt.array)
        if self.recording:
            self.note("W", k, loc)
            if stmt.is_update:
                self.note("U", k, loc)
        if self.marking:
            self.mark(k, loc, [
                "if s is None:",
                f"    st{k}[{loc}] = X + 2",
                "    T += 1",
                "elif s < X:",  # anti, unless an earlier iteration only wrote it
                f"    if s & 3 != 2: raise Conflict(a{k}, {loc})",
                f"    M.rewritten.add(a{k})",
                f"    st{k}[{loc}] = X + 2",
                "    T += 1",
                "elif s == X:",
                f"    st{k}[{loc}] = X + 3",
                "    T += 1",
                f"elif s == X + 1: raise Conflict(a{k}, {loc})",  # anti
            ])
        self.emit(f"d{k}[{loc} - 1] = {value}")

    def _if(self, stmt: If) -> None:
        self.emit(f"if {self.test(stmt.cond)[0]}:")
        self.block(stmt.then_body)
        if stmt.else_body:
            self.emit("else:")
            self.block(stmt.else_body)

    def _loop(self, stmt: Union[Do, While]) -> None:
        if stmt.label is not None:  # the machine's: hook, tracing, bookkeeping
            self.leave(f"m._exec_loop({self.const(stmt)}, f)", scalars=True)
        elif type(stmt) is Do:
            self._do(stmt)
        else:
            self._while(stmt)

    def loop_unit(self, stmt: Union[Do, While]) -> None:
        """The loop unit of labelled *stmt*: its body once per value of
        ``values`` (bound to a DO loop's index; a while loop's are only
        counted), in one function that binds arrays and scalars once.
        ``civs`` is ``(scalar, prefix values)`` pairs.  With ``fresh``,
        a dict, every iteration starts from a copy of it as the frame's
        scalars, the next value of each *prefix* on top (a body that
        assigns no scalar needs, and gets, no such restart); with a
        ``costs`` list, every iteration appends the work it did, and
        beforehand to each *prefix* its scalar's value on entry.  The
        function returns the last value it ran.  Marking, a unit entered
        while no iteration is marked stamps its own: 0, 4, 8, ..."""
        self.params = "m, f, values, fresh, costs, civs"
        self.indent = 2  # inside ``def`` and ``try``
        self.block(stmt.body)
        head = [(2, "x = None"), (2, "for x in values:")]
        if self.marking:
            head[:0] = [(2, "top = X is None"), (2, "if top: X = -4")]
            head.append((3, "if top: M.it = X = X + 4"))
        if self.restarts:
            head += [
                (3, "if fresh is not None:"),
                (4, "S = f.scalars = dict(fresh)"),
                (4, "for name, prefix in civs: S[name] = next(prefix)"),
                (4, _SCALARS),
            ]
        if type(stmt) is Do:
            local = f"v{self.slot(self.scalars, stmt.index)}"
            head.append((3, f"S[{stmt.index!r}] = {local} = x"))
        self.lines[:0] = head + [
            (3, "if costs is not None:"),
            (4, "for name, prefix in civs: prefix.append(S.get(name, 0))"),
            (4, "b = m.work + w"),
        ]
        self.lines += [
            (3, "if costs is not None: costs.append(float(m.work + w - b))"),
            (2, "return x"),
        ]

    def _do(self, stmt: Do) -> None:
        (lower_, _), (upper, _) = self.sequence((stmt.lower, stmt.upper))
        local = f"v{self.slot(self.scalars, stmt.index)}"
        self.restarts = True
        self.emit(f"for {local} in range({lower_}, {upper} + 1):")
        self.indent += 1
        self.emit(f"S[{stmt.index!r}] = {local}")
        self.indent -= 1
        self.block(stmt.body)

    def _while(self, stmt: While) -> None:
        self.uses_fuel = True
        trips = self.temp()
        self.emit(f"{trips} = 0")
        mark = len(self.lines)
        self.indent += 1
        cond = self.test(stmt.cond)[0]
        if len(self.lines) == mark:
            self.lines.append((self.indent - 1, f"while {cond}:"))
        else:  # the condition needs statements: they run inside the loop
            self.lines.insert(mark, (self.indent - 1, "while True:"))
            self.emit(f"if not ({cond}): break")
        self.emit(f"{trips} += 1")
        self.emit(f"if {trips} > FUEL: raise InterpError('while loop  ran away')")
        self.indent -= 1
        self.block(stmt.body)


_VALUES = {
    Num: lambda self, expr: (repr(expr.value), False),
    Var: _Emitter._var,
    ArrayRead: _Emitter._array_read,
    BinOp: _Emitter._binop,
    UnaryOp: _Emitter._unary,
    Intrinsic: _Emitter._intrinsic,
}

_STATEMENTS = {
    AssignScalar: _Emitter._assign_scalar,
    AssignArray: _Emitter._assign_array,
    If: _Emitter._if,
    Do: _Emitter._loop,
    While: _Emitter._loop,
    Call: lambda self, stmt: self.leave(
        f"m._exec_call({self.const(stmt)}, f)", scalars=False
    ),
}

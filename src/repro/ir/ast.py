"""AST of the mini-Fortran loop IR.

The paper's analysis runs inside Polaris on structured Fortran77.  This
IR provides the same structural shape on a small language: integer
scalars, unidimensional arrays (Fortran programs are linearized by the
LMAD abstraction anyway), structured control flow (``do``/``while``/
``if``), subroutine calls with array-offset arguments (modelling
``HE(1,id)``-style section passing and reshaping), and loop-invariant
unknown *parameters* standing in for input-dependent values.

Programs are built by the parser (:mod:`repro.ir.parser`) or directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

__all__ = [
    "IRExpr", "Num", "Var", "ArrayRead", "BinOp", "UnaryOp", "Intrinsic",
    "IRStmt", "AssignScalar", "AssignArray", "If", "Do", "While", "Call",
    "Subroutine", "Program", "ArrayDecl",
    "COMPARISONS", "BOOL_OPS", "ARITH_OPS",
]

ARITH_OPS = ("+", "-", "*", "/", "%")
COMPARISONS = ("==", "!=", "<", "<=", ">", ">=")
BOOL_OPS = ("and", "or")


# -- expressions --------------------------------------------------------------


class IRExpr:
    """Base class of IR expressions (integer-valued; comparisons and
    boolean operators produce 0/1)."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(IRExpr):
    """An integer literal."""

    value: int

    def __repr__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Var(IRExpr):
    """A scalar variable or parameter reference."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ArrayRead(IRExpr):
    """``A[index]`` -- a read of one array element."""

    array: str
    index: IRExpr

    def __repr__(self) -> str:
        return f"{self.array}[{self.index!r}]"


@dataclass(frozen=True)
class BinOp(IRExpr):
    """A binary operation; ``/`` is flooring integer division."""

    op: str
    left: IRExpr
    right: IRExpr

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class UnaryOp(IRExpr):
    """``-x`` or ``not x``."""

    op: str
    arg: IRExpr

    def __repr__(self) -> str:
        return f"({self.op} {self.arg!r})"


@dataclass(frozen=True)
class Intrinsic(IRExpr):
    """``min``/``max`` intrinsics."""

    name: str
    args: tuple[IRExpr, ...]

    def __repr__(self) -> str:
        inside = ", ".join(repr(a) for a in self.args)
        return f"{self.name}({inside})"


# -- statements ----------------------------------------------------------------


class IRStmt:
    """Base class of IR statements."""

    __slots__ = ()


@dataclass(frozen=True)
class AssignScalar(IRStmt):
    """``x = expr``."""

    name: str
    expr: IRExpr


@dataclass(frozen=True)
class AssignArray(IRStmt):
    """``A[index] = expr``.

    ``is_update`` is set by the parser when the right-hand side reads
    ``A[index]`` itself (``A[i] = A[i] + e``), the shape reduction
    recognition keys on.
    """

    array: str
    index: IRExpr
    expr: IRExpr
    is_update: bool = False


@dataclass(frozen=True)
class If(IRStmt):
    """``if cond then ... else ... end``."""

    cond: IRExpr
    then_body: tuple[IRStmt, ...]
    else_body: tuple[IRStmt, ...] = ()


@dataclass(frozen=True)
class Do(IRStmt):
    """``do i = lower, upper ... end`` with unit step.

    ``label`` names the loop for analysis targeting and reporting
    (``@ solvh_do20`` in the concrete syntax).
    """

    index: str
    lower: IRExpr
    upper: IRExpr
    body: tuple[IRStmt, ...]
    label: Optional[str] = None


@dataclass(frozen=True)
class While(IRStmt):
    """``while cond do ... end`` -- trip count unknown statically."""

    cond: IRExpr
    body: tuple[IRStmt, ...]
    label: Optional[str] = None


@dataclass(frozen=True)
class CallArg:
    """An actual argument: a scalar expression, or an array (optionally
    with a base offset -- ``A + expr`` models section passing)."""

    array: Optional[str] = None
    offset: Optional[IRExpr] = None
    scalar: Optional[IRExpr] = None

    def is_array(self) -> bool:
        return self.array is not None


@dataclass(frozen=True)
class Call(IRStmt):
    """``call sub(args...)``."""

    callee: str
    args: tuple[CallArg, ...]


# -- program structure -----------------------------------------------------------


@dataclass(frozen=True)
class ArrayDecl:
    """``array A(size)``: declared extent (1-based, inclusive)."""

    name: str
    size: IRExpr


@dataclass(frozen=True)
class Subroutine:
    """A subroutine: scalar params by value, array params by reference."""

    name: str
    scalar_params: tuple[str, ...]
    array_params: tuple[str, ...]
    body: tuple[IRStmt, ...]


@dataclass
class Program:
    """A whole program: global parameters, arrays, subroutines, main."""

    params: tuple[str, ...] = ()
    arrays: tuple[ArrayDecl, ...] = ()
    subroutines: dict[str, Subroutine] = field(default_factory=dict)
    main: tuple[IRStmt, ...] = ()
    name: str = "program"
    #: code :class:`~repro.ir.interp.Machine` generated for this program:
    #: it dies with it and is never compared, printed or pickled
    _lowered: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_lowered": {}}

    def array_decl(self, name: str) -> Optional[ArrayDecl]:
        for decl in self.arrays:
            if decl.name == name:
                return decl
        return None

    def find_loop(self, label: str) -> Optional[Union[Do, While]]:
        """Locate a labelled do- or while-loop anywhere in the program."""
        found: list[Do] = []

        def walk(stmts: Sequence[IRStmt]) -> None:
            for s in stmts:
                if isinstance(s, (Do, While)):
                    if s.label == label:
                        found.append(s)
                    walk(s.body)
                elif isinstance(s, If):
                    walk(s.then_body)
                    walk(s.else_body)

        walk(self.main)
        for sub in self.subroutines.values():
            walk(sub.body)
        return found[0] if found else None

    def labelled_loops(self) -> list[str]:
        """All loop labels in program order (main first, then subs)."""
        out: list[str] = []

        def walk(stmts: Sequence[IRStmt]) -> None:
            for s in stmts:
                if isinstance(s, Do):
                    if s.label:
                        out.append(s.label)
                    walk(s.body)
                elif isinstance(s, While):
                    if s.label:
                        out.append(s.label)
                    walk(s.body)
                elif isinstance(s, If):
                    walk(s.then_body)
                    walk(s.else_body)

        walk(self.main)
        for sub in self.subroutines.values():
            walk(sub.body)
        return out

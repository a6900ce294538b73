"""The vectorized NumPy backend for fully-parallel affine-ish loops.

When every array the runtime decided on is ``shared`` (full
independence proven statically, by a predicate cascade, or by an exact
test), iteration-isolated execution degenerates into data parallelism:
each statement can run across *all* iterations at once as one NumPy
operation -- gathers for reads (including indirect ``A[IDX[i]]``
subscripts), scatters for writes, plain vector arithmetic in between.

Soundness of the statement-serial, loop-vectorized order rests on the
independence the runtime already established:

* *output independence* -- no location is written by two different
  iterations, so a statement's scatter indices are duplicate-free and
  a location in the evolving state only ever holds its own iteration's
  value;
* *flow independence* -- no location written by one iteration is
  expose-read by another, so a gather from the evolving state returns
  either the pre-loop value or the reading iteration's own earlier
  write -- exactly what isolated execution would see.

The interpreter's integers are unbounded, NumPy's are not; a static
magnitude-bound pass over the loop body picks ``int64`` vectors when no
intermediate can leave the safe range and exact ``object`` vectors
otherwise (slower, still far faster than interpreting).

:meth:`VectorizedBackend.supports` is deliberately conservative (flat
DO bodies of scalar/array assignments, no branches, no division); the
executor transparently falls back to the sequential reference backend
on unsupported tasks and records that in the report.
"""

from __future__ import annotations

from typing import Optional

from ...ir.ast import (
    ArrayRead,
    AssignArray,
    AssignScalar,
    BinOp,
    Intrinsic,
    IRExpr,
    Num,
    UnaryOp,
    Var,
)
from ...ir.interp import copy_arrays
from .base import BackendRun, BackendUnsupported, ExecutionBackend, LoopTask
from .chunking import ChunkSpec

__all__ = ["VectorizedBackend"]

#: BinOp operators the vector evaluator implements.  ``/`` and ``%``
#: are excluded: a masked-off-by-nothing zero divisor must raise the
#: interpreter's error, which a vector evaluation cannot reproduce.
_VECTOR_BINOPS = frozenset(
    ("+", "-", "*", "==", "!=", "<", "<=", ">", ">=", "and", "or")
)

#: Keep int64 intermediates comfortably clear of the wrap-around edge.
_INT64_SAFE_BOUND = 2**62


def _numpy():
    import numpy

    return numpy


class VectorizedBackend(ExecutionBackend):
    name = "numpy"

    @classmethod
    def available(cls) -> bool:
        try:
            _numpy()
        except ImportError:
            return False
        return True

    # -- structural support check ---------------------------------------
    def supports(self, task: LoopTask) -> bool:
        if task.index_name is None:
            return False  # while loops re-derive their trips sequentially
        # Every frame binding must be the identity (main-level loops):
        # written names are then the merge/decision names.
        for name, (base, offset) in task.frame_arrays.items():
            if name != base or offset != 0:
                return False
        loop = task.program.find_loop(task.label)
        if loop is None or not loop.body:
            return False
        for stmt in loop.body:
            if isinstance(stmt, AssignScalar):
                if not self._supported_expr(stmt.expr):
                    return False
            elif isinstance(stmt, AssignArray):
                if task.decisions.get(stmt.array) != "shared":
                    return False
                if not self._supported_expr(stmt.index):
                    return False
                if not self._supported_expr(stmt.expr):
                    return False
            else:
                return False  # branches, nested loops, calls: chunked backends
        return True

    def _supported_expr(self, expr: IRExpr) -> bool:
        if isinstance(expr, (Num, Var)):
            return True
        if isinstance(expr, ArrayRead):
            return self._supported_expr(expr.index)
        if isinstance(expr, BinOp):
            return (
                expr.op in _VECTOR_BINOPS
                and self._supported_expr(expr.left)
                and self._supported_expr(expr.right)
            )
        if isinstance(expr, UnaryOp):
            return expr.op in ("-", "not") and self._supported_expr(expr.arg)
        if isinstance(expr, Intrinsic):
            return expr.name in ("min", "max") and all(
                self._supported_expr(a) for a in expr.args
            )
        return False

    # -- magnitude bounds (int64 vs exact object arithmetic) -------------
    def _int64_is_safe(self, task: LoopTask, body) -> bool:
        """Conservative worst-case |value| tracking over the body."""
        scalar_bound: dict = {}
        for name, value in task.params.items():
            scalar_bound[name] = abs(value)
        for name, value in task.pre_scalars.items():
            scalar_bound[name] = abs(value)
        if task.iterations:
            scalar_bound[task.index_name] = max(
                abs(task.iterations[0]), abs(task.iterations[-1])
            )
        for name in task.civ_names:
            values = task.civ_values.get(name, [0])
            scalar_bound[name] = max(abs(v) for v in values) if values else 0
        array_bound = {
            name: max((abs(v) for v in values), default=0)
            for name, values in task.pre_arrays.items()
        }
        # Every pre-loop array (read or not) and every per-iteration
        # scalar vector is materialized as int64 up front; any
        # out-of-range initial value must force exact object mode.
        initial = list(array_bound.values()) + [
            scalar_bound.get(task.index_name, 0)
        ] + [scalar_bound[name] for name in task.civ_names]
        if any(b >= _INT64_SAFE_BOUND for b in initial):
            return False

        def bound(expr: IRExpr) -> int:
            if isinstance(expr, Num):
                return abs(expr.value)
            if isinstance(expr, Var):
                return scalar_bound.get(expr.name, _INT64_SAFE_BOUND)
            if isinstance(expr, ArrayRead):
                if bound(expr.index) >= _INT64_SAFE_BOUND:
                    return _INT64_SAFE_BOUND
                return array_bound.get(expr.array, _INT64_SAFE_BOUND)
            if isinstance(expr, BinOp):
                if expr.op in ("==", "!=", "<", "<=", ">", ">=", "and", "or"):
                    return 1
                left, right = bound(expr.left), bound(expr.right)
                if expr.op == "*":
                    return min(left * right, _INT64_SAFE_BOUND)
                return min(left + right, _INT64_SAFE_BOUND)
            if isinstance(expr, UnaryOp):
                return 1 if expr.op == "not" else bound(expr.arg)
            if isinstance(expr, Intrinsic):
                return max(bound(a) for a in expr.args)
            return _INT64_SAFE_BOUND

        for stmt in body:
            if isinstance(stmt, AssignScalar):
                b = bound(stmt.expr)
                if b >= _INT64_SAFE_BOUND:
                    return False
                scalar_bound[stmt.name] = b
            else:
                if bound(stmt.index) >= _INT64_SAFE_BOUND:
                    return False
                b = bound(stmt.expr)
                if b >= _INT64_SAFE_BOUND:
                    return False
                array_bound[stmt.array] = max(
                    array_bound.get(stmt.array, 0), b
                )
        return True

    # -- execution -------------------------------------------------------
    def execute(
        self,
        task: LoopTask,
        jobs: Optional[int] = None,
        chunk: Optional[ChunkSpec] = None,
    ) -> BackendRun:
        if not self.supports(task):
            raise BackendUnsupported(
                f"loop {task.label!r} is not vectorizable"
            )
        np = _numpy()
        n = len(task.iterations)
        if n == 0:
            return BackendRun(
                arrays=copy_arrays(task.pre_arrays),
                final_scalars={},
                chunks=0,
                jobs=1,
            )
        body = task.program.find_loop(task.label).body
        dtype = (
            np.int64 if self._int64_is_safe(task, body) else object
        )

        def vec(value) -> "np.ndarray":
            out = np.empty(n, dtype=dtype)
            out[:] = value
            return out

        env: dict = {}
        env[task.index_name] = np.array(task.iterations, dtype=dtype)
        for name in task.civ_names:
            env[name] = np.array(task.civ_values[name][:n], dtype=dtype)
        state = {
            name: np.array(values, dtype=dtype)
            for name, values in task.pre_arrays.items()
        }

        def scalar_value(name: str):
            if name in env:
                return env[name]
            if name in task.pre_scalars:
                return task.pre_scalars[name]
            if name in task.params:
                return task.params[name]
            raise BackendUnsupported(f"unbound scalar {name!r}")

        def where(condition):
            return np.where(condition, vec(1), vec(0))

        def evaluate(expr: IRExpr):
            if isinstance(expr, Num):
                return vec(expr.value)
            if isinstance(expr, Var):
                value = scalar_value(expr.name)
                return value if isinstance(value, np.ndarray) else vec(value)
            if isinstance(expr, ArrayRead):
                index = evaluate(expr.index).astype(np.int64)
                return state[expr.array][index - 1]
            if isinstance(expr, BinOp):
                left = evaluate(expr.left)
                right = evaluate(expr.right)
                op = expr.op
                if op == "+":
                    return left + right
                if op == "-":
                    return left - right
                if op == "*":
                    return left * right
                if op == "and":
                    return where((left != 0) & (right != 0))
                if op == "or":
                    return where((left != 0) | (right != 0))
                comparison = {
                    "==": np.equal,
                    "!=": np.not_equal,
                    "<": np.less,
                    "<=": np.less_equal,
                    ">": np.greater,
                    ">=": np.greater_equal,
                }[op]
                return where(comparison(left, right))
            if isinstance(expr, UnaryOp):
                value = evaluate(expr.arg)
                return where(value == 0) if expr.op == "not" else -value
            if isinstance(expr, Intrinsic):
                values = [evaluate(a) for a in expr.args]
                fold = np.minimum if expr.name == "min" else np.maximum
                out = values[0]
                for value in values[1:]:
                    out = fold(out, value)
                return out
            raise BackendUnsupported(f"cannot vectorize {expr!r}")

        assigned: list = []
        for stmt in body:
            if isinstance(stmt, AssignScalar):
                env[stmt.name] = evaluate(stmt.expr)
                assigned.append(stmt.name)
            else:
                index = evaluate(stmt.index).astype(np.int64)
                value = evaluate(stmt.expr)
                state[stmt.array][index - 1] = value

        final_scalars = dict(task.pre_scalars)
        final_scalars[task.index_name] = int(task.iterations[-1])
        for name in task.civ_names:
            final_scalars[name] = int(task.civ_values[name][n - 1])
        for name in assigned:
            final_scalars[name] = int(env[name][-1])
        return BackendRun(
            arrays={
                name: [int(v) for v in values]
                for name, values in state.items()
            },
            final_scalars=final_scalars,
            chunks=1,
            jobs=1,
        )

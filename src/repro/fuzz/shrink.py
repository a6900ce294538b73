"""Delta-debugging of failing fuzz cases into minimal repro programs.

A failure (``unsound`` or ``crash``) found by the oracle is rarely
minimal: the generated program carries statements, branches, nested
loops and large inputs that have nothing to do with the bug.  The
shrinker repeatedly applies outcome-preserving reductions --

* delete statements from any body (target loop, branches, nested loops,
  prelude);
* replace an ``if`` by one of its branches;
* flatten a nested ``do`` into its body (with the inner index pinned);
* shrink numeric literals toward 1 and parameter values toward 0;
* zero array initial contents, or clamp them to at most 1;

-- re-running the oracle after each candidate and keeping any change
that still reproduces the *same* outcome class.  The result is written
to ``tests/regression/corpus/`` as a JSON document holding the source
text, inputs, seed and shrink provenance; the regression suite replays
every corpus entry forever after (a replay fails while the bug exists
and passes once it is fixed -- entries stay as permanent guards).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

from ..ir.ast import (
    AssignScalar, Do, If, IRExpr, Num, Program, While, rebuild, walk_exprs,
    walk_stmts,
)
from .generator import FuzzCase, render_program
from .oracle import CaseResult, fuzz_engine, run_case

__all__ = [
    "ShrinkResult",
    "shrink_case",
    "CorpusCase",
    "ReplayResult",
    "write_corpus_case",
    "load_corpus_case",
    "replay_corpus_case",
    "corpus_dir",
]

#: Upper bound on oracle invocations per shrink (keeps shrinking O(s)).
DEFAULT_BUDGET = 400

#: Corpus schema version.
CORPUS_SCHEMA = 1


@dataclass
class ShrinkResult:
    """A minimized failing case plus its provenance."""

    case: FuzzCase
    outcome: str
    detail: str
    oracle_calls: int
    #: statements before -> after, for the provenance line
    stmts_before: int
    stmts_after: int

    @property
    def provenance(self) -> str:
        return (
            f"shrunk by repro.fuzz.shrink from generator seed "
            f"{self.case.seed}: {self.stmts_before} -> {self.stmts_after} "
            f"statement(s) in {self.oracle_calls} oracle call(s)"
        )


def _count_stmts(stmts) -> int:
    return sum(1 for _ in walk_stmts(stmts))


def _crash_sig(detail: str) -> str:
    """'layer: ExceptionType' prefix of a crash detail -- shrinking a
    crash must preserve it, so a reduction can never swap the real bug
    for an artificial one (e.g. an out-of-bounds from zeroed inputs)."""
    head = detail.strip().splitlines()[0] if detail.strip() else ""
    return ":".join(head.split(":", 2)[:2])


class _Shrinker:
    def __init__(self, case: FuzzCase, oracle: Callable, budget: int):
        self.oracle = oracle
        self.budget = budget
        self.calls = 0
        baseline = oracle(case)
        self.target_outcome = baseline.outcome
        self.target_sig = (
            _crash_sig(baseline.detail) if baseline.outcome == "crash" else None
        )
        self.detail = baseline.detail
        self.case = case

    def _attempt(self, candidate: FuzzCase) -> bool:
        """Accept *candidate* when it reproduces the target outcome."""
        if self.calls >= self.budget:
            return False
        if candidate.program.find_loop(candidate.label) is None:
            return False  # must keep the target loop
        self.calls += 1
        try:
            result = self.oracle(candidate)
        except Exception:  # noqa: BLE001 -- a broken candidate is just rejected
            return False
        if result.outcome != self.target_outcome:
            return False
        if self.target_sig is not None and _crash_sig(result.detail) != self.target_sig:
            return False
        self.case = candidate
        self.detail = result.detail
        return True

    def _with_program(self, program: Program) -> FuzzCase:
        source = render_program(program)
        return replace(
            self.case, program=fuzz_engine().parse(source), source=source
        )

    # -- statement-level passes ---------------------------------------------
    def _sites(self) -> list:
        """(pre-order index, statement) of every statement in main,
        innermost first (deleting inner statements first keeps outer
        structure shrinkable afterwards), in program order among equals."""
        flat = list(walk_stmts(self.case.program.main))
        depth = [0] * len(flat)
        for k, s in enumerate(flat):
            for inner in range(k + 1, k + _count_stmts((s,))):
                depth[inner] += 1
        return sorted(enumerate(flat), key=lambda site: -depth[site[0]])

    def _splice(self, site: int, replacement: tuple) -> Program:
        """Program with the statement at pre-order *site* of main replaced
        by the statements in *replacement* (empty tuple = deletion)."""
        seen = itertools.count()

        def body(stmts: tuple) -> tuple:
            out = []
            for s in stmts:
                if next(seen) == site:
                    out.extend(replacement)
                else:
                    out.append(rebuild(s, body=body))
            return tuple(out)

        return replace(self.case.program, main=body(self.case.program.main))

    def pass_delete(self) -> bool:
        changed = False
        progress = True
        while progress and self.calls < self.budget:
            progress = False
            for site, stmt in self._sites():
                if isinstance(stmt, (Do, While)) and stmt.label == self.case.label:
                    continue  # never delete the target loop itself
                if self._attempt(self._with_program(self._splice(site, ()))):
                    changed = progress = True
                    break  # sites are stale; recompute
        return changed

    def pass_unwrap(self) -> bool:
        """Replace ifs by a branch; flatten unlabelled nested loops."""
        changed = True
        any_change = False
        while changed and self.calls < self.budget:
            changed = False
            for site, stmt in self._sites():
                candidates = []
                if isinstance(stmt, If):
                    if stmt.then_body:
                        candidates.append(stmt.then_body)
                    if stmt.else_body:
                        candidates.append(stmt.else_body)
                elif isinstance(stmt, Do) and stmt.label != self.case.label:
                    # Pin the inner index at its lower bound so body
                    # references stay bound.
                    candidates.append(
                        (AssignScalar(stmt.index, stmt.lower),) + stmt.body
                    )
                for repl in candidates:
                    if self._attempt(self._with_program(self._splice(site, repl))):
                        changed = any_change = True
                        break
                if changed:
                    break
        return any_change

    # -- input-level passes -------------------------------------------------
    def pass_params(self) -> bool:
        changed = False
        for name in list(self.case.params):
            value = self.case.params[name]
            for smaller in (0, 1, 2, value // 2):
                if smaller >= value:
                    continue
                params = dict(self.case.params)
                params[name] = smaller
                if self._attempt(replace(self.case, params=params)):
                    changed = True
                    break
        return changed

    def pass_arrays(self) -> bool:
        changed = False
        for name in list(self.case.arrays):
            data = self.case.arrays[name]
            if any(v != 0 for v in data):
                zeroed = dict(self.case.arrays)
                zeroed[name] = [0] * len(data)
                if self._attempt(replace(self.case, arrays=zeroed)):
                    changed = True
            if any(v > 1 for v in self.case.arrays[name]):
                ones = dict(self.case.arrays)
                ones[name] = [min(v, 1) for v in self.case.arrays[name]]
                if self._attempt(replace(self.case, arrays=ones)):
                    changed = True
        return changed

    def pass_literals(self) -> bool:
        """Shrink Num literals toward 1, one site at a time."""
        changed = False
        sites = _num_sites(self.case.program.main)
        for site_index, value in sites:
            for smaller in (1, value // 2):
                if smaller >= value or smaller < 1:
                    continue
                main = _replace_num(self.case.program.main, site_index, smaller)
                program = replace(self.case.program, main=main)
                if self._attempt(self._with_program(program)):
                    changed = True
                    break
        return changed

    def run(self) -> ShrinkResult:
        before = _count_stmts(self.case.program.main)
        progress = True
        while progress and self.calls < self.budget:
            progress = False
            progress |= self.pass_delete()
            progress |= self.pass_unwrap()
            progress |= self.pass_params()
            progress |= self.pass_arrays()
            progress |= self.pass_literals()
        return ShrinkResult(
            case=self.case,
            outcome=self.target_outcome,
            detail=self.detail,
            oracle_calls=self.calls,
            stmts_before=before,
            stmts_after=_count_stmts(self.case.program.main),
        )


def _num_sites(main: tuple) -> list:
    """(pre-order index, value) of every Num > 1 in main's statements."""
    nums = [
        e.value for s in walk_stmts(main) for e in walk_exprs(s)
        if isinstance(e, Num)
    ]
    return [(k, v) for k, v in enumerate(nums) if v > 1]


def _replace_num(main: tuple, site_index: int, new_value: int) -> tuple:
    """Main with the Num at pre-order *site_index* replaced."""
    seen = itertools.count()

    def expr(e: IRExpr) -> IRExpr:
        if isinstance(e, Num):
            return Num(new_value) if next(seen) == site_index else e
        return rebuild(e, expr)

    def body(stmts: tuple) -> tuple:
        return tuple(rebuild(s, expr, body) for s in stmts)

    return body(main)


def shrink_case(
    case: FuzzCase,
    oracle: Callable = run_case,
    budget: int = DEFAULT_BUDGET,
) -> ShrinkResult:
    """Minimize *case* while preserving its oracle outcome class."""
    return _Shrinker(case, oracle, budget).run()


# -- corpus persistence and replay -------------------------------------------


@dataclass
class CorpusCase:
    """One persisted regression program."""

    seed: int
    source: str
    params: dict
    arrays: dict
    label: str
    exact_strategy: str
    #: outcome the case originally produced (the bug being guarded)
    original_outcome: str
    original_detail: str
    provenance: str

    def to_case(self) -> FuzzCase:
        return FuzzCase(
            seed=self.seed,
            program=fuzz_engine().parse(self.source),
            source=self.source,
            params=dict(self.params),
            arrays={k: list(v) for k, v in self.arrays.items()},
            label=self.label,
            exact_strategy=self.exact_strategy,
        )


@dataclass
class ReplayResult:
    """Outcome of replaying one corpus entry."""

    path: str
    ok: bool
    outcome: str
    message: str


def corpus_dir(root: Optional[Path] = None) -> Path:
    """The regression-corpus directory (repo-relative by default)."""
    if root is not None:
        return Path(root)
    here = Path(__file__).resolve()
    for parent in here.parents:
        candidate = parent / "tests" / "regression" / "corpus"
        if candidate.is_dir():
            return candidate
    return Path("tests/regression/corpus")


def write_corpus_case(shrunk: ShrinkResult, directory: Path) -> Path:
    """Persist a minimized failure as a corpus JSON document."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    case = shrunk.case
    payload = {
        "schema": CORPUS_SCHEMA,
        "seed": case.seed,
        "label": case.label,
        "exact_strategy": case.exact_strategy,
        "params": case.params,
        "arrays": case.arrays,
        "source": case.source,
        "original_outcome": shrunk.outcome,
        "original_detail": shrunk.detail,
        "provenance": shrunk.provenance,
    }
    path = directory / f"seed{case.seed}-{shrunk.outcome}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))
    return path


def load_corpus_case(path: Path) -> CorpusCase:
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") != CORPUS_SCHEMA:
        raise ValueError(f"{path}: unknown corpus schema {payload.get('schema')!r}")
    return CorpusCase(
        seed=payload["seed"],
        source=payload["source"],
        params=payload["params"],
        arrays=payload["arrays"],
        label=payload["label"],
        exact_strategy=payload.get("exact_strategy", "inspector"),
        original_outcome=payload.get("original_outcome", "?"),
        original_detail=payload.get("original_detail", ""),
        provenance=payload.get("provenance", "?"),
    )


def replay_corpus_case(
    entry: CorpusCase, path: str = "<memory>", oracle: Callable = run_case
) -> ReplayResult:
    """Re-judge a corpus entry.  OK iff the guarded bug stays fixed
    (the oracle reports a non-failing outcome)."""
    try:
        result: CaseResult = oracle(entry.to_case())
        outcome, detail = result.outcome, result.detail
    except Exception as exc:  # noqa: BLE001 -- replay must never blow up pytest
        outcome, detail = "crash", f"{type(exc).__name__}: {exc}"
    ok = outcome not in ("unsound", "crash")
    message = (
        f"{path}: seed {entry.seed} ({entry.provenance}) -> {outcome}"
        + (f": {detail}" if detail else "")
        + (f" [originally {entry.original_outcome}: "
           f"{entry.original_detail}]" if not ok else "")
    )
    return ReplayResult(path=str(path), ok=ok, outcome=outcome, message=message)

#!/usr/bin/env python3
"""Golden plan digests: the byte-identity gate for kernel changes.

``tests/golden/plan_digests.json`` pins, for the 91 paper loops and the
32 ``mix`` + 347 ``churn`` fuzz programs of ``bench/pool.json``, two
sha256 digests of a *cold* analysis (``clear_caches()`` before each
item, no disk cache):

* ``wire`` -- ``Engine.analyze(...).canonical_text()``, the bytes a
  client sees;
* ``plan`` -- a deep rendering of the :class:`LoopPlan` behind it: the
  loop bounds, every array's transform and flags, and the ``repr`` of
  each cascade and exact-fallback USR, so a change of operand order or
  fresh-index numbering inside a predicate shows even when the stage
  labels on the wire do not move.

``--check`` replays the items cold and once more warm (one fresh engine,
memo tables left to fill).  The ``wire`` digests must match on both
passes under any hash seed.  The ``plan`` digests are compared on the
cold pass of a ``PYTHONHASHSEED=0`` run only (on an interpreter with the
string hash they were written under, CPython >= 3.11's siphash13): as of
the commit that pinned them, one program (``mix016``) factors into a
different, equally sufficient predicate under another string hash (a
set is iterated somewhere on its way), and a warm memo may hand back an
``a && b`` first built as ``b && a`` (equal by the nodes' set-based
keys, different text).

A change to the symbolic kernel that claims "same plans, less time"
must leave every digest where it is::

    PYTHONHASHSEED=0 python tools/plan_digests.py --check   # CI + test
    PYTHONHASHSEED=0 python tools/plan_digests.py --write   # deliberate re-pin
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

GOLDEN = ROOT / "tests" / "golden" / "plan_digests.json"
POOL = ROOT / "bench" / "pool.json"

#: whether this process hashes strings the way the ``plan`` digests assume
_PINNED_HASH = (
    os.environ.get("PYTHONHASHSEED") == "0"
    and sys.hash_info.algorithm == "siphash13"
)


def items() -> list:
    """``(name, source, loop, options)`` of every pinned program."""
    from repro.workloads import ALL_BENCHMARKS

    out = [
        (f"{bench.name}/{loop.label}", bench.source, loop.label, {})
        for bench in ALL_BENCHMARKS
        for loop in bench.loops
    ]
    pool = json.loads(POOL.read_text())
    for section in ("mix", "churn"):
        out.extend(
            (doc["name"], doc["source"], doc["loop"], doc["options"])
            for doc in pool[section]
        )
    return out


def plan_text(plan) -> str:
    """Everything a :class:`LoopPlan` decides, predicates included."""
    lines = [
        f"{plan.label} {plan.index}={plan.lower!r}..{plan.upper!r} "
        f"{plan.classification()} {plan.techniques()} "
        f"approximate={plan.approximate} while={plan.is_while} "
        f"civs={[c.name for c in plan.civs]}"
    ]
    for name, ap in sorted(plan.arrays.items()):
        lines.append(
            f"{name} {ap.transform} flow={ap.flow!r} output={ap.output!r} "
            f"slv={ap.slv!r} rred={ap.rred!r} bounds={ap.needs_bounds_comp} "
            f"ext={ap.extended_reduction} additive={ap.reduction_additive} "
            f"exact={ap.needs_exact} exact_usr={ap.exact_usr!r}"
        )
    return "\n".join(lines)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def compute(cold: bool = True) -> dict:
    """Digests of every item through one fresh engine; *cold* drops
    every process-global memo before each item, otherwise the pass runs
    through whatever the memo tables already hold."""
    from repro.api import AnalyzeRequest, Engine, EngineConfig
    from repro.symbolic.intern import clear_caches

    engine = Engine(EngineConfig(use_disk_cache=False))
    digests = {}
    try:
        for name, source, loop, options in items():
            if cold:
                clear_caches()
            response = engine.analyze(
                AnalyzeRequest(source=source, loop=loop, options=options)
            )
            plan = engine.compile(source).plan(loop, **options)
            digests[name] = {
                "wire": _sha(response.canonical_text()),
                "plan": _sha(plan_text(plan)),
            }
    finally:
        engine.close()
    return digests


def mismatches(actual: dict, golden: dict, kinds: tuple) -> list:
    """Human-readable differences, over the digest *kinds* named,
    between two digest documents."""
    problems = [f"missing from golden: {n}" for n in sorted(set(actual) - set(golden))]
    problems += [f"missing from run: {n}" for n in sorted(set(golden) - set(actual))]
    for name in sorted(set(actual) & set(golden)):
        for kind in kinds:
            if actual[name][kind] != golden[name][kind]:
                problems.append(f"{name}: {kind} digest differs")
    return problems


def check() -> list:
    """Problems of a cold and a warm replay against the golden file."""
    golden = json.loads(GOLDEN.read_text())
    cold_kinds = ("wire", "plan") if _PINNED_HASH else ("wire",)
    problems = [f"cold: {p}" for p in mismatches(compute(), golden, cold_kinds)]
    warm = compute(cold=False)
    return problems + [f"warm: {p}" for p in mismatches(warm, golden, ("wire",))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="re-pin tests/golden/plan_digests.json")
    mode.add_argument("--check", action="store_true",
                      help="compare a cold and a warm pass with the golden file")
    args = parser.parse_args(argv)

    if args.write:
        if not _PINNED_HASH:
            parser.error("--write needs PYTHONHASHSEED=0 and a siphash13 "
                         "interpreter (see the module docstring)")
        digests = compute()
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
        print(f"plan-digests: wrote {len(digests)} item(s) to "
              f"{GOLDEN.relative_to(ROOT)}")
        return 0
    problems = check()
    if problems:
        print("\n".join(problems[:40]))
        print(f"\nplan-digests: FAILED ({len(problems)} problem(s))")
        return 1
    print(f"plan-digests: every item matches {GOLDEN.relative_to(ROOT)} "
          "cold and warm")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Golden execute digests: the field-for-field gate for the execute path.

``tests/golden/exec_digests.json`` pins one sha256 per execute over every
:class:`~repro.runtime.executor.ExecutionReport` field except ``wall_s``
(sorted-key JSON of ``dataclasses.asdict``; an execute that raises pins
the exception's type and text instead), for

* the 91 paper loops on ``thread`` (``tls`` for ``TLS_LOOPS``, else
  ``inspector``),
* the 32 ``mix`` programs of ``bench/pool.json`` on each of the five
  backends,
* ``bench/benchinputs.kernel_items(0, quick=True)`` on the backend each
  kernel names,

all with ``jobs=2`` -- the items and inputs ``bench/``'s ``exec_*``
workloads run, read through its own loaders.  Items whose backend cannot
run here (``numpy`` without NumPy installed) would report the sequential
fallback instead, so ``--check`` skips them and says so, and ``--write``
refuses to pin without them.

A change to the interpreter, the executor or a backend that claims "same
reports, less time" must leave every digest where it is::

    python tools/exec_digests.py --check   # CI + tests/regression
    python tools/exec_digests.py --write   # deliberate re-pin

The reports come out of Python code generated from each program
(``repro.ir.lower``), which must not depend on the hash seed either::

    python tools/exec_digests.py --lowered

generates the code of every unit ``Machine`` can compile for the 26
paper programs, the kernel sources and the ``mix`` programs -- both
variants, nothing executed -- and prints one sha256 over all of it; CI
and ``tests/regression`` require the same line under ``PYTHONHASHSEED``
0 and 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from plan_digests import ROOT, _sha, mismatches

sys.path.insert(0, str(ROOT / "bench"))

GOLDEN = ROOT / "tests" / "golden" / "exec_digests.json"
JOBS = 2


def items() -> tuple:
    """``(runnable, skipped)``: every pinned execute as a
    ``bench/benchinputs.Item``, split by whether its backend is
    available in this environment."""
    from benchinputs import kernel_items, load_pool, paper_items
    from repro.runtime.backends import BACKENDS, available_backends

    every = (
        paper_items()
        + [
            dataclasses.replace(item, name=f"{item.name}@{backend}", backend=backend)
            for item in load_pool("mix")
            for backend in BACKENDS
        ]
        + kernel_items(0, quick=True)
    )
    usable = available_backends()
    return (
        [item for item in every if item.backend in usable],
        [item.name for item in every if item.backend not in usable],
    )


def report_text(report) -> str:
    """Every field of an ``ExecutionReport`` but the wall clock."""
    doc = dataclasses.asdict(report)
    del doc["wall_s"]
    return json.dumps(doc, sort_keys=True)


def compute(runnable: list) -> dict:
    """The digest of every item of *runnable*, through one fresh engine."""
    from repro.api import Engine, EngineConfig

    engine = Engine(EngineConfig(use_disk_cache=False))
    digests = {}
    try:
        for item in runnable:
            try:
                text = report_text(engine.compile(item.source).execute(
                    item.loop, item.params, item.arrays, backend=item.backend,
                    jobs=JOBS, exact_strategy=item.strategy, **item.options,
                ))
            except Exception as exc:  # pinned like any other outcome
                text = f"{type(exc).__name__}: {exc}"
            digests[item.name] = {"report": _sha(text)}
    finally:
        engine.close()
    return digests


def generated_units(program):
    """``Lowered`` for every unit of *program* the machine can compile,
    both variants, in program order: array extents, ``main``, subroutine
    bodies, then whatever generated code hands back to the machine
    (labelled loops' bounds and conditions, their bodies -- as the body
    unit the per-iteration reference of ``tests/property`` enters, and
    as the loop unit the machine runs -- call arguments, bodies nested
    past the emitter's depth limit)."""
    from repro.ir.ast import Call, Do, While
    from repro.ir.lower import lower

    pending = [decl.size for decl in program.arrays] + [program.main]
    pending += [sub.body for sub in program.subroutines.values()]
    while pending:
        node = pending.pop(0)
        plain = lower(node, False)
        yield plain
        yield lower(node, True)
        if isinstance(node, (Do, While)):
            continue  # what it hands back, its body (pending too) does
        for const in plain.consts:
            if isinstance(const, Do):
                pending += [const.lower, const.upper, const.body, const]
            elif isinstance(const, While):
                pending += [const.cond, const.body, const]
            elif isinstance(const, Call):
                pending += [expr for arg in const.args
                            for expr in (arg.offset, arg.scalar) if expr is not None]
            else:
                pending.append(const)


def lowered_line() -> str:
    """One line naming the generated code of every pinned program."""
    from benchinputs import kernel_items, load_pool
    from repro.ir import parse_program
    from repro.workloads import ALL_BENCHMARKS

    sources = dict.fromkeys(
        [bench.source for bench in ALL_BENCHMARKS]
        + [item.source for item in kernel_items(0, quick=True)]
        + [item.source for item in load_pool("mix")]
    )
    texts = [
        unit.source
        for source in sources
        for unit in generated_units(parse_program(source))
    ]
    for text in texts:
        compile(text, "<lowered>", "exec")
    lines = sum(text.count("\n") for text in texts)
    return (f"exec-digests: lowered {len(sources)} programs to {len(texts)} "
            f"functions, {lines} lines, sha256 {_sha(''.join(texts))}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="re-pin tests/golden/exec_digests.json")
    mode.add_argument("--check", action="store_true",
                      help="compare one pass with the golden file")
    mode.add_argument("--lowered", action="store_true",
                      help="print one sha256 over the generated code of "
                           "every pinned program (no execution)")
    args = parser.parse_args(argv)

    if args.lowered:
        print(lowered_line())
        return 0
    runnable, skipped = items()
    if args.write and skipped:
        parser.error(f"--write needs every backend; cannot run {skipped[:3]}...")
    digests = compute(runnable)
    if args.write:
        GOLDEN.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
        print(f"exec-digests: wrote {len(digests)} item(s) to "
              f"{GOLDEN.relative_to(ROOT)}")
        return 0
    golden = json.loads(GOLDEN.read_text())
    for name in skipped:
        golden.pop(name, None)
    problems = mismatches(digests, golden, ("report",))
    if problems:
        print("\n".join(problems[:40]))
        print(f"\nexec-digests: FAILED ({len(problems)} problem(s))")
        return 1
    print(f"exec-digests: every item matches {GOLDEN.relative_to(ROOT)}"
          + (f" ({len(skipped)} skipped: backend unavailable)" if skipped else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The per-iteration ladder: what each layer around a loop body costs.

For ``saxpy``, ``gather``, ``histogram`` (one-statement bodies, N in the
thousands) and ``coarse`` (98 outer trips of a 160-trip inner loop) --
``bench/benchinputs.kernel_items(0)``, the inputs ``exec_kernels`` runs
-- time, best of 7, in µs per iteration of the target loop:

* ``loop unit``       the loop's generated unit, in order, nothing observed
* ``plain body``      the generated body alone, entered once an iteration
* ``recording body``  the same under one ``IterationRecord``
* ``in-order``        ``sequential_execute`` (``bench/``'s honest baseline)
* ``capture``         ``HybridExecutor.capture_task`` (the ground truth)
* ``chunk/thread``    the ``thread`` backend: 2 chunks; every array is
                      called ``shared`` here, so on all four kernels they
                      write one target in place, with no outcome or merge
* ``chunk/process``   the ``process`` backend: 2 chunks over the pool,
                      one outcome each, merged
* ``marked chunk``    the ``speculative`` backend's unit, inline: every
                      iteration in one chunk, in place, under LRPD marks
                      (the plan's reductions exempt, as the backend has them)
* ``iter/sequential`` the reference backend: every iteration isolated

The ``loop unit`` is the floor everything is read against: ``capture``
adds the machine, the whole-program run around the loop and the
per-iteration costs, ``chunk/thread`` the per-iteration scalar restart
and the one copy of the pre-loop memory (``chunk/process`` the copy-out
and the merge too), ``marked chunk`` the marks and a diff of the
reductions.  ``plain body`` is what an iteration cost
before the generated code owned the loop.  Single runs on this host
step by up to 2x; the minimum of 7 is the stable number::

    python tools/iter_ladder.py
"""

from __future__ import annotations

import dataclasses
import sys
import time

from plan_digests import ROOT

sys.path.insert(0, str(ROOT / "bench"))

REPEATS = 7
JOBS = 2


def best(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def ladder(item) -> tuple:
    """({rung: seconds per run of *item*'s target loop}, its trip count)."""
    from repro.api import Engine, EngineConfig
    from repro.ir.interp import IterationRecord, Machine, _Frame
    from repro.runtime.backends import get_backend
    from repro.runtime.backends.base import execute_marked_chunk
    from repro.runtime.backends.speculative import sequential_execute

    compiled = Engine(EngineConfig(use_disk_cache=False)).compile(item.source)
    executor = compiled.executor(item.loop)
    task = executor.capture_task(item.params, item.arrays)
    planned = compiled.execute(item.loop, item.params, item.arrays).decisions
    marked = dataclasses.replace(
        task, decisions={name: d.strategy for name, d in planned.items()}
    )
    task.decisions = {name: "shared" for name in task.pre_arrays}
    loop = task.program.find_loop(task.label)

    def fresh():
        machine = Machine(task.program, params=task.params, arrays=task.pre_arrays)
        return machine, _Frame(dict(task.pre_scalars), task.frame_arrays)

    def run_unit():
        machine, frame = fresh()
        machine.run_loop(loop, frame, task.iterations)

    def run_body(record):
        machine, frame = fresh()
        machine._active_record = record
        for i in task.iterations:
            frame.scalars[task.index_name] = i
            machine._exec_body(loop.body, frame)

    def backend(name):
        return lambda: get_backend(name).execute(task, jobs=JOBS)

    backend("process")()  # spin the pool up
    return {
        "loop unit": best(run_unit),
        "plain body": best(lambda: run_body(None)),
        "recording body": best(lambda: run_body(IterationRecord(0))),
        "in-order": best(lambda: sequential_execute(task)),
        "capture": best(lambda: executor.capture_task(item.params, item.arrays)),
        "chunk/thread": best(backend("thread")),
        "chunk/process": best(backend("process")),
        "marked chunk": best(
            lambda: execute_marked_chunk(marked, range(len(task.iterations)))
        ),
        "iter/sequential": best(backend("sequential")),
    }, len(task.iterations)


def main() -> int:
    from benchinputs import kernel_items

    items = {item.name: item for item in kernel_items(0)}
    for name in ("saxpy@thread", "gather@thread", "histogram@thread", "coarse@thread"):
        rungs, trips = ladder(items[name])
        print(f"{name.split('@')[0]}: {trips} iterations, best of {REPEATS}, "
              "us/iteration (x loop unit)")
        floor = rungs["loop unit"]
        for rung, seconds in rungs.items():
            print(f"  {rung:<16} {seconds / trips * 1e6:9.2f}  "
                  f"({seconds / floor:5.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

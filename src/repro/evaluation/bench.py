"""Real-execution benchmark harness (``repro-eval bench``).

The evaluation tables simulate the paper's machines through a cost
model; this harness measures the *actual* wall-clock cost of running
validated parallel loops on every execution backend
(:mod:`repro.runtime.backends`), and writes the measurements to a
schema-stable ``BENCH_<suite>.json`` trajectory document so CI (and
future PRs) can track execution performance over time.

Schema contract, pinned by ``tools/check_bench_schema.py`` and
``tests/unit/test_bench_schema.py``:

* :data:`BENCH_VERSION` is part of every document; readers reject
  unknown versions;
* documents are serialized with
  :func:`repro.api.protocol.canonical_json` -- sorted keys, indent 1 --
  so ``parse -> re-serialize`` is byte-identical and diffs between
  trajectory points are meaningful;
* only measured quantities vary between runs: the key set and the
  workload/backend structure are functions of the suite alone.

Every workload asserts backend/interpreter equivalence as it runs
(``correct`` is the executor's ground-truth comparison); a bench run
with any equivalence failure exits non-zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from ..api import Engine, EngineConfig
from ..api.protocol import canonical_json
from ..runtime.backends import BACKENDS, ChunkSpec, available_backends

__all__ = [
    "BENCH_VERSION",
    "BenchWorkload",
    "BENCH_SUITES",
    "run_bench",
    "run_speculation_bench",
    "format_bench",
    "format_speculation_bench",
    "write_bench",
    "bench_path",
]

#: Bump on any change to the BENCH_*.json document shape.
BENCH_VERSION = 1


@dataclass
class BenchWorkload:
    """One measured loop: a program plus concrete inputs."""

    name: str
    source: str
    loop: str
    params: dict
    arrays: Callable[[], dict] = field(repr=False, default=dict)
    description: str = ""


def _permutation(n: int) -> list:
    """A deterministic permutation of 1..n (no RNG: bench inputs must
    be identical across runs and platforms)."""
    if n <= 2:
        return list(range(1, n + 1))
    out = [0] * n
    step = 7919  # prime; avoid degenerate strides for the usual n
    while n % step == 0 or step % n == 0:
        step += 2
    pos = 0
    for value in range(1, n + 1):
        pos = (pos + step) % n
        while out[pos] != 0:
            pos = (pos + 1) % n
        out[pos] = value
    return out


_SAXPY = """
program saxpy
param N
array A(N), B(N)

main
  do i = 1, N @ bench
    B[i] = (A[i] * 3) + i
  end
end
"""

_GATHER = """
program gather
param N
array A(N), B(N), C(N), IDX(N)

main
  do i = 1, N @ bench
    C[i] = A[IDX[i]] + B[i]
  end
end
"""

_STENCIL = """
program stencil
param N, M
array A(M), B(N)

main
  do i = 1, N @ bench
    t = A[i] + A[i + 1]
    B[i] = t + min(A[i], A[i + 1])
  end
end
"""

_HISTOGRAM = """
program histogram
param N, K
array H(K), V(N), IDX(N)

main
  do i = 1, N @ bench
    H[IDX[i]] = H[IDX[i]] + V[i]
  end
end
"""

_COARSE = """
program coarse
param N, M
array S(N), W(M)

main
  do i = 1, N @ bench
    do j = 1, M
      S[i] = S[i] + (W[j] * i)
    end
  end
end
"""


def _saxpy(n: int) -> BenchWorkload:
    return BenchWorkload(
        name="saxpy",
        source=_SAXPY,
        loop="bench",
        params={"N": n},
        arrays=lambda: {"A": [(i * 13) % 97 for i in range(n)]},
        description="fully-parallel affine map (vectorizable)",
    )


def _gather(n: int) -> BenchWorkload:
    return BenchWorkload(
        name="gather",
        source=_GATHER,
        loop="bench",
        params={"N": n},
        arrays=lambda: {
            "A": [(i * 31) % 211 for i in range(n)],
            "B": [i % 17 for i in range(n)],
            "IDX": _permutation(n),
        },
        description="indirect gather through an index permutation",
    )


def _stencil(n: int) -> BenchWorkload:
    return BenchWorkload(
        name="stencil",
        source=_STENCIL,
        loop="bench",
        params={"N": n, "M": n + 1},
        arrays=lambda: {"A": [(i * 7) % 129 for i in range(n + 1)]},
        description="read-only 2-point stencil with a scalar temporary",
    )


def _histogram(n: int, k: int) -> BenchWorkload:
    return BenchWorkload(
        name="histogram",
        source=_HISTOGRAM,
        loop="bench",
        params={"N": n, "K": k},
        arrays=lambda: {
            "V": [(i * 5) % 43 for i in range(n)],
            "IDX": [(i * 7919) % k + 1 for i in range(n)],
        },
        description="indirect additive reduction (delta-merged)",
    )


def _coarse(n: int, m: int) -> BenchWorkload:
    return BenchWorkload(
        name="coarse",
        source=_COARSE,
        loop="bench",
        params={"N": n, "M": m},
        arrays=lambda: {"W": [(i * 3) % 29 for i in range(m)]},
        description="coarse-grain iterations (nested inner loop)",
    )


#: Named workload suites.  'smoke' is the tiny CI configuration; 'core'
#: is the trajectory suite committed as BENCH_core.json.  The
#: 'speculation' suite is special-cased (see
#: :func:`run_speculation_bench`): its document has its own shape.
BENCH_SUITES: dict = {
    "core": lambda: [
        _saxpy(4000),
        _gather(2500),
        _stencil(2500),
        _histogram(2500, 64),
        _coarse(48, 160),
    ],
    "smoke": lambda: [
        _saxpy(1500),
        _histogram(800, 16),
    ],
}


# -- the speculation suite ----------------------------------------------------
#
# Loops the static cascade cannot validate: a non-additive indirect
# update (or scatter) whose independence depends entirely on the runtime
# contents of IDX.  These are the precision-gap shapes the speculative
# backend exists to win.  The gap workloads scatter sparsely into
# *large* shared arrays -- the regime the paper's O(accesses) shadow
# structures are designed for: the reference backend's per-iteration
# snapshots cost O(memory) per iteration, while speculation traces and
# undoes only what the loop actually touches.

_SPEC_UPDATE = """
program specupd
param N, M, K
array H(K), IDX(N), W(M)

main
  do i = 1, N @ bench
    t = 0
    do j = 1, M
      t = t + W[j] * i
    end
    H[IDX[i]] = t + H[IDX[i]] * 2
  end
end
"""

_SPEC_SCATTER = """
program specscat
param N, M, K
array OUT(K), IDX(N), W(M)

main
  do i = 1, N @ bench
    t = 0
    do j = 1, M
      t = t + W[j] + i
    end
    OUT[IDX[i]] = t
  end
end
"""

_SPEC_MAXUPD = """
program specmax
param N, M, K
array H(K), IDX(N), W(M)

main
  do i = 1, N @ bench
    t = 0
    do j = 1, M
      t = t + (W[j] * i)
    end
    H[IDX[i]] = max(H[IDX[i]], t)
  end
end
"""

_SPEC_TWOWAY = """
program spectwo
param N, M, K
array X(K), Y(K), IDX(N), W(M)

main
  do i = 1, N @ bench
    t = 0
    do j = 1, M
      t = t + W[j] - i
    end
    X[IDX[i]] = t
    Y[IDX[i]] = t + i
  end
end
"""


def _weights(m: int) -> list:
    return [(j * 11) % 23 for j in range(m)]


def _spec_workload(name, source, n, m, k, idx, description):
    return BenchWorkload(
        name=name,
        source=source,
        loop="bench",
        params={"N": n, "M": m, "K": k},
        arrays=lambda: {"IDX": idx, "W": _weights(m)},
        description=description,
    )


def _speculation_gap(n: int, m: int, k: int) -> list:
    """Commit-expected workloads: runtime-independent index vectors
    scattering sparsely into arrays of *k* cells."""
    # odd strides are coprime to the power-of-two k, so n < k indices
    # are pairwise distinct
    spread = [((i * 7919) % k) + 1 for i in range(n)]
    stride = [((i * 4099) % k) + 1 for i in range(n)]
    return [
        _spec_workload(
            "update_spread", _SPEC_UPDATE, n, m, k, spread,
            "non-additive indirect update, spread distinct indices",
        ),
        _spec_workload(
            "update_stride", _SPEC_UPDATE, n, m, k, stride,
            "non-additive indirect update, strided distinct indices",
        ),
        _spec_workload(
            "scatter_spread", _SPEC_SCATTER, n, m, k, spread,
            "indirect scatter, spread distinct indices",
        ),
        _spec_workload(
            "max_update", _SPEC_MAXUPD, n, m, k, spread,
            "indirect max-update, spread distinct indices",
        ),
        _spec_workload(
            "two_way_scatter", _SPEC_TWOWAY, n, m, k, stride,
            "two-array indirect scatter, strided distinct indices",
        ),
    ]


# Conflict loops carry their weight in a scalar-only inner loop: array
# tracing overhead on reads the LRPD test never needs would inflate the
# optimistic run, and the loss ratio is supposed to charge the
# *misspeculation*, not the tracer.
_CONF_UPDATE = """
program confupd
param N, M, K
array H(K), IDX(N)

main
  do i = 1, N @ bench
    t = 0
    do j = 1, M
      t = t + (i * j) - j
    end
    H[IDX[i]] = t + H[IDX[i]] * 2
  end
end
"""

_CONF_MAXUPD = """
program confmax
param N, M, K
array H(K), IDX(N)

main
  do i = 1, N @ bench
    t = 0
    do j = 1, M
      t = t + (i * j) - j
    end
    H[IDX[i]] = max(H[IDX[i]], t)
  end
end
"""


def _conf_workload(name, source, n, m, idx, description):
    return BenchWorkload(
        name=name,
        source=source,
        loop="bench",
        params={"N": n, "M": m, "K": n},
        arrays=lambda: {"IDX": idx},
        description=description,
    )


def _speculation_conflict(n: int, m: int) -> list:
    """Rollback-expected workloads: duplicated indices force true flow
    conflicts through the update's self-read."""
    dup = [((i * 3) % 8) + 1 for i in range(n)]
    hot = [(i % 4) + 1 for i in range(n)]
    return [
        _conf_workload(
            "update_dup", _CONF_UPDATE, n, m, dup,
            "indirect update over 8 duplicated cells",
        ),
        _conf_workload(
            "update_hot", _CONF_MAXUPD, n, m, hot,
            "indirect max-update over 4 hot cells",
        ),
    ]


def run_speculation_bench(
    jobs: int = 4,
    repeat: int = 3,
    engine: Optional[Engine] = None,
    trips: int = 128,
    inner: int = 320,
    cells: int = 32768,
) -> dict:
    """Measure the speculative backend on the precision-gap workloads
    (``repro-eval bench --suite speculation``).

    Unlike :func:`run_bench`, all contenders run over the *same frozen*
    :class:`~repro.runtime.backends.LoopTask`
    (:meth:`~repro.runtime.executor.HybridExecutor.capture_task`), so
    the comparison is execution-only.  Three walls are timed per
    workload:

    * ``sequential_wall_s`` (gap section only) -- the reference
      :class:`~repro.runtime.backends.SequentialBackend`, the same
      baseline every other BENCH document's ``speedup`` is measured
      against.  Its per-iteration snapshots cost O(memory) per
      iteration, which is exactly what the paper's O(accesses) shadow
      structures avoid.  The reference executes iterations
      independently, so it is only meaningful on loops that really are
      independent -- conflict workloads skip it;
    * ``inorder_wall_s`` -- bare
      :func:`~repro.runtime.backends.speculative.sequential_execute`:
      no tracing, no snapshots, the floor cost of just running the loop
      in order;
    * ``speculative_wall_s`` -- the full optimistic pipeline: marked
      parallel run, LRPD validation, commit (or rollback plus in-order
      re-execution).

    ``gap.win_fraction`` counts workloads where speculation commits and
    beats the reference baseline.  ``conflict.max_loss`` is the
    misspeculation penalty measured against the *stricter* in-order
    wall (``speculative_wall_s / inorder_wall_s``) -- a rollback hidden
    behind the reference's snapshot cost would be a meaningless number.
    """
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1 (got {repeat})")
    from time import perf_counter

    from ..runtime.backends import get_backend
    from ..runtime.backends.speculative import sequential_execute

    engine = engine or Engine(EngineConfig(use_disk_cache=False))
    reference = get_backend("sequential")
    backend = get_backend("speculative")

    def best_of(fn):
        wall = None
        out = None
        for _ in range(repeat):
            start = perf_counter()
            result = fn()
            elapsed = perf_counter() - start
            if wall is None or elapsed < wall:
                wall = elapsed
                out = result
        return wall, out

    equivalence_ok = True
    sections: dict = {}
    for section, workloads, expect_commit in (
        ("gap", _speculation_gap(trips, inner, cells), True),
        ("conflict", _speculation_conflict(48, 800), False),
    ):
        docs = []
        for workload in workloads:
            compiled = engine.compile(workload.source)
            task = compiled.executor(
                workload.loop, backend="speculative"
            ).capture_task(workload.params, workload.arrays())
            inorder_wall, (inorder_arrays, _scalars) = best_of(
                lambda: sequential_execute(task)
            )
            spec_wall, run = best_of(
                lambda: backend.execute(task, jobs=jobs)
            )
            outcome = run.speculation
            correct = (
                run.arrays == inorder_arrays
                and outcome["committed"] == expect_commit
            )
            entry = {
                "committed": outcome["committed"],
                "description": workload.description,
                "inorder_wall_s": round(inorder_wall, 6),
                "name": workload.name,
                "rollbacks": outcome["rollbacks"],
                "speculative_wall_s": round(spec_wall, 6),
                "traced_accesses": outcome["traced_accesses"],
                "trips": len(task.iterations),
            }
            if section == "gap":
                # the reference backend only means anything on a loop
                # whose iterations really are independent -- i.e. the
                # commit-expected section
                ref_wall, ref_run = best_of(
                    lambda: reference.execute(task, jobs=jobs)
                )
                correct = correct and ref_run.arrays == inorder_arrays
                entry["sequential_wall_s"] = round(ref_wall, 6)
                entry["speedup"] = (
                    round(ref_wall / spec_wall, 3) if spec_wall > 0 else None
                )
            else:
                entry["loss"] = (
                    round(spec_wall / inorder_wall, 3)
                    if inorder_wall > 0
                    else None
                )
            entry["correct"] = correct
            equivalence_ok = equivalence_ok and correct
            docs.append(entry)
        sections[section] = docs
    wins = [
        w for w in sections["gap"]
        if w["committed"] and w["speedup"] is not None and w["speedup"] > 1.0
    ]
    losses = [
        w["loss"] for w in sections["conflict"] if w["loss"] is not None
    ]
    return {
        "conflict": {
            "max_loss": round(max(losses), 3) if losses else None,
            "workloads": sections["conflict"],
        },
        "equivalence_ok": equivalence_ok,
        "gap": {
            "win_fraction": round(len(wins) / len(sections["gap"]), 3),
            "workloads": sections["gap"],
        },
        "jobs": jobs,
        "repeat": repeat,
        "suite": "speculation",
        "version": BENCH_VERSION,
    }


def format_speculation_bench(doc: dict) -> str:
    """Human-readable summary of one speculation bench document."""
    lines = [
        f"suite speculation: jobs={doc['jobs']} repeat={doc['repeat']}"
    ]
    header = (
        f"{'workload':<16} {'outcome':<9} {'ref_s':>10} {'inorder_s':>10} "
        f"{'spec_s':>10} {'ratio':>7} {'ok':>3}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for section, key in (("gap", "speedup"), ("conflict", "loss")):
        for entry in doc[section]["workloads"]:
            ratio = entry[key]
            outcome = "commit" if entry["committed"] else "rollback"
            ref = entry.get("sequential_wall_s")
            lines.append(
                f"{entry['name']:<16} {outcome:<9} "
                f"{'-' if ref is None else f'{ref:.6f}':>10} "
                f"{entry['inorder_wall_s']:>10.6f} "
                f"{entry['speculative_wall_s']:>10.6f} "
                f"{'-' if ratio is None else f'{ratio:.3f}':>7} "
                f"{'yes' if entry['correct'] else 'NO':>3}"
            )
    lines.append(
        f"gap win fraction: {doc['gap']['win_fraction']:.3f}  "
        f"conflict max loss: {doc['conflict']['max_loss']}"
    )
    lines.append(
        "equivalence: " + ("ok" if doc["equivalence_ok"] else "FAILED")
    )
    return "\n".join(lines)


def run_bench(
    suite: str = "core",
    backends: Optional[list] = None,
    jobs: int = 4,
    chunk: Optional[dict] = None,
    repeat: int = 3,
    engine: Optional[Engine] = None,
) -> dict:
    """Measure every workload of *suite* on every backend.

    Returns the BENCH document (see the module docstring for the schema
    contract).  Per (workload, backend) the *best* of ``repeat`` runs is
    recorded -- the usual defence against scheduler noise.
    """
    make = BENCH_SUITES.get(suite)
    if make is None:
        raise KeyError(
            f"unknown bench suite {suite!r}; valid: {sorted(BENCH_SUITES)}"
        )
    if backends is None:
        backends = available_backends()
    unknown = [b for b in backends if b not in BACKENDS]
    if unknown:
        raise KeyError(
            f"unknown backend(s) {unknown}; valid: {list(BACKENDS)}"
        )
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1 (got {repeat})")
    chunk_spec = ChunkSpec.from_json(chunk)
    engine = engine or Engine(EngineConfig(use_disk_cache=False))
    workload_docs = []
    wins = []
    equivalence_ok = True
    for workload in make():
        compiled = engine.compile(workload.source)
        results: dict = {}
        sequential_wall = None
        last_report = None
        for backend in backends:
            best = None
            all_correct = True
            for _ in range(repeat):
                report = compiled.execute(
                    workload.loop,
                    workload.params,
                    workload.arrays(),
                    backend=backend,
                    jobs=jobs,
                    chunk=chunk_spec.to_json(),
                )
                # every repeat run must match the interpreter -- an
                # intermittent divergence in a non-best run is still a
                # divergence
                all_correct = all_correct and report.correct
                if best is None or report.wall_s < best.wall_s:
                    best = report
            equivalence_ok = equivalence_ok and all_correct
            last_report = best
            results[backend] = {
                "backend_used": best.backend_used,
                "chunks": best.chunks,
                "correct": all_correct,
                "jobs": best.jobs,
                "parallel": best.parallel,
                "wall_s": round(best.wall_s, 6),
            }
            if backend == "sequential":
                sequential_wall = best.wall_s
        for backend, entry in results.items():
            if sequential_wall and entry["wall_s"] > 0:
                speedup = round(sequential_wall / entry["wall_s"], 3)
            else:
                # no sequential baseline in this run: never fabricate a
                # number into the trajectory document
                speedup = None
            entry["speedup"] = speedup
            if (
                backend != "sequential"
                and speedup is not None
                and entry["backend_used"] == backend
                and entry["parallel"]
                and speedup > 1.0
            ):
                wins.append(
                    {"backend": backend, "speedup": speedup,
                     "workload": workload.name}
                )
        # seq_work/trips come from the ground-truth capture every report
        # already carries -- no extra execution needed
        workload_docs.append(
            {
                "description": workload.description,
                "loop": workload.loop,
                "name": workload.name,
                "results": results,
                "seq_work": last_report.seq_work,
                "trips": len(last_report.iteration_costs),
            }
        )
    wins.sort(key=lambda w: (w["workload"], w["backend"]))
    return {
        "backends": list(backends),
        "chunk": chunk_spec.to_json(),
        "equivalence_ok": equivalence_ok,
        "jobs": jobs,
        "parallel_wins": wins,
        "repeat": repeat,
        "suite": suite,
        "version": BENCH_VERSION,
        "workloads": workload_docs,
    }


def bench_path(suite: str, directory: str = ".") -> Path:
    return Path(directory) / f"BENCH_{suite}.json"


def write_bench(doc: dict, directory: str = ".") -> Path:
    """Serialize *doc* to its trajectory file in canonical form."""
    path = bench_path(doc["suite"], directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(doc) + "\n")
    return path


def format_bench(doc: dict) -> str:
    """Human-readable summary of one bench document."""
    lines = []
    header = (
        f"{'workload':<12} {'backend':<11} {'used':<11} "
        f"{'wall_s':>10} {'speedup':>8} {'chunks':>6} {'ok':>3}"
    )
    lines.append(
        f"suite {doc['suite']}: jobs={doc['jobs']} "
        f"chunk={doc['chunk']['policy']} repeat={doc['repeat']}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for workload in doc["workloads"]:
        for backend in doc["backends"]:
            entry = workload["results"][backend]
            speedup = entry["speedup"]
            speedup_text = "-" if speedup is None else f"{speedup:.3f}"
            lines.append(
                f"{workload['name']:<12} {backend:<11} "
                f"{entry['backend_used']:<11} {entry['wall_s']:>10.6f} "
                f"{speedup_text:>8} {entry['chunks']:>6} "
                f"{'yes' if entry['correct'] else 'NO':>3}"
            )
    if doc["parallel_wins"]:
        best = max(doc["parallel_wins"], key=lambda w: w["speedup"])
        lines.append(
            f"{len(doc['parallel_wins'])} parallel win(s); best: "
            f"{best['backend']} {best['speedup']:.3f}x on {best['workload']}"
        )
    else:
        lines.append("no parallel backend beat sequential on this host")
    lines.append(
        "equivalence: " + ("ok" if doc["equivalence_ok"] else "FAILED")
    )
    return "\n".join(lines)

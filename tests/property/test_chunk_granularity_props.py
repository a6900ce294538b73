"""A chunk is one iteration of the coarsened loop -- as an executable
check.

For every loop the runtime validates (regression corpus, fuzz seeds and
curated shapes), the ``thread`` and ``process`` backends must give the
``sequential`` reference backend's arrays *and* final scalars however
the iteration space is carved.  Chunk size 1 makes the chunk path
degenerate to the reference's per-iteration semantics; sizes 2 and n
coarsen it, and the equality is the soundness argument of
``runtime/backends/base.py`` run on real plans: a private array written
by two chunks, a reduction hit by several, CIV prefixes, a loop entered
more than once and a while loop are all in the curated set.

A chunk is copied out by diffing the arrays its loop assigns against the
pre-loop memory wherever the task allows it, from its access record
elsewhere (``base._copy_out`` decides).  ``test_copy_out_*`` run every
validated task both ways -- the record forced by switching the diff off
-- and require the same merged arrays and final scalars from both, equal
to the reference's, at chunk sizes 1, 2 and n.
"""

from pathlib import Path

import pytest

from repro.api import Engine, EngineConfig
from repro.fuzz import generate_case, load_corpus_case
from repro.ir.interp import copy_arrays
from repro.runtime.backends import CHUNK_POLICIES, ChunkSpec, get_backend, plan_chunks
from repro.runtime.backends import base

CORPUS = sorted(
    (Path(__file__).parent.parent / "regression" / "corpus").glob("*.json")
)
SEEDS = range(40)

_CURATED = {
    "private_written_by_every_chunk": (
        "program p\nparam N\narray T(4), OUT(N)\nmain\n"
        "  do i = 1, N @ target\n    T[1] = i * 2\n    T[2] = T[1] + 1\n"
        "    OUT[i] = T[2]\n  end\n  OUT[1] = T[2]\nend\n",
        {"N": 9}, {},
    ),
    "reduction_hit_by_several_chunks": (
        "program p\nparam N, K\narray H(K), V(N), IDX(N)\nmain\n"
        "  do i = 1, N @ target\n    H[IDX[i]] = H[IDX[i]] + V[i]\n  end\nend\n",
        {"N": 12, "K": 3},
        {"IDX": [i % 3 + 1 for i in range(12)], "V": list(range(12)),
         "H": [7, 8, 9]},
    ),
    "civ": (
        "program p\nparam N\narray OUT(64), NSP(N)\nmain\n  w = 0\n"
        "  do i = 1, N @ target\n    do j = 1, NSP[i]\n      OUT[w + j] = i\n"
        "    end\n    w = w + NSP[i]\n  end\n  OUT[64] = w\nend\n",
        {"N": 8}, {"NSP": [2, 0, 3, 1, 1, 0, 4, 2]},
    ),
    "entered_twice": (
        "program p\nparam N\narray A(N), B(N)\nmain\n  do k = 1, 2\n"
        "    do i = 1, k * 3 @ target\n      A[i] = B[i] + k\n    end\n"
        "    B[1] = B[1] + A[6]\n  end\nend\n",
        {"N": 6}, {"B": [1, 2, 3, 4, 5, 6]},
    ),
    "while": (
        "program p\nparam N\narray OUT(N)\nmain\n  k = 1\n"
        "  while k <= N @ target\n    OUT[k] = k * 3\n    k = k + 1\n  end\n"
        "  OUT[1] = k\nend\n",
        {"N": 7}, {},
    ),
}


def _reference_runs(source, label, params, arrays, strategy="inspector"):
    """[(task, arrays, final scalars)] -- one per entry into the loop --
    of a validated execute on the reference backend; [] when the
    runtime kept the loop sequential."""
    backend = get_backend("sequential")
    seen = []

    def spy(task, jobs=None, chunk=None):
        run = type(backend).execute(backend, task, jobs=jobs, chunk=chunk)
        # the program's tail goes on to write into run.arrays
        seen.append((task, copy_arrays(run.arrays), dict(run.final_scalars)))
        return run

    backend.execute = spy
    try:
        report = Engine(EngineConfig(use_disk_cache=False)).compile(source).execute(
            label, params, arrays, backend="sequential", exact_strategy=strategy
        )
    except ValueError:
        return []  # the target loop never executed for these inputs
    finally:
        del backend.execute
    assert report.correct
    return seen if report.parallel else []


def _assert_chunking_is_invisible(runs):
    for task, arrays, scalars in runs:
        n = len(task.iterations)
        for name in ("thread", "process"):
            for policy in CHUNK_POLICIES:
                for size in (1, 2, max(n, 1), None):
                    run = get_backend(name).execute(
                        task, jobs=2, chunk=ChunkSpec(policy, size)
                    )
                    where = f"{name} {policy} size={size} of {n}"
                    assert run.arrays == arrays, where
                    assert run.final_scalars == scalars, where


@pytest.mark.parametrize("shape", sorted(_CURATED))
def test_curated_shapes(shape):
    source, params, arrays = _CURATED[shape]
    runs = _reference_runs(source, "target", params, arrays)
    assert len(runs) == (2 if shape == "entered_twice" else 1), "must validate"
    assert all(len(task.iterations) > 2 for task, _, _ in runs)
    _assert_chunking_is_invisible(runs)


def test_curated_shapes_exercise_every_merge_rule():
    strategies, civs = set(), set()
    for source, params, arrays in _CURATED.values():
        for task, _, _ in _reference_runs(source, "target", params, arrays):
            strategies |= set(task.decisions.values())
            civs |= set(task.civ_names)
    assert strategies == {"shared", "private", "reduction"}
    assert civs == {"w", "k"}  # the DO loop's and the while loop's


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_programs(path):
    case = load_corpus_case(path).to_case()
    _assert_chunking_is_invisible(_reference_runs(
        case.source, case.label, case.params, case.arrays, case.exact_strategy
    ))


def test_fuzz_seeds():
    validated = 0
    for seed in SEEDS:
        case = generate_case(seed)
        runs = _reference_runs(
            case.source, case.label, case.params, case.arrays, case.exact_strategy
        )
        validated += bool(runs)
        _assert_chunking_is_invisible(runs)
    assert validated >= 10, f"only {validated} of {len(SEEDS)} seeds validated"


# -- two ways to copy a chunk out ---------------------------------------------------


def _by_chunks(task, size):
    outcomes = [
        base.execute_chunk(task, chunk)
        for chunk in plan_chunks(len(task.iterations), 2, ChunkSpec("static", size))
    ]
    return (
        base.merge_outcomes(task.pre_arrays, outcomes, task.decisions),
        base.last_scalars(outcomes),
    )


def _assert_copy_outs_agree(runs, monkeypatch) -> int:
    """How many of *runs* the diff applies to; every one of them must
    come out the same by diff and by record."""
    diffed = 0
    for task, arrays, scalars in runs:
        loop = task.program.find_loop(task.label)
        route, assigned = base._copy_out(task, loop, len(task.iterations))
        if route == "diff":  # never an array merged by last value
            assert all(task.decisions[arr] in ("shared", "reduction") for arr in assigned)
            diffed += 1
        for size in {1, 2, max(len(task.iterations), 1)}:
            by_diff = _by_chunks(task, size)
            with monkeypatch.context() as patch:
                patch.setattr(base, "_copy_out", lambda *args: ("record", []))
                by_record = _by_chunks(task, size)
            assert by_diff == by_record == (arrays, scalars), (task.label, size)
    return diffed


@pytest.mark.parametrize("shape", sorted(_CURATED))
def test_copy_out_curated_shapes(shape, monkeypatch):
    source, params, arrays = _CURATED[shape]
    runs = _reference_runs(source, "target", params, arrays)
    diffed = _assert_copy_outs_agree(runs, monkeypatch)
    # T is private in the first shape: its chunks keep their record
    assert diffed == (0 if shape == "private_written_by_every_chunk" else len(runs))


def test_copy_out_corpus_and_fuzz_seeds(monkeypatch):
    cases = [load_corpus_case(path).to_case() for path in CORPUS]
    cases += [generate_case(seed) for seed in SEEDS]
    validated = diffed = 0
    for case in cases:
        runs = _reference_runs(
            case.source, case.label, case.params, case.arrays, case.exact_strategy
        )
        validated += len(runs)
        diffed += _assert_copy_outs_agree(runs, monkeypatch)
    assert 10 <= diffed < validated, (diffed, validated)  # both copy-outs are exercised

"""All-``shared`` tasks on the ``thread`` backend, held to the reference,
and the contract that lets the executor hand a backend live memory.

A task every array of which is decided ``shared`` has no location that
one iteration writes and another touches, so however the iteration
space is carved, the ``thread`` backend must give the ``sequential``
reference backend's arrays and final scalars: trip counts around the
chunk boundaries, one worker, a static split, chunks of one and of
three; disjoint writes, a write that stores the pre-loop value back,
reads of an array nothing assigns, a loop whose frame binds an array
at an offset, and CIV prefixes; and every all-``shared`` task the fuzz
seeds 0-59 validate.

Every backend leaves ``task.pre_arrays`` byte for byte as it found
them and runs the same task twice to the same :class:`BackendRun`.
The executor relies on it: it checks each run of a captured task against
the loop's exit state, which shares the snapshot's lists, and its
arbiter builds a task over the machine's own memory, not over a
snapshot of it.
"""

import pickle
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import Engine, EngineConfig
from repro.fuzz import generate_case
from repro.fuzz.oracle import fuzz_engine
from repro.runtime.backends import BACKENDS, ChunkSpec, get_backend, threads

TRIPS = (1, 2, 15, 16, 17, 64, 65)

#: (jobs, chunk spec): one worker, static, dynamic chunks of one and three
SCHEDULES = (
    (1, None),
    (2, ChunkSpec("static")),
    (2, ChunkSpec("dynamic", 1)),
    (2, ChunkSpec("dynamic", 3)),
)

#: name -> (source, arrays for N trips); every array of each is shared
_SHAPES = {
    "disjoint_writes": (
        "program p\nparam N\narray A(N), B(N)\nmain\n  do i = 1, N @ l\n"
        "    A[i] = B[i] * 2 + i\n    B[i] = i - 1\n  end\nend\n",
        lambda n: {"A": [9] * n, "B": list(range(n))},
    ),
    "stores_the_pre_loop_value_back": (
        "program p\nparam N\narray A(N), B(N)\nmain\n  do i = 1, N @ l\n"
        "    A[i] = 5\n    B[i] = A[i] + i\n  end\nend\n",
        lambda n: {"A": [5 if i % 2 else 0 for i in range(n)]},
    ),
    "reads_a_never_assigned_array": (
        "program p\nparam N\narray A(N), C(N)\nmain\n  do i = 1, N @ l\n"
        "    A[i] = C[N + 1 - i] + C[1]\n  end\nend\n",
        lambda n: {"C": [3 * i + 1 for i in range(n)]},
    ),
    "offset_frame_binding": (
        "program p\nparam N\narray A(N + 4), B(N)\n"
        "subroutine sweep(X[], Y[])\n  do i = 1, N @ l\n"
        "    X[i] = Y[i] + X[i]\n  end\nend\n"
        "main\n  call sweep(A[] + 3, B[])\n  B[1] = A[4]\nend\n",
        lambda n: {"A": list(range(n + 4)), "B": [7] * n},
    ),
    "civ_prefixes": (
        "program p\nparam N\narray A(N), C(N)\nmain\n  k = 0\n"
        "  do i = 1, N @ l\n    if C[i] > 0 then\n      k = k + 1\n"
        "      A[k] = i\n    end\n  end\n  C[1] = k\nend\n",
        lambda n: {"C": [i % 3 for i in range(n)]},
    ),
}


def _all_shared(task):
    task.decisions = {name: "shared" for name in task.pre_arrays}
    return task


def _shape_task(shape, trips):
    source, arrays = _SHAPES[shape]
    compiled = Engine(EngineConfig(use_disk_cache=False)).compile(source)
    task = compiled.executor("l").capture_task({"N": trips}, arrays(trips))
    assert len(task.iterations) == trips
    return _all_shared(task)


def _assert_thread_is_the_reference(task):
    reference = get_backend("sequential").execute(task)
    frozen = pickle.dumps(task.pre_arrays)
    for jobs, chunk in SCHEDULES:
        run = get_backend("thread").execute(task, jobs=jobs, chunk=chunk)
        where = f"jobs={jobs} {chunk}"
        assert run.arrays == reference.arrays, where
        assert run.final_scalars == reference.final_scalars, where
        assert pickle.dumps(task.pre_arrays) == frozen, where


@pytest.mark.parametrize("trips", TRIPS)
@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_thread_is_the_reference_on_all_shared_shapes(shape, trips):
    _assert_thread_is_the_reference(_shape_task(shape, trips))


@pytest.mark.parametrize(
    "shape", ("disjoint_writes", "reads_a_never_assigned_array",
              "stores_the_pre_loop_value_back")
)  # the other two index their arrays after the loop
def test_a_loop_of_no_trips_asks_no_pool_for_workers(shape, monkeypatch):
    """No iteration, no chunk: the run is the pre-loop memory, and a
    pool not yet made is not asked for zero workers."""
    monkeypatch.setattr(threads, "_THREADS", threads.KeptPool(ThreadPoolExecutor))
    task = _shape_task(shape, 0)
    run = get_backend("thread").execute(task, jobs=2)
    assert run.arrays == task.pre_arrays and run.final_scalars == {}
    assert threads._THREADS.executor is None


def test_the_shapes_write_what_they_are_meant_to():
    """The pins behind the shape names: the store-back shape leaves
    its 5s unchanged, the offset shape writes A past its first three
    elements, the CIV shape carries prefixes."""
    task = _shape_task("stores_the_pre_loop_value_back", 4)
    assert get_backend("sequential").execute(task).arrays["A"] == [5] * 4
    task = _shape_task("offset_frame_binding", 4)
    assert task.frame_arrays["X"] == ("A", 3)
    assert get_backend("sequential").execute(task).arrays["A"] == [0, 1, 2, 10, 11, 12, 13, 7]
    task = _shape_task("civ_prefixes", 6)
    assert task.civ_names == ("k",) and task.civ_values["k"] == [0, 0, 1, 2, 2, 3, 4]


def _validated_tasks(seed):
    """The tasks of fuzz *seed*'s execute on the reference backend, when
    the runtime ran the loop in parallel."""
    case = generate_case(seed)
    backend = get_backend("sequential")
    seen = []

    def spy(task, jobs=None, chunk=None):
        seen.append(task)
        return type(backend).execute(backend, task, jobs=jobs, chunk=chunk)

    backend.execute = spy
    try:
        report = fuzz_engine().compile(case.source, program=case.program).execute(
            case.label, case.params, case.arrays, backend="sequential",
            exact_strategy=case.exact_strategy,
        )
    except ValueError:
        return []  # the target loop never executed for these inputs
    finally:
        del backend.execute
    assert report.correct
    return seen if report.parallel else []


def test_thread_is_the_reference_on_the_fuzz_seeds_all_shared_tasks():
    shared = 0
    for seed in range(60):
        for task in _validated_tasks(seed):
            if set(task.decisions.values()) <= {"shared"}:
                shared += 1
                _assert_thread_is_the_reference(task)
    assert shared >= 10, f"only {shared} all-shared tasks in seeds 0-59"


# -- what every backend owes the task it is handed ----------------------------------

_MIXED = (
    "program p\nparam N\narray T(2), H(3), A(N), V(N)\nmain\n  do i = 1, N @ l\n"
    "    T[1] = V[i] * 2\n    A[i] = T[1] + 1\n    H[2] = H[2] + V[i]\n  end\nend\n"
)


def _contract_tasks():
    tasks = [_shape_task(shape, 17) for shape in sorted(_SHAPES)]
    compiled = Engine(EngineConfig(use_disk_cache=False)).compile(_MIXED)
    task = compiled.executor("l").capture_task({"N": 17}, {"V": list(range(17))})
    task.decisions = {"T": "private", "H": "reduction", "A": "shared", "V": "shared"}
    return tasks + [task]


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_a_backend_neither_writes_its_task_nor_depends_on_a_previous_run(name):
    backend = get_backend(name)
    if not type(backend).available():
        pytest.skip(f"{name} is not available here")
    ran = 0
    for task in _contract_tasks():
        if not backend.supports(task):
            continue
        frozen = pickle.dumps(task.pre_arrays)
        first = backend.execute(task, jobs=2)
        assert pickle.dumps(task.pre_arrays) == frozen, task.program.name
        assert backend.execute(task, jobs=2) == first, task.program.name
        assert pickle.dumps(task.pre_arrays) == frozen, task.program.name
        ran += 1
    assert ran >= 3

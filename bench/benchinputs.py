"""Seeded inputs of the five workloads.

The *programs* are fixed so that cost does not depend on the seed (two
fuzz programs in fifty take a second to analyse and the rest a few
milliseconds, so a per-seed draw would move every throughput number by
more than any bound): the 91 paper loops come from
``repro.workloads.ALL_BENCHMARKS``, the fuzz programs from the committed
``pool.json`` (written once by ``make_expected.py``), the kernels from
the sources below.  The *seed* decides everything else: the order items
are visited in, which program each request asks for, which requests
execute, and the data the kernels run on.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import accumulate

from benchlib import BENCH_DIR

#: analyze/execute split of the serve workloads
ANALYZE_FRACTION = 0.9
ZIPF_S = 1.1


@dataclass(frozen=True)
class Item:
    """One program + loop with ready-to-run inputs."""

    name: str
    source: str
    loop: str
    params: dict = field(default_factory=dict)
    arrays: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)
    #: exact-test fallback of the execute ('inspector' | 'tls')
    strategy: str = "inspector"
    #: execution backend of the execute
    backend: str = "thread"
    #: 'commit' | 'rollback' for speculative kernels, else ''
    expect: str = ""


def load_expected() -> dict:
    return json.loads((BENCH_DIR / "expected.json").read_text())


def load_pool(section: str) -> list:
    """The committed fuzz programs of *section* ('mix' | 'churn')."""
    pool = json.loads((BENCH_DIR / "pool.json").read_text())
    return [Item(**doc) for doc in pool[section]]


def paper_items() -> list:
    """The 91 measured loops of the paper's 26 benchmark models, at
    dataset scale 1."""
    from repro.workloads import ALL_BENCHMARKS, TLS_LOOPS

    items = []
    for bench in ALL_BENCHMARKS:
        params, arrays = bench.dataset(1)
        for loop in bench.loops:
            items.append(Item(
                name=f"{bench.name}/{loop.label}",
                source=bench.source,
                loop=loop.label,
                params=params,
                arrays=arrays,
                strategy="tls" if loop.label in TLS_LOOPS else "inspector",
            ))
    return items


def fingerprint(response) -> dict:
    """What ``expected.json`` pins of an ``AnalyzeResponse``: the
    classification, the techniques and each array's transform.  The
    cache flag, protocol version, digest and the three tier-provenance
    fields are left out, so a Tier-0 or protocol change need not edit
    the benchmark."""
    return {
        "classification": response.classification,
        "techniques": list(response.techniques),
        "arrays": {a.array: a.transform for a in response.arrays},
    }


def matches(entry: dict, response) -> bool:
    """Whether *response* has the fingerprint ``expected.json`` pins."""
    return all(entry[key] == value for key, value in fingerprint(response).items())


def shuffled(items: list, seed: int, salt: str) -> list:
    out = list(items)
    random.Random(f"{salt}:{seed}").shuffle(out)
    return out


def request_stream(seed: int, phase: str, programs: int, zipf: bool):
    """Endless deterministic ``(program index, is_execute)`` stream of
    one phase of a serve workload."""
    rng = random.Random(f"stream:{seed}:{phase}")
    if zipf:
        cumulative = list(accumulate(
            1.0 / (rank ** ZIPF_S) for rank in range(1, programs + 1)
        ))
        while True:
            index = rng.choices(range(programs), cum_weights=cumulative)[0]
            yield index, rng.random() >= ANALYZE_FRACTION
    while True:
        yield rng.randrange(programs), rng.random() >= ANALYZE_FRACTION


# -- kernels -----------------------------------------------------------------
#
# Same loop bodies as ``repro.evaluation.bench``'s core and speculation
# suites, owned here so that a refactor of that module cannot change
# what this benchmark runs.

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

#: kernels the NumPy backend vectorizes; the other two would silently
#: fall back to the snapshotting reference backend
VECTORIZABLE = ("saxpy", "gather", "stencil")


def kernel_items(seed: int, quick: bool = False) -> list:
    """The kernel × backend matrix (16 items) on seeded data.

    Trip counts are 2x ``BENCH_core.json``'s (one pass of the matrix
    must fit three times into a ten-second run)."""
    rng = random.Random(f"kernels:{seed}")
    div = 20 if quick else 1
    n_saxpy, n, n_coarse, m_coarse = 8000 // div, 5000 // div, 96 // div + 2, 160
    n_spec, m_spec, cells = 128 // (4 if quick else 1), 320, 32768
    n_conf, m_conf = 48, 800 // div

    def ints(count, top):
        return [rng.randrange(top) for _ in range(count)]

    permutation = list(range(1, n + 1))
    rng.shuffle(permutation)
    kernels = [
        ("saxpy", _SAXPY, {"N": n_saxpy}, {"A": ints(n_saxpy, 97)}),
        ("gather", _GATHER, {"N": n},
         {"A": ints(n, 211), "B": ints(n, 17), "IDX": permutation}),
        ("stencil", _STENCIL, {"N": n, "M": n + 1}, {"A": ints(n + 1, 129)}),
        ("histogram", _HISTOGRAM, {"N": n, "K": 64},
         {"V": ints(n, 43), "IDX": [rng.randrange(64) + 1 for _ in range(n)]}),
        ("coarse", _COARSE, {"N": n_coarse, "M": m_coarse},
         {"W": ints(m_coarse, 29)}),
    ]
    items = []
    for backend in ("thread", "process", "numpy"):
        for name, source, params, arrays in kernels:
            if backend == "numpy" and name not in VECTORIZABLE:
                continue
            items.append(Item(
                name=f"{name}@{backend}", source=source, loop="bench",
                params=params, arrays=arrays, backend=backend,
            ))
    # distinct cells commit; 48 draws from 8 cells must collide, and the
    # update reads the cell it writes, so the LRPD test rolls back
    weights = ints(m_spec, 23)
    speculative = [
        ("update_spread", _SPEC_UPDATE, "commit",
         {"N": n_spec, "M": m_spec, "K": cells},
         {"IDX": [c + 1 for c in rng.sample(range(cells), n_spec)],
          "W": weights}),
        ("scatter_spread", _SPEC_SCATTER, "commit",
         {"N": n_spec, "M": m_spec, "K": cells},
         {"IDX": [c + 1 for c in rng.sample(range(cells), n_spec)],
          "W": weights}),
        ("update_dup", _CONF_UPDATE, "rollback",
         {"N": n_conf, "M": m_conf, "K": n_conf},
         {"IDX": [rng.randrange(8) + 1 for _ in range(n_conf)]}),
    ]
    for name, source, expect, params, arrays in speculative:
        items.append(Item(
            name=f"{name}@speculative", source=source, loop="bench",
            params=params, arrays=arrays, backend="speculative",
            expect=expect,
        ))
    return items

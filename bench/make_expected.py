"""Regenerate ``pool.json`` and ``expected.json`` (run by hand, then
review and commit the diff; the benchmark itself never writes them).

    python3 bench/make_expected.py

``pool.json`` freezes the fuzz programs the workloads draw on, so a
change to the fuzz generator cannot silently change what is measured.
``expected.json`` pins, per program and loop, the analysis fingerprint
(see ``benchinputs.fingerprint``) and, for the paper loops, whether the
paper's system ran the loop in parallel (``LoopSpec.paper_parallel``,
transcribed from the paper's tables, not computed).
"""

from __future__ import annotations

import json
import sys
import time

from benchlib import BENCH_DIR, SRC

sys.path.insert(0, str(SRC))

from benchinputs import Item, fingerprint, paper_items  # noqa: E402

from repro.api import AnalyzeRequest, Engine, EngineConfig  # noqa: E402
from repro.server.loadgen import build_mix  # noqa: E402
from repro.symbolic.intern import clear_caches  # noqa: E402
from repro.workloads import ALL_BENCHMARKS  # noqa: E402

#: (section, build_mix seed, programs drawn, cold-analysis cap in s).
#: Analysis cost is bimodal: of the 400 churn candidates, 346 take under
#: 0.1 s (4.2 s together) and 38 take over 0.5 s (52 s together).  The
#: slow ones are represented in the mix (uncapped) and weighed by
#: ``compile_cold``; ``serve_churn`` keeps the 346, enough requests for
#: a median and a p90 that do not hang on which slow program met which.
POOLS = (("mix", 0, 32, None), ("churn", 2, 400, 0.1))


def _cold_seconds(engine, item) -> float:
    clear_caches()
    started = time.perf_counter()
    engine.analyze(AnalyzeRequest(
        source=item.source, loop=item.loop, options=item.options,
    ))
    return time.perf_counter() - started


def main() -> int:
    engine = Engine(EngineConfig(use_disk_cache=False))
    pool = {}
    for section, seed, programs, cap in POOLS:
        mix = build_mix(seed, programs, include_workloads=False)
        if len({item.source for item in mix}) != programs:
            raise SystemExit(f"{section}: duplicate programs in the pool")
        if cap is not None:
            mix = [item for item in mix if _cold_seconds(engine, item) < cap]
        pool[section] = [
            {"name": f"{section}{i:03d}", "source": item.source,
             "loop": item.loop, "params": item.params,
             "arrays": item.arrays, "options": item.options}
            for i, item in enumerate(mix)
        ]
    # one program a line: compact, and a regenerated pool still diffs
    sections = ",\n".join(
        f'"{section}":[\n'
        + ",\n".join(
            json.dumps(doc, sort_keys=True, separators=(",", ":")) for doc in docs
        )
        + "\n]"
        for section, docs in sorted(pool.items())
    )
    (BENCH_DIR / "pool.json").write_text("{" + sections + "}\n")

    paper_parallel = {
        f"{bench.name}/{loop.label}": loop.paper_parallel
        for bench in ALL_BENCHMARKS for loop in bench.loops
    }
    expected = {}
    fuzz = [Item(**doc) for docs in pool.values() for doc in docs]
    for item in paper_items() + fuzz:
        response = engine.analyze(AnalyzeRequest(
            source=item.source, loop=item.loop, options=item.options,
        ))
        entry = fingerprint(response)
        if item.name in paper_parallel:
            entry["paper_parallel"] = paper_parallel[item.name]
        expected[item.name] = entry
    (BENCH_DIR / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {len(expected)} fingerprints")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

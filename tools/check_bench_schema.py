#!/usr/bin/env python3
"""BENCH_*.json trajectory-document schema check (CI).

Pins the benchmark harness's document shape the same way
``check_api_surface.py`` pins ``repro.api``: the key set at every level
is exact (no silent growth or shrinkage), the version is one this
checker understands, and the file on disk is byte-identical to its own
canonical re-serialization (sorted keys, indent 1, trailing newline) --
so trajectory diffs between PRs only ever show measured values.

Usage::

    python tools/check_bench_schema.py                # every ./BENCH_*.json
    python tools/check_bench_schema.py path/to/BENCH_smoke.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: The version(s) of the document shape this checker understands.
KNOWN_VERSIONS = (1,)

#: Known BENCH_serving.json document versions.  Version 2 added the
#: multiproc front-tier section and the skew/multiplex loadgen keys.
#: Version 3 added the per-summary "slowest" top-K table (latency,
#: verb, trace id).
KNOWN_SERVING_VERSIONS = (1, 2, 3)

#: Known BENCH_speculation.json document versions.
KNOWN_SPECULATION_VERSIONS = (1,)

_TOP_KEYS = {
    "backends", "chunk", "equivalence_ok", "jobs", "parallel_wins",
    "repeat", "suite", "version", "workloads",
}

# -- serving-trajectory shape (suite == "serving") ---------------------------
_SERVING_TOP_KEYS = {
    "analyze_fraction", "compile_cache_size", "levels", "mean_speedup",
    "mode", "programs", "requests_per_level", "seed", "sharded_wins",
    "suite", "version", "workers",
}
_SERVING_LEVEL_KEYS = {"clients", "pools", "speedup"}
_SERVING_POOLS = {"sharded", "shared"}
#: One run_load summary document (version 1 shape).
_SERVING_SUMMARY_KEYS_V1 = {
    "analyze_fraction", "clients", "completed", "errors", "failures",
    "latency", "mode", "requests", "shed", "throughput_rps", "wall_s",
}
#: Version 2 added skew plumbing and connection accounting.
_SERVING_SUMMARY_KEYS_V2 = _SERVING_SUMMARY_KEYS_V1 | {
    "connections", "skew", "zipf_s",
}
#: Version 3 added the slowest-requests table.
_SERVING_SUMMARY_KEYS_V3 = _SERVING_SUMMARY_KEYS_V2 | {"slowest"}
_SERVING_SLOWEST_KEYS = {"latency_s", "trace_id", "verb"}
#: Pool entries add the server-side cache deltas to the summary.
_SERVING_POOL_EXTRA_KEYS = {"coalesced", "warm_hits"}
_SERVING_LATENCY_KEYS = {"max_s", "mean_s", "p50_s", "p95_s", "p99_s"}

# -- the multiproc section (serving version >= 2) ----------------------------
_MULTIPROC_TOP_KEYS = {
    "analyze_fraction", "backend_workers", "backends", "cold", "cpu_count",
    "hot_shard_wins", "multiproc_wins", "programs", "replicas",
    "requests_per_level", "seed", "single_workers", "zipf",
}
_MULTIPROC_COLD_KEYS = {"levels", "mean_speedup"}
_MULTIPROC_LEVEL_KEYS = {"clients", "speedup", "systems"}
_MULTIPROC_SYSTEMS = {"multiproc", "single"}
_MULTIPROC_ZIPF_KEYS = {
    "clients", "hot_rps", "multiplex", "p50_speedup", "p95_speedup",
    "requests", "systems", "throughput_speedup", "zipf_s",
}
#: The multiproc system's zipf summary carries front-tier counters.
_MULTIPROC_ZIPF_FRONT_KEYS = {"fanouts", "front_coalesced"}

# -- speculation-trajectory shape (suite == "speculation") -------------------
_SPECULATION_TOP_KEYS = {
    "conflict", "equivalence_ok", "gap", "jobs", "repeat", "suite",
    "version",
}
_SPECULATION_COMMON_KEYS = {
    "committed", "correct", "description", "inorder_wall_s", "name",
    "rollbacks", "speculative_wall_s", "traced_accesses", "trips",
}
_SPECULATION_GAP_KEYS = _SPECULATION_COMMON_KEYS | {
    "sequential_wall_s", "speedup",
}
_SPECULATION_CONFLICT_KEYS = _SPECULATION_COMMON_KEYS | {"loss"}

_CHUNK_KEYS = {"policy", "size"}
_WIN_KEYS = {"backend", "speedup", "workload"}
_WORKLOAD_KEYS = {
    "description", "loop", "name", "results", "seq_work", "trips",
}
_RESULT_KEYS = {
    "backend_used", "chunks", "correct", "jobs", "parallel", "speedup",
    "wall_s",
}


def _key_errors(what: str, payload: dict, expected: set) -> list:
    errors = []
    actual = set(payload)
    missing = sorted(expected - actual)
    extra = sorted(actual - expected)
    if missing:
        errors.append(f"{what}: missing key(s) {missing}")
    if extra:
        errors.append(f"{what}: unexpected key(s) {extra}")
    return errors


def _validate_load_summary(what: str, entry: dict, summary_keys: set,
                           extra_keys: set = frozenset()) -> list:
    """Schema problems of one run_load summary document."""
    errors = _key_errors(what, entry, summary_keys | extra_keys)
    if set(entry) != summary_keys | extra_keys:
        return errors
    errors.extend(_key_errors(
        f"{what} latency", entry["latency"], _SERVING_LATENCY_KEYS,
    ))
    if not isinstance(entry["throughput_rps"], (int, float)) or \
            entry["throughput_rps"] < 0:
        errors.append(f"{what}: 'throughput_rps' must be >= 0")
    if entry["failures"]:
        errors.append(
            f"{what}: transport failures recorded "
            f"({entry['failures'][:1]}...)"
        )
    if "skew" in entry and entry["skew"] not in ("uniform", "zipf"):
        errors.append(f"{what}: 'skew' must be 'uniform' or 'zipf'")
    if "slowest" in entry:
        slowest = entry["slowest"]
        if not isinstance(slowest, list):
            errors.append(f"{what}: 'slowest' must be a list")
        else:
            for slow in slowest:
                errors.extend(_key_errors(
                    f"{what} slowest entry", slow, _SERVING_SLOWEST_KEYS,
                ))
    return errors


def validate_multiproc_section(payload: dict,
                               summary_keys: set = None) -> list:
    """Schema problems of the multiproc front-tier section (empty =
    valid)."""
    if summary_keys is None:
        summary_keys = _SERVING_SUMMARY_KEYS_V2
    errors = _key_errors("multiproc", payload, _MULTIPROC_TOP_KEYS)
    if errors:
        return errors
    for key, minimum in (("backends", 1), ("backend_workers", 1),
                         ("replicas", 1), ("single_workers", 1)):
        if not isinstance(payload[key], int) or payload[key] < minimum:
            errors.append(f"multiproc: {key!r} must be an integer >= {minimum}")
    for key in ("multiproc_wins", "hot_shard_wins"):
        if not isinstance(payload[key], bool):
            errors.append(f"multiproc: {key!r} must be a boolean")
    cold = payload["cold"]
    errors.extend(_key_errors("multiproc cold", cold, _MULTIPROC_COLD_KEYS))
    if set(cold) == _MULTIPROC_COLD_KEYS:
        levels = cold["levels"]
        if not isinstance(levels, list) or not levels:
            errors.append("multiproc cold: 'levels' must be a non-empty list")
            levels = []
        for level in levels:
            errors.extend(_key_errors(
                "multiproc level", level, _MULTIPROC_LEVEL_KEYS,
            ))
            if set(level) != _MULTIPROC_LEVEL_KEYS:
                continue
            what = f"multiproc level clients={level['clients']!r}"
            if set(level["systems"]) != _MULTIPROC_SYSTEMS:
                errors.append(
                    f"{what}: systems cover {sorted(level['systems'])}, "
                    f"expected exactly {sorted(_MULTIPROC_SYSTEMS)}"
                )
                continue
            for system, entry in level["systems"].items():
                errors.extend(_validate_load_summary(
                    f"{what} system {system!r}", entry, summary_keys,
                ))
    zipf = payload["zipf"]
    errors.extend(_key_errors("multiproc zipf", zipf, _MULTIPROC_ZIPF_KEYS))
    if set(zipf) == _MULTIPROC_ZIPF_KEYS:
        if set(zipf["systems"]) != _MULTIPROC_SYSTEMS:
            errors.append(
                f"multiproc zipf: systems cover {sorted(zipf['systems'])}, "
                f"expected exactly {sorted(_MULTIPROC_SYSTEMS)}"
            )
        else:
            for system, entry in zipf["systems"].items():
                extra = (
                    _MULTIPROC_ZIPF_FRONT_KEYS if system == "multiproc"
                    else frozenset()
                )
                errors.extend(_validate_load_summary(
                    f"multiproc zipf system {system!r}", entry,
                    summary_keys, extra,
                ))
                if set(entry) >= summary_keys and \
                        entry.get("skew") != "zipf":
                    errors.append(
                        f"multiproc zipf system {system!r}: summary must "
                        "record skew='zipf'"
                    )
    return errors


def validate_serving_doc(payload: dict) -> list:
    """Schema problems of one BENCH_serving document (empty = valid)."""
    version = payload.get("version")
    if version not in KNOWN_SERVING_VERSIONS:
        return [
            f"document: unsupported serving-bench version "
            f"{version!r} (this checker speaks "
            f"{list(KNOWN_SERVING_VERSIONS)})"
        ]
    top_keys = _SERVING_TOP_KEYS if version == 1 else (
        _SERVING_TOP_KEYS | {"multiproc"}
    )
    summary_keys = {
        1: _SERVING_SUMMARY_KEYS_V1,
        2: _SERVING_SUMMARY_KEYS_V2,
        3: _SERVING_SUMMARY_KEYS_V3,
    }[version]
    errors = _key_errors("document", payload, top_keys)
    if errors:
        return errors
    if not isinstance(payload["workers"], int) or payload["workers"] < 1:
        errors.append("document: 'workers' must be a positive integer")
    if not isinstance(payload["sharded_wins"], bool):
        errors.append("document: 'sharded_wins' must be a boolean")
    if payload["mode"] not in ("closed", "open"):
        errors.append("document: 'mode' must be 'closed' or 'open'")
    levels = payload["levels"]
    if not isinstance(levels, list) or not levels:
        errors.append("document: 'levels' must be a non-empty list")
        return errors
    for level in levels:
        errors.extend(_key_errors("level", level, _SERVING_LEVEL_KEYS))
        if set(level) != _SERVING_LEVEL_KEYS:
            continue
        clients = level["clients"]
        what = f"level clients={clients!r}"
        if not isinstance(clients, int) or clients < 1:
            errors.append(f"{what}: 'clients' must be a positive integer")
        if set(level["pools"]) != _SERVING_POOLS:
            errors.append(
                f"{what}: pools cover {sorted(level['pools'])}, "
                f"expected exactly {sorted(_SERVING_POOLS)}"
            )
            continue
        for discipline, entry in level["pools"].items():
            errors.extend(_validate_load_summary(
                f"{what} pool {discipline!r}", entry, summary_keys,
                _SERVING_POOL_EXTRA_KEYS,
            ))
    if version >= 2:
        errors.extend(
            validate_multiproc_section(payload["multiproc"], summary_keys)
        )
    return errors


def validate_speculation_doc(payload: dict) -> list:
    """Schema problems of one BENCH_speculation document (empty =
    valid)."""
    errors = _key_errors("document", payload, _SPECULATION_TOP_KEYS)
    if errors:
        return errors
    if payload["version"] not in KNOWN_SPECULATION_VERSIONS:
        return [
            f"document: unsupported speculation-bench version "
            f"{payload['version']!r} (this checker speaks "
            f"{list(KNOWN_SPECULATION_VERSIONS)})"
        ]
    if not isinstance(payload["jobs"], int) or payload["jobs"] < 1:
        errors.append("document: 'jobs' must be a positive integer")
    if not isinstance(payload["repeat"], int) or payload["repeat"] < 1:
        errors.append("document: 'repeat' must be a positive integer")
    if not isinstance(payload["equivalence_ok"], bool):
        errors.append("document: 'equivalence_ok' must be a boolean")
    for section, headline, entry_keys, expect_commit in (
        ("gap", "win_fraction", _SPECULATION_GAP_KEYS, True),
        ("conflict", "max_loss", _SPECULATION_CONFLICT_KEYS, False),
    ):
        body = payload[section]
        errors.extend(_key_errors(
            section, body, {headline, "workloads"},
        ))
        if set(body) != {headline, "workloads"}:
            continue
        workloads = body["workloads"]
        if not isinstance(workloads, list) or not workloads:
            errors.append(f"{section}: 'workloads' must be a non-empty list")
            continue
        for entry in workloads:
            what = f"{section} workload {entry.get('name')!r}"
            errors.extend(_key_errors(what, entry, entry_keys))
            if set(entry) != entry_keys:
                continue
            if not isinstance(entry["correct"], bool):
                errors.append(f"{what}: 'correct' must be a boolean")
            if entry["committed"] is not expect_commit:
                errors.append(
                    f"{what}: expected committed={expect_commit} in the "
                    f"{section} section"
                )
            for key in ("inorder_wall_s", "speculative_wall_s"):
                if not isinstance(entry[key], (int, float)) or entry[key] < 0:
                    errors.append(f"{what}: {key!r} must be >= 0")
    return errors


def validate_bench_doc(payload: dict) -> list:
    """Schema problems of one parsed BENCH document (empty = valid).

    Dispatches on the suite: the serving trajectory (``suite ==
    "serving"``) and the speculation trajectory (``suite ==
    "speculation"``) have their own shapes; everything else is an
    execution-backend trajectory.
    """
    if isinstance(payload, dict) and payload.get("suite") == "serving":
        return validate_serving_doc(payload)
    if isinstance(payload, dict) and payload.get("suite") == "speculation":
        return validate_speculation_doc(payload)
    errors = _key_errors("document", payload, _TOP_KEYS)
    if errors:
        return errors
    if payload["version"] not in KNOWN_VERSIONS:
        return [
            f"document: unsupported bench version {payload['version']!r} "
            f"(this checker speaks {list(KNOWN_VERSIONS)})"
        ]
    if not isinstance(payload["suite"], str) or not payload["suite"]:
        errors.append("document: 'suite' must be a non-empty string")
    if not isinstance(payload["jobs"], int) or payload["jobs"] < 1:
        errors.append("document: 'jobs' must be a positive integer")
    if not isinstance(payload["repeat"], int) or payload["repeat"] < 1:
        errors.append("document: 'repeat' must be a positive integer")
    if not isinstance(payload["equivalence_ok"], bool):
        errors.append("document: 'equivalence_ok' must be a boolean")
    backends = payload["backends"]
    if not isinstance(backends, list) or not backends or not all(
        isinstance(b, str) for b in backends
    ):
        errors.append("document: 'backends' must be a non-empty string list")
        backends = []
    errors.extend(_key_errors("chunk", payload["chunk"], _CHUNK_KEYS))
    for win in payload["parallel_wins"]:
        errors.extend(_key_errors("parallel_wins entry", win, _WIN_KEYS))
    if not isinstance(payload["workloads"], list) or not payload["workloads"]:
        errors.append("document: 'workloads' must be a non-empty list")
        return errors
    for workload in payload["workloads"]:
        errors.extend(_key_errors("workload", workload, _WORKLOAD_KEYS))
        if set(workload) != _WORKLOAD_KEYS:
            continue
        name = workload["name"]
        results = workload["results"]
        if sorted(results) != sorted(backends):
            errors.append(
                f"workload {name!r}: results cover {sorted(results)}, "
                f"expected exactly {sorted(backends)}"
            )
        for backend, entry in results.items():
            what = f"workload {name!r} backend {backend!r}"
            errors.extend(_key_errors(what, entry, _RESULT_KEYS))
            if set(entry) != _RESULT_KEYS:
                continue
            if not isinstance(entry["wall_s"], (int, float)) or entry["wall_s"] < 0:
                errors.append(f"{what}: 'wall_s' must be >= 0")
            if not isinstance(entry["correct"], bool):
                errors.append(f"{what}: 'correct' must be a boolean")
            if entry["backend_used"] not in ("", *backends, "sequential"):
                errors.append(
                    f"{what}: 'backend_used' {entry['backend_used']!r} "
                    "is not a known backend"
                )
    return errors


def check_file(path: Path) -> list:
    """Schema + byte-stability problems of one trajectory file."""
    from repro.api.protocol import canonical_json

    try:
        text = path.read_text()
    except OSError as exc:
        return [f"{path}: unreadable ({exc})"]
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return [f"{path}: not JSON ({exc})"]
    errors = [f"{path}: {e}" for e in validate_bench_doc(payload)]
    if canonical_json(payload) + "\n" != text:
        errors.append(
            f"{path}: not in canonical form (regenerate with "
            "'repro-eval bench' -- sorted keys, indent 1, trailing newline)"
        )
    return errors


def main(argv) -> int:
    paths = [Path(a) for a in argv] or sorted(ROOT.glob("BENCH_*.json"))
    if not paths:
        print(f"no BENCH_*.json files found under {ROOT}")
        return 1
    errors = []
    for path in paths:
        errors.extend(check_file(path))
    if errors:
        print("\n".join(errors))
        print(f"\nbench-schema: FAILED ({len(errors)} problem(s))")
        return 1
    print(f"bench-schema: {len(paths)} trajectory file(s) valid")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Schema stability of the BENCH_*.json trajectory documents.

The bench harness's output is a wire format consumed by CI and diffed
between trajectory points, so its shape is pinned exactly like the
``repro.api`` protocol: versioned, byte-stable canonical serialization,
and an exact key set at every level (validated by
``tools/check_bench_schema.py``, which this suite drives both against a
live in-process bench run and against the committed trajectory file).
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.api.protocol import canonical_json
from repro.evaluation.bench import (
    BENCH_SUITES,
    BENCH_VERSION,
    format_bench,
    run_bench,
    write_bench,
)

ROOT = Path(__file__).parent.parent.parent


def _checker():
    spec = importlib.util.spec_from_file_location(
        "check_bench_schema", ROOT / "tools" / "check_bench_schema.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHECKER = _checker()


@pytest.fixture(scope="module")
def smoke_doc():
    return run_bench(
        suite="smoke", backends=["sequential", "thread"], jobs=2, repeat=1
    )


def test_smoke_doc_is_schema_valid(smoke_doc):
    assert CHECKER.validate_bench_doc(smoke_doc) == []
    assert smoke_doc["version"] == BENCH_VERSION
    assert smoke_doc["equivalence_ok"] is True
    names = [w["name"] for w in smoke_doc["workloads"]]
    assert len(names) == len(BENCH_SUITES["smoke"]())


def test_doc_serialization_is_byte_stable(smoke_doc, tmp_path):
    path = write_bench(smoke_doc, str(tmp_path))
    assert path.name == "BENCH_smoke.json"
    text = path.read_text()
    assert canonical_json(json.loads(text)) + "\n" == text
    assert CHECKER.check_file(path) == []


def test_key_order_is_pinned(smoke_doc, tmp_path):
    path = write_bench(smoke_doc, str(tmp_path))
    payload = json.loads(path.read_text())
    # canonical form sorts keys at every level; any new/renamed field
    # shows up as a deliberate diff here and in the checker's key sets
    assert list(payload) == sorted(payload)
    for workload in payload["workloads"]:
        assert list(workload) == sorted(workload)
        for entry in workload["results"].values():
            assert list(entry) == sorted(entry)


def test_checker_rejects_schema_drift(smoke_doc):
    broken = json.loads(canonical_json(smoke_doc))
    broken["surprise"] = 1
    assert any("surprise" in e for e in CHECKER.validate_bench_doc(broken))
    broken = json.loads(canonical_json(smoke_doc))
    del broken["workloads"][0]["results"]["thread"]["wall_s"]
    assert CHECKER.validate_bench_doc(broken)
    broken = json.loads(canonical_json(smoke_doc))
    broken["version"] = BENCH_VERSION + 1
    assert any("version" in e for e in CHECKER.validate_bench_doc(broken))
    # a stale document of the deleted compile suite gets no shape of
    # its own any more: the generic validator rejects its key set
    stale = {
        "cpu_count": 2, "divergences": 0, "equivalence_ok": True,
        "programs": 16, "repeat": 3, "sections": {}, "seed": 0,
        "suite": "compile", "version": 2,
    }
    assert any("sections" in e for e in CHECKER.validate_bench_doc(stale))


def test_checker_rejects_non_canonical_files(smoke_doc, tmp_path):
    path = tmp_path / "BENCH_smoke.json"
    path.write_text(json.dumps(smoke_doc, indent=4, sort_keys=False))
    assert any("canonical" in e for e in CHECKER.check_file(path))


def test_committed_trajectory_file_is_valid():
    committed = ROOT / "BENCH_core.json"
    assert committed.is_file(), (
        "the BENCH_core.json trajectory point must be committed "
        "(regenerate with 'repro-eval bench --suite core')"
    )
    assert CHECKER.check_file(committed) == []
    payload = json.loads(committed.read_text())
    assert payload["suite"] == "core"
    # the committed point must witness a real parallel win with >= 4
    # jobs (the thread/process undo-log or numpy vectorization)
    assert payload["jobs"] >= 4
    assert any(
        win["backend"] in ("thread", "process") and win["speedup"] > 1.0
        for win in payload["parallel_wins"]
    ), "no thread/process win over sequential recorded in BENCH_core.json"


def test_format_bench_summarizes(smoke_doc):
    text = format_bench(smoke_doc)
    assert "suite smoke" in text
    assert "equivalence: ok" in text


# -- the serving trajectory (BENCH_serving.json) -----------------------------


@pytest.fixture(scope="module")
def serving_doc():
    from repro.server import run_multiproc_bench, run_serving_bench

    doc = run_serving_bench(
        levels=(2, 4), requests_per_level=40, workers=2,
        programs=6, compile_cache_size=2,
    )
    # v2 docs carry the multi-process A/B alongside the in-process
    # pools; tiny knobs -- the schema is what's under test here
    doc["multiproc"] = run_multiproc_bench(
        backends=2, replicas=2, backend_workers=1,
        levels=(2,), requests_per_level=16, programs=6,
        zipf_clients=4, zipf_multiplex=2, zipf_requests=24,
        hot_rps=4.0,
    )
    return doc


def test_serving_doc_is_schema_valid(serving_doc):
    from repro.server import SERVING_VERSION

    assert CHECKER.validate_bench_doc(serving_doc) == []
    assert CHECKER.validate_serving_doc(serving_doc) == []
    assert serving_doc["version"] == SERVING_VERSION
    assert [level["clients"] for level in serving_doc["levels"]] == [2, 4]


def test_serving_doc_is_byte_stable(serving_doc, tmp_path):
    from repro.server import write_serving_bench

    path = write_serving_bench(serving_doc, str(tmp_path))
    assert path.name == "BENCH_serving.json"
    text = path.read_text()
    assert canonical_json(json.loads(text)) + "\n" == text
    assert CHECKER.check_file(path) == []


def test_serving_checker_rejects_drift(serving_doc):
    broken = json.loads(canonical_json(serving_doc))
    broken["surprise"] = 1
    assert any("surprise" in e for e in CHECKER.validate_bench_doc(broken))
    broken = json.loads(canonical_json(serving_doc))
    del broken["levels"][0]["pools"]["sharded"]["throughput_rps"]
    assert CHECKER.validate_bench_doc(broken)
    broken = json.loads(canonical_json(serving_doc))
    broken["version"] = 999
    assert any("version" in e for e in CHECKER.validate_bench_doc(broken))
    broken = json.loads(canonical_json(serving_doc))
    del broken["levels"][0]["pools"]["shared"]
    assert any("pools" in e for e in CHECKER.validate_bench_doc(broken))


def test_serving_checker_rejects_multiproc_drift(serving_doc):
    broken = json.loads(canonical_json(serving_doc))
    del broken["multiproc"]
    assert any("multiproc" in e for e in CHECKER.validate_bench_doc(broken))
    broken = json.loads(canonical_json(serving_doc))
    broken["multiproc"]["surprise"] = 1
    assert any("surprise" in e for e in CHECKER.validate_bench_doc(broken))
    broken = json.loads(canonical_json(serving_doc))
    del broken["multiproc"]["cold"]["mean_speedup"]
    assert CHECKER.validate_bench_doc(broken)
    broken = json.loads(canonical_json(serving_doc))
    del broken["multiproc"]["zipf"]["systems"]["multiproc"]
    assert any("systems" in e for e in CHECKER.validate_bench_doc(broken))
    broken = json.loads(canonical_json(serving_doc))
    broken["multiproc"]["zipf"]["systems"]["single"]["skew"] = "uniform"
    assert CHECKER.validate_bench_doc(broken)


def test_serving_v3_summaries_carry_slowest_tables(serving_doc):
    # every per-level pool summary (and the zipf A/B summaries) is a
    # v3 run_load document: the slowest table rides along
    for level in serving_doc["levels"]:
        for pool in level["pools"].values():
            assert isinstance(pool["slowest"], list)
            for entry in pool["slowest"]:
                assert set(entry) == {"latency_s", "trace_id", "verb"}


def test_serving_checker_rejects_slowest_drift(serving_doc):
    broken = json.loads(canonical_json(serving_doc))
    broken["levels"][0]["pools"]["sharded"]["slowest"] = "not-a-list"
    assert any("slowest" in e for e in CHECKER.validate_bench_doc(broken))
    broken = json.loads(canonical_json(serving_doc))
    slowest = broken["levels"][0]["pools"]["sharded"]["slowest"]
    if slowest:
        slowest[0]["surprise"] = 1
        assert any("slowest" in e for e in CHECKER.validate_bench_doc(broken))
    # a v3 summary without the table at all is schema drift
    broken = json.loads(canonical_json(serving_doc))
    del broken["levels"][0]["pools"]["shared"]["slowest"]
    assert CHECKER.validate_bench_doc(broken)


def test_serving_checker_still_accepts_v2_documents(serving_doc):
    # the committed BENCH_serving.json predates v3; the checker keeps
    # validating old trajectory points by their own version's key set
    assert 2 in CHECKER.KNOWN_SERVING_VERSIONS
    assert CHECKER._SERVING_SUMMARY_KEYS_V3 - CHECKER._SERVING_SUMMARY_KEYS_V2 \
        == {"slowest"}


def test_format_serving_summarizes(serving_doc):
    from repro.server import format_serving

    text = format_serving(serving_doc)
    assert "serving bench" in text
    assert "sharded" in text and "shared" in text


# -- the speculation trajectory (BENCH_speculation.json) ---------------------


@pytest.fixture(scope="module")
def speculation_doc():
    from repro.evaluation.bench import run_speculation_bench

    # tiny sizes: the schema is what's under test, not the speedups
    return run_speculation_bench(
        jobs=2, repeat=1, trips=24, inner=40, cells=256
    )


def test_speculation_doc_is_schema_valid(speculation_doc):
    assert CHECKER.validate_bench_doc(speculation_doc) == []
    assert CHECKER.validate_speculation_doc(speculation_doc) == []
    assert speculation_doc["version"] == BENCH_VERSION
    assert speculation_doc["equivalence_ok"] is True
    assert all(
        w["committed"] for w in speculation_doc["gap"]["workloads"]
    )
    assert all(
        w["rollbacks"] == 1
        for w in speculation_doc["conflict"]["workloads"]
    )


def test_speculation_doc_is_byte_stable(speculation_doc, tmp_path):
    path = write_bench(speculation_doc, str(tmp_path))
    assert path.name == "BENCH_speculation.json"
    text = path.read_text()
    assert canonical_json(json.loads(text)) + "\n" == text
    assert CHECKER.check_file(path) == []


def test_speculation_checker_rejects_drift(speculation_doc):
    broken = json.loads(canonical_json(speculation_doc))
    broken["surprise"] = 1
    assert any("surprise" in e for e in CHECKER.validate_bench_doc(broken))
    broken = json.loads(canonical_json(speculation_doc))
    del broken["gap"]["workloads"][0]["speedup"]
    assert CHECKER.validate_bench_doc(broken)
    broken = json.loads(canonical_json(speculation_doc))
    broken["conflict"]["workloads"][0]["committed"] = True
    assert any("committed" in e for e in CHECKER.validate_bench_doc(broken))
    broken = json.loads(canonical_json(speculation_doc))
    broken["version"] = 999
    assert any("version" in e for e in CHECKER.validate_bench_doc(broken))


def test_format_speculation_summarizes(speculation_doc):
    from repro.evaluation.bench import format_speculation_bench

    text = format_speculation_bench(speculation_doc)
    assert "suite speculation" in text
    assert "commit" in text and "rollback" in text
    assert "equivalence: ok" in text


def test_committed_speculation_trajectory_is_valid():
    committed = ROOT / "BENCH_speculation.json"
    assert committed.is_file(), (
        "the BENCH_speculation.json trajectory point must be committed "
        "(regenerate with 'repro-eval bench --suite speculation')"
    )
    assert CHECKER.check_file(committed) == []
    payload = json.loads(committed.read_text())
    assert payload["suite"] == "speculation"
    assert payload["jobs"] >= 4
    assert payload["equivalence_ok"] is True
    # the acceptance bar: speculation beats the reference baseline on
    # >= 80% of the gap workloads, and a misspeculation costs less than
    # 2.5x the bare in-order execution
    assert payload["gap"]["win_fraction"] >= 0.8
    assert payload["conflict"]["max_loss"] < 2.5


def test_committed_serving_trajectory_is_valid():
    committed = ROOT / "BENCH_serving.json"
    assert committed.is_file(), (
        "the BENCH_serving.json trajectory point must be committed "
        "(regenerate with 'repro-eval loadgen --bench')"
    )
    assert CHECKER.check_file(committed) == []
    payload = json.loads(committed.read_text())
    assert payload["suite"] == "serving"
    assert len(payload["levels"]) >= 3, "need >= 3 concurrency levels"
    # the acceptance claim: digest-sharded pooling beats the shared
    # engine on the warm-cache analyze-heavy mix
    assert payload["sharded_wins"] is True
    for level in payload["levels"]:
        for entry in level["pools"].values():
            assert entry["errors"] == 0 and not entry["failures"]
    # the v2 acceptance: the multi-process A/B is recorded with a
    # >= 4-backend front tier, a zipf hot-shard run, and no errors
    multiproc = payload["multiproc"]
    assert multiproc["backends"] >= 4
    assert isinstance(multiproc["multiproc_wins"], bool)
    assert isinstance(multiproc["hot_shard_wins"], bool)
    assert multiproc["zipf"]["systems"]["multiproc"]["skew"] == "zipf"
    for level in multiproc["cold"]["levels"]:
        for entry in level["systems"].values():
            assert entry["errors"] == 0 and not entry["failures"]
    for entry in multiproc["zipf"]["systems"].values():
        assert entry["errors"] == 0 and not entry["failures"]

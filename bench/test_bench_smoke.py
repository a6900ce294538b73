"""Smoke test of the benchmark harness at ``--quick`` sizes.

Checks the shape of what ``bench/run.py`` prints and that inputs follow
the seed; no timing is asserted (quick numbers mean nothing).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import benchinputs  # noqa: E402
import benchlib  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = benchlib.spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(run_py: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run_py), "--quick", "--seconds", "0.3", *args],
        capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """Every workload once untraced and once traced, two at a time."""
    out = tmp_path_factory.mktemp("bench") / "runs.jsonl"
    jobs = [(name, trace) for trace in (0, 1) for name in WORKLOADS]

    def one(job):
        name, trace = job
        return job, _run(
            BENCH / "run.py", "--workload", name, "--seed", "5",
            "--trace", str(trace), "--out", str(out),
        )

    with ThreadPoolExecutor(max_workers=2) as pool:
        done = dict(pool.map(one, jobs))
    records = [json.loads(line) for line in out.read_text().splitlines()]
    return done, records


def test_definition_is_well_formed():
    names = (
        WORKLOADS
        + [m["name"] for m in SPEC["end_to_end"]]
        + [m["name"] for m in SPEC["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert len(WORKLOADS) == 5
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert SPEC["paths"] == ["bench"] and SPEC["command"][-1] == "bench/run.py"


def test_every_run_prints_the_contract(quick_runs):
    done, _ = quick_runs
    for (name, trace), proc in done.items():
        assert proc.returncode == 0, (name, trace, proc.stdout, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        listed = SPEC["per_layer" if trace else "end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in listed]
        for metric in listed:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        if not trace:
            assert all(doc["value"] > 0 for doc in result["metrics"].values())


def test_traced_passes_cover_every_layer_metric(quick_runs):
    _, records = quick_runs
    produced = {
        name for record in records if record["trace"]
        for name in record["produced"]
    }
    assert produced == {m["name"] for m in SPEC["per_layer"]}
    for record in records:
        assert record["host"]["cpu_count"] >= 1
        if record["trace"] and record["workload"] in ("compile_cold", "exec_paper",
                                                      "exec_kernels"):
            cover = record["metrics"]["gen.span_cover_frac"]["value"]
            assert 0.95 <= cover <= 1.0


def _stream(seed: int) -> list:
    stream = benchinputs.request_stream(seed, "open", 32, zipf=True)
    return [next(stream) for _ in range(200)]


def test_inputs_follow_the_seed():
    def kernels(seed):
        return json.dumps([vars(i) for i in benchinputs.kernel_items(seed, quick=True)])

    pool = benchinputs.load_pool("mix")
    assert kernels(3) == kernels(3) and kernels(3) != kernels(4)
    assert _stream(3) == _stream(3) and _stream(3) != _stream(4)
    assert benchinputs.shuffled(pool, 3, "x") == benchinputs.shuffled(pool, 3, "x")
    assert benchinputs.shuffled(pool, 3, "x") != benchinputs.shuffled(pool, 4, "x")


def test_served_requests_are_byte_identical_for_a_seed():
    import wl_serve
    from repro.api import wire_json

    def first_requests(seed):
        workload = wl_serve.make("serve_warm")
        workload.seed, workload.items = seed, benchinputs.load_pool("mix")
        lane = workload._requests("open", traced=True, zipf=True)
        return [wire_json(next(lane)[1].to_json()) for _ in range(50)]

    assert first_requests(3) == first_requests(3)
    assert first_requests(3) != first_requests(4)


@pytest.fixture()
def checkout(tmp_path):
    """A copy of what the driver's bare directory holds: the definition
    and ``bench/``, nothing else."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_refuses_to_run_without_the_program(checkout):
    proc = _run(checkout / "bench" / "run.py", "--workload", "compile_cold")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_a_wrong_expectation_fails_the_run(checkout):
    (checkout / "src").symlink_to(ROOT / "src")
    path = checkout / "bench" / "expected.json"
    expected = json.loads(path.read_text())
    expected["mix000"]["classification"] = "STATIC-SEQ?"
    path.write_text(json.dumps(expected))
    proc = _run(checkout / "bench" / "run.py", "--workload", "compile_cold")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1

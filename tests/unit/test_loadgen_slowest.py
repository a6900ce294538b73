"""The loadgen summary: its key sets, the slowest-requests table and
the client-minted force-sampled trace context.

``--trace`` exists so an operator can correlate a slow loadgen request
with its server-side trace: every request carries a fresh trace id,
the summary names the top-K slowest with their verbs and trace ids,
and those ids are exactly what ``repro-eval trace <id>`` accepts.
"""

import random

import pytest

from repro.api import AnalyzeRequest, EngineConfig, ExecuteRequest
from repro.server import ServerThread, build_mix, make_request
from repro.server.loadgen import SLOWEST_K, run_load


@pytest.fixture(scope="module")
def hosted():
    thread = ServerThread(
        workers=2, engine_config=EngineConfig(use_disk_cache=False)
    ).start()
    yield thread
    thread.stop()


class TestForceTrace:
    def test_untraced_by_default(self):
        mix = build_mix(seed=5, programs=3)
        rng = random.Random(5)
        for _ in range(8):
            assert make_request(rng, mix, analyze_fraction=0.5).trace is None

    def test_force_trace_mints_fresh_sampled_contexts(self):
        mix = build_mix(seed=5, programs=3)
        rng = random.Random(5)
        seen = set()
        for _ in range(8):
            request = make_request(
                rng, mix, analyze_fraction=0.5, force_trace=True
            )
            assert isinstance(request, (AnalyzeRequest, ExecuteRequest))
            trace = request.trace
            assert trace["sampled"] is True
            assert len(trace["trace_id"]) == 32
            seen.add(trace["trace_id"])
        assert len(seen) == 8  # one trace per request, never reused


class TestSummaryKeys:
    """``loadgen --json`` prints this document; its key set is a
    contract with whatever reads it."""

    SUMMARY = {
        "analyze_fraction", "clients", "completed", "connections", "errors",
        "failures", "latency", "mode", "requests", "shed", "skew", "slowest",
        "throughput_rps", "wall_s", "zipf_s",
    }
    LATENCY = {"max_s", "mean_s", "p50_s", "p95_s", "p99_s"}
    SLOWEST = {"latency_s", "trace_id", "verb"}

    @pytest.mark.parametrize("knobs", [
        {},
        {"clients": 4, "multiplex": 2, "skew": "zipf"},
        {"mode": "open", "rate": 200.0},
    ], ids=["closed", "multiplexed-zipf", "open"])
    def test_exact_key_sets(self, hosted, knobs):
        host, port = hosted.address
        summary = run_load(
            host, port, **{"clients": 2, "requests": 12, "seed": 3,
                           "timeout": 60.0, **knobs},
        )
        assert set(summary) == self.SUMMARY
        assert set(summary["latency"]) == self.LATENCY
        assert summary["slowest"]
        assert all(set(e) == self.SLOWEST for e in summary["slowest"])
        assert summary["failures"] == [] and summary["errors"] == 0
        assert summary["completed"] == summary["requests"] == 12
        assert summary["zipf_s"] == (1.1 if "skew" in knobs else None)


class TestSlowestSummary:
    def test_version_three_summary_carries_slowest(self, hosted):
        host, port = hosted.address
        summary = run_load(
            host, port, clients=2, requests=12, seed=3, timeout=60.0,
        )
        slowest = summary["slowest"]
        assert 1 <= len(slowest) <= SLOWEST_K
        assert all(set(e) == {"latency_s", "trace_id", "verb"}
                   for e in slowest)
        latencies = [e["latency_s"] for e in slowest]
        assert latencies == sorted(latencies, reverse=True)
        assert latencies[0] == summary["latency"]["max_s"]
        assert all(e["verb"] in ("analyze", "execute") for e in slowest)
        # untraced runs still report the table, with null trace ids
        assert all(e["trace_id"] is None for e in slowest)

    def test_forced_trace_ids_surface_in_slowest(self, hosted):
        host, port = hosted.address
        summary = run_load(
            host, port, clients=2, requests=12, seed=4, timeout=60.0,
            force_trace=True,
        )
        for entry in summary["slowest"]:
            assert isinstance(entry["trace_id"], str)
            assert len(entry["trace_id"]) == 32

    def test_multiplexed_and_open_modes_report_slowest(self, hosted):
        host, port = hosted.address
        multiplexed = run_load(
            host, port, clients=4, requests=12, seed=5, timeout=60.0,
            multiplex=2, force_trace=True,
        )
        assert len(multiplexed["slowest"]) >= 1
        open_loop = run_load(
            host, port, clients=2, requests=10, seed=6, timeout=60.0,
            mode="open", rate=200.0, force_trace=True,
        )
        assert len(open_loop["slowest"]) >= 1
        for summary in (multiplexed, open_loop):
            for entry in summary["slowest"]:
                assert len(entry["trace_id"]) == 32

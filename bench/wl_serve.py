"""The two serve workloads, ``serve_warm`` and ``serve_churn``, against
a server child of its own process.

One generator thread on one connection keeps one request in flight:
the benchmark is pinned to one CPU (``benchlib``, host speed), where a
second client would only queue behind the first.  The server keeps its
two workers; requests are routed to them by source digest.  Every
execute names its backend (the engine default is the snapshotting
reference backend).  The open loop that shows queueing at a fixed
offered rate runs in ``serve_warm``'s traced pass, where no bound
depends on it.
"""

from __future__ import annotations

import json
import random
import time

from benchinputs import load_expected, load_pool, matches, request_stream, shuffled
from benchlib import HostClock, best_item_metrics, median, percentile, ratio
from openloop import run_open_loop
from serverproc import ServerProc

from repro.api import (
    AnalyzeRequest,
    Engine,
    EngineConfig,
    ErrorResponse,
    ExecuteRequest,
    ExecuteResponse,
    request_from_json,
    response_from_json,
    wire_json,
)
from repro.server.client import ServerClient

JOBS = 2
BACKEND = "thread"
#: the traced open loop: offered load and the latency limit on it
OPEN_RATE = 400.0
SLO_MS = 25.0
#: ``serve_warm`` reports medians over this many consecutive parts of
#: the run (each ~1000 answers, ten beyond its p99): one stall of the
#: host lands in one part and cannot set the run's tail by itself
WINDOWS = 10
#: programs whose first response is also compared, byte for byte, with
#: an in-process ``Engine.analyze`` (all programs are fingerprint-checked)
CANONICAL_SAMPLE = 8


def _request(item, execute: bool, trace_ids=None):
    """One request; with *trace_ids* (a seeded ``random.Random``) it
    carries a force-sampled trace context, so the server keeps its span
    tree whatever its own sampling says."""
    trace = None
    if trace_ids is not None:
        trace = {"trace_id": f"{trace_ids.getrandbits(128):032x}", "sampled": True}
    if execute:
        return ExecuteRequest(
            source=item.source, loop=item.loop, params=item.params,
            arrays=item.arrays, options=item.options, backend=BACKEND,
            jobs=JOBS, trace=trace,
        )
    return AnalyzeRequest(
        source=item.source, loop=item.loop, options=item.options, trace=trace,
    )


class _Checker:
    """Correctness of the answers of a run (checked after the clock has
    stopped, so the checks cost the measured phase nothing)."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.first: dict = {}  # item name -> first analyze response
        self.problems: list = []

    def ok(self, item, response) -> bool:
        if isinstance(response, ErrorResponse):
            self.problems.append(f"{item.name}: {response.code}: {response.message}")
            return False
        if isinstance(response, ExecuteResponse):
            if not response.correct:
                self.problems.append(f"{item.name}: execute differs from the interpreter")
            return response.correct
        first = self.first.setdefault(item.name, response)
        if first is response:
            good = matches(self.expected[item.name], response)
        else:
            good = response == first
        if not good:
            self.problems.append(f"{item.name}: analysis differs from expected.json")
        return good

    def check_canonical(self, items: list, seed: int) -> None:
        """Wire fidelity: a sample of first responses must equal the
        in-process analysis byte for byte."""
        seen = [item for item in items if item.name in self.first]
        sample = random.Random(f"canonical:{seed}").sample(
            seen, min(CANONICAL_SAMPLE, len(seen))
        )
        engine = Engine(EngineConfig(use_disk_cache=False))
        for item in sample:
            local = engine.analyze(AnalyzeRequest(
                source=item.source, loop=item.loop, options=item.options,
            ))
            if local.canonical_text() != self.first[item.name].canonical_text():
                self.problems.append(
                    f"{item.name}: served analysis differs from the in-process one"
                )
        engine.close()


class _Phase:
    """What one driven phase produced."""

    def __init__(self):
        self.latencies_ms: list = []  # as this host ran them
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0
        self.late_ms: list = []
        self.slo_misses = 0
        self.trace_ids: set = set()
        self.gen_cpu_s = 0.0
        self.server_cpu_s = 0.0

    @property
    def answered(self) -> int:
        return len(self.latencies_ms)


def _windowed(clock: HostClock, windows: int, tail_q: float) -> dict:
    """Throughput, median and tail latency, each the median over
    *windows* consecutive parts of the clock's slices."""
    count = len(clock.slices)
    windows = min(windows, count)
    by_slice = [[] for _ in range(count)]
    for _, seconds, index in clock.samples:
        by_slice[index].append(seconds)
    rates, medians, tails = [], [], []
    for window in range(windows):
        lo, hi = window * count // windows, (window + 1) * count // windows
        latencies = [s for part in by_slice[lo:hi] for s in part]
        rates.append(
            sum(n for n, _ in clock.slices[lo:hi])
            / sum(wall for _, wall in clock.slices[lo:hi])
        )
        medians.append(median(latencies))
        tails.append(percentile(latencies, tail_q))
    return {
        "throughput_ops_s": median(rates),
        "lat_p50_ms": median(medians) * 1e3,
        "lat_tail_ms": median(tails) * 1e3,
    }


class Serve:
    """A serve workload; ``kind`` is 'warm' or 'churn'."""

    #: a churn pass asks each program once, of a fresh server
    min_passes = 2

    def __init__(self, name: str):
        self.name = name
        self.kind = name.split("_", 1)[1]
        # a churn server has nothing to warm, so spawning it is cheap
        self.setup_repeats = 5 if self.kind == "churn" else 2
        self.server = None

    # -- set-up ---------------------------------------------------------
    def prepare(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.quick = quick
        self.expected = load_expected()
        items = load_pool("churn" if self.kind == "churn" else "mix")
        if quick:
            items = items[:8] if self.kind == "churn" else items[5:9]
        self.items = items
        self._spawn()

    def _spawn(self) -> None:
        self.server = ServerProc()
        if self.kind != "churn":
            self._warm()

    def _warm(self) -> None:
        """Analyse and execute every program once (routing is by source
        digest, so one connection warms both workers): the measured
        phase sees only cache hits."""
        with ServerClient(self.server.host, self.server.port) as client:
            for item in self.items:
                for execute in (False, True):
                    response = client.call(_request(item, execute))
                    if isinstance(response, ErrorResponse):
                        raise RuntimeError(f"warm-up: {response.message}")

    def release(self) -> None:
        if self.server is not None:
            server, self.server = self.server, None
            server.stop()

    # -- driving --------------------------------------------------------
    def _requests(self, salt: str, traced=False, subset=None, zipf=False,
                  trace_ids=None):
        """The ``(item, request)`` stream of the connection: every
        program once in a seeded order (churn), or an endless seeded
        draw from the warm mix."""
        rng = random.Random(f"trace:{self.seed}:{salt}") if traced else None
        if self.kind == "churn":
            stream = (
                (item, False)
                for item in shuffled(subset or self.items, self.seed, self.name)
            )
        else:
            stream = (
                (self.items[program], execute)
                for program, execute in request_stream(
                    self.seed, salt, len(self.items), zipf=zipf
                )
            )
        for item, execute in stream:
            request = _request(item, execute, rng)
            if traced and trace_ids is not None:
                trace_ids.add(request.trace["trace_id"])
            yield item, request

    def _closed_loop(self, requests, seconds, checker: _Checker,
                     clock: HostClock) -> _Phase:
        """One request in flight until the time is up (warm) or the
        programs are used up (churn)."""
        phase = _Phase()
        answers = []
        gen_cpu = time.process_time()
        server_cpu = self.server.cpu_seconds()
        started = time.perf_counter()
        deadline = started + seconds if self.kind == "warm" else float("inf")
        try:
            with ServerClient(self.server.host, self.server.port) as client:
                clock.restart()
                for item, request in requests:
                    t0 = time.perf_counter()
                    if t0 >= deadline:
                        break
                    response = client.call(request)
                    latency = time.perf_counter() - t0
                    clock.record(item.name, latency)
                    answers.append((item, response, latency))
                clock.cut()
        except (OSError, ValueError) as exc:
            checker.problems.append(f"transport: {type(exc).__name__}: {exc}")
        phase.wall_s = time.perf_counter() - started
        phase.gen_cpu_s = time.process_time() - gen_cpu
        phase.server_cpu_s = self.server.cpu_seconds() - server_cpu
        # checked after the clock has stopped
        for item, response, latency in answers:
            phase.attempted += 1
            phase.failed += not checker.ok(item, response)
            phase.latencies_ms.append(latency * 1e3)
        return phase

    def _churn_passes(self, seconds, checker, clock, traced=False,
                      subset=None) -> _Phase:
        """Whole passes over the programs, each of a fresh server, until
        *seconds* have gone by (one pass of a *subset*, for the traced
        run); returns the passes as one phase."""
        total = _Phase()
        asked = len(subset or self.items)
        passes = 0
        started = time.perf_counter()
        while passes < self.min_passes or time.perf_counter() - started < seconds:
            if passes:
                self.release()
                self._spawn()
                checker.first.clear()
            phase = self._closed_loop(
                self._requests("churn", traced, subset), seconds, checker, clock,
            )
            passes += 1
            # a program a broken connection left unasked has failed
            total.failed += phase.failed + asked - phase.attempted
            total.attempted += asked
            total.latencies_ms += phase.latencies_ms
            total.wall_s += phase.wall_s
            total.gen_cpu_s += phase.gen_cpu_s
            total.server_cpu_s += phase.server_cpu_s
            if subset or self.quick:
                break
        return total

    def _open_loop(self, seconds, checker: _Checker) -> _Phase:
        """``OPEN_RATE`` requests/s on one connection, zipf(1.1) over
        the warm mix, every request force-sampled."""
        phase = _Phase()
        rate = OPEN_RATE / (8 if self.quick else 1)
        lane = self._requests("open", traced=True, zipf=True,
                              trace_ids=phase.trace_ids)
        gen_cpu = time.process_time()
        result = run_open_loop(
            self.server.host, self.server.port, lane, rate, seconds
        )
        phase.gen_cpu_s = time.process_time() - gen_cpu
        phase.wall_s = result.wall_s
        phase.attempted = result.sent
        phase.late_ms = result.late_ms
        checker.problems.extend(result.problems)
        for latency_ms, item, response in result.answers:
            if checker.ok(item, response):
                phase.latencies_ms.append(latency_ms)
                phase.slo_misses += latency_ms > SLO_MS
        phase.failed = phase.attempted - phase.answered
        phase.slo_misses += phase.failed
        return phase

    # -- untraced -------------------------------------------------------
    def measure(self, seconds: float) -> dict:
        checker = _Checker(self.expected)
        clock = HostClock()
        if self.kind == "churn":
            phase = self._churn_passes(seconds, checker, clock)
            clock.finish()
            metrics = best_item_metrics(clock.samples)
        else:
            phase = self._closed_loop(
                self._requests("closed"), seconds, checker, clock
            )
            clock.finish()
            metrics = _windowed(clock, WINDOWS, 0.99)
        metrics["peak_rss_mb"] = self.server.peak_rss_mb()
        checker.check_canonical(self.items, self.seed)
        return {
            "attempted": phase.attempted,
            "failed": phase.failed,
            "problems": checker.problems,
            "metrics": metrics,
            "host_factors": clock.factors,
        }

    # -- traced ---------------------------------------------------------
    def traced(self, seconds: float) -> dict:
        """An untraced phase, a phase with every request force-sampled
        (the span trees come back over the trace verb) and, on the warm
        server, the open loop."""
        checker = _Checker(self.expected)
        clock = HostClock()
        if self.kind == "churn":
            subset = self.items[::2]
            plain = self._churn_passes(seconds, checker, clock, subset=subset)
            # the same programs again, cold: needs a fresh server
            self.release()
            self._spawn()
            checker.first.clear()
        else:
            plain = self._closed_loop(
                self._requests("closed"), seconds / 3, checker, clock
            )
        with ServerClient(self.server.host, self.server.port) as client:
            before = client.stats().stats
            if self.kind == "churn":
                traced = self._churn_passes(
                    seconds, checker, clock, traced=True, subset=subset
                )
            else:
                traced = self._closed_loop(
                    self._requests("traced", traced=True),
                    seconds / 3, checker, clock,
                )
            rtts = []
            for _ in range(50 if self.quick else 300):
                t0 = time.perf_counter()
                after = client.stats().stats
                rtts.append((time.perf_counter() - t0) * 1e3)
            closed_traces = [
                t for t in client.trace(limit=0).traces if t.get("sampled")
            ]
            opened = _Phase()
            open_traces = []
            if self.kind == "warm":
                opened = self._open_loop(seconds / 3, checker)
                open_traces = [
                    t for t in client.trace(limit=0).traces
                    if t["trace_id"] in opened.trace_ids
                ]
        cache = [
            (a["hits"] - b["hits"], a["misses"] - b["misses"])
            for a, b in zip(after["analysis_cache"], before["analysis_cache"])
        ]
        hits = sum(h for h, _ in cache)
        completed = after["completed"] - before["completed"]
        plain_rps = plain.answered / plain.wall_s
        traced_rps = traced.answered / traced.wall_s
        metrics = {
            "api.analysis_cache_hit_frac": ratio(hits, hits + sum(m for _, m in cache)),
            "api.protocol_roundtrip_us": self._protocol_roundtrip_us(checker),
            "server.stats_rtt_ms": median(rtts),
            "server.wire_floor_frac": median(rtts) / median(plain.latencies_ms),
            "server.cpu_ms_per_req": ratio(plain.server_cpu_s * 1e3, plain.answered),
            "server.warm_hit_frac": ratio(
                after["warm_hits"] - before["warm_hits"], completed
            ),
            "server.coalesced": after["coalesced"] - before["coalesced"],
            "server.shed": after["shed"] - before["shed"],
            "server.trace_overhead_frac": 1.0 - traced_rps / plain_rps,
            "gen.cpu_frac": plain.gen_cpu_s / plain.wall_s,
        }
        metrics.update(_span_tree_metrics(closed_traces))
        if opened.attempted:
            metrics.update({
                "server.open_p50_ms": median(opened.latencies_ms),
                "server.open_p99_ms": percentile(opened.latencies_ms, 0.99),
                "server.open_queue_wait_ms": _span_tree_metrics(open_traces)[
                    "server.queue_wait_ms"
                ],
                "gen.late_p99_ms": percentile(opened.late_ms, 0.99),
                "gen.slo_miss_frac": opened.slo_misses / opened.attempted,
            })
        return {
            "attempted": plain.attempted + traced.attempted + opened.attempted,
            "failed": plain.failed + traced.failed + opened.failed,
            "problems": checker.problems,
            "metrics": metrics,
        }

    def _protocol_roundtrip_us(self, checker: _Checker) -> float:
        """``to_json`` -> ``wire_json`` -> ``json.loads`` -> ``from_json``
        of each message kind, mean microseconds per message over the
        requests of the mix and the responses seen."""
        requests = [
            _request(item, execute)
            for item in self.items for execute in (False, True)
        ]
        responses = list(checker.first.values())
        started = time.perf_counter()
        for request in requests:
            request_from_json(json.loads(wire_json(request.to_json())))
        for response in responses:
            response_from_json(json.loads(wire_json(response.to_json())))
        count = len(requests) + len(responses)
        return (time.perf_counter() - started) * 1e6 / count


def _span_tree_metrics(traces: list) -> dict:
    """Mean self time per request of each server span, from the span
    trees of the force-sampled requests.  The root's time before its
    first child is the admission path (decode, budget check, digest,
    routing); the rest of what no child covers is unattributed.
    ``span_sum_err_frac`` is the share of child time that overlaps
    another child or escapes the root: 0 when the tree adds up."""
    names = {
        "queue_wait": "server.queue_wait_ms",
        "compile": "server.compile_span_ms",
        "execute": "server.execute_span_ms",
    }
    sums = dict.fromkeys(
        [*names.values(), "server.admission_ms", "server.unattributed_ms"], 0.0
    )
    root_total = child_total = covered_total = 0.0
    for trace in traces:
        spans = trace["spans"]
        root = next(s for s in spans if s["span_id"] == trace["root_span_id"])
        children = sorted(
            (s for s in spans if s["parent_span_id"] == root["span_id"]),
            key=lambda s: s["start_s"],
        )
        covered, cursor = 0.0, root["start_s"]
        for child in children:
            start = max(child["start_s"], cursor)
            end = min(child["end_s"], root["end_s"])
            if end > start:
                covered += end - start
                cursor = end
            child_total += child["duration_s"]
            if child["name"] in names:
                sums[names[child["name"]]] += child["duration_s"]
        admission = (children[0]["start_s"] - root["start_s"]) if children else 0.0
        sums["server.admission_ms"] += admission
        sums["server.unattributed_ms"] += root["duration_s"] - covered - admission
        root_total += root["duration_s"]
        covered_total += covered
    count = len(traces)
    out = {name: ratio(total * 1e3, count) for name, total in sums.items()}
    out["server.span_sum_err_frac"] = ratio(child_total - covered_total, root_total)
    return out


def make(name: str) -> Serve:
    return Serve(name)

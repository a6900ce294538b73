"""Load generation against a running server (``repro-eval loadgen``).

Two client disciplines over a **seeded, deterministic workload mix**
(two fixed kernels + fuzz-generated programs, analyze-heavy by default):

* **closed loop** -- each of C clients keeps exactly one request in
  flight (send, wait, repeat): measures the server's capacity at a
  fixed concurrency level;
* **open loop** -- each client sends at a fixed rate regardless of
  responses (the arrival process of independent users): measures how
  latency degrades when offered load, not concurrency, is the control
  variable.

:func:`run_load` drives either against a host and port and returns a
JSON-safe summary (throughput, latency percentiles, the slowest served
requests with their trace ids).  The repository's benchmark lives in
``bench/``: it freezes its programs from :func:`build_mix` and times a
server child from outside.
"""

from __future__ import annotations

import bisect
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from ..api import AnalyzeRequest, ErrorResponse, ExecuteRequest
from ..fuzz import generate_case
from ..fuzz.generator import GeneratorConfig
from .client import ServerClient
from .lineserver import MAX_PIPELINED
from .tracing import mint_trace_id

__all__ = [
    "SLOWEST_K",
    "MixItem",
    "ZipfSampler",
    "build_mix",
    "make_request",
    "run_load",
]

#: How many of the slowest served requests each summary reports.
SLOWEST_K = 5

#: Ceiling on logical clients per multiplexed connection: half the
#: server's per-connection pipelining bound, so a connection's whole
#: window is always admitted and the sliding window can never deadlock
#: against the server's backpressure.
MAX_MULTIPLEX = MAX_PIPELINED // 2


@dataclass(frozen=True)
class MixItem:
    """One program of the workload mix, with ready-to-run inputs."""

    source: str
    loop: str
    params: dict
    arrays: dict
    #: per-request analyzer knob overrides (the fuzz programs run with
    #: the oracle's size/work caps so no single analysis can stall the
    #: latency measurement)
    options: dict = field(default_factory=dict)


#: Generator knobs for the load mix: the full feature weights of the
#: fuzz grammar, but small bodies -- load runs measure the serving
#: path, not worst-case analysis time.
_MIX_GENERATOR = GeneratorConfig(max_body_stmts=3)

#: Analyzer caps for the generated programs (mirrors the fuzz oracle).
_MIX_OPTIONS = {"size_cap": 3_000, "work_cap": 4_000}

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


def _fixed_kernels() -> list:
    """The two hand-written programs that head every mix: a
    fully-parallel affine map and an indirect additive reduction, with
    inputs that use no RNG so they are identical on every platform."""
    return [
        MixItem(
            source=_SAXPY, loop="bench", params={"N": 1500},
            arrays={"A": [(i * 13) % 97 for i in range(1500)]},
        ),
        MixItem(
            source=_HISTOGRAM, loop="bench", params={"N": 800, "K": 16},
            arrays={
                "V": [(i * 5) % 43 for i in range(800)],
                "IDX": [(i * 7919) % 16 + 1 for i in range(800)],
            },
        ),
    ]


def build_mix(
    seed: int = 0,
    programs: int = 16,
    include_workloads: bool = True,
) -> list:
    """A deterministic list of *programs* distinct programs: the two
    fixed kernels (unless *include_workloads* is off) plus
    fuzz-generated loop programs whose in-bounds guarantee makes them
    safe to execute."""
    if programs < 1:
        raise ValueError(f"programs must be >= 1 (got {programs})")
    items = _fixed_kernels() if include_workloads else []
    fuzz_seed = seed * 100_000
    while len(items) < programs:
        case = generate_case(fuzz_seed, _MIX_GENERATOR)
        fuzz_seed += 1
        items.append(MixItem(
            source=case.source, loop=case.label,
            params=dict(case.params), arrays=dict(case.arrays),
            options=dict(_MIX_OPTIONS),
        ))
    return items[:programs]


class ZipfSampler:
    """Seeded, deterministic zipf(s) sampling over mix indices.

    Index *i* (0-based) is rank *i+1* with weight ``1 / (i+1)**s`` --
    the first mix item is the hottest program ("one viral program"), the
    tail approximates the long tail of distinct sources.  The sampler
    itself is stateless (a cumulative weight table); all randomness
    comes from the caller's seeded ``random.Random``, so a (seed, s, n)
    triple always produces the identical request stream.
    """

    def __init__(self, n: int, s: float = 1.1):
        if n < 1:
            raise ValueError(f"n must be >= 1 (got {n})")
        if s <= 0:
            raise ValueError(f"s must be > 0 (got {s})")
        self.n = n
        self.s = s
        self._cumulative = []
        total = 0.0
        for rank in range(1, n + 1):
            total += 1.0 / (rank ** s)
            self._cumulative.append(total)
        self._total = total

    def sample(self, rng: random.Random) -> int:
        """One index drawn zipf(s), consuming one ``rng.random()``."""
        return bisect.bisect_left(self._cumulative, rng.random() * self._total)

    def share(self, index: int) -> float:
        """The fraction of traffic index *index* receives."""
        previous = self._cumulative[index - 1] if index > 0 else 0.0
        return (self._cumulative[index] - previous) / self._total


def make_request(rng: random.Random, mix: list, analyze_fraction: float,
                 sampler: Optional[ZipfSampler] = None,
                 force_trace: bool = False):
    """Draw one request from the mix (analyze or execute), uniformly or
    through a skew *sampler*.  With *force_trace* every request carries
    a client-minted, force-sampled trace context, so the server keeps
    its trace (with compile-phase attribution) regardless of its
    sampling configuration."""
    index = sampler.sample(rng) if sampler is not None else rng.randrange(len(mix))
    item = mix[index]
    trace = (
        {"trace_id": mint_trace_id(), "sampled": True} if force_trace else None
    )
    if rng.random() < analyze_fraction:
        return AnalyzeRequest(
            source=item.source, loop=item.loop, options=item.options,
            trace=trace,
        )
    return ExecuteRequest(
        source=item.source, loop=item.loop,
        params=item.params, arrays=item.arrays, options=item.options,
        trace=trace,
    )


class _ClientStats:
    """Per-client tallies, merged after the run."""

    __slots__ = ("latencies", "completed", "errors", "shed", "failures",
                 "slowest")

    def __init__(self):
        self.latencies: list = []
        self.completed = 0
        self.errors = 0
        self.shed = 0
        self.failures: list = []  # transport-level problems (bug territory)
        self.slowest: list = []  # (latency_s, verb, trace_id), top-K only

    def record(self, response, latency_s: float, verb: str = "?",
               trace_id: Optional[str] = None) -> None:
        if isinstance(response, ErrorResponse):
            self.errors += 1
            if response.code == "overloaded":
                self.shed += 1
        else:
            # same convention as the server's own histogram: shed/error
            # answers arrive in microseconds and would overstate
            # capacity exactly when the server is overloaded, so only
            # served requests count toward latency and throughput
            self.completed += 1
            self.latencies.append(latency_s)
            self.slowest.append((latency_s, verb, trace_id))
            if len(self.slowest) > SLOWEST_K:
                self.slowest.sort(key=lambda entry: -entry[0])
                del self.slowest[SLOWEST_K:]


def _request_meta(request) -> tuple:
    """(verb, trace_id) of an outgoing request, for the slowest table."""
    verb = "analyze" if isinstance(request, AnalyzeRequest) else "execute"
    trace = getattr(request, "trace", None)
    return verb, trace.get("trace_id") if trace else None


def _closed_loop(host, port, count, seed, mix, analyze_fraction, timeout,
                 window, sampler=None, force_trace=False):
    """*window* logical closed-loop clients sharing one pipelined
    connection: keep exactly *window* requests in flight, replacing each
    response with the next send (``window=1`` is the plain closed loop:
    send, wait, repeat).  Responses arrive in request order, so
    per-request latency pairs with a FIFO of send timestamps.  This is
    how the load generator reaches hundreds-to-thousands of simulated
    clients without a thread and a socket per client."""
    stats = _ClientStats()
    rng = random.Random(seed)
    sent_at: deque = deque()
    try:
        with ServerClient(host, port, timeout=timeout) as client:
            sent = received = 0
            while received < count:
                while sent < count and len(sent_at) < window:
                    request = make_request(
                        rng, mix, analyze_fraction, sampler, force_trace
                    )
                    sent_at.append((time.monotonic(), *_request_meta(request)))
                    client.send(request)
                    sent += 1
                response = client.recv()
                started, verb, trace_id = sent_at.popleft()
                stats.record(
                    response, time.monotonic() - started, verb, trace_id
                )
                received += 1
    except (ConnectionError, OSError, ValueError) as exc:
        # ValueError: the peer is not speaking the protocol (wrong
        # port, version-skewed response) -- a transport-level failure
        # from the load generator's point of view
        stats.failures.append(f"{type(exc).__name__}: {exc}")
    return stats


def _open_loop(host, port, count, seed, mix, analyze_fraction, timeout, interval_s,
               sampler=None, force_trace=False):
    """One connection, sends on a fixed schedule, receives concurrently.
    Responses arrive in request order, so latency correlation is a
    FIFO of send timestamps."""
    stats = _ClientStats()
    rng = random.Random(seed)
    sent_at: deque = deque()
    sent_total = [0]  # monotone count of completed sends
    send_error = []
    sender_done = threading.Event()

    try:
        client = ServerClient(host, port, timeout=timeout)
    except (ConnectionError, OSError) as exc:
        stats.failures.append(f"{type(exc).__name__}: {exc}")
        return stats

    def sender():
        next_at = time.monotonic()
        try:
            for _ in range(count):
                delay = next_at - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                request = make_request(
                    rng, mix, analyze_fraction, sampler, force_trace
                )
                sent_at.append((time.monotonic(), *_request_meta(request)))
                client.send(request)
                sent_total[0] += 1
                next_at += interval_s
        except (ConnectionError, OSError) as exc:
            send_error.append(f"{type(exc).__name__}: {exc}")
        finally:
            sender_done.set()

    thread = threading.Thread(target=sender, daemon=True)
    thread.start()
    try:
        received = 0
        while received < count:
            if sender_done.is_set() and send_error and received >= sent_total[0]:
                break  # sender failed; every completed send is answered
            response = client.recv()
            started, verb, trace_id = sent_at.popleft()
            stats.record(response, time.monotonic() - started, verb, trace_id)
            received += 1
    except (ConnectionError, OSError, ValueError) as exc:
        stats.failures.append(f"{type(exc).__name__}: {exc}")
    finally:
        thread.join(timeout=timeout)
        client.close()
    stats.failures.extend(send_error)
    return stats


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(1, round(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def run_load(
    host: str,
    port: int,
    clients: int = 8,
    requests: int = 200,
    mode: str = "closed",
    rate: Optional[float] = None,
    seed: int = 0,
    mix: Optional[list] = None,
    analyze_fraction: float = 0.9,
    timeout: float = 120.0,
    skew: str = "uniform",
    zipf_s: float = 1.1,
    multiplex: int = 1,
    force_trace: bool = False,
) -> dict:
    """Drive *requests* total requests from *clients* concurrent
    logical clients and summarize throughput and latency.

    ``mode="open"`` needs *rate* (total offered requests/second across
    all clients).  ``skew="zipf"`` draws programs zipf(*zipf_s*)-skewed
    instead of uniformly (seeded -- the stream is deterministic).
    ``multiplex=M`` packs up to M closed-loop clients onto each
    connection (sliding-window pipelining), so thousands of simulated
    clients cost ``clients / M`` threads and sockets.
    ``force_trace=True`` attaches a force-sampled trace context to
    every request; the summary's ``slowest`` entries then carry trace
    ids resolvable with ``repro-eval trace``.  The summary document is
    JSON-safe and schema-stable.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1 (got {clients})")
    if requests < 1:
        raise ValueError(f"requests must be >= 1 (got {requests})")
    if mode not in ("closed", "open"):
        raise ValueError(f"mode must be 'closed' or 'open' (got {mode!r})")
    if mode == "open" and (rate is None or rate <= 0):
        raise ValueError("open-loop mode needs a positive --rate")
    if skew not in ("uniform", "zipf"):
        raise ValueError(f"skew must be 'uniform' or 'zipf' (got {skew!r})")
    if not 1 <= multiplex <= MAX_MULTIPLEX:
        raise ValueError(
            f"multiplex must be within [1, {MAX_MULTIPLEX}] (got {multiplex})"
        )
    if multiplex > 1 and mode != "closed":
        raise ValueError("multiplex only applies to closed-loop mode")
    mix = mix or build_mix(seed)
    sampler = ZipfSampler(len(mix), zipf_s) if skew == "zipf" else None

    # pack logical clients onto connections (multiplex=1: one each),
    # then spread the request budget across connections by window size
    connections = (clients + multiplex - 1) // multiplex
    windows = [clients // connections] * connections
    for i in range(clients % connections):
        windows[i] += 1
    per_conn = [0] * connections
    weight = sum(windows)
    for i, window in enumerate(windows):
        per_conn[i] = requests * window // weight
    for i in range(requests - sum(per_conn)):
        per_conn[i % connections] += 1
    lanes = [(n, w) for n, w in zip(per_conn, windows) if n]

    results: list = [None] * len(lanes)

    def run_one(index: int, count: int, window: int) -> None:
        client_seed = seed * 1_000_003 + index
        try:
            if mode == "open":
                interval_s = len(lanes) / rate
                results[index] = _open_loop(
                    host, port, count, client_seed, mix, analyze_fraction,
                    timeout, interval_s, sampler, force_trace,
                )
            else:
                results[index] = _closed_loop(
                    host, port, count, client_seed, mix, analyze_fraction,
                    timeout, window, sampler, force_trace,
                )
        except Exception as exc:  # noqa: BLE001 -- a dead thread must still report
            stats = _ClientStats()
            stats.failures.append(f"{type(exc).__name__}: {exc}")
            results[index] = stats

    started = time.monotonic()
    threads = [
        threading.Thread(target=run_one, args=(i, n, w), daemon=True)
        for i, (n, w) in enumerate(lanes)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.monotonic() - started

    latencies = sorted(x for s in results for x in s.latencies)
    completed = sum(s.completed for s in results)
    errors = sum(s.errors for s in results)
    shed = sum(s.shed for s in results)
    failures = [f for s in results for f in s.failures]
    slowest = sorted(
        (entry for s in results for entry in s.slowest),
        key=lambda entry: -entry[0],
    )[:SLOWEST_K]
    answered = len(latencies)  # == completed: served requests only
    return {
        "analyze_fraction": analyze_fraction,
        "clients": clients,
        "completed": completed,
        "connections": len(lanes),
        "errors": errors,
        "failures": failures,
        "latency": {
            "max_s": round(latencies[-1], 6) if latencies else 0.0,
            "mean_s": round(sum(latencies) / answered, 6) if answered else 0.0,
            "p50_s": round(_percentile(latencies, 0.50), 6),
            "p95_s": round(_percentile(latencies, 0.95), 6),
            "p99_s": round(_percentile(latencies, 0.99), 6),
        },
        "mode": mode,
        "requests": requests,
        "shed": shed,
        "skew": skew,
        "slowest": [
            {
                "latency_s": round(latency, 6),
                "trace_id": trace_id,
                "verb": verb,
            }
            for latency, verb, trace_id in slowest
        ],
        "throughput_rps": round(answered / wall_s, 3) if wall_s > 0 else 0.0,
        "wall_s": round(wall_s, 6),
        "zipf_s": zipf_s if skew == "zipf" else None,
    }

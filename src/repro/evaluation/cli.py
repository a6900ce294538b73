"""Command-line entry point: regenerate any table or figure, batch-run
the whole suite, or differential-fuzz the pipeline.

Usage::

    repro-eval table1            # Table 1 (PERFECT-CLUB)
    repro-eval table2 table3     # Tables 2-3 (SPEC)
    repro-eval fig10 fig13       # figures
    repro-eval all               # everything
    repro-eval table1 --scale 2  # larger datasets

    repro-eval batch                     # all 26 benchmarks, in parallel
    repro-eval batch --suite perfect     # one suite only
    repro-eval batch --jobs 4 --no-cache # bounded workers, force re-run
    repro-eval batch --clear-cache       # drop the persistent cache

    repro-eval fuzz --seeds 500          # differential soundness fuzzing
    repro-eval fuzz --seeds 50 --jobs 2  # CI smoke configuration
    repro-eval fuzz --seeds 100 --shrink # minimize + store any failures
    repro-eval fuzz --seeds 100 --backend thread  # fuzz a real backend
    repro-eval fuzz --backend speculative --chunk dynamic:1  # chunks of one

    repro-eval analyze prog.loop --loop L1         # human-readable plan
    repro-eval analyze prog.loop --loop L1 --json  # AnalyzeResponse JSON
    cat prog.loop | repro-eval analyze - --loop L1 # source on stdin

    repro-eval serve --port 7070 --workers 4       # network serving
    repro-eval serve --port 7070 --adaptive-admission  # AIMD budget
    repro-eval loadgen --port 7070 --clients 8 --requests 200

    repro-eval top --port 7070                     # live dashboard
    repro-eval top --port 7070 --once              # one frame, no ANSI

    repro-eval serve --port 7070 --trace-sample 0.05  # sampled tracing
    repro-eval loadgen --port 7070 --trace         # force-sample all
    repro-eval trace --port 7070                   # recent traces
    repro-eval trace <trace-id> --port 7070        # one waterfall

(``python -m repro.evaluation ...`` is equivalent to ``repro-eval ...``.)

Each subcommand is one row of :data:`COMMANDS` (handler, description,
flags), from which ``main`` builds its parser.  A handler raises
:class:`Usage` for an argument rejected before anything starts, which
``main`` reports as a usage error (exit 2).  Handlers import lazily.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .batch import BatchCache, format_batch, run_batch
from .figures import FIGURES, format_figure, generate_figure
from .tables import format_table, generate_table

__all__ = ["main"]

_TABLES = {"table1": "perfect", "table2": "spec92", "table3": "spec2000"}
_SUITES = ("perfect", "spec92", "spec2000")


class Usage(Exception):
    """An argument a handler, or the library call it makes, rejected."""


def _checked(parse, rule: str, ok):
    """An argparse ``type``: *parse* the text, then reject it unless *ok*."""

    def convert(text: str):
        value = parse(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule} (got {text})")
        return value

    convert.__name__ = parse.__name__  # argparse's "invalid int value: ..."
    return convert


def _at_least(n: int):
    return _checked(int, f">= {n}", lambda value: value >= n)


_POSITIVE = _checked(float, "> 0", lambda value: value > 0)
_FRACTION = _checked(float, "within [0, 1]", lambda value: 0.0 <= value <= 1.0)


def _arg(*names: str, **options):
    return names, options


_SERVER = (
    _arg("--host", default="127.0.0.1", help="server host (default: 127.0.0.1)"),
    _arg("--port", type=int, default=7070,
         help="server port (default: 7070; 0 lets serve pick one)"),
)
_CACHE = (
    _arg("--cache-dir", default=None,
         help="persistent cache location (default: .repro-cache or $REPRO_CACHE_DIR)"),
    _arg("--no-cache", action="store_true", help="ignore the persistent cache entirely"),
)
_SCALE = _arg("--scale", type=int, default=1, help="dataset scale factor")
_JOBS = _arg("--jobs", type=int, default=None, help="worker threads (default: CPU count)")


def _chunk_spec(text: str) -> dict:
    """``POLICY[:SIZE]`` as a chunk spec's wire form."""
    from ..runtime.backends import ChunkSpec

    policy, colon, size = text.partition(":")
    try:
        size = int(size) if colon else None
    except ValueError:
        pass  # the spec rejects it as it is
    try:
        return ChunkSpec(policy, size).to_json()
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _artifacts(args) -> int:
    wanted = list(args.artifacts)
    if "all" in wanted:
        wanted = sorted(_TABLES) + sorted(FIGURES)
    for artifact in wanted:
        if artifact in _TABLES:
            print(format_table(generate_table(_TABLES[artifact], scale=args.scale)))
        else:
            print(format_figure(generate_figure(artifact, scale=args.scale)))
        print()
    return 0


def _batch(args) -> int:
    cache = BatchCache(args.cache_dir)
    if args.clear_cache:
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.directory}")
        return 0
    try:
        report = run_batch(
            suites=args.suite, names=args.benchmark, system=args.system,
            scale=args.scale, jobs=args.jobs,
            cache=None if args.no_cache else cache, use_cache=not args.no_cache,
        )
    except (KeyError, ValueError) as exc:
        raise Usage(*exc.args) from exc
    print(format_batch(report))
    return 0 if all(l.correct for r in report.results for l in r.loops) else 1


def _analyze(args) -> int:
    from ..api import AnalyzeRequest, Engine, EngineConfig

    if args.file == "-":
        source = sys.stdin.read()
    else:
        try:
            source = Path(args.file).read_text()
        except OSError as exc:
            raise Usage(f"cannot read {args.file}: {exc}") from exc
    engine = Engine(EngineConfig(cache_dir=args.cache_dir, use_disk_cache=not args.no_cache))
    try:
        response = engine.analyze(AnalyzeRequest(source=source, loop=args.loop))
    except (KeyError, ValueError, SyntaxError) as exc:
        raise Usage(*exc.args) from exc
    if args.json:
        print(response.canonical_text())
        return 0
    fields = [
        ("loop", response.loop),
        ("classification", response.classification),
        ("techniques", ", ".join(response.techniques) or "-"),
        ("static par", response.static_parallel),
        ("runtime tested", response.runtime_tested),
        ("exact fallback", response.needs_exact_fallback),
    ]
    if response.civs:
        fields.append(("CIVs", ", ".join(response.civs)))
    for label, value in fields:
        print(f"{label + ':':16s}{value}")
    for aplan in response.arrays:
        print(f"  {aplan.array:8s} -> {aplan.transform}")
        for kind in ("flow", "output", "slv", "rred"):
            stages = getattr(aplan, kind)
            if stages is not None:
                print(f"           {kind} cascade: {', '.join(stages)}")
    return 0


def _fuzz(args) -> int:
    from ..runtime.backends import BACKENDS

    if args.backend not in BACKENDS:
        raise Usage(f"unknown backend {args.backend!r}; valid: {list(BACKENDS)}")

    from ..fuzz import (
        FuzzCache,
        format_fuzz_report,
        generate_case,
        run_fuzz,
        shrink_case,
        write_corpus_case,
    )
    from ..fuzz.shrink import corpus_dir

    report = run_fuzz(
        seeds=args.seeds, seed_start=args.seed_start, jobs=args.jobs,
        cache=None if args.no_cache else FuzzCache(args.cache_dir), backend=args.backend,
        chunk=args.chunk,
    )
    print(format_fuzz_report(report))
    if args.shrink and report.failures:
        directory = corpus_dir(args.corpus_dir)
        for failure in report.failures:
            path = write_corpus_case(shrink_case(generate_case(failure.seed)), directory)
            print(f"seed {failure.seed}: minimized repro -> {path}")
    return 0 if report.ok else 1


def _serve(args) -> int:
    multiproc = args.topology == "multiproc"
    if multiproc and (args.queue_depth is not None or args.max_inflight is not None):
        raise Usage(
            "--queue-depth/--max-inflight configure the threads "
            "topology; backends use their own defaults"
        )
    if multiproc and args.adaptive_admission:
        raise Usage(
            "--adaptive-admission configures the threads topology "
            "(the front tier does not shed; its backends do)"
        )

    import asyncio
    import signal

    from ..api import EngineConfig
    from ..server import FrontTier, ReproServer

    # each server checks its own ranges (--backends, --hot-rps,
    # --queue-depth, --max-inflight, --trace-sample) before it starts
    try:
        if multiproc:
            server = FrontTier(
                host=args.host, port=args.port, backends=args.backends,
                replicas=args.replicas, backend_workers=args.backend_workers,
                cache_dir=args.cache_dir, use_disk_cache=not args.no_cache,
                hot_rps=args.hot_rps, trace_sample=args.trace_sample,
            )
            banner = (
                f"topology=multiproc, backends={args.backends}, "
                f"replicas={args.replicas}, backend_workers={args.backend_workers}"
            )
        else:
            server = ReproServer(
                host=args.host, port=args.port, workers=args.workers,
                queue_depth=128 if args.queue_depth is None else args.queue_depth,
                max_inflight=256 if args.max_inflight is None else args.max_inflight,
                adaptive_admission=args.adaptive_admission,
                trace_sample=args.trace_sample,
                engine_config=EngineConfig(
                    cache_dir=args.cache_dir, use_disk_cache=not args.no_cache
                ),
            )
            banner = f"workers={args.workers}" + (
                ", adaptive admission" if args.adaptive_admission else ""
            )
    except ValueError as exc:
        raise Usage(*exc.args) from exc

    async def _run() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(signum, lambda: asyncio.ensure_future(server.stop()))
        except NotImplementedError:
            pass  # non-Unix event loop: rely on KeyboardInterrupt
        print(f"repro-serve: listening on {server.host}:{server.port} ({banner})", flush=True)
        await server.serve_forever()
        snapshot = server.metrics.snapshot()
        if multiproc:
            counts = (
                f"backend_deaths={snapshot['backend_died']}, "
                f"rerouted={snapshot['rerouted']}"
            )
        else:
            counts = f"shed={snapshot['shed']}"
        print(
            f"repro-serve: shut down cleanly after {snapshot['completed']} "
            f"request(s) ({counts}, p95={snapshot['latency']['p95_s']}s)",
            flush=True,
        )

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def _top(args) -> int:
    from ..server import run_top

    return run_top(
        args.host, args.port, interval_s=args.interval, frames=args.frames,
        once=args.once, history=args.history,
    )


def _trace(args) -> int:
    from ..server import run_trace

    return run_trace(
        args.host, args.port, trace_id=args.trace_id, limit=args.limit,
        status=args.status, waterfall=args.waterfall,
    )


def _loadgen(args) -> int:
    from ..api import canonical_json
    from ..server import run_load

    # run_load checks --clients, --requests and --multiplex, and how
    # --mode, --rate and --multiplex combine, before it connects
    try:
        summary = run_load(
            args.host, args.port, clients=args.clients, requests=args.requests,
            mode=args.mode, rate=args.rate, seed=args.seed,
            analyze_fraction=args.analyze_fraction, skew=args.skew,
            zipf_s=args.zipf_s, multiplex=args.multiplex, force_trace=args.trace,
        )
    except ValueError as exc:
        raise Usage(*exc.args) from exc
    if args.json:
        print(canonical_json(summary))
    else:
        latency = summary["latency"]
        print(
            f"loadgen: {summary['completed']}/{summary['requests']} ok, "
            f"{summary['errors']} error(s) ({summary['shed']} shed), "
            f"{summary['throughput_rps']} req/s over {summary['wall_s']}s"
        )
        print(
            f"latency: p50 {latency['p50_s']}s  p95 {latency['p95_s']}s  "
            f"p99 {latency['p99_s']}s  max {latency['max_s']}s"
        )
        for slow in summary["slowest"]:
            trace_tail = f"  trace {slow['trace_id']}" if slow["trace_id"] else ""
            print(f"slowest: {slow['latency_s']}s  {slow['verb']}{trace_tail}")
        for failure in summary["failures"]:
            print(f"transport failure: {failure}")
    return 0 if summary["errors"] == 0 and not summary["failures"] else 1


#: name -> (handler, description, flags); a flag is ``(names, options)``
#: as ``ArgumentParser.add_argument`` takes them
COMMANDS = {
    "batch": (_batch, "Analyze all benchmarks concurrently with a persistent "
              "on-disk result cache.", [
        _arg("--suite", action="append", choices=_SUITES,
             help="restrict to one suite (repeatable; default: all)"),
        _arg("--benchmark", action="append", metavar="NAME",
             help="restrict to named benchmarks (repeatable)"),
        _arg("--system", choices=("hybrid", "baseline"), default="hybrid",
             help="which system to measure (default: hybrid)"),
        _SCALE,
        _JOBS,
        *_CACHE,
        _arg("--clear-cache", action="store_true",
             help="delete the persistent cache and exit"),
    ]),
    "fuzz": (_fuzz, "Differential fuzzing: generate random loop programs "
             "and cross-check analyzer, trace oracle and executor; non-zero "
             "exit on any soundness violation or crash.", [
        _arg("--seeds", type=_at_least(1), default=100,
             help="number of seeds to run (default: 100)"),
        _arg("--seed-start", type=int, default=0,
             help="first seed (default: 0); seed S is deterministic forever"),
        _JOBS,
        *_CACHE,
        _arg("--shrink", action="store_true",
             help="delta-debug each failure and write the minimized repro "
             "into the regression corpus"),
        _arg("--corpus-dir", default=None,
             help="corpus directory for --shrink (default: tests/regression/corpus)"),
        _arg("--backend", default="sequential",
             help="execution backend for the oracle's execution view "
             "(default: sequential)"),
        _arg("--chunk", type=_chunk_spec, default=None, metavar="POLICY[:SIZE]",
             help="how the backend carves the iteration space: 'static' or "
             "'dynamic', optionally with a chunk size (default: static)"),
    ]),
    "analyze": (_analyze, "Analyze one labelled loop of an IR program through "
                "the repro.api engine and print the plan (or, with --json, the "
                "machine-readable AnalyzeResponse document).", [
        _arg("file", help="IR source file ('-' reads standard input)"),
        _arg("--loop", required=True, metavar="LABEL",
             help="label of the loop to analyze"),
        _arg("--json", action="store_true",
             help="emit the AnalyzeResponse as a stable JSON document"),
        *_CACHE,
    ]),
    "serve": (_serve, "Serve the analyze/execute protocol over TCP "
              "(JSON lines: one request per line, one response per line, "
              "responses in request order per connection).  SIGINT/SIGTERM "
              "triggers a graceful shutdown that drains in-flight requests.", [
        *_SERVER,
        _arg("--topology", choices=("threads", "multiproc"), default="threads",
             help="serving topology: one process with a sharded thread pool, "
             "or a front-tier proxy over supervised backend processes "
             "(default: threads)"),
        _arg("--workers", type=_at_least(1), default=4,
             help="engine pool width (default: 4; threads topology only)"),
        _arg("--queue-depth", type=int, default=None,
             help="bounded per-worker queue depth (default: 128; threads "
             "topology only)"),
        _arg("--max-inflight", type=int, default=None,
             help="global in-flight request budget; beyond it requests are "
             "shed with a retryable 'overloaded' error (default: 256; "
             "threads topology only)"),
        _arg("--backends", type=int, default=4,
             help="multiproc topology: backend processes to supervise (default: 4)"),
        _arg("--replicas", type=_at_least(1), default=2,
             help="multiproc topology: replica fan-out width for hot "
             "digests (default: 2)"),
        _arg("--backend-workers", type=_at_least(1), default=2,
             help="multiproc topology: engine pool width per backend (default: 2)"),
        _arg("--hot-rps", type=float, default=32.0,
             help="multiproc topology: per-digest request rate beyond which "
             "a shard counts as hot and fans out (default: 32)"),
        _arg("--adaptive-admission", action="store_true",
             help="drive the in-flight budget with an AIMD controller: "
             "sustained worker-queue saturation shrinks it, drained queues "
             "grow it back (threads topology only; --max-inflight sets the "
             "base budget)"),
        _arg("--trace-sample", type=float, default=0.0, metavar="P",
             help="head-sample this fraction of requests for guaranteed "
             "trace retention with compile-phase attribution (default: 0; "
             "errors and the slow tail are always kept regardless)"),
        *_CACHE,
    ]),
    "loadgen": (_loadgen, "Drive a running repro-eval server with a seeded "
                "workload mix and report throughput/latency.", [
        *_SERVER,
        _arg("--clients", type=int, default=8,
             help="concurrent connections (default: 8)"),
        _arg("--requests", type=int, default=200,
             help="total requests across all clients (default: 200)"),
        _arg("--mode", choices=("closed", "open"), default="closed",
             help="closed loop (one in-flight per client) or open loop "
             "(fixed arrival rate) (default: closed)"),
        _arg("--rate", type=float, default=None,
             help="total offered requests/second (open-loop mode only)"),
        _arg("--seed", type=int, default=0, help="workload-mix seed (default: 0)"),
        _arg("--analyze-fraction", type=_FRACTION, default=0.9,
             help="fraction of analyze (vs execute) requests (default: 0.9)"),
        _arg("--skew", choices=("uniform", "zipf"), default="uniform",
             help="program popularity: uniform over the mix, or zipf-skewed "
             "(seeded, deterministic) (default: uniform)"),
        _arg("--zipf-s", type=_POSITIVE, default=1.1,
             help="zipf exponent for --skew zipf (default: 1.1)"),
        _arg("--multiplex", type=int, default=1,
             help="logical closed-loop clients per connection (sliding-"
             "window pipelining); thousands of clients cost clients/M "
             "sockets (default: 1)"),
        _arg("--trace", action="store_true",
             help="attach a force-sampled trace context to every request; "
             "the summary's 'slowest' entries then carry trace ids "
             "resolvable with 'repro-eval trace <id>'"),
        _arg("--json", action="store_true",
             help="emit the summary as a canonical JSON document"),
    ]),
    "top": (_top, "Live terminal dashboard over a running repro-eval "
            "server (either topology): subscribes to the protocol v6 "
            "metrics stream and renders request/shed/reroute rates, queue "
            "depths and window latency per frame.  Ctrl-C unsubscribes "
            "cleanly.", [
        *_SERVER,
        _arg("--interval", type=_POSITIVE, default=1.0, metavar="SECONDS",
             help="frame interval (default: 1.0; the server clamps)"),
        _arg("--frames", type=_at_least(0), default=0,
             help="stop after N frames (default: 0 = run until Ctrl-C)"),
        _arg("--history", type=_at_least(0), default=32,
             help="ring samples to request on the first frame (default: 32)"),
        _arg("--once", action="store_true",
             help="print exactly one frame without terminal control codes "
             "and exit (headless/CI mode)"),
    ]),
    "trace": (_trace, "Fetch stored request traces from a running "
              "repro-eval server (either topology) and render them: a "
              "waterfall for one trace id, or a newest-first table of the "
              "kept traces.  Plain text, no terminal control codes.", [
        _arg("trace_id", nargs="?", default=None,
             help="trace id to render as a waterfall (default: list the "
             "most recent kept traces)"),
        *_SERVER,
        _arg("--limit", type=_at_least(1), default=10,
             help="how many recent traces to list (default: 10)"),
        _arg("--status", choices=("ok", "error"), default=None,
             help="restrict the listing to one final status"),
        _arg("--waterfall", action="store_true",
             help="expand every listed trace as a waterfall, not just the "
             "summary table"),
    ]),
}

#: the form without a subcommand: ``repro-eval table1 fig10 ...``
_ARTIFACTS = (_artifacts, "Regenerate the paper's tables and figures "
              "(or 'batch' to analyze the whole suite concurrently, "
              "'fuzz' to differential-fuzz the pipeline, "
              "'analyze' for a machine-readable single-loop analysis, "
              "'serve' to put the protocol on a TCP port, "
              "'loadgen' to drive a server under load, "
              "'top' for a live metrics dashboard, "
              "'trace' to render stored request traces).", [
    _arg("artifacts", nargs="+", choices=sorted(_TABLES) + sorted(FIGURES) + ["all"],
         help="which artifacts to regenerate (or the "
         f"{'/'.join(repr(name) for name in COMMANDS)} subcommands)"),
    _SCALE,
])


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    name = argv.pop(0) if argv and argv[0] in COMMANDS else None
    handler, description, flags = COMMANDS[name] if name else _ARTIFACTS
    parser = argparse.ArgumentParser(
        prog=f"repro-eval {name}" if name else "repro-eval", description=description
    )
    for names, options in flags:
        parser.add_argument(*names, **options)
    args = parser.parse_args(argv)
    try:
        return handler(args)
    except Usage as exc:
        parser.error(str(exc.args[0] if exc.args else exc))

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


def _batch_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-eval batch",
        description="Analyze all benchmarks concurrently with a persistent "
        "on-disk result cache.",
    )
    parser.add_argument(
        "--suite", action="append", choices=_SUITES,
        help="restrict to one suite (repeatable; default: all)",
    )
    parser.add_argument(
        "--benchmark", action="append", metavar="NAME",
        help="restrict to named benchmarks (repeatable)",
    )
    parser.add_argument(
        "--system", choices=("hybrid", "baseline"), default="hybrid",
        help="which system to measure (default: hybrid)",
    )
    parser.add_argument("--scale", type=int, default=1, help="dataset scale factor")
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker threads (default: CPU count)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="persistent cache location (default: .repro-cache or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore the persistent cache entirely",
    )
    parser.add_argument(
        "--clear-cache", action="store_true",
        help="delete the persistent cache and exit",
    )
    args = parser.parse_args(argv)

    cache = BatchCache(args.cache_dir)
    if args.clear_cache:
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.directory}")
        return 0
    try:
        report = run_batch(
            suites=args.suite,
            names=args.benchmark,
            system=args.system,
            scale=args.scale,
            jobs=args.jobs,
            cache=None if args.no_cache else cache,
            use_cache=not args.no_cache,
        )
    except (KeyError, ValueError) as exc:
        parser.error(str(exc.args[0] if exc.args else exc))
    print(format_batch(report))
    return 0 if all(l.correct for r in report.results for l in r.loops) else 1


def _analyze_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-eval analyze",
        description="Analyze one labelled loop of an IR program through "
        "the repro.api engine and print the plan (or, with --json, the "
        "machine-readable AnalyzeResponse document).",
    )
    parser.add_argument(
        "file", help="IR source file ('-' reads standard input)"
    )
    parser.add_argument(
        "--loop", required=True, metavar="LABEL",
        help="label of the loop to analyze",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the AnalyzeResponse as a stable JSON document",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="persistent cache location (default: .repro-cache or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="skip the persistent analyze-response cache",
    )
    args = parser.parse_args(argv)

    from ..api import AnalyzeRequest, Engine, EngineConfig

    if args.file == "-":
        source = sys.stdin.read()
    else:
        try:
            source = Path(args.file).read_text()
        except OSError as exc:
            parser.error(f"cannot read {args.file}: {exc}")
    engine = Engine(
        EngineConfig(cache_dir=args.cache_dir, use_disk_cache=not args.no_cache)
    )
    try:
        response = engine.analyze(AnalyzeRequest(source=source, loop=args.loop))
    except (KeyError, ValueError, SyntaxError) as exc:
        parser.error(str(exc.args[0] if exc.args else exc))
    if args.json:
        print(response.canonical_text())
        return 0
    print(f"loop:           {response.loop}")
    print(f"classification: {response.classification}")
    print(f"techniques:     {', '.join(response.techniques) or '-'}")
    print(f"static par:     {response.static_parallel}")
    print(f"runtime tested: {response.runtime_tested}")
    print(f"exact fallback: {response.needs_exact_fallback}")
    if response.civs:
        print(f"CIVs:           {', '.join(response.civs)}")
    for aplan in response.arrays:
        print(f"  {aplan.array:8s} -> {aplan.transform}")
        for kind in ("flow", "output", "slv", "rred"):
            stages = getattr(aplan, kind)
            if stages is not None:
                print(f"           {kind} cascade: {', '.join(stages)}")
    return 0


def _fuzz_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-eval fuzz",
        description="Differential fuzzing: generate random loop programs "
        "and cross-check analyzer, trace oracle and executor; non-zero "
        "exit on any soundness violation or crash.",
    )
    parser.add_argument(
        "--seeds", type=int, default=100,
        help="number of seeds to run (default: 100)",
    )
    parser.add_argument(
        "--seed-start", type=int, default=0,
        help="first seed (default: 0); seed S is deterministic forever",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker threads (default: CPU count)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="persistent cache location (default: .repro-cache or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore the persistent per-seed verdict cache",
    )
    parser.add_argument(
        "--shrink", action="store_true",
        help="delta-debug each failure and write the minimized repro "
        "into the regression corpus",
    )
    parser.add_argument(
        "--corpus-dir", default=None,
        help="corpus directory for --shrink "
        "(default: tests/regression/corpus)",
    )
    parser.add_argument(
        "--backend", default="sequential",
        help="execution backend for the oracle's execution view "
        "(default: sequential)",
    )
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    from ..runtime.backends import BACKENDS

    if args.backend not in BACKENDS:
        parser.error(
            f"unknown backend {args.backend!r}; valid: {list(BACKENDS)}"
        )

    from ..fuzz import (
        FuzzCache,
        format_fuzz_report,
        generate_case,
        run_fuzz,
        shrink_case,
        write_corpus_case,
    )
    from ..fuzz.shrink import corpus_dir

    cache = None if args.no_cache else FuzzCache(args.cache_dir)
    report = run_fuzz(
        seeds=args.seeds,
        seed_start=args.seed_start,
        jobs=args.jobs,
        cache=cache,
        backend=args.backend,
    )
    print(format_fuzz_report(report))
    if args.shrink and report.failures:
        directory = corpus_dir(args.corpus_dir)
        for failure in report.failures:
            shrunk = shrink_case(generate_case(failure.seed))
            path = write_corpus_case(shrunk, directory)
            print(f"seed {failure.seed}: minimized repro -> {path}")
    return 0 if report.ok else 1


def _serve_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-eval serve",
        description="Serve the analyze/execute protocol over TCP "
        "(JSON lines: one request per line, one response per line, "
        "responses in request order per connection).  SIGINT/SIGTERM "
        "triggers a graceful shutdown that drains in-flight requests.",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=7070,
        help="TCP port (default: 7070; 0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--topology", choices=("threads", "multiproc"), default="threads",
        help="serving topology: one process with a sharded thread pool, "
        "or a front-tier proxy over supervised backend processes "
        "(default: threads)",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="engine pool width (default: 4; threads topology only)",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=None,
        help="bounded per-worker queue depth (default: 128; threads "
        "topology only)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=None,
        help="global in-flight request budget; beyond it requests are "
        "shed with a retryable 'overloaded' error (default: 256; "
        "threads topology only)",
    )
    parser.add_argument(
        "--backends", type=int, default=4,
        help="multiproc topology: backend processes to supervise "
        "(default: 4)",
    )
    parser.add_argument(
        "--replicas", type=int, default=2,
        help="multiproc topology: replica fan-out width for hot "
        "digests (default: 2)",
    )
    parser.add_argument(
        "--backend-workers", type=int, default=2,
        help="multiproc topology: engine pool width per backend "
        "(default: 2)",
    )
    parser.add_argument(
        "--hot-rps", type=float, default=32.0,
        help="multiproc topology: per-digest request rate beyond which "
        "a shard counts as hot and fans out (default: 32)",
    )
    parser.add_argument(
        "--adaptive-admission", action="store_true",
        help="drive the in-flight budget with an AIMD controller: "
        "sustained worker-queue saturation shrinks it, drained queues "
        "grow it back (threads topology only; --max-inflight sets the "
        "base budget)",
    )
    parser.add_argument(
        "--trace-sample", type=float, default=0.0, metavar="P",
        help="head-sample this fraction of requests for guaranteed "
        "trace retention with compile-phase attribution (default: 0; "
        "errors and the slow tail are always kept regardless)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="persistent cache location (default: .repro-cache or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="serve without the persistent analyze-response cache",
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.topology == "multiproc":
        if args.queue_depth is not None or args.max_inflight is not None:
            parser.error(
                "--queue-depth/--max-inflight configure the threads "
                "topology; backends use their own defaults"
            )
        if args.adaptive_admission:
            parser.error(
                "--adaptive-admission configures the threads topology "
                "(the front tier does not shed; its backends do)"
            )
        if args.backends < 1:
            parser.error("--backends must be >= 1")
        if args.replicas < 1:
            parser.error("--replicas must be >= 1")
        if args.backend_workers < 1:
            parser.error("--backend-workers must be >= 1")
        if args.hot_rps <= 0:
            parser.error("--hot-rps must be > 0")
    queue_depth = args.queue_depth if args.queue_depth is not None else 128
    max_inflight = args.max_inflight if args.max_inflight is not None else 256
    if queue_depth < 1:
        parser.error("--queue-depth must be >= 1")
    if max_inflight < 1:
        parser.error("--max-inflight must be >= 1")
    if not 0.0 <= args.trace_sample <= 1.0:
        parser.error("--trace-sample must be within [0, 1]")

    import asyncio
    import signal

    from ..api import EngineConfig
    from ..server import FrontTier, ReproServer

    if args.topology == "multiproc":
        server = FrontTier(
            host=args.host,
            port=args.port,
            backends=args.backends,
            replicas=args.replicas,
            backend_workers=args.backend_workers,
            cache_dir=args.cache_dir,
            use_disk_cache=not args.no_cache,
            hot_rps=args.hot_rps,
            trace_sample=args.trace_sample,
        )
        banner = (
            f"topology=multiproc, backends={args.backends}, "
            f"replicas={args.replicas}, backend_workers={args.backend_workers}"
        )
    else:
        server = ReproServer(
            host=args.host,
            port=args.port,
            workers=args.workers,
            queue_depth=queue_depth,
            max_inflight=max_inflight,
            adaptive_admission=args.adaptive_admission,
            trace_sample=args.trace_sample,
            engine_config=EngineConfig(
                cache_dir=args.cache_dir, use_disk_cache=not args.no_cache
            ),
        )
        banner = f"workers={args.workers}" + (
            ", adaptive admission" if args.adaptive_admission else ""
        )

    async def _run() -> None:
        await server.start()
        loop = asyncio.get_running_loop()

        def _request_stop() -> None:
            asyncio.ensure_future(server.stop())

        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(signum, _request_stop)
        except NotImplementedError:
            pass  # non-Unix event loop: rely on KeyboardInterrupt
        print(
            f"repro-serve: listening on {server.host}:{server.port} "
            f"({banner})",
            flush=True,
        )
        await server.serve_forever()
        snapshot = server.metrics.snapshot()
        if args.topology == "multiproc":
            tail = (
                f"(backend_deaths={snapshot['backend_died']}, "
                f"rerouted={snapshot['rerouted']}, "
                f"p95={snapshot['latency']['p95_s']}s)"
            )
        else:
            tail = (
                f"(shed={snapshot['shed']}, "
                f"p95={snapshot['latency']['p95_s']}s)"
            )
        print(
            f"repro-serve: shut down cleanly after "
            f"{snapshot['completed']} request(s) {tail}",
            flush=True,
        )

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def _top_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-eval top",
        description="Live terminal dashboard over a running repro-eval "
        "server (either topology): subscribes to the protocol v6 "
        "metrics stream and renders request/shed/reroute rates, queue "
        "depths and window latency per frame.  Ctrl-C unsubscribes "
        "cleanly.",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="server host (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=7070,
        help="server port (default: 7070)",
    )
    parser.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="frame interval (default: 1.0; the server clamps)",
    )
    parser.add_argument(
        "--frames", type=int, default=0,
        help="stop after N frames (default: 0 = run until Ctrl-C)",
    )
    parser.add_argument(
        "--history", type=int, default=32,
        help="ring samples to request on the first frame (default: 32)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="print exactly one frame without terminal control codes "
        "and exit (headless/CI mode)",
    )
    args = parser.parse_args(argv)
    if args.interval <= 0:
        parser.error("--interval must be > 0")
    if args.frames < 0:
        parser.error("--frames must be >= 0")
    if args.history < 0:
        parser.error("--history must be >= 0")

    from ..server import run_top

    return run_top(
        args.host,
        args.port,
        interval_s=args.interval,
        frames=args.frames,
        once=args.once,
        history=args.history,
    )


def _trace_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-eval trace",
        description="Fetch stored request traces from a running "
        "repro-eval server (either topology) and render them: a "
        "waterfall for one trace id, or a newest-first table of the "
        "kept traces.  Plain text, no terminal control codes.",
    )
    parser.add_argument(
        "trace_id", nargs="?", default=None,
        help="trace id to render as a waterfall (default: list the "
        "most recent kept traces)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="server host (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=7070,
        help="server port (default: 7070)",
    )
    parser.add_argument(
        "--limit", type=int, default=10,
        help="how many recent traces to list (default: 10)",
    )
    parser.add_argument(
        "--status", choices=("ok", "error"), default=None,
        help="restrict the listing to one final status",
    )
    parser.add_argument(
        "--waterfall", action="store_true",
        help="expand every listed trace as a waterfall, not just the "
        "summary table",
    )
    args = parser.parse_args(argv)
    if args.limit < 1:
        parser.error("--limit must be >= 1")

    from ..server import run_trace

    return run_trace(
        args.host,
        args.port,
        trace_id=args.trace_id,
        limit=args.limit,
        status=args.status,
        waterfall=args.waterfall,
    )


def _loadgen_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-eval loadgen",
        description="Drive a running repro-eval server with a seeded "
        "workload mix and report throughput/latency.",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="server host (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=7070,
        help="server port (default: 7070)",
    )
    parser.add_argument(
        "--clients", type=int, default=8,
        help="concurrent connections (default: 8)",
    )
    parser.add_argument(
        "--requests", type=int, default=200,
        help="total requests across all clients (default: 200)",
    )
    parser.add_argument(
        "--mode", choices=("closed", "open"), default="closed",
        help="closed loop (one in-flight per client) or open loop "
        "(fixed arrival rate) (default: closed)",
    )
    parser.add_argument(
        "--rate", type=float, default=None,
        help="total offered requests/second (open-loop mode only)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload-mix seed (default: 0)",
    )
    parser.add_argument(
        "--analyze-fraction", type=float, default=0.9,
        help="fraction of analyze (vs execute) requests (default: 0.9)",
    )
    parser.add_argument(
        "--skew", choices=("uniform", "zipf"), default="uniform",
        help="program popularity: uniform over the mix, or zipf-skewed "
        "(seeded, deterministic) (default: uniform)",
    )
    parser.add_argument(
        "--zipf-s", type=float, default=1.1,
        help="zipf exponent for --skew zipf (default: 1.1)",
    )
    parser.add_argument(
        "--multiplex", type=int, default=1,
        help="logical closed-loop clients per connection (sliding-"
        "window pipelining); thousands of clients cost clients/M "
        "sockets (default: 1)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="attach a force-sampled trace context to every request; "
        "the summary's 'slowest' entries then carry trace ids "
        "resolvable with 'repro-eval trace <id>'",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the summary as a canonical JSON document",
    )
    args = parser.parse_args(argv)
    if args.clients < 1:
        parser.error("--clients must be >= 1")
    if args.requests < 1:
        parser.error("--requests must be >= 1")
    if args.mode == "open" and (args.rate is None or args.rate <= 0):
        parser.error("--mode open needs a positive --rate")
    if not 0.0 <= args.analyze_fraction <= 1.0:
        parser.error("--analyze-fraction must be within [0, 1]")
    if args.zipf_s <= 0:
        parser.error("--zipf-s must be > 0")
    if args.multiplex < 1:
        parser.error("--multiplex must be >= 1")
    if args.multiplex > 1 and args.mode != "closed":
        parser.error("--multiplex only applies to closed-loop mode")

    from ..api import canonical_json
    from ..server import run_load

    summary = run_load(
        args.host,
        args.port,
        clients=args.clients,
        requests=args.requests,
        mode=args.mode,
        rate=args.rate,
        seed=args.seed,
        analyze_fraction=args.analyze_fraction,
        skew=args.skew,
        zipf_s=args.zipf_s,
        multiplex=args.multiplex,
        force_trace=args.trace,
    )
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
            trace_tail = (
                f"  trace {slow['trace_id']}" if slow["trace_id"] else ""
            )
            print(
                f"slowest: {slow['latency_s']}s  {slow['verb']}{trace_tail}"
            )
        for failure in summary["failures"]:
            print(f"transport failure: {failure}")
    return 0 if summary["errors"] == 0 and not summary["failures"] else 1


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "batch":
        return _batch_main(argv[1:])
    if argv and argv[0] == "fuzz":
        return _fuzz_main(argv[1:])
    if argv and argv[0] == "analyze":
        return _analyze_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "loadgen":
        return _loadgen_main(argv[1:])
    if argv and argv[0] == "top":
        return _top_main(argv[1:])
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-eval",
        description="Regenerate the paper's tables and figures "
        "(or 'batch' to analyze the whole suite concurrently, "
        "'fuzz' to differential-fuzz the pipeline, "
        "'analyze' for a machine-readable single-loop analysis, "
        "'serve' to put the protocol on a TCP port, "
        "'loadgen' to drive a server under load, "
        "'top' for a live metrics dashboard, "
        "'trace' to render stored request traces).",
    )
    parser.add_argument(
        "artifacts",
        nargs="+",
        choices=sorted(_TABLES) + sorted(FIGURES) + ["all"],
        help="which artifacts to regenerate (or the "
        "'batch'/'fuzz'/'analyze'/'serve'/'loadgen'/'top'/'trace' "
        "subcommands)",
    )
    parser.add_argument("--scale", type=int, default=1, help="dataset scale factor")
    args = parser.parse_args(argv)

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

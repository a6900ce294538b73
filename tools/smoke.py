#!/usr/bin/env python3
"""Serving smoke scenarios: serve -> drive -> SIGINT -> clean shutdown.

    python tools/smoke.py <server|multiproc|streaming|trace>

Each scenario starts ``repro-eval serve`` as a child on an ephemeral
port (``--port 0``, the bound port parsed from the listening banner),
drives it through the CLI and the blocking client exactly as an
operator would, interrupts it, and checks the exit code and the
"shut down cleanly" line.  Any missed assertion or non-zero child exit
fails the run (non-zero exit).  CI's four serving smoke jobs and the
``make smoke-*`` targets both call this file, so a red job reproduces
locally with one command.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.api import ExecuteRequest  # noqa: E402
from repro.server import ServerClient  # noqa: E402
from repro.server.supervisor import READY_PATTERN  # noqa: E402
from repro.server.tracing import mint_trace_id  # noqa: E402

_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
_CLI = [sys.executable, "-m", "repro.evaluation"]

SOURCE = """
program smoke
param N
array A(200), B(200), IDX(200)

main
  do i = 1, N @ target
    t = B[i] + 1
    A[IDX[i]] = A[IDX[i]] + t
  end
end
"""


def check(ok, message: str) -> None:
    if not ok:
        raise SystemExit(f"smoke: FAILED -- {message}")


class Served:
    """One ``repro-eval serve`` child, from banner to verified exit."""

    def __init__(self, *serve_args: str, expect_in_log: tuple = ()):
        self.expect_in_log = ("shut down cleanly",) + expect_in_log
        self.proc = subprocess.Popen(
            _CLI + ["serve", "--port", "0", "--no-cache", *serve_args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=_ENV, cwd=ROOT,
        )
        self.banner = self.proc.stdout.readline()
        # the same banner the supervisor learns its backends' ports from
        match = READY_PATTERN.search(self.banner)
        if match is None:
            self.proc.kill()
            raise SystemExit(f"smoke: FAILED -- no banner: {self.banner!r}")
        self.port = int(match.group(2))
        print(self.banner, end="", flush=True)

    def __enter__(self) -> "Served":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.proc.send_signal(signal.SIGINT)
        try:
            log, _ = self.proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            log, _ = self.proc.communicate()
            log += "\n(smoke: server ignored SIGINT for 120s; killed)"
        print(log, end="", flush=True)
        if exc_type is None:
            check(self.proc.returncode == 0,
                  f"server exited with {self.proc.returncode}")
            for phrase in self.expect_in_log:
                check(phrase in self.banner + log, f"{phrase!r} not in server log")

    def cli(self, command: str, *args: str) -> str:
        """Run one ``repro-eval`` client command against this server;
        echo and return its output, fail on a non-zero exit."""
        done = subprocess.run(
            _CLI + [command, "--port", str(self.port), *args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=_ENV, cwd=ROOT,
        )
        print(done.stdout, end="", flush=True)
        check(done.returncode == 0,
              f"{command} {' '.join(args)} exited with {done.returncode}")
        return done.stdout

    def client(self) -> ServerClient:
        return ServerClient("127.0.0.1", self.port)


def server() -> None:
    """loadgen 200 requests / 8 clients, zero errors, graceful stop."""
    with Served("--workers", "2") as served:
        served.cli("loadgen", "--clients", "8", "--requests", "200")


def multiproc() -> None:
    """Front tier + 2 backends: zipf load, SIGKILL one backend (pid from
    the topology stats verb), wait for the supervisor to restore the
    fleet, load again -- zero errors throughout."""
    with Served("--topology", "multiproc", "--backends", "2",
                "--backend-workers", "1",
                expect_in_log=("topology=multiproc",)) as served:
        served.cli("loadgen", "--clients", "8", "--requests", "200",
                   "--skew", "zipf")

        def stats() -> dict:
            with served.client() as client:
                return client.stats().stats

        pid = stats()["backends"][0]["pid"]
        os.kill(pid, signal.SIGKILL)
        print(f"killed backend 0 (pid {pid})", flush=True)
        deadline = time.monotonic() + 60
        while True:
            doc = stats()
            if doc["topology"]["live"] == 2 and doc["backends"][0]["pid"] != pid:
                print("fleet restored:", doc["topology"], flush=True)
                break
            check(time.monotonic() < deadline,
                  "backend was not restarted within 60s")
            time.sleep(0.5)
        served.cli("loadgen", "--clients", "8", "--requests", "200")


def streaming() -> None:
    """v6 subscribe under load: monotone frames, clean unsubscribe, the
    connection still serves afterwards, headless ``top``."""
    with Served("--workers", "2", "--adaptive-admission",
                expect_in_log=("adaptive admission",)) as served:
        load = subprocess.Popen(
            _CLI + ["loadgen", "--port", str(served.port),
                    "--clients", "4", "--requests", "100"],
            env=_ENV, cwd=ROOT,
        )
        try:
            with served.client() as client:
                stream = client.subscribe(interval_s=0.2, history=16)
                frames = [next(stream) for _ in range(5)]
                check([f.seq for f in frames] == list(range(5)),
                      f"frame seqs {[f.seq for f in frames]}")
                check(not any(f.final for f in frames), "early final frame")
                check(all(f.stream["topology"] == "threads" for f in frames),
                      "frame topology")
                check(all("max_inflight" in f.stream["gauges"] for f in frames),
                      "max_inflight gauge missing")
                ack = client.unsubscribe()
                check(ack.frames >= 5, f"ack {ack}")
                check(client.stats().stats["admission"]["adaptive"] is True,
                      "connection dead after the stream / admission not adaptive")
            print(f"streamed {ack.frames} frames, unsubscribed cleanly", flush=True)
        finally:
            check(load.wait(timeout=300) == 0, "background loadgen failed")
        served.cli("top", "--once", "--history", "8")


def trace() -> None:
    """v7 tracing under load: forced sampling, span-tree shape, headless
    waterfall viewer (recent table and one by-id render)."""
    with Served("--workers", "2", "--trace-sample", "1.0") as served:
        summary = served.cli("loadgen", "--clients", "4", "--requests", "100",
                             "--trace")
        listed = re.search(r"trace ([0-9a-f]{32})", summary)
        check(listed is not None, "loadgen --trace printed no trace id")

        trace_id = mint_trace_id()
        request = ExecuteRequest(
            source=SOURCE, loop="target", params={"N": 20},
            arrays={"IDX": [(i % 7) + 1 for i in range(200)], "B": [2] * 200},
            trace={"trace_id": trace_id, "sampled": True},
        )
        with served.client() as client:
            check(client.call(request).to_json()["kind"] == "execute",
                  "forced-trace execute failed")
            doc = client.trace(trace_id=trace_id).traces[0]
        spans = doc["spans"]
        by_id = {span["span_id"]: span for span in spans}
        root = by_id[doc["root_span_id"]]
        check(root["name"] == "request", f"root span {root}")
        names = {span["name"] for span in spans}
        check({"queue_wait", "compile", "execute"} <= names, f"span names {names}")
        compiled = next(s for s in spans if s["name"] == "compile")
        check(compiled["attrs"].get("phases"), f"no phase attribution: {compiled}")
        for span in spans:
            if span["span_id"] != doc["root_span_id"]:
                check(span["parent_span_id"] in by_id, f"orphan span {span}")
            check(span["end_s"] >= span["start_s"], f"negative span {span}")
            check(span["start_s"] >= root["start_s"] - 1e-6
                  and span["end_s"] <= root["end_s"] + 1e-6,
                  f"span outside its root {span}")
        children = [s for s in spans if s["parent_span_id"] == doc["root_span_id"]]
        check(sum(s["duration_s"] for s in children) <= root["duration_s"] + 1e-6,
              "children outlast the root")
        print(f"trace {trace_id}: {len(spans)} spans, tree well-formed", flush=True)

        served.cli("trace")
        served.cli("trace", listed.group(1))


SCENARIOS = {fn.__name__: fn for fn in (server, multiproc, streaming, trace)}


def main(argv: list) -> int:
    if len(argv) != 1 or argv[0] not in SCENARIOS:
        print(__doc__)
        return 2
    SCENARIOS[argv[0]]()
    print(f"smoke: {argv[0]} OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
